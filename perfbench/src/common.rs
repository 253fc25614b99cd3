//! Shared pieces of every workload: the fixed scale, the argument record,
//! the end-to-end record, per-layer accumulators, the benchmark-side span
//! recorder and the small statistics the metrics are built from.

use iolap_core::{IolapConfig, TraceMode};
use iolap_relation::PartitionMode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// TPC-H-lite scale factor (`1.0` ≈ 6,000 lineorder rows).
pub const TPCH_SF: f64 = 4.0;
/// Rows of the synthetic Conviva `sessions` table.
pub const CONVIVA_ROWS: usize = 24_000;
/// Mini-batches per query.
pub const BATCHES: usize = 20;
/// Bootstrap trials per query.
pub const TRIALS: usize = 100;
/// Every run makes at least this many runs of each query, so each query
/// has at least `MIN_RUNS × BATCHES` = 100 report intervals and its 90th
/// percentile has at least ten samples beyond it.
pub const MIN_RUNS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Engine configuration shared by every workload: full scale, engine
/// parallelism 1, the workload seed for both the batch shuffle and the
/// bootstrap, and the journal tracer only in traced query runs.
pub fn engine_config(seed: u64, traced: bool) -> IolapConfig {
    let mut c = IolapConfig::with_batches(BATCHES)
        .trials(TRIALS)
        .seed(seed)
        .parallelism(1);
    c.partition_mode = PartitionMode::RowShuffle;
    if traced {
        c = c.trace_mode(TraceMode::Journal);
    }
    c
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: data generation, batch shuffle, bootstrap, appends.
    pub seed: u64,
    /// Measured seconds (the loop finishes the query it is in).
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Self-test: perturb one reference answer so the checks must fail.
    pub corrupt_reference: bool,
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds as milliseconds.
pub fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Linear-interpolated quantile (`q` in `[0,1]`); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end record of one run. Every query run is paired with a
/// batch run of the same query (`plan_sql` + `run_baseline_plan`) made
/// just before it, and the end-to-end times are ratios to that batch time:
/// the machine's speed drifts by ±25% over minutes, which a ratio between
/// two runs made seconds apart cancels.
#[derive(Default, Debug)]
pub struct E2e {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Per query id: submit → exact batch answer of the paired batch run.
    pub batch_ms: BTreeMap<String, Vec<f64>>,
    /// Per query id: submit → first report, per run.
    pub first_ms: BTreeMap<String, Vec<f64>>,
    /// Per query id: submit → final report, per run.
    pub final_ms: BTreeMap<String, Vec<f64>>,
    /// Per query id: intervals between consecutive reports of one run.
    pub intervals_ms: BTreeMap<String, Vec<f64>>,
    /// Query runs whose final report was received and verified.
    pub verified: u64,
    /// Operations attempted (query runs, plus wire requests on TCP).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Measured wall time.
    pub wall_s: f64,
}

impl E2e {
    /// Count one failed operation and say why on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {what}");
    }

    /// Record one query run's report arrival times (offsets from submit)
    /// and the time of its paired batch run.
    pub fn record_run(&mut self, query: &str, batch_ms: f64, arrivals_ms: &[f64]) {
        let (Some(first), Some(last)) = (arrivals_ms.first(), arrivals_ms.last()) else {
            return;
        };
        let q = query.to_string();
        self.batch_ms.entry(q.clone()).or_default().push(batch_ms);
        self.first_ms.entry(q.clone()).or_default().push(*first);
        self.final_ms.entry(q.clone()).or_default().push(*last);
        let intervals = self.intervals_ms.entry(q).or_default();
        let mut prev = 0.0;
        for &t in arrivals_ms {
            intervals.push(t - prev);
            prev = t;
        }
    }

    /// Count another record's operations and failures only (its latencies
    /// are not end-to-end samples).
    pub fn merge_failures(&mut self, other: &E2e) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Geometric mean over queries of each query's median.
    pub fn geomean_of_medians(per_query: &BTreeMap<String, Vec<f64>>) -> f64 {
        let medians: Vec<f64> = per_query.values().map(|v| median(v)).collect();
        geomean(&medians)
    }

    /// Geometric mean over queries of each query's median of `per_query`
    /// over its median batch time.
    fn geomean_of_ratios(&self, per_query: &BTreeMap<String, Vec<f64>>) -> f64 {
        let ratios: Vec<f64> = per_query
            .iter()
            .map(|(q, v)| median(v) / self.batch_median(q))
            .collect();
        geomean(&ratios)
    }

    fn batch_median(&self, query: &str) -> f64 {
        self.batch_ms.get(query).map_or(0.0, |v| median(v)).max(1e-9)
    }

    /// Geometric mean over queries of the `q` quantile of each query's
    /// report intervals over its median batch time.
    fn geomean_of_interval_ratios(&self, q: f64) -> f64 {
        let ratios: Vec<f64> = self
            .intervals_ms
            .iter()
            .map(|(id, v)| quantile(v, q) / self.batch_median(id))
            .collect();
        geomean(&ratios)
    }

    /// Report intervals pooled over all runs, ms.
    pub fn intervals(&self) -> Vec<f64> {
        self.intervals_ms.values().flatten().copied().collect()
    }

    /// Failed operations per attempted operation.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        vec![
            m("setup_s", median(&self.setup_s), "s"),
            m("first_report_x", self.geomean_of_ratios(&self.first_ms), "x"),
            m("final_x", self.geomean_of_ratios(&self.final_ms), "x"),
            m("report_x_p50", self.geomean_of_interval_ratios(0.50), "x"),
            m("report_x_p90", self.geomean_of_interval_ratios(0.90), "x"),
            m("ok_frac", 1.0 - self.failed_frac(), "ratio"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// The same run's absolute times (per-layer table; they follow the
    /// machine's drift, so they carry no bound).
    pub fn absolute(&self, layers: &mut Layers) {
        let intervals = self.intervals();
        layers.set("e2e.batch_ms", Self::geomean_of_medians(&self.batch_ms));
        layers.set(
            "e2e.first_report_ms",
            Self::geomean_of_medians(&self.first_ms),
        );
        layers.set("e2e.final_ms", Self::geomean_of_medians(&self.final_ms));
        layers.set("e2e.report_ms_p50", quantile(&intervals, 0.50));
        layers.set("e2e.report_ms_p90", quantile(&intervals, 0.90));
    }
}

/// Per-layer metrics of a traced run, by name (units live in the
/// per-layer table that prints them).
#[derive(Default, Debug)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Current value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Names of every metric set so far.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.0.keys().map(String::as_str)
    }
}

/// Engine span names (from `BatchReport::self_time_ns`) → the metric they
/// report as. A span these workloads never open (`Union`, the parallel
/// `agg.fold`) has no metric; its time stays in `self.other_ms`.
pub fn engine_span_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "batch" => "self.batch_ms",
        "Scan" => "self.scan_ms",
        "Select" => "self.select_ms",
        "Project" => "self.project_ms",
        "Aggregate" => "self.aggregate_ms",
        "Join" => "self.join_ms",
        "SemiJoin" => "self.semijoin_ms",
        "sink.publish" => "self.sink.publish_ms",
        _ => return None,
    })
}

/// One benchmark-side span, kept in memory and written out at the end.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (the `self.*` metric it reports under).
    pub name: &'static str,
    /// Query run the span belongs to (spans of one run share it).
    pub run: u64,
    /// Start offset from the recorder's origin, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Part of the duration covered by child spans (engine self-times).
    pub child_ns: u64,
}

/// Benchmark-side span recorder. Self time is a span's duration minus the
/// engine self-times reported inside it, so the sum of every `self.*` plus
/// `self.other_ms` equals the traced wall time.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    run: u64,
    /// Exclusive time per `self.*` metric name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Traced wall time, ns.
    pub wall_ns: u64,
    /// Recorded spans.
    pub events: Vec<SpanEvent>,
}

impl Spans {
    /// A recorder timing from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            run: 0,
            self_ns: BTreeMap::new(),
            wall_ns: 0,
            events: Vec::new(),
        }
    }

    /// Start a new query run: the spans recorded next share its id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Record a benchmark-side span `[start, end)` whose children (engine
    /// spans) took `child_ns` of it.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant, child_ns: u64) {
        let dur = nanos(end.saturating_duration_since(start));
        let own = dur.saturating_sub(child_ns);
        *self.self_ns.entry(name).or_insert(0) += own;
        self.events.push(SpanEvent {
            name,
            run: self.run,
            start_ns: nanos(start.saturating_duration_since(self.origin)),
            dur_ns: dur,
            child_ns,
        });
    }

    /// Add engine self-times of one batch; returns their sum (the part of
    /// the enclosing `step` span they cover, named or not).
    pub fn engine(&mut self, self_time_ns: &[(&'static str, u64)]) -> u64 {
        let mut total = 0u64;
        for (name, ns) in self_time_ns {
            if let Some(metric) = engine_span_metric(name) {
                *self.self_ns.entry(metric).or_insert(0) += ns;
            }
            total += ns;
        }
        total
    }

    /// Add a traced unit of work's wall time (the residual's base).
    pub fn wall(&mut self, start: Instant, end: Instant) {
        self.wall_ns += nanos(end.saturating_duration_since(start));
    }

    /// Write the `self.*` metrics, the `self.other_ms` residual and the
    /// traced wall into `layers`. Returns `false` when the self-times sum
    /// to more than the wall time they partition (a double count).
    pub fn report(&self, layers: &mut Layers) -> bool {
        let total: u64 = self.self_ns.values().sum();
        for (name, ns) in &self.self_ns {
            layers.set(name, ns_ms(*ns));
        }
        layers.set("trace.wall_ms", ns_ms(self.wall_ns));
        let other = self.wall_ns as i128 - total as i128;
        layers.set("self.other_ms", other as f64 / 1e6);
        // Engine and benchmark spans read the same monotonic clock; allow
        // 0.1% of the wall for rounding at span edges.
        other >= -(self.wall_ns as i128 / 1000)
    }

    /// The recorded spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"dur_ns\":{},\"child_ns\":{}}}",
                e.name, e.run, e.start_ns, e.dur_ns, e.child_ns
            );
        }
        out
    }
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Directory (under the current directory) for run artifacts: span dumps
/// and the serving workload's durable log.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".perfbench_out")
}

/// Write the traced run's spans to `.perfbench_out/<workload>-<seed>.spans.jsonl`.
pub fn write_spans(args: &Args, spans: &Spans) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("perfbench: cannot create {}", dir.display());
        return;
    }
    let path = dir.join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, spans.jsonl()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Engine counters summed over a traced run's reports, reported per query
/// run. `(counter, metric, scale)`: `_ns` counters become ms.
pub const ENGINE_COUNTERS: &[(&str, &str, f64)] = &[
    ("scan.weights_ns", "scan.weights_ms", 1e-6),
    ("scan.rows", "scan.rows", 1.0),
    ("select.filter_ns", "select.filter_ms", 1e-6),
    ("select.classify_ns", "select.classify_ms", 1e-6),
    ("join.probe_ns", "join.probe_ms", 1e-6),
    ("agg.fold_ns", "agg.fold_ms", 1e-6),
    ("agg.fold_rows", "agg.fold_rows", 1.0),
    ("agg.publish_ns", "agg.publish_ms", 1e-6),
    ("registry.derefs", "registry.derefs", 1.0),
    ("registry.publish_bytes", "registry.publish_bytes", 1.0),
    ("ckpt.save_ns", "ckpt.save_ms", 1e-6),
    ("ckpt.clone_bytes", "ckpt.clone_bytes", 1.0),
    ("recovery.replay_ns", "recovery.replay_ms", 1e-6),
    ("sink.publish_ns", "sink.publish_ms", 1e-6),
    ("shard.dispatch_ns", "shard.dispatch_ms", 1e-6),
    ("shard.merge_ns", "shard.merge_ms", 1e-6),
];

/// Accumulates the engine counters of traced query runs.
#[derive(Default, Debug)]
pub struct EngineCounters {
    /// Traced query runs folded in.
    pub runs: u64,
    sums: BTreeMap<&'static str, f64>,
    retained_peak: f64,
    recovered_batches: f64,
    recomputed_tuples: f64,
    step_ms: Vec<f64>,
}

impl EngineCounters {
    /// Fold one batch report in.
    pub fn batch(&mut self, r: &iolap_core::BatchReport, step_ms: f64) {
        for (counter, metric, scale) in ENGINE_COUNTERS {
            *self.sums.entry(metric).or_insert(0.0) += r.metrics.get(counter) as f64 * scale;
        }
        self.retained_peak = self
            .retained_peak
            .max(r.metrics.get("ckpt.retained_bytes") as f64);
        if r.recovered {
            self.recovered_batches += 1.0;
        }
        self.recomputed_tuples += r.stats.recomputed_tuples as f64;
        self.step_ms.push(step_ms);
    }

    /// Write the per-query-run means into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        let runs = self.runs.max(1) as f64;
        for (_, metric, _) in ENGINE_COUNTERS {
            layers.set(metric, self.sums.get(metric).copied().unwrap_or(0.0) / runs);
        }
        layers.set("ckpt.retained_bytes", self.retained_peak);
        layers.set("recovery.batches", self.recovered_batches / runs);
        layers.set("recovery.recomputed_tuples", self.recomputed_tuples / runs);
        layers.set("driver.step_ms_p50", quantile(&self.step_ms, 0.50));
        layers.set("driver.step_ms_p95", quantile(&self.step_ms, 0.95));
    }
}

/// A report's answer without wall-clock fields: two reports with equal
/// canon carry byte-identical results.
pub fn report_canon(r: &iolap_core::BatchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "batch={} fraction={} recovered={}",
        r.batch, r.fraction, r.recovered
    );
    let _ = writeln!(s, "names={:?}", r.result.names);
    let _ = write!(s, "{}", r.result.relation);
    let _ = writeln!(s, "estimates={:?}", r.result.estimates);
    s
}
