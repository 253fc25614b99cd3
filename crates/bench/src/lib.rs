//! # iolap-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§8). Each `exp_*` binary prints the same rows/series the
//! paper reports; `EXPERIMENTS.md` records paper-vs-measured shape
//! comparisons. Criterion benches under `benches/` exercise the same code
//! paths at reduced scale so `cargo bench --workspace` covers each
//! experiment.

#![warn(missing_docs)]

pub mod analysis;
pub mod durability;
pub mod observe;
pub mod serve;
pub mod shard;

pub use analysis::{run_analysis, AnalysisRecord};
pub use durability::durability_sweep;
pub use observe::observe_sweep;
pub use shard::shard_sweep;

// Workload constructors install the static plan verifier into the core
// driver's debug hook, so every debug-build experiment re-verifies its
// rewritten plan before batch 0.
use iolap_baselines::{run_baseline_plan, BaselineReport, HdaDriver};
use iolap_core::{
    BatchReport, FaultKind, FaultPlan, IolapConfig, IolapDriver, Metrics, TraceEvent, TraceMode,
};
use iolap_engine::{plan_sql, FunctionRegistry, PlannedQuery};
use iolap_relation::{Catalog, PartitionMode};
use iolap_workloads::QuerySpec;
use std::time::Duration;

/// Experiment scale knobs (shrunk from the paper's 1–2 TB to laptop scale).
#[derive(Clone, Copy, Debug)]
pub struct ExpScale {
    /// TPC-H-lite scale factor (`1.0` ≈ 6000 lineorder rows).
    pub tpch_sf: f64,
    /// Conviva sessions rows.
    pub conviva_rows: usize,
    /// Mini-batches per query (the paper's 1 TB / 11.5 GB ≈ 87 batches;
    /// we default to a smaller count that still shows the per-batch
    /// trends).
    pub batches: usize,
    /// Bootstrap trials (paper: 100).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExpScale {
    /// Full experiment scale (the `exp_*` binaries).
    pub fn full() -> Self {
        ExpScale {
            tpch_sf: 4.0,
            conviva_rows: 24_000,
            batches: 20,
            trials: 100,
            seed: 2016,
        }
    }

    /// Reduced scale for Criterion benches.
    pub fn bench() -> Self {
        ExpScale {
            tpch_sf: 0.5,
            conviva_rows: 3_000,
            batches: 8,
            trials: 40,
            seed: 2016,
        }
    }

    /// Scale taken from the `IOLAP_SCALE` environment variable
    /// (`full` | `bench` | a float multiplier on `full`).
    pub fn from_env() -> Self {
        match std::env::var("IOLAP_SCALE").ok().as_deref() {
            Some("bench") => ExpScale::bench(),
            Some(s) => {
                if let Ok(mult) = s.parse::<f64>() {
                    let base = ExpScale::full();
                    ExpScale {
                        tpch_sf: base.tpch_sf * mult,
                        conviva_rows: ((base.conviva_rows as f64) * mult) as usize,
                        ..base
                    }
                } else {
                    ExpScale::full()
                }
            }
            None => ExpScale::full(),
        }
    }

    /// Default iOLAP config at this scale.
    pub fn config(&self) -> IolapConfig {
        let mut c = IolapConfig::with_batches(self.batches)
            .trials(self.trials)
            .seed(self.seed);
        c.partition_mode = PartitionMode::RowShuffle;
        c
    }
}

/// A prepared workload: catalog + registry + query list.
pub struct Workload {
    /// Workload label (`"TPC-H"` / `"Conviva"`).
    pub name: &'static str,
    /// The data.
    pub catalog: Catalog,
    /// Functions (UDFs/UDAFs for Conviva).
    pub registry: FunctionRegistry,
    /// The query suite.
    pub queries: Vec<QuerySpec>,
}

/// Build the TPC-H-lite workload at `scale`.
pub fn tpch_workload(scale: &ExpScale) -> Workload {
    iolap_analyze::install();
    Workload {
        name: "TPC-H",
        catalog: iolap_workloads::tpch_catalog(scale.tpch_sf, scale.seed),
        registry: FunctionRegistry::with_builtins(),
        queries: iolap_workloads::tpch_queries(),
    }
}

/// Build the Conviva workload at `scale`.
pub fn conviva_workload(scale: &ExpScale) -> Workload {
    iolap_analyze::install();
    Workload {
        name: "Conviva",
        catalog: iolap_workloads::conviva_catalog(scale.conviva_rows, scale.seed),
        registry: iolap_workloads::conviva_registry(),
        queries: iolap_workloads::conviva_queries(),
    }
}

impl Workload {
    /// Plan one of this workload's queries.
    pub fn plan(&self, q: &QuerySpec) -> PlannedQuery {
        plan_sql(q.sql, &self.catalog, &self.registry).unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run a query through iOLAP to completion.
    pub fn run_iolap(&self, q: &QuerySpec, config: IolapConfig) -> Vec<BatchReport> {
        let pq = self.plan(q);
        let mut d = IolapDriver::from_plan(&pq, &self.catalog, q.stream_table, config)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        d.run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run a query through iOLAP with the full event journal armed,
    /// returning the batch reports, the recorded trace, and the driver's
    /// cumulative metrics (histograms included) — the `experiments trace`
    /// subcommand's data source.
    pub fn run_iolap_traced(
        &self,
        q: &QuerySpec,
        config: IolapConfig,
    ) -> (Vec<BatchReport>, Vec<TraceEvent>, Metrics) {
        let pq = self.plan(q);
        let mut d = IolapDriver::from_plan(
            &pq,
            &self.catalog,
            q.stream_table,
            config.trace_mode(TraceMode::Journal),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let reports = d
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let events = d.trace_events();
        let cumulative = d.metrics().clone();
        (reports, events, cumulative)
    }

    /// Run a query through HDA to completion.
    pub fn run_hda(&self, q: &QuerySpec, config: IolapConfig) -> Vec<BatchReport> {
        let pq = self.plan(q);
        let mut d = HdaDriver::from_plan(&pq, &self.catalog, q.stream_table, config)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        d.run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run the exact batch baseline, timed.
    pub fn run_baseline(&self, q: &QuerySpec) -> BaselineReport {
        let pq = self.plan(q);
        run_baseline_plan(&pq, &self.catalog).unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }
}

/// Total latency across batch reports.
pub fn total_latency(reports: &[BatchReport]) -> Duration {
    reports.iter().map(|r| r.elapsed).sum()
}

/// Latency until the driver has processed at least `fraction` of the data
/// (the paper's "iOLAP on 5% / 10% data" bars).
pub fn latency_at_fraction(reports: &[BatchReport], fraction: f64) -> Duration {
    let mut acc = Duration::ZERO;
    for r in reports {
        acc += r.elapsed;
        if r.fraction >= fraction {
            return acc;
        }
    }
    acc
}

/// `a / b` as a float ratio of durations (`1.0` when `b` is zero).
pub fn ratio(a: Duration, b: Duration) -> f64 {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
    if b == 0.0 {
        1.0
    } else {
        a / b
    }
}

/// Format a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Overhead of `on_ms` over `off_ms` in percent of `off_ms` (can be
/// slightly negative under timer noise; 0 when `off_ms` is 0).
pub fn overhead_pct(off_ms: f64, on_ms: f64) -> f64 {
    if off_ms > 0.0 {
        100.0 * (on_ms / off_ms - 1.0)
    } else {
        0.0
    }
}

/// Print a header line for an experiment section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// One fault-storm cell: a single driver run under one injected fault.
#[derive(Clone, Debug)]
pub struct FaultStormRun {
    /// Workload label.
    pub workload: &'static str,
    /// Query id (`"Q17"`, `"C8"`, …).
    pub query: &'static str,
    /// Fault-kind label (see `FaultKind::label`).
    pub kind: &'static str,
    /// Batch the fault was armed at.
    pub batch: usize,
    /// Checkpoint interval the run used.
    pub interval: usize,
    /// Total fault fires observed by the injector.
    pub fired: u64,
    /// Whether the final batch's answer agreed with the exact offline
    /// baseline (Theorem 1 at `m = 1`).
    pub agree: bool,
    /// Batches that reported a recovery.
    pub recoveries: usize,
    /// Flight-recorder dump captured after the run (the storm arms the
    /// bounded ring, so every run carries its own black box).
    pub dump: Option<String>,
}

/// The most informative flight-recorder dump in a storm: prefer a run
/// whose recovery cascaded, then any run that replayed, then any run whose
/// fault fired at all.
pub fn storm_flight_dump(runs: &[FaultStormRun]) -> Option<&str> {
    let by = |pat: &str| {
        runs.iter()
            .filter_map(|r| r.dump.as_deref())
            .find(|d| d.contains(pat))
    };
    by("recovery.cascade")
        .or_else(|| by("recovery.replay"))
        .or_else(|| by("fault.injected"))
}

/// Every fault kind the storm sweeps, with its stable label.
pub fn fault_storm_kinds() -> Vec<(&'static str, FaultKind)> {
    vec![
        (
            "fail_range",
            FaultKind::FailRange {
                agg: None,
                column: None,
            },
        ),
        ("drop_checkpoint", FaultKind::DropCheckpoint),
        ("corrupt_checkpoint", FaultKind::CorruptCheckpoint),
        ("worker_panic", FaultKind::WorkerPanic),
        ("deref_panic", FaultKind::DerefPanic),
        ("perturb_ranges", FaultKind::PerturbRanges { epsilon: 0.25 }),
    ]
}

/// The §5.1 fault storm: sweep fault kind × armed batch × checkpoint
/// interval over the nested flagship queries (TPC-H Q17/Q20, Conviva C8),
/// checking every run's *final* answer against the exact offline baseline
/// — Theorem 1's anchor point, which fault injection must not move.
/// `smoke` shrinks the sweep to one batch point and two intervals so the
/// offline gate stays fast; the full sweep covers three of each.
pub fn fault_storm(scale: &ExpScale, smoke: bool) -> Vec<FaultStormRun> {
    fault_storm_sharded(scale, smoke, 0)
}

/// [`fault_storm`] with fold dispatch offloaded to an in-process shard
/// pool of `shards` workers (`0` = unsharded). The scale-out path must
/// not cost a single Theorem-1-exact cell — see `experiments shard`.
pub fn fault_storm_sharded(scale: &ExpScale, smoke: bool, shards: usize) -> Vec<FaultStormRun> {
    // Injected worker/deref panics are caught and recovered by the driver,
    // but the default panic hook would still spray their backtraces over
    // the report — silence it for the storm's duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fault_storm_inner(scale, smoke, shards)
    }));
    std::panic::set_hook(prev_hook);
    match out {
        Ok(runs) => runs,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn fault_storm_inner(scale: &ExpScale, smoke: bool, shards: usize) -> Vec<FaultStormRun> {
    let mut out = Vec::new();
    let suites: [(Workload, &[&str]); 2] = [
        (tpch_workload(scale), &["Q17", "Q20"]),
        (conviva_workload(scale), &["C8"]),
    ];
    let b = scale.batches;
    let batch_points: Vec<usize> = if smoke {
        // One point, chosen to be a save batch under every swept interval
        // so the checkpoint faults actually arm (first i ≥ b/2 with
        // (i+1) % 3 == 0 — also a save batch at interval 1).
        vec![(b / 2..b).find(|i| (i + 1) % 3 == 0).unwrap_or(b / 2)]
    } else {
        vec![1, b / 2, b.saturating_sub(1)]
    };
    let intervals: Vec<usize> = if smoke { vec![1, 3] } else { vec![1, 2, 3] };
    for (w, ids) in suites {
        for id in ids {
            let q = w
                .queries
                .iter()
                .find(|q| q.id == *id)
                .unwrap_or_else(|| panic!("unknown storm query {id}"))
                .clone();
            let baseline = w.run_baseline(&q);
            let pq = w.plan(&q);
            for (label, kind) in fault_storm_kinds() {
                for &bp in &batch_points {
                    for &iv in &intervals {
                        let mut cfg = scale.config();
                        cfg.checkpoint_interval = iv;
                        if matches!(kind, FaultKind::WorkerPanic) {
                            cfg = cfg.parallelism(2);
                        }
                        // Every storm run flies with the bounded recorder
                        // armed: a run that dies leaves a black box, and a
                        // run that recovers documents its replays.
                        let cfg = cfg
                            .fault_plan(FaultPlan::new(scale.seed).with(bp, kind.clone()))
                            .flight_recorder();
                        let mut d = IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, cfg)
                            .unwrap_or_else(|e| panic!("{id}: {e}"));
                        if shards > 0 {
                            d.set_shard_exec(std::sync::Arc::new(
                                iolap_server::shard::ThreadShardPool::new(shards),
                            ));
                        }
                        let reports = d
                            .run_to_completion()
                            .unwrap_or_else(|e| panic!("{id} under {label}@{bp}: {e}"));
                        let last = reports.last().expect("at least one batch");
                        out.push(FaultStormRun {
                            workload: w.name,
                            query: q.id,
                            kind: label,
                            batch: bp,
                            interval: iv,
                            fired: d.fault_fires().iter().map(|(_, _, n)| n).sum(),
                            agree: last.result.relation.approx_eq(&baseline.relation, 1e-6),
                            recoveries: reports.iter().filter(|r| r.recovered).count(),
                            dump: d.flight_dump(),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_at_bench_scale() {
        let scale = ExpScale::bench();
        let t = tpch_workload(&scale);
        assert!(t.catalog.contains("lineorder"));
        let c = conviva_workload(&scale);
        assert!(c.catalog.contains("sessions"));
        assert_eq!(c.queries.len(), 13); // SBI + C1..C12
    }

    #[test]
    fn latency_helpers() {
        let scale = ExpScale::bench();
        let w = conviva_workload(&scale);
        let q = w.queries.iter().find(|q| q.id == "C3").unwrap().clone();
        let reports = w.run_iolap(&q, scale.config());
        assert_eq!(reports.len(), scale.batches);
        let at_half = latency_at_fraction(&reports, 0.5);
        let total = total_latency(&reports);
        assert!(at_half <= total);
        assert!(ratio(total, at_half) >= 1.0);
    }
}
