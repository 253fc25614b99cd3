//! End-to-end and per-layer benchmark of the iOLAP workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]
//! ```
//!
//! Runs one named workload at full scale, checks every answer, and prints
//! as its last stdout line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (each `{"value", "unit"}`). `--trace 0` prints
//! the end-to-end metrics, measured with tracing off; `--trace 1` is a
//! separate traced run that prints the per-layer metrics, including those
//! of a serving or shard leg over TCP. Exit status is 0 when every check
//! passed, 1 when any failed (the result is still printed) and 2 on a
//! usage error. See `perfbench/README.md`.

mod common;
mod inproc;
mod net;
mod olap;
mod serve;
mod shard;

use common::{Args, E2e, Layers, Metric};

/// What a workload run hands back for printing.
pub struct Outcome {
    /// End-to-end record (operations, failures, latencies).
    pub e2e: E2e,
    /// Per-layer metrics (traced run only).
    pub layers: Layers,
}

/// Workload names.
const WORKLOADS: &[&str] = &["olap-flat", "olap-nested"];

/// Every per-layer metric a traced run prints, with its unit; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("sql.plan_us", "us"),
    ("driver.build_ms", "ms"),
    ("driver.step_ms_p50", "ms"),
    ("driver.step_ms_p95", "ms"),
    ("scan.weights_ms", "ms"),
    ("scan.rows", "count"),
    ("bootstrap.block_weights_ms", "ms"),
    ("select.filter_ms", "ms"),
    ("select.classify_ms", "ms"),
    ("join.probe_ms", "ms"),
    ("agg.fold_ms", "ms"),
    ("agg.fold_rows", "count"),
    ("agg.publish_ms", "ms"),
    ("registry.derefs", "count"),
    ("registry.publish_bytes", "bytes"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.clone_bytes", "bytes"),
    ("ckpt.retained_bytes", "bytes"),
    ("recovery.replay_ms", "ms"),
    ("recovery.batches", "count"),
    ("recovery.recomputed_tuples", "count"),
    ("sink.publish_ms", "ms"),
    ("baselines.exact_ms", "ms"),
    ("e2e.batch_ms", "ms"),
    ("e2e.first_report_ms", "ms"),
    ("e2e.final_ms", "ms"),
    ("e2e.report_ms_p50", "ms"),
    ("e2e.report_ms_p90", "ms"),
    ("tcp.rtt_ms.submit", "ms"),
    ("tcp.rtt_ms.poll", "ms"),
    ("tcp.rtt_ms.append", "ms"),
    ("tcp.handle_us.submit", "us"),
    ("tcp.handle_us.poll", "us"),
    ("tcp.handle_us.append", "us"),
    ("tcp.transport_wait_ms", "ms"),
    ("wire.parse_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("sched.wait_ms_p50", "ms"),
    ("sched.wait_ms_p95", "ms"),
    ("server.admitted", "count"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("ingest.appends_reached", "count"),
    ("durable.records", "count"),
    ("durable.bytes_per_user_byte", "ratio"),
    ("durable.read_ms", "ms"),
    ("shard.exchanges", "count"),
    ("shard.request_bytes", "bytes"),
    ("shard.response_bytes", "bytes"),
    ("shard.rtt_ms_p50", "ms"),
    ("shard.handle_us", "us"),
    ("shard.dispatch_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("self.batch_ms", "ms"),
    ("self.scan_ms", "ms"),
    ("self.select_ms", "ms"),
    ("self.project_ms", "ms"),
    ("self.aggregate_ms", "ms"),
    ("self.join_ms", "ms"),
    ("self.semijoin_ms", "ms"),
    ("self.sink.publish_ms", "ms"),
    ("self.bench.plan_ms", "ms"),
    ("self.bench.build_ms", "ms"),
    ("self.bench.step_ms", "ms"),
    ("self.bench.check_ms", "ms"),
    ("self.other_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            args.corrupt_reference = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        eprintln!("perfbench: metric {name} is not finite ({v}); printing 0");
        "0.0".to_string()
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "olap-flat" => olap::run(&args, olap::FLAT, serve::leg),
        "olap-nested" => olap::run(&args, olap::NESTED, shard::leg),
        _ => unreachable!("workload validated by parse_args"),
    };
    let e2e = &outcome.e2e;
    eprintln!(
        "perfbench: {} query runs verified, {} report intervals, {}/{} ops failed, {:.2} s measured",
        e2e.verified,
        e2e.intervals().len(),
        e2e.failed,
        e2e.attempted,
        e2e.wall_s
    );

    let metrics: Vec<Metric> = if args.trace {
        let mut layers = outcome.layers;
        layers.set("failed_frac", e2e.failed_frac());
        for name in layers.names() {
            if !PER_LAYER.iter().any(|(n, _)| *n == name) {
                eprintln!("perfbench: layer metric {name} is not in the per-layer table");
            }
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                value: layers.get(name),
                unit,
            })
            .collect()
    } else {
        e2e.metrics()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(&m.name, m.value),
                m.unit
            )
        })
        .collect();
    let correct = e2e.failed == 0 && e2e.attempted > 0;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        e2e.attempted.max(1),
        e2e.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
