//! Sharded scale-out experiments: the sweep behind `experiments shard`.
//!
//! The paper's §8 scalability study drives two axes: *scale-up* (more
//! cores in one process) vs *scale-out* (more worker nodes, partial
//! state shipped to a coordinator), with "data shipped" as the cost of
//! the second. The sweep reproduces both on the repo's substrate:
//!
//! * a shards × mini-batch grid over fold-heavy workload queries, each
//!   cell a full driver run with an in-process [`ThreadShardPool`]
//!   attached (`shards = 0` is the single-process baseline);
//! * a TCP probe: the same run against real [`serve_shard`] workers over
//!   loopback sockets, with the measured response bytes as the
//!   data-shipped axis (skipped gracefully where the sandbox denies
//!   loopback binds);
//! * a fault-storm replay at `N = 2` shards: every §5.1 fault cell must
//!   stay Theorem-1-exact when fold dispatch is offloaded.
//!
//! The core contract checked cell by cell is *determinism*: a sharded
//! run's published answers must be byte-identical to the unsharded
//! baseline (the partition-grid merge discipline — see
//! `iolap_core::shard`). Any divergence is a violation and fails the
//! harness; throughput and shipped bytes are recorded, not asserted.

use crate::serve::report_canon;
use crate::{conviva_workload, fault_storm_sharded, section, ExpScale, FaultStormRun, Workload};
use iolap_core::{BatchReport, IolapDriver, ShardExec};
use iolap_server::shard::{serve_shard, TcpShardPool, ThreadShardPool};
use std::sync::Arc;
use std::time::Instant;

/// One cell of the shards × batch-count grid.
#[derive(Clone, Debug)]
struct ShardCell {
    /// Query id.
    query: &'static str,
    /// Shard count (`0` = unsharded single-process baseline).
    shards: usize,
    /// Mini-batches the stream was split into (the batch-size axis:
    /// fewer batches ⇒ more rows, and more grid partitions, per batch).
    batches: usize,
    /// End-to-end wall clock.
    elapsed_ms: f64,
    /// Stream rows per second of wall clock.
    rows_per_s: f64,
    /// Total coordinator-side dispatch wait (`shard.dispatch_ns`).
    dispatch_ms: f64,
    /// Total partition-order merge time (`shard.merge_ns`).
    merge_ms: f64,
    /// Partial-state bytes shipped shard→coordinator.
    bytes_shipped: u64,
    /// Whether every published report was byte-identical to the
    /// unsharded baseline of the same (query, batches) point.
    identical: bool,
}

/// Outcome of the loopback TCP probe.
#[derive(Clone, Debug)]
struct TcpProbe {
    /// Worker connections used.
    shards: usize,
    /// Byte-identity vs the unsharded baseline.
    identical: bool,
    /// Measured response-frame bytes (the paper's data-shipped axis).
    bytes_shipped: u64,
    /// Wall clock of the TCP run.
    elapsed_ms: f64,
    /// Total `shard.fold` exchanges across worker connections
    /// (the coordinator-side `shard.stats` view).
    worker_folds: u64,
    /// Total partials acknowledged as merged.
    worker_acked: u64,
    /// Total response-line bytes per the worker-stats counters.
    worker_response_bytes: u64,
}

/// Canonical serialization of a whole run's published answers.
fn run_canon(reports: &[BatchReport]) -> String {
    reports.iter().map(report_canon).collect()
}

fn metric_total(reports: &[BatchReport], name: &str) -> u64 {
    reports
        .iter()
        .flat_map(|r| r.metrics.iter())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .sum()
}

fn run_with(
    w: &Workload,
    query: &'static str,
    batches: usize,
    scale: &ExpScale,
    pool: Option<Arc<dyn ShardExec>>,
) -> (Vec<BatchReport>, f64) {
    let q = w
        .queries
        .iter()
        .find(|q| q.id == query)
        .unwrap_or_else(|| panic!("unknown shard-sweep query {query}"))
        .clone();
    let pq = w.plan(&q);
    let mut cfg = scale.config();
    cfg.num_batches = batches;
    let mut d = IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, cfg)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    if let Some(pool) = pool {
        d.set_shard_exec(pool);
    }
    let start = Instant::now();
    let reports = d
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    (reports, start.elapsed().as_secs_f64() * 1e3)
}

/// Run the shards × batch-count sweep; returns its violation count.
/// `smoke` pins one grid point per axis for the offline gate; the full
/// sweep covers the crossover region.
pub fn shard_sweep(scale: &ExpScale, smoke: bool) -> usize {
    // The sweep wants fold-dominated batches with several grid partitions
    // each, so rows-per-batch must clear a few multiples of
    // PARTITION_ROWS regardless of the ambient scale.
    let mut scale = *scale;
    scale.conviva_rows = scale.conviva_rows.max(if smoke { 12_000 } else { 24_000 });
    let w = conviva_workload(&scale);
    let rows = scale.conviva_rows;
    let queries: &[&'static str] = if smoke { &["C2"] } else { &["SBI", "C2"] };
    let batch_counts: &[usize] = if smoke { &[4] } else { &[4, 8] };
    let shard_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut diverged = 0usize;
    let mut scaleout_win = false;
    println!(
        "{:<6} {:>7} {:>8} {:>11} {:>12} {:>11} {:>9} {:>13} {:>10}",
        "query",
        "shards",
        "batches",
        "elapsed_ms",
        "rows_per_s",
        "dispatch_ms",
        "merge_ms",
        "bytes_shipped",
        "identical"
    );
    for &query in queries {
        for &batches in batch_counts {
            // Unsharded baseline for this (query, batches) point.
            let (base_reports, base_ms) = run_with(&w, query, batches, &scale, None);
            let baseline_canon = run_canon(&base_reports);
            let mut cell = ShardCell {
                query,
                shards: 0,
                batches,
                elapsed_ms: base_ms,
                rows_per_s: rows as f64 / (base_ms / 1e3),
                dispatch_ms: 0.0,
                merge_ms: 0.0,
                bytes_shipped: 0,
                identical: true,
            };
            print_cell(&cell);
            for &shards in shard_counts {
                let pool: Arc<dyn ShardExec> = Arc::new(ThreadShardPool::new(shards));
                let (reports, ms) = run_with(&w, query, batches, &scale, Some(Arc::clone(&pool)));
                cell = ShardCell {
                    query,
                    shards,
                    batches,
                    elapsed_ms: ms,
                    rows_per_s: rows as f64 / (ms / 1e3),
                    dispatch_ms: metric_total(&reports, "shard.dispatch_ns") as f64 / 1e6,
                    merge_ms: metric_total(&reports, "shard.merge_ns") as f64 / 1e6,
                    bytes_shipped: pool.bytes_shipped(),
                    identical: run_canon(&reports) == baseline_canon,
                };
                scaleout_win |= cell.identical && shards > 1 && ms < base_ms;
                print_cell(&cell);
                diverged += usize::from(!cell.identical);
            }
        }
    }

    // TCP probe: the same determinism claim across a real process-style
    // boundary, with measured frame bytes.
    let tcp = tcp_probe(&w, queries[0], batch_counts[0], &scale);
    match &tcp {
        Some(p) => println!(
            "tcp probe: shards={} identical={} bytes_shipped={} elapsed_ms={:.1} \
             worker_folds={} worker_acked={} worker_response_bytes={}",
            p.shards,
            p.identical,
            p.bytes_shipped,
            p.elapsed_ms,
            p.worker_folds,
            p.worker_acked,
            p.worker_response_bytes
        ),
        None => println!("tcp probe: skipped (loopback bind denied)"),
    }

    // Fault-storm replay at N=2: offloaded dispatch must not cost a
    // single exact cell.
    section("shard: fault storm at N=2 shards");
    let storm = fault_storm_sharded(&scale, true, 2);
    let agree = storm.iter().filter(|r| r.agree).count();
    println!(
        "storm: {agree}/{} cells Theorem-1-exact with 2-shard dispatch",
        storm.len()
    );
    report_storm_failures(&storm);

    let v = diverged + tcp.map_or(0, |t| usize::from(!t.identical)) + (storm.len() - agree);
    if v > 0 {
        eprintln!("shard sweep: {v} determinism/exactness violation(s)");
    }
    if scaleout_win {
        println!("scale-out win: some sharded cell beat the single-process baseline");
    }
    v
}

fn print_cell(c: &ShardCell) {
    println!(
        "{:<6} {:>7} {:>8} {:>11.1} {:>12.0} {:>11.2} {:>9.2} {:>13} {:>10}",
        c.query,
        c.shards,
        c.batches,
        c.elapsed_ms,
        c.rows_per_s,
        c.dispatch_ms,
        c.merge_ms,
        c.bytes_shipped,
        c.identical
    );
}

fn report_storm_failures(storm: &[FaultStormRun]) {
    for r in storm.iter().filter(|r| !r.agree) {
        eprintln!(
            "  DISAGREE {} {} kind={} batch={} interval={}",
            r.workload, r.query, r.kind, r.batch, r.interval
        );
    }
}

fn tcp_probe(
    w: &Workload,
    query: &'static str,
    batches: usize,
    scale: &ExpScale,
) -> Option<TcpProbe> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    std::thread::spawn(move || serve_shard(listener));
    let pool = Arc::new(TcpShardPool::connect(&[addr, addr]).ok()?);
    pool.ping().ok()?;

    let (base_reports, _) = run_with(w, query, batches, scale, None);
    let (reports, ms) = run_with(
        w,
        query,
        batches,
        scale,
        Some(Arc::clone(&pool) as Arc<dyn ShardExec>),
    );
    let workers = pool.worker_stats();
    Some(TcpProbe {
        shards: pool.shards(),
        identical: run_canon(&reports) == run_canon(&base_reports),
        bytes_shipped: pool.bytes_shipped(),
        elapsed_ms: ms,
        worker_folds: workers.iter().map(|w| w.folds).sum(),
        worker_acked: workers.iter().map(|w| w.acked).sum(),
        worker_response_bytes: workers.iter().map(|w| w.response_bytes).sum(),
    })
}
