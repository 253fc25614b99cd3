//! `olap-flat` and `olap-nested`: one in-process analyst runs a fixed
//! query list back to back (closed loop), each query paired with a batch
//! run and checked against its exact answer (Theorem 1). The traced run
//! then runs one leg over TCP for the layers the in-process path does not
//! reach: the serving leg after `olap-flat`, the shard leg after
//! `olap-nested`.

use crate::common::{
    mean, median, ms, Args, E2e, Layers, Spans, BATCHES, MIN_RUNS, SETUP_REPEATS, TRIALS,
};
use crate::inproc::{
    corrupt_relation, prepare_exact, run_query, Check, Data, Prepared, RunCtx, TracedSamples,
};
use crate::Outcome;
use iolap_relation::{BatchedRelation, PartitionMode};
use std::time::{Duration, Instant};

/// Flat SPJA queries: no recovery, bootstrap weights dominate.
pub const FLAT: &[&str] = &["Q1", "Q3", "Q5", "Q6", "Q7", "C3", "C5", "C11", "C12"];
/// Nested aggregates: pruning, checkpoints and §5.1 replay.
pub const NESTED: &[&str] = &["Q17", "Q18", "Q20", "C2", "C10"];

struct Setup {
    data: Data,
    queries: Vec<Prepared>,
}

fn setup(args: &Args, ids: &[&str]) -> Setup {
    let data = Data::generate(args.seed, ids);
    let mut queries: Vec<Prepared> = ids.iter().map(|id| prepare_exact(&data, id)).collect();
    if args.corrupt_reference {
        if let Some(Check::Exact { answer, .. }) = queries.first_mut().map(|q| &mut q.check) {
            *answer = corrupt_relation(answer);
        }
    }
    Setup { data, queries }
}

/// A TCP leg of the traced run: it measures the per-layer metrics of the
/// layers it exercises into `layers` and counts its operations in `e2e`.
pub type Leg = fn(&Args, &mut Layers, &mut E2e);

/// Run `ids` as one workload; the traced run ends with `leg`.
pub fn run(args: &Args, ids: &[&str], leg: Leg) -> Outcome {
    let mut e2e = E2e::default();
    let mut gen_ms = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = setup(args, ids);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        gen_ms.push(s.data.gen_ms);
        kept.get_or_insert(s);
    }
    let s = kept.expect("at least one set-up");

    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let mut samples = TracedSamples::default();
    let mut traced_e2e = E2e::default();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0usize;
    loop {
        let ctx = RunCtx {
            data: &s.data,
            seed: round_seed(args.seed, rounds),
            pool: None,
        };
        for q in &s.queries {
            run_query(&ctx, q, None, &mut e2e);
            if args.trace {
                run_query(&ctx, q, Some((&mut spans, &mut samples)), &mut traced_e2e);
            }
        }
        rounds += 1;
        if Instant::now() >= deadline && rounds >= MIN_RUNS {
            break;
        }
    }
    e2e.wall_s = origin.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    if args.trace {
        layers.set("workloads.gen_ms", median(&gen_ms));
        layers.set("sql.plan_us", mean(&samples.plan_us));
        layers.set("driver.build_ms", mean(&samples.build_ms));
        samples.counters.report(&mut layers);
        layers.set(
            "bootstrap.block_weights_ms",
            block_weights_ms(&s.data, &s.queries, args.seed),
        );
        let exact_ms: Vec<f64> = s
            .queries
            .iter()
            .filter_map(|q| match q.check {
                Check::Exact { exact_ms, .. } => Some(exact_ms),
                Check::Canon(_) => None,
            })
            .collect();
        layers.set("baselines.exact_ms", mean(&exact_ms));
        e2e.absolute(&mut layers);
        let untraced = E2e::geomean_of_medians(&e2e.final_ms);
        let traced = E2e::geomean_of_medians(&traced_e2e.final_ms);
        layers.set(
            "trace_overhead_pct",
            (traced / untraced.max(1e-9) - 1.0) * 100.0,
        );
        if !spans.report(&mut layers) {
            e2e.fail("self-times sum to more than the traced wall time");
        }
        crate::common::write_spans(args, &spans);
        leg(args, &mut layers, &mut traced_e2e);
    }
    e2e.merge_failures(&traced_e2e);
    Outcome { e2e, layers }
}

/// Engine seed of round `round` (batch shuffle and bootstrap): each round
/// of the query list runs over a fresh random batch order, as each new
/// query of an analyst would, so a run's medians do not rest on one
/// shuffle. Round 0 uses the workload seed itself.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Time `block_trial_weights` over each query's streamed table with the
/// run's per-batch row counts and trial count; mean per query run, ms.
fn block_weights_ms(data: &Data, queries: &[Prepared], seed: u64) -> f64 {
    let mut per_query = Vec::new();
    for q in queries {
        let (cat, _) = data.for_query(&q.spec);
        let Ok(rel) = cat.get(q.spec.stream_table) else {
            continue;
        };
        let parts = BatchedRelation::partition(&rel, BATCHES, seed, PartitionMode::RowShuffle);
        let start = Instant::now();
        let mut first_row = 0u64;
        for b in 0..parts.num_batches() {
            let rows = parts.batch(b).len();
            let w = iolap_bootstrap::block_trial_weights(seed, first_row, rows, TRIALS);
            std::hint::black_box(&w);
            first_row += rows as u64;
        }
        per_query.push(ms(start.elapsed()));
    }
    mean(&per_query)
}
