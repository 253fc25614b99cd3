//! The shard leg of `olap-nested`'s traced run: an in-process coordinator
//! runs C4 and C3 with every aggregate fold dispatched through a
//! `TcpShardPool` over two loopback connections to `serve_shard` workers,
//! each reached through a timing proxy. Every report must be
//! byte-identical (report canon) to the in-process run.

use crate::common::{engine_config, median, report_canon, Args, E2e, Layers, Spans};
use crate::inproc::{query_spec, run_query, Check, Data, Prepared, RunCtx, TracedSamples};
use crate::net::{start_proxy, ProxyStats};
use iolap_core::{IolapDriver, ShardExec};
use iolap_engine::plan_sql;
use iolap_server::shard::{handle_shard_request, serve_shard, ShardWorkerState, TcpShardPool};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Queries of the leg: a nested aggregate (HAVING over a subquery)
/// and a flat one. Neither recovers on any seed tried, so every run ships
/// the same kind of frames: SBI and C2 recover on about one seed in six,
/// and a recovery ships the replayed prefix through the fold frames
/// (peak RSS 200–425 MB against about 82 MB), so the leg's numbers would
/// depend on the seed.
pub const QUERIES: &[&str] = &["C4", "C3"];
/// Shard workers (one loopback connection each).
pub const SHARDS: usize = 2;

struct Setup {
    data: Data,
    queries: Vec<Prepared>,
    workers: Vec<SocketAddr>,
}

fn setup(args: &Args) -> Setup {
    let data = Data::generate(args.seed, QUERIES);
    let mut workers = Vec::new();
    for _ in 0..SHARDS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
        workers.push(listener.local_addr().expect("shard worker address"));
        std::thread::spawn(move || serve_shard(listener));
    }
    let mut queries = Vec::new();
    for id in QUERIES {
        let spec = query_spec(id);
        let (cat, reg) = data.for_query(&spec);
        let pq = plan_sql(spec.sql, cat, reg).unwrap_or_else(|e| panic!("{id}: plan: {e}"));
        let mut driver =
            IolapDriver::from_plan(&pq, cat, spec.stream_table, engine_config(args.seed, false))
                .unwrap_or_else(|e| panic!("{id}: from_plan: {e}"));
        let reports = driver
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{id}: in-process run: {e}"));
        let canon: Vec<String> = reports.iter().map(report_canon).collect();
        queries.push(Prepared {
            spec,
            check: Check::Canon(canon),
        });
    }
    if args.corrupt_reference {
        if let Some(Check::Canon(canon)) = queries.first_mut().map(|q| &mut q.check) {
            if let Some(first) = canon.first_mut() {
                first.push_str("corrupted reference\n");
            }
        }
    }
    Setup {
        data,
        queries,
        workers,
    }
}

/// Folds + acks the pool has exchanged, and response bytes it measured.
fn pool_counters(pool: &dyn ShardExec) -> (u64, u64) {
    let exchanges = pool.worker_stats().iter().map(|w| w.folds + w.acked).sum();
    (exchanges, pool.bytes_shipped())
}

/// Run the leg: each query once untraced, with the proxies recording its
/// exchanges, and once traced, for the engine's shard counters.
pub fn leg(args: &Args, layers: &mut Layers, e2e: &mut E2e) {
    let s = setup(args);
    let proxy = Arc::new(Mutex::new(ProxyStats::default()));
    let addrs: Vec<SocketAddr> = s
        .workers
        .iter()
        .map(|w| start_proxy(*w, Arc::clone(&proxy)).expect("start a shard proxy"))
        .collect();
    let pool: Arc<dyn ShardExec> =
        Arc::new(TcpShardPool::connect(&addrs).expect("connect the shard pool"));
    let ctx = RunCtx {
        data: &s.data,
        seed: args.seed,
        pool: Some(Arc::clone(&pool)),
    };
    let mut spans = Spans::new(Instant::now());
    let mut samples = TracedSamples::default();
    let (mut runs, mut exchanges, mut response_bytes) = (0u64, 0u64, 0u64);
    for q in &s.queries {
        let before = pool_counters(pool.as_ref());
        set_recording(&proxy, true);
        run_query(&ctx, q, None, e2e);
        set_recording(&proxy, false);
        let after = pool_counters(pool.as_ref());
        runs += 1;
        exchanges += after.0 - before.0;
        response_bytes += after.1 - before.1;
        run_query(&ctx, q, Some((&mut spans, &mut samples)), e2e);
    }
    drop(ctx);
    drop(pool);

    let runs = runs.max(1) as f64;
    let st = proxy.lock().expect("proxy stats lock poisoned");
    layers.set("shard.exchanges", exchanges as f64 / runs);
    layers.set("shard.request_bytes", st.request_bytes as f64 / runs);
    layers.set("shard.response_bytes", response_bytes as f64 / runs);
    layers.set("shard.rtt_ms_p50", median(&st.rtt_ms));
    layers.set("shard.handle_us", replay_handle_us(&st.frames));
    let mut counters = Layers::default();
    samples.counters.report(&mut counters);
    for name in ["shard.dispatch_ms", "shard.merge_ms"] {
        layers.set(name, counters.get(name));
    }
}

fn set_recording(proxy: &Mutex<ProxyStats>, on: bool) {
    proxy.lock().expect("proxy stats lock poisoned").recording = on;
}

/// Median time of `handle_shard_request` on the recorded request frames,
/// called directly (no transport), µs.
fn replay_handle_us(frames: &[String]) -> f64 {
    let mut state = ShardWorkerState::default();
    let times: Vec<f64> = frames
        .iter()
        .map(|f| {
            let t = Instant::now();
            let response = handle_shard_request(&mut state, f);
            std::hint::black_box(&response);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
