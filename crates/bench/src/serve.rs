//! Multi-tenant serving experiments: the closed-loop load generator behind
//! `experiments serve`, plus the TCP front-end runner (`serve --listen`).
//!
//! Each cell of the sweep starts an [`iolap_server::Server`] with a fixed
//! worker pool, submits `sessions` concurrent incremental queries (cycling
//! through built-in Conviva queries and a mix of stop policies), drains
//! every session from client threads, and checks the serving layer's core
//! contract cell by cell:
//!
//! * every session's final answer is **exact-equal** to its solo-run
//!   answer at the same batch index (concurrency must not change results);
//! * `RelativeCI` sessions stop **strictly before** full-data completion;
//! * admission **rejects** (never hangs) when slots and queue are full.
//!
//! Violations are counted and returned — the `experiments` binary exits
//! non-zero on any, which is what wires the smoke cell into
//! `scripts/check.sh`. Each cell prints its throughput and p50/p95/p99
//! batch latencies.

use crate::{conviva_workload, ExpScale, Workload};
use iolap_core::{BatchReport, Histogram, IolapDriver};
use iolap_server::{
    tcp::SubmitFactory, wire::JVal, AdmitError, Server, ServerConfig, SessionSpec, StopPolicy,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Relative-CI target used by the accuracy-contract sessions in the sweep:
/// generous enough to be met within the first batches at smoke scale, so
/// the "stops strictly early" assertion is exercised, not vacuous.
pub const SWEEP_CI_TARGET: f64 = 0.5;

/// Canonical serialization of one report's *answer* (relation, names,
/// error estimates — no wall-clock): two reports with equal canon carry
/// byte-identical results. The multi-tenant exactness checks compare a
/// session's final report against the solo run's report at the same batch.
pub fn report_canon(r: &BatchReport) -> String {
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

/// Outcome of one session in a sweep cell.
#[derive(Clone, Debug)]
pub struct ServeSessionResult {
    /// Session label (`"s0:C2"` …).
    pub label: String,
    /// Query id.
    pub query: String,
    /// Stop-policy label.
    pub policy: String,
    /// Final lifecycle state (`"done"` expected).
    pub state: String,
    /// End reason (`"completed"` / `"target_met"`).
    pub end: String,
    /// Batches the session actually ran.
    pub batches_run: usize,
    /// Batches a full run would take.
    pub total_batches: usize,
    /// Whether the stop policy retired the session strictly early.
    pub stopped_early: bool,
    /// Whether every received report was byte-identical to the solo run's
    /// report at the same batch index.
    pub exact_vs_solo: bool,
}

/// One cell of the session-count × worker-count sweep.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Concurrent sessions submitted.
    pub sessions: usize,
    /// `"open"` (all admitted to live slots at once) or `"closed"`
    /// (live slots bounded at the worker count; the rest queue and are
    /// admitted as slots free).
    pub arrival: &'static str,
    /// Wall-clock for the whole cell.
    pub elapsed_ms: f64,
    /// Batches delivered across all sessions.
    pub batches_delivered: usize,
    /// Delivered batches per second of cell wall-clock.
    pub throughput_batches_per_s: f64,
    /// Per-batch latency distribution (driver-measured, nanoseconds).
    pub batch_latency: Histogram,
    /// Per-session outcomes.
    pub session_results: Vec<ServeSessionResult>,
    /// Contract violations detected in this cell.
    pub violations: usize,
}

/// The query/policy mix for `n` sessions: queries cycle through distinct
/// built-ins, policies cycle through run-to-completion, an accuracy
/// contract, and a fixed batch budget.
fn session_plan(n: usize, total_batches: usize) -> Vec<(&'static str, StopPolicy)> {
    const QUERIES: &[&str] = &["C2", "C3", "SBI", "C1"];
    (0..n)
        .map(|i| {
            let q = QUERIES[i % QUERIES.len()];
            let policy = match i % 4 {
                0 | 1 => StopPolicy::complete(),
                2 => StopPolicy::RelativeCI {
                    target: SWEEP_CI_TARGET,
                    confidence: 0.95,
                },
                _ => StopPolicy::Batches((total_batches / 2).max(1)),
            };
            (q, policy)
        })
        .collect()
}

fn build_driver(w: &Workload, query: &str, scale: &ExpScale) -> IolapDriver {
    let q = w
        .queries
        .iter()
        .find(|q| q.id == query)
        .unwrap_or_else(|| panic!("unknown serve query {query}"))
        .clone();
    let pq = w.plan(&q);
    IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, scale.config())
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// Solo-run reference canon per query: `canon[i]` is the canonical answer
/// after batch `i` when the query runs alone — the exactness baseline.
pub fn solo_reference(
    w: &Workload,
    queries: &[&'static str],
    scale: &ExpScale,
) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for q in queries {
        if out.contains_key(*q) {
            continue;
        }
        let mut d = build_driver(w, q, scale);
        let reports = d.run_to_completion().unwrap_or_else(|e| panic!("{q}: {e}"));
        out.insert(q.to_string(), reports.iter().map(report_canon).collect());
    }
    out
}

/// Run one sweep cell. Every session's drained report stream is checked
/// batch-by-batch against the solo reference.
pub fn run_cell(
    w: &Workload,
    scale: &ExpScale,
    workers: usize,
    sessions: usize,
    arrival: &'static str,
    solo: &BTreeMap<String, Vec<String>>,
) -> ServeCell {
    let plan = session_plan(sessions, scale.batches);
    let max_live = match arrival {
        "closed" => workers.max(2),
        _ => sessions.max(1),
    };
    let cfg = ServerConfig::with_workers(workers)
        .max_live(max_live)
        .max_queued(sessions);
    let server = Server::new(cfg);
    let cell_span = iolap_core::Span::start();

    let handles: Vec<_> = plan
        .iter()
        .enumerate()
        .map(|(i, (query, policy))| {
            let driver = build_driver(w, query, scale);
            let spec = SessionSpec::named(format!("s{i}:{query}")).policy(policy.clone());
            let handle = server
                .submit(driver, spec)
                .unwrap_or_else(|e| panic!("cell submit {i} rejected: {e}"));
            (i, *query, policy.label(), handle)
        })
        .collect();

    // One client thread per session, as a real serving deployment would
    // poll: drain until terminal, then snapshot the summary.
    let drained: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = handles
            .iter()
            .map(|(_, _, _, handle)| {
                scope.spawn(move || {
                    let reports = handle.drain(Duration::from_secs(30));
                    (reports, handle.summary())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let elapsed = cell_span.elapsed();

    let mut batch_latency = Histogram::new();
    let mut batches_delivered = 0usize;
    let mut session_results = Vec::new();
    let mut violations = 0usize;
    for ((i, query, policy_label, _), (reports, summary)) in handles.iter().zip(drained.iter()) {
        batches_delivered += reports.len();
        for r in reports {
            batch_latency.observe(u64::try_from(r.elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        let reference = &solo[*query];
        let exact = reports
            .iter()
            .enumerate()
            .all(|(k, r)| reference.get(k).is_some_and(|c| *c == report_canon(r)));
        let is_relci = policy_label.starts_with("relative_ci");
        let done = summary.state.is_terminal() && summary.end.is_some();
        let stopped_early = summary.stopped_early();
        if !done || !exact {
            violations += 1;
        }
        if is_relci && !stopped_early {
            // The accuracy contract must fire strictly before completion.
            violations += 1;
        }
        session_results.push(ServeSessionResult {
            label: format!("s{i}:{query}"),
            query: query.to_string(),
            policy: policy_label.clone(),
            state: summary.state.as_str().to_string(),
            end: summary
                .end
                .as_ref()
                .map(|e| e.label().to_string())
                .unwrap_or_else(|| "none".to_string()),
            batches_run: summary.batches_run,
            total_batches: summary.total_batches,
            stopped_early,
            exact_vs_solo: exact,
        });
    }
    server.shutdown();
    let secs = elapsed.as_secs_f64();
    ServeCell {
        workers,
        sessions,
        arrival,
        elapsed_ms: secs * 1e3,
        batches_delivered,
        throughput_batches_per_s: if secs > 0.0 {
            batches_delivered as f64 / secs
        } else {
            0.0
        },
        batch_latency,
        session_results,
        violations,
    }
}

/// Admission-control probe: a 1-slot, 1-queue server receives three
/// long-running submissions back to back. The third must come back as an
/// explicit [`AdmitError::QueueFull`] — immediately, not after a stall.
/// `report_buffer(1)` parks the worker after its first report (nobody
/// polls), so the live session cannot finish and free its slot mid-probe
/// no matter how the threads are scheduled.
pub fn admission_probe(w: &Workload, scale: &ExpScale) -> bool {
    let server = Server::new(
        ServerConfig::with_workers(1)
            .max_live(1)
            .max_queued(1)
            .report_buffer(1),
    );
    let h1 = server.submit(
        build_driver(w, "C2", scale),
        SessionSpec::named("probe-live"),
    );
    let h2 = server.submit(
        build_driver(w, "C2", scale),
        SessionSpec::named("probe-queued"),
    );
    let h3 = server.submit(
        build_driver(w, "C2", scale),
        SessionSpec::named("probe-overflow"),
    );
    let rejected = matches!(h3, Err(AdmitError::QueueFull { .. }));
    if let Ok(h) = &h1 {
        h.cancel();
    }
    if let Ok(h) = &h2 {
        h.cancel();
    }
    server.shutdown();
    rejected && h1.is_ok() && h2.is_ok()
}

/// The sweep cells: `(workers, sessions, arrival)`.
fn sweep_cells(smoke: bool) -> Vec<(usize, usize, &'static str)> {
    if smoke {
        // The pinned check.sh gate: 2 workers × 4 sessions.
        vec![(2, 4, "closed")]
    } else {
        vec![
            // The acceptance cell: ≥8 sessions, ≥2 queries, 4 workers.
            (4, 8, "open"),
            (4, 8, "closed"),
            (2, 8, "closed"),
            (1, 4, "closed"),
            (4, 16, "open"),
        ]
    }
}

/// Run the serving sweep. `smoke` pins the scale (independent of
/// `IOLAP_SCALE`, like `trace --smoke`) so the offline gate is fast and
/// stable. Returns the violation count.
pub fn serve_sweep(scale: &ExpScale, smoke: bool) -> usize {
    let scale = if smoke {
        ExpScale {
            tpch_sf: 0.1,
            conviva_rows: 600,
            batches: 6,
            trials: 16,
            seed: 2016,
        }
    } else {
        *scale
    };
    let w = conviva_workload(&scale);
    let queries: Vec<&'static str> = vec!["C2", "C3", "SBI", "C1"];
    println!(
        "serve: solo reference runs ({} queries at {} rows × {} batches)",
        queries.len(),
        scale.conviva_rows,
        scale.batches
    );
    let solo = solo_reference(&w, &queries, &scale);

    let mut violations = 0;
    for (workers, sessions, arrival) in sweep_cells(smoke) {
        let cell = run_cell(&w, &scale, workers, sessions, arrival, &solo);
        println!(
            "serve: {}w × {}s ({}) — {} batches in {:.1} ms ({:.0} batches/s), \
             p50/p95/p99 batch = {}/{}/{} µs, violations={}",
            cell.workers,
            cell.sessions,
            cell.arrival,
            cell.batches_delivered,
            cell.elapsed_ms,
            cell.throughput_batches_per_s,
            cell.batch_latency
                .quantile(0.50)
                .map(|n| (n / 1_000).to_string())
                .unwrap_or_else(|| "-".into()),
            cell.batch_latency
                .quantile(0.95)
                .map(|n| (n / 1_000).to_string())
                .unwrap_or_else(|| "-".into()),
            cell.batch_latency
                .quantile(0.99)
                .map(|n| (n / 1_000).to_string())
                .unwrap_or_else(|| "-".into()),
            cell.violations,
        );
        for s in &cell.session_results {
            if !s.exact_vs_solo || s.state != "done" {
                println!(
                    "serve:   VIOLATION {} policy={} state={} end={} exact={}",
                    s.label, s.policy, s.state, s.end, s.exact_vs_solo
                );
            }
        }
        violations += cell.violations;
    }

    let admission_rejected = admission_probe(&w, &scale);
    println!(
        "serve: admission probe (1 slot + 1 queued + 1 overflow) — {}",
        if admission_rejected {
            "third submission explicitly rejected"
        } else {
            "VIOLATION: overflow was not rejected"
        }
    );
    violations + usize::from(!admission_rejected)
}

/// Run the TCP front-end until the process is killed: builds the Conviva
/// workload at `scale`, binds `addr`, and serves the newline-delimited
/// JSON protocol. Submit requests name a built-in query:
/// `{"op":"submit","query":"C2","label":"u1","policy":{"kind":"relative_ci","target":0.1}}`.
pub fn serve_listen(addr: &str, scale: &ExpScale) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    println!(
        "iolap-server listening on {} (conviva at {} rows × {} batches; \
         ops: submit/poll/summary/cancel/stats)",
        listener.local_addr()?,
        scale.conviva_rows,
        scale.batches
    );
    let server = Arc::new(Server::new(ServerConfig::with_workers(4)));
    let factory = workload_factory(conviva_workload(scale), *scale);
    iolap_server::tcp::serve(listener, server, factory);
    Ok(())
}

/// A [`SubmitFactory`] serving a prepared workload's queries by id, with
/// optional per-request `batches`/`trials`/`seed` overrides.
pub fn workload_factory(w: Workload, scale: ExpScale) -> SubmitFactory {
    Arc::new(move |req: &JVal| {
        let query = req
            .get("query")
            .and_then(JVal::as_str)
            .ok_or_else(|| "missing \"query\"".to_string())?;
        let q = w
            .queries
            .iter()
            .find(|q| q.id == query)
            .ok_or_else(|| format!("unknown query {query:?}"))?
            .clone();
        let mut scale = scale;
        if let Some(b) = req.get("batches").and_then(JVal::as_u64) {
            scale.batches = (b as usize).clamp(1, 1_000);
        }
        if let Some(t) = req.get("trials").and_then(JVal::as_u64) {
            scale.trials = (t as usize).clamp(1, 10_000);
        }
        if let Some(s) = req.get("seed").and_then(JVal::as_u64) {
            scale.seed = s;
        }
        let pq = w.plan(&q);
        let driver = IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, scale.config())
            .map_err(|e| e.to_string())?;
        let spec = iolap_server::tcp::spec_from_request(req);
        Ok((driver, spec))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_plan_cycles_queries_and_policies() {
        let plan = session_plan(8, 6);
        let distinct: std::collections::BTreeSet<_> = plan.iter().map(|(q, _)| *q).collect();
        assert!(
            distinct.len() >= 2,
            "need ≥2 distinct queries: {distinct:?}"
        );
        assert!(plan
            .iter()
            .any(|(_, p)| matches!(p, StopPolicy::RelativeCI { .. })));
        assert!(plan.iter().any(|(_, p)| *p == StopPolicy::complete()));
    }

    #[test]
    fn smoke_cell_is_pinned_to_two_workers_four_sessions() {
        assert_eq!(sweep_cells(true), vec![(2, 4, "closed")]);
        let full = sweep_cells(false);
        assert!(
            full.iter().any(|&(w, s, _)| w == 4 && s >= 8),
            "acceptance cell missing: {full:?}"
        );
    }
}
