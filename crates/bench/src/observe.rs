//! Telemetry-plane experiments: the sweep behind `experiments observe`.
//!
//! The serving layer's observability claims are all determinism claims,
//! so the sweep checks them the same way the shard sweep checks merges —
//! by byte comparison of canonical exports:
//!
//! * **exposition determinism**: a pinned 4-session fleet (two tenants, a
//!   hostile label, one session per stop-policy family) runs twice through
//!   a fresh [`Server`] each time; the canonical Prometheus-style
//!   expositions must be byte-identical (metric rollups are commutative
//!   merges, so worker interleaving must not show);
//! * **trace determinism**: the same two runs' scheduler journals, passed
//!   through [`canonical_trace`] and normalized JSONL export, must also
//!   byte-compare — per-session lifecycle order is fixed by the state
//!   lock, and grouping by session id removes the cross-session
//!   interleaving;
//! * **cross-shard trace identity**: one driver-level traced C2 run per
//!   shard count `N ∈ {0, 1, 2, 4}`; the [`canonical_events`] exports
//!   must be byte-identical — shard topology may add `shard.*` frames but
//!   must never move an application span;
//! * **overhead**: the fleet run timed with the journal off vs armed
//!   (min of three pairs after warm-up), recorded against the telemetry
//!   plane's 5 % budget;
//! * **golden**: under `--smoke` the canonical exposition byte-compares
//!   against `scripts/observe-exposition.golden`
//!   (`IOLAP_UPDATE_GOLDEN=1` regenerates after an audited change).
//!
//! Determinism and golden failures are violations and fail the harness;
//! overhead is printed, not asserted (single-run timing noise at smoke
//! scale would make a hard gate flaky).

use crate::{conviva_workload, ExpScale, Workload};
use iolap_core::{canonical_events, export_jsonl, IolapDriver, ShardExec, TraceMode};
use iolap_server::shard::ThreadShardPool;
use iolap_server::{canonical_trace, Server, ServerConfig, SessionSpec, SloCounters, StopPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard counts the cross-shard trace-identity check sweeps.
pub const OBSERVE_SHARD_COUNTS: &[usize] = &[0, 1, 2, 4];

/// The checks one `experiments observe` sweep ran, plus the overhead
/// pair it prints.
struct ObserveChecks {
    /// Two fresh fleet runs rendered byte-identical canonical expositions.
    exposition_deterministic: bool,
    /// The same runs' canonical scheduler traces byte-compared.
    trace_deterministic: bool,
    /// Driver-level canonical trace exports byte-identical across
    /// [`OBSERVE_SHARD_COUNTS`].
    cross_shard_trace_identical: bool,
    /// Canonical exposition matched `scripts/observe-exposition.golden`
    /// (trivially true outside `--smoke`).
    golden_ok: bool,
    /// Fleet wall-clock with the journal off (min of three runs, ms).
    overhead_off_ms: f64,
    /// Fleet wall-clock with the journal armed (min of three runs, ms).
    overhead_on_ms: f64,
}

impl ObserveChecks {
    /// Telemetry overhead in percent of the untraced fleet wall-clock
    /// (can be slightly negative under timer noise).
    fn overhead_pct(&self) -> f64 {
        crate::overhead_pct(self.overhead_off_ms, self.overhead_on_ms)
    }

    /// Determinism/golden violations (overhead is printed, not asserted).
    fn violations(&self) -> usize {
        [
            self.exposition_deterministic,
            self.trace_deterministic,
            self.cross_shard_trace_identical,
            self.golden_ok,
        ]
        .iter()
        .filter(|ok| !**ok)
        .count()
    }
}

/// The pinned fleet: two tenants plus a hostile label that must survive
/// both JSON and Prometheus escaping, and one session per stop-policy
/// family. The `Deadline` budget is generous so the session always
/// completes inside it — a tight budget would make the end label (and the
/// exposition) timing-dependent.
fn fleet_plan(batches: usize) -> Vec<(&'static str, StopPolicy, &'static str)> {
    vec![
        ("C2", StopPolicy::complete(), "acme"),
        (
            "C2",
            StopPolicy::RelativeCI {
                target: 0.5,
                confidence: 0.95,
            },
            "acme",
        ),
        (
            "C3",
            StopPolicy::Batches((batches / 2).max(1)),
            "bob\"s \\shop",
        ),
        ("SBI", StopPolicy::Deadline(Duration::from_secs(60)), ""),
    ]
}

fn build_driver(w: &Workload, query: &str, scale: &ExpScale) -> IolapDriver {
    let q = w
        .queries
        .iter()
        .find(|q| q.id == query)
        .unwrap_or_else(|| panic!("unknown observe query {query}"))
        .clone();
    let pq = w.plan(&q);
    IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, scale.config())
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// One fleet run's canonical exports and bookkeeping.
struct FleetRun {
    exposition: String,
    trace: String,
    slo: SloCounters,
    sessions: usize,
    events: usize,
    elapsed_ms: f64,
}

/// Run the pinned fleet through a fresh server. Sessions are joined (no
/// compute left) *before* any client drains, so the `sess.finish` mark's
/// `state=` detail is `draining` on every run — a client racing the last
/// batch would make it flip between `draining` and `done`.
fn fleet_run(w: &Workload, scale: &ExpScale, mode: TraceMode) -> FleetRun {
    let cfg = ServerConfig::with_workers(2)
        .max_live(8)
        .shards(2)
        .trace(mode);
    let server = Server::new(cfg);
    let started = Instant::now();
    let handles: Vec<_> = fleet_plan(scale.batches)
        .into_iter()
        .enumerate()
        .map(|(i, (query, policy, tenant))| {
            let driver = build_driver(w, query, scale);
            let spec = SessionSpec::named(tenant).policy(policy);
            server
                .submit(driver, spec)
                .unwrap_or_else(|e| panic!("observe submit {i} rejected: {e}"))
        })
        .collect();
    for h in &handles {
        h.join(Duration::from_secs(30));
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    for h in &handles {
        h.drain(Duration::from_secs(30));
    }
    let exposition = server.exposition(true);
    let events = server.trace_events();
    let trace = export_jsonl(&canonical_trace(&events), true);
    let telemetry = server.telemetry();
    server.shutdown();
    FleetRun {
        exposition,
        trace,
        slo: *telemetry.slo(),
        sessions: telemetry.sessions().len(),
        events: events.len(),
        elapsed_ms,
    }
}

/// Driver-level traced C2 run at `shards` fold workers, exported through
/// the canonical (shard-frame-free, renumbered) form.
fn traced_export(w: &Workload, scale: &ExpScale, shards: usize) -> String {
    let q = w.queries.iter().find(|q| q.id == "C2").unwrap().clone();
    let pq = w.plan(&q);
    let cfg = scale.config().trace_mode(TraceMode::Journal);
    let mut d = IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, cfg)
        .unwrap_or_else(|e| panic!("C2: {e}"));
    if shards > 0 {
        d.set_shard_exec(Arc::new(ThreadShardPool::new(shards)) as Arc<dyn ShardExec>);
    }
    d.run_to_completion().unwrap_or_else(|e| panic!("C2: {e}"));
    export_jsonl(&canonical_events(&d.trace_events()), true)
}

/// Run the telemetry-plane sweep; returns its violation count. `smoke`
/// pins the scale (independent of `IOLAP_SCALE`, like `trace --smoke`)
/// and arms the exposition golden check.
pub fn observe_sweep(scale: &ExpScale, smoke: bool) -> usize {
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

    // Determinism: two fresh fleet runs, canonical exports byte-compared.
    let a = fleet_run(&w, &scale, TraceMode::Journal);
    let b = fleet_run(&w, &scale, TraceMode::Journal);
    let exposition_deterministic = a.exposition == b.exposition;
    let trace_deterministic = a.trace == b.trace;
    if !exposition_deterministic {
        print_first_divergence("exposition", &a.exposition, &b.exposition);
    }
    if !trace_deterministic {
        print_first_divergence("trace", &a.trace, &b.trace);
    }
    println!(
        "observe: fleet {} sessions — exposition {} B ({}), trace {} events ({})",
        a.sessions,
        a.exposition.len(),
        if exposition_deterministic {
            "byte-identical across runs"
        } else {
            "VIOLATION: runs diverged"
        },
        a.events,
        if trace_deterministic {
            "byte-identical across runs"
        } else {
            "VIOLATION: runs diverged"
        },
    );

    // Cross-shard trace identity at the driver level.
    let exports: Vec<String> = OBSERVE_SHARD_COUNTS
        .iter()
        .map(|&n| traced_export(&w, &scale, n))
        .collect();
    let cross_shard_trace_identical = exports.iter().all(|e| *e == exports[0]);
    println!(
        "observe: canonical C2 trace across shards {:?} — {}",
        OBSERVE_SHARD_COUNTS,
        if cross_shard_trace_identical {
            "byte-identical"
        } else {
            "VIOLATION: exports diverged"
        }
    );

    // Overhead: journal off vs armed, min of three pairs after warm-up.
    let _warm = fleet_run(&w, &scale, TraceMode::Off);
    let min_of = |mode: TraceMode| {
        (0..3)
            .map(|_| fleet_run(&w, &scale, mode).elapsed_ms)
            .fold(f64::INFINITY, f64::min)
    };
    let overhead_off_ms = min_of(TraceMode::Off);
    let overhead_on_ms = min_of(TraceMode::Journal);

    // Golden: the canonical exposition is part of the offline gate.
    let golden_ok = if smoke {
        check_golden(&a.exposition)
    } else {
        println!("observe: golden check skipped (full scale; run --smoke)");
        true
    };

    let checks = ObserveChecks {
        exposition_deterministic,
        trace_deterministic,
        cross_shard_trace_identical,
        golden_ok,
        overhead_off_ms,
        overhead_on_ms,
    };
    println!(
        "observe: overhead off/on = {:.1}/{:.1} ms ({:+.1}%, budget 5%); slo ci {}/{} met, \
         deadline {}/{} met, {} ci batches saved",
        checks.overhead_off_ms,
        checks.overhead_on_ms,
        checks.overhead_pct(),
        a.slo.ci_met,
        a.slo.ci_sessions,
        a.slo.deadline_met,
        a.slo.deadline_sessions,
        a.slo.ci_batches_saved,
    );
    let v = checks.violations();
    if v > 0 {
        eprintln!("observe: {v} determinism/golden violation(s)");
    }
    v
}

/// Print the first line where two canonical exports differ — enough to
/// localize a determinism break without dumping kilobytes of exposition.
fn print_first_divergence(what: &str, a: &str, b: &str) {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            eprintln!(
                "observe: {what} line {} diverged:\n  run A: {la}\n  run B: {lb}",
                i + 1
            );
            return;
        }
    }
    eprintln!(
        "observe: {what} runs diverged in length only ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    );
}

fn check_golden(exposition: &str) -> bool {
    let golden_path = iolap_analyze::repo_root().join("scripts/observe-exposition.golden");
    if std::env::var("IOLAP_UPDATE_GOLDEN").as_deref() == Ok("1") {
        return match std::fs::write(&golden_path, exposition) {
            Ok(()) => {
                println!(
                    "observe: updated {} ({} bytes)",
                    golden_path.display(),
                    exposition.len()
                );
                true
            }
            Err(e) => {
                eprintln!("observe: failed to write {}: {e}", golden_path.display());
                false
            }
        };
    }
    match std::fs::read_to_string(&golden_path) {
        Ok(golden) if golden == exposition => {
            println!(
                "observe: exposition golden check OK ({} bytes, byte-identical)",
                exposition.len()
            );
            true
        }
        Ok(_) => {
            eprintln!(
                "observe: exposition drifted from {} — if the change is intentional, \
                 regenerate with IOLAP_UPDATE_GOLDEN=1",
                golden_path.display()
            );
            false
        }
        Err(e) => {
            eprintln!("observe: cannot read {}: {e}", golden_path.display());
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_plan_covers_every_policy_family_and_a_hostile_label() {
        let plan = fleet_plan(6);
        assert!(plan
            .iter()
            .any(|(_, p, _)| matches!(p, StopPolicy::RelativeCI { .. })));
        assert!(plan
            .iter()
            .any(|(_, p, _)| matches!(p, StopPolicy::Deadline(_))));
        assert!(plan
            .iter()
            .any(|(_, p, _)| matches!(p, StopPolicy::Batches(n) if *n < usize::MAX)));
        assert!(plan.iter().any(|(_, _, t)| t.contains('"')));
        assert!(plan.iter().any(|(_, _, t)| t.is_empty()));
    }

    #[test]
    fn violations_count_failed_checks_only() {
        let checks = ObserveChecks {
            exposition_deterministic: true,
            trace_deterministic: false,
            cross_shard_trace_identical: true,
            golden_ok: false,
            overhead_off_ms: 10.0,
            overhead_on_ms: 100.0, // over budget — printed, never counted
        };
        assert_eq!(checks.violations(), 2);
        assert!((checks.overhead_pct() - 900.0).abs() < 1e-9);
        assert_eq!(crate::overhead_pct(0.0, 5.0), 0.0);
    }
}
