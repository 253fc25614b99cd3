//! Regenerates every table and figure of the iOLAP paper's evaluation (§8).
//!
//! ```text
//! cargo run --release -p iolap-bench --bin experiments -- all
//! cargo run --release -p iolap-bench --bin experiments -- fig7a fig8 fig9d
//! IOLAP_SCALE=0.5 cargo run --release -p iolap-bench --bin experiments -- fig10
//! IOLAP_SCALE=bench cargo run --release -p iolap-bench --bin experiments -- verify-plans
//! IOLAP_SCALE=bench cargo run --release -p iolap-bench --bin experiments -- faultstorm --smoke
//! IOLAP_SCALE=bench cargo run --release -p iolap-bench --bin experiments -- serve --smoke
//! IOLAP_SCALE=bench cargo run --release -p iolap-bench --bin experiments -- shard --smoke
//! cargo run --release -p iolap-bench --bin experiments -- observe --smoke
//! cargo run --release -p iolap-bench --bin experiments -- durability --smoke
//! cargo run --release -p iolap-bench --bin experiments -- serve --listen 127.0.0.1:7878
//! ```
//!
//! `verify-plans` (not part of `all`) rewrites every built-in query and runs
//! the static plan verifier over the result, printing per-rule counts and
//! exiting nonzero on any violation — the offline gate `scripts/check.sh`
//! runs.
//!
//! `faultstorm` (not part of `all`) sweeps the deterministic §5.1 fault
//! injector — forced range failures, dropped/corrupted checkpoints,
//! panicking workers/derefs, perturbed ranges — across batch points and
//! checkpoint intervals on the nested flagship queries, and fails if any
//! run's final answer disagrees with the exact offline baseline.
//! `--smoke` shrinks the sweep for the offline gate.
//!
//! `serve` (not part of `all`) runs the multi-tenant serving sweep:
//! concurrent incremental sessions over the built-in Conviva queries on a
//! fixed worker pool, checking every session's final answer against its
//! solo run, that accuracy-contract (`RelativeCI`) sessions stop strictly
//! early, and that admission rejects rather than hangs when full.
//! `--smoke` pins a 2-worker × 4-session cell for the offline gate;
//! `--listen ADDR` instead serves the newline-delimited JSON protocol on
//! a TCP socket until killed.
//!
//! `kernels` (not part of `all`) micro-benchmarks the columnar kernels —
//! comparison filters, aggregate trial folds, and the Poisson block draw —
//! against their row-at-a-time references, and fails on any result that is
//! not bit-identical to the reference. `--smoke` shrinks the row count for
//! the offline gate.
//!
//! `analyze` (not part of `all`) runs the static-analysis engine end to
//! end: the token-based source lints over every `crates/**/*.rs` file
//! (allowlist-subtracted, with dead-allowlist-entry staleness as L010
//! errors) and the exhaustive plan-space model checker — every operator
//! tree over the two-table model world, each through the rewriter and the
//! V001–V010 verifier, against an independent uncertainty-tag model, plus
//! guaranteed-catch mutation probes on every accepted cell. `--smoke`
//! bounds the enumeration at depth 3 for the offline gate; the full run
//! covers depth 4. Exit 0 clean, 1 on findings, 2 on internal error.
//!
//! `shard` (not part of `all`) runs the scale-out sweep: the same
//! mini-batch runs with fold dispatch split across in-process shard pools
//! of growing size, checking every sharded run's published answers are
//! byte-identical to the unsharded baseline (the partition-grid merge
//! contract), probing the same claim across real loopback TCP shard
//! workers with measured data-shipped bytes, and replaying the §5.1 fault
//! storm at two shards. `--smoke` pins one grid point per axis for the
//! offline gate. Throughput and shipped bytes are recorded, not asserted.
//!
//! `observe` (not part of `all`) runs the telemetry-plane sweep: a pinned
//! multi-tenant fleet with the scheduler journal armed, byte-comparing the
//! canonical Prometheus-style exposition and canonical scheduler trace
//! across repeated runs, checking driver-level canonical traces are
//! byte-identical across shard counts 0/1/2/4, and measuring the fleet's
//! journal-on vs journal-off overhead against the 5 % budget. `--smoke`
//! pins the scale and byte-checks the exposition against
//! `scripts/observe-exposition.golden` (regenerate: `IOLAP_UPDATE_GOLDEN=1`).
//!
//! `durability` (not part of `all`) runs the durable-store sweep: for
//! every batch boundary of every swept query a durable single-worker
//! server is killed mid-run, restarted over the same log directory, and
//! recovered, with the resumed report stream byte-compared against an
//! uninterrupted run; a streaming-append cell byte-compares the grown
//! stream against a driver-level oracle appending the same rows at the
//! same position; and the same session is timed fsync-off vs fsync-on
//! against the 25 % budget (recorded, not asserted). `--smoke` pins the
//! scale to six batches and sweeps every built-in Conviva query for the
//! offline gate; the full sweep takes four representative queries to
//! the full scale.
//!
//! `trace <query>` (not part of `all`) runs one query (default `C2`) with
//! the causal event journal armed and renders a per-batch timeline, a
//! top-k exclusive self-time table, and per-operator latency quantiles,
//! then writes JSONL and Chrome `trace_event` exports. `trace --smoke`
//! byte-checks the normalized Chrome export against
//! `scripts/trace-schema.golden` (regenerate: `IOLAP_UPDATE_GOLDEN=1`).
//!
//! The repository's performance record is the `perfbench` package and
//! `BENCHMARK.json`, not this harness: every sweep here prints its table and
//! sets the exit status from its checks.
//!
//! Absolute numbers differ from the paper (its substrate was a 20-node
//! Spark/EC2 cluster over 1–2 TB; ours is a single-process engine over
//! synthetic data) — the *shapes* are what reproduce: who wins, growth
//! trends, crossovers. See `EXPERIMENTS.md` for the side-by-side record.

use iolap_bench::*;
use iolap_core::IolapConfig;
use iolap_relation::BatchedRelation;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut listen: Option<String> = None;
    let mut trace_query: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let a = raw[i].as_str();
        if a == "--smoke" {
            smoke = true;
        } else if a == "--listen" {
            i += 1;
            match raw.get(i) {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("--listen requires an ADDR:PORT argument");
                    std::process::exit(2);
                }
            }
        } else if a == "trace" {
            args.push(a.to_string());
            // Optional query id operand: `trace C8` (default C2).
            if let Some(q) = raw.get(i + 1) {
                if !q.starts_with('-') {
                    trace_query = Some(q.clone());
                    i += 1;
                }
            }
        } else {
            args.push(a.to_string());
        }
        i += 1;
    }
    let scale = ExpScale::from_env();
    let which: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "fig7a", "fig7b", "fig7c", "fig8ab", "fig8cd", "fig8ef", "fig9a", "fig9bc",
            "fig9de", "fig9fg", "fig10ab", "fig10cd", "fig10ef", "trials", "metrics",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!("iOLAP experiment harness (scale: {scale:?})");
    let mut unknown = false;
    let mut violations = 0usize;
    for exp in which {
        match exp {
            "verify-plans" => violations += verify_plans(&scale),
            "analyze" => match analyze_cmd(smoke) {
                Ok(rec) => violations += rec.violations(),
                Err(e) => {
                    eprintln!("analyze: {e}");
                    std::process::exit(2);
                }
            },
            "serve" => {
                if let Some(addr) = listen.as_deref() {
                    if let Err(e) = serve::serve_listen(addr, &scale) {
                        eprintln!("serve --listen {addr}: {e}");
                        std::process::exit(1);
                    }
                } else {
                    section(&format!(
                        "serve: multi-tenant serving sweep ({})",
                        if smoke { "smoke" } else { "full" }
                    ));
                    violations += serve::serve_sweep(&scale, smoke);
                }
            }
            "faultstorm" => violations += faultstorm(&scale, smoke),
            "shard" => {
                section(&format!(
                    "shard: scale-out determinism sweep ({})",
                    if smoke { "smoke" } else { "full" }
                ));
                violations += shard_sweep(&scale, smoke);
            }
            "observe" => {
                section(&format!(
                    "observe: telemetry-plane sweep ({})",
                    if smoke { "smoke" } else { "full" }
                ));
                violations += observe_sweep(&scale, smoke);
            }
            "durability" => {
                section(&format!(
                    "durability: crash-matrix / streaming-append sweep ({})",
                    if smoke { "smoke" } else { "full" }
                ));
                violations += durability_sweep(&scale, smoke);
            }
            "trace" => violations += trace_cmd(&scale, trace_query.as_deref(), smoke),
            "kernels" => violations += kernels_cmd(&scale, smoke),
            "table1" => table1(&scale),
            "fig7a" => fig7a(&scale),
            "fig7b" => fig7bc(&scale, true),
            "fig7c" => fig7bc(&scale, false),
            "fig8ab" => fig8_ratio(&scale, true),
            "fig8cd" => fig8_ratio(&scale, false),
            "fig8ef" => fig8_recomputed(&scale),
            "fig9a" => fig9a(&scale),
            "fig9bc" => fig9bc(&scale, true),
            "fig9de" => fig9de(&scale, false),
            "fig9fg" => fig9fg(&scale),
            "fig10ab" => fig10ab(&scale),
            "fig10cd" => fig9bc(&scale, false),
            "fig10ef" => fig9de(&scale, true),
            "trials" => trials_sweep(&scale),
            "metrics" => metrics_breakdown(&scale),
            other => {
                eprintln!("unknown experiment `{other}`");
                unknown = true;
            }
        }
    }
    if unknown {
        std::process::exit(2);
    }
    if violations > 0 {
        eprintln!("verification: {violations} violation(s)");
        std::process::exit(1);
    }
}

/// `faultstorm`: deterministic §5.1 fault-injection sweep (see
/// `iolap_bench::fault_storm`). Prints one line per run plus a per-kind
/// summary; returns the number of runs whose final answer disagrees with
/// the exact offline baseline (each a violation that fails the harness).
fn faultstorm(scale: &ExpScale, smoke: bool) -> usize {
    section(&format!(
        "faultstorm: §5.1 fault-injection sweep ({})",
        if smoke { "smoke" } else { "full" }
    ));
    let runs = fault_storm(scale, smoke);
    println!(
        "{:<9} {:<5} {:<19} {:>6} {:>9} {:>6} {:>11} {:>7}",
        "workload", "query", "fault", "batch", "interval", "fired", "recoveries", "final"
    );
    for r in &runs {
        println!(
            "{:<9} {:<5} {:<19} {:>6} {:>9} {:>6} {:>11} {:>7}",
            r.workload,
            r.query,
            r.kind,
            r.batch,
            r.interval,
            r.fired,
            r.recoveries,
            if r.agree { "exact" } else { "WRONG" }
        );
    }
    for (kind, _) in fault_storm_kinds() {
        let of_kind: Vec<_> = runs.iter().filter(|r| r.kind == kind).collect();
        println!(
            "{kind}: {} runs, {} fired, {} agree",
            of_kind.len(),
            of_kind.iter().filter(|r| r.fired > 0).count(),
            of_kind.iter().filter(|r| r.agree).count()
        );
    }
    // Every storm run flies with the flight recorder armed; show the most
    // informative black box so the injected fault, any recovery cascade,
    // and each replay are readable straight from the harness output.
    match storm_flight_dump(&runs) {
        Some(dump) => println!("\nrepresentative flight-recorder dump:\n{dump}"),
        None => println!("\n(no flight-recorder dump captured — no fault fired)"),
    }
    runs.iter().filter(|r| !r.agree).count()
}

/// `trace <query>`: run one query with the full event journal armed and
/// render its causal trace — a per-batch timeline, a top-k exclusive
/// self-time table, and per-operator latency quantiles — then write both
/// exporters' output (`TRACE_<id>.jsonl`, `TRACE_<id>.trace.json`; the
/// latter loads in `chrome://tracing` / Perfetto).
///
/// `--smoke` instead runs a pinned tiny configuration (Conviva 300 rows,
/// 3 batches, seed 2016 — independent of `IOLAP_SCALE`) and byte-compares
/// the *normalized* Chrome export against `scripts/trace-schema.golden`,
/// failing on any drift in the event schema or in seeded determinism.
/// `IOLAP_UPDATE_GOLDEN=1` regenerates the golden file after an audited
/// schema change. Returns the number of violations (0 or 1).
fn trace_cmd(scale: &ExpScale, query: Option<&str>, smoke: bool) -> usize {
    use iolap_core::{export_chrome, export_jsonl, EventKind};
    let id = query.unwrap_or("C2");
    let scale = if smoke {
        ExpScale {
            tpch_sf: 0.1,
            conviva_rows: 300,
            batches: 3,
            trials: 10,
            seed: 2016,
        }
    } else {
        *scale
    };
    section(&format!(
        "trace: causal event journal, {id} ({})",
        if smoke { "smoke" } else { "full" }
    ));
    let w = if id.starts_with('Q') {
        tpch_workload(&scale)
    } else {
        conviva_workload(&scale)
    };
    let Some(q) = w.queries.iter().find(|q| q.id == id).cloned() else {
        eprintln!("unknown query `{id}`");
        std::process::exit(2);
    };
    let (reports, events, cumulative) = w.run_iolap_traced(&q, scale.config());

    if smoke {
        let golden_path = iolap_analyze::repo_root().join("scripts/trace-schema.golden");
        let normalized = export_chrome(&events, true);
        if std::env::var("IOLAP_UPDATE_GOLDEN").as_deref() == Ok("1") {
            if let Err(e) = std::fs::write(&golden_path, &normalized) {
                eprintln!("failed to write {}: {e}", golden_path.display());
                return 1;
            }
            println!(
                "updated {} ({} events, {} bytes)",
                golden_path.display(),
                events.len(),
                normalized.len()
            );
            return 0;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) if golden == normalized => {
                println!(
                    "chrome-trace schema check OK ({} events, {} bytes, byte-identical)",
                    events.len(),
                    normalized.len()
                );
                0
            }
            Ok(_) => {
                eprintln!(
                    "chrome-trace export drifted from {} — if the schema change is \
                     intentional, regenerate with IOLAP_UPDATE_GOLDEN=1",
                    golden_path.display()
                );
                1
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", golden_path.display());
                1
            }
        }
    } else {
        println!(
            "{:>6} {:>10} {:>6}  top self-time (ms)",
            "batch", "ms", "marks"
        );
        for r in &reports {
            let mut st = r.self_time_ns.clone();
            st.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let marks = events
                .iter()
                .filter(|e| e.batch == r.batch && e.kind == EventKind::Mark)
                .count();
            let top: Vec<String> = st
                .iter()
                .take(4)
                .map(|(n, ns)| format!("{n} {:.2}", *ns as f64 / 1e6))
                .collect();
            println!(
                "{:>6} {:>10} {:>6}  {}",
                r.batch,
                ms(r.elapsed),
                marks,
                top.join(" | ")
            );
        }
        let mut totals: std::collections::BTreeMap<&str, u64> = Default::default();
        for r in &reports {
            for (n, ns) in &r.self_time_ns {
                *totals.entry(n).or_default() += ns;
            }
        }
        let mut totals: Vec<_> = totals.into_iter().collect();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let grand: u64 = totals.iter().map(|x| x.1).sum();
        println!("\n{:<24} {:>12} {:>7}", "span", "self(ms)", "share");
        for (n, ns) in totals.iter().take(10) {
            println!(
                "{:<24} {:>12.2} {:>6.1}%",
                n,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / grand.max(1) as f64
            );
        }
        println!(
            "\n{:<24} {:>8} {:>10} {:>10} {:>10}",
            "metric", "samples", "p50(ms)", "p95(ms)", "p99(ms)"
        );
        for (name, h) in cumulative.histograms() {
            let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
            println!(
                "{:<24} {:>8} {:>10.3} {:>10.3} {:>10.3}",
                name,
                h.count(),
                q(0.5),
                q(0.95),
                q(0.99)
            );
        }
        for (path, body) in [
            (format!("TRACE_{id}.jsonl"), export_jsonl(&events, false)),
            (
                format!("TRACE_{id}.trace.json"),
                export_chrome(&events, false),
            ),
        ] {
            match iolap_store::write_artifact(std::path::Path::new(&path), body.as_bytes()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
        0
    }
}

/// `verify-plans`: rewrite every built-in query (TPC-H subset + Conviva)
/// and run the static plan verifier over the rewritten operator tree.
/// Returns the number of violations found (expected: 0).
fn verify_plans(scale: &ExpScale) -> usize {
    section("verify-plans: static §4.1 plan verification, all built-in queries");
    let mut diags = Vec::new();
    let mut failures = 0usize;
    for w in [tpch_workload(scale), conviva_workload(scale)] {
        for q in &w.queries {
            let pq = w.plan(q);
            match iolap_analyze::verify_planned(&pq, q.stream_table) {
                Ok(d) if d.is_empty() => println!("{:<8} {:<5} OK", w.name, q.id),
                Ok(d) => {
                    for diag in &d {
                        println!("{:<8} {:<5} {diag}", w.name, q.id);
                    }
                    diags.extend(d);
                }
                Err(e) => {
                    println!("{:<8} {:<5} rewrite error: {e}", w.name, q.id);
                    failures += 1;
                }
            }
        }
    }
    println!(
        "per-rule counts: {}",
        iolap_analyze::rule_counts(&diags)
            .iter()
            .map(|(r, n)| format!("{}={n}", r.id()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    diags.len() + failures
}

/// `analyze`: the full static-analysis sweep — source lints (allowlist-
/// subtracted, staleness-gated) plus the exhaustive plan-space model
/// checker. Prints per-rule counts, every surviving finding, and the
/// model-checker cell accounting; the returned record's `violations()`
/// feeds the harness exit code (0 clean / 1 findings); I/O errors exit 2
/// at the call site.
fn analyze_cmd(smoke: bool) -> std::io::Result<iolap_bench::AnalysisRecord> {
    section(&format!(
        "analyze: static-analysis sweep ({})",
        if smoke { "smoke" } else { "full" }
    ));
    let rec = run_analysis(smoke)?;

    for f in &rec.lint_violations {
        println!("{} {}:{} {}", f.rule.id(), f.file, f.line, f.text);
    }
    println!(
        "lints: {} violation(s), {} allowlisted ({})",
        rec.lint_violations.len(),
        rec.lint_allowlisted,
        iolap_analyze::lint_counts(&rec.lint_violations)
            .iter()
            .map(|(r, n)| format!("{}={n}", r.id()))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let m = &rec.model;
    println!(
        "model checker: depth {} — {} cells, {} accepted, {} agreed-rejected, {} probes",
        m.depth, m.cells, m.accepted, m.agreed_rejected, m.probes
    );
    for (label, cells) in [
        ("UNSOUND-ACCEPTED", &m.unsound_accepted),
        ("ACCEPTED-FLAGGED", &m.accepted_flagged),
        ("MISSED-MUTATION", &m.missed_mutations),
    ] {
        for c in cells.iter() {
            println!("{label} {}", c.to_json());
        }
    }
    // Sound-rejected cells are conservatism, not unsoundness: report them
    // for the record without failing the gate.
    println!(
        "soundness: {} unsound-accepted, {} flagged, {} missed mutations, {} sound-rejected (tolerated)",
        m.unsound_accepted.len(),
        m.accepted_flagged.len(),
        m.missed_mutations.len(),
        m.sound_rejected.len()
    );
    println!("analysis wall time: {:.0} ms", rec.wall_ms);
    Ok(rec)
}

/// Table 1: batch sizes for the streamed relations.
fn table1(scale: &ExpScale) {
    section("Table 1: mini-batch sizes for streamed relations");
    println!(
        "{:<22} {:>14} {:>18}",
        "workload (relation)", "total rows", "rows per batch"
    );
    let t = tpch_workload(scale);
    for rel in ["lineorder", "partsupp", "customer"] {
        let n = t.catalog.get(rel).unwrap().len();
        println!(
            "{:<22} {:>14} {:>18}",
            format!("TPC-H ({rel})"),
            n,
            n.div_ceil(scale.batches)
        );
    }
    let c = conviva_workload(scale);
    let n = c.catalog.get("sessions").unwrap().len();
    println!(
        "{:<22} {:>14} {:>18}",
        "Conviva (sessions)",
        n,
        n.div_ceil(scale.batches)
    );
}

/// Fig 7(a): relative standard deviation vs cumulative time for Conviva C8,
/// with the batch baseline latency as the reference bar.
fn fig7a(scale: &ExpScale) {
    section("Fig 7(a): relative stddev vs time, Conviva C8");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "C8").unwrap().clone();
    let baseline = w.run_baseline(&q);
    let reports = w.run_iolap(&q, scale.config());
    println!("baseline latency: {} ms", ms(baseline.elapsed));
    println!(
        "{:>6} {:>12} {:>12} {:>22}",
        "batch", "time(ms)", "frac(%)", "relative stddev (%)"
    );
    let mut acc = std::time::Duration::ZERO;
    for r in &reports {
        acc += r.elapsed;
        let rsd = r.result.max_relative_std().unwrap_or(f64::NAN);
        println!(
            "{:>6} {:>12} {:>12.1} {:>22.3}",
            r.batch,
            ms(acc),
            r.fraction * 100.0,
            rsd * 100.0
        );
    }
    let first_answer = reports[0].elapsed;
    println!(
        "first approximate answer after {} ms = {:.1}% of baseline latency",
        ms(first_answer),
        100.0 * ratio(first_answer, baseline.elapsed)
    );
}

/// Fig 7(b)/(c): per-query latency — baseline vs iOLAP full / @5% / @10%.
fn fig7bc(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 7(b): query latencies, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 7(c): query latencies, Conviva");
        conviva_workload(scale)
    };
    println!(
        "{:<6} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "query", "baseline", "iOLAP", "ratio", "iOLAP@5%", "iOLAP@10%"
    );
    for q in &w.queries {
        let baseline = w.run_baseline(q);
        let reports = w.run_iolap(q, scale.config());
        let total = total_latency(&reports);
        println!(
            "{:<6} {:>10}ms {:>10}ms {:>7.1}x {:>10}ms {:>10}ms",
            q.id,
            ms(baseline.elapsed),
            ms(total),
            ratio(total, baseline.elapsed),
            ms(latency_at_fraction(&reports, 0.05)),
            ms(latency_at_fraction(&reports, 0.10)),
        );
    }
}

/// Fig 8(a–d): per-batch latency ratio HDA / iOLAP.
fn fig8_ratio(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 8(a,b): HDA/iOLAP per-batch latency ratio, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 8(c,d): HDA/iOLAP per-batch latency ratio, Conviva");
        conviva_workload(scale)
    };
    for q in &w.queries {
        let iolap = w.run_iolap(q, scale.config());
        let hda = w.run_hda(q, scale.config());
        let ratios: Vec<String> = iolap
            .iter()
            .zip(hda.iter())
            .map(|(a, b)| format!("{:.2}", ratio(b.elapsed, a.elapsed)))
            .collect();
        println!(
            "{:<5} {:<6} batches 1..{}: [{}]",
            q.id,
            if q.nested { "nested" } else { "flat" },
            ratios.len(),
            ratios.join(", ")
        );
    }
}

/// Fig 8(e)/(f): tuples recomputed per batch by iOLAP, nested queries.
fn fig8_recomputed(scale: &ExpScale) {
    section("Fig 8(e): iOLAP tuples recomputed per batch, TPC-H nested");
    let t = tpch_workload(scale);
    for q in t.queries.iter().filter(|q| q.nested) {
        let reports = t.run_iolap(q, scale.config());
        let counts: Vec<String> = reports
            .iter()
            .map(|r| r.stats.recomputed_tuples.to_string())
            .collect();
        println!("{:<5} [{}]", q.id, counts.join(", "));
    }
    section("Fig 8(f): iOLAP tuples recomputed per batch, Conviva nested");
    let c = conviva_workload(scale);
    for q in c.queries.iter().filter(|q| q.nested) {
        let reports = c.run_iolap(q, scale.config());
        let counts: Vec<String> = reports
            .iter()
            .map(|r| r.stats.recomputed_tuples.to_string())
            .collect();
        println!("{:<5} [{}]", q.id, counts.join(", "));
    }
}

/// Fig 9(a): optimization breakdown on Conviva C2 — per-batch latency for
/// HDA vs OPT1-only vs OPT1+OPT2 (= iOLAP).
fn fig9a(scale: &ExpScale) {
    section("Fig 9(a): optimization breakdown, Conviva C2 (per-batch ms)");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "C2").unwrap().clone();
    let full = w.run_iolap(&q, scale.config());
    let opt1_only = w.run_iolap(&q, scale.config().optimizations(true, false));
    let hda = w.run_hda(&q, scale.config());
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "batch", "HDA", "OPT1", "OPT1+OPT2"
    );
    for i in 0..full.len() {
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            i,
            ms(hda[i].elapsed),
            ms(opt1_only[i].elapsed),
            ms(full[i].elapsed)
        );
    }
    let t = |r: &[iolap_core::BatchReport]| total_latency(r);
    println!(
        "totals: HDA {} ms | OPT1 {} ms ({:.0}% of HDA) | OPT1+OPT2 {} ms ({:.0}% of HDA)",
        ms(t(&hda)),
        ms(t(&opt1_only)),
        100.0 * ratio(t(&opt1_only), t(&hda)),
        ms(t(&full)),
        100.0 * ratio(t(&full), t(&hda)),
    );
}

/// Fig 9(b)/(c) and 10(c)/(d): state sizes and data shipped.
fn fig9bc(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 9(b): operator state sizes, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 10(c): operator state sizes, Conviva");
        conviva_workload(scale)
    };
    println!(
        "{:<6} {:>16} {:>18} {:>18}",
        "query", "join state(KB)", "other state(KB)", "baseline data(KB)"
    );
    let mut shipped_rows = Vec::new();
    for q in &w.queries {
        let reports = w.run_iolap(q, scale.config());
        let max_join = reports
            .iter()
            .map(|r| r.state_bytes_join)
            .max()
            .unwrap_or(0);
        let max_other = reports
            .iter()
            .map(|r| r.state_bytes_other)
            .max()
            .unwrap_or(0);
        let baseline_bytes = w.catalog.get(q.stream_table).unwrap().approx_bytes();
        println!(
            "{:<6} {:>16.1} {:>18.1} {:>18.1}",
            q.id,
            max_join as f64 / 1024.0,
            max_other as f64 / 1024.0,
            baseline_bytes as f64 / 1024.0
        );
        let total_shipped: usize = reports.iter().map(|r| r.stats.shipped_bytes).sum();
        let per_batch = total_shipped / reports.len().max(1);
        shipped_rows.push((q.id, total_shipped, per_batch, baseline_bytes));
    }
    if tpch {
        section("Fig 9(c): data shipped at query time, TPC-H");
    } else {
        section("Fig 10(d): data shipped at query time, Conviva");
    }
    println!(
        "{:<6} {:>18} {:>20} {:>18}",
        "query", "iOLAP total(KB)", "iOLAP per-batch(KB)", "baseline(KB)"
    );
    for (id, total, per_batch, base) in shipped_rows {
        println!(
            "{:<6} {:>18.1} {:>20.1} {:>18.1}",
            id,
            total as f64 / 1024.0,
            per_batch as f64 / 1024.0,
            base as f64 / 1024.0
        );
    }
}

/// Fig 9(d)/(e) and 10(e)/(f): slack parameter vs failure-recovery
/// probability and vs non-deterministic-set size.
fn fig9de(scale: &ExpScale, tpch: bool) {
    let (w, ids): (Workload, Vec<&str>) = if tpch {
        section("Fig 10(e,f): slack sweeps, TPC-H nested queries");
        (
            tpch_workload(scale),
            vec!["Q11", "Q17", "Q18", "Q20", "Q22"],
        )
    } else {
        section("Fig 9(d,e): slack sweeps, Conviva nested queries");
        (
            conviva_workload(scale),
            vec!["C1", "C2", "C4", "C6", "C7", "C8", "C9", "C10"],
        )
    };
    let slacks = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
    println!(
        "{:<6} {}",
        "query",
        slacks
            .iter()
            .map(|s| format!("{:>24}", format!("slack={s}")))
            .collect::<String>()
    );
    println!("{:<6}    (P(failure) % | avg recomputed/batch)", "");
    for id in ids {
        let q = w.queries.iter().find(|q| q.id == id).unwrap().clone();
        let mut cells = Vec::new();
        for s in slacks {
            let cfg = IolapConfig {
                slack: s,
                ..scale.config()
            };
            let reports = w.run_iolap(&q, cfg);
            let failures = reports.iter().filter(|r| r.recovered).count();
            let p_fail = failures as f64 / reports.len() as f64 * 100.0;
            let avg_recomputed: f64 = reports
                .iter()
                .map(|r| r.stats.recomputed_tuples as f64)
                .sum::<f64>()
                / reports.len() as f64;
            cells.push(format!("{:>11.0}% | {:>8.0}", p_fail, avg_recomputed));
        }
        println!("{:<6} {}", q.id, cells.join(" "));
    }
}

/// Fig 9(f)/(g): batch size vs per-batch latency and vs total latency.
fn fig9fg(scale: &ExpScale) {
    section("Fig 9(f,g): batch size sweeps, Conviva");
    let w = conviva_workload(scale);
    let batch_counts = [30, 24, 20, 16, 12]; // increasing batch *size*
    let total_rows = w.catalog.get("sessions").unwrap().len();
    println!(
        "{:<6} {}",
        "query",
        batch_counts
            .iter()
            .map(|b| format!("{:>26}", format!("~{} rows/batch", total_rows / b)))
            .collect::<String>()
    );
    println!("{:<6}    (avg batch ms | total ms)", "");
    for q in &w.queries {
        let mut cells = Vec::new();
        for b in batch_counts {
            let cfg = IolapConfig {
                num_batches: b,
                ..scale.config()
            };
            let reports = w.run_iolap(q, cfg);
            let total = total_latency(&reports);
            let avg = total / reports.len() as u32;
            cells.push(format!("{:>11} | {:>10}", ms(avg), ms(total)));
        }
        println!("{:<6} {}", q.id, cells.join(" "));
    }
}

/// Fig 10(a)/(b): iOLAP vs HDA latencies at full / 5% / 10% data.
fn fig10ab(scale: &ExpScale) {
    for (tpch, label) in [(true, "Fig 10(a): TPC-H"), (false, "Fig 10(b): Conviva")] {
        section(&format!("{label}: iOLAP vs HDA latencies"));
        let w = if tpch {
            tpch_workload(scale)
        } else {
            conviva_workload(scale)
        };
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "query", "iOLAP", "iOLAP@5%", "iOLAP@10%", "HDA", "HDA@5%", "HDA@10%"
        );
        for q in &w.queries {
            let iolap = w.run_iolap(q, scale.config());
            let hda = w.run_hda(q, scale.config());
            println!(
                "{:<6} {:>10}ms {:>10}ms {:>10}ms {:>10}ms {:>10}ms {:>10}ms",
                q.id,
                ms(total_latency(&iolap)),
                ms(latency_at_fraction(&iolap, 0.05)),
                ms(latency_at_fraction(&iolap, 0.10)),
                ms(total_latency(&hda)),
                ms(latency_at_fraction(&hda, 0.05)),
                ms(latency_at_fraction(&hda, 0.10)),
            );
        }
    }
}

/// Extension (not in the paper): bootstrap trial-count sweep. More trials
/// buy smoother error estimates and tighter variation ranges at a
/// CPU-proportional cost — the knob behind the "known deviations" note in
/// EXPERIMENTS.md.
fn trials_sweep(scale: &ExpScale) {
    section("Extension: bootstrap trial-count sweep, Conviva SBI");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "SBI").unwrap().clone();
    println!(
        "{:>8} {:>14} {:>22} {:>18}",
        "trials", "total (ms)", "first-batch rsd (%)", "final recomputed"
    );
    for trials in [10usize, 25, 50, 100, 200] {
        let cfg = IolapConfig {
            trials,
            ..scale.config()
        };
        let reports = w.run_iolap(&q, cfg);
        let rsd = reports[0]
            .result
            .max_relative_std()
            .map(|x| x * 100.0)
            .unwrap_or(f64::NAN);
        println!(
            "{:>8} {:>14} {:>22.3} {:>18}",
            trials,
            ms(total_latency(&reports)),
            rsd,
            reports.last().unwrap().stats.recomputed_tuples
        );
    }
}

/// Extension (not in the paper): per-operator metrics breakdown for one
/// representative nested query per workload, summed over all batches —
/// where each query's time and traffic actually go. Runs with the journal
/// armed so the rollup line reports *exclusive* span self-time from the
/// trace tree (a sum over the inclusive `_ns` metrics would double-count
/// nested spans).
fn metrics_breakdown(scale: &ExpScale) {
    for (w, id) in [
        (tpch_workload(scale), "Q11"),
        (conviva_workload(scale), "SBI"),
    ] {
        section(&format!(
            "Per-operator metrics, {} {id} (all batches)",
            w.name
        ));
        let q = w.queries.iter().find(|q| q.id == id).unwrap().clone();
        let (reports, _events, cumulative) = w.run_iolap_traced(&q, scale.config());
        print!("{cumulative}");
        let recovered = reports.iter().filter(|r| r.recovered).count();
        let self_time_ns: u64 = reports
            .iter()
            .flat_map(|r| r.self_time_ns.iter())
            .map(|(_, ns)| ns)
            .sum();
        println!(
            "batches: {} | recoveries: {} | traced self-time total: {:.2} ms",
            reports.len(),
            recovered,
            self_time_ns as f64 / 1e6
        );
    }
}

/// `kernels`: micro-benchmark + exactness check of the columnar kernels
/// against their row-at-a-time references (not part of `all`). Each kernel
/// must produce results bit-identical to the scalar reference — any
/// mismatch is a violation that fails the harness. `--smoke` shrinks the
/// row count for the offline gate. Timings are informative (the acceptance
/// numbers live in the per-operator `_ns` metrics of the BENCH record).
fn kernels_cmd(scale: &ExpScale, smoke: bool) -> usize {
    use iolap_bootstrap::poisson::{block_trial_weights, trial_weights};
    use iolap_engine::{CmpOp, EvalContext, Expr};
    use iolap_relation::kernels::filter::{filter_cmp_value, CmpKind};
    use iolap_relation::kernels::fold::{fold_sum_weighted, gather_numeric};
    use iolap_relation::{Column, SelVec, Value};
    use std::time::Instant;

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn report(name: &str, rows: usize, t_ref: std::time::Duration, t_vec: std::time::Duration) {
        let rns = t_ref.as_nanos() as f64 / rows as f64;
        let vns = t_vec.as_nanos() as f64 / rows as f64;
        let speedup = if vns > 0.0 { rns / vns } else { f64::INFINITY };
        println!(
            "{name:<18} {rows:>8} rows | ref {rns:>8.1} ns/row | vec {vns:>8.1} ns/row | {speedup:>5.2}x"
        );
    }

    section(&format!(
        "kernels: columnar kernels vs row-at-a-time reference ({})",
        if smoke { "smoke" } else { "full" }
    ));
    let n: usize = if smoke { 20_000 } else { 200_000 };
    let trials = scale.trials;
    let mut violations = 0usize;

    // Deterministic synthetic columns: floats with NULL holes, a
    // low-cardinality dictionary string column.
    let cdns = ["cdn0", "cdn1", "cdn2", "cdn3"];
    let floats: Vec<Value> = (0..n)
        .map(|i| {
            let r = mix(scale.seed ^ i as u64);
            if r.is_multiple_of(23) {
                Value::Null
            } else {
                Value::Float((r % 10_000) as f64 / 10_000.0)
            }
        })
        .collect();
    let strs: Vec<Value> = (0..n)
        .map(|i| Value::str(cdns[(mix(i as u64) % 4) as usize]))
        .collect();

    // --- comparison kernels (the SELECT hot path). The reference is the
    // operator's replaced code path — `Expr::eval_predicate` per row — and
    // the vectorized timing includes column construction, as the operator
    // pays it per batch.
    for (name, cells, kind, lit) in [
        ("filter f64 >", &floats, CmpKind::Gt, Value::Float(0.5)),
        ("filter str =", &strs, CmpKind::Eq, Value::str("cdn3")),
    ] {
        let op = match kind {
            CmpKind::Gt => CmpOp::Gt,
            _ => CmpOp::Eq,
        };
        let rows: Vec<iolap_relation::Row> = cells
            .iter()
            .map(|v| iolap_relation::Row::new(vec![v.clone()]))
            .collect();
        let pred = Expr::Cmp {
            op,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(lit.clone())),
        };
        let t0 = Instant::now();
        let mut ref_sel: Vec<usize> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if pred
                .eval_predicate(row, &EvalContext::batch())
                .unwrap_or(false)
            {
                ref_sel.push(i);
            }
        }
        let t_ref = t0.elapsed();
        let t0 = Instant::now();
        let (col, saw_lineage) = Column::from_cells(cells.iter());
        let mut sel = SelVec::with_capacity(n);
        let ok = !saw_lineage && filter_cmp_value(&col, kind, &lit, &mut sel);
        let t_vec = t0.elapsed();
        if !ok || sel.iter().collect::<Vec<_>>() != ref_sel {
            eprintln!("kernels: {name} diverged from the row-at-a-time reference");
            violations += 1;
        }
        report(name, n, t_ref, t_vec);
    }

    // --- aggregate trial fold (the AGGREGATE hot path): weighted SUM
    // across all bootstrap trials, gather + fold vs scalar reference.
    let ws: Vec<Vec<f64>> = (0..n)
        .map(|i| trial_weights(scale.seed, i as u64, trials))
        .collect();
    let mults: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let frows: Vec<iolap_relation::Row> = floats
        .iter()
        .map(|v| iolap_relation::Row::new(vec![v.clone()]))
        .collect();
    let arg = Expr::Col(0);
    let t0 = Instant::now();
    let mut ra = vec![0.0; trials];
    let mut rb = vec![0.0; trials];
    for (i, row) in frows.iter().enumerate() {
        // The row path evaluates the argument expression per row (clone +
        // dispatch) before the trial fold.
        let v = arg.eval(row, &EvalContext::batch()).unwrap_or(Value::Null);
        let x = v.as_f64();
        if v.is_null() || x.is_none() {
            continue;
        }
        let x = x.unwrap_or(0.0);
        let m = mults[i];
        for ((ta, tb), w) in ra.iter_mut().zip(rb.iter_mut()).zip(ws[i].iter()) {
            *ta += m * w * x;
            *tb += m * w;
        }
    }
    let t_ref = t0.elapsed();
    let t0 = Instant::now();
    let mut xs = Vec::new();
    let mut sel = SelVec::with_capacity(n);
    let ok = gather_numeric(floats.iter(), false, &mut xs, &mut sel);
    let mut va = vec![0.0; trials];
    let mut vb = vec![0.0; trials];
    for (k, i) in sel.iter().enumerate() {
        fold_sum_weighted(&mut va, &mut vb, xs[k], mults[i], &ws[i]);
    }
    let t_vec = t0.elapsed();
    let bits_equal = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !ok || !bits_equal(&va, &ra) || !bits_equal(&vb, &rb) {
        eprintln!("kernels: fold sum(weighted) diverged from the row-at-a-time reference");
        violations += 1;
    }
    report("fold sum(w)", n, t_ref, t_vec);

    // --- Poisson block draw (the SCAN hot path): whole-delta block vs
    // per-row vectors. One untimed warmup of each shape first, so neither
    // side pays the allocator's first-touch page faults inside the timer.
    let n2 = n / 10;
    drop(block_trial_weights(scale.seed, 0, n2, trials));
    drop(trial_weights(scale.seed, 0, trials));
    let t0 = Instant::now();
    let per_row: Vec<Vec<f64>> = (0..n2)
        .map(|i| trial_weights(scale.seed, i as u64, trials))
        .collect();
    let t_ref = t0.elapsed();
    let t0 = Instant::now();
    let block = block_trial_weights(scale.seed, 0, n2, trials);
    let t_vec = t0.elapsed();
    let block_ok = trials == 0
        || (block.len() == n2 * trials
            && block
                .chunks_exact(trials)
                .zip(per_row.iter())
                .all(|(c, r)| bits_equal(c, r)));
    if !block_ok {
        eprintln!("kernels: Poisson block draw diverged from per-row trial_weights");
        violations += 1;
    }
    report("poisson block", n2, t_ref, t_vec);

    if violations == 0 {
        println!("kernels: all vectorized results bit-identical to references");
    }
    violations
}

// Silence the unused-import lint for BatchedRelation which documents the
// partitioning used by the drivers.
#[allow(unused)]
fn _partitioning_doc(_b: &BatchedRelation) {}
