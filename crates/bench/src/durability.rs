//! Durable-store experiments: the sweep behind `experiments durability`.
//!
//! The durability tentpole makes three claims, and the sweep checks each
//! the way the shard/observe sweeps check theirs — by byte comparison of
//! canonical exports, never by trusting the implementation:
//!
//! * **crash-point matrix**: for every batch boundary `m` of every swept
//!   query, a durable server is killed (dropped without a clean finish)
//!   with `m` batches stepped and `m-1` reports delivered, restarted over
//!   the same log directory, and recovered. The resumed report stream
//!   must be byte-identical (modulo the masked wall clock) to an
//!   uninterrupted run — the §5.1 recovery loop re-derives progress, it
//!   never re-estimates it.
//! * **streaming appends**: a mid-run `append` grows the stream by one
//!   mini-batch; the server's grown stream must byte-match a driver-level
//!   run appending the same rows at the same position, and the final
//!   batch's fraction returns to 1.0 (Theorem-1 agreement now covers the
//!   appended rows).
//! * **fsync overhead**: the same session timed with `fsync` off vs on
//!   (min of three runs each), recorded against the stated 25 % budget.
//!   Like the telemetry overhead, it is recorded rather than asserted —
//!   single-run smoke-scale timing would make a hard gate flaky. The
//!   correctness claims above *are* asserted: any non-identical matrix
//!   cell, inexact append cell, or stale digest is a violation.

use crate::{conviva_workload, ExpScale};
use iolap_server::tcp::{handle_request, SubmitFactory};
use iolap_server::wire::{parse, JVal};
use iolap_server::{Server, ServerConfig, SessionHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows appended by the streaming-append cells (conviva `sessions`
/// schema). Two rows with distinctive values so a dropped or duplicated
/// append shows up in the aggregates, not just the row counts.
const APPEND_ROWS: &str = r#"[[990001,1,"cdn-append","SFO","US","isp-a","vod",12.5,3.5,1.25,2400,0],[990002,2,"cdn-append","LAX","US","isp-b","live",2.5,7.25,0.5,3200,1]]"#;

/// Tally of one `experiments durability` sweep.
#[derive(Default)]
struct DurabilityTally {
    /// Crash-point cells run (kill + restart + recover + resume).
    matrix_cells: usize,
    /// Cells whose resumed stream byte-matched the uninterrupted run.
    matrix_identical: usize,
    /// Streaming-append cells run.
    append_cells: usize,
    /// Append cells whose grown stream byte-matched the driver oracle.
    append_exact: usize,
    /// Batches re-run by recovery replay across all cells.
    replayed_batches: usize,
    /// Checkpoint digests that failed verification during replay (any
    /// nonzero count is a violation: nothing in the sweep damages logs).
    stale_digests: usize,
    /// Uninterrupted durable session wall-clock, fsync off (min of 3, ms).
    fsync_off_ms: f64,
    /// The same session with fsync on every frame (min of 3, ms).
    fsync_on_ms: f64,
}

impl DurabilityTally {
    /// Correctness violations (fsync overhead is recorded, not asserted).
    fn violations(&self) -> usize {
        (self.matrix_cells - self.matrix_identical)
            + (self.append_cells - self.append_exact)
            + self.stale_digests
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("iolap-durability-{}-{n}-{tag}", std::process::id()))
}

/// Factory over a fresh workload at `scale`: recovery re-derives drivers
/// from origin requests, so the factory being a pure function of the
/// request is the recovery contract the sweep leans on.
fn make_factory(scale: &ExpScale) -> SubmitFactory {
    let w = conviva_workload(scale);
    let cfg = scale.config();
    Arc::new(move |req: &JVal| {
        let id = req
            .get("query")
            .and_then(JVal::as_str)
            .ok_or_else(|| "missing query".to_string())?;
        let q = w
            .queries
            .iter()
            .find(|q| q.id == id)
            .ok_or_else(|| format!("unknown query {id}"))?
            .clone();
        let pq = w.plan(&q);
        let driver =
            iolap_core::IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, cfg.clone())
                .map_err(|e| e.to_string())?;
        Ok((driver, iolap_server::tcp::spec_from_request(req)))
    })
}

/// `workers=1, report_buffer=1` parks the lone worker after each batch,
/// making "killed at batch boundary m" a deterministic machine state.
fn server_cfg(dir: &Path, fsync: bool) -> ServerConfig {
    ServerConfig::with_workers(1)
        .report_buffer(1)
        .durable(dir.to_path_buf())
        .durable_fsync(fsync)
}

/// Re-render a report line with `elapsed_ms` pinned to 0 so streams from
/// different runs compare bytewise.
fn masked(r: &JVal) -> String {
    let mut pinned = r.clone();
    if let JVal::Obj(members) = &mut pinned {
        for (k, v) in members.iter_mut() {
            if k == "elapsed_ms" {
                *v = JVal::Num(0.0);
            }
        }
    }
    pinned.render()
}

fn submit(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    query: &str,
) -> u64 {
    let resp = handle_request(
        server,
        f,
        sessions,
        &format!(r#"{{"op":"submit","query":"{query}","label":"durability"}}"#),
    );
    let v = parse(&resp).unwrap_or_else(|e| panic!("submit response unparsable: {e}"));
    v.get("session")
        .and_then(JVal::as_u64)
        .unwrap_or_else(|| panic!("submit rejected: {resp}"))
}

/// Poll with `max:1` until one report arrives.
fn poll_one(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    id: u64,
) -> String {
    for _ in 0..4000 {
        let resp = handle_request(
            server,
            f,
            sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":1}}"#),
        );
        let v = parse(&resp).unwrap_or_else(|e| panic!("poll response unparsable: {e}"));
        if let Some(JVal::Arr(rs)) = v.get("reports") {
            if let Some(r) = rs.first() {
                return masked(r);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("durability: no report arrived for session {id}");
}

/// Drain the session to `done`, returning every masked report line.
fn poll_to_done(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    id: u64,
) -> Vec<String> {
    let mut lines = Vec::new();
    for _ in 0..8000 {
        let resp = handle_request(
            server,
            f,
            sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":4}}"#),
        );
        let v = parse(&resp).unwrap_or_else(|e| panic!("poll response unparsable: {e}"));
        if let Some(JVal::Arr(rs)) = v.get("reports") {
            for r in rs {
                lines.push(masked(r));
            }
        }
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            return lines;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("durability: session {id} never finished");
}

/// Block until the parked worker has buffered one report with `batches`
/// batches stepped in total — the deterministic crash point.
fn wait_for_boundary(handle: &SessionHandle, batches: usize) {
    for _ in 0..4000 {
        let s = handle.summary();
        if s.pending_reports == 1 && s.batches_run == batches {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let s = handle.summary();
    panic!(
        "durability: never reached boundary {batches} (batches_run={} pending={})",
        s.batches_run, s.pending_reports
    );
}

/// One uninterrupted durable run; returns the masked stream and wall
/// clock. `append_after` arms the streaming-append cell: the rows land
/// while the worker is parked after that batch boundary.
fn durable_run(
    f: &SubmitFactory,
    dir: &Path,
    fsync: bool,
    query: &str,
    append_after: Option<usize>,
) -> (Vec<String>, f64) {
    let server = Server::new(server_cfg(dir, fsync));
    let mut sessions = BTreeMap::new();
    let started = Instant::now();
    let id = submit(&server, f, &mut sessions, query);
    if let Some(boundary) = append_after {
        wait_for_boundary(&sessions[&id], boundary);
        let resp = handle_request(
            &server,
            f,
            &mut sessions,
            &format!(r#"{{"op":"append","table":"sessions","rows":{APPEND_ROWS}}}"#),
        );
        let v = parse(&resp).unwrap_or_else(|e| panic!("append response unparsable: {e}"));
        assert_eq!(
            v.get("sessions").and_then(JVal::as_u64),
            Some(1),
            "durability: append not delivered: {resp}"
        );
    }
    let lines = poll_to_done(&server, f, &mut sessions, id);
    (lines, started.elapsed().as_secs_f64() * 1e3)
}

/// One crash cell: kill at boundary `m`, restart, recover, resume, drain.
/// Returns `(identical, replayed, stale)` against `baseline`.
fn crash_cell(
    f: &SubmitFactory,
    query: &str,
    m: usize,
    baseline: &[String],
) -> (bool, usize, usize) {
    let dir = scratch_dir(&format!("{query}-cell{m}"));
    let mut pre = Vec::new();
    {
        let server = Server::new(server_cfg(&dir, false));
        let mut sessions = BTreeMap::new();
        let id = submit(&server, f, &mut sessions, query);
        for k in 0..m {
            wait_for_boundary(&sessions[&id], k + 1);
            if k + 1 < m {
                pre.push(poll_one(&server, f, &mut sessions, id));
            }
        }
        // The kill: drop without finish; no 'D' record reaches the log.
    }
    let server = Server::new(server_cfg(&dir, false));
    let recovered = server.recover(f);
    let resumed_one = recovered.resumed.len() == 1;
    let post = if resumed_one {
        let id = recovered.resumed[0];
        let mut sessions = BTreeMap::new();
        let resp = handle_request(
            &server,
            f,
            &mut sessions,
            &format!(r#"{{"op":"resume","session":{id}}}"#),
        );
        let ok = parse(&resp)
            .ok()
            .and_then(|v| v.get("ok").and_then(JVal::as_bool))
            == Some(true);
        if ok {
            poll_to_done(&server, f, &mut sessions, id)
        } else {
            Vec::new()
        }
    } else {
        Vec::new()
    };
    let identical = pre == baseline[..m - 1] && post == baseline;
    let _ = std::fs::remove_dir_all(&dir);
    (
        identical,
        recovered.replayed_batches,
        recovered.stale_digests,
    )
}

/// Driver-level oracle for the append cell: step once, append the same
/// rows at the same position, run to the end, render through the same
/// wire form the server uses.
fn append_oracle(f: &SubmitFactory, query: &str) -> Vec<String> {
    let req = parse(&format!(
        r#"{{"op":"submit","query":"{query}","label":"durability"}}"#
    ))
    .unwrap_or_else(|e| panic!("oracle request unparsable: {e}"));
    let (mut driver, _) = f(&req).unwrap_or_else(|e| panic!("oracle factory: {e}"));
    let mut reports = Vec::new();
    let first = driver
        .step()
        .unwrap_or_else(|| panic!("{query}: empty stream"))
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    reports.push(first);
    let rows = parse(APPEND_ROWS).unwrap_or_else(|e| panic!("append rows unparsable: {e}"));
    let rel = iolap_server::durable::rows_to_relation(&rows, driver.stream_schema())
        .unwrap_or_else(|e| panic!("append rows rejected: {e}"));
    driver
        .append_rows(rel)
        .unwrap_or_else(|e| panic!("append_rows: {e}"));
    while let Some(step) = driver.step() {
        reports.push(step.unwrap_or_else(|e| panic!("{query}: {e}")));
    }
    reports
        .iter()
        .map(|r| {
            let line = iolap_server::tcp::report_json(r);
            let v = parse(&line).unwrap_or_else(|e| panic!("report unparsable: {e}"));
            masked(&v)
        })
        .collect()
}

/// Run the durability sweep; returns its violation count.
/// `smoke` pins the scale (independent of `IOLAP_SCALE`, like `observe
/// --smoke`).
pub fn durability_sweep(scale: &ExpScale, smoke: bool) -> usize {
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
    // Smoke sweeps the crash matrix over EVERY built-in Conviva query
    // (all stream `sessions`) — tiny scale keeps the gate fast. The full
    // sweep takes four representative queries to its much larger scale.
    let queries: Vec<&'static str> = if smoke {
        conviva_workload(&scale)
            .queries
            .iter()
            .map(|q| q.id)
            .collect()
    } else {
        vec!["C1", "C2", "C3", "C7"]
    };
    let f = make_factory(&scale);

    let mut rec = DurabilityTally::default();

    for query in &queries {
        let dir = scratch_dir(&format!("{query}-baseline"));
        let (baseline, _) = durable_run(&f, &dir, false, query, None);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            baseline.len(),
            scale.batches,
            "{query}: baseline must deliver every batch"
        );

        let mut identical_cells = 0usize;
        for m in 1..scale.batches {
            let (identical, replayed, stale) = crash_cell(&f, query, m, &baseline);
            rec.matrix_cells += 1;
            rec.replayed_batches += replayed;
            rec.stale_digests += stale;
            if identical {
                rec.matrix_identical += 1;
                identical_cells += 1;
            } else {
                println!("durability: VIOLATION {query} cell {m} stream diverged after restart");
            }
        }
        println!(
            "durability: {query} crash matrix {}/{} cells byte-identical",
            identical_cells,
            scale.batches - 1
        );

        // Streaming-append cell: server grown stream vs driver oracle.
        let oracle = append_oracle(&f, query);
        let dir = scratch_dir(&format!("{query}-append"));
        let (grown, _) = durable_run(&f, &dir, false, query, Some(1));
        let _ = std::fs::remove_dir_all(&dir);
        rec.append_cells += 1;
        let last_exact = grown
            .last()
            .and_then(|l| parse(l).ok())
            .and_then(|v| v.get("fraction").and_then(JVal::as_f64))
            == Some(1.0);
        if grown == oracle && grown.len() == scale.batches + 1 && last_exact {
            rec.append_exact += 1;
            println!(
                "durability: {query} append cell exact ({} batches, final fraction 1.0)",
                grown.len()
            );
        } else {
            println!(
                "durability: VIOLATION {query} append cell diverged ({} vs {} lines)",
                grown.len(),
                oracle.len()
            );
        }
    }

    // fsync overhead: the same uninterrupted session, off vs on, min of 3.
    let timing_query = *queries.last().unwrap_or(&"C3");
    for fsync in [false, true] {
        let mut best = f64::INFINITY;
        for i in 0..3 {
            let dir = scratch_dir(&format!("fsync{fsync}-{i}"));
            let (_, ms) = durable_run(&f, &dir, fsync, timing_query, None);
            let _ = std::fs::remove_dir_all(&dir);
            best = best.min(ms);
        }
        if fsync {
            rec.fsync_on_ms = best;
        } else {
            rec.fsync_off_ms = best;
        }
    }
    println!(
        "durability: fsync off {:.1} ms / on {:.1} ms ({:+.1} % vs 25 % budget, recorded)",
        rec.fsync_off_ms,
        rec.fsync_on_ms,
        crate::overhead_pct(rec.fsync_off_ms, rec.fsync_on_ms)
    );
    println!(
        "durability: {} matrix cells ({} identical), {} append cells ({} exact), {} batches replayed, {} stale digests — {} violation(s)",
        rec.matrix_cells,
        rec.matrix_identical,
        rec.append_cells,
        rec.append_exact,
        rec.replayed_batches,
        rec.stale_digests,
        rec.violations()
    );
    rec.violations()
}
