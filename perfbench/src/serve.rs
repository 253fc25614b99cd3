//! The serving leg of `olap-flat`'s traced run: `tcp::serve` with two
//! scheduler workers, the durable store on (fsync on) and the drivers
//! tracing. Two client connections, one thread each, run a closed loop for
//! [`LEG_SECONDS`]: submit, then poll for one report at a time with a fixed
//! think time between polls. A transport-free pass then calls
//! `tcp::handle_request` directly on a fresh server.
//!
//! * Lane A (write lane) submits Conviva C1, C2, C3 and SBI, run to
//!   completion, and streams `append` rows into `sessions` while each
//!   runs. Its final answer must equal the exact answer over the base rows
//!   plus every appended batch the `append` response says reached the
//!   session.
//! * Lane B (read lane) submits TPC-H lineorder queries under
//!   run-to-completion and `relative_ci` (0.05) policies and only polls.
//!   Each session's reports must be byte-equal (elapsed masked) to the
//!   prefix of the solo in-process run.
//!
//! The lanes never see each other's rows: lane B streams `lineorder`,
//! appends go to `sessions`.

use crate::common::{
    engine_config, mean, median, ms, nanos, out_dir, quantile, Args, E2e, Layers,
};
use crate::inproc::{corrupt_relation, query_spec, Data};
use crate::net::Conn;
use iolap_baselines::run_baseline_plan;
use iolap_core::IolapDriver;
use iolap_engine::plan_sql;
use iolap_relation::{Relation, Row, Value};
use iolap_server::tcp::{handle_request, report_json, spec_from_request, SubmitFactory};
use iolap_server::wire::{parse, value_json, JVal};
use iolap_server::{Server, ServerConfig, SessionHandle};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lane A queries (stream `sessions`, run to completion, appended to).
pub const LANE_A: &[&str] = &["C1", "C2", "C3", "SBI"];
/// Lane B queries and their stop policy (`None` = run to completion).
pub const LANE_B: &[(&str, Option<f64>)] = &[
    ("Q1", None),
    ("Q6", Some(0.05)),
    ("Q3", None),
    ("Q5", Some(0.05)),
];
/// Scheduler worker threads.
pub const WORKERS: usize = 2;
/// Undelivered reports a session may hold before the scheduler parks it
/// (per-client backpressure): the server runs at most this many batches
/// ahead of the polling client, so sessions stay live while the client
/// reads and lane A's appends land while base batches remain.
pub const REPORT_BUFFER: usize = 2;
/// Think time between one poll's response and the next request.
pub const POLL_PERIOD: Duration = Duration::from_millis(5);
/// Lane A appends once every this many polls while its session runs...
pub const APPEND_EVERY: usize = 4;
/// ...at most this many times per session...
pub const APPENDS_PER_SESSION: usize = 3;
/// ...with this many generated `sessions` rows each.
pub const APPEND_ROWS: usize = 8;
/// A query run that has not finished after this long counts as timed out.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(60);
/// Measured time of the leg (the lanes finish the query they are in).
pub const LEG_SECONDS: f64 = 10.0;

/// Everything the lanes share: inputs, references, appended rows.
struct Env {
    data: Arc<Data>,
    seed: u64,
    /// Lane B: per query, the solo in-process reports as elapsed-masked
    /// wire lines.
    refs_b: Vec<Vec<String>>,
    /// Pre-rendered append row arrays (`[v, ...]`), cycled through.
    append_rows: Vec<String>,
    corrupt: bool,
}

fn all_ids() -> Vec<&'static str> {
    LANE_A
        .iter()
        .copied()
        .chain(LANE_B.iter().map(|(id, _)| *id))
        .collect()
}

impl Env {
    fn new(args: &Args) -> Env {
        let data = Arc::new(Data::generate(args.seed, &all_ids()));
        let mut refs_b: Vec<Vec<String>> = Vec::new();
        for (id, _) in LANE_B {
            let spec = query_spec(id);
            let (cat, reg) = data.for_query(&spec);
            let pq = plan_sql(spec.sql, cat, reg).unwrap_or_else(|e| panic!("{id}: plan: {e}"));
            let mut driver = IolapDriver::from_plan(
                &pq,
                cat,
                spec.stream_table,
                engine_config(args.seed, false),
            )
            .unwrap_or_else(|e| panic!("{id}: from_plan: {e}"));
            let reports = driver
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{id}: solo run: {e}"));
            refs_b.push(
                reports
                    .iter()
                    .map(|r| mask_elapsed(&report_json(r)))
                    .collect(),
            );
        }
        if args.corrupt_reference {
            refs_b[0][0].push_str("corrupted reference");
        }
        // Appended rows come from the same generator under a derived seed,
        // so they are fresh rows of the streamed table's shape.
        let extra = iolap_workloads::conviva_sessions(
            APPEND_ROWS * APPENDS_PER_SESSION * 16,
            args.seed ^ 0x00a9_9e4d,
        );
        let append_rows = extra
            .rows()
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.values.iter().map(value_json).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        Env {
            data,
            seed: args.seed,
            refs_b,
            append_rows,
            corrupt: args.corrupt_reference,
        }
    }

    fn factory(&self, traced: bool) -> SubmitFactory {
        let data = Arc::clone(&self.data);
        let seed = self.seed;
        Arc::new(move |req: &JVal| {
            let id = req
                .get("query")
                .and_then(JVal::as_str)
                .ok_or_else(|| "missing \"query\"".to_string())?;
            let spec = iolap_workloads::tpch_query(id)
                .or_else(|| iolap_workloads::conviva_query(id))
                .ok_or_else(|| format!("unknown query {id:?}"))?;
            let (cat, reg) = data.for_query(&spec);
            let pq = plan_sql(spec.sql, cat, reg).map_err(|e| e.to_string())?;
            let driver =
                IolapDriver::from_plan(&pq, cat, spec.stream_table, engine_config(seed, traced))
                    .map_err(|e| e.to_string())?;
            Ok((driver, spec_from_request(req)))
        })
    }
}

/// A running server: scheduler, durable directory, loopback address.
struct Running {
    server: Arc<Server>,
    dir: PathBuf,
    addr: SocketAddr,
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("durable-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(dir: &Path, traced: bool) -> ServerConfig {
    let mut cfg = ServerConfig::with_workers(WORKERS)
        .report_buffer(REPORT_BUFFER)
        .durable(dir)
        .durable_fsync(true);
    if traced {
        cfg = cfg.trace(iolap_core::TraceMode::Journal);
    }
    cfg
}

fn start_server(env: &Env) -> Running {
    let dir = fresh_dir();
    let server = Arc::new(Server::new(server_config(&dir, true)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the serving listener");
    let addr = listener.local_addr().expect("serving address");
    let factory = env.factory(true);
    let s = Arc::clone(&server);
    std::thread::spawn(move || iolap_server::tcp::serve(listener, s, factory));
    Running { server, dir, addr }
}

impl Running {
    fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.dir
    }
}

/// Replace a report line's `elapsed_ms` value (the one wall-clock field)
/// with `_`, so two lines compare by answer.
fn mask_elapsed(report: &str) -> String {
    const KEY: &str = "\"elapsed_ms\":";
    let Some(start) = report.find(KEY) else {
        return report.to_string();
    };
    let value_start = start + KEY.len();
    let end = report[value_start..]
        .find(',')
        .map_or(report.len(), |i| value_start + i);
    format!("{}_{}", &report[..value_start], &report[end..])
}

fn elapsed_ms_of(report: &str) -> f64 {
    const KEY: &str = "\"elapsed_ms\":";
    report
        .find(KEY)
        .map(|i| &report[i + KEY.len()..])
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// The single report object of a `max:1` poll response, byte for byte
/// (empty when the poll returned none).
fn report_of(response: &str) -> &str {
    const KEY: &str = "\"reports\":[";
    match response.find(KEY) {
        Some(i) if response.len() >= i + KEY.len() + 2 => {
            &response[i + KEY.len()..response.len() - 2]
        }
        _ => "",
    }
}

/// A lane A run whose final answer is checked after the loop.
struct PendingCheck {
    query: &'static str,
    appended: Vec<String>,
    final_report: String,
}

/// What one lane measured.
struct Lane {
    e2e: E2e,
    rtt_ms: BTreeMap<&'static str, Vec<f64>>,
    parse_us: Vec<f64>,
    response_bytes: Vec<f64>,
    sched_wait_ms: Vec<f64>,
    appended_bytes: u64,
    report_bytes: u64,
    /// Appends that reached a live session, and lane A query runs.
    appends_reached: u64,
    lane_a_runs: u64,
    pending: Vec<PendingCheck>,
}

struct LaneCtx<'a> {
    env: &'a Env,
    addr: SocketAddr,
    deadline: Instant,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            e2e: E2e::default(),
            rtt_ms: BTreeMap::new(),
            parse_us: Vec::new(),
            response_bytes: Vec::new(),
            sched_wait_ms: Vec::new(),
            appended_bytes: 0,
            report_bytes: 0,
            appends_reached: 0,
            lane_a_runs: 0,
            pending: Vec::new(),
        }
    }

    /// One request: time the round trip, parse the response, count the
    /// op. Returns the raw line and its parse, or `None` when the transport
    /// or the parse failed (counted as a failure).
    fn call(&mut self, conn: &mut Conn, op: &'static str, request: &str) -> Option<(String, JVal)> {
        self.e2e.attempted += 1;
        let t0 = Instant::now();
        let response = match conn.call(request) {
            Ok(r) => r,
            Err(e) => {
                self.e2e.fail(format!("{op}: transport: {e}"));
                return None;
            }
        };
        let t1 = Instant::now();
        let parsed = parse(&response);
        let t2 = Instant::now();
        self.rtt_ms.entry(op).or_default().push(ms(t1 - t0));
        self.parse_us.push((t2 - t1).as_secs_f64() * 1e6);
        self.response_bytes.push(response.len() as f64 + 1.0);
        match parsed {
            Ok(v) => Some((response, v)),
            Err(e) => {
                self.e2e.fail(format!("{op}: bad response json: {e}"));
                None
            }
        }
    }

    /// [`Lane::call`] that also counts an `ok:false` response as a failure.
    fn call_ok(
        &mut self,
        conn: &mut Conn,
        op: &'static str,
        request: &str,
    ) -> Option<(String, JVal)> {
        let (line, v) = self.call(conn, op, request)?;
        if v.get("ok").and_then(JVal::as_bool) == Some(true) {
            Some((line, v))
        } else {
            self.e2e.fail(format!("{op}: {line}"));
            None
        }
    }

    /// One query run: submit, poll to the end, check.
    fn run_query(
        &mut self,
        ctx: &LaneCtx<'_>,
        conn: &mut Conn,
        query: &'static str,
        policy: Option<f64>,
        lane_b_ref: Option<&[String]>,
        append_cursor: &mut usize,
    ) {
        self.e2e.attempted += 1;
        let policy_json = match policy {
            Some(t) => format!(",\"policy\":{{\"kind\":\"relative_ci\",\"target\":{t}}}"),
            None => String::new(),
        };
        let submit = format!(
            "{{\"op\":\"submit\",\"query\":\"{query}\",\"label\":\"{query}\"{policy_json}}}"
        );
        let t_submit = Instant::now();
        let Some((_, resp)) = self.call_ok(conn, "submit", &submit) else {
            self.e2e.fail(format!("{query}: not admitted"));
            return;
        };
        let Some(session) = resp.get("session").and_then(JVal::as_u64) else {
            self.e2e
                .fail(format!("{query}: submit response without session"));
            return;
        };
        let poll = format!("{{\"op\":\"poll\",\"session\":{session},\"max\":1}}");
        let mut arrivals = Vec::new();
        let mut last_arrival = t_submit;
        let mut last_report = String::new();
        let mut appended = Vec::new();
        let mut polls = 0usize;
        let mut ok = true;
        loop {
            if t_submit.elapsed() > QUERY_TIMEOUT {
                self.e2e.fail(format!("{query}: timed out"));
                return;
            }
            std::thread::sleep(POLL_PERIOD);
            polls += 1;
            if lane_b_ref.is_none()
                && appended.len() < APPENDS_PER_SESSION
                && polls.is_multiple_of(APPEND_EVERY)
            {
                let rows: Vec<&str> = (0..APPEND_ROWS)
                    .map(|k| {
                        ctx.env.append_rows[(*append_cursor + k) % ctx.env.append_rows.len()]
                            .as_str()
                    })
                    .collect();
                *append_cursor += APPEND_ROWS;
                let rows_json = format!("[{}]", rows.join(","));
                let request =
                    format!("{{\"op\":\"append\",\"table\":\"sessions\",\"rows\":{rows_json}}}");
                let Some((line, resp)) = self.call(conn, "append", &request) else {
                    return;
                };
                // `unknown_table` (the session already finished) is a
                // legitimate race, not a failure: the rows reached nobody.
                match resp.get("sessions").and_then(JVal::as_u64) {
                    Some(reached) if reached > 0 => {
                        self.appends_reached += 1;
                        self.appended_bytes += rows_json.len() as u64;
                        appended.push(rows_json);
                    }
                    _ if resp.get("kind").and_then(JVal::as_str) == Some("unknown_table") => {}
                    _ => self.e2e.fail(format!("{query}: append: {line}")),
                }
            }
            let Some((line, resp)) = self.call_ok(conn, "poll", &poll) else {
                return;
            };
            let state = resp.get("state").and_then(JVal::as_str).unwrap_or("");
            let report = report_of(&line);
            if !report.is_empty() {
                let now = Instant::now();
                let index = arrivals.len();
                arrivals.push(ms(now - t_submit));
                self.sched_wait_ms
                    .push(ms(now - last_arrival) - elapsed_ms_of(report));
                last_arrival = now;
                self.report_bytes += report.len() as u64;
                if let Some(reference) = lane_b_ref {
                    let same = reference
                        .get(index)
                        .is_some_and(|want| *want == mask_elapsed(report));
                    if !same && ok {
                        ok = false;
                        eprintln!("perfbench: {query}: report {index} differs from the solo run");
                    }
                }
                last_report = report.to_string();
                continue;
            }
            match state {
                "done" => break,
                "queued" | "running" | "draining" => {}
                other => {
                    self.e2e.fail(format!("{query}: session ended {other}"));
                    return;
                }
            }
        }
        // A run-to-completion lane B session must deliver the whole solo
        // stream; a `relative_ci` one may stop early, after a prefix.
        let complete = match lane_b_ref {
            Some(reference) if policy.is_none() => arrivals.len() == reference.len(),
            _ => !arrivals.is_empty(),
        };
        ok &= complete;
        if lane_b_ref.is_some() {
            if !ok {
                self.e2e.fail(format!("{query}: wrong answer"));
            }
        } else {
            // Lane A's answer is checked after the loop (it needs an exact
            // run over the appended rows).
            self.lane_a_runs += 1;
            self.pending.push(PendingCheck {
                query,
                appended,
                final_report: last_report,
            });
        }
    }
}

fn run_lane(ctx: &LaneCtx<'_>, lane: usize) -> Lane {
    let mut out = Lane::new();
    let mut conn = match Conn::connect(ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            out.e2e.attempted += 1;
            out.e2e.fail(format!("lane {lane}: connect: {e}"));
            return out;
        }
    };
    let mut append_cursor = 0usize;
    'outer: loop {
        if lane == 0 {
            for id in LANE_A {
                out.run_query(ctx, &mut conn, id, None, None, &mut append_cursor);
                if done(ctx) {
                    break 'outer;
                }
            }
        } else {
            for (i, (id, policy)) in LANE_B.iter().enumerate() {
                let reference = ctx.env.refs_b[i].as_slice();
                out.run_query(
                    ctx,
                    &mut conn,
                    id,
                    *policy,
                    Some(reference),
                    &mut append_cursor,
                );
                if done(ctx) {
                    break 'outer;
                }
            }
        }
    }
    out
}

fn done(ctx: &LaneCtx<'_>) -> bool {
    Instant::now() >= ctx.deadline
}

/// Check lane A's final answers against exact runs over the base rows
/// plus the appended rows that reached each session.
fn check_lane_a(env: &Env, lanes: &mut [Lane]) {
    let mut first = true;
    for lane in lanes.iter_mut() {
        let pending = std::mem::take(&mut lane.pending);
        for p in pending {
            let ok = match lane_a_expected(env, &p) {
                Ok(expected) => {
                    let expected = if env.corrupt && first {
                        corrupt_relation(&expected)
                    } else {
                        expected
                    };
                    first = false;
                    let got = wire_relation(&p.final_report, &expected);
                    got.is_some_and(|g| g.approx_eq(&to_wire_values(&expected), 1e-6))
                }
                Err(e) => {
                    eprintln!("perfbench: {}: exact run: {e}", p.query);
                    false
                }
            };
            if !ok {
                lane.e2e.fail(format!(
                    "{}: final answer != exact answer over base + {} appended batches",
                    p.query,
                    p.appended.len()
                ));
            }
        }
    }
}

fn lane_a_expected(env: &Env, p: &PendingCheck) -> Result<Relation, String> {
    let spec = query_spec(p.query);
    let (cat, reg) = env.data.for_query(&spec);
    let mut cat = cat.clone();
    let base = cat.get("sessions").map_err(|e| e.to_string())?;
    let mut rows: Vec<Row> = base.rows().to_vec();
    for rows_json in &p.appended {
        let parsed = parse(rows_json).map_err(|e| e.to_string())?;
        let rel = iolap_server::durable::rows_to_relation(&parsed, base.schema())?;
        rows.extend(rel.rows().iter().cloned());
    }
    cat.register("sessions", Relation::new(base.schema().clone(), rows));
    let pq = plan_sql(spec.sql, &cat, reg).map_err(|e| e.to_string())?;
    run_baseline_plan(&pq, &cat)
        .map(|r| r.relation)
        .map_err(|e| e.to_string())
}

/// A JSON scalar as the value a wire client sees (numbers as floats).
fn wire_value(v: &JVal) -> Value {
    match v {
        JVal::Null => Value::Null,
        JVal::Bool(b) => Value::Bool(*b),
        JVal::Str(s) => Value::Str(Arc::from(s.as_str())),
        other => other.as_f64().map_or(Value::Null, Value::Float),
    }
}

/// An exact relation passed through the wire encoding, so it compares
/// with a report's rows value for value.
fn to_wire_values(rel: &Relation) -> Relation {
    let rows = rel
        .rows()
        .iter()
        .map(|r| {
            let values = r
                .values
                .iter()
                .map(|v| parse(&value_json(v)).map_or(Value::Null, |j| wire_value(&j)))
                .collect();
            Row::with_mult(values, r.mult)
        })
        .collect();
    Relation::new(rel.schema().clone(), rows)
}

/// A report line's rows as a relation (schema borrowed from `like`).
fn wire_relation(report: &str, like: &Relation) -> Option<Relation> {
    let parsed = parse(report).ok()?;
    let JVal::Arr(rows) = parsed.get("rows")? else {
        return None;
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let JVal::Arr(cells) = row else { return None };
        out.push(cells.iter().map(wire_value).collect());
    }
    Some(Relation::from_values(like.schema().clone(), out))
}

/// Both lanes against one server for [`LEG_SECONDS`].
fn phase(env: &Env, running: &Running) -> Vec<Lane> {
    let ctx = LaneCtx {
        env,
        addr: running.addr,
        deadline: Instant::now() + Duration::from_secs_f64(LEG_SECONDS),
    };
    let mut lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|lane| {
                let ctx = &ctx;
                s.spawn(move || run_lane(ctx, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    check_lane_a(env, &mut lanes);
    lanes
}

/// Run the leg: the lanes against a tracing server, the server's own
/// counters, the durable log's size and read cost, then the
/// transport-free handler pass. Its operations and failures go into `e2e`.
pub fn leg(args: &Args, layers: &mut Layers, e2e: &mut E2e) {
    let env = Env::new(args);
    let running = start_server(&env);
    let mut lanes = phase(&env, &running);

    // Server-side counters over the lane connection protocol.
    if let Ok(mut conn) = Conn::connect(running.addr) {
        if let Ok(line) = conn.call("{\"op\":\"stats\"}") {
            if let Ok(v) = parse(&line) {
                for key in ["admitted", "rejected", "shed"] {
                    let n = v
                        .get("stats")
                        .and_then(|s| s.get(key))
                        .and_then(JVal::as_f64)
                        .unwrap_or(0.0);
                    layers.set(&format!("server.{key}"), n);
                }
            }
        }
        if let Ok(line) = conn.call("{\"op\":\"metrics\"}") {
            let records = parse(&line)
                .ok()
                .and_then(|v| {
                    v.get("exposition")
                        .and_then(JVal::as_str)
                        .map(str::to_string)
                })
                .and_then(|text| {
                    text.lines()
                        .find_map(|l| l.strip_prefix("iolap_durable_records_total "))
                        .and_then(|n| n.trim().parse::<f64>().ok())
                })
                .unwrap_or(0.0);
            layers.set("durable.records", records);
        }
    }
    let dir = running.stop();

    let log_bytes = dir_bytes(&dir);
    let user_bytes: u64 = lanes
        .iter()
        .map(|l| l.appended_bytes + l.report_bytes)
        .sum();
    let reached: u64 = lanes.iter().map(|l| l.appends_reached).sum();
    let a_runs: u64 = lanes.iter().map(|l| l.lane_a_runs).sum();
    layers.set(
        "ingest.appends_reached",
        reached as f64 / a_runs.max(1) as f64,
    );
    layers.set(
        "durable.bytes_per_user_byte",
        log_bytes as f64 / user_bytes.max(1) as f64,
    );
    let t = Instant::now();
    let mut read_ok = true;
    match iolap_server::durable::read_manifest(&dir) {
        Ok(entries) => {
            for e in entries {
                read_ok &= iolap_server::durable::read_session_log(&dir, e.id).is_ok();
            }
        }
        Err(_) => read_ok = false,
    }
    layers.set("durable.read_ms", ms(t.elapsed()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut rtt: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut parse_us, mut response_bytes, mut sched_wait) = (Vec::new(), Vec::new(), Vec::new());
    for lane in lanes.drain(..) {
        e2e.merge_failures(&lane.e2e);
        for (op, v) in lane.rtt_ms {
            rtt.entry(op).or_default().extend(v);
        }
        parse_us.extend(lane.parse_us);
        response_bytes.extend(lane.response_bytes);
        sched_wait.extend(lane.sched_wait_ms);
    }
    if !read_ok {
        e2e.attempted += 1;
        e2e.fail("durable log unreadable after the run");
    }

    let handle_us = replay_handlers(&env, e2e);
    let mut rtt_total_ms = 0.0;
    let mut handle_total_ms = 0.0;
    let mut ops = 0usize;
    for op in ["submit", "poll", "append"] {
        let r = rtt.get(op).cloned().unwrap_or_default();
        let h = handle_us.get(op).cloned().unwrap_or_default();
        layers.set(&format!("tcp.rtt_ms.{op}"), median(&r));
        layers.set(&format!("tcp.handle_us.{op}"), median(&h));
        rtt_total_ms += r.iter().sum::<f64>();
        handle_total_ms += r.len() as f64 * mean(&h) / 1e3;
        ops += r.len();
    }
    layers.set(
        "tcp.transport_wait_ms",
        (rtt_total_ms - handle_total_ms) / ops.max(1) as f64,
    );
    layers.set("wire.parse_us", median(&parse_us));
    layers.set("wire.response_bytes", mean(&response_bytes));
    layers.set("sched.wait_ms_p50", quantile(&sched_wait, 0.50));
    layers.set("sched.wait_ms_p95", quantile(&sched_wait, 0.95));
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Time `tcp::handle_request` directly (no transport) on one lane A query
/// with an append and one lane B query, against a fresh server configured
/// as in the measured phase. Returns handler times per op, µs.
fn replay_handlers(env: &Env, e2e: &mut E2e) -> BTreeMap<&'static str, Vec<f64>> {
    let dir = fresh_dir();
    let server = Server::new(server_config(&dir, false));
    let factory = env.factory(false);
    let mut sessions: BTreeMap<u64, SessionHandle> = BTreeMap::new();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut handle = |op: &'static str, line: &str| -> String {
        let t = Instant::now();
        let response = handle_request(&server, &factory, &mut sessions, line);
        times
            .entry(op)
            .or_default()
            .push(nanos(t.elapsed()) as f64 / 1e3);
        response
    };
    for (query, append) in [(LANE_A[0], true), (LANE_B[0].0, false)] {
        e2e.attempted += 1;
        let response = handle(
            "submit",
            &format!("{{\"op\":\"submit\",\"query\":\"{query}\",\"label\":\"{query}\"}}"),
        );
        let Some(session) = parse(&response)
            .ok()
            .and_then(|v| v.get("session").and_then(JVal::as_u64))
        else {
            e2e.fail(format!("{query}: direct submit: {response}"));
            continue;
        };
        let poll = format!("{{\"op\":\"poll\",\"session\":{session},\"max\":1}}");
        let start = Instant::now();
        let mut polls = 0usize;
        loop {
            std::thread::sleep(POLL_PERIOD);
            polls += 1;
            if append
                && polls.is_multiple_of(APPEND_EVERY)
                && polls / APPEND_EVERY <= APPENDS_PER_SESSION
            {
                let rows: Vec<&str> = env.append_rows[..APPEND_ROWS]
                    .iter()
                    .map(String::as_str)
                    .collect();
                handle(
                    "append",
                    &format!(
                        "{{\"op\":\"append\",\"table\":\"sessions\",\"rows\":[{}]}}",
                        rows.join(",")
                    ),
                );
            }
            let response = handle("poll", &poll);
            let finished =
                response.contains("\"state\":\"done\"") && report_of(&response).is_empty();
            if finished {
                break;
            }
            if start.elapsed() > QUERY_TIMEOUT || response.contains("\"ok\":false") {
                e2e.fail(format!("{query}: direct poll: {response}"));
                break;
            }
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    times
}
