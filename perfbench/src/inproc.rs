//! In-process query runs: the analyst loop shared by `olap-flat`,
//! `olap-nested` and the shard leg. One run is a paired batch run
//! (`plan_sql` → `run_baseline_plan`), then `plan_sql` →
//! `IolapDriver::from_plan` → `IolapDriver::step` until the stream is
//! consumed, with every answer checked.

use crate::common::{engine_config, ms, E2e, EngineCounters, Spans, CONVIVA_ROWS, TPCH_SF};
use iolap_baselines::run_baseline_plan;
use iolap_core::{IolapDriver, ShardExec};
use iolap_engine::{plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, Relation, Row, Value};
use iolap_workloads::{conviva_query, tpch_query, QuerySpec};
use std::sync::Arc;
use std::time::Instant;

/// The generated inputs of one run.
pub struct Data {
    /// TPC-H-lite tables (empty when the workload needs none).
    pub tpch: Catalog,
    /// The Conviva `sessions` table (empty when the workload needs none).
    pub conviva: Catalog,
    tpch_reg: FunctionRegistry,
    conviva_reg: FunctionRegistry,
    /// Time spent generating the tables.
    pub gen_ms: f64,
}

impl Data {
    /// Generate the tables the `ids` need from `seed`.
    pub fn generate(seed: u64, ids: &[&str]) -> Data {
        let start = Instant::now();
        let tpch = if ids.iter().any(|id| is_tpch(id)) {
            iolap_workloads::tpch_catalog(TPCH_SF, seed)
        } else {
            Catalog::new()
        };
        let conviva = if ids.iter().any(|id| !is_tpch(id)) {
            iolap_workloads::conviva_catalog(CONVIVA_ROWS, seed)
        } else {
            Catalog::new()
        };
        Data {
            tpch,
            conviva,
            tpch_reg: FunctionRegistry::with_builtins(),
            conviva_reg: iolap_workloads::conviva_registry(),
            gen_ms: ms(start.elapsed()),
        }
    }

    /// Catalog and function registry a query runs against.
    pub fn for_query(&self, spec: &QuerySpec) -> (&Catalog, &FunctionRegistry) {
        if is_tpch(spec.id) {
            (&self.tpch, &self.tpch_reg)
        } else {
            (&self.conviva, &self.conviva_reg)
        }
    }
}

/// TPC-H query ids start with `Q`; Conviva ids are `C*` and `SBI`.
pub fn is_tpch(id: &str) -> bool {
    id.starts_with('Q')
}

/// A built-in query by id.
pub fn query_spec(id: &str) -> QuerySpec {
    tpch_query(id)
        .or_else(|| conviva_query(id))
        .unwrap_or_else(|| panic!("unknown built-in query {id}"))
}

/// How a run's answers are checked.
pub enum Check {
    /// Theorem 1: the final report equals the exact answer (`1e-6`).
    Exact {
        /// The `run_baseline_plan` answer.
        answer: Relation,
        /// Its run time, ms.
        exact_ms: f64,
    },
    /// Every report is byte-identical (report canon) to the in-process
    /// run of the same query and seed, batch by batch.
    Canon(Vec<String>),
}

/// One prepared query of a workload.
pub struct Prepared {
    /// The query.
    pub spec: QuerySpec,
    /// Its answer check.
    pub check: Check,
}

/// Plan `id` and compute its exact answer.
pub fn prepare_exact(data: &Data, id: &str) -> Prepared {
    let spec = query_spec(id);
    let (cat, reg) = data.for_query(&spec);
    let pq = plan_sql(spec.sql, cat, reg).unwrap_or_else(|e| panic!("{id}: plan: {e}"));
    let exact = run_baseline_plan(&pq, cat).unwrap_or_else(|e| panic!("{id}: exact: {e}"));
    Prepared {
        spec,
        check: Check::Exact {
            answer: exact.relation,
            exact_ms: ms(exact.elapsed),
        },
    }
}

/// Perturb one cell of an exact answer beyond the `1e-6` tolerance (the
/// benchmark's self-test of its own checks).
pub fn corrupt_relation(rel: &Relation) -> Relation {
    let mut rows: Vec<Row> = rel.rows().to_vec();
    'rows: for row in rows.iter_mut() {
        let mut values = row.values.to_vec();
        for v in values.iter_mut() {
            let bumped = match v {
                Value::Float(f) => Value::Float(*f * 1.001 + 1.0),
                Value::Int(i) => Value::Int(i.wrapping_add(1)),
                _ => continue,
            };
            *v = bumped;
            *row = Row::with_mult(values, row.mult);
            break 'rows;
        }
    }
    Relation::new(rel.schema().clone(), rows)
}

/// Per-run context of the in-process loop.
pub struct RunCtx<'a> {
    /// Generated inputs.
    pub data: &'a Data,
    /// Workload seed.
    pub seed: u64,
    /// Shard pool attached to every driver (the shard leg).
    pub pool: Option<Arc<dyn ShardExec>>,
}

/// Samples only a traced query run records.
#[derive(Default)]
pub struct TracedSamples {
    /// `plan_sql` times, µs.
    pub plan_us: Vec<f64>,
    /// `IolapDriver::from_plan` times, ms.
    pub build_ms: Vec<f64>,
    /// Engine counters.
    pub counters: EngineCounters,
}

/// The paired batch run: submit → exact answer with the batch engine,
/// checked against the reference answer when there is one. Returns its
/// time, ms, or `None` when it failed (counted).
fn batch_run(ctx: &RunCtx<'_>, q: &Prepared, e2e: &mut E2e) -> Option<f64> {
    let id = q.spec.id;
    let (cat, reg) = ctx.data.for_query(&q.spec);
    let t0 = Instant::now();
    let answer = plan_sql(q.spec.sql, cat, reg)
        .map_err(|e| e.to_string())
        .and_then(|pq| run_baseline_plan(&pq, cat).map_err(|e| e.to_string()));
    let batch_ms = ms(t0.elapsed());
    match (answer, &q.check) {
        (Err(e), _) => {
            e2e.fail(format!("{id}: batch run: {e}"));
            None
        }
        (Ok(r), Check::Exact { answer, .. }) if !r.relation.approx_eq(answer, 1e-6) => {
            e2e.fail(format!("{id}: batch answer != exact answer"));
            None
        }
        (Ok(_), _) => Some(batch_ms),
    }
}

/// Run one query to completion, after its paired batch run, and check
/// both. `traced` turns on the engine journal and records spans into
/// `spans`.
pub fn run_query(
    ctx: &RunCtx<'_>,
    q: &Prepared,
    traced: Option<(&mut Spans, &mut TracedSamples)>,
    e2e: &mut E2e,
) {
    let id = q.spec.id;
    e2e.attempted += 1;
    let Some(batch_ms) = batch_run(ctx, q, e2e) else {
        return;
    };
    let (cat, reg) = ctx.data.for_query(&q.spec);
    let t0 = Instant::now();
    let pq = match plan_sql(q.spec.sql, cat, reg) {
        Ok(pq) => pq,
        Err(e) => {
            e2e.fail(format!("{id}: plan: {e}"));
            return;
        }
    };
    let t1 = Instant::now();
    let config = engine_config(ctx.seed, traced.is_some());
    let mut driver = match IolapDriver::from_plan(&pq, cat, q.spec.stream_table, config) {
        Ok(d) => d,
        Err(e) => {
            e2e.fail(format!("{id}: from_plan: {e}"));
            return;
        }
    };
    if let Some(pool) = &ctx.pool {
        driver.set_shard_exec(Arc::clone(pool));
    }
    let t2 = Instant::now();
    let mut traced = traced;
    if let Some((spans, samples)) = traced.as_mut() {
        spans.next_run();
        spans.span("self.bench.plan_ms", t0, t1, 0);
        spans.span("self.bench.build_ms", t1, t2, 0);
        samples.plan_us.push((t1 - t0).as_secs_f64() * 1e6);
        samples.build_ms.push(ms(t2 - t1));
    }

    let mut arrivals = Vec::new();
    let mut ok = true;
    let mut last = None;
    loop {
        let s = Instant::now();
        let step = driver.step();
        let e = Instant::now();
        let report = match step {
            None => break,
            Some(Err(err)) => {
                e2e.fail(format!("{id}: batch {}: {err}", arrivals.len()));
                return;
            }
            Some(Ok(r)) => r,
        };
        arrivals.push(ms(e - t0));
        if let Some((spans, samples)) = traced.as_mut() {
            let child = spans.engine(&report.self_time_ns);
            spans.span("self.bench.step_ms", s, e, child);
            samples.counters.batch(&report, ms(e - s));
        }
        if let Check::Canon(reference) = &q.check {
            let c0 = Instant::now();
            let same = reference
                .get(report.batch)
                .is_some_and(|want| *want == crate::common::report_canon(&report));
            if !same && ok {
                ok = false;
                eprintln!(
                    "perfbench: {id}: batch {} differs from the in-process run",
                    report.batch
                );
            }
            if let Some((spans, _)) = traced.as_mut() {
                spans.span("self.bench.check_ms", c0, Instant::now(), 0);
            }
        }
        last = Some(report);
    }
    let c0 = Instant::now();
    match (&q.check, &last) {
        (_, None) => ok = false,
        (Check::Exact { answer, .. }, Some(r)) => {
            if !r.result.relation.approx_eq(answer, 1e-6) {
                ok = false;
                eprintln!("perfbench: {id}: final report != exact answer");
            }
        }
        (Check::Canon(reference), Some(_)) => {
            if arrivals.len() != reference.len() {
                ok = false;
                eprintln!(
                    "perfbench: {id}: {} reports, want {}",
                    arrivals.len(),
                    reference.len()
                );
            }
        }
    }
    let c1 = Instant::now();
    if let Some((spans, samples)) = traced.as_mut() {
        spans.span("self.bench.check_ms", c0, c1, 0);
        spans.wall(t0, c1);
        samples.counters.runs += 1;
    }
    if ok {
        e2e.verified += 1;
        e2e.record_run(id, batch_ms, &arrivals);
    } else {
        e2e.fail(format!("{id}: wrong answer"));
    }
}
