//! Continuous ingest: rows appended to a running driver are part of the
//! final answer, wherever in the stream they land — before the first
//! batch, mid-stream, just before the last base batch, or after the base
//! stream is fully consumed (Theorem 1 over base + appended rows).

use iolap_baselines::run_baseline_plan;
use iolap_core::{IolapConfig, IolapDriver};
use iolap_engine::plan_sql;
use iolap_relation::{Catalog, Relation};
use iolap_workloads::{conviva_query, conviva_registry, conviva_sessions};

const BATCHES: usize = 20;

#[test]
fn appended_rows_reach_the_final_answer_at_every_stream_position() {
    for seed in 1..=3 {
        check_appends(seed);
    }
}

fn check_appends(seed: u64) {
    let base = conviva_sessions(2_400, seed);
    let extra = conviva_sessions(120, seed + 100);
    let mut cat = Catalog::new();
    cat.register("sessions", base.clone());
    let mut grown = base.rows().to_vec();
    grown.extend(extra.rows().iter().cloned());
    let mut exact_cat = Catalog::new();
    exact_cat.register("sessions", Relation::new(base.schema().clone(), grown));
    let registry = conviva_registry();

    for id in ["C1", "C2", "C3", "SBI"] {
        let q = conviva_query(id).unwrap();
        let pq = plan_sql(q.sql, &cat, &registry).unwrap();
        let exact = run_baseline_plan(&pq, &exact_cat).unwrap().relation;
        for after in [0, 10, BATCHES - 1, BATCHES] {
            let cfg = IolapConfig::with_batches(BATCHES).trials(25).seed(seed);
            let mut driver = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
            for _ in 0..after {
                driver.step().unwrap().unwrap();
            }
            assert_eq!(driver.append_rows(extra.clone()).unwrap(), BATCHES);
            let reports = driver.run_to_completion().unwrap();
            assert_eq!(
                reports.len(),
                BATCHES + 1 - after,
                "{id} seed {seed} after {after}"
            );
            let last = &reports.last().unwrap().result.relation;
            assert!(
                last.approx_eq(&exact, 1e-6),
                "{id} seed {seed}: append after {after} batches\n== iOLAP ==\n{last}== exact ==\n{exact}"
            );
        }
    }
}
