//! Table 13 (Appendix D): Graphflow vs a naive binary-join engine (the Neo4j stand-in) on Q1,
//! Q2 and Q4 over the Amazon- and Epinions-like graphs.

use graphflow_baselines::{bj_engine_count, BjEngineOptions};
use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_query::patterns;
use std::time::Duration;

fn main() {
    let mut report = Vec::new();
    for ds in [Dataset::Amazon, Dataset::Epinions] {
        let db = db_for(ds);
        let mut rows = Vec::new();
        for j in [1usize, 2, 4] {
            let q = patterns::benchmark_query(j);
            let plan = db.plan(&q).unwrap();
            let m = measure(&db, &plan, &QueryOptions::default());
            report.push(m.record(format!("Q{j}"), ds.name(), "graphflow"));
            // The BJ engine runs once: compare the first run with it.
            let (count, gf_time) = (m.count, m.samples[0]);
            let (bj, bj_time) = time(|| {
                bj_engine_count(
                    &db.graph(),
                    &q,
                    BjEngineOptions {
                        time_limit: Some(Duration::from_secs(120)),
                        ..Default::default()
                    },
                )
            });
            if bj.count().is_some() {
                report.push(BenchRecord::new(
                    format!("Q{j}"),
                    ds.name(),
                    "bj_engine",
                    &[bj_time],
                ));
            }
            let bj_cell = match bj.count() {
                Some(c) => {
                    assert_eq!(c, count, "engines disagree on Q{j}");
                    format!(
                        "{} ({}x)",
                        secs(bj_time),
                        (bj_time.as_secs_f64() / gf_time.as_secs_f64().max(1e-9)).round()
                    )
                }
                None => "TL/Mm".to_string(),
            };
            rows.push(vec![
                format!("Q{j}"),
                secs(gf_time),
                bj_cell,
                count.to_string(),
            ]);
        }
        print_table(
            &format!("Table 13: Graphflow vs binary-join engine on {}", ds.name()),
            &["query", "GF (s)", "BJ engine (s)", "output"],
            &rows,
        );
    }
    println!("\npaper shape: the BJ-only engine is orders of magnitude slower (or times out) on");
    println!("cyclic queries because it materialises open structures before closing them.");
    bench_report("table13_bj_engine", &report).expect("writing bench report");
}
