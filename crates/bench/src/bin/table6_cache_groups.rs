//! Table 6: symmetric diamond-X — two groups of QVOs perform exactly the same intersections but
//! differ in intersection-cache utilisation (a2a3a1a4 reuses the cache, a1a2a3a4 does not).

use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_plan::wco::wco_plan_for_ordering;
use graphflow_query::patterns;

fn main() {
    let q = patterns::symmetric_diamond_x();
    let mut report = Vec::new();
    for ds in [Dataset::Amazon, Dataset::Epinions] {
        let db = db_for(ds);
        let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
        let mut rows = Vec::new();
        for sigma in [vec![1, 2, 0, 3], vec![0, 1, 2, 3]] {
            let Some(plan) = wco_plan_for_ordering(&q, &db.catalogue(), &model, &sigma) else {
                continue;
            };
            let m = measure(&db, &plan, &QueryOptions::default());
            report.push(m.record("symmetric_diamond_x", ds.name(), ordering_name(&q, &sigma)));
            let (t, count, stats) = (m.best(), m.count, m.stats);
            rows.push(vec![
                ordering_name(&q, &sigma),
                secs(t),
                stats.intermediate_tuples.to_string(),
                stats.icost.to_string(),
                format!("{:.2}", stats.cache_hit_rate()),
                count.to_string(),
            ]);
        }
        print_table(
            &format!("Table 6: symmetric diamond-X QVO groups on {}", ds.name()),
            &[
                "QVO",
                "time (s)",
                "part. matches",
                "i-cost",
                "hit rate",
                "output",
            ],
            &rows,
        );
    }
    println!("\npaper shape: both orderings produce the same partial matches, but a2a3a1a4 reuses");
    println!("the intersection cache and has several times lower i-cost and runtime.");
    bench_report("table6_cache_groups", &report).expect("writing bench report");
}
