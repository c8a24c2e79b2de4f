//! Table 5: QVOs of the tailed-triangle query (EDGE-TRIANGLE vs EDGE-2PATH plans) on Amazon and
//! Epinions, intersection cache disabled — differences come from intermediate result sizes.

use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_plan::wco::wco_plan_for_ordering;
use graphflow_query::patterns;

fn main() {
    let q = patterns::tailed_triangle();
    // The five orderings reported by the paper: three EDGE-TRIANGLE, two EDGE-2PATH.
    let orderings = [
        vec![0, 1, 2, 3],
        vec![0, 2, 1, 3],
        vec![1, 2, 0, 3],
        vec![0, 1, 3, 2],
        vec![1, 3, 0, 2],
    ];
    let mut report = Vec::new();
    for ds in [Dataset::Amazon, Dataset::Epinions] {
        let db = db_for(ds);
        let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
        let mut rows = Vec::new();
        for sigma in &orderings {
            let Some(plan) = wco_plan_for_ordering(&q, &db.catalogue(), &model, sigma) else {
                continue;
            };
            let m = measure(&db, &plan, &QueryOptions::new().intersection_cache(false));
            report.push(m.record("tailed_triangle", ds.name(), ordering_name(&q, sigma)));
            let (t, count, stats) = (m.best(), m.count, m.stats);
            let kind = if sigma[2] == 2 || (sigma[2] != 3 && sigma[3] == 3) {
                "EDGE-TRIANGLE"
            } else {
                "EDGE-2PATH"
            };
            rows.push(vec![
                ordering_name(&q, sigma),
                kind.to_string(),
                secs(t),
                stats.intermediate_tuples.to_string(),
                stats.icost.to_string(),
                count.to_string(),
            ]);
        }
        print_table(
            &format!("Table 5: tailed-triangle QVOs on {} (cache off)", ds.name()),
            &[
                "QVO",
                "class",
                "time (s)",
                "part. matches",
                "i-cost",
                "output",
            ],
            &rows,
        );
    }
    println!("\npaper shape: EDGE-TRIANGLE plans (extend edges to triangles first) generate fewer");
    println!("intermediate matches and are several times faster than EDGE-2PATH plans.");
    bench_report("table5_tailed_triangle", &report).expect("writing bench report");
}
