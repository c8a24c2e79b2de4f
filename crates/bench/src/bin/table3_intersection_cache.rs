//! Table 3: utility of the intersection cache — runtime of every WCO plan (QVO) of the
//! diamond-X query on the Amazon-like graph, with the E/I cache enabled and disabled.

use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_plan::wco::wco_plan_for_ordering;
use graphflow_query::patterns;

fn main() {
    let db = db_for(Dataset::Amazon);
    let q = patterns::diamond_x();
    let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
    let mut rows = Vec::new();
    let mut report = Vec::new();
    for sigma in executable_orderings(&q) {
        let plan = wco_plan_for_ordering(&q, &db.catalogue(), &model, &sigma).unwrap();
        let on = measure(&db, &plan, &QueryOptions::default());
        let off = measure(&db, &plan, &QueryOptions::new().intersection_cache(false));
        let name = ordering_name(&q, &sigma);
        report.push(on.record("diamond_x", "amazon", format!("{name} cache_on")));
        report.push(off.record("diamond_x", "amazon", format!("{name} cache_off")));
        let (t_on, s_on, t_off, s_off) = (on.best(), on.stats, off.best(), off.stats);
        rows.push(vec![
            ordering_name(&q, &sigma),
            secs(t_on),
            secs(t_off),
            format!("{:.2}", s_on.cache_hit_rate()),
            s_on.icost.to_string(),
            s_off.icost.to_string(),
        ]);
    }
    rows.sort_by(|a, b| a[1].partial_cmp(&b[1]).unwrap());
    print_table(
        "Table 3: diamond-X WCO plans on Amazon, intersection cache on vs off",
        &[
            "QVO",
            "cache on (s)",
            "cache off (s)",
            "hit rate",
            "i-cost on",
            "i-cost off",
        ],
        &rows,
    );
    println!("\npaper shape: 4 of the 8 plans improve with the cache, the best by ~1.9x.");
    bench_report("table3_intersection_cache", &report).expect("writing bench report");
}
