//! Ablation (Section 5.2 discussion): cache-conscious vs cache-oblivious i-cost estimation.
//! The cache-conscious optimizer picks cache-friendly orderings for the diamond-X and symmetric
//! diamond-X queries; the oblivious variant cannot tell the orderings apart.

use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_plan::cost::CostModel;
use graphflow_plan::dp::DpOptimizer;
use graphflow_query::patterns;

fn main() {
    let db = db_for(Dataset::Amazon);
    let mut rows = Vec::new();
    let mut report = Vec::new();
    for (name, q) in [
        ("diamond-X (Q4)", patterns::diamond_x()),
        ("symmetric diamond-X (Q5)", patterns::symmetric_diamond_x()),
        ("two triangles (Q8)", patterns::benchmark_query(8)),
    ] {
        let conscious = DpOptimizer::new(&db.catalogue()).optimize(&q).unwrap();
        let oblivious = DpOptimizer::new(&db.catalogue())
            .with_cost_model(CostModel::default().cache_oblivious())
            .optimize(&q)
            .unwrap();
        let c = measure(&db, &conscious, &QueryOptions::default());
        let o = measure(&db, &oblivious, &QueryOptions::default());
        report.push(c.record(name, "amazon", "cache_conscious"));
        report.push(o.record(name, "amazon", "cache_oblivious"));
        let (tc, sc, to, so) = (c.best(), c.stats, o.best(), o.stats);
        rows.push(vec![
            name.to_string(),
            secs(tc),
            secs(to),
            sc.icost.to_string(),
            so.icost.to_string(),
            format!("{:.2}", sc.cache_hit_rate()),
            format!("{:.2}", so.cache_hit_rate()),
        ]);
    }
    print_table(
        "Ablation: cache-conscious vs cache-oblivious cost estimation (Amazon)",
        &[
            "query",
            "conscious (s)",
            "oblivious (s)",
            "i-cost c",
            "i-cost o",
            "hit rate c",
            "hit rate o",
        ],
        &rows,
    );
    println!("\nexpected shape: the cache-conscious optimizer's plans have equal or lower actual");
    println!("i-cost and higher cache hit rates; the oblivious one may pick a slower ordering.");
    bench_report("ablation_cache_conscious", &report).expect("writing bench report");
}
