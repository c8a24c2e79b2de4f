//! Table 9: Graphflow (our optimizer's plan) vs EmptyHeaded with good orderings (EH-g) and bad
//! orderings (EH-b) across benchmark queries, unlabelled and with 2 random edge labels.

use graphflow_baselines::ghd::{GhdPlanner, OrderingPolicy};
use graphflow_bench::*;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::Dataset;
use graphflow_query::patterns;

fn run_cell(
    db: &GraphflowDB,
    q: &graphflow_query::QueryGraph,
    query_name: &str,
    ds_name: &str,
    report: &mut Vec<BenchRecord>,
) -> (String, String, String) {
    let catalogue = db.catalogue();
    let planner = GhdPlanner::new(&catalogue);
    let mut measure = |plan: Option<graphflow_plan::Plan>, label: &str| {
        let (stats, t) = match plan {
            Some(p) => {
                let (_, stats, t) = run_plan(db, &p, QueryOptions::default());
                (stats, t)
            }
            None => return None,
        };
        report.push(BenchRecord::new(query_name, ds_name, label, &[t]).with_stats(&stats));
        Some(t)
    };
    let gf = measure(db.plan(q).ok(), "graphflow");
    let ehg = measure(planner.plan(q, OrderingPolicy::BestCost), "eh_good");
    let ehb = measure(planner.plan(q, OrderingPolicy::WorstCost), "eh_bad");
    let fmt = |x: Option<std::time::Duration>| x.map(secs).unwrap_or_else(|| "-".into());
    (fmt(ehb), fmt(ehg), fmt(gf))
}

fn main() {
    let queries: Vec<usize> = vec![1, 3, 5, 7, 8, 9, 12, 13];
    let mut report = Vec::new();
    for ds in [Dataset::Amazon, Dataset::Google, Dataset::Epinions] {
        let graph = dataset(ds);
        let mut rows = Vec::new();
        for &j in &queries {
            let q = patterns::benchmark_query(j);
            // Unlabelled.
            let db = GraphflowDB::with_config(graph.clone(), Default::default());
            let (b, g, gf) = run_cell(&db, &q, &format!("Q{j}"), ds.name(), &mut report);
            rows.push(vec![format!("Q{j}"), b, g, gf]);
            // Two random edge labels (paper's Q^J_2 protocol).
            let labelled = graphflow_datasets::with_random_edge_labels(&graph, 2, 7);
            let db2 = GraphflowDB::with_config(labelled, Default::default());
            let q2 = patterns::label_query_edges_randomly(&q, 2, 7);
            let (b2, g2, gf2) = run_cell(&db2, &q2, &format!("Q{j}^2"), ds.name(), &mut report);
            rows.push(vec![format!("Q{j}^2"), b2, g2, gf2]);
        }
        print_table(
            &format!(
                "Table 9: EH-b / EH-g / Graphflow runtimes (s) on {}",
                ds.name()
            ),
            &["query", "EH-b", "EH-g", "GF"],
            &rows,
        );
    }
    println!("\npaper shape: GF beats EH-b everywhere (up to 68x in the paper); EH-g is always");
    println!("faster than EH-b (good orderings transfer); on small queries EH-g can edge out GF.");
    bench_report("table9_eh_comparison", &report).expect("writing bench report");
}
