//! Table 12 (Appendix C): Graphflow vs the CFL-style backtracking matcher on random sparse and
//! dense labelled query sets (10/15/20 query vertices) over the human-like labelled graph, with
//! an output limit per query.

use graphflow_baselines::{backtracking_count, BacktrackOptions, QuerySetKind};
use graphflow_bench::*;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::human;
use std::time::Duration;

fn main() {
    let graph = human(graphflow_datasets::scale_from_env());
    let db = GraphflowDB::with_config(graph.clone(), Default::default());
    let queries_per_set = 10usize;
    let output_limit = 100_000u64;

    let mut rows = Vec::new();
    let mut report = Vec::new();
    for kind in [QuerySetKind::Sparse, QuerySetKind::Dense] {
        for n in [10usize, 15, 20] {
            let mut gf_total = Duration::ZERO;
            let mut cfl_total = Duration::ZERO;
            let mut solved = 0usize;
            let mut gf_samples = Vec::new();
            let mut cfl_samples = Vec::new();
            let mut rollup = graphflow_exec::RuntimeStats::default();
            for i in 0..queries_per_set {
                let q = graphflow_baselines::random_connected_query(
                    &graph,
                    n,
                    kind,
                    i as u64 * 31 + n as u64,
                );
                let Ok(plan) = db.plan(&q) else { continue };
                let m = measure(&db, &plan, &QueryOptions::new().limit(output_limit));
                // The baseline runs once: compare the first run with it.
                let (stats, gf_t) = (m.stats, m.samples[0]);
                let (_, cfl_t) = time(|| {
                    backtracking_count(
                        &graph,
                        &q,
                        BacktrackOptions {
                            output_limit: Some(output_limit),
                            time_limit: Some(Duration::from_secs(60)),
                        },
                    )
                });
                gf_total += gf_t;
                cfl_total += cfl_t;
                gf_samples.push(gf_t);
                cfl_samples.push(cfl_t);
                rollup.icost += stats.icost;
                rollup.intermediate_tuples += stats.intermediate_tuples;
                rollup.output_count += stats.output_count;
                solved += 1;
            }
            let set_name = format!(
                "Q{n}{}",
                if kind == QuerySetKind::Sparse {
                    "s"
                } else {
                    "d"
                }
            );
            report.push(
                BenchRecord::new(&set_name, "human", "graphflow", &gf_samples).with_stats(&rollup),
            );
            report.push(BenchRecord::new(
                &set_name,
                "human",
                "cfl_backtracking",
                &cfl_samples,
            ));
            let avg = |d: Duration| d.as_secs_f64() / solved.max(1) as f64;
            rows.push(vec![
                set_name,
                format!("{:.3}", avg(gf_total)),
                format!("{:.3}", avg(cfl_total)),
                format!("{:.1}x", avg(cfl_total) / avg(gf_total).max(1e-9)),
                solved.to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Table 12: Graphflow vs CFL-style backtracking (limit {output_limit} matches/query)"
        ),
        &[
            "query set",
            "GF avg (s)",
            "CFL avg (s)",
            "CFL/GF",
            "queries",
        ],
        &rows,
    );
    println!("\npaper shape: Graphflow's operator plans are faster on average (1.2x-12x in the");
    println!("paper), with the gap widening on larger and denser query sets.");
    bench_report("table12_cfl_comparison", &report).expect("writing bench report");
}
