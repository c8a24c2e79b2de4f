//! Figure 9: EmptyHeaded plan spectra (every min-width GHD x every bag ordering) next to
//! Graphflow's spectrum, for Q3, Q7 and Q8.

use graphflow_baselines::ghd::GhdPlanner;
use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_query::patterns;

fn main() {
    let cases = [
        (3usize, Dataset::Amazon),
        (7usize, Dataset::Epinions),
        (8usize, Dataset::Amazon),
    ];
    let mut report = Vec::new();
    for (j, ds) in cases {
        let db = db_for(ds);
        let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
        let q = patterns::benchmark_query(j);

        let gf_spectrum = enumerate_spectrum(
            &q,
            &db.catalogue(),
            &model,
            SpectrumLimits {
                max_plans_per_subset: 16,
                max_plans_per_class: 16,
            },
        );
        let gf_times: Vec<f64> = gf_spectrum
            .iter()
            .enumerate()
            .map(|(i, sp)| {
                let (_, stats, t) = run_plan(&db, &sp.plan, QueryOptions::default());
                report.push(
                    BenchRecord::new(
                        format!("Q{j}"),
                        ds.name(),
                        format!("GF {}#{i}", sp.class),
                        &[t],
                    )
                    .with_stats(&stats),
                );
                t.as_secs_f64()
            })
            .collect();

        let catalogue = db.catalogue();
        let eh_planner = GhdPlanner::new(&catalogue);
        let eh_plans = eh_planner.spectrum(&q);
        let eh_times: Vec<f64> = eh_plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (_, stats, t) = run_plan(&db, p, QueryOptions::default());
                report.push(
                    BenchRecord::new(format!("Q{j}"), ds.name(), format!("EH#{i}"), &[t])
                        .with_stats(&stats),
                );
                t.as_secs_f64()
            })
            .collect();

        let stats = |ts: &[f64]| {
            if ts.is_empty() {
                return ("-".to_string(), "-".to_string());
            }
            let best = ts.iter().cloned().fold(f64::INFINITY, f64::min);
            let worst = ts.iter().cloned().fold(0.0, f64::max);
            (format!("{best:.3}"), format!("{worst:.3}"))
        };
        let (gf_best, gf_worst) = stats(&gf_times);
        let (eh_best, eh_worst) = stats(&eh_times);
        print_table(
            &format!("Figure 9: Q{j} on {}", ds.name()),
            &["system", "plans", "best (s)", "worst (s)"],
            &[
                vec![
                    "Graphflow".into(),
                    gf_times.len().to_string(),
                    gf_best,
                    gf_worst,
                ],
                vec![
                    "EmptyHeaded".into(),
                    eh_times.len().to_string(),
                    eh_best,
                    eh_worst,
                ],
            ],
        );
    }
    println!("\npaper shape: Graphflow's spectrum contains plans at least as good as the best EH");
    println!("plan, and EH's spread between its best and worst orderings is large (it does not");
    println!("optimize the ordering inside a bag).");
    bench_report("fig9_eh_spectra", &report).expect("writing bench report");
}
