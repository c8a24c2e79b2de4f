//! Figure 8: adaptive vs fixed plan spectra — every WCO plan of Q2-Q6 run with its fixed
//! ordering, with adaptive per-tuple ordering selection, and adaptive on two threads. Every
//! record holds `GF_SAMPLES` samples; the tables and ratios use each configuration's best.
//! Per spectrum it also prints Σ adaptive ÷ Σ fixed over the orderings and the optimizer
//! pick's adaptive ÷ fixed.

use graphflow_bench::*;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::Dataset;
use graphflow_exec::RuntimeStats;
use graphflow_plan::wco::wco_plan_for_ordering;
use graphflow_plan::Plan;
use graphflow_query::patterns;
use std::time::Duration;

/// Run `plan` `sample_count()` times: the stats of one run, every sample, and the best one in
/// seconds.
fn measure(
    db: &GraphflowDB,
    plan: &Plan,
    options: &QueryOptions,
) -> (RuntimeStats, Vec<Duration>, f64) {
    let mut stats = RuntimeStats::default();
    let samples: Vec<Duration> = (0..sample_count())
        .map(|_| {
            let (_, s, t) = run_plan(db, plan, options.clone());
            stats = s;
            t
        })
        .collect();
    let best = samples.iter().min().copied().unwrap_or_default();
    (stats, samples, best.as_secs_f64())
}

fn main() {
    let datasets = [Dataset::Amazon, Dataset::Epinions, Dataset::Google];
    let queries = [2usize, 3, 4, 5, 6];
    let configs = [
        ("fixed", QueryOptions::default()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("adaptive x2", QueryOptions::new().adaptive(true).threads(2)),
    ];
    let mut report = Vec::new();
    for ds in datasets {
        let db = db_for(ds);
        let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
        for &j in &queries {
            let q = patterns::benchmark_query(j);
            let mut rows = Vec::new();
            // Per configuration: best, worst and sum of the per-ordering best times.
            let mut spread = [(f64::INFINITY, 0.0f64, 0.0f64); 3];
            for sigma in executable_orderings(&q) {
                let Some(plan) = wco_plan_for_ordering(&q, &db.catalogue(), &model, &sigma) else {
                    continue;
                };
                let name = ordering_name(&q, &sigma);
                let mut best = [0.0; 3];
                for (c, (config, options)) in configs.iter().enumerate() {
                    let (stats, samples, t) = measure(&db, &plan, options);
                    report.push(
                        BenchRecord::new(
                            format!("Q{j}"),
                            ds.name(),
                            format!("{name} {config}"),
                            &samples,
                        )
                        .with_stats(&stats),
                    );
                    best[c] = t;
                    let (lo, hi, sum) = &mut spread[c];
                    *lo = lo.min(t);
                    *hi = hi.max(t);
                    *sum += t;
                }
                let [tf, ta, ta2] = best;
                rows.push(vec![
                    name,
                    format!("{tf:.3}"),
                    format!("{ta:.3}"),
                    format!("{ta2:.3}"),
                    format!("{:.2}x", tf / ta.max(1e-9)),
                ]);
            }
            let [fixed, adaptive, _] = spread;
            print_table(
                &format!(
                    "Figure 8: Q{j} on {} — fixed spread {:.1}x, adaptive spread {:.1}x",
                    ds.name(),
                    fixed.1 / fixed.0.max(1e-9),
                    adaptive.1 / adaptive.0.max(1e-9)
                ),
                &[
                    "QVO",
                    "fixed (s)",
                    "adaptive (s)",
                    "adaptive x2 (s)",
                    "improvement",
                ],
                &rows,
            );
            let pick = db.plan(&q).expect("benchmark queries plan");
            let (_, _, pick_fixed) = measure(&db, &pick, &configs[0].1);
            let (_, _, pick_adaptive) = measure(&db, &pick, &configs[1].1);
            println!(
                "Q{j} on {}: sum adaptive / sum fixed = {:.2}, optimizer pick adaptive / fixed = {:.2}",
                ds.name(),
                adaptive.2 / fixed.2.max(1e-9),
                pick_adaptive / pick_fixed.max(1e-9)
            );
        }
    }
    println!("\npaper shape: adapting improves most fixed plans (up to 4.3x for one Q5 plan) and");
    println!("shrinks the gap between the best and worst orderings; on cliques (Q6) the");
    println!("re-costing overhead can make some plans slightly slower.");
    bench_report("fig8_adaptive_spectra", &report).expect("writing bench report");
}
