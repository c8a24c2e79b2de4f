//! Figure 7 (and the Section 8.2 summary): plan spectra — the runtime of every plan in the plan
//! space of each benchmark query, with the plan our optimizer picks marked. Also prints, per
//! spectrum, the Spearman rank correlation between estimated cost and wall time, and the
//! "within 1.4x / 2x of optimal" summary and the median correlation across all spectra.

use graphflow_bench::*;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::Dataset;
use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_query::patterns;

fn main() {
    // Amazon unlabelled, Epinions with 3 labels, Google with 5 labels (as in the paper), over
    // the smaller queries so the default run finishes quickly; raise GF_SCALE for bigger runs.
    let configs = [
        (Dataset::Amazon, 1u16),
        (Dataset::Epinions, 3u16),
        (Dataset::Google, 5u16),
    ];
    let queries = [1usize, 2, 3, 4, 5, 6, 8, 11];
    let mut summary: Vec<f64> = Vec::new();
    let mut correlations: Vec<f64> = Vec::new();
    let mut report = Vec::new();
    for (ds, labels) in configs {
        let graph = if labels > 1 {
            graphflow_datasets::with_random_edge_labels(&dataset(ds), labels, 5)
        } else {
            dataset(ds)
        };
        let db = GraphflowDB::with_config(graph, Default::default());
        let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
        for &j in &queries {
            let mut q = patterns::benchmark_query(j);
            if labels > 1 {
                q = patterns::label_query_edges_randomly(&q, labels, j as u64);
            }
            let spectrum = enumerate_spectrum(
                &q,
                &db.catalogue(),
                &model,
                SpectrumLimits {
                    max_plans_per_subset: 24,
                    max_plans_per_class: 24,
                },
            );
            let chosen = db.plan(&q).unwrap();
            let chosen_fp = chosen.root.fingerprint();
            let query_name = format!(
                "Q{j}{}",
                if labels > 1 {
                    format!("^{labels}")
                } else {
                    String::new()
                }
            );
            let mut rows = Vec::new();
            let mut best = f64::INFINITY;
            let mut worst: f64 = 0.0;
            let mut chosen_samples = None;
            let mut times = Vec::with_capacity(spectrum.len());
            for (sp_i, sp) in spectrum.iter().enumerate() {
                let m = measure(&db, &sp.plan, &QueryOptions::default());
                report.push(
                    m.record(&query_name, ds.name(), format!("{}#{sp_i}", sp.class))
                        .with_estimated_cost(sp.plan.estimated_cost),
                );
                let t = m.best().as_secs_f64();
                times.push(t);
                best = best.min(t);
                worst = worst.max(t);
                let marker = if sp.plan.root.fingerprint() == chosen_fp {
                    "  <== optimizer pick"
                } else {
                    ""
                };
                if sp.plan.root.fingerprint() == chosen_fp {
                    chosen_samples = Some(m.samples);
                }
                rows.push(vec![format!("{}", sp.class), format!("{t:.3}{marker}")]);
            }
            // The optimizer's plan may use an operator order not present in the capped spectrum;
            // measure it directly in that case.
            let chosen_samples = chosen_samples
                .unwrap_or_else(|| measure(&db, &chosen, &QueryOptions::default()).samples);
            let chosen_time = chosen_samples.iter().min().unwrap().as_secs_f64();
            report.push(
                BenchRecord::new(&query_name, ds.name(), "optimizer_pick", &chosen_samples)
                    .with_estimated_cost(chosen.estimated_cost),
            );
            rows.sort();
            print_table(
                &format!(
                    "Figure 7: Q{j}{} on {} — {} plans, best {:.3}s, worst {:.3}s, picked {:.3}s",
                    if labels > 1 {
                        format!("^{labels}")
                    } else {
                        String::new()
                    },
                    ds.name(),
                    spectrum.len(),
                    best,
                    worst,
                    chosen_time
                ),
                &["class", "time (s)"],
                &rows,
            );
            summary.push(chosen_time / best.max(1e-9));
            let costs: Vec<f64> = spectrum.iter().map(|sp| sp.plan.estimated_cost).collect();
            let rho = spearman(&costs, &times);
            println!(
                "{query_name} on {}: Spearman rho(estimated cost, time) = {rho:.2}",
                ds.name()
            );
            if rho.is_finite() {
                correlations.push(rho);
            }
        }
    }
    let within = |x: f64| summary.iter().filter(|&&r| r <= x).count();
    println!(
        "\n=== Section 8.2 summary over {} spectra ===",
        summary.len()
    );
    println!("optimizer pick optimal        : {}", within(1.001));
    println!("within 1.4x of optimal        : {}", within(1.4));
    println!("within 2x of optimal          : {}", within(2.0));
    println!("paper shape: optimal in 15/31 spectra, within 1.4x in 21, within 2x in 28.");
    correlations.sort_by(f64::total_cmp);
    if let Some(median) = correlations.get(correlations.len() / 2) {
        println!(
            "median Spearman rho(estimated cost, time) over {} spectra: {median:.2}",
            correlations.len()
        );
    }
    bench_report("fig7_plan_spectra", &report).expect("writing bench report");
}

/// Spearman's rank correlation of two equally long samples: the Pearson correlation of their
/// ranks, tied values sharing their mean rank. NaN when either sample has no spread.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut ranks = vec![0.0; v.len()];
        let mut lo = 0;
        while lo < order.len() {
            let hi = lo + order[lo..].partition_point(|&k| v[k] == v[order[lo]]);
            for &k in &order[lo..hi] {
                ranks[k] = (lo + hi - 1) as f64 / 2.0;
            }
            lo = hi;
        }
        ranks
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    // Ties keep the mean rank at (n - 1) / 2.
    let mean = (xs.len() as f64 - 1.0) / 2.0;
    let cov: f64 = rx
        .iter()
        .zip(&ry)
        .map(|(a, b)| (a - mean) * (b - mean))
        .sum();
    let var = |r: &[f64]| r.iter().map(|a| (a - mean).powi(2)).sum::<f64>();
    cov / (var(&rx) * var(&ry)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::spearman;

    #[test]
    fn spearman_ranks_and_shares_ties() {
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 90.0]), 1.0);
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), -1.0);
        // Ranks (0.5, 0.5, 2) against (0, 1, 2): covariance 1.5, variances 1.5 and 2.
        let rho = spearman(&[5.0, 5.0, 7.0], &[1.0, 2.0, 3.0]);
        assert!((rho - 1.5 / (1.5f64 * 2.0).sqrt()).abs() < 1e-12);
        assert!(spearman(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
    }
}
