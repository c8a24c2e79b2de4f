//! Plan-quality regression harness (Section 8.2): for every benchmark query that
//! `fig7_plan_spectra` measures, enumerate the plan spectrum on a seeded dataset, execute the
//! DP-chosen plan, and assert its measured runtime sits in the cheapest decile of the spectrum.
//!
//! The paper's own quality criterion — the optimizer pick is within 1.4x of the optimal plan in
//! the large majority of spectra — is kept as a noise escape hatch: micro-benchmarks at test
//! scale can reorder near-tied plans, but a pick within 1.4x of the measured best is a good
//! plan by the paper's definition even if ties push its percentile above 0.10.
//!
//! Debug builds run the same harness as a smoke test with loose thresholds (unoptimized timing
//! is not representative); CI additionally runs this file under `--release`, where the decile
//! assertion is enforced at a larger dataset scale.

use graphflow_catalog::Catalogue;
use graphflow_datasets::Dataset;
use graphflow_exec::execute;
use graphflow_graph::Graph;
use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_plan::{percentile_rank, DpOptimizer, Plan};
use graphflow_query::patterns;
use std::time::Instant;

/// The query set measured by the fig7_plan_spectra benchmark binary.
const FIG7_QUERIES: [usize; 8] = [1, 2, 3, 4, 5, 6, 8, 11];

/// Best-of-`samples` wall time for one plan, in seconds.
fn measure(graph: &Graph, plan: &Plan, samples: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let result = execute(graph, plan);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(result.count);
    }
    best
}

#[test]
fn dp_choice_lands_in_the_cheapest_decile_of_every_fig7_spectrum() {
    // Release runs enforce the decile criterion at a meaningful scale; debug runs only smoke
    // the harness (unoptimized wall times are too noisy to rank plans by).
    let (scale, samples, rank_limit, slack) = if cfg!(debug_assertions) {
        (0.05, 2, 0.50, 4.0)
    } else {
        (0.15, 3, 0.10, 1.4)
    };
    let graph = Dataset::Amazon.generate(scale);
    let cat = Catalogue::with_defaults(graph.clone());
    let optimizer = DpOptimizer::new(&cat);
    let model = *optimizer.cost_model();
    let mut failures = Vec::new();

    for j in FIG7_QUERIES {
        let q = patterns::benchmark_query(j);
        let spectrum = enumerate_spectrum(
            &q,
            &cat,
            &model,
            SpectrumLimits {
                max_plans_per_subset: 16,
                max_plans_per_class: 12,
            },
        );
        assert!(!spectrum.is_empty(), "Q{j} spectrum is empty");
        let chosen = optimizer.optimize(&q).expect("DP plans every fig7 query");
        let chosen_fp = chosen.root.fingerprint();

        // Warm the graph's adjacency pages before any timed run.
        measure(&graph, &spectrum[0].plan, 1);

        // Time the spectrum round-robin — every plan once per round, the minimum over rounds —
        // so a slow stretch of the machine lands on one sample of every plan instead of on
        // every sample of a few. The capped spectrum may not contain the exact chosen operator
        // order; it is then timed in the same rounds.
        let mut plans: Vec<&Plan> = spectrum.iter().map(|sp| &sp.plan).collect();
        let listed = plans.iter().position(|p| p.root.fingerprint() == chosen_fp);
        let chosen_at = listed.unwrap_or_else(|| {
            plans.push(&chosen);
            plans.len() - 1
        });
        let mut times = vec![f64::INFINITY; plans.len()];
        for _ in 0..samples {
            for (t, plan) in times.iter_mut().zip(&plans) {
                *t = t.min(measure(&graph, plan, 1));
            }
        }
        let chosen_time = times[chosen_at];
        times.truncate(spectrum.len());

        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let rank = percentile_rank(&times, chosen_time);
        if rank > rank_limit && chosen_time > slack * best {
            failures.push(format!(
                "Q{j}: chosen plan ranks at percentile {rank:.2} ({chosen_time:.4}s vs best \
                 {best:.4}s over {} plans)",
                times.len()
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "DP picks fell outside the cheapest decile (and outside {slack}x of optimal):\n{}",
        failures.join("\n")
    );
}

/// The skewed-graph reproducer: on unlabelled Epinions and on the LiveJournal profile, the
/// DP's pick for Q2 and Q8 must run within 1.5x of the fastest plan of fig7's spectrum. The
/// model ranks these spectra against the clock: the pick was measured 4.8x slower than the
/// best plan on LiveJournal Q2 and 2.3x slower on Epinions Q2.
#[test]
#[ignore = "ROADMAP item 1: the DP's pick on skewed graphs is up to 4.8x slower than the best"]
fn dp_choice_is_within_1_5x_of_the_best_plan_on_skewed_graphs() {
    let mut failures = Vec::new();
    for dataset in [Dataset::Epinions, Dataset::LiveJournal] {
        let graph = dataset.generate(0.1);
        let cat = Catalogue::with_defaults(graph.clone());
        let optimizer = DpOptimizer::new(&cat);
        let model = *optimizer.cost_model();
        for j in [2, 8] {
            let q = patterns::benchmark_query(j);
            let limits = SpectrumLimits {
                max_plans_per_subset: 24,
                max_plans_per_class: 24,
            };
            let spectrum = enumerate_spectrum(&q, &cat, &model, limits);
            let chosen = optimizer.optimize(&q).expect("DP plans every fig7 query");
            // Warm the graph's adjacency pages before any timed run.
            measure(&graph, &chosen, 1);
            let best = (spectrum.iter())
                .map(|sp| measure(&graph, &sp.plan, 3))
                .fold(f64::INFINITY, f64::min);
            let ratio = measure(&graph, &chosen, 3) / best;
            if ratio > 1.5 {
                failures.push(format!(
                    "{} Q{j}: the pick runs {ratio:.2}x the best of {} plans",
                    dataset.name(),
                    spectrum.len()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn dp_choice_is_the_cost_floor_of_every_fig7_spectrum() {
    // Deterministic companion to the timing test: the chosen plan's *estimated* cost is never
    // above any spectrum plan's, so a decile miss above can only be measurement noise or a
    // cost-model (not a search) deficiency.
    let graph = Dataset::Amazon.generate(0.05);
    let cat = Catalogue::with_defaults(graph);
    let optimizer = DpOptimizer::new(&cat);
    let model = *optimizer.cost_model();
    for j in FIG7_QUERIES {
        let q = patterns::benchmark_query(j);
        let chosen = optimizer.optimize(&q).expect("DP plans every fig7 query");
        for sp in enumerate_spectrum(&q, &cat, &model, SpectrumLimits::default()) {
            assert!(
                chosen.estimated_cost <= sp.plan.estimated_cost * (1.0 + 1e-9),
                "Q{j}: chosen cost {} exceeds spectrum plan cost {} ({})",
                chosen.estimated_cost,
                sp.plan.estimated_cost,
                sp.plan.root.fingerprint()
            );
        }
    }
}
