//! Filter-aware vs. filter-blind plan choice on a predicate-laden query.
//!
//! The scenario: a tailed triangle whose tail vertex carries an equality predicate over a
//! uniformly-distributed property (`age = 7` over ten values, so the true selectivity matches
//! the estimator's 0.1 for equality). A filter-aware optimizer starts the plan near the
//! filtered vertex so every intermediate result is pre-shrunk; a filter-blind one (costing as
//! if no WHERE clause existed) picks a plan that is only good for the unfiltered pattern.
//!
//! The binary measures both picks and writes `BENCH_filtered_plan_choice.json`. The record
//! with plan `"chosen"` is what the optimizer would actually run: with `GF_FILTER_BLIND=1`
//! it measures the blind pick (the "before" of the regression gate), otherwise the aware pick
//! (the "after"). Both files carry identical `output_count`s — the plans compute the same
//! query — so `bench_compare` can gate on result drift and wall time across the flip.

use graphflow_bench::{bench_report, measure, print_table, secs, BenchRecord};
use graphflow_catalog::Catalogue;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::{GraphBuilder, PropValue};
use graphflow_plan::cost::CostModel;
use graphflow_plan::{DpOptimizer, Plan};
use graphflow_query::patterns;
use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
use std::sync::Arc;
use std::time::Duration;

/// `plan`'s samples, its count and its record.
fn run(db: &GraphflowDB, plan: &Plan) -> (Vec<Duration>, u64, BenchRecord) {
    let m = measure(db, plan, &QueryOptions::new());
    let record = m.record(
        "tailed-triangle WHERE tail.age = 7",
        "powerlaw-props",
        "measured",
    );
    (m.samples, m.count, record)
}

fn main() {
    let scale = graphflow_datasets::scale_from_env();
    let n = ((4000.0 * scale) as u32).max(300);
    let edges = graphflow_graph::generator::powerlaw_cluster(n as usize, 4, 0.5, 99);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    for v in 0..n {
        // Uniform over ten values: the estimator's 0.1 equality selectivity is truthful.
        b.set_vertex_prop(v, "age", PropValue::Int((v % 10) as i64))
            .expect("vertex exists");
    }
    let graph = Arc::new(b.build());
    let db = GraphflowDB::with_config(graph.clone(), Default::default());
    let cat = Catalogue::with_defaults(graph);

    let mut q = patterns::tailed_triangle();
    q.add_predicate(Predicate {
        target: PredTarget::Vertex(3),
        key: "age".into(),
        op: CmpOp::Eq,
        value: PropValue::Int(7),
    });

    let aware_plan = DpOptimizer::new(&cat)
        .optimize(&q)
        .expect("plan for the filtered query");
    let blind_plan = DpOptimizer::new(&cat)
        .with_cost_model(CostModel::default().filter_blind())
        .optimize(&q)
        .expect("plan for the filtered query");
    println!("filter-aware pick:\n{}", aware_plan.explain());
    println!("filter-blind pick:\n{}", blind_plan.explain());
    if aware_plan.root.fingerprint() == blind_plan.root.fingerprint() {
        println!("note: both cost models picked the same plan at this scale");
    }

    let (aware_times, aware_count, aware_rec) = run(&db, &aware_plan);
    let (blind_times, blind_count, blind_rec) = run(&db, &blind_plan);
    assert_eq!(
        aware_count, blind_count,
        "both plans must compute the same result"
    );

    let chosen_blind = std::env::var("GF_FILTER_BLIND").is_ok_and(|v| v == "1");
    let (chosen_times, chosen_rec) = if chosen_blind {
        (&blind_times, blind_rec.clone())
    } else {
        (&aware_times, aware_rec.clone())
    };

    print_table(
        "filtered plan choice (tailed triangle, tail.age = 7)",
        &["pick", "plan class", "median s", "output"],
        &[
            vec![
                "filter-aware".into(),
                aware_plan.class().to_string(),
                secs(aware_times[aware_times.len() / 2]),
                aware_count.to_string(),
            ],
            vec![
                "filter-blind".into(),
                blind_plan.class().to_string(),
                secs(blind_times[blind_times.len() / 2]),
                blind_count.to_string(),
            ],
        ],
    );

    let mut records = vec![
        BenchRecord {
            plan: "chosen".into(),
            ..chosen_rec
        },
        BenchRecord {
            plan: "filter_aware".into(),
            ..aware_rec
        },
        BenchRecord {
            plan: "filter_blind".into(),
            ..blind_rec
        },
    ];
    // The gated record reflects what the session's optimizer mode actually runs.
    records[0].samples_ms = chosen_times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    bench_report("filtered_plan_choice", &records).expect("write report");
}
