//! The `EXPLAIN` / `PROFILE` surface: a typed operator-tree report.
//!
//! [`QueryProfile`] is the structured answer to both verbs. `EXPLAIN` builds one from the
//! chosen plan alone, annotating every operator with the catalogue's estimated cardinality
//! and cumulative cost ([`PreparedQuery::explain`](crate::PreparedQuery::explain));
//! `PROFILE` executes the query with per-operator profiling on and attaches each operator's
//! actual counters next to its estimates
//! ([`PreparedQuery::profile`](crate::PreparedQuery::profile)). Both are also reachable
//! through [`GraphflowDB::query`](crate::GraphflowDB::query) by prefixing the pattern with
//! the verb (`EXPLAIN (a)->(b), ...`), which renders the tree as a one-column
//! [`ResultSet`].
//!
//! Both reports are one walk of the plan: every node is labelled by
//! [`PlanNode::label`](graphflow_plan::PlanNode::label), priced through the per-query
//! estimate table and — under `PROFILE` — given the counters the executor filed under its
//! pre-order id (`RuntimeStats::profile`). The plan is the only operator tree; the report is
//! plain data: walk [`ProfileNode`]s directly, [`Display`](std::fmt::Display) it as an
//! indented tree, or serialize it with [`QueryProfile::to_json`].

use crate::results::ResultSet;
use graphflow_catalog::Catalogue;
use graphflow_exec::{CandidateProfile, OpCounters, OpProfile, RuntimeStats};
use graphflow_graph::PropValue;
use graphflow_plan::cost::{CostModel, Estimator};
use graphflow_plan::{Plan, PlanClass, PlanNode};
use std::fmt;

/// One operator of an `EXPLAIN`/`PROFILE` report, mirroring the plan's operator tree.
///
/// Children are upstream operators: an E/I node has one child (its input), a `HASH-JOIN`
/// node has two (`children[0]` = build side, `children[1]` = probe side), a `SCAN` none.
/// Under adaptive execution a chain of E/I operators that ran as one adaptive stage
/// collapses into a single `ADAPTIVE EXTEND/INTERSECT` node carrying the per-candidate
/// ordering profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Human-readable operator label (`SCAN (a)->(b) [label 0]`,
    /// `EXTEND/INTERSECT -> c using {a.fwd[0], b.fwd[0]}`, `HASH-JOIN on [b]`), using the
    /// planned query's vertex names.
    pub operator: String,
    /// Estimated output cardinality of this operator's subtree (catalogue estimate times
    /// predicate selectivity — what the optimizer believed).
    pub est_rows: f64,
    /// Estimated cumulative cost of the subtree in i-cost units (Equation 1 / the
    /// hash-join cost normalisation), children included.
    pub est_cost: f64,
    /// The operator's actual counters — `Some` only in a `PROFILE` report. Counter times are
    /// self-times; rows produced are `tuples_out` for intermediate operators and `outputs`
    /// for the final one.
    pub actual: Option<OpCounters>,
    /// Adaptive stages only: one profile per candidate ordering (how many tuples per-tuple
    /// re-costing routed to it, and what its steps did).
    pub candidates: Vec<CandidateProfile>,
    /// Upstream operators: `[input]` for E/I, `[build, probe]` for `HASH-JOIN`, empty for
    /// `SCAN`.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Rows this operator actually produced (`tuples_out` + `outputs` — for any single
    /// operator exactly one of the two is non-zero); `None` in an `EXPLAIN`-only report.
    pub fn actual_rows(&self) -> Option<u64> {
        self.actual.as_ref().map(|c| c.tuples_out + c.outputs)
    }

    /// The q-error of the optimizer's cardinality estimate for this operator:
    /// `max(est/actual, actual/est)`, always ≥ 1.0 (1.0 = perfect estimate). `None` in
    /// `EXPLAIN`-only reports, or when exactly one of the two sides is zero (the ratio is
    /// unbounded); zero estimated *and* zero actual counts as perfect.
    pub fn q_error(&self) -> Option<f64> {
        let actual = self.actual_rows()? as f64;
        let est = self.est_rows;
        if actual <= 0.0 && est <= 0.0 {
            return Some(1.0);
        }
        if actual <= 0.0 || est <= 0.0 {
            return None;
        }
        Some((est / actual).max(actual / est))
    }

    /// Number of operator nodes in the subtree (an adaptive stage counts as one).
    pub fn num_operators(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| c.num_operators())
            .sum::<usize>()
    }
}

/// The typed result of `EXPLAIN` or `PROFILE`: the chosen plan as an operator tree with
/// estimated cardinalities and costs, plus (for `PROFILE`) per-operator actuals and the
/// run's [`RuntimeStats`].
///
/// ```
/// use graphflow_core::GraphflowDB;
/// use graphflow_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 2);
/// let db = GraphflowDB::from_graph(b.build());
/// let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
///
/// let explained = q.explain(); // estimates only
/// assert!(explained.to_string().contains("EXTEND/INTERSECT"));
/// assert!(explained.stats.is_none());
///
/// let profiled = q.profile(Default::default()).unwrap(); // executed, with actuals
/// assert_eq!(profiled.stats.as_ref().unwrap().output_count, 1);
/// assert!(profiled.root.actual_rows().is_some());
/// assert!(profiled.to_json().starts_with('{'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The planned query in pattern syntax — the caller's own text (names, constants,
    /// `RETURN`), also when its operator tree came from an isomorphic twin's cache entry;
    /// the tree's labels use the same names.
    pub query: String,
    /// The plan's class (WCO / BJ / hybrid).
    pub plan_class: PlanClass,
    /// The optimizer's estimated total cost in i-cost units.
    pub estimated_cost: f64,
    /// The operator tree, root = the operator producing the query's results.
    pub root: ProfileNode,
    /// The run's totals — `Some` only for `PROFILE`. Every per-operator counter in the tree
    /// sums exactly to its total here.
    pub stats: Option<RuntimeStats>,
}

impl QueryProfile {
    /// Build the report for a plan: `EXPLAIN` without `stats`, `PROFILE` with the stats of a
    /// profiled run of that plan.
    pub(crate) fn new(
        plan: &Plan,
        catalogue: &Catalogue,
        model: &CostModel,
        stats: Option<RuntimeStats>,
    ) -> QueryProfile {
        let est = &mut Estimator::new(&plan.query, catalogue, *model);
        let records = stats.as_ref().map_or(&[][..], |s| &s.profile[..]);
        QueryProfile {
            query: plan.query.to_string(),
            plan_class: plan.class(),
            estimated_cost: plan.estimated_cost,
            root: report_node(&plan.root, 0, records, est),
            stats,
        }
    }

    /// Whether the report carries actuals (i.e. came from `PROFILE`, not `EXPLAIN`).
    pub fn executed(&self) -> bool {
        self.stats.is_some()
    }

    /// Serialize the whole report as a self-contained JSON object (no external schema):
    /// `{"query", "plan_class", "estimated_cost", "executed", "stats", "root"}`, where
    /// `root` nests `{"operator", "est_rows", "est_cost", "actual", "candidates",
    /// "children"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!("\"query\":{}", json_str(&self.query)));
        out.push_str(&format!(
            ",\"plan_class\":{}",
            json_str(&self.plan_class.to_string())
        ));
        out.push_str(&format!(
            ",\"estimated_cost\":{}",
            json_f64(self.estimated_cost)
        ));
        out.push_str(&format!(",\"executed\":{}", self.executed()));
        out.push_str(",\"stats\":");
        match &self.stats {
            Some(s) => json_stats(s, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"root\":");
        json_node(&self.root, &mut out);
        out.push('}');
        out
    }
}

impl fmt::Display for QueryProfile {
    /// The human-readable report: a `plan class` / `estimated cost` header followed by the
    /// indented operator tree, one operator per line with its estimates (and, for
    /// `PROFILE`, its actuals) in parentheses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan class: {}", self.plan_class)?;
        writeln!(f, "estimated cost: {:.1}", self.estimated_cost)?;
        render_node(&self.root, 0, f)
    }
}

fn render_node(node: &ProfileNode, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "  ".repeat(indent);
    write!(
        f,
        "{pad}{} (est rows {:.1}, est cost {:.1}",
        node.operator, node.est_rows, node.est_cost
    )?;
    if let Some(c) = &node.actual {
        write!(
            f,
            "; actual rows {}, icost {}, time {:.3}ms",
            node.actual_rows().unwrap_or(0),
            c.icost,
            c.time_ns as f64 / 1e6
        )?;
        if let Some(qe) = node.q_error() {
            write!(f, ", q-err {qe:.2}")?;
        }
        // Which intersection kernels this operator's E/I calls dispatched to.
        if c.kernel_merge + c.kernel_gallop + c.kernel_block > 0 {
            write!(
                f,
                ", kernels merge/gallop/block {}/{}/{}",
                c.kernel_merge, c.kernel_gallop, c.kernel_block
            )?;
        }
    }
    writeln!(f, ")")?;
    for cand in &node.candidates {
        let c = cand.counters();
        write!(
            f,
            "{pad}  candidate {:?}: chose {} tuples, icost {}",
            cand.order, cand.chosen, c.icost
        )?;
        if c.kernel_merge + c.kernel_gallop + c.kernel_block > 0 {
            write!(
                f,
                ", kernels merge/gallop/block {}/{}/{}",
                c.kernel_merge, c.kernel_gallop, c.kernel_block
            )?;
        }
        writeln!(f)?;
    }
    let is_join = node.operator.starts_with("HASH-JOIN");
    for (i, child) in node.children.iter().enumerate() {
        if is_join {
            writeln!(f, "{pad}  {}:", if i == 0 { "build" } else { "probe" })?;
            render_node(child, indent + 2, f)?;
        } else {
            render_node(child, indent + 1, f)?;
        }
    }
    Ok(())
}

/// Render an `EXPLAIN`/`PROFILE` report as a one-column `ResultSet` (column `"plan"`, one
/// row per rendered line) — the shape `GraphflowDB::query` returns for the prefixed verbs.
pub(crate) fn result_set(profile: &QueryProfile) -> ResultSet {
    ResultSet {
        columns: vec!["plan".to_string()],
        rows: profile
            .to_string()
            .lines()
            .map(|line| vec![Some(PropValue::str(line))])
            .collect(),
        stats: profile.stats.clone().unwrap_or_default(),
    }
}

// --- tree construction ---------------------------------------------------------------------

/// The report of the subtree rooted at plan node `id` (pre-order), with the counters the run
/// filed under each node, if any; every node is priced through the one per-query estimate
/// table, so the walk asks the catalogue nothing twice. An adaptive stage's record sits under
/// the top E/I of the chain it ran, which the report shows as one node over the chain's input.
fn report_node(
    node: &PlanNode,
    id: usize,
    records: &[OpProfile],
    est: &mut Estimator<'_>,
) -> ProfileNode {
    let cost = est.estimate_cost(node);
    let record = records.get(id);
    let candidates = record.map_or(Vec::new(), |r| r.candidates.clone());
    let chain = candidates.first().map_or(1, |c| c.order.len());
    let mut bottom = node;
    for _ in 1..chain {
        bottom = bottom.children()[0];
    }
    let mut child_id = id + chain;
    let children = (bottom.children().into_iter())
        .map(|child| {
            let report = report_node(child, child_id, records, est);
            child_id += child.num_operators();
            report
        })
        .collect();
    ProfileNode {
        operator: node.label(est.query(), chain),
        est_rows: cost.output_cardinality,
        est_cost: cost.total(),
        actual: record.map(|r| r.counters.clone()),
        candidates,
        children,
    }
}

// --- JSON serialization, over the shared hand-rolled writers in `crate::json` --------------

use crate::json::{fmt_f64 as json_f64, quote as json_str};

fn json_counters(c: &OpCounters, out: &mut String) {
    out.push_str(&format!(
        "{{\"time_ns\":{},\"tuples_in\":{},\"tuples_out\":{},\"outputs\":{},\"icost\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"delta_merges\":{},\"predicate_evals\":{},\
         \"predicate_drops\":{},\"kernel_merge\":{},\"kernel_gallop\":{},\"kernel_block\":{}}}",
        c.time_ns,
        c.tuples_in,
        c.tuples_out,
        c.outputs,
        c.icost,
        c.cache_hits,
        c.cache_misses,
        c.delta_merges,
        c.predicate_evals,
        c.predicate_drops,
        c.kernel_merge,
        c.kernel_gallop,
        c.kernel_block,
    ));
}

fn json_stats(s: &RuntimeStats, out: &mut String) {
    out.push_str(&format!(
        "{{\"icost\":{},\"intermediate_tuples\":{},\"output_count\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"delta_merges\":{},\"predicate_evals\":{},\"predicate_drops\":{},\
         \"bulk_counted_extensions\":{},\"kernel_merge\":{},\"kernel_gallop\":{},\
         \"kernel_block\":{},\"heavy_splits\":{},\"hash_build_tuples\":{},\
         \"hash_probe_tuples\":{},\"plan_cache_hits\":{},\"plan_cache_misses\":{},\
         \"elapsed_ns\":{}}}",
        s.icost,
        s.intermediate_tuples,
        s.output_count,
        s.cache_hits,
        s.cache_misses,
        s.delta_merges,
        s.predicate_evals,
        s.predicate_drops,
        s.bulk_counted_extensions,
        s.kernel_merge,
        s.kernel_gallop,
        s.kernel_block,
        s.heavy_splits,
        s.hash_build_tuples,
        s.hash_probe_tuples,
        s.plan_cache_hits,
        s.plan_cache_misses,
        s.elapsed.as_nanos(),
    ));
}

fn json_node(node: &ProfileNode, out: &mut String) {
    out.push('{');
    out.push_str(&format!("\"operator\":{}", json_str(&node.operator)));
    out.push_str(&format!(",\"est_rows\":{}", json_f64(node.est_rows)));
    out.push_str(&format!(",\"est_cost\":{}", json_f64(node.est_cost)));
    out.push_str(&format!(
        ",\"q_error\":{}",
        node.q_error().map_or("null".to_string(), json_f64)
    ));
    out.push_str(",\"actual\":");
    match &node.actual {
        Some(c) => json_counters(c, out),
        None => out.push_str("null"),
    }
    out.push_str(",\"candidates\":[");
    for (i, cand) in node.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"order\":[{}],\"chosen\":{},\"counters\":",
            cand.order
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
            cand.chosen,
        ));
        json_counters(&cand.counters(), out);
        out.push('}');
    }
    out.push_str("],\"children\":[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_node(child, out);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::QueryProfile;
    use crate::{GraphflowDB, QueryOptions};
    use graphflow_graph::{EdgeLabel, GraphBuilder};
    use graphflow_plan::wco::wco_node_for_ordering;
    use graphflow_plan::{Plan, PlanNode};
    use graphflow_query::{patterns, QueryGraph};

    fn triangle_db() -> GraphflowDB {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        GraphflowDB::from_graph(b.build())
    }

    #[test]
    fn explain_tree_carries_estimates_but_no_actuals() {
        let db = triangle_db();
        let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        let report = q.explain();
        assert!(report.stats.is_none());
        assert!(!report.executed());
        assert_eq!(
            report.root.num_operators(),
            2,
            "SCAN + one E/I for a triangle"
        );
        assert!(report.root.actual.is_none());
        assert!(report.root.est_cost > 0.0);
        let text = report.to_string();
        assert!(text.contains("plan class:"));
        assert!(text.contains("SCAN"));
        assert!(text.contains("EXTEND/INTERSECT"));
        assert!(text.contains("est rows"));
        assert!(!text.contains("actual rows"));
    }

    #[test]
    fn profile_tree_attaches_actuals_that_sum_to_the_stats() {
        let db = triangle_db();
        let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        let report = q.profile(QueryOptions::new()).unwrap();
        let stats = report.stats.as_ref().unwrap();
        assert_eq!(stats.output_count, 1);
        let mut icost = 0u64;
        let mut rows = 0u64;
        fn walk(n: &crate::ProfileNode, icost: &mut u64, rows: &mut u64) {
            let c = n.actual.as_ref().expect("profiled node carries actuals");
            *icost += c.icost;
            *rows += c.tuples_out + c.outputs;
            for cand in &n.candidates {
                let cc = cand.counters();
                *icost += cc.icost;
                *rows += cc.tuples_out + cc.outputs;
            }
            for ch in &n.children {
                walk(ch, icost, rows);
            }
        }
        walk(&report.root, &mut icost, &mut rows);
        assert_eq!(icost, stats.icost);
        assert_eq!(rows, stats.intermediate_tuples + stats.output_count);
        assert!(report.to_string().contains("actual rows"));
    }

    #[test]
    fn profile_reports_estimation_quality_as_q_error() {
        let db = triangle_db();
        let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        // EXPLAIN has no actuals, so no q-error.
        assert!(q.explain().root.q_error().is_none());
        let report = q.profile(QueryOptions::new()).unwrap();
        fn walk(n: &crate::ProfileNode) {
            if let Some(qe) = n.q_error() {
                assert!(qe >= 1.0, "q-error is a ratio >= 1, got {qe}");
            }
            for ch in &n.children {
                walk(ch);
            }
        }
        walk(&report.root);
        assert!(
            report.to_string().contains("q-err"),
            "PROFILE renders estimated-vs-actual quality"
        );
        assert!(report.to_json().contains("\"q_error\":"));
    }

    #[test]
    fn json_report_is_well_formed_enough_to_spot_check() {
        let db = triangle_db();
        let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        let json = q.profile(QueryOptions::new()).unwrap().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"query\":",
            "\"plan_class\":\"WCO\"",
            "\"executed\":true",
            "\"stats\":{",
            "\"root\":{",
            "\"operator\":",
            "\"est_rows\":",
            "\"actual\":{",
            "\"children\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn explain_and_profile_verbs_route_through_query() {
        let db = triangle_db();
        let explained = db.query("EXPLAIN (a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert_eq!(explained.columns(), ["plan"]);
        assert!(explained.len() >= 3);
        assert_eq!(explained.stats.output_count, 0, "EXPLAIN does not execute");
        let profiled = db.query("PROFILE (a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert_eq!(profiled.stats.output_count, 1, "PROFILE executes");
        let text: Vec<String> = profiled
            .rows()
            .iter()
            .map(|r| format!("{:?}", r[0]))
            .collect();
        assert!(text.iter().any(|l| l.contains("actual rows")));
    }

    /// The query every report below describes through a DP-picked plan.
    const DIAMOND_X: &str = "(a)->(b), (a)->(c), (b)->(c), (b)->(d), (c)->(d)";

    /// Plans covering every operator kind and every place an adaptive chain can sit: the DP
    /// pick for diamond-X (one SCAN + an E/I chain), Figure 1c (two triangles hash-joined), a
    /// bushy join of joins closed by an E/I (as in `tests/plan_space.rs`), and Q9 with an E/I
    /// chain below a probe and above one.
    fn golden_plans(db: &GraphflowDB) -> Vec<(&'static str, Plan)> {
        let node = |q: &QueryGraph, sigma: &[usize]| wco_node_for_ordering(q, sigma).unwrap();
        let join = |q: &QueryGraph, build, probe| PlanNode::hash_join(q, build, probe).unwrap();
        let dp = db.plan(&db.parse(DIAMOND_X).unwrap()).unwrap();
        let d = patterns::diamond_x();
        let figure_1c = join(&d, node(&d, &[1, 2, 0]), node(&d, &[1, 2, 3]));
        let c = patterns::benchmark_query(12);
        let scan = |src: usize| PlanNode::scan(*c.edges().iter().find(|e| e.src == src).unwrap());
        let bushy = join(&c, join(&c, scan(0), scan(1)), join(&c, scan(2), scan(3)));
        let bushy = PlanNode::extend(&c, bushy, 5).unwrap();
        let q9 = patterns::benchmark_query(9);
        let chain_below = join(&q9, node(&q9, &[0, 1, 2]), node(&q9, &[2, 3, 4, 5]));
        let s23 = PlanNode::scan(
            *q9.edges()
                .iter()
                .find(|e| (e.src, e.dst) == (2, 3))
                .unwrap(),
        );
        let chain_above = join(&q9, node(&q9, &[0, 1, 2]), s23);
        let chain_above = PlanNode::extend(&q9, chain_above, 4).unwrap();
        let chain_above = PlanNode::extend(&q9, chain_above, 5).unwrap();
        vec![
            ("diamond-x, DP pick", dp),
            ("figure 1c", Plan::new(d, figure_1c, 0.0)),
            ("bushy join of joins", Plan::new(c, bushy, 0.0)),
            (
                "Q9, E/I chain below a probe",
                Plan::new(q9.clone(), chain_below, 0.0),
            ),
            (
                "Q9, E/I chain above a probe",
                Plan::new(q9, chain_above, 0.0),
            ),
        ]
    }

    /// Replace the number after every `marker` with `_`.
    fn mask(text: &str, marker: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(i) = rest.find(marker) {
            let (head, tail) = rest.split_at(i + marker.len());
            out.push_str(head);
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(tail.len());
            if end > 0 {
                out.push('_');
            }
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    }

    /// `Plan::explain`, `EXPLAIN` and `PROFILE` (text and JSON; fixed and adaptive; one worker)
    /// of every golden plan, on a frozen and then on a dirty snapshot, with times masked.
    fn render_golden() -> String {
        use std::fmt::Write;
        let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.6, 7);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let db = GraphflowDB::from_graph(b.build());
        let mut out = String::new();
        for snapshot in ["frozen", "dirty"] {
            if snapshot == "dirty" {
                let mut txn = db.begin_write();
                for i in 0..40u32 {
                    txn.insert_edge(i, (i * 7 + 3) % 200, EdgeLabel(0));
                }
                txn.commit();
            }
            let catalogue = db.catalogue();
            let model = *db.shared.cost_model.read();
            for (name, plan) in golden_plans(&db) {
                writeln!(out, "=== {name}, {snapshot} snapshot").unwrap();
                writeln!(out, "--- Plan::explain\n{}", plan.explain()).unwrap();
                let report = QueryProfile::new(&plan, &catalogue, &model, None);
                writeln!(out, "--- EXPLAIN\n{report}{}", report.to_json()).unwrap();
                for adaptive in [false, true] {
                    let options = QueryOptions::new().adaptive(adaptive).profile(true);
                    let stats = db.run_plan(&plan, options).unwrap().stats;
                    let report = QueryProfile::new(&plan, &catalogue, &model, Some(stats));
                    writeln!(
                        out,
                        "--- PROFILE, adaptive {adaptive}\n{report}{}",
                        report.to_json()
                    )
                    .unwrap();
                }
            }
        }
        let out = mask(&out, "\"time_ns\":");
        let out = mask(&out, "\"elapsed_ns\":");
        mask(&out, "time ")
    }

    /// The reports are pinned byte for byte (times masked) to `tests/golden/profile_reports.txt`.
    /// To regenerate it, run `render_golden` in a checkout of the commit you trust and write its
    /// output to that file.
    #[test]
    fn reports_match_the_golden_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/profile_reports.txt"
        );
        let golden = std::fs::read_to_string(path).expect("golden file");
        let rendered = render_golden();
        for (i, (want, got)) in golden.lines().zip(rendered.lines()).enumerate() {
            assert_eq!(got, want, "line {} differs from the golden file", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "line count"
        );
    }
}
