//! # graphflow-plan
//!
//! The query-plan layer of Graphflow-RS: plan trees over the paper's three operators (SCAN,
//! EXTEND/INTERSECT and HASH-JOIN), the i-cost based cost model, and the planners.
//!
//! * [`plan`] — plan-tree data structures satisfying the paper's *projection constraint*
//!   (every node is labelled with a projection of the query onto a vertex subset) and plan
//!   classification (WCO / binary-join / hybrid);
//! * [`cost`] — the cost model of Sections 3.3–4.2: i-cost for E/I operators (cache-conscious
//!   by default) combined with `w1·n1 + w2·n2` for hash joins, all estimated through the
//!   subgraph catalogue;
//! * [`wco`] — enumeration of WCO plans (one per query-vertex ordering) and of the best WCO
//!   sub-plan per connected sub-query, the first phase of Algorithm 1;
//! * [`dp`] — the Selinger-style bottom-up DP optimizer over the full hybrid space (bushy
//!   join trees mixed freely with WCOJ extensions), keeping Pareto frontiers of sub-plans per
//!   (vertex subset, interesting order) with dominance and upper-bound pruning, plus the
//!   plan-space restriction switches used by the experiments (WCO-only, BJ-only, hybrid) and
//!   the subset-pruning mode for very large queries (Section 4.4);
//! * [`spectrum`] — enumeration of *every* plan in the plan space, used by the plan-spectrum
//!   experiments of Figures 7–9.

pub mod cost;
pub mod dp;
pub mod plan;
pub mod spectrum;
pub mod wco;

pub use cost::{CostModel, PlanCost};
pub use dp::{DpOptimizer, PlanSpaceOptions};
pub use plan::{Plan, PlanClass, PlanNode};

/// A cheaply clonable, shareable plan handle.
///
/// Plans are produced once (by the optimizer or the facade's plan cache) and then shared
/// between the cache, prepared queries and query results; `Arc` makes every one of those a
/// pointer copy instead of a deep clone of the operator tree.
pub type PlanHandle = std::sync::Arc<Plan>;
pub use spectrum::{enumerate_spectrum, percentile_rank, SpectrumLimits, SpectrumPlan};
pub use wco::all_wco_plans;
