//! # graphflow-baselines
//!
//! The comparison systems of the paper's evaluation, re-implemented so that every number in the
//! experiment harnesses comes from code in this repository:
//!
//! * [`bj_engine`] — a deliberately naive edge-at-a-time binary-join engine with fully
//!   materialised intermediate results. It has no multiway intersections and no projection
//!   constraint, so cyclic queries force it to build (possibly huge) open structures before
//!   filtering — the behaviour the paper attributes to Neo4j-class systems (Table 13 /
//!   Appendix D).
//! * [`backtracking`] — a CFL-style backtracking subgraph matcher (Appendix C): label/degree
//!   candidate filtering, dense-core-first matching order, recursive backtracking with an
//!   output limit. It represents the family of subgraph-isomorphism algorithms that are not
//!   expressed as database operator plans.
//! * [`queryset`] — the random sparse/dense query generators used by the CFL comparison
//!   (queries of 10/15/20 vertices over a labelled data graph).
//! * [`ghd`] — the EmptyHeaded baseline (Section 8.4): a planner over minimum-width generalized
//!   hypertree decompositions ranked by fractional edge cover (AGM bound), with lexicographic
//!   ("bad") or Graphflow-chosen ("good") orderings per bag. It emits ordinary
//!   `graphflow-plan` plan trees, which run on the regular execution engine.

pub mod backtracking;
pub mod bj_engine;
pub mod ghd;
pub mod queryset;

pub use backtracking::{backtracking_count, BacktrackOptions};
pub use bj_engine::{bj_engine_count, BjEngineOptions, BjEngineResult};
pub use ghd::{GhdPlanner, OrderingPolicy};
pub use queryset::{random_connected_query, QuerySetKind};
