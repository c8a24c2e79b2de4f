//! # graphflow-query
//!
//! Query-graph model for Graphflow-RS.
//!
//! A subgraph query `Q(V_Q, E_Q)` is a small directed, connected, labelled graph whose matches
//! are looked for in a data graph (paper Section 2). This crate provides:
//!
//! * [`QueryGraph`] — the query representation with labelled query vertices and edges, typed
//!   property [`Predicate`]s, projections onto vertex subsets, and connectivity utilities used
//!   by the planner;
//! * [`parser`] — a compact textual pattern syntax (`(a)-[1]->(b:2), (b)->(c)`) with `WHERE`
//!   clauses over vertex and edge properties (`(a)-[e]->(b) WHERE a.age > 30 AND e.w < 0.5`);
//! * [`patterns`] — constructors for the standard shapes used throughout the paper (triangle,
//!   diamond-X, tailed triangle, cliques, cycles) and the benchmark queries Q1–Q14 of Figure 6;
//! * [`returns`] — the `RETURN` clause: projections and aggregates (`COUNT`/`SUM`/`MIN`/
//!   `MAX`/`AVG`, `DISTINCT`, `ORDER BY`, `LIMIT`) excluded from the canonical form so
//!   queries differing only in what they return share one cached plan;
//! * [`qvo`] — enumeration of query-vertex orderings (QVOs), i.e. connected orders of `V_Q`,
//!   with automorphism-based de-duplication;
//! * [`canonical`] — canonical codes and automorphism groups of small query graphs, used for
//!   catalogue keys and for recognising symmetric sub-plans.

#![warn(missing_docs)]

pub mod canonical;
pub mod extension;
pub mod parser;
pub mod patterns;
pub mod querygraph;
pub mod qvo;
pub mod returns;

pub use canonical::{
    automorphisms, canonical_code, canonical_form, exact_code, predicate_structure_code,
    CanonicalCode, MAX_CANONICAL_VERTICES,
};
pub use extension::{descriptors_for_extension, extension_chain, AdjListDescriptor, ExtensionSpec};
pub use parser::{parse_query, split_mode, ParseError, QueryMode};
pub use patterns::benchmark_query;
pub use querygraph::{
    CmpOp, PredTarget, Predicate, QueryEdge, QueryGraph, QueryVertex, VertexSet, MAX_QUERY_VERTICES,
};
pub use qvo::{connected_orderings, distinct_orderings};
pub use returns::{AggFunc, OrderKey, ReturnClause, ReturnExpr, ReturnItem, SortDir};
