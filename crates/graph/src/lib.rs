//! # graphflow-graph
//!
//! In-memory directed property-graph storage substrate for Graphflow-RS, the Rust
//! reproduction of *"Optimizing Subgraph Queries by Combining Binary and Worst-Case
//! Optimal Joins"* (Mhedhbi & Salihoglu, VLDB 2019).
//!
//! The paper's execution engine relies on a specific storage layout (its Section 2 and
//! Section 7):
//!
//! * every vertex has a **forward** and a **backward** adjacency list;
//! * each adjacency list is **partitioned first by edge label and then by the label of the
//!   neighbour vertex**, so that an EXTEND/INTERSECT descriptor resolves to a contiguous
//!   slice in constant/logarithmic time;
//! * neighbours inside a partition are **sorted by vertex id**, which enables fast sorted-set
//!   intersections (the core of worst-case optimal join processing).
//!
//! This crate provides exactly that layout ([`Graph`], built through [`GraphBuilder`]),
//! sorted-set intersection kernels ([`intersect`]), synthetic graph generators used to stand in
//! for the paper's SNAP datasets ([`generator`]), an edge-list loader ([`loader`]) and basic
//! structural statistics ([`stats`]) used by the dataset profiles and by tests.
//!
//! On top of the frozen CSR, [`delta`] adds the **dynamic-graph subsystem**: an overlay store
//! that keeps the already-merged neighbour lists of every touched vertex, and an `Arc`-based
//! [`Snapshot`] type that freezes one delta epoch. Both the CSR and snapshots implement
//! [`GraphView`], the read abstraction the executors are compiled against, and both hand out
//! borrowed slices only: the writer merges a touched list once per update, readers never do.

pub mod builder;
pub mod delta;
pub mod generator;
pub mod graph;
pub mod ids;
pub mod intersect;
pub mod loader;
pub mod props;
pub mod serialize;
pub mod stats;

pub use builder::GraphBuilder;
pub use delta::{DeltaStore, Snapshot, Update};
pub use graph::{Adjacency, Graph, GraphView, NbrList};
pub use ids::{Direction, EdgeLabel, VertexId, VertexLabel};
pub use intersect::{
    intersect_sorted, intersect_sorted_into, intersect_sorted_into_counted, multiway_intersect,
    multiway_intersect_views, multiway_intersect_views_counted, select_kernel, set_simd_enabled,
    simd_active, Kernel, KernelCounters,
};
pub use props::{EdgeKey, PropError, PropType, PropValue, PropertyStore};
pub use serialize::DecodeError;

/// Convenience alias for an edge list `(source, destination)` used by generators and loaders.
pub type EdgeList = Vec<(VertexId, VertexId)>;
