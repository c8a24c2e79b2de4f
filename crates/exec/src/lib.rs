//! # graphflow-exec
//!
//! The execution engine of Graphflow-RS: it runs the plan trees produced by `graphflow-plan`
//! against a `graphflow-graph` data graph.
//!
//! The engine mirrors the paper's runtime (Sections 3.1, 6 and 7):
//!
//! * **SCAN** streams the data edges matching a query edge (sorted by source, which is what
//!   makes the intersection cache effective one operator up);
//! * **EXTEND/INTERSECT** extends each partial match by one query vertex by intersecting
//!   label-partitioned, sorted adjacency lists, with a *last-extension cache* that reuses the
//!   previous extension set when consecutive tuples access the same lists;
//! * **HASH-JOIN** materialises its build side into a [`JoinTable`](join::JoinTable) keyed on
//!   the shared query vertices and probes it with the other side. The table is one arena of
//!   distinct keys behind an open-addressing index of `u32` key ids, with the payload columns
//!   grouped by key in a second arena; building and probing allocate nothing per tuple. Under
//!   `RETURN COUNT(*)` a HASH-JOIN at the root of the plan keeps only the number of build
//!   tuples per key, and each probe adds its key's count to the output (eager aggregation,
//!   Yan & Larson 1995);
//! * an **adaptive stage** (Section 6) replaces a chain of two or more E/I operators with a
//!   per-tuple choice among all remaining query-vertex orderings, re-costing each ordering from
//!   the actual adjacency-list sizes of the tuple at hand; each ordering runs as ordinary E/I
//!   stages.
//!
//! There is **one executor**, [`execute_with_sink`], with two orthogonal settings. Whether E/I
//! chains are compiled fixed or adaptive is a property of the compiled pipeline (pass a
//! catalogue to get adaptive stages). How many workers run that pipeline is the thread count
//! (Section 7): the [driver] schedules the SCAN as adaptive-size morsels claimed from a shared
//! cursor and splits heavy (hub-vertex) extension sets into stealable sub-tasks; extra
//! workers get a clone of the pipeline, hash-join build sides are materialised once and shared
//! read-only, and a sink is only ever called on the calling thread. One thread is the
//! one-worker case.
//!
//! Results are **streamed**: each match is delivered (in query-vertex order) to a
//! [`MatchSink`] — counting, collecting, limit-N or user-callback — so unbounded result sets
//! never need to be materialised. [`execute`] is the counting shorthand over the same
//! machinery.
//!
//! Every run returns [`RuntimeStats`] with the *actual* i-cost (Equation 1), the number of
//! intermediate partial matches, and intersection-cache hit counts — the quantities reported in
//! Tables 3–6 of the paper.
//!
//! Both entry points are generic over [`GraphView`](graphflow_graph::GraphView): pass a frozen
//! [`Graph`](graphflow_graph::Graph) (every adjacency access monomorphises to a borrowed CSR
//! slice — the static fast path costs nothing) or a live
//! [`Snapshot`](graphflow_graph::Snapshot) (a partition with pending updates resolves to the
//! merged list the snapshot's overlay already holds — the writer paid for the merge, the run
//! borrows it; `RuntimeStats::delta_merges` counts the lists served that way).

pub mod adaptive;
pub mod agg;
pub mod cancel;
pub mod driver;
pub mod join;
pub mod pipeline;
pub mod profile;
pub mod sink;
pub mod stats;

pub use agg::{AggregatingSink, ProjectingSink, Row, RowSpec, RowStreamSink, Value};
pub use cancel::{CancellationToken, Interrupt, INTERRUPT_CHECK_INTERVAL};
pub use driver::{execute, execute_with_sink};
pub use pipeline::{ExecOptions, ExecOutput};
pub use profile::{CandidateProfile, OpCounters, OpProfile};
pub use sink::{CallbackSink, CollectingSink, CountingSink, LimitSink, MatchSink, PartialSink};
pub use stats::RuntimeStats;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{execute_with_sink, CountingSink, ExecOptions, ExecOutput};
    use graphflow_catalog::Catalogue;
    use graphflow_graph::GraphView;
    use graphflow_plan::plan::Plan;

    /// Count a plan's results through the one executor under explicit settings.
    pub(crate) fn count<G: GraphView>(
        graph: &G,
        plan: &Plan,
        adaptive: Option<&Catalogue>,
        threads: usize,
        options: ExecOptions,
    ) -> ExecOutput {
        let mut sink = CountingSink::new();
        let stats = execute_with_sink(graph, plan, adaptive, threads, options, &mut sink);
        ExecOutput {
            count: stats.output_count,
            stats,
        }
    }
}
