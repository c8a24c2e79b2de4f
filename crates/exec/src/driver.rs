//! The morsel driver: the one executor behind every plan (Section 7 of the paper).
//!
//! Whatever a compiled pipeline holds — fixed E/I stages, adaptive stages (Section 6), hash-join
//! probes — it is run by `workers` copies of one loop: claim a scan morsel, admit its edges
//! through `ScanStage::admit`, push every admitted pair through `run_stages`. Worker 0 runs
//! the compiled pipeline itself; each further worker runs a clone of it (private intersection
//! caches and counters; hash-join build tables are shared read-only). Every operator counts its
//! own work in its own stage; at the join barrier the clones' counters are absorbed position by
//! position, and the run's [`RuntimeStats`] are one fold over the pipeline. Serial execution is
//! the one-worker case of the same loop: no thread is spawned, nothing is cloned, and the
//! caller's sink receives every tuple directly.
//!
//! Work is distributed at two levels:
//!
//! 1. **Scan morsels.** The driver SCAN's edge range is carved into morsels sized adaptively
//!    from the edge count and worker count (`MORSELS_PER_WORKER`, clamped to
//!    `MIN_MORSEL_EDGES..MAX_MORSEL_EDGES`); workers repeatedly claim the next morsel
//!    from a shared atomic cursor.
//! 2. **Heavy extension splitting.** A scan morsel containing a hub vertex would serialize
//!    that hub's entire subtree on one worker — exactly the skew that capped the Figure 11
//!    scalability runs. So when one of several workers computes a first-stage extension set
//!    of at least `HEAVY_SPLIT_MIN` candidates (and downstream stages exist to fan into), it
//!    keeps only the first `HEAVY_SEGMENT` candidates and publishes the rest as `HeavyTask`
//!    segments in a shared queue that idle workers drain in preference to claiming new morsels.
//!
//! Workers exit when the scan cursor is drained, the heavy queue is empty, and no worker is
//! still producing (a scanning-counter protocol — a task yet to be published implies an active
//! producer, so the re-check after observing zero active workers is conclusive).
//!
//! Where a worker's result tuples go depends only on the sink and the worker count (see
//! `WorkerSink`). Worker 0 runs on the calling thread, the others on scoped threads, unless a
//! sink that needs tuples cannot fork: then every worker is a scoped thread sending batches
//! over one bounded channel, and the calling thread alone hands them to the sink. No sink is
//! ever shared between threads. `output_limit` is enforced through one shared slot counter at
//! any worker count, so the cut-off is exact.

use crate::adaptive::compile_adaptive;
use crate::pipeline::{
    compile, run_extend_candidates, run_stages, CompiledPipeline, ExecOptions, ExecOutput,
    ExtendStage, ScanStage, Stage,
};
use crate::sink::{CountingSink, MatchSink, PartialSink};
use crate::stats::RuntimeStats;
use graphflow_catalog::Catalogue;
use graphflow_graph::{EdgeLabel, GraphView, VertexId};
use graphflow_plan::plan::Plan;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

/// Target number of scan morsels per worker thread. More morsels means better first-level load
/// balancing at the price of slightly more coordination on the shared cursor.
const MORSELS_PER_WORKER: usize = 64;

/// Smallest scan-morsel size: below this, cursor traffic dominates the per-edge work.
const MIN_MORSEL_EDGES: usize = 64;

/// Largest scan-morsel size: above this, a single slow morsel can stall the join barrier.
const MAX_MORSEL_EDGES: usize = 16384;

/// First-stage extension sets with at least this many candidates are split across workers
/// (second-level morsels). Only sets that fan into further pipeline stages are split — for a
/// final stage the per-candidate work is a counter bump or a batched sink append, too cheap to
/// be worth re-buffering.
const HEAVY_SPLIT_MIN: usize = 256;

/// Candidate count per published segment of a split heavy extension set.
const HEAVY_SEGMENT: usize = 128;

/// How many tuples a worker accumulates before sending them to the calling thread, which
/// alone feeds a non-forkable sink. Amortises the channel to ~1/256th of a per-match send
/// while keeping the stop signal reasonably prompt.
const SINK_BATCH_TUPLES: usize = 256;

/// A second-level morsel: one partial match plus a segment of its already computed (and
/// predicate-filtered) first-stage extension set, ready for any worker to finish.
struct HeavyTask {
    /// The scan tuple (prefix) the segment extends.
    tuple: Vec<VertexId>,
    /// The candidate segment carved out of the producing worker's extension set.
    candidates: Vec<VertexId>,
}

/// Execute a plan on one worker with default options, counting results.
///
/// Generic over [`GraphView`]: pass a `&Graph` for frozen CSR execution or a
/// [`&Snapshot`](graphflow_graph::Snapshot) to run against a live delta epoch.
pub fn execute<G: GraphView>(graph: &G, plan: &Plan) -> ExecOutput {
    let mut sink = CountingSink::new();
    let stats = execute_with_sink(graph, plan, None, 1, ExecOptions::default(), &mut sink);
    ExecOutput {
        count: stats.output_count,
        stats,
    }
}

/// Execute a plan on `threads` workers, streaming every result tuple (in query-vertex order)
/// into `sink`.
///
/// With `adaptive` set, every chain of two or more E/I operators is compiled into an adaptive
/// stage that re-costs its orderings per tuple from that catalogue (hash-join build sides keep
/// their fixed orderings); the two settings are independent. `threads` of 0 or 1 runs the
/// whole plan on the calling thread.
pub fn execute_with_sink<G: GraphView>(
    graph: &G,
    plan: &Plan,
    adaptive: Option<&Catalogue>,
    threads: usize,
    options: ExecOptions,
    sink: &mut dyn MatchSink,
) -> RuntimeStats {
    let start = Instant::now();
    let q = &plan.query;
    // The limit is claimed slot by slot in the driver; the bulk-count fast path delivers no
    // tuples to claim slots for, so it stands down under a limit.
    let limit = options.output_limit;
    let count = options.count_tail && limit.is_none();
    // Hash-join build sides are materialised here, once, on the calling thread.
    let mut pipeline = match adaptive {
        Some(catalogue) => compile_adaptive(graph, q, &plan.root, catalogue, &options, count),
        None => compile(graph, q, &plan.root, 0, &options, count),
    };
    let mut stats = drive(
        &mut pipeline,
        graph,
        q.num_vertices(),
        &options,
        limit,
        threads.max(1),
        sink,
    );
    pipeline.fold_into(&mut stats, options.profile);
    stats.elapsed = start.elapsed();
    stats
}

/// Where one worker's result tuples go. Built on the thread that runs the worker, so only
/// the calling thread ever holds a `Direct` sink.
enum WorkerSink<'a> {
    /// The sink does not need tuples: the stage loops count them and the total is reported
    /// once through [`MatchSink::on_count`].
    Count,
    /// The only worker hands each tuple straight to the caller's sink.
    Direct(&'a mut dyn MatchSink),
    /// A thread-local twin of a forkable sink, merged back at the join barrier.
    Partial(Box<dyn PartialSink>),
    /// Several workers, one non-forkable sink: send batches of up to `SINK_BATCH_TUPLES`
    /// reordered tuples to the calling thread, which hands them to the sink.
    Channel(SyncSender<Vec<VertexId>>),
}

/// State shared by every worker of one run.
struct Shared<'a> {
    workers: usize,
    scan_edges: &'a [(VertexId, VertexId, EdgeLabel)],
    morsel_size: usize,
    next_edge: AtomicUsize,
    /// Raised when the run should end early: the output limit filled, a sink declined, or a
    /// worker's interrupt tripped.
    stop: AtomicBool,
    limit: Option<u64>,
    /// Output slots claimed so far (only maintained under a limit).
    produced: AtomicU64,
    /// Second-level work: segments of split heavy extension sets.
    heavy: Mutex<Vec<HeavyTask>>,
    /// Workers currently inside a morsel or a segment (the termination protocol's producer
    /// count).
    active: AtomicUsize,
}

/// What one worker hands back at the join barrier (its operator counters stay on its pipeline).
struct WorkerResult {
    /// Scheduler-side stats only: heavy splits, and whether an interrupt stopped the worker.
    stats: RuntimeStats,
    partial: Option<Box<dyn PartialSink>>,
    /// Tuples the stage loops counted but that were produced beyond the limit.
    rejected: u64,
}

/// Run a compiled pipeline to completion on `workers` workers, absorbing every worker's
/// operator counters into `pipeline`. Returns the scheduler-side stats only (heavy splits,
/// cancelled / timed out): the caller adds the operators' with
/// [`CompiledPipeline::fold_into`]. Of `options` only the token and the deadline are read; the
/// output limit is `limit`. A result tuple holds `width` vertices, one per query vertex.
pub(crate) fn drive<G: GraphView>(
    pipeline: &mut CompiledPipeline,
    graph: &G,
    width: usize,
    options: &ExecOptions,
    limit: Option<u64>,
    workers: usize,
    sink: &mut dyn MatchSink,
) -> RuntimeStats {
    let mut stats = RuntimeStats::default();
    let needs_tuples = sink.needs_tuples();
    // A limit of zero delivers nothing, and an empty hash-join build side (including those of
    // bushy trees, materialised bottom-up at compile time) lets no scan tuple survive its
    // probe stage: either way the scan is not driven at all.
    let nothing_to_do = limit == Some(0)
        || pipeline
            .stages
            .iter()
            .any(|s| matches!(s, Stage::Probe(p) if p.table.is_empty()));
    if !nothing_to_do {
        // Borrowed straight from the CSR when the scanned label has no pending deltas; merged
        // into an owned, still-sorted vector otherwise. Workers share it read-only either way.
        let scan_edges = graph.scan_edges(pipeline.scan.edge.label);
        let shared = &Shared {
            workers,
            scan_edges: &scan_edges,
            // Aim for MORSELS_PER_WORKER claims per worker, clamped so tiny graphs do not
            // thrash the cursor and huge graphs cannot stall the barrier on one claim.
            morsel_size: (scan_edges.len() / (workers * MORSELS_PER_WORKER))
                .clamp(MIN_MORSEL_EDGES, MAX_MORSEL_EDGES),
            next_edge: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            limit,
            produced: AtomicU64::new(0),
            heavy: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
        };
        // Forkable sinks (aggregation, projection) give every worker an empty twin, so the
        // per-match path never synchronises; all workers fork or none does.
        let forks = if needs_tuples && workers > 1 {
            workers
        } else {
            0
        };
        let mut twins: Vec<_> = (0..forks).map_while(|_| sink.fork_partial()).collect();
        let channel = twins.len() < forks;
        let mut clones: Vec<_> = (1..workers).map(|_| pipeline.clone()).collect();
        let run = |pipeline: &mut CompiledPipeline, worker_sink| {
            run_worker(pipeline, graph, width, options, shared, worker_sink)
        };
        let (results, undelivered) = std::thread::scope(|scope| {
            if channel {
                // Two batches in flight per worker; a full channel blocks its producers.
                let (tx, rx) = sync_channel(2 * workers);
                let handles: Vec<_> = (std::iter::once(&mut *pipeline).chain(&mut clones))
                    .map(|pipeline| {
                        let tx = tx.clone();
                        scope.spawn(move || run(pipeline, WorkerSink::Channel(tx)))
                    })
                    .collect();
                drop(tx);
                let undelivered = consume(rx, sink, width, &shared.stop);
                (join(handles), undelivered)
            } else {
                let handles: Vec<_> = (clones.iter_mut())
                    .map(|clone| {
                        let twin = twins.pop();
                        scope.spawn(move || {
                            run(clone, twin.map_or(WorkerSink::Count, WorkerSink::Partial))
                        })
                    })
                    .collect();
                let own_sink = match twins.pop() {
                    Some(twin) => WorkerSink::Partial(twin),
                    None if needs_tuples => WorkerSink::Direct(sink),
                    None => WorkerSink::Count,
                };
                let mut results = vec![run(pipeline, own_sink)];
                results.extend(join(handles));
                (results, 0)
            }
        });
        for clone in &clones {
            pipeline.absorb(clone);
        }
        let mut rejected = undelivered;
        for result in results {
            stats.merge(&result.stats);
            rejected += result.rejected;
            if let Some(partial) = result.partial {
                // Merge order must not matter, and for the provided sinks it does not.
                sink.absorb_partial(partial);
            }
        }
        // Rejected tuples were booked as outputs by the emitting (last) operator.
        pipeline.emitter_mut().outputs -= rejected;
    }
    if !needs_tuples {
        sink.on_count(pipeline.emitter_mut().outputs);
    }
    stats
}

/// Join every worker, re-raising a worker's panic with its own payload.
fn join<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    (handles.into_iter())
        .map(|handle| handle.join().unwrap_or_else(|e| resume_unwind(e)))
        .collect()
}

/// The calling thread's side of a channel run: hand every tuple the workers send to `sink`, in
/// arrival order, until the sink declines. Then raise `stop` and only count what still arrives
/// until every worker has hung up. Returns that count.
fn consume(
    rx: Receiver<Vec<VertexId>>,
    sink: &mut dyn MatchSink,
    width: usize,
    stop: &AtomicBool,
) -> u64 {
    // Tuples from the one the sink declined on, which it saw, onwards.
    let mut past_decline: u64 = 0;
    for batch in rx {
        for tuple in batch.chunks_exact(width) {
            if past_decline > 0 || !sink.on_match(tuple) {
                past_decline += 1;
                stop.store(true, Ordering::Relaxed);
            }
        }
    }
    past_decline.saturating_sub(1)
}

/// Scatter a pipeline-layout tuple into query-vertex order.
#[inline]
fn reorder(out_layout: &[usize], tuple: &[VertexId], ordered: &mut [VertexId]) {
    for (pos, &qv) in out_layout.iter().enumerate() {
        ordered[qv] = tuple[pos];
    }
}

/// Wrap a worker's `deliver` step in what every result tuple passes first and last: claiming
/// an output slot under a limit, and the shared stop flag. Slots at or beyond the limit are
/// discarded, so exactly min(limit, total matches) tuples are delivered at any worker count.
/// Generic so that `deliver` is inlined: the stage loops then pay one indirect call per result
/// tuple into a closure that holds only what its kind of sink needs.
fn gated<'a>(
    shared: &'a Shared<'a>,
    rejected: &'a Cell<u64>,
    mut deliver: impl FnMut(&[VertexId]) -> bool + 'a,
) -> impl FnMut(&[VertexId]) -> bool + 'a {
    move |tuple| {
        let mut last_slot = false;
        if let Some(limit) = shared.limit {
            let slot = if shared.workers == 1 {
                // Nobody to race with: a plain increment, no locked instruction per tuple.
                let slot = shared.produced.load(Ordering::Relaxed);
                shared.produced.store(slot + 1, Ordering::Relaxed);
                slot
            } else {
                shared.produced.fetch_add(1, Ordering::Relaxed)
            };
            if slot >= limit {
                rejected.set(rejected.get() + 1);
                shared.stop.store(true, Ordering::Relaxed);
                return false;
            }
            last_slot = slot + 1 == limit;
        }
        if !deliver(tuple) || last_slot {
            shared.stop.store(true, Ordering::Relaxed);
            return false;
        }
        // Another worker may have ended the run; notice within one result.
        !shared.stop.load(Ordering::Relaxed)
    }
}

impl Shared<'_> {
    fn heavy_queue(&self) -> std::sync::MutexGuard<'_, Vec<HeavyTask>> {
        self.heavy
            .lock()
            .expect("a worker panicked holding the heavy queue")
    }
}

/// Publish the `tail` of a heavy first-stage extension set as stealable segments of
/// `HEAVY_SEGMENT` candidates. The stage's cached set is left whole, so a following tuple that
/// cache-hits it still sees every candidate.
fn publish_heavy_tail(
    stage: &ExtendStage,
    tuple: &[VertexId],
    tail: std::ops::Range<usize>,
    shared: &Shared<'_>,
) {
    let segments: Vec<HeavyTask> = tail
        .clone()
        .step_by(HEAVY_SEGMENT)
        .map(|s| HeavyTask {
            tuple: tuple.to_vec(),
            candidates: (s..(s + HEAVY_SEGMENT).min(tail.end))
                .map(|i| stage.cache_set_value(i))
                .collect(),
        })
        .collect();
    shared.heavy_queue().extend(segments);
}

/// Raises `stop` if its worker panics, so the others end their runs instead of waiting on a
/// producer that is gone.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// One worker: pick, once, the closure that suits its [`WorkerSink`], run the morsel loop into
/// it, and hand back what the join barrier needs.
fn run_worker<G: GraphView>(
    pipeline: &mut CompiledPipeline,
    graph: &G,
    width: usize,
    options: &ExecOptions,
    shared: &Shared<'_>,
    sink: WorkerSink<'_>,
) -> WorkerResult {
    let CompiledPipeline {
        scan,
        stages,
        out_layout,
    } = pipeline;
    let out_layout = &out_layout[..];
    let rejected = &Cell::new(0);
    // Reorder scratch, one slot per query vertex (`width` of them).
    let mut ordered = vec![0; width];
    let mut partial = None;
    // Each worker has its own interrupt countdown and flags; the cancellation token and
    // deadline inside are shared, so one cancel() stops every worker.
    let interrupt = options.interrupt();
    let interrupt = interrupt.as_ref();
    let _stop_on_panic = StopOnPanic(&shared.stop);
    let mut morsels = |on_result: &mut dyn FnMut(&[VertexId]) -> bool| {
        run_morsels(scan, stages, graph, interrupt, shared, on_result)
    };
    let stats = match sink {
        WorkerSink::Count => morsels(&mut gated(shared, rejected, |_| true)),
        WorkerSink::Direct(sink) => morsels(&mut gated(shared, rejected, |tuple| {
            reorder(out_layout, tuple, &mut ordered);
            sink.on_match(&ordered)
        })),
        WorkerSink::Partial(mut twin) => {
            // A partial stops only when it alone already holds everything the merge needs
            // (e.g. an unordered LIMIT filled), so the whole run can stop.
            let stats = morsels(&mut gated(shared, rejected, |tuple| {
                reorder(out_layout, tuple, &mut ordered);
                twin.on_match(&ordered)
            }));
            partial = Some(twin);
            stats
        }
        WorkerSink::Channel(tx) => {
            let capacity = SINK_BATCH_TUPLES * width;
            let mut batch = Vec::with_capacity(capacity);
            // A failed send means the calling thread is gone (its sink panicked): stop.
            let stats = morsels(&mut gated(shared, rejected, |tuple| {
                let base = batch.len();
                batch.resize(base + width, 0);
                reorder(out_layout, tuple, &mut batch[base..]);
                batch.len() < capacity
                    || (tx.send(std::mem::replace(&mut batch, Vec::with_capacity(capacity))))
                        .is_ok()
            }));
            // Every buffered tuple holds a valid output slot, however the worker stopped.
            if !batch.is_empty() {
                let _ = tx.send(batch);
            }
            stats
        }
    };
    WorkerResult {
        stats,
        partial,
        rejected: rejected.get(),
    }
}

/// The morsel loop: drain stolen heavy segments, else claim the next scan morsel, until the
/// run stops or all work is done.
fn run_morsels<G: GraphView>(
    scan: &mut ScanStage,
    stages: &mut [Stage],
    graph: &G,
    interrupt: Option<&crate::cancel::Interrupt>,
    shared: &Shared<'_>,
    on_result: &mut dyn FnMut(&[VertexId]) -> bool,
) -> RuntimeStats {
    let mut stats = RuntimeStats::default();
    let run_t0 = scan.timed.then(Instant::now);
    let stop = &shared.stop;
    let scan_edges = shared.scan_edges;
    let mut tuple: Vec<VertexId> = Vec::new();
    let mut scan_done = false;
    loop {
        // A tripped interrupt (cancellation or deadline) stops this worker; raise the shared
        // flag so the others stop promptly too.
        if let Some(interrupt) = interrupt {
            stats.cancelled = interrupt.cancelled();
            stats.timed_out = interrupt.timed_out();
        }
        if stats.cancelled || stats.timed_out {
            stop.store(true, Ordering::Relaxed);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Prefer stolen heavy segments over new morsels: they exist precisely because another
        // worker hit a hub, and finishing them first keeps the skewed subtree spread across
        // the pool. (Popped in its own statement, so the queue is unlocked while it runs.)
        let task = shared.heavy_queue().pop();
        if let Some(task) = task {
            shared.active.fetch_add(1, Ordering::SeqCst);
            tuple.clear();
            tuple.extend_from_slice(&task.tuple);
            let Stage::Extend(first) = &mut stages[0] else {
                unreachable!("heavy tasks target an EXTEND first stage")
            };
            first.install_candidates(&task.candidates);
            run_extend_candidates(
                stages,
                graph,
                &mut tuple,
                0..task.candidates.len(),
                interrupt,
                on_result,
            );
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if !scan_done {
            let lo = shared
                .next_edge
                .fetch_add(shared.morsel_size, Ordering::Relaxed);
            if lo >= scan_edges.len() {
                scan_done = true;
                continue;
            }
            shared.active.fetch_add(1, Ordering::SeqCst);
            let hi = (lo + shared.morsel_size).min(scan_edges.len());
            for &(u, v, l) in &scan_edges[lo..hi] {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(interrupt) = interrupt {
                    if interrupt.should_stop() {
                        break;
                    }
                }
                if !scan.admit(graph, u, v, l) {
                    continue;
                }
                tuple.clear();
                tuple.push(u);
                tuple.push(v);
                if stages.is_empty() {
                    scan.counters.outputs += 1;
                    if !on_result(&tuple) {
                        break;
                    }
                    continue;
                }
                scan.counters.tuples_out += 1;
                // Second-level split point: a first-stage EXTEND whose set fans into further
                // stages, with other workers to share it with. (A final-stage set is never
                // split: its per-candidate work is a counter bump or batch append — and under
                // COUNT(*) it is bulk-added inside `run_stages` without touching the
                // candidates.)
                let splittable = shared.workers > 1 && stages.len() > 1;
                let keep_going = if let (true, Stage::Extend(first)) = (splittable, &mut stages[0])
                {
                    let set_len = first.extension_set(graph, &tuple).len();
                    let mut keep = set_len;
                    if set_len >= HEAVY_SPLIT_MIN {
                        // Keep one segment; the other workers take the rest.
                        keep = HEAVY_SEGMENT;
                        publish_heavy_tail(first, &tuple, keep..set_len, shared);
                        stats.heavy_splits += 1;
                    }
                    run_extend_candidates(stages, graph, &mut tuple, 0..keep, interrupt, on_result)
                } else {
                    run_stages(stages, graph, &mut tuple, interrupt, on_result)
                };
                if !keep_going {
                    break;
                }
            }
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        // Scan drained and the heavy queue observed empty: exit once no producer can publish
        // more segments. Segments are published while `active` > 0 and the queue mutex orders
        // the publish against the drain, so re-checking the queue after observing zero active
        // workers is conclusive.
        if shared.active.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        } else if shared.heavy_queue().is_empty() {
            break;
        }
    }
    scan.counters.add_elapsed(run_t0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::count;
    use graphflow_catalog::{count_matches, Catalogue};
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_plan::cost::CostModel;
    use graphflow_plan::dp::DpOptimizer;
    use graphflow_plan::wco::wco_plan_for_ordering;
    use graphflow_query::patterns;
    use std::sync::Arc;

    fn random_graph() -> Arc<Graph> {
        let edges = graphflow_graph::generator::powerlaw_cluster(500, 4, 0.6, 21);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        Arc::new(b.build())
    }

    fn limited(limit: u64) -> ExecOptions {
        ExecOptions {
            output_limit: Some(limit),
            ..Default::default()
        }
    }

    /// The per-node records of a profiled run, candidate steps included, sum to the run's
    /// totals — the contract `tests/observability.rs` checks on complete runs, here for runs
    /// that end early.
    fn assert_profile_sums_to_totals(label: &str, stats: &RuntimeStats) {
        assert!(
            !stats.profile.is_empty(),
            "{label}: profiled run files records"
        );
        let sum = |pick: fn(&crate::OpCounters) -> u64| -> u64 {
            (stats.profile.iter())
                .flat_map(|n| {
                    [&n.counters]
                        .into_iter()
                        .chain(n.candidates.iter().flat_map(|c| &c.steps))
                })
                .map(pick)
                .sum()
        };
        assert_eq!(sum(|c| c.icost), stats.icost, "{label}: i-cost");
        assert_eq!(
            sum(|c| c.tuples_out),
            stats.intermediate_tuples,
            "{label}: intermediate tuples"
        );
        assert_eq!(sum(|c| c.outputs), stats.output_count, "{label}: outputs");
        assert_eq!(sum(|c| c.cache_hits), stats.cache_hits, "{label}: hits");
        assert_eq!(
            sum(|c| c.cache_misses),
            stats.cache_misses,
            "{label}: misses"
        );
    }

    /// What must not depend on `ExecOptions::profile`: everything but the records and the
    /// clock.
    fn counters_of(mut stats: RuntimeStats) -> RuntimeStats {
        stats.profile = Vec::new();
        stats.elapsed = std::time::Duration::ZERO;
        stats
    }

    #[test]
    fn every_worker_count_and_stage_kind_matches_the_reference() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        for j in [1usize, 4, 6, 8] {
            let q = patterns::benchmark_query(j);
            let expected = count_matches(&g, &q);
            let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
            for threads in [1usize, 2, 4] {
                for adaptive in [None, Some(&cat)] {
                    let out = count(&g, &plan, adaptive, threads, ExecOptions::default());
                    assert_eq!(
                        out.count,
                        expected,
                        "Q{j}, {threads} threads, adaptive {}",
                        adaptive.is_some()
                    );
                }
            }
        }
    }

    /// The output limit is **exact**, not approximate: workers claim output slots from one
    /// shared atomic counter, so exactly `min(limit, total matches)` tuples are counted and
    /// delivered at any thread count (not `limit × threads` as per-worker limit checks would
    /// give).
    #[test]
    fn parallel_output_limit_is_exact() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let full = execute(&g, &plan).count;
        assert!(full > 50, "graph must have enough triangles for the test");
        for threads in [1usize, 2, 4, 8] {
            let out = count(&g, &plan, None, threads, limited(50));
            assert_eq!(out.count, 50, "{threads} threads");
        }
        // The same exact cut-off holds when tuples are streamed to a sink.
        let mut sink = crate::sink::CollectingSink::new(usize::MAX);
        let stats = execute_with_sink(&g, &plan, None, 4, limited(50), &mut sink);
        assert_eq!(stats.output_count, 50);
        assert_eq!(sink.into_tuples().len(), 50);
        // Degenerate limits behave: zero delivers nothing, a huge limit delivers everything.
        assert_eq!(count(&g, &plan, None, 4, limited(0)).count, 0);
        assert_eq!(count(&g, &plan, None, 4, limited(u64::MAX)).count, full);
    }

    #[test]
    fn parallel_sink_sees_every_tuple() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let expected = execute(&g, &plan).count;
        let mut sink = crate::sink::CollectingSink::new(usize::MAX);
        let stats = execute_with_sink(&g, &plan, None, 4, ExecOptions::default(), &mut sink);
        assert_eq!(stats.output_count, expected);
        let mut tuples = sink.into_tuples();
        assert_eq!(tuples.len(), expected as usize);
        // Every streamed tuple is a genuine triangle, in query-vertex order.
        for t in &tuples {
            assert!(g.has_edge(t[0], t[1], graphflow_graph::EdgeLabel(0)));
            assert!(g.has_edge(t[1], t[2], graphflow_graph::EdgeLabel(0)));
            assert!(g.has_edge(t[0], t[2], graphflow_graph::EdgeLabel(0)));
        }
        // And the tuple *set* matches the one-worker run exactly.
        let mut serial_sink = crate::sink::CollectingSink::new(usize::MAX);
        execute_with_sink(&g, &plan, None, 1, ExecOptions::default(), &mut serial_sink);
        let mut serial_tuples = serial_sink.into_tuples();
        tuples.sort_unstable();
        serial_tuples.sort_unstable();
        assert_eq!(tuples, serial_tuples);
    }

    /// A sink that accepts `limit` tuples, declines on the one after, and panics if any tuple
    /// arrives once it has declined — the sink contract the driver must uphold.
    struct RejectingSink {
        limit: usize,
        seen: usize,
        declined: bool,
    }

    impl MatchSink for RejectingSink {
        fn on_match(&mut self, _tuple: &[VertexId]) -> bool {
            assert!(!self.declined, "tuple delivered after the sink declined");
            self.seen += 1;
            if self.seen >= self.limit {
                self.declined = true;
                return false;
            }
            true
        }
    }

    /// Regression test for the end-of-worker flush delivering buffered tuples after another
    /// worker's sink already returned `false`: with many threads racing batches into a sink
    /// that declines mid-run, no tuple may reach the sink after the decline, and the counted
    /// outputs must equal exactly the tuples the sink accepted plus the declined one. One
    /// worker (direct delivery) obeys the same contract.
    #[test]
    fn no_tuple_reaches_a_sink_after_it_declines() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        assert!(
            execute(&g, &plan).count > 50,
            "need enough matches to decline mid-run"
        );
        for threads in [1usize, 4, 8] {
            let run = |profile: bool| {
                let mut sink = RejectingSink {
                    limit: 40,
                    seen: 0,
                    declined: false,
                };
                let options = ExecOptions {
                    profile,
                    ..Default::default()
                };
                let stats = execute_with_sink(&g, &plan, None, threads, options, &mut sink);
                // The sink saw exactly `limit` tuples (the last of which it declined on), and
                // the run's output count matches what was actually delivered.
                assert_eq!(sink.seen, 40, "{threads} threads");
                assert!(sink.declined);
                assert_eq!(stats.output_count, 40, "{threads} threads");
                stats
            };
            // Tuples buffered behind the decline (the `Batched` path at several workers) come
            // off the emitting operator, so the per-node records still sum to the totals.
            let (off, on) = (run(false), run(true));
            assert_profile_sums_to_totals(&format!("{threads} threads"), &on);
            if threads == 1 {
                // One worker does the same work every time.
                assert_eq!(counters_of(on), counters_of(off));
            }
        }
    }

    /// A sink that is not `Send` (it holds an `Rc`) and checks that every tuple reaches it on
    /// the thread that created it; declines on its `decline_at`-th tuple.
    struct CallerOnlySink {
        creator: std::thread::ThreadId,
        seen: std::rc::Rc<Cell<u64>>,
        decline_at: u64,
    }

    impl MatchSink for CallerOnlySink {
        fn on_match(&mut self, _tuple: &[VertexId]) -> bool {
            assert_eq!(
                std::thread::current().id(),
                self.creator,
                "sink left its thread"
            );
            self.seen.set(self.seen.get() + 1);
            self.seen.get() != self.decline_at
        }
    }

    /// Only the calling thread touches a sink that needs tuples and cannot fork, at any
    /// worker count, whether the run goes to the end or the sink declines mid-run; the run
    /// counts exactly the tuples the sink saw.
    #[test]
    fn only_the_caller_touches_a_non_forkable_sink() {
        // Large enough that the spawned workers get morsels before one worker could finish.
        let mut b = GraphBuilder::new();
        b.add_edges(graphflow_graph::generator::powerlaw_cluster(
            4000, 4, 0.6, 21,
        ));
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g.clone());
        let plan = DpOptimizer::new(&cat)
            .optimize(&patterns::asymmetric_triangle())
            .unwrap();
        let full = execute(&g, &plan).count;
        for threads in [1usize, 2, 4, 8] {
            for decline_at in [u64::MAX, 40] {
                let seen = std::rc::Rc::new(Cell::new(0));
                let mut sink = CallerOnlySink {
                    creator: std::thread::current().id(),
                    seen: seen.clone(),
                    decline_at,
                };
                let stats =
                    execute_with_sink(&g, &plan, None, threads, ExecOptions::default(), &mut sink);
                let label = format!("{threads} threads, decline at {decline_at}");
                assert_eq!(seen.get(), full.min(decline_at), "{label}");
                assert_eq!(stats.output_count, seen.get(), "{label}");
            }
        }
    }

    /// A forkable sink whose twins panic with a known message on any thread but their
    /// creator's. The twin on the calling thread holds its first tuple until a spawned twin
    /// has panicked, so the spawned workers get work to panic on.
    struct PanickingTwins {
        creator: std::thread::ThreadId,
        panicked: Arc<AtomicBool>,
    }

    impl MatchSink for PanickingTwins {
        fn on_match(&mut self, _tuple: &[VertexId]) -> bool {
            if std::thread::current().id() != self.creator {
                self.panicked.store(true, Ordering::Relaxed);
                panic!("twin panicked on a spawned worker");
            }
            let waiting = Instant::now();
            while !self.panicked.load(Ordering::Relaxed)
                && waiting.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            true
        }

        fn fork_partial(&self) -> Option<Box<dyn PartialSink>> {
            Some(Box::new(PanickingTwins {
                creator: self.creator,
                panicked: self.panicked.clone(),
            }))
        }
    }

    impl PartialSink for PanickingTwins {
        fn on_match(&mut self, tuple: &[VertexId]) -> bool {
            MatchSink::on_match(self, tuple)
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// A worker's panic reaches the caller with the worker's own message.
    #[test]
    #[should_panic(expected = "twin panicked on a spawned worker")]
    fn a_worker_panic_keeps_its_message() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let plan = DpOptimizer::new(&cat)
            .optimize(&patterns::asymmetric_triangle())
            .unwrap();
        let mut sink = PanickingTwins {
            creator: std::thread::current().id(),
            panicked: Arc::default(),
        };
        execute_with_sink(&g, &plan, None, 4, ExecOptions::default(), &mut sink);
    }

    /// Counts what it is given and cancels `token` on seeing its `after`-th tuple.
    struct CancellingSink {
        token: crate::CancellationToken,
        after: u64,
        seen: u64,
    }

    impl MatchSink for CancellingSink {
        fn on_match(&mut self, _tuple: &[VertexId]) -> bool {
            self.seen += 1;
            if self.seen == self.after {
                self.token.cancel();
            }
            true
        }
    }

    /// A run stopped by its interrupt says why, delivers what it counted — tuples a worker
    /// still held in its batch when it was interrupted come off the emitting operator — and
    /// keeps one set of books. Stopped before any work (token cancelled up front, deadline
    /// already passed), every worker count does the same nothing, and on a hybrid plan the
    /// flag comes up from the hash-join build side, whose empty table keeps the probe side
    /// from running at all.
    #[test]
    fn interrupted_runs_report_why_and_count_the_same_with_profiling_on_or_off() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let triangle = DpOptimizer::new(&cat)
            .optimize(&patterns::asymmetric_triangle())
            .unwrap();
        let q = patterns::benchmark_query(8);
        let left = graphflow_plan::wco::wco_node_for_ordering(&q, &[0, 1, 2]).unwrap();
        let right = graphflow_plan::wco::wco_node_for_ordering(&q, &[2, 3, 4]).unwrap();
        let join = graphflow_plan::plan::PlanNode::hash_join(&q, left, right).unwrap();
        let hybrid = Plan::new(q, join, 0.0);
        // (why, cancel on the n-th delivered tuple, deadline)
        let stops = [
            ("cancelled up front", Some(0), None),
            ("cancelled mid-run", Some(40), None),
            ("deadline passed", None, Some(Instant::now())),
        ];
        for (why, cancel_after, deadline) in stops {
            for (shape, plan) in [("wco", &triangle), ("hybrid", &hybrid)] {
                for threads in [1usize, 4] {
                    let label = format!("{why}, {shape}, {threads} threads");
                    let run = |profile: bool| {
                        let token = crate::CancellationToken::new();
                        if cancel_after == Some(0) {
                            token.cancel();
                        }
                        let options = ExecOptions {
                            cancel: Some(token.clone()),
                            deadline,
                            profile,
                            ..Default::default()
                        };
                        let mut sink = CancellingSink {
                            token,
                            after: cancel_after.unwrap_or(u64::MAX),
                            seen: 0,
                        };
                        let stats = execute_with_sink(&g, plan, None, threads, options, &mut sink);
                        assert_eq!(stats.cancelled, cancel_after.is_some(), "{label}");
                        assert_eq!(stats.timed_out, deadline.is_some(), "{label}");
                        assert_eq!(stats.output_count, sink.seen, "{label}: outputs delivered");
                        stats
                    };
                    let (off, on) = (run(false), run(true));
                    assert_profile_sums_to_totals(&label, &on);
                    // Several workers racing towards a mid-run cancel split the work
                    // differently every time; every other case repeats exactly.
                    if threads == 1 || cancel_after != Some(40) {
                        assert_eq!(counters_of(on), counters_of(off), "{label}");
                    }
                }
            }
        }
    }

    /// Two-level morsel scheduling on a hub-heavy graph: a handful of scan edges lead to a hub
    /// whose extension set holds thousands of candidates — with scan-level chunking alone, all
    /// of that work serializes on whichever worker claims those edges. The scheduler must
    /// split the hub's extension set into shared segments (observable via `heavy_splits`)
    /// while producing exactly the one-worker counts at every thread count.
    #[test]
    fn skewed_graph_parallel_counts_match_serial() {
        // 8 anchors -> hub, hub -> 2000 spokes, every spoke -> 3 shared tails.
        let hub: VertexId = 0;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for a in 1..=8 {
            edges.push((a, hub));
        }
        let spokes: Vec<VertexId> = (100..2100).collect();
        for &s in &spokes {
            edges.push((hub, s));
            for t in 0..3 {
                edges.push((s, 3000 + t));
            }
        }
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let g = Arc::new(b.build());
        // Path a -> b -> c -> d, planned so the scan matches the (anchor, hub) edges and the
        // first E/I extends through the hub's 2000-candidate adjacency list.
        let q = patterns::directed_path(4);
        let scan_edge = q.edges()[0];
        let root = graphflow_plan::plan::PlanNode::scan(scan_edge);
        let root = graphflow_plan::plan::PlanNode::extend(&q, root, 2).unwrap();
        let root = graphflow_plan::plan::PlanNode::extend(&q, root, 3).unwrap();
        let plan = graphflow_plan::plan::Plan::new(q, root, 0.0);
        for threads in [1usize, 2, 4, 8] {
            let out = count(&g, &plan, None, threads, ExecOptions::default());
            assert_eq!(out.count, 8 * 2000 * 3, "{threads} threads");
            if threads > 1 {
                // The hub's extension sets were actually split into stealable segments.
                assert!(
                    out.stats.heavy_splits > 0,
                    "{threads} threads: expected heavy splits on the hub"
                );
            } else {
                assert_eq!(out.stats.heavy_splits, 0, "single thread never splits");
            }
        }
    }

    /// The one-worker case of the driver does exactly the work the serial executor it replaced
    /// did: the literals were recorded from that executor (the commit before the executors
    /// were unified) on the same seeded graph.
    #[test]
    fn one_worker_stats_match_the_former_serial_executor() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let plan = DpOptimizer::new(&cat)
            .optimize(&patterns::diamond_x())
            .unwrap();
        let stats = execute(&g, &plan).stats;
        assert_eq!(stats.output_count, 20262);
        assert_eq!(stats.icost, 90813);
        assert_eq!(stats.intermediate_tuples, 9716);
        assert_eq!(stats.cache_hits, 0);
        // An ordering whose final extension reads only (a2, a3), so the cache does hit; the
        // adaptive compilation of the same plan recorded identical numbers.
        let q = patterns::symmetric_diamond_x();
        let plan = wco_plan_for_ordering(&q, &cat, &CostModel::default(), &[1, 2, 0, 3]).unwrap();
        for adaptive in [None, Some(&cat)] {
            let stats = count(&g, &plan, adaptive, 1, ExecOptions::default()).stats;
            assert_eq!(stats.output_count, 180);
            assert_eq!(stats.icost, 320);
            assert_eq!(stats.intermediate_tuples, 80);
            assert_eq!(stats.cache_hits, 40);
        }
    }
}
