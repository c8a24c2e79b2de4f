//! Streaming projection and aggregation sinks compiled from a `RETURN` clause.
//!
//! A [`ReturnClause`] is compiled into a [`RowSpec`] (how to turn one match tuple into one
//! output row) and executed by one of two sinks:
//!
//! * [`ProjectingSink`] — no aggregates: rows stream out, optionally de-duplicated
//!   (`DISTINCT`), kept in a bounded **top-K heap** (`ORDER BY` + `LIMIT`) or truncated
//!   (`LIMIT` alone, which also stops execution early);
//! * [`AggregatingSink`] — at least one aggregate: non-aggregate items become **group keys**
//!   (Cypher semantics) and each group folds its `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` accumulators
//!   incrementally, so the match set is never buffered — memory is O(groups), not O(matches).
//!
//! Both sinks implement [`MatchSink::fork_partial`]: the driver hands each of several workers
//! an empty twin that folds its share of the matches **thread-locally**, and the partials are
//! merged once at the join barrier. A `RETURN COUNT(*)` clause reports
//! `needs_tuples() == false`, composing with the executors' counting fast path (and the
//! planner's bulk-count shortcut at an E/I or HASH-JOIN root) so no per-match tuple is ever
//! materialised.

use crate::sink::{MatchSink, PartialSink};
use graphflow_graph::{EdgeLabel, GraphView, PropValue, VertexId};
use graphflow_query::returns::{AggFunc, OrderKey, ReturnClause, ReturnExpr, SortDir};
use graphflow_query::QueryGraph;
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One output cell: a typed property value, or `None` for a missing value (a property the
/// matched element does not carry, or an aggregate over an empty input). Vertex variables
/// surface as [`PropValue::Int`] holding the data-vertex id.
pub type Value = Option<PropValue>;

/// One output row, with one [`Value`] per `RETURN` item (star projections expand to one value
/// per query vertex).
pub type Row = Vec<Value>;

/// How one item's raw value is extracted from a match tuple.
#[derive(Debug, Clone)]
enum Extract {
    /// `*` under `COUNT`: never evaluated, every match counts.
    Star,
    /// The data vertex bound to query vertex `i`, as an integer value.
    Vertex(usize),
    /// A property of the data vertex bound to query vertex `i`.
    VertexProp(usize, String),
    /// A property of the data edge matched by a query edge (endpoints + label resolved at
    /// compile time).
    EdgeProp {
        src: usize,
        dst: usize,
        label: EdgeLabel,
        key: String,
    },
}

impl Extract {
    fn compile(q: &QueryGraph, expr: &ReturnExpr) -> Extract {
        match expr {
            ReturnExpr::Star => Extract::Star,
            ReturnExpr::Vertex(v) => Extract::Vertex(*v),
            ReturnExpr::VertexProp(v, key) => Extract::VertexProp(*v, key.clone()),
            ReturnExpr::EdgeProp(e, key) => {
                let edge = q.edges()[*e];
                Extract::EdgeProp {
                    src: edge.src,
                    dst: edge.dst,
                    label: edge.label,
                    key: key.clone(),
                }
            }
        }
    }

    fn eval<G: GraphView>(&self, tuple: &[VertexId], graph: &G) -> Value {
        match self {
            Extract::Star => None,
            Extract::Vertex(i) => Some(PropValue::Int(tuple[*i] as i64)),
            Extract::VertexProp(i, key) => graph.vertex_prop(tuple[*i], key),
            Extract::EdgeProp {
                src,
                dst,
                label,
                key,
            } => graph.edge_prop(tuple[*src], tuple[*dst], *label, key),
        }
    }
}

/// One compiled `RETURN` item.
#[derive(Debug, Clone)]
struct ItemSpec {
    agg: Option<AggFunc>,
    distinct: bool,
    extract: Extract,
}

/// A `RETURN` clause compiled against a query: per-item extraction plus the row-level
/// modifiers (`DISTINCT`, `ORDER BY`, `LIMIT`).
#[derive(Debug, Clone)]
pub struct RowSpec {
    items: Vec<ItemSpec>,
    order_by: Vec<OrderKey>,
    distinct_rows: bool,
    limit: Option<usize>,
}

impl RowSpec {
    /// Compile a clause against the query it was parsed with. A lone `RETURN [DISTINCT] *`
    /// expands into one vertex item per query vertex.
    pub fn compile(q: &QueryGraph, clause: &ReturnClause) -> RowSpec {
        let items: Vec<ItemSpec> = if clause.is_star_only() {
            (0..q.num_vertices())
                .map(|v| ItemSpec {
                    agg: None,
                    distinct: false,
                    extract: Extract::Vertex(v),
                })
                .collect()
        } else {
            clause
                .items
                .iter()
                .map(|i| ItemSpec {
                    agg: i.agg,
                    distinct: i.distinct,
                    extract: Extract::compile(q, &i.expr),
                })
                .collect()
        };
        RowSpec {
            items,
            order_by: clause.order_by.clone(),
            distinct_rows: clause.distinct && !clause.is_star_only(),
            limit: clause.limit.map(|l| l as usize),
        }
    }

    /// Whether any compiled item aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(|i| i.agg.is_some())
    }

    /// Whether rows under this spec can be emitted one-by-one as matches arrive, in O(1)
    /// memory — no aggregation, no `ORDER BY` buffering, no `DISTINCT` de-duplication state.
    /// (`LIMIT` alone streams fine: [`RowStreamSink`] stops at the bound.) This is what lets
    /// a network server pipe a hundred-million-row result into a response body without
    /// materialising it.
    pub fn is_streamable(&self) -> bool {
        !self.has_aggregates() && self.order_by.is_empty() && !self.distinct_rows
    }

    /// The row limit carried by the compiled clause, if any.
    pub fn row_limit(&self) -> Option<usize> {
        self.limit
    }

    /// Evaluate `tuple` into `row`, replacing its contents and keeping its allocation.
    fn fill_row<G: GraphView>(&self, tuple: &[VertexId], graph: &G, row: &mut Row) {
        row.clear();
        row.extend(self.items.iter().map(|i| i.extract.eval(tuple, graph)));
    }
}

/// Compare two rows under an `ORDER BY` spec, with the whole row as a deterministic
/// tiebreaker. Missing values order before present ones on ascending keys (and after, on
/// descending), and mixed-type values follow the canonical [`PropValue`] total order.
fn cmp_rows(a: &Row, b: &Row, order: &[OrderKey]) -> Ordering {
    for key in order {
        let ord = a[key.item].cmp(&b[key.item]);
        let ord = match key.dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(b)
}

/// A row in the bounded top-K heap. The heap is a max-heap under the `ORDER BY` comparator,
/// so its top is the *worst* retained row — the one evicted when a better row arrives.
struct HeapRow {
    row: Row,
    order: std::sync::Arc<[OrderKey]>,
}

impl PartialEq for HeapRow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapRow {}
impl PartialOrd for HeapRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRow {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_rows(&self.row, &other.row, &self.order)
    }
}

/// Streaming projection: `RETURN a, b.age` with optional `DISTINCT`, `ORDER BY` (+ top-K
/// heap when combined with `LIMIT`) and `LIMIT` (which stops execution early when no sort is
/// requested).
pub struct ProjectingSink<V> {
    view: V,
    spec: RowSpec,
    order: std::sync::Arc<[OrderKey]>,
    /// Rows already emitted, for `DISTINCT` row de-duplication.
    seen: FxHashSet<Row>,
    /// Unordered (or fully buffered ordered) rows.
    rows: Vec<Row>,
    /// The bounded heap used when `ORDER BY` and `LIMIT` are both present.
    heap: BinaryHeap<HeapRow>,
}

impl<V: GraphView> ProjectingSink<V> {
    /// Build a projecting sink over `view` for an aggregate-free compiled clause.
    ///
    /// # Panics
    /// Panics if the spec contains an aggregate (use [`AggregatingSink`]).
    pub fn new(view: V, spec: RowSpec) -> Self {
        assert!(
            !spec.has_aggregates(),
            "ProjectingSink is for aggregate-free RETURN clauses"
        );
        let order: std::sync::Arc<[OrderKey]> = spec.order_by.clone().into();
        ProjectingSink {
            view,
            spec,
            order,
            seen: FxHashSet::default(),
            rows: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn uses_heap(&self) -> bool {
        !self.spec.order_by.is_empty() && self.spec.limit.is_some()
    }

    /// Fold one projected row; returns `false` when execution may stop (unordered `LIMIT`
    /// filled).
    fn fold_row(&mut self, row: Row) -> bool {
        if self.spec.distinct_rows && !self.seen.insert(row.clone()) {
            return true;
        }
        if self.uses_heap() {
            let k = self.spec.limit.unwrap_or(usize::MAX);
            if k == 0 {
                return false;
            }
            if self.heap.len() < k {
                self.heap.push(HeapRow {
                    row,
                    order: self.order.clone(),
                });
            } else if let Some(worst) = self.heap.peek() {
                if cmp_rows(&row, &worst.row, &self.order) == Ordering::Less {
                    self.heap.pop();
                    self.heap.push(HeapRow {
                        row,
                        order: self.order.clone(),
                    });
                }
            }
            return true; // sorting needs the full stream
        }
        if self.spec.order_by.is_empty() {
            if let Some(limit) = self.spec.limit {
                if self.rows.len() >= limit {
                    return false;
                }
                self.rows.push(row);
                return self.rows.len() < limit;
            }
            self.rows.push(row);
            return true;
        }
        // ORDER BY without LIMIT: buffer everything, sort at the end.
        self.rows.push(row);
        true
    }

    /// Consume the sink, producing the final (sorted, de-duplicated, truncated) rows.
    pub fn finish(mut self) -> Vec<Row> {
        let mut rows = if self.uses_heap() {
            self.heap
                .into_sorted_vec()
                .into_iter()
                .map(|h| h.row)
                .collect()
        } else {
            if !self.spec.order_by.is_empty() {
                let order = self.order.clone();
                self.rows.sort_unstable_by(|a, b| cmp_rows(a, b, &order));
            }
            self.rows
        };
        if let Some(limit) = self.spec.limit {
            rows.truncate(limit);
        }
        rows
    }
}

impl<V: GraphView + Clone + Send + Sync + 'static> MatchSink for ProjectingSink<V> {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        let mut row = Row::with_capacity(self.spec.items.len());
        self.spec.fill_row(tuple, &self.view, &mut row);
        self.fold_row(row)
    }

    fn fork_partial(&self) -> Option<Box<dyn PartialSink>> {
        Some(Box::new(ProjectingSink::new(
            self.view.clone(),
            self.spec.clone(),
        )))
    }

    fn absorb_partial(&mut self, partial: Box<dyn PartialSink>) {
        let other = partial
            .into_any()
            .downcast::<ProjectingSink<V>>()
            .expect("partial forked from this sink");
        // Replay the partial's retained rows through the parent's fold so DISTINCT, the
        // top-K heap and LIMIT all re-apply globally.
        for row in other.finish() {
            self.fold_row(row);
        }
    }
}

impl<V: GraphView + Clone + Send + Sync + 'static> PartialSink for ProjectingSink<V> {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        MatchSink::on_match(self, tuple)
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Forwards each projected row to a callback the moment its match arrives — the O(1)-memory
/// delivery path behind streamed network responses. Only valid for
/// [streamable](RowSpec::is_streamable) specs; `LIMIT` is honoured by stopping execution at
/// the bound. Never forks partials: rows reach the callback in arrival order through one
/// consumer, the calling thread, to which parallel workers send their matches.
///
/// Every match is evaluated into one reused [`Row`], so a row of numbers costs no heap
/// allocation. The callback borrows that row for the duration of the call only; clone it to
/// keep it.
pub struct RowStreamSink<V, F: FnMut(&Row) -> bool> {
    view: V,
    spec: RowSpec,
    emit: F,
    /// The row each match is evaluated into before it is lent to `emit`.
    row: Row,
    /// Rows delivered to the callback so far.
    pub rows_emitted: u64,
}

impl<V: GraphView, F: FnMut(&Row) -> bool> RowStreamSink<V, F> {
    /// Build a streaming sink over `view` for a streamable compiled clause; each projected
    /// row is lent to `emit`, which returns `false` to stop execution early.
    ///
    /// # Panics
    /// Panics if the spec is not streamable (aggregates, `ORDER BY`, or `DISTINCT`).
    pub fn new(view: V, spec: RowSpec, emit: F) -> Self {
        assert!(
            spec.is_streamable(),
            "RowStreamSink requires a streamable RowSpec"
        );
        RowStreamSink {
            row: Row::with_capacity(spec.items.len()),
            view,
            spec,
            emit,
            rows_emitted: 0,
        }
    }
}

impl<V: GraphView, F: FnMut(&Row) -> bool> MatchSink for RowStreamSink<V, F> {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        if let Some(limit) = self.spec.limit {
            if self.rows_emitted >= limit as u64 {
                return false;
            }
        }
        self.spec.fill_row(tuple, &self.view, &mut self.row);
        self.rows_emitted += 1;
        let keep_going = (self.emit)(&self.row);
        match self.spec.limit {
            Some(limit) => keep_going && self.rows_emitted < limit as u64,
            None => keep_going,
        }
    }
}

/// The fold/merge comparison behind `MIN`/`MAX`: numeric comparison when the types coerce,
/// canonical total order otherwise — and total order again as the tiebreak when coercion
/// calls two *distinct* values equal (`Int(3)` vs `Float(3.0)`), so the winner never depends
/// on fold or partial-merge order.
fn fold_cmp(a: &PropValue, b: &PropValue) -> Ordering {
    match a.compare(b) {
        Some(Ordering::Equal) | None => a.cmp(b),
        Some(ord) => ord,
    }
}

/// `MIN`-style fold over two optional values.
fn fold_min(acc: &mut Value, v: PropValue) {
    let replace = match acc {
        None => true,
        Some(cur) => fold_cmp(&v, cur) == Ordering::Less,
    };
    if replace {
        *acc = Some(v);
    }
}

/// `MAX`-style fold, mirroring [`fold_min`].
fn fold_max(acc: &mut Value, v: PropValue) {
    let replace = match acc {
        None => true,
        Some(cur) => fold_cmp(&v, cur) == Ordering::Greater,
    };
    if replace {
        *acc = Some(v);
    }
}

fn numeric(v: &PropValue) -> Option<f64> {
    match v {
        PropValue::Int(i) => Some(*i as f64),
        PropValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// One incremental aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    /// `COUNT(*)` / `COUNT(x)`.
    Count(u64),
    /// `SUM(x)`: integers fold exactly until a float appears.
    Sum { int: i64, float: f64, floaty: bool },
    /// `MIN(x)`.
    Min(Value),
    /// `MAX(x)`.
    Max(Value),
    /// `AVG(x)`.
    Avg { sum: f64, n: u64 },
    /// Any `AGG(DISTINCT x)`: the distinct operand values, folded at finish time.
    Distinct(FxHashSet<PropValue>),
}

impl Acc {
    fn new(item: &ItemSpec) -> Acc {
        if item.distinct {
            return Acc::Distinct(FxHashSet::default());
        }
        match item
            .agg
            .expect("accumulators exist only for aggregate items")
        {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                floaty: false,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Fold one operand value (`None` = the match bound no value; only `COUNT(*)` counts it,
    /// and that case never reaches here — see [`AggregatingSink::on_match`]).
    fn fold(&mut self, value: Value) {
        match self {
            Acc::Count(n) => {
                if value.is_some() {
                    *n += 1;
                }
            }
            Acc::Sum { int, float, floaty } => match value {
                Some(PropValue::Int(i)) => *int += i,
                Some(PropValue::Float(f)) => {
                    *float += f;
                    *floaty = true;
                }
                _ => {}
            },
            Acc::Min(acc) => {
                if let Some(v) = value {
                    fold_min(acc, v);
                }
            }
            Acc::Max(acc) => {
                if let Some(v) = value {
                    fold_max(acc, v);
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = value.as_ref().and_then(numeric) {
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::Distinct(set) => {
                if let Some(v) = value {
                    set.insert(v);
                }
            }
        }
    }

    /// Merge a partial accumulator of the same shape (parallel barrier merge).
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (
                Acc::Sum { int, float, floaty },
                Acc::Sum {
                    int: i2,
                    float: f2,
                    floaty: fl2,
                },
            ) => {
                *int += i2;
                *float += f2;
                *floaty |= fl2;
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(v) = b {
                    fold_min(a, v);
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(v) = b {
                    fold_max(a, v);
                }
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::Distinct(a), Acc::Distinct(b)) => a.extend(b),
            _ => unreachable!("partials fold the same accumulator shapes"),
        }
    }

    /// The final value of this accumulator (applying the aggregate function to a distinct
    /// set where needed).
    fn finish(self, func: AggFunc) -> Value {
        match self {
            Acc::Count(n) => Some(PropValue::Int(n as i64)),
            Acc::Sum { int, float, floaty } => Some(if floaty {
                PropValue::Float(int as f64 + float)
            } else {
                PropValue::Int(int)
            }),
            Acc::Min(v) | Acc::Max(v) => v,
            Acc::Avg { sum, n } => (n > 0).then(|| PropValue::Float(sum / n as f64)),
            Acc::Distinct(set) => {
                let mut acc = Acc::new(&ItemSpec {
                    agg: Some(func),
                    distinct: false,
                    extract: Extract::Star,
                });
                if let Acc::Count(n) = &mut acc {
                    *n = set.len() as u64;
                    return Some(PropValue::Int(*n as i64));
                }
                for v in set {
                    acc.fold(Some(v));
                }
                acc.finish(func)
            }
        }
    }
}

/// Streaming grouped aggregation: `RETURN a, COUNT(*)`, `RETURN SUM(e.w)`, ... Non-aggregate
/// items are group keys; with none, one global group exists from the start (so aggregates
/// over zero matches still produce their empty-input row, Cypher style).
pub struct AggregatingSink<V> {
    view: V,
    spec: RowSpec,
    /// Item indices that are group keys / aggregates, in `RETURN` order.
    key_items: Vec<usize>,
    agg_items: Vec<usize>,
    /// Per-group accumulators, keyed by the evaluated key values.
    groups: FxHashMap<Row, Vec<Acc>>,
    /// `RETURN COUNT(*)` with no keys: the executors' counting fast path applies.
    count_star_only: bool,
}

impl<V: GraphView> AggregatingSink<V> {
    /// Build an aggregating sink over `view` for a compiled clause with at least one
    /// aggregate.
    ///
    /// # Panics
    /// Panics if the spec carries no aggregate (use [`ProjectingSink`]).
    pub fn new(view: V, spec: RowSpec) -> Self {
        assert!(
            spec.has_aggregates(),
            "AggregatingSink needs at least one aggregate item"
        );
        let key_items: Vec<usize> = (0..spec.items.len())
            .filter(|&i| spec.items[i].agg.is_none())
            .collect();
        let agg_items: Vec<usize> = (0..spec.items.len())
            .filter(|&i| spec.items[i].agg.is_some())
            .collect();
        let count_star_only = key_items.is_empty()
            && agg_items.len() == 1
            && matches!(
                &spec.items[agg_items[0]],
                ItemSpec {
                    agg: Some(AggFunc::Count),
                    distinct: false,
                    extract: Extract::Star,
                }
            );
        let mut sink = AggregatingSink {
            view,
            spec,
            key_items,
            agg_items,
            groups: FxHashMap::default(),
            count_star_only,
        };
        if sink.key_items.is_empty() {
            // The single global group exists even over zero matches.
            sink.ensure_group(Vec::new());
        }
        sink
    }

    fn fresh_accs(&self) -> Vec<Acc> {
        self.agg_items
            .iter()
            .map(|&i| Acc::new(&self.spec.items[i]))
            .collect()
    }

    fn ensure_group(&mut self, key: Row) {
        if !self.groups.contains_key(&key) {
            let accs = self.fresh_accs();
            self.groups.insert(key, accs);
        }
    }

    /// Consume the sink, producing the final rows (one per group, modifiers applied).
    pub fn finish(self) -> Vec<Row> {
        let AggregatingSink {
            spec,
            key_items,
            agg_items,
            groups,
            ..
        } = self;
        let mut rows: Vec<Row> = Vec::with_capacity(groups.len());
        for (key, accs) in groups {
            let mut row: Row = vec![None; spec.items.len()];
            for (slot, value) in key_items.iter().zip(key) {
                row[*slot] = value;
            }
            for (&slot, acc) in agg_items.iter().zip(accs) {
                let func = spec.items[slot].agg.expect("aggregate item");
                row[slot] = acc.finish(func);
            }
            rows.push(row);
        }
        if spec.distinct_rows {
            let mut seen = FxHashSet::default();
            rows.retain(|r| seen.insert(r.clone()));
        }
        if spec.order_by.is_empty() {
            // Deterministic output order across executors and thread counts.
            rows.sort_unstable();
        } else {
            rows.sort_unstable_by(|a, b| cmp_rows(a, b, &spec.order_by));
        }
        if let Some(limit) = spec.limit {
            rows.truncate(limit);
        }
        rows
    }
}

impl<V: GraphView + Clone + Send + Sync + 'static> MatchSink for AggregatingSink<V> {
    fn needs_tuples(&self) -> bool {
        !self.count_star_only
    }

    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        let key: Row = self
            .key_items
            .iter()
            .map(|&i| self.spec.items[i].extract.eval(tuple, &self.view))
            .collect();
        // Evaluate operand values before borrowing the group map mutably.
        let values: Vec<(Value, bool)> = self
            .agg_items
            .iter()
            .map(|&i| {
                let item = &self.spec.items[i];
                let star = matches!(item.extract, Extract::Star);
                let v = if star {
                    None
                } else {
                    item.extract.eval(tuple, &self.view)
                };
                (v, star)
            })
            .collect();
        let spec = &self.spec;
        let agg_items = &self.agg_items;
        let accs = self.groups.entry(key).or_insert_with(|| {
            agg_items
                .iter()
                .map(|&i| Acc::new(&spec.items[i]))
                .collect()
        });
        for (pos, (value, star)) in values.into_iter().enumerate() {
            if star {
                // COUNT(*) (the only star aggregate): every match counts.
                if let Acc::Count(n) = &mut accs[pos] {
                    *n += 1;
                }
            } else {
                accs[pos].fold(value);
            }
        }
        true
    }

    fn on_count(&mut self, n: u64) {
        debug_assert!(self.count_star_only, "bulk counts only for RETURN COUNT(*)");
        let accs = self
            .groups
            .get_mut(&Vec::new())
            .expect("global group exists");
        if let Acc::Count(c) = &mut accs[0] {
            *c += n;
        }
    }

    fn fork_partial(&self) -> Option<Box<dyn PartialSink>> {
        Some(Box::new(AggregatingSink::new(
            self.view.clone(),
            self.spec.clone(),
        )))
    }

    fn absorb_partial(&mut self, partial: Box<dyn PartialSink>) {
        let other = partial
            .into_any()
            .downcast::<AggregatingSink<V>>()
            .expect("partial forked from this sink");
        for (key, accs) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (mine, theirs) in e.get_mut().iter_mut().zip(accs) {
                        mine.merge(theirs);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
    }
}

impl<V: GraphView + Clone + Send + Sync + 'static> PartialSink for AggregatingSink<V> {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        MatchSink::on_match(self, tuple)
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::GraphBuilder;
    use graphflow_query::parse_query;
    use std::sync::Arc;

    /// Path 0->1->2 with ages 10/20/30 and edge weights 0.5/1.5.
    fn view() -> Arc<graphflow_graph::Graph> {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        for v in 0..3u32 {
            b.set_vertex_prop(v, "age", PropValue::Int(10 * (v as i64 + 1)))
                .unwrap();
        }
        b.set_edge_prop(0, 1, EdgeLabel(0), "w", PropValue::Float(0.5))
            .unwrap();
        b.set_edge_prop(1, 2, EdgeLabel(0), "w", PropValue::Float(1.5))
            .unwrap();
        Arc::new(b.build())
    }

    fn spec_for(text: &str) -> (RowSpec, graphflow_query::QueryGraph) {
        let q = parse_query(text).unwrap();
        let spec = RowSpec::compile(&q, q.return_clause().unwrap());
        (spec, q)
    }

    #[test]
    fn projection_evaluates_vertices_and_props() {
        let g = view();
        let (spec, _) = spec_for("(a)-[e]->(b) RETURN a, b.age, e.w");
        let mut sink = ProjectingSink::new(g, spec);
        assert!(MatchSink::on_match(&mut sink, &[0, 1]));
        assert!(MatchSink::on_match(&mut sink, &[1, 2]));
        let rows = sink.finish();
        assert_eq!(
            rows,
            vec![
                vec![
                    Some(PropValue::Int(0)),
                    Some(PropValue::Int(20)),
                    Some(PropValue::Float(0.5))
                ],
                vec![
                    Some(PropValue::Int(1)),
                    Some(PropValue::Int(30)),
                    Some(PropValue::Float(1.5))
                ],
            ]
        );
    }

    #[test]
    fn projection_distinct_order_and_topk() {
        let g = view();
        let (spec, _) = spec_for("(a)->(b) RETURN DISTINCT a.age ORDER BY a.age DESC LIMIT 1");
        let mut sink = ProjectingSink::new(g.clone(), spec);
        for t in [[0u32, 1], [0, 1], [1, 2]] {
            assert!(MatchSink::on_match(&mut sink, &t));
        }
        assert_eq!(sink.finish(), vec![vec![Some(PropValue::Int(20))]]);
        // Unordered LIMIT stops execution.
        let (spec, _) = spec_for("(a)->(b) RETURN a LIMIT 1");
        let mut sink = ProjectingSink::new(g, spec);
        assert!(!MatchSink::on_match(&mut sink, &[0, 1]), "limit filled");
        assert_eq!(sink.finish().len(), 1);
    }

    #[test]
    fn grouped_aggregates_fold_incrementally() {
        let g = view();
        let (spec, _) =
            spec_for("(a)-[e]->(b) RETURN a, COUNT(*), SUM(e.w), MIN(b.age), AVG(b.age)");
        let mut sink = AggregatingSink::new(g, spec);
        assert!(MatchSink::needs_tuples(&sink));
        for t in [[0u32, 1], [1, 2]] {
            assert!(MatchSink::on_match(&mut sink, &t));
        }
        let rows = sink.finish();
        assert_eq!(rows.len(), 2);
        // Sorted by key: group a=0 first.
        assert_eq!(rows[0][0], Some(PropValue::Int(0)));
        assert_eq!(rows[0][1], Some(PropValue::Int(1)));
        assert_eq!(rows[0][2], Some(PropValue::Float(0.5)));
        assert_eq!(rows[0][3], Some(PropValue::Int(20)));
        assert_eq!(rows[0][4], Some(PropValue::Float(20.0)));
    }

    #[test]
    fn count_star_only_uses_bulk_counts_and_empty_inputs_fold() {
        let g = view();
        let (spec, _) = spec_for("(a)->(b) RETURN COUNT(*)");
        let mut sink = AggregatingSink::new(g.clone(), spec);
        assert!(!MatchSink::needs_tuples(&sink));
        MatchSink::on_count(&mut sink, 41);
        MatchSink::on_count(&mut sink, 1);
        assert_eq!(sink.finish(), vec![vec![Some(PropValue::Int(42))]]);
        // Global aggregates over zero matches: COUNT = 0, SUM = 0, MIN/AVG missing.
        let (spec, _) = spec_for("(a)->(b) RETURN COUNT(b), SUM(b.age), MIN(b.age), AVG(b.age)");
        let sink = AggregatingSink::new(g, spec);
        assert_eq!(
            sink.finish(),
            vec![vec![
                Some(PropValue::Int(0)),
                Some(PropValue::Int(0)),
                None,
                None
            ]]
        );
    }

    #[test]
    fn distinct_aggregates_dedupe_operands() {
        let g = view();
        let (spec, _) = spec_for("(a)->(b) RETURN COUNT(DISTINCT b.age), SUM(DISTINCT b.age)");
        let mut sink = AggregatingSink::new(g, spec);
        for t in [[0u32, 1], [0, 1], [1, 2]] {
            MatchSink::on_match(&mut sink, &t);
        }
        assert_eq!(
            sink.finish(),
            vec![vec![Some(PropValue::Int(2)), Some(PropValue::Int(50))]]
        );
    }

    #[test]
    fn min_max_folds_are_order_independent() {
        use super::{fold_max, fold_min};
        // Coercion-equal but structurally distinct values: numeric comparison calls them
        // equal, so the canonical total order must break the tie the same way regardless of
        // fold (or parallel partial-merge) order.
        for (a, b) in [
            (PropValue::Int(3), PropValue::Float(3.0)),
            (PropValue::Float(-0.0), PropValue::Float(0.0)),
        ] {
            let mut m1 = None;
            fold_min(&mut m1, a.clone());
            fold_min(&mut m1, b.clone());
            let mut m2 = None;
            fold_min(&mut m2, b.clone());
            fold_min(&mut m2, a.clone());
            assert_eq!(m1, m2, "MIN of {a:?}/{b:?} must not depend on fold order");
            let mut x1 = None;
            fold_max(&mut x1, a.clone());
            fold_max(&mut x1, b.clone());
            let mut x2 = None;
            fold_max(&mut x2, b.clone());
            fold_max(&mut x2, a.clone());
            assert_eq!(x1, x2, "MAX of {a:?}/{b:?} must not depend on fold order");
            assert_ne!(m1, x1, "distinct values: min and max must differ");
        }
    }

    #[test]
    fn partials_fork_and_merge_like_a_single_fold() {
        let g = view();
        let (spec, _) = spec_for("(a)-[e]->(b) RETURN a, COUNT(*), SUM(e.w)");
        let mut main = AggregatingSink::new(g.clone(), spec.clone());
        let mut serial = AggregatingSink::new(g, spec);
        let tuples = [[0u32, 1], [1, 2], [0, 1], [1, 2], [1, 2]];
        // Serial fold.
        for t in &tuples {
            MatchSink::on_match(&mut serial, t);
        }
        // Split across two partials, merge at the barrier.
        let mut p1 = main.fork_partial().unwrap();
        let mut p2 = main.fork_partial().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            if i % 2 == 0 {
                p1.on_match(t);
            } else {
                p2.on_match(t);
            }
        }
        main.absorb_partial(p1);
        main.absorb_partial(p2);
        assert_eq!(main.finish(), serial.finish());
    }
}
