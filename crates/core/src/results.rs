//! What a run hands back: the raw-match [`QueryResult`] and the typed [`ResultSet`] produced
//! by `RETURN`-aware execution.

use graphflow_exec::{Row, RuntimeStats, Value};
use graphflow_graph::{PropValue, VertexId};
use graphflow_plan::PlanHandle;

/// The result of running a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Number of matches.
    pub count: u64,
    /// The plan that was executed (shared with the plan cache — cloning is a pointer copy).
    pub plan: PlanHandle,
    /// Runtime statistics (actual i-cost, intermediate matches, cache hits, plan-cache
    /// hit/miss, elapsed time).
    pub stats: RuntimeStats,
    /// Collected matches in query-vertex order (empty unless
    /// [`QueryOptions::collect_tuples`](crate::QueryOptions::collect_tuples) was requested).
    /// Backed by a [`CollectingSink`](crate::CollectingSink); for unbounded result sets stream
    /// through [`GraphflowDB::run_with_sink`](crate::GraphflowDB::run_with_sink) instead.
    pub tuples: Vec<Vec<VertexId>>,
}

/// The typed rows produced by executing a query's `RETURN` clause
/// ([`PreparedQuery::execute`](crate::PreparedQuery::execute)).
///
/// One row per output: a projection produces one row per (possibly de-duplicated, sorted,
/// truncated) match, an aggregation one row per group — and a global aggregate like
/// `RETURN COUNT(*)` exactly one row, reachable through the scalar accessors. Cells are
/// [`Value`]s: `Some(PropValue)` for a present value (vertex variables surface as
/// [`PropValue::Int`] holding the data-vertex id), `None` for a missing property or an
/// aggregate over an empty input.
///
/// ```
/// use graphflow_core::GraphflowDB;
/// use graphflow_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 2);
/// let db = GraphflowDB::from_graph(b.build());
/// let rs = db.query("(a)->(b), (b)->(c), (a)->(c) RETURN COUNT(*)").unwrap();
/// assert_eq!(rs.columns(), ["COUNT(*)"]);
/// assert_eq!(rs.scalar_count(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<Row>,
    /// Runtime counters of the execution that produced these rows (actual i-cost,
    /// predicate drops, `bulk_counted_extensions` for the `COUNT(*)` fast path, ...).
    pub stats: RuntimeStats,
}

impl ResultSet {
    /// Column headers, one per `RETURN` item in declaration order (a lone `RETURN *` expands
    /// to one column per query vertex, named after the vertex).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The output rows. Aggregated rows arrive in a deterministic order: the explicit
    /// `ORDER BY` when present, ascending group-key order otherwise.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the result set, keeping only the rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single cell of a 1×1 result (global aggregates like `RETURN COUNT(*)` or
    /// `RETURN AVG(a.age)`); `None` for any other shape.
    pub fn scalar(&self) -> Option<&Value> {
        match self.rows.as_slice() {
            [row] if row.len() == 1 => Some(&row[0]),
            _ => None,
        }
    }

    /// The scalar as a non-negative count (`RETURN COUNT(*)` and friends); `None` when the
    /// result is not a 1×1 non-negative integer.
    pub fn scalar_count(&self) -> Option<u64> {
        match self.scalar() {
            Some(Some(PropValue::Int(n))) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Serialize the whole result as a self-contained JSON object — the shape the HTTP wire
    /// protocol returns from `POST /query`:
    /// `{"columns": [...], "rows": [[cell, ...], ...], "row_count": n, "stats": {...}}`.
    /// Cells follow [`json::write_value`](crate::json::write_value): `null` for missing
    /// values, numbers for ints/floats, quoted escaped literals for strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 16);
        out.push_str("{\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::json::quote(c));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                crate::json::write_value(&mut out, cell);
            }
            out.push(']');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "],\"row_count\":{},\"stats\":{{\"output_count\":{},\"icost\":{},\
             \"intermediate_tuples\":{},\"elapsed_ns\":{}}}}}",
            self.rows.len(),
            s.output_count,
            s.icost,
            s.intermediate_tuples,
            s.elapsed.as_nanos(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors_demand_a_one_by_one_shape() {
        let one = ResultSet {
            columns: vec!["COUNT(*)".into()],
            rows: vec![vec![Some(PropValue::Int(7))]],
            stats: RuntimeStats::default(),
        };
        assert_eq!(one.scalar_count(), Some(7));
        assert_eq!(one.len(), 1);
        let wide = ResultSet {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Some(PropValue::Int(1)), None]],
            stats: RuntimeStats::default(),
        };
        assert_eq!(wide.scalar(), None);
        assert_eq!(wide.scalar_count(), None);
        let empty = ResultSet {
            columns: vec!["a".into()],
            rows: Vec::new(),
            stats: RuntimeStats::default(),
        };
        assert!(empty.is_empty());
        assert_eq!(empty.scalar(), None);
    }
}
