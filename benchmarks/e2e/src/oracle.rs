//! Expected answers, computed once per run by a path the server does not take: an in-memory
//! database restricted to worst-case-optimal plans, executed serially and without the
//! adaptive executor. The server picks its plans from the full hybrid space (and runs them
//! adaptively or in parallel when asked), so a planner or executor bug that changes an answer
//! shows as a mismatch.

use crate::check::{Compare, Digest, Expect};
use crate::workloads::{Batch, Req};
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::Graph;
use graphflow_plan::dp::PlanSpaceOptions;
use graphflow_query::ReturnClause;
use std::collections::HashMap;
use std::sync::Arc;

pub struct Oracle {
    db: GraphflowDB,
}

impl Oracle {
    pub fn new(graph: Arc<Graph>) -> Oracle {
        Oracle {
            db: GraphflowDB::builder(graph)
                .plan_space(PlanSpaceOptions::wco_only())
                .build(),
        }
    }

    /// The expected answer of one request against the oracle's current graph.
    pub fn expect(&self, req: &Req) -> Result<Expect, String> {
        let prepared = self
            .db
            .prepare(&req.query)
            .map_err(|e| format!("oracle cannot prepare {:?}: {e}", req.query))?;
        let clause = prepared
            .query()
            .return_clause()
            .cloned()
            .unwrap_or_else(ReturnClause::star);
        let aggregates = clause.items.iter().any(|i| i.agg.is_some());
        // Without ORDER BY a LIMIT (in the clause, or on the wire for a projection) lets every
        // plan keep different rows: only their number is defined.
        let compare = if !clause.order_by.is_empty() {
            Compare::Ordered
        } else if clause.limit.is_some() || (req.limit.is_some() && !aggregates) {
            Compare::RowCount
        } else {
            Compare::Unordered
        };
        let mut options = QueryOptions::new();
        if let Some(limit) = req.limit {
            options = options.limit(limit);
        }
        let mut digest = Digest::default();
        let mut scratch = String::new();
        if req.stream {
            prepared
                .stream_rows(options, |row| {
                    digest.push_row(&row, &mut scratch);
                    true
                })
                .map_err(|e| format!("oracle cannot stream {:?}: {e}", req.query))?;
        } else {
            let rows = prepared
                .execute(options)
                .map_err(|e| format!("oracle cannot execute {:?}: {e}", req.query))?;
            for row in rows.rows() {
                digest.push_row(row, &mut scratch);
            }
        }
        Ok(Expect { compare, digest })
    }

    /// Expected answers of a request list; requests with the same body share one execution.
    pub fn expect_all(&self, reqs: &[Req]) -> Result<Vec<Expect>, String> {
        let mut by_body: HashMap<&str, Expect> = HashMap::new();
        reqs.iter()
            .map(|r| match by_body.get(r.body.as_str()) {
                Some(e) => Ok(*e),
                None => {
                    let e = self.expect(r)?;
                    by_body.insert(&r.body, e);
                    Ok(e)
                }
            })
            .collect()
    }

    /// Apply a write transaction to the oracle's graph; the value the server must report as
    /// `applied` for the same batch.
    pub fn apply(&self, batch: &Batch) -> usize {
        self.db.apply_batch(&batch.updates)
    }

    /// Number of mutations applied so far: the epoch the server must be at after the same
    /// transactions.
    pub fn epoch(&self) -> u64 {
        self.db.graph_version()
    }
}
