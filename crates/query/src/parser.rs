//! A compact textual pattern syntax for subgraph queries.
//!
//! Graphflow supports a subset of Cypher; for this reproduction a smaller pattern language is
//! enough to express every query in the paper:
//!
//! ```text
//! query     := pattern ("WHERE" conjunction)? ("RETURN" return)?
//! pattern   := edge ("," edge)*
//! edge      := vertex arrow vertex
//! vertex    := "(" name (":" label)? ")"
//! arrow     := "->" | "-[" edgespec "]->" | "<-" | "<-[" edgespec "]-"
//! edgespec  := label | name (":" label)? | ":" label
//! conjunction := comparison ("AND" comparison)*
//! comparison  := name "." key cmp literal
//! cmp       := "<" | "<=" | ">" | ">=" | "=" | "==" | "!=" | "<>"
//! literal   := integer | float | quoted string | "true" | "false"
//! return    := "DISTINCT"? item ("," item)* ("ORDER" "BY" sort ("," sort)*)? ("LIMIT" uint)?
//! item      := "*" | agg "(" "DISTINCT"? operand ")" | "COUNT" "(" "*" ")" | operand
//! operand   := name | name "." key
//! sort      := item ("ASC" | "DESC")?
//! agg       := "COUNT" | "SUM" | "MIN" | "MAX" | "AVG"
//! name, key := identifier (e.g. a1, person, weight)
//! label     := unsigned integer (maps directly onto data-graph label ids)
//! ```
//!
//! All keywords are case-insensitive. A comparison's variable must name a pattern vertex
//! or a *named* edge (`-[e]->`, `-[e:2]->`); predicates are typed — a property key compared to
//! a string in one conjunct and a number in another is rejected at parse time. `RETURN` items
//! reference pattern vertices (`a`, `a.age`) or named-edge properties (`e.weight`); `ORDER BY`
//! keys must repeat an expression from the `RETURN` list.
//!
//! Examples:
//!
//! ```
//! use graphflow_query::parse_query;
//! // Unlabelled asymmetric triangle.
//! let q = parse_query("(a1)->(a2), (a2)->(a3), (a1)->(a3)").unwrap();
//! assert_eq!(q.num_vertices(), 3);
//! // Labelled query: edge label 2 between vertices labelled 1 and 0.
//! let q = parse_query("(x:1)-[2]->(y)").unwrap();
//! assert_eq!(q.num_edges(), 1);
//! // Property predicates on a vertex and a named edge.
//! let q = parse_query("(a)-[e]->(b) WHERE a.age >= 30 AND e.weight < 0.5").unwrap();
//! assert_eq!(q.predicates().len(), 2);
//! // Aggregation: group by a, count matches, order and truncate.
//! let q = parse_query("(a)->(b) RETURN a, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 10").unwrap();
//! assert!(q.return_clause().unwrap().has_aggregates());
//! ```

use crate::querygraph::{CmpOp, PredTarget, Predicate, QueryGraph, MAX_QUERY_VERTICES};
use crate::returns::{AggFunc, OrderKey, ReturnClause, ReturnExpr, ReturnItem, SortDir};
use graphflow_graph::{EdgeLabel, PropType, PropValue, VertexLabel};
use std::fmt;

/// An error produced while parsing a query pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input near which the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    query: QueryGraph,
}

/// Per-`(variable, key)` literal-type bookkeeping for WHERE-clause type checking: the type a
/// key was first compared against, plus the literal text that established it (for error
/// messages).
type SeenPropTypes = Vec<((PredTarget, String), (PropType, String))>;

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            query: QueryGraph::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Consume a case-insensitive keyword, requiring a word boundary after it (so a vertex
    /// named `whereabouts` is not mistaken for `WHERE`).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        // `get` (not indexing) so a multi-byte character straddling the boundary is a
        // non-match instead of a char-boundary panic.
        let Some(head) = rest.get(..kw.len()) else {
            return false;
        };
        if head.eq_ignore_ascii_case(kw) {
            let next = rest[kw.len()..].chars().next();
            if !matches!(next, Some(c) if c.is_alphanumeric() || c == '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, ParseError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected identifier"));
        }
        let ident = rest[..end].to_string();
        self.pos += end;
        Ok(ident)
    }

    fn parse_number(&mut self) -> Result<u16, ParseError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected a numeric label"));
        }
        let value: u32 = rest[..end]
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if value > u16::MAX as u32 {
            return Err(self.err("label out of range"));
        }
        self.pos += end;
        Ok(value as u16)
    }

    /// `(name)` or `(name:label)`; returns the vertex index, creating the vertex if unseen.
    fn parse_vertex(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        self.expect("(")?;
        self.skip_ws();
        let name = self.parse_identifier()?;
        if self.query.edge_index_by_name(&name).is_some() {
            return Err(self.err(format!(
                "{name} already names an edge; vertex and edge variables share one namespace"
            )));
        }
        self.skip_ws();
        let label = if self.eat(":") {
            self.skip_ws();
            VertexLabel(self.parse_number()?)
        } else {
            VertexLabel(0)
        };
        self.skip_ws();
        self.expect(")")?;
        match self.query.vertex_index(&name) {
            Some(idx) => {
                let existing = self.query.vertex(idx).label;
                if label != VertexLabel(0) && existing != VertexLabel(0) && existing != label {
                    return Err(self.err(format!(
                        "vertex {name} declared with conflicting labels {} and {}",
                        existing.0, label.0
                    )));
                }
                if label != VertexLabel(0) && existing == VertexLabel(0) {
                    // Upgrade the label in place via relabelling.
                    let q = std::mem::take(&mut self.query);
                    self.query =
                        q.relabel_vertices(|i| if i == idx { label } else { q.vertex(i).label });
                }
                Ok(idx)
            }
            None if self.query.num_vertices() == MAX_QUERY_VERTICES => Err(ParseError {
                position: start,
                message: format!(
                    "vertex {name} would be vertex {}: a pattern has at most \
                     {MAX_QUERY_VERTICES} vertices",
                    MAX_QUERY_VERTICES + 1
                ),
            }),
            None => Ok(self.query.add_vertex(name, label)),
        }
    }

    /// The inside of a bracketed arrow: `label`, `:label`, `name` or `name:label`; returns
    /// `(label, edge variable name)`.
    fn parse_edge_spec(&mut self) -> Result<(EdgeLabel, Option<String>), ParseError> {
        self.skip_ws();
        if self.eat(":") {
            // Cypher-ish "-[:3]->".
            self.skip_ws();
            return Ok((EdgeLabel(self.parse_number()?), None));
        }
        if self.rest().starts_with(|c: char| c.is_ascii_digit()) {
            return Ok((EdgeLabel(self.parse_number()?), None));
        }
        let name = self.parse_identifier().map_err(|_| {
            self.err("expected an edge label (number) or an edge variable name inside [...]")
        })?;
        self.skip_ws();
        let label = if self.eat(":") {
            self.skip_ws();
            EdgeLabel(self.parse_number()?)
        } else {
            EdgeLabel(0)
        };
        Ok((label, Some(name)))
    }

    /// `->`, `-[spec]->`, `<-` or `<-[spec]-`; returns `(reversed, label, edge name)`.
    fn parse_arrow(&mut self) -> Result<(bool, EdgeLabel, Option<String>), ParseError> {
        self.skip_ws();
        if self.eat("->") {
            return Ok((false, EdgeLabel(0), None));
        }
        if self.eat("-[") {
            let (label, name) = self.parse_edge_spec()?;
            self.skip_ws();
            self.expect("]->")?;
            return Ok((false, label, name));
        }
        if self.eat("<-[") {
            let (label, name) = self.parse_edge_spec()?;
            self.skip_ws();
            self.expect("]-")?;
            return Ok((true, label, name));
        }
        if self.eat("<-") {
            return Ok((true, EdgeLabel(0), None));
        }
        Err(self.err("expected an arrow: ->, -[l]->, <- or <-[l]-"))
    }

    fn parse_pattern(mut self) -> Result<QueryGraph, ParseError> {
        loop {
            let a = self.parse_vertex()?;
            let (reversed, label, edge_name) = self.parse_arrow()?;
            let b = self.parse_vertex()?;
            let (src, dst) = if reversed { (b, a) } else { (a, b) };
            if src == dst {
                return Err(self.err("self loops are not allowed in query patterns"));
            }
            if self
                .query
                .edges()
                .iter()
                .any(|e| e.src == src && e.dst == dst && e.label == label)
            {
                return Err(self.err(format!(
                    "duplicate edge ({})->({})",
                    self.query.vertex(src).name,
                    self.query.vertex(dst).name
                )));
            }
            self.query.add_edge(src, dst, label);
            if let Some(name) = edge_name {
                if self.query.edge_index_by_name(&name).is_some() {
                    return Err(self.err(format!("edge variable {name} already names an edge")));
                }
                if self.query.vertex_index(&name).is_some() {
                    return Err(self.err(format!(
                        "{name} already names a vertex; vertex and edge variables share one \
                         namespace"
                    )));
                }
                let idx = self.query.num_edges() - 1;
                self.query.set_edge_name(idx, name);
            }
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            break;
        }
        self.skip_ws();
        if self.eat_keyword("WHERE") {
            self.parse_where_clause()?;
        }
        self.skip_ws();
        if self.eat_keyword("RETURN") {
            self.parse_return_clause()?;
        }
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(self.err("trailing input after pattern"));
        }
        if !self.query.is_connected() {
            return Err(self.err("query pattern must be connected"));
        }
        Ok(self.query)
    }

    /// `comparison (AND comparison)*`, appended to the query as predicates.
    fn parse_where_clause(&mut self) -> Result<(), ParseError> {
        let mut seen: SeenPropTypes = Vec::new();
        loop {
            self.parse_comparison(&mut seen)?;
            self.skip_ws();
            if self.eat_keyword("AND") {
                continue;
            }
            break;
        }
        Ok(())
    }

    /// `var.key <op> literal`.
    fn parse_comparison(&mut self, seen: &mut SeenPropTypes) -> Result<(), ParseError> {
        self.skip_ws();
        let var = self.parse_identifier()?;
        let target = if let Some(v) = self.query.vertex_index(&var) {
            PredTarget::Vertex(v)
        } else if let Some(e) = self.query.edge_index_by_name(&var) {
            PredTarget::Edge(e)
        } else {
            let vertices: Vec<&str> = self
                .query
                .vertices()
                .iter()
                .map(|v| v.name.as_str())
                .collect();
            let edges: Vec<&str> = (0..self.query.num_edges())
                .filter_map(|i| self.query.edge_name(i))
                .collect();
            return Err(self.err(format!(
                "unknown variable {var} in WHERE clause; the pattern defines vertices \
                 [{}] and named edges [{}] (write -[name]-> to name an edge so it can be \
                 filtered)",
                vertices.join(", "),
                edges.join(", ")
            )));
        };
        self.skip_ws();
        self.expect(".")?;
        let key = self.parse_identifier()?;
        self.skip_ws();
        let op = self.parse_cmp_op()?;
        self.skip_ws();
        let literal_text_start = self.pos;
        let value = self.parse_literal()?;
        let literal_text = self.input[literal_text_start..self.pos].trim().to_string();

        // Typed predicates: one comparable type per (variable, key). Int and Float coerce into
        // each other; everything else must match exactly.
        let ty = value.prop_type();
        let numeric = |t: PropType| matches!(t, PropType::Int | PropType::Float);
        let slot = (target, key.clone());
        match seen.iter().find(|(s, _)| *s == slot) {
            Some((_, (prev_ty, prev_text)))
                if *prev_ty != ty && !(numeric(*prev_ty) && numeric(ty)) =>
            {
                return Err(self.err(format!(
                    "type mismatch: {var}.{key} is compared to the {ty} {literal_text} here \
                     but to the {prev_ty} {prev_text} earlier; a property key must be compared \
                     to one comparable type throughout the WHERE clause"
                )));
            }
            Some(_) => {}
            None => seen.push((slot, (ty, literal_text))),
        }
        self.query.add_predicate(Predicate {
            target,
            key,
            op,
            value,
        });
        Ok(())
    }

    /// One of `<= >= <> != == < > =`.
    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        for (tok, op) in [
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<>", CmpOp::Ne),
            ("!=", CmpOp::Ne),
            ("==", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
            ("=", CmpOp::Eq),
        ] {
            if self.eat(tok) {
                return Ok(op);
            }
        }
        Err(self.err("expected a comparison operator: <, <=, >, >=, =, != or <>"))
    }

    /// A typed literal: integer, float, quoted string (single or double quotes, `\`-escapes),
    /// `true` or `false`.
    fn parse_literal(&mut self) -> Result<PropValue, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        match rest.chars().next() {
            Some(quote @ ('"' | '\'')) => {
                let mut out = String::new();
                let mut chars = rest.char_indices().skip(1);
                let mut escaped = false;
                for (i, c) in &mut chars {
                    if escaped {
                        out.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == quote {
                        self.pos += i + c.len_utf8();
                        return Ok(PropValue::str(out));
                    } else {
                        out.push(c);
                    }
                }
                Err(self.err("unterminated string literal"))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let negative = c == '-';
                let digits_start = if negative { 1 } else { 0 };
                let mut end = digits_start;
                let bytes = rest.as_bytes();
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end == digits_start {
                    return Err(self.err("expected digits after -"));
                }
                let mut is_float = false;
                if end + 1 < bytes.len() && bytes[end] == b'.' && bytes[end + 1].is_ascii_digit() {
                    is_float = true;
                    end += 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                }
                let text = &rest[..end];
                let value = if is_float {
                    PropValue::Float(
                        text.parse::<f64>()
                            .map_err(|_| self.err("invalid float literal"))?,
                    )
                } else {
                    PropValue::Int(
                        text.parse::<i64>()
                            .map_err(|_| self.err("integer literal out of range"))?,
                    )
                };
                self.pos += end;
                Ok(value)
            }
            _ => {
                if self.eat_keyword("true") {
                    Ok(PropValue::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(PropValue::Bool(false))
                } else {
                    Err(self.err("expected a literal: a number, a quoted string, true or false"))
                }
            }
        }
    }

    /// `DISTINCT? item ("," item)* (ORDER BY sort ("," sort)*)? (LIMIT uint)?`, attached to
    /// the query as its [`ReturnClause`].
    fn parse_return_clause(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_return_item()?);
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            break;
        }
        if items.len() > 1
            && items
                .iter()
                .any(|i| i.agg.is_none() && matches!(i.expr, ReturnExpr::Star))
        {
            return Err(self.err("RETURN * cannot be combined with other return items"));
        }
        let mut order_by: Vec<OrderKey> = Vec::new();
        self.skip_ws();
        if self.eat_keyword("ORDER") {
            self.skip_ws();
            if !self.eat_keyword("BY") {
                return Err(self.err("expected BY after ORDER"));
            }
            loop {
                let key_item = self.parse_return_item()?;
                if key_item.agg.is_none() && matches!(key_item.expr, ReturnExpr::Star) {
                    return Err(self.err("ORDER BY cannot sort on *; name a variable or property"));
                }
                let Some(idx) = items.iter().position(|i| *i == key_item) else {
                    let listed: Vec<String> = items
                        .iter()
                        .map(|i| self.query.return_item_text(i))
                        .collect();
                    return Err(self.err(format!(
                        "ORDER BY key {} must repeat an expression from the RETURN list \
                         [{}]",
                        self.query.return_item_text(&key_item),
                        listed.join(", ")
                    )));
                };
                self.skip_ws();
                let dir = if self.eat_keyword("DESC") {
                    SortDir::Desc
                } else {
                    let _ = self.eat_keyword("ASC");
                    SortDir::Asc
                };
                order_by.push(OrderKey { item: idx, dir });
                self.skip_ws();
                if self.eat(",") {
                    continue;
                }
                break;
            }
        }
        self.skip_ws();
        let limit = if self.eat_keyword("LIMIT") {
            self.skip_ws();
            Some(self.parse_u64()?)
        } else {
            None
        };
        self.query.set_return(ReturnClause {
            distinct,
            items,
            order_by,
            limit,
        });
        Ok(())
    }

    /// One `RETURN` (or `ORDER BY`) item: `*`, an aggregate call, or a bare operand.
    fn parse_return_item(&mut self) -> Result<ReturnItem, ParseError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(ReturnItem {
                agg: None,
                distinct: false,
                expr: ReturnExpr::Star,
            });
        }
        for (kw, func) in [
            ("COUNT", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
            ("AVG", AggFunc::Avg),
        ] {
            let save = self.pos;
            if self.eat_keyword(kw) {
                self.skip_ws();
                if !self.eat("(") {
                    // `count` (etc.) was a plain variable name, not an aggregate call.
                    self.pos = save;
                    break;
                }
                self.skip_ws();
                let distinct = self.eat_keyword("DISTINCT");
                self.skip_ws();
                let expr = if self.eat("*") {
                    if func != AggFunc::Count {
                        return Err(self.err(format!(
                            "only COUNT may aggregate *; write {}(var) or {}(var.key)",
                            func.name(),
                            func.name()
                        )));
                    }
                    if distinct {
                        return Err(self.err(
                            "COUNT(DISTINCT *) is redundant: matches are already distinct \
                             tuples; write COUNT(*)",
                        ));
                    }
                    ReturnExpr::Star
                } else {
                    self.parse_return_operand()?
                };
                self.skip_ws();
                self.expect(")")?;
                return Ok(ReturnItem {
                    agg: Some(func),
                    distinct,
                    expr,
                });
            }
        }
        let expr = self.parse_return_operand()?;
        Ok(ReturnItem {
            agg: None,
            distinct: false,
            expr,
        })
    }

    /// `name` or `name.key`, resolved against the pattern's vertex and named-edge variables.
    fn parse_return_operand(&mut self) -> Result<ReturnExpr, ParseError> {
        self.skip_ws();
        let var = self.parse_identifier().map_err(|_| {
            self.err("expected a return item: *, an aggregate call, a variable or var.key")
        })?;
        if let Some(v) = self.query.vertex_index(&var) {
            self.skip_ws();
            if self.eat(".") {
                self.skip_ws();
                let key = self.parse_identifier()?;
                return Ok(ReturnExpr::VertexProp(v, key));
            }
            return Ok(ReturnExpr::Vertex(v));
        }
        if let Some(e) = self.query.edge_index_by_name(&var) {
            self.skip_ws();
            if !self.eat(".") {
                return Err(self.err(format!(
                    "edge variable {var} can only be returned through a property: write \
                     {var}.key"
                )));
            }
            self.skip_ws();
            let key = self.parse_identifier()?;
            return Ok(ReturnExpr::EdgeProp(e, key));
        }
        let vertices: Vec<&str> = self
            .query
            .vertices()
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        let edges: Vec<&str> = (0..self.query.num_edges())
            .filter_map(|i| self.query.edge_name(i))
            .collect();
        Err(self.err(format!(
            "unknown variable {var} in RETURN clause; the pattern defines vertices [{}] and \
             named edges [{}]",
            vertices.join(", "),
            edges.join(", ")
        )))
    }

    /// An unsigned 64-bit integer (for `LIMIT`).
    fn parse_u64(&mut self) -> Result<u64, ParseError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected an unsigned integer"));
        }
        let value: u64 = rest[..end]
            .parse()
            .map_err(|_| self.err("integer out of range"))?;
        self.pos += end;
        Ok(value)
    }
}

/// Parse a query pattern string into a [`QueryGraph`].
pub fn parse_query(input: &str) -> Result<QueryGraph, ParseError> {
    Parser::new(input).parse_pattern()
}

/// How a query string asks to be evaluated: run it, explain its plan, or profile a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// Plain execution (no prefix keyword).
    Execute,
    /// `EXPLAIN <query>`: plan only, nothing executes.
    Explain,
    /// `PROFILE <query>`: execute and report per-operator actuals.
    Profile,
}

/// Split an optional leading `EXPLAIN` / `PROFILE` keyword (case-insensitive) off a query
/// string, returning the mode and the remaining pattern text.
///
/// Patterns proper always start with `(`, so a leading identifier is unambiguous; a keyword
/// must be followed by whitespace to count (`EXPLAIN(a)->(b)` is left for the pattern parser
/// to reject with its usual positioned error).
///
/// ```
/// use graphflow_query::{parse_query, split_mode, QueryMode};
/// let (mode, rest) = split_mode("EXPLAIN (a)->(b), (b)->(c), (a)->(c)");
/// assert_eq!(mode, QueryMode::Explain);
/// assert_eq!(parse_query(rest).unwrap().num_vertices(), 3);
/// let (mode, _) = split_mode("profile (a)->(b) RETURN COUNT(*)");
/// assert_eq!(mode, QueryMode::Profile);
/// let (mode, _) = split_mode("(a)->(b)");
/// assert_eq!(mode, QueryMode::Execute);
/// ```
pub fn split_mode(input: &str) -> (QueryMode, &str) {
    let trimmed = input.trim_start();
    for (kw, mode) in [
        ("EXPLAIN", QueryMode::Explain),
        ("PROFILE", QueryMode::Profile),
    ] {
        if trimmed.len() > kw.len()
            && trimmed[..kw.len()].eq_ignore_ascii_case(kw)
            && trimmed.as_bytes()[kw.len()].is_ascii_whitespace()
        {
            return (mode, &trimmed[kw.len() + 1..]);
        }
    }
    (QueryMode::Execute, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::are_isomorphic;
    use crate::patterns;

    #[test]
    fn split_mode_detects_prefixes_case_insensitively() {
        assert_eq!(split_mode("(a)->(b)"), (QueryMode::Execute, "(a)->(b)"));
        assert_eq!(
            split_mode("EXPLAIN (a)->(b)"),
            (QueryMode::Explain, "(a)->(b)")
        );
        assert_eq!(
            split_mode("  profile (a)->(b)"),
            (QueryMode::Profile, "(a)->(b)")
        );
        assert_eq!(
            split_mode("Explain\t(a)->(b)"),
            (QueryMode::Explain, "(a)->(b)")
        );
        // No word boundary: left for the pattern parser (which will reject it).
        let (mode, rest) = split_mode("EXPLAIN(a)->(b)");
        assert_eq!(mode, QueryMode::Execute);
        assert_eq!(rest, "EXPLAIN(a)->(b)");
        // A bare keyword with nothing after it is not a query.
        assert_eq!(split_mode("EXPLAIN").0, QueryMode::Execute);
    }

    #[test]
    fn parses_triangle() {
        let q = parse_query("(a1)->(a2), (a2)->(a3), (a1)->(a3)").unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 3);
        assert!(are_isomorphic(&q, &patterns::asymmetric_triangle()));
    }

    #[test]
    fn parses_labels_and_reverse_arrows() {
        let q = parse_query("(x:1)-[2]->(y), (y)<-(z:3)").unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 2);
        let x = q.vertex_index("x").unwrap();
        let z = q.vertex_index("z").unwrap();
        assert_eq!(q.vertex(x).label.0, 1);
        assert_eq!(q.vertex(z).label.0, 3);
        assert!(q.edges().iter().any(|e| e.label.0 == 2));
        // (y)<-(z) means z -> y
        let y = q.vertex_index("y").unwrap();
        assert!(q.edges().iter().any(|e| e.src == z && e.dst == y));
    }

    #[test]
    fn parses_cypher_style_edge_label() {
        let q = parse_query("(a)-[:5]->(b)").unwrap();
        assert_eq!(q.edges()[0].label.0, 5);
        let q2 = parse_query("(a)<-[:5]-(b)").unwrap();
        assert_eq!(q2.edges()[0].src, q2.vertex_index("b").unwrap());
    }

    #[test]
    fn whitespace_is_ignored() {
        let q = parse_query("  ( a1 ) -> ( a2 ) ,\n (a2) -> (a3), (a1)->(a3)  ").unwrap();
        assert_eq!(q.num_edges(), 3);
    }

    #[test]
    fn rejects_disconnected_and_malformed_patterns() {
        assert!(parse_query("(a)->(b), (c)->(d)").is_err());
        assert!(parse_query("(a)->(a)").is_err());
        assert!(parse_query("(a)->(b) junk").is_err());
        assert!(parse_query("(a)-(b)").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("(a:b)->(c)").is_err(), "labels must be numeric");
    }

    #[test]
    fn duplicate_edges_rejected() {
        let err = parse_query("(a)->(b), (a)->(b)").unwrap_err();
        assert!(err.message.contains("duplicate edge"), "{err}");
        // Antiparallel pairs and distinct labels between the same vertices stay legal.
        assert!(parse_query("(a)->(b), (b)->(a)").is_ok());
        assert!(parse_query("(a)-[1]->(b), (a)-[2]->(b), (a)->(c)").is_ok());
    }

    #[test]
    fn conflicting_vertex_labels_rejected() {
        assert!(parse_query("(a:1)->(b), (a:2)->(c)").is_err());
        // Re-stating the same label or adding it later is fine.
        let q = parse_query("(a)->(b), (a:2)->(c)").unwrap();
        let a = q.vertex_index("a").unwrap();
        assert_eq!(q.vertex(a).label.0, 2);
    }

    #[test]
    fn parses_predicates_in_canonical_form() {
        use crate::querygraph::{CmpOp, PredTarget};
        use graphflow_graph::PropValue;
        let q = parse_query(
            "(a)-[e:2]->(b:1) WHERE b.score <= 1.5 AND a.age > 30 AND e.kind = \"friend\"",
        )
        .unwrap();
        assert_eq!(q.predicates().len(), 3);
        // Predicates are stored sorted (vertices before edges, by index), regardless of the
        // order they were written in.
        let a = q.vertex_index("a").unwrap();
        let b = q.vertex_index("b").unwrap();
        assert_eq!(q.predicates()[0].target, PredTarget::Vertex(a));
        assert_eq!(q.predicates()[0].op, CmpOp::Gt);
        assert_eq!(q.predicates()[0].value, PropValue::Int(30));
        assert_eq!(q.predicates()[1].target, PredTarget::Vertex(b));
        assert_eq!(q.predicates()[1].value, PropValue::Float(1.5));
        assert_eq!(q.predicates()[2].target, PredTarget::Edge(0));
        assert_eq!(q.predicates()[2].value, PropValue::str("friend"));
        assert_eq!(q.edge_name(0), Some("e"));
    }

    #[test]
    fn predicates_round_trip_through_display() {
        for text in [
            "(a)->(b) WHERE a.age > 30",
            "(a)-[e]->(b) WHERE e.weight < 0.5 AND a.age >= 30",
            "(a)-[e:2]->(b:1), (b)->(c) WHERE b.name = \"x \\\"y\\\"\" AND e.ok != true",
            "(a)->(b), (b)<-(c) WHERE a.f <= -1.25 AND a.n = -3",
        ] {
            let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let shown = q.to_string();
            let reparsed = parse_query(&shown).unwrap_or_else(|e| panic!("{shown}: {e}"));
            assert_eq!(q, reparsed, "round trip of {text} via {shown}");
            // Display is a fixed point: canonical form re-displays identically.
            assert_eq!(shown, reparsed.to_string());
        }
    }

    #[test]
    fn unnamed_edges_with_predicates_get_display_names() {
        use crate::querygraph::{CmpOp, PredTarget, Predicate};
        use graphflow_graph::PropValue;
        let mut q = parse_query("(a)->(b)").unwrap();
        q.add_predicate(Predicate {
            target: PredTarget::Edge(0),
            key: "w".into(),
            op: CmpOp::Lt,
            value: PropValue::Int(5),
        });
        let shown = q.to_string();
        assert!(shown.contains("-[_e1]->"), "{shown}");
        let reparsed = parse_query(&shown).unwrap();
        assert_eq!(reparsed.predicates().len(), 1);
        assert_eq!(reparsed.predicates()[0].target, PredTarget::Edge(0));
    }

    #[test]
    fn where_keywords_are_case_insensitive_and_ops_parse() {
        let q =
            parse_query("(a)->(b) where a.x < 1 and a.x <= 2 AND a.y >= 3 aNd a.z <> 4").unwrap();
        assert_eq!(q.predicates().len(), 4);
        // = and == are the same operator; != and <> are the same operator.
        let q1 = parse_query("(a)->(b) WHERE a.x = 1 AND a.y != 2").unwrap();
        let q2 = parse_query("(a)->(b) WHERE a.x == 1 AND a.y <> 2").unwrap();
        assert_eq!(q1.predicates(), q2.predicates());
        // A vertex named like the keyword still parses as a pattern without a WHERE clause.
        let q3 = parse_query("(a)->(whereabouts)").unwrap();
        assert_eq!(q3.num_vertices(), 2);
        assert!(q3.predicates().is_empty());
    }

    #[test]
    fn unknown_predicate_variables_are_actionable_errors() {
        let err = parse_query("(a)-[e]->(b) WHERE z.age > 30").unwrap_err();
        assert!(err.message.contains("unknown variable z"), "{err}");
        assert!(err.message.contains('a'), "lists pattern vertices: {err}");
        assert!(err.message.contains('e'), "lists named edges: {err}");
        // An unnamed edge cannot be referenced; the error explains how to name one.
        let err = parse_query("(a)->(b) WHERE e.w > 1").unwrap_err();
        assert!(err.message.contains("-[name]->"), "{err}");
    }

    #[test]
    fn predicate_type_mismatches_are_parse_errors() {
        let err = parse_query("(a)->(b) WHERE a.age > 30 AND a.age < \"old\"").unwrap_err();
        assert!(err.message.contains("type mismatch"), "{err}");
        assert!(err.message.contains("a.age"), "{err}");
        assert!(
            err.message.contains("30"),
            "names the earlier literal: {err}"
        );
        // Int and Float coerce, so mixing them is fine.
        assert!(parse_query("(a)->(b) WHERE a.x > 1 AND a.x < 2.5").is_ok());
        // Bool against number is rejected too.
        assert!(parse_query("(a)->(b) WHERE a.ok = true AND a.ok != 0").is_err());
        // Different keys (or same key on different variables) are independent.
        assert!(parse_query("(a)->(b) WHERE a.x > 1 AND b.x = \"s\"").is_ok());
    }

    #[test]
    fn non_ascii_input_errors_instead_of_panicking() {
        // Multi-byte characters near keyword probe positions must not hit a char-boundary
        // slice; every case below is a clean ParseError.
        for text in [
            "(a)->(b) ΩΩΩ",
            "(a)->(b) WHERE a.x = aΩΩx",
            "(a)->(b) wΩ",
            "(α)->(β) WHERE α.x > 1",
        ] {
            let _ = parse_query(text);
        }
        // Non-ASCII identifiers themselves are fine.
        let q = parse_query("(α)->(β) WHERE α.größe > 1").unwrap();
        assert_eq!(q.predicates().len(), 1);
    }

    #[test]
    fn patterns_above_the_vertex_limit_are_rejected_with_a_position() {
        let path = |n: usize| {
            let edges: Vec<String> = (1..n).map(|i| format!("(v{i})->(v{})", i + 1)).collect();
            edges.join(", ")
        };
        assert_eq!(parse_query(&path(31)).unwrap().num_vertices(), 31);
        for n in [32, 33, 40] {
            let text = path(n);
            let err = parse_query(&text).unwrap_err();
            assert!(err.message.contains("at most 31 vertices"), "{err}");
            assert!(text[err.position..].starts_with("(v32)"), "{err}");
        }
    }

    #[test]
    fn malformed_where_clauses_are_rejected() {
        assert!(parse_query("(a)->(b) WHERE").is_err());
        assert!(parse_query("(a)->(b) WHERE a.").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x >").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x > \"unterminated").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x > 1 AND").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x > 1 junk").is_err());
        assert!(parse_query("(a)->(b) WHERE a.x > -").is_err());
        // Edge variable namespace clashes.
        assert!(parse_query("(a)-[x]->(b), (a)-[x:1]->(b)").is_err());
        assert!(parse_query("(a)-[b]->(b)").is_err());
        assert!(parse_query("(a)-[e]->(b), (e)->(b)").is_err());
    }

    #[test]
    fn parses_return_clauses() {
        use crate::returns::{AggFunc, ReturnExpr, SortDir};
        // RETURN * and RETURN COUNT(*).
        let q = parse_query("(a)->(b) RETURN *").unwrap();
        assert!(q.return_clause().unwrap().is_star_only());
        let q = parse_query("(a)->(b) return count(*)").unwrap();
        assert!(q.return_clause().unwrap().is_count_star_only());
        // Projection with properties, grouping aggregate, ORDER BY + LIMIT.
        let q = parse_query(
            "(a)-[e]->(b) WHERE a.age > 30 \
             RETURN a, b.age, SUM(e.w), COUNT(DISTINCT b) ORDER BY SUM(e.w) DESC, a LIMIT 5",
        )
        .unwrap();
        let r = q.return_clause().unwrap();
        assert_eq!(r.items.len(), 4);
        assert!(r.has_aggregates());
        assert_eq!(r.items[0].expr, ReturnExpr::Vertex(0));
        assert_eq!(r.items[1].expr, ReturnExpr::VertexProp(1, "age".into()));
        assert_eq!(r.items[2].agg, Some(AggFunc::Sum));
        assert_eq!(r.items[2].expr, ReturnExpr::EdgeProp(0, "w".into()));
        assert!(r.items[3].distinct);
        assert_eq!(r.order_by.len(), 2);
        assert_eq!((r.order_by[0].item, r.order_by[0].dir), (2, SortDir::Desc));
        assert_eq!((r.order_by[1].item, r.order_by[1].dir), (0, SortDir::Asc));
        assert_eq!(r.limit, Some(5));
        // RETURN DISTINCT rows, explicit ASC.
        let q = parse_query("(a)->(b) RETURN DISTINCT a ORDER BY a ASC").unwrap();
        assert!(q.return_clause().unwrap().distinct);
        // MIN/MAX/AVG parse.
        let q = parse_query("(a)->(b) RETURN MIN(a.x), MAX(a.x), AVG(a.x)").unwrap();
        assert_eq!(q.return_clause().unwrap().items.len(), 3);
        // A vertex named like an aggregate still parses as a plain variable.
        let q = parse_query("(count)->(b) RETURN count").unwrap();
        assert_eq!(
            q.return_clause().unwrap().items[0].expr,
            ReturnExpr::Vertex(0)
        );
    }

    #[test]
    fn return_clauses_round_trip_through_display() {
        for text in [
            "(a)->(b) RETURN *",
            "(a)->(b) RETURN COUNT(*)",
            "(a)->(b) RETURN DISTINCT a, b",
            "(a)-[e]->(b) WHERE a.age > 30 RETURN a, SUM(e.w) ORDER BY SUM(e.w) DESC LIMIT 3",
            "(a)->(b), (b)->(c) RETURN a, COUNT(DISTINCT c) ORDER BY a LIMIT 10",
            "(a)->(b) RETURN AVG(a.x), MIN(b.y), MAX(b.y)",
        ] {
            let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let shown = q.to_string();
            let reparsed = parse_query(&shown).unwrap_or_else(|e| panic!("{shown}: {e}"));
            assert_eq!(q, reparsed, "round trip of {text} via {shown}");
            assert_eq!(shown, reparsed.to_string(), "display fixed point");
        }
    }

    #[test]
    fn return_clause_is_excluded_from_canonical_codes() {
        let bare = parse_query("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        let counted = parse_query("(a)->(b), (b)->(c), (a)->(c) RETURN COUNT(*)").unwrap();
        assert_ne!(bare, counted, "queries differ as values");
        assert_eq!(
            crate::exact_code(&bare),
            crate::exact_code(&counted),
            "but share one exact code"
        );
        assert_eq!(
            crate::canonical_form(&bare).0,
            crate::canonical_form(&counted).0,
            "and one canonical code"
        );
    }

    #[test]
    fn malformed_return_clauses_are_rejected() {
        assert!(parse_query("(a)->(b) RETURN").is_err());
        assert!(parse_query("(a)->(b) RETURN a,").is_err());
        assert!(
            parse_query("(a)->(b) RETURN *, a").is_err(),
            "star is alone"
        );
        assert!(parse_query("(a)->(b) RETURN SUM(*)").is_err());
        assert!(parse_query("(a)->(b) RETURN COUNT(DISTINCT *)").is_err());
        assert!(parse_query("(a)->(b) RETURN COUNT(a").is_err());
        assert!(
            parse_query("(a)->(b) RETURN z").is_err(),
            "unknown variable"
        );
        assert!(
            parse_query("(a)-[e]->(b) RETURN e").is_err(),
            "bare edge variable needs a property"
        );
        assert!(parse_query("(a)->(b) RETURN a ORDER a").is_err(), "BY");
        assert!(
            parse_query("(a)->(b) RETURN a ORDER BY b").is_err(),
            "ORDER BY must repeat a RETURN item"
        );
        assert!(
            parse_query("(a)->(b) RETURN * ORDER BY *").is_err(),
            "no sorting on *"
        );
        assert!(
            parse_query("(a)->(b) RETURN a ORDER BY *").is_err(),
            "no sorting on *"
        );
        assert!(parse_query("(a)->(b) RETURN a LIMIT").is_err());
        assert!(parse_query("(a)->(b) RETURN a LIMIT x").is_err());
        assert!(parse_query("(a)->(b) RETURN a junk").is_err());
        // Unknown-variable errors are actionable.
        let err = parse_query("(a)-[e]->(b) RETURN z.age").unwrap_err();
        assert!(err.message.contains("unknown variable z"), "{err}");
        assert!(err.message.contains('e'), "lists named edges: {err}");
    }

    #[test]
    fn round_trips_benchmark_queries_through_display() {
        for (j, q) in patterns::all_benchmark_queries() {
            let text = q.to_string();
            let reparsed = parse_query(&text).unwrap_or_else(|e| panic!("Q{j}: {e}"));
            assert!(
                are_isomorphic(&q, &reparsed),
                "Q{j} display/parse round trip"
            );
        }
    }
}
