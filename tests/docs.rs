//! Keeps the docs honest. `docs/QUERY_LANGUAGE.md`: every fenced block tagged `graphflow`
//! must parse with the real parser, and every block tagged `graphflow-invalid` must fail to
//! parse. `docs/HTTP_API.md`: every `/txn` body example must decode through the wire decoder.

use graphflow_rs::core::json::Json;
use graphflow_rs::query::{parse_query, split_mode};
use graphflow_rs::server::wire::parse_update;

const QUERY_LANGUAGE_MD: &str = include_str!("../docs/QUERY_LANGUAGE.md");
const HTTP_API_MD: &str = include_str!("../docs/HTTP_API.md");

/// The non-comment, non-empty lines of every fenced block carrying `tag`.
fn snippets(tag: &str) -> Vec<String> {
    let fence = format!("```{tag}");
    let mut out = Vec::new();
    let mut in_block = false;
    for line in QUERY_LANGUAGE_MD.lines() {
        let trimmed = line.trim();
        if in_block {
            if trimmed == "```" {
                in_block = false;
                continue;
            }
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                out.push(trimmed.to_string());
            }
        } else if trimmed == fence {
            in_block = true;
        }
    }
    out
}

#[test]
fn every_query_language_snippet_parses() {
    let queries = snippets("graphflow");
    assert!(
        queries.len() >= 30,
        "the reference should stay example-rich (found {})",
        queries.len()
    );
    for query in &queries {
        // Snippets may carry an EXPLAIN/PROFILE verb prefix; the pattern after it must parse.
        let (_, rest) = split_mode(query);
        parse_query(rest).unwrap_or_else(|e| {
            panic!("docs/QUERY_LANGUAGE.md snippet failed to parse:\n  {query}\n  {e}")
        });
    }
}

#[test]
fn every_invalid_snippet_is_rejected() {
    let queries = snippets("graphflow-invalid");
    assert!(!queries.is_empty(), "the error section must stay populated");
    for query in &queries {
        assert!(
            parse_query(query).is_err(),
            "docs/QUERY_LANGUAGE.md claims this is invalid, but it parses:\n  {query}"
        );
    }
}

/// Display round-trip: the canonical form of every valid snippet re-parses, and re-displays
/// identically (a fixed point), so the reference's syntax and the engine's own printer
/// agree. Vertex numbering may legitimately differ (`(a)<-(b)` prints source-first), so the
/// queries are compared through their displayed forms, not by value.
#[test]
fn snippets_round_trip_through_display() {
    for query in snippets("graphflow") {
        let q = parse_query(split_mode(&query).1).unwrap();
        let shown = q.to_string();
        let reparsed = parse_query(&shown).unwrap_or_else(|e| {
            panic!("canonical form of {query} failed to reparse: {shown}: {e}")
        });
        assert_eq!(
            shown,
            reparsed.to_string(),
            "display fixed point of {query}"
        );
    }
}

/// Every `json` example in the HTTP reference that carries an `"updates"` array is a `/txn`
/// body: it must be valid JSON and each update must decode, so the documented member names
/// cannot drift from `wire.rs` again.
#[test]
fn every_txn_example_decodes_through_the_wire_decoder() {
    let mut decoded = 0;
    for block in HTTP_API_MD.split("```json").skip(1) {
        let body = block.split("```").next().expect("fence closes");
        if !body.contains("\"updates\"") {
            continue;
        }
        let json = Json::parse(body)
            .unwrap_or_else(|e| panic!("docs/HTTP_API.md /txn example is not JSON: {e}\n{body}"));
        let updates = json
            .get("updates")
            .and_then(Json::as_array)
            .expect("\"updates\" is an array");
        for update in updates {
            parse_update(update)
                .unwrap_or_else(|e| panic!("docs/HTTP_API.md /txn example does not decode: {e}"));
            decoded += 1;
        }
    }
    assert!(decoded >= 5, "the reference shows every update op");
}
