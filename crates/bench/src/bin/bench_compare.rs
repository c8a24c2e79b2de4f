//! Compare two `BENCH_*.json` reports and fail on regressions.
//!
//! ```bash
//! bench_compare <baseline.json> <current.json> [--tolerance 0.10]
//! ```
//!
//! For every record of the baseline (keyed on `(query, dataset, plan)`):
//!
//! * the record must still exist in the current report (a vanished configuration is a
//!   regression — a harness silently stopped covering it);
//! * `output_count`, when both sides carry it, must match **exactly** (result drift means the
//!   engine now computes a different answer, which no speedup excuses);
//! * `median_ms` may not exceed `baseline * (1 + tolerance) + slack`; the default tolerance
//!   is 0.10 and the default slack 0ms. `--slack-ms` is the absolute noise floor for reports
//!   full of sub-10ms smoke-scale records, whose medians cannot hold a purely relative bound
//!   on a shared runner — large records stay gated at ~`tolerance`, tiny ones get the grace.
//!
//! New records that only exist in the current report are listed but never fail the check.
//! Exit status: 0 when every baseline record passes, 1 otherwise, 2 on usage/parse errors.
//! The parser handles exactly the subset of JSON that [`graphflow_bench::bench_report`]
//! emits (string fields with `\"`/`\\` escapes, finite decimal numbers, one record object per
//! line is *not* assumed — braces are tracked), so the tool stays dependency-free.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed benchmark record: the identity triple plus the fields the check uses.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    query: String,
    dataset: String,
    plan: String,
    median_ms: f64,
    output_count: Option<u64>,
}

/// Scan `src` from `from` for `"key": ` and return the byte offset just past the colon and
/// any following spaces, or `None` if the key does not occur.
fn find_value(src: &str, from: usize, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let at = src[from..].find(&needle)? + from + needle.len();
    Some(at + src[at..].chars().take_while(|c| *c == ' ').count())
}

/// Parse the JSON string starting at `at` (which must point at the opening quote), decoding
/// the escapes `bench_report` emits. Returns the string and the offset past the closing quote.
fn parse_string(src: &str, at: usize) -> Option<(String, usize)> {
    let bytes = src.as_bytes();
    if bytes.get(at) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut i = at + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((out, i + 1)),
            b'\\' => {
                let esc = *bytes.get(i + 1)?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = src.get(i + 2..i + 6)?;
                        out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                        i += 4;
                    }
                    _ => return None,
                }
                i += 2;
            }
            _ => {
                // Multi-byte UTF-8: push the full char, not the lead byte.
                let c = src[i..].chars().next()?;
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    None
}

/// Parse the number starting at `at`: digits, sign, decimal point, exponent.
fn parse_number(src: &str, at: usize) -> Option<f64> {
    let end = src[at..]
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .map(|n| at + n)
        .unwrap_or(src.len());
    src[at..end].parse().ok()
}

fn string_field(src: &str, from: usize, key: &str) -> Option<String> {
    parse_string(src, find_value(src, from, key)?).map(|(s, _)| s)
}

fn number_field(src: &str, from: usize, key: &str) -> Option<f64> {
    parse_number(src, find_value(src, from, key)?)
}

/// Extract every record object from a `bench_report` file. Records live in the `"records"`
/// array; each starts at a `{` and ends at its matching `}` (no nested objects inside).
fn parse_records(src: &str) -> Result<Vec<Record>, String> {
    let start = src
        .find("\"records\":")
        .ok_or("no \"records\" array in report")?;
    let mut records = Vec::new();
    let mut at = src[start..]
        .find('[')
        .map(|n| start + n + 1)
        .ok_or("no records array opener")?;
    while let Some(open) = src[at..].find('{').map(|n| at + n) {
        let close = src[open..]
            .find('}')
            .map(|n| open + n + 1)
            .ok_or("unterminated record object")?;
        let obj = &src[open..close];
        let rec = Record {
            query: string_field(obj, 0, "query").ok_or("record without query")?,
            dataset: string_field(obj, 0, "dataset").ok_or("record without dataset")?,
            plan: string_field(obj, 0, "plan").ok_or("record without plan")?,
            median_ms: number_field(obj, 0, "median_ms").ok_or("record without median_ms")?,
            output_count: number_field(obj, 0, "output_count").map(|v| v as u64),
        };
        records.push(rec);
        at = close;
    }
    Ok(records)
}

fn keyed(records: Vec<Record>) -> BTreeMap<(String, String, String), Record> {
    records
        .into_iter()
        .map(|r| ((r.query.clone(), r.dataset.clone(), r.plan.clone()), r))
        .collect()
}

fn run(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
    slack_ms: f64,
) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (baseline, current) = (read(baseline_path)?, read(current_path)?);
    println!(
        "comparing {current_path} against {baseline_path} (tolerance {:.0}%, slack {slack_ms}ms)",
        tolerance * 100.0
    );
    compare(&baseline, &current, tolerance, slack_ms)
}

/// Judge the text of a current report against the text of a baseline report, printing one
/// line per record. `Ok(true)` when every baseline record passes.
fn compare(baseline: &str, current: &str, tolerance: f64, slack_ms: f64) -> Result<bool, String> {
    let parse = |text: &str, which: &str| {
        parse_records(text)
            .map(keyed)
            .map_err(|e| format!("{which} report: {e}"))
    };
    let baseline = parse(baseline, "baseline")?;
    let mut current = parse(current, "current")?;
    let mut failures = Vec::new();
    for (key, base) in &baseline {
        let label = format!("{} / {} / {}", key.0, key.1, key.2);
        let Some(cur) = current.remove(key) else {
            failures.push(format!("{label}: record missing from current report"));
            continue;
        };
        if let (Some(b), Some(c)) = (base.output_count, cur.output_count) {
            if b != c {
                failures.push(format!("{label}: output_count drifted {b} -> {c}"));
                continue;
            }
        }
        let limit = base.median_ms * (1.0 + tolerance) + slack_ms;
        let ratio = if base.median_ms > 0.0 {
            cur.median_ms / base.median_ms
        } else {
            1.0
        };
        if cur.median_ms > limit {
            failures.push(format!(
                "{label}: median {:.3}ms -> {:.3}ms ({ratio:.2}x, limit {:.3}ms)",
                base.median_ms, cur.median_ms, limit
            ));
        } else {
            println!(
                "  ok  {label}: {:.3}ms -> {:.3}ms ({ratio:.2}x)",
                base.median_ms, cur.median_ms
            );
        }
    }
    for key in current.keys() {
        println!("  new {} / {} / {} (no baseline)", key.0, key.1, key.2);
    }
    for f in &failures {
        println!("  FAIL {f}");
    }
    if failures.is_empty() {
        println!(
            "bench_compare: all {} baseline records pass",
            baseline.len()
        );
    } else {
        println!("bench_compare: {} regression(s)", failures.len());
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.10_f64;
    let mut slack_ms = 0.0_f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            let Some(v) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--tolerance needs a numeric value");
                return ExitCode::from(2);
            };
            tolerance = v;
            i += 2;
        } else if args[i] == "--slack-ms" {
            let Some(v) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--slack-ms needs a numeric value");
                return ExitCode::from(2);
            };
            slack_ms = v;
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline, current] = paths.as_slice() else {
        eprintln!(
            "usage: bench_compare <baseline.json> <current.json> [--tolerance 0.10] [--slack-ms 0]"
        );
        return ExitCode::from(2);
    };
    match run(baseline, current, tolerance, slack_ms) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "name": "unit",
  "records": [
    {"query": "q \"x\"", "dataset": "d", "plan": "p\\1", "median_ms": 10.000000, "p95_ms": 12.000000, "samples_ms": [10.000000, 12.000000], "icost": 5, "intermediate_tuples": 2, "output_count": 7},
    {"query": "q2", "dataset": "d", "plan": "p", "median_ms": 1.500000, "p95_ms": 1.600000, "samples_ms": [1.500000]}
  ]
}
"#;

    #[test]
    fn parses_reports_with_escapes_and_optional_stats() {
        let records = parse_records(REPORT).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].query, "q \"x\"");
        assert_eq!(records[0].plan, "p\\1");
        assert_eq!(records[0].median_ms, 10.0);
        assert_eq!(records[0].output_count, Some(7));
        assert_eq!(records[1].output_count, None);
    }

    #[test]
    fn string_parser_round_trips_bench_report_escapes() {
        let src = r#""a\"b\\c\ndA""#;
        let (s, end) = parse_string(src, 0).unwrap();
        assert_eq!(s, "a\"b\\c\nd\u{41}");
        assert_eq!(end, src.len());
    }

    fn report_with(median: f64, output: u64) -> String {
        format!(
            "{{\"records\": [{{\"query\": \"q\", \"dataset\": \"d\", \"plan\": \"p\", \
             \"median_ms\": {median}, \"samples_ms\": [{median}], \"output_count\": {output}}}]}}"
        )
    }

    fn check_slack(base: &str, cur: &str, tol: f64, slack: f64) -> bool {
        compare(base, cur, tol, slack).unwrap()
    }

    fn check(base: &str, cur: &str, tol: f64) -> bool {
        check_slack(base, cur, tol, 0.0)
    }

    #[test]
    fn passes_within_tolerance_fails_beyond_it() {
        assert!(check(&report_with(10.0, 7), &report_with(10.9, 7), 0.10));
        assert!(!check(&report_with(10.0, 7), &report_with(11.5, 7), 0.10));
        // Faster is always fine.
        assert!(check(&report_with(10.0, 7), &report_with(2.0, 7), 0.10));
    }

    #[test]
    fn output_count_drift_fails_even_when_faster() {
        assert!(!check(&report_with(10.0, 7), &report_with(2.0, 8), 0.10));
    }

    #[test]
    fn absolute_slack_covers_micro_records_but_not_real_regressions() {
        // 10ms -> 14ms is beyond 10% but inside the 5ms noise floor.
        assert!(check_slack(
            &report_with(10.0, 7),
            &report_with(14.0, 7),
            0.10,
            5.0
        ));
        assert!(!check_slack(
            &report_with(10.0, 7),
            &report_with(16.5, 7),
            0.10,
            5.0
        ));
        // Slack never excuses result drift.
        assert!(!check_slack(
            &report_with(10.0, 7),
            &report_with(2.0, 8),
            0.10,
            5.0
        ));
    }

    #[test]
    fn missing_baseline_record_fails() {
        let empty = "{\"records\": []}";
        assert!(!check(&report_with(10.0, 7), empty, 0.10));
        // New records in current never fail.
        assert!(check(empty, &report_with(10.0, 7), 0.10));
    }
}
