//! The whole benchmark in one command, and the comparison of two of its records.
//!
//! `suite` runs every workload several times plain (each repeat with its own seed) and once
//! traced, prints every metric by name with its unit, and writes one JSON record with the
//! machine description, sizes, sample counts and raw latency samples. `compare` sets two such
//! records side by side and judges each end-to-end metric on each workload against the
//! metric's bound.

use crate::report::{machine, number, unit_of, END_TO_END};
use crate::run::{run, Config, RunOutput};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use graphflow_core::json::{quote, Json};
use std::path::Path;

pub struct SuiteOptions {
    pub base: Config,
    pub repeats: usize,
    pub smoke: bool,
    pub out: std::path::PathBuf,
    /// Where `trace-<workload>.json` files go.
    pub trace_dir: std::path::PathBuf,
}

fn numbers(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| number(*v)).collect();
    format!("[{}]", parts.join(", "))
}

fn object(members: impl Iterator<Item = (String, String)>) -> String {
    let parts: Vec<String> = members
        .map(|(k, v)| format!("{}: {v}", quote(&k)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Run everything and write the record. Returns whether every operation was correct.
pub fn suite(opts: &SuiteOptions) -> Result<bool, String> {
    let mut all_correct = true;
    let mut records = Vec::new();
    for (name, why) in WORKLOADS {
        let mut plain: Vec<RunOutput> = Vec::new();
        for repeat in 0..opts.repeats {
            let cfg = Config {
                workload: name.to_string(),
                seed: opts.base.seed + repeat as u64,
                trace: false,
                ..opts.base.clone()
            };
            eprintln!(
                "[{name}] plain run {} of {}, seed {}",
                repeat + 1,
                opts.repeats,
                cfg.seed
            );
            plain.push(run(&cfg)?);
        }
        let cfg = Config {
            workload: name.to_string(),
            trace: true,
            ..opts.base.clone()
        };
        eprintln!("[{name}] traced run, seed {}", cfg.seed);
        let traced = run(&cfg)?;

        let attempted: u64 = plain.iter().chain([&traced]).map(|r| r.attempted).sum();
        let failed: u64 = plain.iter().chain([&traced]).map(|r| r.failed).sum();
        all_correct &= failed == 0;
        for e in plain.iter().chain([&traced]).flat_map(|r| &r.errors) {
            eprintln!("[{name}] FAILED: {e}");
        }
        println!("\n== {name} == {why}");
        println!(
            "  attempted {attempted}, failed {failed}, failed_share {}",
            failed as f64 / attempted.max(1) as f64
        );
        let mut end_to_end = Vec::new();
        for (metric, unit, _, bound) in END_TO_END {
            let values: Vec<f64> = plain.iter().map(|r| r.metrics[metric]).collect();
            let mid = median(&values);
            let sp = spread(&values);
            println!(
                "  {metric:<24} {:>14.4} {unit:<7} spread {} (bound {bound})",
                mid,
                sp.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0))
            );
            end_to_end.push((
                metric.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": {}, \"bound\": {bound}, \"repeats\": {}}}",
                    number(mid),
                    quote(unit),
                    numbers(&values)
                ),
            ));
        }
        let mut per_layer = Vec::new();
        for (metric, value) in &traced.metrics {
            let unit = unit_of(metric);
            println!("  {metric:<36} {value:>16.4} {unit}");
            per_layer.push((
                metric.clone(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    number(*value),
                    quote(unit)
                ),
            ));
        }
        let first = &plain[0];
        let sizes = first.sizes.iter().map(|(k, v)| (k.clone(), number(*v)));
        records.push((
            name.to_string(),
            object(
                [
                    ("why".to_string(), quote(why)),
                    ("attempted".to_string(), attempted.to_string()),
                    ("failed".to_string(), failed.to_string()),
                    (
                        "failed_share".to_string(),
                        number(failed as f64 / attempted.max(1) as f64),
                    ),
                    ("end_to_end".to_string(), object(end_to_end.into_iter())),
                    ("per_layer".to_string(), object(per_layer.into_iter())),
                    ("sizes".to_string(), object(sizes)),
                    (
                        "raw_query_latency_us".to_string(),
                        numbers(&first.raw_query_us),
                    ),
                    ("raw_txn_latency_us".to_string(), numbers(&first.raw_txn_us)),
                ]
                .into_iter(),
            ),
        ));
        let trace_path = opts.trace_dir.join(format!("trace-{name}.json"));
        let trace = format!(
            "{{\"workload\": {}, \"seed\": {}, \"spans\": [\n{}\n]}}\n",
            quote(name),
            opts.base.seed,
            traced.spans.join(",\n")
        );
        std::fs::write(&trace_path, trace)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }
    let record = format!(
        "{{\"benchmark\": \"bench_e2e\", \"seed\": {}, \"repeats\": {}, \"smoke\": {}, \
         \"window_seconds\": {}, \"dataset_scale\": {}, \"load_model\": {}, \"machine\": {},\n\
         \"workloads\": {{\n{}\n}},\n\"claim\": null}}\n",
        opts.base.seed,
        opts.repeats,
        opts.smoke,
        number(opts.base.seconds),
        number(opts.base.scale),
        quote(
            "closed loop: each connection sends its next request when the previous one \
             completed; the mixed_ingest writer is open loop at a fixed rate, timed from due"
        ),
        machine(opts.base.nproc),
        records
            .iter()
            .map(|(name, body)| format!("{}: {body}", quote(name)))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&opts.out, &record).map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("\nrecord written to {}", opts.out.display());
    println!("{{\"correct\": {all_correct}, \"claim\": null}}");
    Ok(all_correct)
}

/// Verdict of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The spread between a side's own repeats is wider than the bound, so the bound cannot
    /// be applied.
    Unresolved,
}

/// Judge `b` against `a`: how much worse `b`'s median is, as a share of `a`'s, and whether
/// that crosses `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn repeats_of(record: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("repeats")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison table. Returns `false` when any pairing is a regression.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>16} {:>6}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A (base A)", "bound"
    );
    let mut clean = true;
    let mut exact_counts_differ = Vec::new();
    for (workload, _) in WORKLOADS {
        for (metric, unit, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (
                repeats_of(&a, workload, metric),
                repeats_of(&b, workload, metric),
            ) else {
                println!("{workload:<18} {metric:<20} missing from one record");
                clean = false;
                continue;
            };
            let (worse_by, verdict) = judge(&va, &vb, better == "higher", bound);
            clean &= verdict != Verdict::Regression;
            println!(
                "{workload:<18} {metric:<20} {:>14.4} {:>14.4} {:>8.3} of {:<7.4} {bound:>5}  {} ({:+.1}% worse, {unit})",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                median(&va),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "regression",
                    Verdict::Unresolved => "unresolved",
                },
                worse_by * 100.0
            );
        }
        // Counts made with one thread repeat exactly between two runs of the same code.
        for metric in EXACT_COUNTS {
            let pick = |r: &Json| {
                r.get("workloads")?
                    .get(workload)?
                    .get("per_layer")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            };
            if pick(&a) != pick(&b) {
                exact_counts_differ.push(format!(
                    "{workload} {metric}: {:?} vs {:?}",
                    pick(&a),
                    pick(&b)
                ));
            }
        }
    }
    if exact_counts_differ.is_empty() {
        println!(
            "serial counts ({}) are identical in both records",
            EXACT_COUNTS.join(", ")
        );
    } else {
        println!("serial counts differ (expected between different commits only):");
        for line in exact_counts_differ {
            println!("  {line}");
        }
    }
    Ok(clean)
}

/// Per-layer counts that do not depend on timing: made by one thread over a fixed sample.
const EXACT_COUNTS: [&str; 9] = [
    "exec.icost_per_req",
    "exec.intermediate_per_req",
    "exec.hash_build_per_req",
    "exec.hash_probe_per_req",
    "plan.class_share_wco",
    "plan.class_share_hybrid",
    "plan.class_share_bj",
    "graph.delta_merges_per_req",
    "storage.snapshot_bytes_per_edge",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [100.0, 140.0, 70.0, 100.0, 130.0];
        // Lower is better: +20 % is a regression at a 10 % bound, fine at 25 %.
        assert_eq!(judge(&steady, &slower, false, 0.1).1, Verdict::Regression);
        assert_eq!(judge(&steady, &slower, false, 0.25).1, Verdict::Ok);
        // Higher is better: the same numbers are an improvement.
        assert_eq!(judge(&steady, &slower, true, 0.1).1, Verdict::Ok);
        assert_eq!(judge(&slower, &steady, true, 0.1).1, Verdict::Regression);
        // A side whose own repeats spread wider than the bound cannot be judged.
        assert_eq!(judge(&steady, &noisy, false, 0.1).1, Verdict::Unresolved);
        assert_eq!(judge(&steady, &steady, false, 0.1), (0.0, Verdict::Ok));
        let (worse_by, _) = judge(&steady, &slower, false, 0.1);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }
}
