//! Metric registry, `BENCHMARK.json`, the one-line result the driver reads, and the machine
//! description every record carries.

use crate::layers::PER_LAYER;
use crate::run::RunOutput;
use crate::workloads::WORKLOADS;
use graphflow_core::json::quote;

/// Seconds one run measures for; `BENCHMARK.json` passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// The end-to-end metrics: name, unit, which direction is better, and the share of the
/// parent's median by which a later change may worsen it.
///
/// A bound is two to three times the widest spread (interquartile range over median) any
/// workload showed over ten runs with ten seeds on the 2-core build sandbox, and never above a
/// quarter: medians repeat within 2-6 %, throughput within 2-10 %, the quiet-window tail
/// within 4-12 %, `fsync`-bound transaction latency within 3-13 %. `txn_p95_ms` and the pooled
/// `query_p95_ms` did not repeat within a quarter and are reported, ungated, as
/// `server.txn_p95_ms` and `server.query_p95_ms`. `setup_s` is tens of milliseconds of process
/// spawning and gets the widest bound allowed.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.2),
    ("query_p50_ms", "ms", "lower", 0.15),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("ttfb_p50_ms", "ms", "lower", 0.2),
    ("rows_per_s", "rows/s", "higher", 0.2),
    ("txn_p50_ms", "ms", "lower", 0.25),
    ("server_peak_rss_mb", "MiB", "lower", 0.1),
];

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// The text of `BENCHMARK.json`, generated from the registries so the two cannot drift.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmarks/e2e/run.sh\"],\n  \"paths\": [\"benchmarks/e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// A float with all its digits; non-finite values (a bug) become 0 so the line stays JSON.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the metrics of one run, in registry order.
pub fn metrics_object(out: &RunOutput, names: &[&str]) -> Result<String, String> {
    let members: Vec<String> = names
        .iter()
        .map(|name| {
            let value = out
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit_of(name))
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(format!("{{{}}}", members.join(", ")))
}

pub fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// The single line the driver parses: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &RunOutput, trace: bool) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_object(out, &metric_names(trace))?
    ))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine and toolchain a record was made on, as a JSON object.
pub fn machine(nproc: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let unknown = || "unknown".to_string();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"cpu_flags\": {}, \"kernel\": {}, \
         \"rustc\": {}, \"git_revision\": {}}}",
        quote(&field("model name")),
        quote(&field("flags")),
        quote(&kernel),
        quote(&command_output("rustc", &["-V"]).unwrap_or_else(unknown)),
        quote(&command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_core::json::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(metric_names(false))
            .chain(metric_names(true));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for name in metric_names(false).into_iter().chain(metric_names(true)) {
            let unit = unit_of(name);
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit:?}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for (name, _, better, bound) in END_TO_END {
            assert!(better == "lower" || better == "higher", "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= END_TO_END[0].3),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `bench_e2e manifest`"
        );
        let json = Json::parse(&committed).unwrap();
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() < 64 * 1024);
        let count = |key: &str| json.get(key).unwrap().as_array().unwrap().len();
        assert!((2..=8).contains(&count("workloads")));
        assert!((1..=16).contains(&count("end_to_end")));
        assert!((1..=128).contains(&count("per_layer")));
    }

    #[test]
    fn the_result_line_parses_and_holds_exactly_the_declared_metrics() {
        for trace in [false, true] {
            let mut out = RunOutput::default();
            for (i, name) in metric_names(trace).iter().enumerate() {
                out.metrics.insert(name.to_string(), 1.5 + i as f64);
            }
            out.attempted = 10;
            let line = result_line(&out, trace).unwrap();
            assert!(!line.contains('\n'));
            let json = Json::parse(&line).unwrap();
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("attempted").and_then(Json::as_i64), Some(10));
            assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("no metrics")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, metric_names(trace));
            for (name, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit_of(name)));
            }
            // A metric that was not measured is an error, never a silent gap.
            out.metrics.remove(metric_names(trace)[0]);
            assert!(result_line(&out, trace).is_err());
        }
    }

    #[test]
    fn the_machine_record_is_json() {
        let json = Json::parse(&machine(2)).unwrap();
        for key in [
            "nproc",
            "cpu_model",
            "cpu_flags",
            "kernel",
            "rustc",
            "git_revision",
        ] {
            assert!(json.get(key).is_some(), "{key}");
        }
    }
}
