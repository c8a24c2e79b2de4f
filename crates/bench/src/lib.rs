//! # graphflow-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the paper's evaluation
//! (Section 8 and the appendices) on the synthetic dataset profiles.
//!
//! Each table/figure has its own binary under `src/bin/` (`cargo run --release -p
//! graphflow-bench --bin table4_triangle_qvos`, etc.); `benches/kernels.rs` is a plain
//! (`harness = false`) timing loop over the intersection kernels, and `bench_compare` judges
//! one report against another. The harnesses print the same row/series structure as the paper;
//! absolute numbers differ (the datasets are synthetic and scaled down) but the *shape* — which
//! plan wins, by roughly what factor, where the crossovers are — is the reproduction target.
//!
//! Environment: `GF_SCALE` scales every dataset (default 1.0 ≈ thousands of vertices),
//! `GF_SAMPLES` sets the timed samples per record (default 3), `GF_BENCH_DIR` is where
//! each harness writes its machine-readable `BENCH_<name>.json` (default: the working
//! directory), and `GF_THREADS` caps the thread sweep of the scalability figure. CI reruns six
//! harnesses at smoke scale and gates them with `bench_compare` against the reports committed
//! under `benchmarks/ci-baseline/`. The repository's end-to-end benchmark — requests through
//! `graphflow-serve` over a socket — is a separate package: see `benchmarks/e2e/README.md`.

use graphflow_catalog::Catalogue;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::Dataset;
use graphflow_exec::RuntimeStats;
use graphflow_graph::Graph;
use graphflow_plan::Plan;
use graphflow_query::QueryGraph;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A dataset generated at the scale configured through `GF_SCALE`.
pub fn dataset(d: Dataset) -> Arc<Graph> {
    d.generate(graphflow_datasets::scale_from_env())
}

/// A database (graph + catalogue + optimizer) over a generated dataset.
pub fn db_for(d: Dataset) -> GraphflowDB {
    GraphflowDB::with_config(dataset(d), Default::default())
}

/// A catalogue over an arbitrary graph with default settings.
pub fn catalogue_for(graph: Arc<Graph>) -> Catalogue {
    Catalogue::with_defaults(graph)
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Run one plan on a database and report `(count, stats, wall time)`.
///
/// Panics on invalid option combinations — bench harnesses construct their options statically.
pub fn run_plan(
    db: &GraphflowDB,
    plan: &Plan,
    options: QueryOptions,
) -> (u64, RuntimeStats, Duration) {
    let (result, elapsed) = time(|| db.run_plan(plan, options).expect("bench options are valid"));
    (result.count, result.stats, elapsed)
}

/// Format a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Human-readable ordering like `a2a3a1a4` from query-vertex indices.
pub fn ordering_name(q: &QueryGraph, sigma: &[usize]) -> String {
    sigma
        .iter()
        .map(|&v| q.vertex(v).name.clone())
        .collect::<Vec<_>>()
        .join("")
}

/// Print a fixed-width table: a header row followed by data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The executable WCO orderings of a query (distinct up to automorphisms), as the spectra use.
pub fn executable_orderings(q: &QueryGraph) -> Vec<Vec<usize>> {
    graphflow_query::qvo::distinct_orderings(q)
        .into_iter()
        .filter(|s| graphflow_query::extension::extension_chain(q, s).is_some())
        .collect()
}

/// One measured configuration destined for a machine-readable [`bench_report`]: which query
/// ran on which dataset under which plan, with every wall-time sample in milliseconds.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    pub query: String,
    pub dataset: String,
    pub plan: String,
    pub samples_ms: Vec<f64>,
    /// Profiler roll-up of one representative run (actual i-cost, intermediate tuples,
    /// output count) — attach with [`with_stats`](BenchRecord::with_stats).
    pub stats: Option<StatsRollup>,
    /// The optimizer's estimated cost of the plan — attach with
    /// [`with_estimated_cost`](BenchRecord::with_estimated_cost).
    pub estimated_cost: Option<f64>,
}

/// The per-run executor counters a [`BenchRecord`] carries into the JSON report, so runs can
/// be diffed on work done (i-cost, intermediate size) and checked for result drift (output
/// count), not just on wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRollup {
    pub icost: u64,
    pub intermediate_tuples: u64,
    pub output_count: u64,
}

impl From<&RuntimeStats> for StatsRollup {
    fn from(s: &RuntimeStats) -> StatsRollup {
        StatsRollup {
            icost: s.icost,
            intermediate_tuples: s.intermediate_tuples,
            output_count: s.output_count,
        }
    }
}

impl BenchRecord {
    /// Build a record from raw [`Duration`] samples.
    pub fn new(
        query: impl Into<String>,
        dataset: impl Into<String>,
        plan: impl Into<String>,
        samples: &[Duration],
    ) -> BenchRecord {
        BenchRecord {
            query: query.into(),
            dataset: dataset.into(),
            plan: plan.into(),
            samples_ms: samples.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
            stats: None,
            estimated_cost: None,
        }
    }

    /// Attach the plan's estimated cost, so cost-vs-time rank correlations can be recomputed
    /// from the report.
    pub fn with_estimated_cost(mut self, cost: f64) -> BenchRecord {
        self.estimated_cost = Some(cost);
        self
    }

    /// Attach the executor counters of a representative run.
    pub fn with_stats(mut self, stats: &RuntimeStats) -> BenchRecord {
        self.stats = Some(StatsRollup::from(stats));
        self
    }

    /// Median wall time over the samples, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        percentile(&self.samples_ms, 50.0)
    }

    /// 95th-percentile wall time over the samples, in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        percentile(&self.samples_ms, 95.0)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample set; 0.0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of timing samples per measured configuration (`GF_SAMPLES`, default 3).
pub fn sample_count() -> usize {
    std::env::var("GF_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

use graphflow_core::json::escape as json_escape;
use graphflow_core::json::fmt_f64_fixed as json_num;

/// Write the machine-readable result file `BENCH_<name>.json` (into `GF_BENCH_DIR`, default
/// the current directory, created if missing) and return its path. The file holds one object
/// per record with the query, dataset, plan, median and p95 wall time, and the raw samples, so
/// CI and plotting scripts can diff runs without scraping the human-readable tables.
pub fn bench_report(name: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let dir = std::env::var("GF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    write_report(Path::new(&dir), name, records)
}

/// [`bench_report`] into `dir`, creating it first.
fn write_report(dir: &Path, name: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", json_escape(name)));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let stats = match &r.stats {
            Some(s) => format!(
                ", \"icost\": {}, \"intermediate_tuples\": {}, \"output_count\": {}",
                s.icost, s.intermediate_tuples, s.output_count
            ),
            None => String::new(),
        };
        let cost = r.estimated_cost.map_or(String::new(), |c| {
            format!(", \"estimated_cost\": {}", json_num(c))
        });
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"dataset\": \"{}\", \"plan\": \"{}\", \
             \"median_ms\": {}, \"p95_ms\": {}, \"samples_ms\": [{}]{}{}}}{}\n",
            json_escape(&r.query),
            json_escape(&r.dataset),
            json_escape(&r.plan),
            json_num(r.median_ms()),
            json_num(r.p95_ms()),
            r.samples_ms
                .iter()
                .map(|&s| json_num(s))
                .collect::<Vec<_>>()
                .join(", "),
            stats,
            cost,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// Thread counts for the scalability sweep: 1, 2, 4, ... up to the machine (or `GF_THREADS`).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::env::var("GF_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let mut out = Vec::new();
    let mut t = 1;
    while t <= max {
        out.push(t);
        t *= 2;
    }
    if out.last() != Some(&max) {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let sweep = thread_sweep();
        assert!(!sweep.is_empty());
        assert_eq!(sweep[0], 1);
        let (_x, d) = time(|| 40 + 2);
        assert!(d < Duration::from_secs(1));
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        let q = graphflow_query::patterns::diamond_x();
        assert_eq!(ordering_name(&q, &[1, 2, 0, 3]), "a2a3a1a4");
        print_table("test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 95.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn bench_report_creates_a_missing_directory() {
        let root = std::env::temp_dir().join(format!("gf_bench_missing_{}", std::process::id()));
        let dir = root.join("nested");
        assert!(!root.exists());
        let record = BenchRecord::new("q", "d", "p", &[Duration::from_millis(1)]);
        let path = write_report(&dir, "missing_dir", &[record]).unwrap();
        assert_eq!(path, dir.join("BENCH_missing_dir.json"));
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"plan\": \"p\""));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bench_report_writes_valid_shape() {
        let dir = std::env::temp_dir().join(format!("gf_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("GF_BENCH_DIR", &dir);
        let records = vec![
            BenchRecord::new(
                "(a)->(b), \"quoted\"",
                "amazon",
                "a1a2a3",
                &[Duration::from_millis(2), Duration::from_millis(1)],
            )
            .with_stats(&RuntimeStats {
                icost: 42,
                intermediate_tuples: 7,
                output_count: 3,
                ..Default::default()
            }),
            BenchRecord::new("q2", "google", "bj\\wco", &[Duration::from_millis(3)])
                .with_estimated_cost(1.5e4),
        ];
        let path = bench_report("unit_test", &records).unwrap();
        std::env::remove_var("GF_BENCH_DIR");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\\\"quoted\\\""), "quotes are escaped");
        assert!(
            body.contains("\"plan\": \"bj\\\\wco\""),
            "backslash escaped"
        );
        assert!(body.contains("\"median_ms\""));
        assert!(body.contains("\"p95_ms\""));
        assert!(body.contains("\"icost\": 42"), "stats roll-up emitted");
        assert!(body.contains("\"intermediate_tuples\": 7"));
        assert!(body.contains("\"estimated_cost\": 15000.000000"));
        // Balanced braces/brackets as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                body.matches(open).count(),
                body.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
