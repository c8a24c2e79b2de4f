//! Micro-benchmark of the tiered two-way intersection kernels on controlled list shapes.
//!
//! Each workload pins a (size-ratio, density) regime — the two axes
//! [`select_kernel`] routes on — and times every kernel on it,
//! plus the dispatching entry point, so the report shows both the per-kernel costs and whether
//! the selector picked the winner. Results go to `BENCH_kernel_microbench.json`
//! (`GF_BENCH_DIR` selects the directory) in the same record shape as the table/figure
//! harnesses, so `bench_compare` can gate regressions on it in CI.
//!
//! ```bash
//! cargo run --release -p graphflow-bench --bin kernel_microbench
//! GF_NO_SIMD=1 cargo run --release -p graphflow-bench --bin kernel_microbench  # portable only
//! ```
//!
//! `GF_SAMPLES` sets the number of timed samples per (workload, kernel) pair (default 3);
//! every sample runs the kernel a fixed number of iterations sized to the workload.
//!
//! The report also carries the optimizer's latency on the large-query corpora
//! ([`patterns::large_corpus_a`], 13–17 vertices, and [`patterns::large_corpus_b`], 18–31)
//! over the power-law graph the plan golden file uses, on a warm catalogue: one record per
//! corpus and vertex count, one sample per pattern (its best of `GF_SAMPLES` optimizes).

use graphflow_bench::{bench_report, print_table, sample_count, BenchRecord};
use graphflow_catalog::Catalogue;
use graphflow_exec::RuntimeStats;
use graphflow_graph::intersect::{block, scalar};
use graphflow_graph::{intersect_sorted_into, select_kernel, simd_active, GraphBuilder, VertexId};
use graphflow_plan::DpOptimizer;
use graphflow_query::patterns;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One controlled list shape: a name, the two sorted inputs, and how many iterations one
/// timed sample runs (sized so every sample is comfortably above timer resolution).
struct Workload {
    name: &'static str,
    a: Vec<VertexId>,
    b: Vec<VertexId>,
    iters: u32,
}

/// Strictly increasing list: `len` values starting at `start` with gap `step`.
fn arith(start: u32, step: u32, len: usize) -> Vec<VertexId> {
    (0..len as u32).map(|i| start + i * step).collect()
}

fn workloads() -> Vec<Workload> {
    vec![
        // Comparable sizes, average gap ~2.5: the block kernel's home turf.
        Workload {
            name: "dense_comparable_32k",
            a: arith(0, 2, 32_768),
            b: arith(0, 3, 21_846),
            iters: 200,
        },
        // Comparable sizes, ~150-value average gap: still block territory (the block kernel
        // retires 8 elements per branchless iteration regardless of density).
        Workload {
            name: "sparse_comparable_16k",
            a: arith(0, 151, 16_384),
            b: arith(75, 149, 16_384),
            iters: 200,
        },
        // 512:1 size ratio: galloping skips almost all of the large list.
        Workload {
            name: "skewed_512_to_1",
            a: arith(0, 511, 128),
            b: arith(0, 1, 65_536),
            iters: 2_000,
        },
        // Gap sweep bracketing BLOCK_MAX_GAP: ~500 and ~2000 stay on block, ~8000 crosses
        // the density cut-off to merge.
        Workload {
            name: "gap500_comparable_16k",
            a: arith(0, 501, 16_384),
            b: arith(250, 499, 16_384),
            iters: 200,
        },
        Workload {
            name: "gap2k_comparable_16k",
            a: arith(0, 2003, 16_384),
            b: arith(1000, 1999, 16_384),
            iters: 200,
        },
        Workload {
            name: "gap8k_comparable_8k",
            a: arith(0, 8009, 8_192),
            b: arith(4000, 7993, 8_192),
            iters: 400,
        },
        // Dense but with lengths off the 8-lane grid: exercises the ragged-tail path.
        Workload {
            name: "dense_ragged_tails",
            a: arith(0, 2, 8_191),
            b: arith(1, 3, 5_461),
            iters: 800,
        },
    ]
}

/// Time `f` for `sample_count()` samples of `iters` iterations each; returns the samples and
/// the result length of one run (for the drift check in the JSON report).
fn run_samples(iters: u32, mut f: impl FnMut(&mut Vec<VertexId>)) -> (Vec<Duration>, u64) {
    let mut out = Vec::new();
    f(&mut out); // warm-up + result capture
    let result_len = out.len() as u64;
    let samples: Vec<Duration> = (0..sample_count())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f(black_box(&mut out));
            }
            start.elapsed()
        })
        .collect();
    (samples, result_len)
}

/// Optimize-latency records of the large-query corpora (see the module doc).
fn optimize_records() -> Vec<BenchRecord> {
    let mut graph = GraphBuilder::new();
    graph.add_edges(graphflow_graph::generator::powerlaw_cluster(800, 4, 0.5, 7));
    let catalogue = Catalogue::with_defaults(Arc::new(graph.build()));
    let optimizer = DpOptimizer::new(&catalogue);
    let corpora = [
        ("A", patterns::large_corpus_a()),
        ("B", patterns::large_corpus_b()),
    ];
    let mut records = Vec::new();
    for (corpus, queries) in corpora {
        let mut by_size: BTreeMap<usize, Vec<Duration>> = BTreeMap::new();
        for q in &queries {
            optimizer
                .optimize(q)
                .expect("every corpus pattern gets a plan");
            let timed = (0..sample_count()).map(|_| {
                let start = Instant::now();
                black_box(optimizer.optimize(q));
                start.elapsed()
            });
            let best = timed.min().expect("at least one sample");
            by_size.entry(q.num_vertices()).or_default().push(best);
        }
        for (size, samples) in by_size {
            let query = format!("optimize corpus-{corpus} {size} vertices");
            records.push(BenchRecord::new(query, "powerlaw-800", "dp", &samples));
        }
    }
    records
}

fn main() {
    let mut records = Vec::new();
    let mut rows = Vec::new();
    println!(
        "kernel microbench: SIMD {}",
        if simd_active() { "avx2" } else { "portable" }
    );
    for w in workloads() {
        let (small, large) = if w.a.len() <= w.b.len() {
            (&w.a, &w.b)
        } else {
            (&w.b, &w.a)
        };
        let selected = format!("{:?}", select_kernel(small, large)).to_lowercase();
        // Each kernel is timed on the same (small, large) pair the dispatcher would hand it.
        type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>);
        let kernels: [(&str, KernelFn); 4] = [
            ("merge", scalar::merge_intersect),
            ("gallop", scalar::gallop_intersect),
            ("block", block::block_intersect),
            ("dispatch", intersect_sorted_into),
        ];
        for (kernel, f) in kernels {
            let (samples, result_len) = run_samples(w.iters, |out| f(small, large, out));
            let record = BenchRecord::new(w.name, "synthetic-u32", kernel, &samples).with_stats(
                &RuntimeStats {
                    output_count: result_len,
                    ..Default::default()
                },
            );
            rows.push(vec![
                w.name.to_string(),
                kernel.to_string(),
                if kernel == "dispatch" {
                    format!("-> {selected}")
                } else {
                    String::new()
                },
                format!("{:.3}", record.median_ms()),
                result_len.to_string(),
            ]);
            records.push(record);
        }
    }
    print_table(
        "kernel microbench (per-sample wall time)",
        &["workload", "kernel", "selected", "median_ms", "|result|"],
        &rows,
    );
    let optimize = optimize_records();
    let rows: Vec<Vec<String>> = optimize
        .iter()
        .map(|r| {
            let (p50, p95) = (r.median_ms(), r.p95_ms());
            let worst = r.samples_ms.iter().cloned().fold(0.0, f64::max);
            let n = r.samples_ms.len().to_string();
            vec![
                r.query.clone(),
                n,
                format!("{p50:.2}"),
                format!("{p95:.2}"),
                format!("{worst:.2}"),
            ]
        })
        .collect();
    print_table(
        "optimize latency, large-query corpora (one sample per pattern)",
        &["corpus / size", "patterns", "p50_ms", "p95_ms", "max_ms"],
        &rows,
    );
    records.extend(optimize);
    bench_report("kernel_microbench", &records).expect("write benchmark report");
}
