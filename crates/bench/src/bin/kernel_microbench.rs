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
//!
//! Beneath the planner, `canonical_form` (the plan-cache key and, pinned, the catalogue key)
//! is timed over five query sets: 300 `cold_plan`-like patterns (4–6 vertices, 3 edge
//! labels), the pinned extension questions the catalogue may ask about them, Q1–Q14, the
//! directed 9-cycle with the 15-leaf star, and both large-query corpora. A record's output
//! count is the number of distinct codes in its set, so a change in which patterns share a
//! code shows as drift.
//!
//! Beside the executor, the hash-join table of a join-rooted plan is timed in its two phases:
//! the build, and the probes. Its tuples are shaped like Q4's (diamond-X, two triangles
//! joined on an edge): a key of two vertices and one payload vertex, two build tuples per key
//! on average, half the probes hitting. The build side holds 2^16 tuples (about 1 MiB of table,
//! inside any last-level cache) or 2^23 (about 120 MiB of table, above it; 200 MiB at the
//! build's peak).
//! Each phase runs with payloads (an enumerating join) and counts only (`COUNT(*)` at the
//! root). Output counts are the distinct keys of a build and the joined tuples of a probe.

use graphflow_bench::{bench_report, print_table, sample_count, BenchRecord};
use graphflow_catalog::Catalogue;
use graphflow_exec::join::{JoinTable, JoinTableBuilder};
use graphflow_exec::RuntimeStats;
use graphflow_graph::intersect::{block, scalar};
use graphflow_graph::{intersect_sorted_into, select_kernel, simd_active, GraphBuilder, VertexId};
use graphflow_plan::DpOptimizer;
use graphflow_query::canonical::{canonical_form, canonical_form_pinned};
use graphflow_query::{patterns, QueryGraph};
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
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

/// The extension questions the catalogue may ask about `q` (paper Section 5): every connected
/// vertex set of 2 to `h + 1 = 4` vertices, projected, with a vertex whose removal leaves it
/// connected pinned.
fn pinned_questions(q: &QueryGraph) -> Vec<(QueryGraph, Option<usize>)> {
    let sets = (1..q.full_set()).filter(|s| (2..=4).contains(&s.count_ones()));
    let connected = sets.filter(|&s| q.is_connected_subset(s));
    let pinned = connected.flat_map(|s| {
        let members = (0..q.num_vertices()).filter(move |&v| s & (1 << v) != 0);
        members.enumerate().filter_map(move |(rank, v)| {
            let rest = s & !(1 << v);
            q.is_connected_subset(rest)
                .then(|| (q.project(s).0, Some(rank)))
        })
    });
    pinned.collect()
}

/// `canonical_form` records (see the module doc): each sample runs `iters` passes over a set.
fn canonical_records() -> Vec<BenchRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let cold: Vec<QueryGraph> = (0..300)
        .map(|_| patterns::random_connected(&mut rng, 4..7, 3, 0..4))
        .collect();
    let mut ring = QueryGraph::new();
    for _ in 0..9 {
        ring.add_default_vertex();
    }
    for i in 0..9 {
        ring.add_edge(i, (i + 1) % 9, graphflow_graph::EdgeLabel(0));
    }
    let whole = |qs: Vec<QueryGraph>| qs.into_iter().map(|q| (q, None)).collect::<Vec<_>>();
    let mut large = patterns::large_corpus_a();
    large.extend(patterns::large_corpus_b());
    let sets = [
        (
            "cold_plan-like",
            cold.iter().flat_map(pinned_questions).collect(),
            2,
        ),
        ("cold_plan-like", whole(cold), 20),
        (
            "Q1-Q14",
            whole((1..=14).map(patterns::benchmark_query).collect()),
            200,
        ),
        (
            "9-cycle, 15-leaf star",
            whole(vec![ring, patterns::out_star(16)]),
            10,
        ),
        ("corpora A+B", whole(large), 2),
    ];
    let code = |(q, pinned): &(QueryGraph, Option<usize>)| match *pinned {
        Some(v) => canonical_form_pinned(q, v).0,
        None => canonical_form(q).0,
    };
    let mut records = Vec::new();
    for (name, set, iters) in sets {
        let pinned = if set[0].1.is_some() { " pinned" } else { "" };
        let (samples, _) =
            run_samples(iters, |_| set.iter().for_each(|i| drop(black_box(code(i)))));
        let stats = RuntimeStats {
            output_count: set.iter().map(code).collect::<HashSet<_>>().len() as u64,
            ..Default::default()
        };
        let query = format!("canonical_form {name}{pinned} ({} queries)", set.len());
        records.push(
            BenchRecord::new(query, "query-patterns", "canonical", &samples).with_stats(&stats),
        );
    }
    records
}

/// Join-table records (see the module doc): per build-side size and mode, one build record
/// and one probe record.
fn join_records() -> Vec<BenchRecord> {
    // A well-mixed 64-bit stream, so keys arrive in no useful order.
    let mix = |i: u64| {
        let z = (i ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut records = Vec::new();
    for log2 in [16u32, 23] {
        let tuples = 1u64 << log2;
        let keys = tuples / 2;
        // Key number k is the vertex pair (k mod 2^10, k div 2^10); numbers >= `keys` were
        // never built, so they miss.
        let key = |k: u64| [(k & 1023) as VertexId, (k >> 10) as VertexId];
        let build = |counts_only: bool| {
            let mut builder = JoinTableBuilder::new(2, 1, counts_only);
            for i in 0..tuples {
                builder.insert(&key(mix(i) & (keys - 1)), [i as VertexId]);
            }
            builder.finish()
        };
        let probe = |table: &JoinTable| {
            let mut joined = 0u64;
            for i in 0..tuples {
                let Some(id) = table.find(&key(mix(!i) & (2 * keys - 1))) else {
                    continue;
                };
                if table.counts_only() {
                    joined += table.count(id) as u64;
                } else {
                    let payloads = table.payloads(id);
                    joined += payloads.len() as u64;
                    black_box(payloads.iter().fold(0, |a, &v| a ^ v));
                }
            }
            joined
        };
        let dataset = format!("synthetic 2^{log2} build tuples");
        for (plan, counts_only) in [("table", false), ("counts", true)] {
            let timed = |f: &mut dyn FnMut() -> u64| {
                let output = f();
                let samples: Vec<Duration> = (0..sample_count())
                    .map(|_| {
                        let start = Instant::now();
                        black_box(f());
                        start.elapsed()
                    })
                    .collect();
                (samples, output)
            };
            let (build_samples, distinct) = timed(&mut || build(counts_only).num_keys() as u64);
            let table = build(counts_only);
            let (probe_samples, joined) = timed(&mut || probe(&table));
            for (phase, samples, output_count) in [
                ("build", build_samples, distinct),
                ("probe", probe_samples, joined),
            ] {
                let stats = RuntimeStats {
                    output_count,
                    ..Default::default()
                };
                let query = format!("join {phase} 2^{log2} tuples");
                records.push(BenchRecord::new(query, &dataset, plan, &samples).with_stats(&stats));
            }
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
    let canonical = canonical_records();
    let rows: Vec<Vec<String>> = (canonical.iter())
        .map(|r| {
            let codes = r.stats.map_or(0, |s| s.output_count);
            vec![
                r.query.clone(),
                format!("{:.3}", r.median_ms()),
                codes.to_string(),
            ]
        })
        .collect();
    print_table(
        "canonical_form (per-sample wall time)",
        &["query set", "median_ms", "codes"],
        &rows,
    );
    records.extend(canonical);
    let join = join_records();
    let rows: Vec<Vec<String>> = (join.iter())
        .map(|r| {
            let output = r.stats.map_or(0, |s| s.output_count);
            vec![
                r.query.clone(),
                r.plan.clone(),
                format!("{:.3}", r.median_ms()),
                output.to_string(),
            ]
        })
        .collect();
    print_table(
        "hash-join table, build and probe (per-sample wall time)",
        &["phase / build side", "mode", "median_ms", "output"],
        &rows,
    );
    records.extend(join);
    bench_report("kernel_microbench", &records).expect("write benchmark report");
}
