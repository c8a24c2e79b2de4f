//! One run of one workload: set the system up (several times, for a steady `setup_s`), open
//! the timed window against the real server process, check every answer, stop the server,
//! reopen its data directory, and turn what was seen into named metrics.

use crate::check::{scan_buffered, verify, Compare};
use crate::http::Conn;
use crate::layers;
use crate::loadgen::{
    query_loop, run_window, warm_up, writer_loop, ConnReport, QuerySample, Stop, TxnSample,
    WriterReport,
};
use crate::oracle::Oracle;
use crate::serverproc::{fresh_dir, own_cpu_seconds, scrape, ServerProc};
use crate::stats::{balanced_pct, median, pct};
use crate::workloads::{
    build_graph, generate, plain_request, Batch, Req, Sizing, Workload, WritePace,
    ANALYTIC_TEMPLATES, BATCH_UPDATES,
};
use graphflow_core::GraphflowDB;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the traced variant: a shorter window, then the per-layer probes.
    pub trace: bool,
    /// Dataset scale (1.0 for real runs; `--smoke` shrinks it).
    pub scale: f64,
    /// How many times the system is set up; `setup_s` is the median.
    pub setup_reps: usize,
    pub serve_bin: PathBuf,
    /// Directory for data directories and server logs, inside the checkout.
    pub work_dir: PathBuf,
    pub nproc: usize,
    /// Self-test switch: plant one wrong expected answer, so the run must fail.
    pub falsify: bool,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Metric name to value: the end-to-end set for a plain run, the per-layer set for a
    /// traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Sizes and sample counts, for the record.
    pub sizes: BTreeMap<String, f64>,
    /// Query latencies in microseconds, in completion order per connection (thinned to at
    /// most [`MAX_RAW_SAMPLES`]).
    pub raw_query_us: Vec<f64>,
    pub raw_txn_us: Vec<f64>,
    /// Spans of the traced replay, already rendered as JSON objects.
    pub spans: Vec<String>,
}

const MAX_RAW_SAMPLES: usize = 4000;
/// Requests of every template a sub-window of the timed window should hold.
const SUB_WINDOW_SAMPLES: usize = 30;
const MAX_SUB_WINDOWS: usize = 10;

/// Which of `k` equal sub-windows of `[0, wall)` a completion time falls into.
fn sub_window_of(done_s: f64, wall: f64, k: usize) -> usize {
    ((done_s / wall * k as f64) as usize).min(k - 1)
}

/// A data directory (and the server log beside it) that is removed when the run is done with
/// it, so a hundred runs do not leave a hundred snapshots behind.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("log"));
    }
}

/// One finished set-up: a seeded data directory with a warmed-up server over it. The server
/// is declared before the directory, so it is stopped before its files are removed.
struct Setup {
    server: ServerProc,
    dir: DataDir,
    conns: Vec<Conn>,
    total: Duration,
    seed: Duration,
    snapshot_bytes: u64,
}

/// Generate the dataset, seed a data directory in process, boot the server on it and send
/// the warm-up list. This whole function is what `setup_s` times.
fn set_up(cfg: &Config, w: &Workload, rep: usize) -> Result<Setup, String> {
    let started = Instant::now();
    let graph = build_graph(w.dataset, w.scale, w.edge_labels);
    let dir = DataDir(fresh_dir(
        &cfg.work_dir,
        &format!("{}-{}-{}-{rep}", w.name, cfg.seed, std::process::id()),
    )?);
    let dir_path = dir.0.as_path();
    let seed_started = Instant::now();
    let db = GraphflowDB::builder(graph)
        .data_dir(dir_path)
        .open()
        .map_err(|e| format!("seed {}: {e}", dir_path.display()))?;
    drop(db);
    let seed = seed_started.elapsed();
    // One server worker per connection the run will hold open, and never fewer than two: the
    // writer needs its own beside a reader.
    let threads = cfg.nproc.max(2);
    let conns_needed = match w.pace {
        WritePace::Beside(_) => w.query_conns + 1,
        WritePace::After => w.query_conns,
    };
    let (server, mut conns) = ServerProc::boot(&cfg.serve_bin, dir_path, threads, conns_needed)?;
    warm_up(&mut conns[0], &w.warmup)?;
    let total = started.elapsed();
    let snapshot_bytes = std::fs::read_dir(dir_path)
        .map_err(|e| format!("list {}: {e}", dir_path.display()))?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".gfs"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    Ok(Setup {
        dir,
        server,
        conns,
        total,
        seed,
        snapshot_bytes,
    })
}

/// The two counts asked of the quiesced server, and of the reopened directory, after every
/// write was acknowledged: one over edges, one over the written property.
fn final_checks() -> Vec<Req> {
    vec![
        plain_request(ANALYTIC_TEMPLATES[0].1),
        plain_request("(a)->(b) WHERE a.score < 0.5 RETURN COUNT(*)"),
    ]
}

fn merge<S>(reports: Vec<ConnReport<S>>, out: &mut RunOutput) -> Vec<S> {
    let mut samples = Vec::new();
    for r in reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.extend(r.errors);
        samples.extend(r.samples);
    }
    samples
}

fn thin(samples: impl ExactSizeIterator<Item = f64>) -> Vec<f64> {
    let step = samples.len().div_ceil(MAX_RAW_SAMPLES).max(1);
    samples.step_by(step).collect()
}

pub fn run(cfg: &Config) -> Result<RunOutput, String> {
    let sizing = Sizing {
        scale: cfg.scale,
        seconds: cfg.seconds,
        nproc: cfg.nproc,
    };
    let w = generate(&cfg.workload, cfg.seed, sizing)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let mut out = RunOutput::default();

    // Expected answers first, so nothing sits between the warm-up and the timed window.
    let oracle = Oracle::new(w.graph.clone());
    let mut expects = oracle.expect_all(&w.requests)?;
    let beside = matches!(w.pace, WritePace::Beside(_));
    if beside {
        // A read that races the writer has no single right answer: check its shape only.
        for e in &mut expects {
            e.compare = Compare::RowCount;
        }
    }
    if cfg.falsify {
        expects[0].digest.rows += 1;
    }
    // The traced sample is the tail of the list: requests the window has not sent (or sent
    // longest ago), so on `cold_plan` they are as cold on the server as in the replay.
    let sample_from = w.requests.len() - w.trace_sample;
    let (sample_reqs, sample_expects) = (&w.requests[sample_from..], &expects[sample_from..]);
    // The traced run keeps part of its time for the per-layer probes.
    let window = if cfg.trace {
        cfg.seconds * layers::TRACED_WINDOW_SHARE
    } else {
        cfg.seconds
    };
    // The open-loop writer sends its share of the window; the closed-loop probe, all of it.
    let batches: &[Batch] = match w.pace {
        WritePace::Beside(rate) => {
            &w.batches[..((rate * window).round() as usize).clamp(1, w.batches.len())]
        }
        WritePace::After => &w.batches,
    };
    let applied: Vec<usize> = batches.iter().map(|b| oracle.apply(b)).collect();
    let finals = final_checks();
    let final_expects = oracle.expect_all(&finals)?;

    // Set up several times; the last one carries the run.
    let mut setups = Vec::with_capacity(cfg.setup_reps);
    let mut live: Option<Setup> = None;
    for rep in 0..cfg.setup_reps.max(1) {
        // Stop the previous set-up's server before the next set-up is timed.
        drop(live.take());
        let s = set_up(cfg, &w, rep)?;
        setups.push((s.total, s.seed));
        live = Some(s);
    }
    let Setup {
        dir,
        server,
        mut conns,
        snapshot_bytes,
        ..
    } = live.expect("at least one set-up");
    let secs = |pick: fn(&(Duration, Duration)) -> Duration| {
        median(
            &setups
                .iter()
                .map(|s| pick(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let setup_s = secs(|s| s.0);

    // The timed window.
    let before = scrape(&mut conns[0])?;
    let (cpu_server_0, cpu_client_0) = (server.cpu_seconds(), own_cpu_seconds());
    let (query_conns, writer_conn) = conns.split_at_mut(w.query_conns);
    let writer = match w.pace {
        WritePace::Beside(rate) => Some((&mut writer_conn[0], batches, &applied[..], rate)),
        WritePace::After => None,
    };
    let stop = Stop::At(Instant::now() + Duration::from_secs_f64(window));
    let (reports, written, opened) = run_window(query_conns, &w.requests, &expects, stop, writer);
    let window_closed = opened.elapsed().as_secs_f64();
    let (cpu_server_1, cpu_client_1) = (server.cpu_seconds(), own_cpu_seconds());
    let after = scrape(&mut conns[0])?;
    let queries: Vec<QuerySample> = merge(reports, &mut out);

    // The traced run measures the server layer on the same server while it is quiet and, on
    // the workloads that write afterwards, still holds the graph the oracle answered for.
    let server_probe = if cfg.trace {
        Some(layers::probe_server(
            &mut conns[0],
            sample_reqs,
            sample_expects,
        )?)
    } else {
        None
    };

    // The write transactions: beside the queries, or as a closed-loop probe after them.
    let written: WriterReport = match written {
        Some(wr) => wr,
        None => writer_loop(&mut conns[0], batches, &applied, None, Instant::now()),
    };
    let after_writes = scrape(&mut conns[0])?;
    let WriterReport {
        report: txn_report,
        max_lateness_us,
        acked,
        last_epoch,
    } = written;
    let txns_sent = txn_report.attempted as usize;
    let txns: Vec<TxnSample> = merge(vec![txn_report], &mut out);

    // Quiesced: every acknowledged write must be visible, and nothing else.
    if acked == batches.len() {
        let quiesced = query_loop(
            &mut conns[0],
            &finals,
            &final_expects,
            (0, 1),
            Instant::now(),
            Stop::After(finals.len()),
        );
        merge(vec![quiesced], &mut out);
        if last_epoch != oracle.epoch() {
            out.attempted += 1;
            out.failed += 1;
            out.errors.push(format!(
                "server epoch {last_epoch}, oracle {}",
                oracle.epoch()
            ));
        }
    } else {
        out.errors.push(format!(
            "{acked} of {} transactions acknowledged ({txns_sent} sent); final counts not compared",
            batches.len()
        ));
    }

    let peak_rss_mib = server.peak_rss_mib();
    let boot_s = server.boot.as_secs_f64();
    let conn0 = conns.remove(0);
    drop(conns);
    server.shutdown(conn0)?;

    // Durability: the directory alone must hold every acknowledged write.
    let reopen_started = Instant::now();
    let reopened =
        GraphflowDB::open(&dir.0).map_err(|e| format!("reopen {}: {e}", dir.0.display()))?;
    let reopen_s = reopen_started.elapsed().as_secs_f64();
    for (req, expect) in finals.iter().zip(&final_expects) {
        out.attempted += 1;
        let got = reopened
            .query(&req.query)
            .map_err(|e| e.to_string())
            .and_then(|rs| scan_buffered(rs.to_json().as_bytes()))
            .and_then(|s| verify(expect, &s));
        if let Err(e) = got {
            out.failed += 1;
            out.errors.push(format!("after reopen, {}: {e}", req.query));
        }
    }
    drop(reopened);

    // Turn the samples into metrics.
    //
    // Interference on a shared machine only ever slows a run down, and it comes in bursts of
    // a second or so. Every windowed metric is therefore taken per sub-window and reported as
    // the median over the sub-windows, which up to half of them can be disturbed without
    // moving. A sub-window is long enough to hold about thirty requests of every template,
    // so a workload of few, long requests has one sub-window: the whole window. So has the
    // workload whose writer runs beside the reads: its latencies follow the compaction cycle,
    // which is longer than a sub-window, and only the whole window holds a fixed part of it.
    let wall = window_closed.max(window);
    let in_window_txns = if beside { txns.len() } else { 0 };
    let per_class = (0..w.classes.len())
        .map(|c| queries.iter().filter(|s| usize::from(s.class) == c).count())
        .filter(|n| *n > 0)
        .min()
        .unwrap_or(0);
    let k = if beside {
        1
    } else {
        (per_class / SUB_WINDOW_SAMPLES).clamp(1, MAX_SUB_WINDOWS)
    };
    let mut sub_windows: Vec<Vec<&QuerySample>> = vec![Vec::new(); k];
    for s in &queries {
        sub_windows[sub_window_of(s.done_s, wall, k)].push(s);
    }
    let mut txns_per_sub_window = vec![0usize; k];
    if beside {
        for t in &txns {
            txns_per_sub_window[sub_window_of(t.done_s, wall, k)] += 1;
        }
    }
    let per_sub_window = |stat: &dyn Fn(&[&QuerySample]) -> f64| -> Vec<f64> {
        sub_windows
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| stat(b))
            .collect()
    };
    let latency = |p: f64| {
        per_sub_window(&|b| {
            let samples = b.iter().map(|s| (usize::from(s.class), s.latency_us / 1e3));
            balanced_pct(w.classes.len(), samples, p)
        })
    };
    // The tail is the 90th percentile: a sub-window holds about thirty requests of a
    // template, a whole window of the slower workloads about a hundred, so it is the highest
    // percentile with a handful of samples beyond it. It is also where a burst lands first:
    // of ten sub-windows, two or three have their tail doubled by one, and which ones differs
    // from run to run. The quietest sub-window's tail is the one that repeats; stalls the
    // system causes itself still show in the throughput and the medians, which every
    // sub-window contributes to.
    let quietest = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
    let per_second = |count: &dyn Fn(&[&QuerySample], usize) -> f64| {
        let length = wall / k as f64;
        let rates: Vec<f64> = sub_windows
            .iter()
            .zip(&txns_per_sub_window)
            .map(|(b, t)| count(b, *t) / length)
            .collect();
        median(&rates)
    };
    let txn_ms: Vec<f64> = txns.iter().map(|s| s.latency_us / 1e3).collect();
    // Transactions come one at a time on one connection: sub-windows of equal counts.
    let txn_chunks = (txns.len() / (2 * SUB_WINDOW_SAMPLES)).clamp(1, MAX_SUB_WINDOWS);
    let txn_p50: Vec<f64> = txn_ms
        .chunks(txn_ms.len().div_ceil(txn_chunks).max(1))
        .map(|c| pct(c, 50.0))
        .collect();
    out.sizes.extend([
        ("vertices".to_string(), w.graph.num_vertices() as f64),
        ("edges".to_string(), w.graph.num_edges() as f64),
        ("request_list".to_string(), w.requests.len() as f64),
        ("warmup_list".to_string(), w.warmup.len() as f64),
        ("query_connections".to_string(), w.query_conns as f64),
        ("query_samples".to_string(), queries.len() as f64),
        ("txn_samples".to_string(), txns.len() as f64),
        ("updates_per_txn".to_string(), BATCH_UPDATES as f64),
        ("window_s".to_string(), window),
        ("sub_windows".to_string(), k as f64),
        ("setup_repeats".to_string(), setups.len() as f64),
    ]);
    out.raw_query_us = thin(queries.iter().map(|s| s.latency_us));
    out.raw_txn_us = thin(txns.iter().map(|s| s.latency_us));
    if cfg.trace {
        let ctx = layers::Context {
            cfg,
            workload: &w,
            sample: sample_reqs,
            written_before_sample: if beside { batches } else { &[] },
            queries: &queries,
            txn_count: txns.len(),
            txn_p95_ms: pct(&txn_ms, 95.0),
            txns_in_window: in_window_txns,
            metrics_window: (&before, &after),
            metrics_writes: (&before, &after_writes),
            server_cpu_s: cpu_server_1 - cpu_server_0,
            client_cpu_s: cpu_client_1 - cpu_client_0,
            attempted: out.attempted,
            failed: out.failed,
            max_lateness_us,
            boot_s,
            seed_s: secs(|s| s.1),
            reopen_s,
            snapshot_bytes,
            server_probe: server_probe.expect("traced run probed the server"),
        };
        let traced = layers::measure(&ctx)?;
        out.metrics = traced.metrics;
        out.spans = traced.spans;
    } else {
        out.metrics.extend([
            ("setup_s".to_string(), setup_s),
            (
                "throughput_rps".to_string(),
                per_second(&|b, txns| (b.len() + txns) as f64),
            ),
            ("query_p50_ms".to_string(), median(&latency(50.0))),
            ("query_p90_ms".to_string(), quietest(latency(90.0))),
            (
                "ttfb_p50_ms".to_string(),
                median(&per_sub_window(&|b| {
                    let samples = b.iter().map(|s| (usize::from(s.class), s.ttfb_us / 1e3));
                    balanced_pct(w.classes.len(), samples, 50.0)
                })),
            ),
            (
                "rows_per_s".to_string(),
                per_second(&|b, _| b.iter().map(|s| s.rows).sum::<u64>() as f64),
            ),
            ("txn_p50_ms".to_string(), median(&txn_p50)),
            ("server_peak_rss_mb".to_string(), peak_rss_mib),
        ]);
    }
    Ok(out)
}

/// Where the server binary was built: beside this binary, in the shared target directory.
pub fn default_serve_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("graphflow-serve");
    candidate.exists().then_some(candidate)
}

/// Default place for data directories: inside the target directory this binary runs from, so
/// a run writes only where the build already writes.
pub fn default_work_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(Path::new(exe.parent()?).parent()?.join("e2e-work"))
}
