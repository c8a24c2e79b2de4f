//! `bench_e2e` — the repository's benchmark: six workloads through the real `graphflow-serve`
//! process over keep-alive sockets, eight end-to-end metrics, per-layer numbers from an outside
//! trace. See `README.md` beside this crate.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1    one run, one JSON line
//! bench_e2e suite [--seed N] [--repeats K] [--smoke] [--out F]  every workload, one record
//! bench_e2e compare A.json B.json                               two records, one verdict each
//! bench_e2e manifest                                            the text of BENCHMARK.json
//! ```

mod check;
mod http;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod run;
mod serverproc;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--scale X]\n\
         \x20                [--setup-reps K] [--serve-bin PATH] [--work-dir DIR] [--falsify]\n\
         \x20      bench_e2e suite [--seed N] [--seconds S] [--repeats K] [--smoke] [--out FILE]\n\
         \x20                [--serve-bin PATH] [--work-dir DIR]\n\
         \x20      bench_e2e compare A.json B.json\n\
         \x20      bench_e2e manifest\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.0).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            return None;
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: {v:?}")),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }
}

fn base_config(args: &mut Args) -> Result<run::Config, String> {
    let serve_bin = match args.value("--serve-bin") {
        Some(p) => PathBuf::from(p),
        None => run::default_serve_bin()
            .ok_or("graphflow-serve not found beside bench_e2e; pass --serve-bin")?,
    };
    let work_dir = match args.value("--work-dir") {
        Some(p) => PathBuf::from(p),
        None => {
            run::default_work_dir().ok_or("cannot place the work directory; pass --work-dir")?
        }
    };
    Ok(run::Config {
        workload: args.value("--workload").unwrap_or_default(),
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(f64::from(report::RUN_SECONDS)),
        trace: args.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        scale: args.parsed("--scale")?.unwrap_or(1.0),
        setup_reps: args.parsed("--setup-reps")?.unwrap_or(5),
        serve_bin,
        work_dir,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        falsify: args.switch("--falsify"),
    })
}

fn one_run(mut args: Args) -> Result<ExitCode, String> {
    let cfg = base_config(&mut args)?;
    if !args.0.is_empty() {
        return Err(format!("unknown arguments {:?}", args.0));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let out = run::run(&cfg)?;
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    for (name, value) in &out.metrics {
        eprintln!("{name:<36} {value:>16.4} {}", report::unit_of(name));
    }
    let pooled: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|p| format!("p{p} {:.1}", stats::pct(&out.raw_query_us, *p)))
        .collect();
    eprintln!("pooled query latency, us: {}", pooled.join("  "));
    println!("{}", report::result_line(&out, cfg.trace)?);
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_suite(mut args: Args) -> Result<ExitCode, String> {
    let smoke = args.switch("--smoke");
    let mut base = base_config(&mut args)?;
    let results = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
    let mut repeats = args.parsed("--repeats")?.unwrap_or(5);
    if smoke {
        // About a twentieth of a full run: a quarter of the data, a tenth of the window, one
        // set-up and one repeat.
        base.scale = 0.25;
        base.seconds = 1.0;
        base.setup_reps = 1;
        repeats = 1;
    }
    let out = match args.value("--out") {
        Some(p) => PathBuf::from(p),
        None => results.join(if smoke {
            "last-smoke.json"
        } else {
            "last.json"
        }),
    };
    if !args.0.is_empty() {
        return Err(format!("unknown arguments {:?}", args.0));
    }
    let trace_dir = out.parent().map_or_else(|| results.clone(), PathBuf::from);
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;
    let correct = suite::suite(&suite::SuiteOptions {
        base,
        repeats: repeats.max(1),
        smoke,
        out,
        trace_dir,
    })?;
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("suite") => run_suite(Args(argv.split_off(1))),
        Some("compare") if argv.len() == 3 => suite::compare(argv[1].as_ref(), argv[2].as_ref())
            .map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
        Some("manifest") if argv.len() == 1 => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") && argv.iter().any(|a| a == "--workload") => {
            one_run(Args(argv))
        }
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
