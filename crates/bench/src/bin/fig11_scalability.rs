//! Figure 11: scalability with worker threads — Q1 on the Twitter- and LiveJournal-like graphs,
//! Q2 on LiveJournal, and the 7-clique Q14 on Google.

use graphflow_bench::*;
use graphflow_core::QueryOptions;
use graphflow_datasets::Dataset;
use graphflow_query::patterns;

fn main() {
    let cases = [
        (Dataset::Twitter, 1usize),
        (Dataset::LiveJournal, 1usize),
        (Dataset::LiveJournal, 2usize),
        (Dataset::Google, 14usize),
    ];
    let mut report = Vec::new();
    for (ds, j) in cases {
        let db = db_for(ds);
        let q = patterns::benchmark_query(j);
        let plan = db.plan(&q).unwrap();
        let mut rows = Vec::new();
        let mut base = None;
        for threads in thread_sweep() {
            let m = measure(&db, &plan, &QueryOptions::new().threads(threads));
            report.push(m.record(format!("Q{j}"), ds.name(), format!("threads={threads}")));
            let (count, t) = (m.count, m.best());
            let speedup = base.get_or_insert(t.as_secs_f64()).max(1e-9) / t.as_secs_f64().max(1e-9);
            rows.push(vec![
                threads.to_string(),
                secs(t),
                format!("{speedup:.1}x"),
                count.to_string(),
            ]);
        }
        print_table(
            &format!("Figure 11: Q{j} on {}", ds.name()),
            &["threads", "time (s)", "speedup", "output"],
            &rows,
        );
    }
    println!("\npaper shape: near-linear scaling up to the physical core count (13x-16x at 16");
    println!("cores in the paper), flattening once hyperthreads / all cores are used.");
    bench_report("fig11_scalability", &report).expect("writing bench report");
}
