//! Regenerates every table and figure of the paper (plus ablations) and
//! writes text/CSV outputs under `results/`.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin figures            # all, paper scale
//! cargo run -p agentsim-bench --release --bin figures fig14      # one artifact
//! cargo run -p agentsim-bench --release --bin figures -- --quick # test scale
//! ```
//!
//! Exit code is non-zero if any shape check fails.

use std::path::Path;
use std::time::Instant;

use agentsim::experiments::all_experiments;
use agentsim_bench::{parse_args, write_result, RESULTS_DIR};

fn main() {
    let (ids, scale) = parse_args(std::env::args().skip(1));
    let dir = Path::new(RESULTS_DIR);
    let experiments: Vec<_> = all_experiments()
        .into_iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id))
        .collect();
    if experiments.is_empty() {
        eprintln!("no experiment matches {ids:?}; known ids:");
        for e in all_experiments() {
            eprintln!("  {:<18} {:<10} {}", e.id, e.paper_ref, e.title);
        }
        std::process::exit(2);
    }

    println!(
        "Running {} experiment(s) at scale {{samples: {}, serving_requests: {}}}\n",
        experiments.len(),
        scale.samples,
        scale.serving_requests
    );

    let mut failures = 0usize;
    let mut index_rows: Vec<(String, String, String, usize, bool)> = Vec::new();
    let started = Instant::now();
    for e in &experiments {
        let t0 = Instant::now();
        print!("{:<18} {:<10} ... ", e.id, e.paper_ref);
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let result = e.run(&scale);
        let ok = result.all_checks_pass();
        if !ok {
            failures += 1;
        }
        println!(
            "{} ({} checks, {:.1}s)",
            if ok { "ok" } else { "CHECK FAILURES" },
            result.checks.len(),
            t0.elapsed().as_secs_f64()
        );
        for c in result.checks.iter().filter(|c| !c.passed) {
            println!("    {c}");
        }
        index_rows.push((
            e.id.to_string(),
            e.paper_ref.to_string(),
            e.title.to_string(),
            result.checks.len(),
            ok,
        ));
        if let Err(err) = write_result(dir, &result) {
            eprintln!("    could not write results: {err}");
        }
    }

    // Emit an index of the run. No wall times: regenerating identical
    // results leaves the file unchanged.
    let mut index = String::from(
        "# results index\n\n| id | paper | title | checks | status |\n|---|---|---|---|---|\n",
    );
    for (id, paper, title, checks, ok) in &index_rows {
        index.push_str(&format!(
            "| [{id}]({id}.txt) | {paper} | {title} | {checks} | {} |\n",
            if *ok { "pass" } else { "FAIL" }
        ));
    }
    if let Err(err) = std::fs::write(dir.join("INDEX.md"), index) {
        eprintln!("could not write index: {err}");
    }

    println!(
        "\n{} experiment(s) in {:.0}s; outputs under {}/",
        experiments.len(),
        started.elapsed().as_secs_f64(),
        RESULTS_DIR
    );
    if failures > 0 {
        eprintln!("{failures} experiment(s) had failing shape checks");
        std::process::exit(1);
    }
}
