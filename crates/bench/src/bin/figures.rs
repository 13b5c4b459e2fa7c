//! Regenerates every table and figure of the paper (plus ablations) and
//! writes text/CSV outputs under `results/`.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin figures            # all, paper scale
//! cargo run -p agentsim-bench --release --bin figures fig14      # one artifact
//! cargo run -p agentsim-bench --release --bin figures -- --quick # test scale
//! ```
//!
//! Paper-scale runs write `results/`; `--quick` runs write
//! `target/results-quick/`. A subset run rewrites only its own rows of
//! the directory's `INDEX.md`.
//!
//! Exit code is non-zero if any shape check fails.

use std::time::Instant;

use agentsim::experiments::all_experiments;
use agentsim_bench::{index_row, merge_index, parse_args, results_dir, write_result};

fn main() {
    let (ids, scale) = parse_args(std::env::args().skip(1));
    let dir = results_dir(&scale);
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
    let mut index_rows = Vec::new();
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
        index_rows.push(index_row(
            e.id,
            e.paper_ref,
            e.title,
            result.checks.len(),
            ok,
        ));
        if let Err(err) = write_result(&dir, &result) {
            eprintln!("    could not write results: {err}");
        }
    }

    let index_path = dir.join("INDEX.md");
    let existing = std::fs::read_to_string(&index_path).unwrap_or_default();
    let order: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    if let Err(err) = std::fs::write(&index_path, merge_index(&existing, &order, &index_rows)) {
        eprintln!("could not write index: {err}");
    }

    println!(
        "\n{} experiment(s) in {:.0}s; outputs under {}/",
        experiments.len(),
        started.elapsed().as_secs_f64(),
        dir.display()
    );
    if failures > 0 {
        eprintln!("{failures} experiment(s) had failing shape checks");
        std::process::exit(1);
    }
}
