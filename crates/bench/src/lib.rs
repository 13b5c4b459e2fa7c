//! Benchmark harness for the `agentsim` workspace.
//!
//! Two kinds of benchmarking live here:
//!
//! * **Figure/table regeneration** — the `figures` binary runs the
//!   experiment registry (every table and figure of the paper, plus
//!   ablations) and writes text tables under `results/` (paper scale) or
//!   `target/results-quick/` (`--quick`, so a smoke run never overwrites
//!   the committed tables):
//!
//!   ```sh
//!   cargo run -p agentsim-bench --release --bin figures            # everything
//!   cargo run -p agentsim-bench --release --bin figures fig14      # one artifact
//!   cargo run -p agentsim-bench --release --bin figures -- --quick # smaller samples
//!   ```
//!
//!   Experiments may also return artifact files, written next to their
//!   tables: `figures ext_spans` writes the Chrome traces and event log
//!   `results/TRACE_*`, and `figures ext_disagg` the disaggregated
//!   report and streamed span logs `results/DISAGG_*`. They are
//!   untracked; each experiment's last table pins their bytes.
//!
//! * **Simulator wall clock** — `perfstat` times the fleet driver and
//!   gates the CI smoke against the baseline in `BENCH_fleet.json`:
//!
//!   ```sh
//!   cargo run -p agentsim-bench --release --bin perfstat -- --check
//!   ```

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use agentsim::{FigureResult, Scale};

/// Where the `figures` binary writes paper-scale outputs.
pub const RESULTS_DIR: &str = "results";

/// The directory a `figures` run at `scale` writes: the committed
/// [`RESULTS_DIR`] at paper scale, `target/results-quick` at any reduced
/// scale.
pub fn results_dir(scale: &Scale) -> PathBuf {
    if *scale == Scale::paper() {
        PathBuf::from(RESULTS_DIR)
    } else {
        Path::new("target").join(format!("{RESULTS_DIR}-quick"))
    }
}

/// Locates the repository root (the directory whose `Cargo.toml`
/// declares the workspace) by walking up from the current directory;
/// falls back to the current directory.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    cwd.ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        })
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// The header of `INDEX.md`.
const INDEX_HEADER: &str =
    "# results index\n\n| id | paper | title | checks | status |\n|---|---|---|---|---|\n";

/// One `INDEX.md` row. No wall times: regenerating identical results
/// leaves the file unchanged.
pub fn index_row(id: &str, paper: &str, title: &str, checks: usize, ok: bool) -> String {
    let status = if ok { "pass" } else { "FAIL" };
    format!("| [{id}]({id}.txt) | {paper} | {title} | {checks} | {status} |")
}

/// The experiment id an `INDEX.md` row links to.
fn row_id(row: &str) -> Option<&str> {
    row.strip_prefix("| [")?.split(']').next()
}

/// `INDEX.md` after a run that produced `rows`: each replaces the row
/// with its id in `existing`, every other row is kept, and rows follow
/// the registry `order` (rows of ids no longer registered are dropped).
pub fn merge_index(existing: &str, order: &[&str], rows: &[String]) -> String {
    let mut by_id: HashMap<&str, &str> = existing
        .lines()
        .chain(rows.iter().map(String::as_str))
        .filter_map(|row| Some((row_id(row)?, row)))
        .collect();
    let mut index = String::from(INDEX_HEADER);
    for id in order {
        if let Some(row) = by_id.remove(id) {
            index.push_str(row);
            index.push('\n');
        }
    }
    index
}

/// Writes one experiment's `<results>/<id>.txt`, a `.csv` file for each
/// table, and its artifacts under their own names.
///
/// # Errors
///
/// Returns an error if the results directory cannot be created or a file
/// cannot be written.
pub fn write_result(dir: &Path, result: &FigureResult) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.txt", result.id)), result.to_string())?;
    for (i, (_, table)) in result.tables.iter().enumerate() {
        let suffix = if result.tables.len() == 1 {
            String::new()
        } else {
            format!("_{}", i + 1)
        };
        fs::write(
            dir.join(format!("{}{suffix}.csv", result.id)),
            table.to_csv(),
        )?;
    }
    for (name, contents) in &result.artifacts {
        fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

/// Parses the `figures` binary's CLI: experiment ids (default all) and a
/// `--quick` flag.
///
/// # Errors
///
/// Returns the first unknown flag, so a typo never falls through to a
/// paper-scale run that rewrites `results/`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<(Vec<String>, Scale), String> {
    let mut ids = Vec::new();
    let mut scale = Scale::paper();
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "all" => {}
            other if !other.starts_with('-') => ids.push(other.to_string()),
            _ => return Err(arg),
        }
    }
    Ok((ids, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_defaults_to_paper_scale_all() {
        let (ids, scale) = parse_args(Vec::new()).unwrap();
        assert!(ids.is_empty());
        assert_eq!(scale, Scale::paper());
    }

    #[test]
    fn parse_args_reads_ids_and_quick() {
        let args = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string()));
        let (ids, scale) = args(&["fig04", "--quick", "table3", "all"]).unwrap();
        assert_eq!(ids, vec!["fig04".to_string(), "table3".to_string()]);
        assert_eq!(scale, Scale::quick());
        assert_eq!(args(&["fig04", "--quik"]), Err("--quik".to_string()));
    }

    #[test]
    fn quick_scale_writes_under_target() {
        assert_eq!(results_dir(&Scale::paper()), Path::new(RESULTS_DIR));
        let quick = results_dir(&Scale::quick());
        assert!(quick.starts_with("target"), "{quick:?}");
        assert_ne!(quick, Path::new(RESULTS_DIR));
    }

    #[test]
    fn subset_run_updates_only_its_own_index_rows() {
        let order = ["fig04", "fig05", "ext_disagg"];
        let full = merge_index(
            "",
            &order,
            &[
                index_row("ext_disagg", "Ext.", "Disagg", 9, true),
                index_row("fig04", "Fig. 4", "Calls", 3, true),
                index_row("fig05", "Fig. 5", "Latency", 3, true),
            ],
        );
        assert_eq!(full.lines().count(), 4 + 3, "header plus one row each");
        // Rows follow the registry, whatever order the run produced.
        let ids: Vec<_> = full.lines().filter_map(row_id).collect();
        assert_eq!(ids, order);
        let subset = merge_index(
            &full,
            &order,
            &[index_row("fig05", "Fig. 5", "Latency", 3, false)],
        );
        let changed: Vec<_> = full
            .lines()
            .zip(subset.lines())
            .filter(|(a, b)| a != b)
            .map(|(_, b)| b)
            .collect();
        assert_eq!(
            changed,
            vec![index_row("fig05", "Fig. 5", "Latency", 3, false)]
        );
        assert_eq!(
            merge_index(&full, &order, &[]),
            full,
            "a rerun of nothing is a no-op"
        );
        // Rows of experiments no longer registered are dropped.
        assert!(!merge_index(&full, &order[..2], &[]).contains("ext_disagg"));
    }

    #[test]
    fn write_result_creates_files() {
        let dir = std::env::temp_dir().join("agentsim-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = FigureResult::new("figXX", "demo");
        r.table("t", agentsim_metrics::Table::with_columns(&["a"]));
        r.attach_artifacts(vec![("figXX_spans.jsonl", "{}\n".to_string())]);
        write_result(&dir, &r).unwrap();
        assert!(dir.join("figXX.txt").exists());
        assert!(dir.join("figXX_1.csv").exists());
        assert!(dir.join("figXX_2.csv").exists(), "the artifact table");
        assert_eq!(
            std::fs::read_to_string(dir.join("figXX_spans.jsonl")).unwrap(),
            "{}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
