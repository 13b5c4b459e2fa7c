//! Disaggregated-serving driver: runs the colocated baseline and a
//! 1-prefill + 1-decode split, verifies the five-phase latency
//! partition, and writes the reports plus streamed span logs.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin disaggstat             # export
//! cargo run -p agentsim-bench --release --bin disaggstat -- --check # CI smoke
//! ```
//!
//! The default mode writes, at the repository root:
//!
//! * `DISAGG_report.json` — `{"colocated": ..., "disagg": ...}` run
//!   summaries (TTFT/TPOT/goodput/phase totals) at the same seed,
//! * `DISAGG_prefill_spans.jsonl` / `DISAGG_decode_spans.jsonl` —
//!   per-request lifecycle spans streamed incrementally from each pool
//!   (flushed as every request retires, not buffered to run end).
//!
//! `--check` runs a small workload and verifies, for every call, that
//! queue + prefill + transfer + decode + stall telescopes exactly into
//! its end-to-end latency (the transfer phase nonzero exactly for
//! migrated calls), that both report JSON summaries parse, and that the
//! streamed span lines are valid JSON; it writes nothing permanent.

use agentsim_bench::repo_root;
use agentsim_metrics::json;
use agentsim_serving::{DisaggConfig, DisaggReport, DisaggSim, SpanStreamWriter, Workload};
use agentsim_simkit::SimDuration;

/// Builds the two iso-GPU configurations compared throughout.
fn configs(requests: u64) -> (DisaggConfig, DisaggConfig) {
    let colocated = DisaggConfig::colocated(Workload::react_hotpotqa(), 2, 1.0, requests).seed(7);
    let disagg = DisaggConfig::new(Workload::react_hotpotqa(), 1.0, requests).seed(7);
    (colocated, disagg)
}

/// Runs one configuration with streaming span writers on every replica,
/// writing prefill-pool and decode-pool spans to the given paths.
fn run_streamed(
    cfg: DisaggConfig,
    prefill_path: &std::path::Path,
    decode_path: &std::path::Path,
) -> (DisaggReport, SpanStreamWriter, SpanStreamWriter) {
    let mut sim = DisaggSim::new(cfg);
    let (np, nd) = sim.pool_sizes();
    // One engine per pool keeps every span in a single stream; the pools
    // in these runs are sized 1 (or colocated with no decode pool).
    assert!(np == 1, "streamed run expects a single prefill replica");
    let prefill_writer = SpanStreamWriter::to_file(prefill_path).expect("open prefill span log");
    sim.set_replica_observer(0, Box::new(prefill_writer.clone()));
    let decode_writer = SpanStreamWriter::to_file(decode_path).expect("open decode span log");
    if nd > 0 {
        assert!(nd == 1, "streamed run expects a single decode replica");
        sim.set_replica_observer(1, Box::new(decode_writer.clone()));
    }
    let report = sim.run();
    prefill_writer.flush().expect("flush prefill span log");
    decode_writer.flush().expect("flush decode span log");
    (report, prefill_writer, decode_writer)
}

/// Verifies the five-phase partition over every call of a report.
fn verify_partition(label: &str, report: &DisaggReport) {
    assert!(report.completed > 0, "{label}: nothing completed");
    for call in &report.calls {
        let span = call.span();
        assert_eq!(
            span.total(),
            call.e2e(),
            "{label}: session {} call span must partition e2e exactly",
            call.session
        );
        assert_eq!(
            call.migrated(),
            span.transfer > SimDuration::ZERO,
            "{label}: transfer phase nonzero exactly for migrated calls"
        );
    }
    let phases: f64 = report.phase_totals().iter().map(|(_, s)| s).sum();
    let e2e: f64 = report.calls.iter().map(|c| c.e2e().as_secs_f64()).sum();
    assert!(
        (phases - e2e).abs() < 1e-9,
        "{label}: phase totals {phases} != summed e2e {e2e}"
    );
    json::validate(&report.to_json())
        .unwrap_or_else(|e| panic!("{label}: invalid report JSON: {e}"));
}

/// Validates a streamed span log: one JSON object per line.
fn verify_stream(label: &str, writer: &SpanStreamWriter, path: &std::path::Path) {
    assert!(
        writer.io_error().is_none(),
        "{label}: {:?}",
        writer.io_error()
    );
    assert_eq!(writer.live(), 0, "{label}: spans left unretired");
    let text = std::fs::read_to_string(path).expect("read span log");
    let mut lines = 0u64;
    for line in text.lines() {
        json::validate(line).unwrap_or_else(|e| panic!("{label}: invalid line {line}: {e}"));
        lines += 1;
    }
    assert_eq!(lines, writer.written(), "{label}: line count");
}

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        Some("--check") => true,
        Some(other) => {
            eprintln!("unknown flag {other}; use --check");
            std::process::exit(2);
        }
        None => false,
    };

    let requests = if check { 10 } else { 40 };
    let root = if check {
        std::env::temp_dir().join("disaggstat_check")
    } else {
        repo_root()
    };
    if check {
        std::fs::create_dir_all(&root).expect("temp dir");
    }
    let prefill_path = root.join("DISAGG_prefill_spans.jsonl");
    let decode_path = root.join("DISAGG_decode_spans.jsonl");

    let (colocated_cfg, disagg_cfg) = configs(requests);
    let link_name = disagg_cfg.link.name;
    let colocated = DisaggSim::new(colocated_cfg).run();
    verify_partition("colocated", &colocated);
    assert_eq!(colocated.migrated_calls, 0, "colocated never migrates");

    let (disagg, prefill_writer, decode_writer) =
        run_streamed(disagg_cfg, &prefill_path, &decode_path);
    verify_partition("disagg", &disagg);
    assert!(
        disagg.migrated_calls > 0,
        "disagg migrates multi-token calls"
    );
    verify_stream("prefill spans", &prefill_writer, &prefill_path);
    verify_stream("decode spans", &decode_writer, &decode_path);
    println!(
        "colocated: {} calls; disagg: {} calls, {} migrations, {:.1} MB over {}",
        colocated.calls.len(),
        disagg.calls.len(),
        disagg.migrated_calls,
        disagg.transferred_bytes as f64 / 1e6,
        link_name,
    );

    if check {
        let _ = std::fs::remove_file(&prefill_path);
        let _ = std::fs::remove_file(&decode_path);
        let _ = std::fs::remove_dir(&root);
        println!("disaggstat --check passed");
        return;
    }

    let report_path = root.join("DISAGG_report.json");
    let combined = format!(
        "{{\"colocated\":{},\"disagg\":{}}}",
        colocated.to_json(),
        disagg.to_json()
    );
    json::validate(&combined).expect("combined report JSON");
    if let Err(e) = std::fs::write(&report_path, combined) {
        eprintln!("could not write {}: {e}", report_path.display());
        std::process::exit(1);
    }
    for path in [&report_path, &prefill_path, &decode_path] {
        println!("wrote {}", path.display());
    }
}
