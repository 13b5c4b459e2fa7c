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
//!
//! `--autoscale` replays a pinned one-flip schedule over a 2P+2D split
//! (the `autoscale_flip_schedule` golden) and checks the report
//! fingerprint bit for bit, the flip's drain/gap telescoping, and the
//! five-phase partition across the role change; it writes nothing.
//!
//! `--pipeline` replays the contended-PCIe cell twice — whole-footprint
//! serial transfers and 32-chunk layer-wise trains — pinning both
//! fingerprints bit for bit (the serial one against the pre-pipeline
//! driver's golden) and requiring the chunked arm to shrink the
//! transfer phase by at least 25%; it writes nothing.

use agentsim_bench::repo_root;
use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_metrics::json;
use agentsim_serving::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, FlipDirection, SpanStreamWriter,
    Workload,
};
use agentsim_simkit::{SimDuration, SimTime};

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

/// Replays the pinned one-flip schedule (the `autoscale_flip_schedule`
/// golden configuration) and checks its fingerprint bit for bit.
fn autoscale_check() {
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 16)
        .seed(0xD15A)
        .pools(2, 2)
        .flip_cost(FlipCostModel::warm())
        .autoscale(AutoscalePolicy::Schedule(vec![(
            SimTime::from_secs_f64(8.0),
            FlipDirection::PrefillToDecode,
        )]));
    let report = DisaggSim::new(cfg).run();
    verify_partition("autoscale", &report);

    assert_eq!(report.flips.len(), 1, "the scheduled flip must execute");
    let flip = &report.flips[0];
    assert_eq!(flip.direction, FlipDirection::PrefillToDecode);
    assert!(
        flip.requested <= flip.drained && flip.drained <= flip.completed,
        "flip timestamps must telescope"
    );
    assert_eq!(
        flip.flip_gap(),
        FlipCostModel::warm().flip_time(),
        "reconfiguration gap must match the cost model"
    );

    // The pinned fingerprint of `autoscale_flip_schedule` in
    // crates/serving/tests/golden.rs — bit-exact, no tolerance.
    let mut ttft = report.ttft();
    let mut tpot = report.tpot();
    let got = (
        report.completed,
        report.migrated_calls,
        report.transferred_bytes,
        report.p95_s.to_bits(),
        ttft.p95().to_bits(),
        tpot.percentile(99.0).to_bits(),
    );
    let want = (
        16u64,
        89u64,
        20497563648u64,
        0x403430316a055758u64,
        0x3fb1b25f633ce63au64,
        0x3f8fb69984a0e411u64,
    );
    assert_eq!(
        got, want,
        "autoscale fingerprint drifted from the pinned golden"
    );
    println!(
        "autoscale: {} calls, 1 flip (drain {:.3} s, gap {:.3} s), fingerprint ok",
        report.calls.len(),
        flip.drain_time().as_secs_f64(),
        flip.flip_gap().as_secs_f64(),
    );
}

/// Fingerprint of a pipeline-cell report: counters exact, floats as
/// bit patterns.
fn pipeline_fingerprint(report: &DisaggReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    let mut ttft = report.ttft();
    let mut tpot = report.tpot();
    (
        report.completed,
        report.migrated_calls,
        report.transferred_bytes,
        report.transfer_wait.as_micros(),
        report.p95_s.to_bits(),
        ttft.p95().to_bits(),
        tpot.percentile(99.0).to_bits(),
    )
}

/// Replays the contended-PCIe cell serially and as 32-chunk pipelined
/// trains, pinning both fingerprints bit for bit. The serial constants
/// are the pre-pipeline driver's (also pinned by
/// `crates/serving/tests/pipeline_differential.rs`); the chunked
/// constants are this driver's own golden going forward.
fn pipeline_check() {
    let cell = |chunks: u32| {
        DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 20)
            .seed(0x9C1E)
            .pools(1, 1)
            .link(LinkSpec::pcie_gen4())
            .transfer_chunks(chunks)
    };

    let serial = DisaggSim::new(cell(1)).run();
    verify_partition("pipeline serial", &serial);
    assert_eq!(
        pipeline_fingerprint(&serial),
        (
            20u64,
            91u64,
            18838716416u64,
            26886u64,
            0x4032da21fafc8b00u64,
            0x3fb878316a055758u64,
            0x3f90f16f4384ba0fu64,
        ),
        "serial fingerprint drifted from the pre-pipeline golden"
    );
    assert!(
        serial.links.iter().all(|l| l.chunks == l.transfers),
        "serial arm must move exactly one chunk per transfer"
    );

    let pipelined = DisaggSim::new(cell(32)).run();
    verify_partition("pipeline chunked", &pipelined);
    assert_eq!(
        pipeline_fingerprint(&pipelined),
        (
            20u64,
            87u64,
            17957912576u64,
            63641u64,
            0x403052ec5b078d93u64,
            0x3fb5e03f705857b0u64,
            0x3f909784ec636b09u64,
        ),
        "pipelined fingerprint drifted from the pinned golden"
    );
    assert!(
        pipelined.links.iter().any(|l| l.chunks > l.transfers),
        "pipelined arm must ship multi-chunk trains"
    );

    let (ser_t, pipe_t) = (serial.phase("transfer"), pipelined.phase("transfer"));
    assert!(
        pipe_t <= 0.75 * ser_t,
        "pipelining must shrink the transfer phase >=25% (serial {ser_t:.3} s, chunked {pipe_t:.3} s)"
    );
    println!(
        "pipeline: {} migrations, transfer phase {:.3} -> {:.3} s ({:.0}% smaller), \
         wait {:.1} -> {:.1} ms, both fingerprints ok",
        serial.migrated_calls,
        ser_t,
        pipe_t,
        (1.0 - pipe_t / ser_t) * 100.0,
        serial.transfer_wait.as_secs_f64() * 1e3,
        pipelined.transfer_wait.as_secs_f64() * 1e3,
    );
}

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        Some("--check") => true,
        Some("--autoscale") => {
            autoscale_check();
            println!("disaggstat --autoscale passed");
            return;
        }
        Some("--pipeline") => {
            pipeline_check();
            println!("disaggstat --pipeline passed");
            return;
        }
        Some(other) => {
            eprintln!("unknown flag {other}; use --check, --autoscale, or --pipeline");
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
