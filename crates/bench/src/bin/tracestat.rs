//! Trace exporter driver: runs a serving workload with a `SpanRecorder`
//! attached and writes the observability artifacts.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin tracestat             # export
//! cargo run -p agentsim-bench --release --bin tracestat -- --check # CI smoke
//! ```
//!
//! The default mode writes, at the repository root:
//!
//! * `TRACE_serving.json` — Chrome `trace_event` JSON of an open-loop
//!   ReAct/HotpotQA run (load it in `chrome://tracing` or Perfetto),
//! * `TRACE_fleet.json` — the same format for a 3-replica round-robin
//!   fleet, one process track per replica,
//! * `TRACE_events.jsonl` — the raw engine event log of the serving run.
//!
//! `--check` runs a small workload, validates every artifact with the
//! in-tree JSON parser, verifies the span partition invariant
//! (queue + prefill + decode + stall == e2e for every request), and
//! writes nothing.

use agentsim_bench::repo_root;
use agentsim_metrics::json;
use agentsim_serving::{
    chrome_trace, FleetConfig, FleetSim, Routing, ServingConfig, SpanRecorder, Workload,
};

/// Runs `config` with one recorder per replica attached.
fn record(config: impl Into<FleetConfig>) -> Vec<SpanRecorder> {
    let mut sim = FleetSim::new(config);
    let recorders = sim.attach_recorders();
    sim.run();
    recorders
}

/// Validates one recorder's spans and exports; returns (spans, steps).
fn verify(label: &str, recorder: &SpanRecorder) -> (usize, usize) {
    let spans = recorder.spans();
    for s in &spans {
        assert!(s.is_complete(), "{label}: {} unfinished", s.id);
        assert_eq!(
            s.attributed(),
            s.e2e().expect("complete"),
            "{label}: {} span phases must partition its e2e latency",
            s.id
        );
    }
    json::validate(&recorder.chrome_trace())
        .unwrap_or_else(|e| panic!("{label}: invalid Chrome trace: {e}"));
    for line in recorder.events_jsonl().lines() {
        json::validate(line).unwrap_or_else(|e| panic!("{label}: invalid JSONL line {line}: {e}"));
    }
    (spans.len(), recorder.steps().len())
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

    let serving_requests = if check { 8 } else { 40 };
    let fleet_requests = if check { 8 } else { 30 };

    // Open-loop ReAct/HotpotQA on one shared replica.
    let serving =
        record(ServingConfig::new(Workload::react_hotpotqa(), 2.0, serving_requests).seed(7))
            .remove(0);
    let (spans, steps) = verify("serving", &serving);
    println!("serving: {spans} request spans over {steps} engine steps");

    // A 3-replica round-robin fleet.
    let fleet =
        record(FleetConfig::react_hotpotqa(3, Routing::RoundRobin, 3.0, fleet_requests).seed(7));
    let labels: Vec<String> = (0..fleet.len()).map(|i| format!("replica{i}")).collect();
    let pairs: Vec<(&str, &SpanRecorder)> = labels
        .iter()
        .map(String::as_str)
        .zip(fleet.iter())
        .collect();
    for (label, recorder) in &pairs {
        let (spans, steps) = verify(label, recorder);
        println!("{label}: {spans} request spans over {steps} engine steps");
    }
    let fleet_trace = chrome_trace(&pairs);
    json::validate(&fleet_trace).unwrap_or_else(|e| panic!("invalid fleet trace: {e}"));

    if check {
        println!("tracestat --check passed");
        return;
    }

    let root = repo_root();
    for (name, content) in [
        ("TRACE_serving.json", serving.chrome_trace()),
        ("TRACE_fleet.json", fleet_trace),
        ("TRACE_events.jsonl", serving.events_jsonl()),
    ] {
        let path = root.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}
