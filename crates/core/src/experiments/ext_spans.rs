//! Extension: latency breakdown from real lifecycle spans. The paper's
//! Fig. 5 decomposes end-to-end latency from request-level bookkeeping;
//! this experiment rebuilds the decomposition bottom-up from step-level
//! observability (the `SpanRecorder`): every engine request's life is
//! partitioned into queue / prefill / decode / stall segments that sum
//! *exactly* to its end-to-end latency, so the shares below are measured,
//! not modeled. It also exports fixed-size trace runs as the `TRACE_*`
//! artifacts and checks that their spans partition and they parse.

use agentsim_metrics::{json, Table};
use agentsim_serving::{
    chrome_trace, FleetConfig, FleetSim, RequestSpan, Routing, SpanRecorder, Workload,
};
use agentsim_simkit::SimDuration;

use crate::figure::{FigureResult, Scale};

struct Breakdown {
    mean_e2e_s: f64,
    queue: f64,
    prefill: f64,
    decode: f64,
    stall: f64,
    exact: bool,
}

fn breakdown(spans: &[RequestSpan]) -> Breakdown {
    let mut total = SimDuration::ZERO;
    let mut queue = SimDuration::ZERO;
    let mut prefill = SimDuration::ZERO;
    let mut decode = SimDuration::ZERO;
    let mut stall = SimDuration::ZERO;
    let mut exact = true;
    for s in spans {
        let e2e = s.e2e().expect("span complete");
        exact &= s.attributed() == e2e;
        total += e2e;
        queue += s.queue_time;
        prefill += s.prefill_time;
        decode += s.decode_time;
        stall += s.stall_time;
    }
    let t = total.as_secs_f64().max(f64::MIN_POSITIVE);
    Breakdown {
        mean_e2e_s: total.as_secs_f64() / spans.len().max(1) as f64,
        queue: queue.as_secs_f64() / t,
        prefill: prefill.as_secs_f64() / t,
        decode: decode.as_secs_f64() / t,
        stall: stall.as_secs_f64() / t,
        exact,
    }
}

/// Runs `config` with one recorder per replica attached.
fn record(config: FleetConfig) -> Vec<SpanRecorder> {
    let mut sim = FleetSim::new(config);
    let recorders = sim.attach_recorders();
    sim.run();
    recorders
}

/// The trace artifacts, fixed-size at every scale: an open-loop
/// ReAct/HotpotQA run on one replica (`TRACE_serving.json`, a Chrome
/// `trace_event` file for `chrome://tracing` or Perfetto, and its raw
/// engine event log `TRACE_events.jsonl`) and a 3-replica round-robin
/// fleet (`TRACE_fleet.json`, one process track per replica).
fn trace_artifacts(result: &mut FigureResult, seed: u64) {
    let serving =
        record(FleetConfig::new(Workload::react_hotpotqa(), 2.0, 40).seed(seed)).remove(0);
    let fleet = record(FleetConfig::react_hotpotqa(3, Routing::RoundRobin, 3.0, 30).seed(seed));
    let labels: Vec<String> = (0..fleet.len()).map(|i| format!("replica{i}")).collect();
    let pairs: Vec<(&str, &SpanRecorder)> = labels.iter().map(String::as_str).zip(&fleet).collect();
    let fleet_trace = chrome_trace(&pairs);
    let recorders: Vec<&SpanRecorder> = std::iter::once(&serving).chain(&fleet).collect();

    let spans: Vec<RequestSpan> = recorders.iter().flat_map(|r| r.spans()).collect();
    let unfinished = spans.iter().filter(|s| !s.is_complete()).count();
    result.check(
        "trace-spans-complete",
        !spans.is_empty() && unfinished == 0,
        format!(
            "{unfinished} of {} spans unfinished over the serving run and {} fleet replicas",
            spans.len(),
            fleet.len()
        ),
    );
    let unattributed = spans
        .iter()
        .filter(|s| s.e2e() != Some(s.attributed()))
        .count();
    result.check(
        "trace-spans-partition-e2e",
        unattributed == 0,
        format!(
            "{unattributed} of {} spans whose phases do not sum exactly to e2e",
            spans.len()
        ),
    );

    let mut traces: Vec<String> = recorders.iter().map(|r| r.chrome_trace()).collect();
    let mut logs: Vec<String> = recorders.iter().map(|r| r.events_jsonl()).collect();
    let documents: Vec<&str> = traces
        .iter()
        .chain([&fleet_trace])
        .map(String::as_str)
        .chain(logs.iter().flat_map(|log| log.lines()))
        .collect();
    let invalid = documents
        .iter()
        .filter(|d| json::validate(d).is_err())
        .count();
    result.check(
        "trace-exports-valid-json",
        invalid == 0,
        format!(
            "{invalid} of {} documents fail to parse: {} Chrome traces (one per \
             recorder plus the combined fleet trace) and {} JSONL event lines",
            documents.len(),
            traces.len() + 1,
            documents.len() - traces.len() - 1
        ),
    );
    result.attach_artifacts(vec![
        ("TRACE_serving.json", traces.swap_remove(0)),
        ("TRACE_fleet.json", fleet_trace),
        ("TRACE_events.jsonl", logs.swap_remove(0)),
    ]);
}

/// Measures phase shares per workload and the effect of load on queueing.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_spans",
        "Extension: latency breakdown from lifecycle spans",
    );
    let n = scale.serving_requests;

    let mut table = Table::with_columns(&[
        "Workload",
        "qps",
        "LLM calls",
        "mean e2e s",
        "queue",
        "prefill",
        "decode",
        "stall",
    ]);
    let mut rows = Vec::new();
    for (label, workload, qps) in [
        ("chatbot", Workload::Chatbot, 0.5),
        ("chatbot (loaded)", Workload::Chatbot, 8.0),
        ("react", Workload::react_hotpotqa(), 0.5),
        ("react (loaded)", Workload::react_hotpotqa(), 4.0),
    ] {
        let recorder = record(FleetConfig::new(workload, qps, n).seed(scale.seed)).remove(0);
        let spans = recorder.spans();
        let b = breakdown(&spans);
        table.row(vec![
            label.to_string(),
            format!("{qps:.1}"),
            spans.len().to_string(),
            format!("{:.2}", b.mean_e2e_s),
            format!("{:.0}%", b.queue * 100.0),
            format!("{:.0}%", b.prefill * 100.0),
            format!("{:.0}%", b.decode * 100.0),
            format!("{:.0}%", b.stall * 100.0),
        ]);
        rows.push((label, b, recorder));
    }
    result.table(
        "Engine-time shares of end-to-end latency, measured from spans (Fig. 5 rebuilt bottom-up)",
        table,
    );

    let mut steps = Table::with_columns(&["Workload", "steps", "prefill", "decode", "mixed"]);
    for (label, _, recorder) in &rows {
        let s = recorder.steps();
        let count = |k: agentsim_llm::StepKind| s.iter().filter(|r| r.kind == k).count();
        steps.row(vec![
            label.to_string(),
            s.len().to_string(),
            count(agentsim_llm::StepKind::Prefill).to_string(),
            count(agentsim_llm::StepKind::Decode).to_string(),
            count(agentsim_llm::StepKind::Mixed).to_string(),
        ]);
    }
    result.table("Engine step mix over the same runs", steps);

    let get = |l: &str| &rows.iter().find(|(x, _, _)| *x == l).expect("row").1;
    result.check(
        "spans-partition-e2e-exactly",
        rows.iter().all(|(_, b, _)| b.exact),
        "queue+prefill+decode+stall must equal e2e for every request (integer microseconds)"
            .to_string(),
    );
    result.check(
        "decode-dominates-prefill-at-low-load",
        get("chatbot").decode > get("chatbot").prefill
            && get("react").decode > get("react").prefill,
        format!(
            "token-by-token decode dwarfs one-shot prefill: chatbot {:.0}%/{:.0}%, react {:.0}%/{:.0}%",
            get("chatbot").decode * 100.0,
            get("chatbot").prefill * 100.0,
            get("react").decode * 100.0,
            get("react").prefill * 100.0
        ),
    );
    // Waiting = admission queue + in-batch stall: both are scheduler-induced,
    // and which one absorbs the pressure depends on batch capacity vs KV
    // pressure, so the robust load signal is their sum.
    let waiting = |b: &Breakdown| b.queue + b.stall;
    result.check(
        "load-shifts-time-into-waiting",
        waiting(get("chatbot (loaded)")) > waiting(get("chatbot"))
            && waiting(get("react (loaded)")) > waiting(get("react")),
        format!(
            "queue+stall share at high vs low load: chatbot {:.1}% vs {:.1}%, react {:.1}% vs {:.1}%",
            waiting(get("chatbot (loaded)")) * 100.0,
            waiting(get("chatbot")) * 100.0,
            waiting(get("react (loaded)")) * 100.0,
            waiting(get("react")) * 100.0
        ),
    );
    result.note(
        "Unlike Fig. 5's request-level accounting, these shares come from step-level \
         spans: the engine emits events per step and the recorder rebuilds each \
         request's life, so scheduler-induced waiting (queue, stall) is visible and \
         exactly separated from compute (prefill, decode).",
    );
    trace_artifacts(&mut result, scale.seed);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 20,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
