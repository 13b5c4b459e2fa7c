//! Extension: latency breakdown from real lifecycle spans. The paper's
//! Fig. 5 decomposes end-to-end latency from request-level bookkeeping;
//! this experiment rebuilds the decomposition bottom-up from step-level
//! observability (the `SpanRecorder`): every engine request's life is
//! partitioned into queue / prefill / decode / stall segments that sum
//! *exactly* to its end-to-end latency, so the shares below are measured,
//! not modeled.

use agentsim_metrics::Table;
use agentsim_serving::{FleetSim, RequestSpan, ServingConfig, SpanRecorder, Workload};
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

fn record(workload: Workload, qps: f64, requests: u64, seed: u64) -> SpanRecorder {
    let mut sim = FleetSim::new(ServingConfig::new(workload, qps, requests).seed(seed));
    let recorder = sim.attach_recorder();
    sim.run();
    recorder
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
        let recorder = record(workload, qps, n, scale.seed);
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
