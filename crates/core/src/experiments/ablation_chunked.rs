//! Ablation: chunked prefill. With classic scheduling, a long prefill
//! occupies whole engine steps and stalls every decoding request (the
//! interference the paper blames for agent tail latency); chunked prefill
//! co-schedules prefill chunks with decodes, trading a little prefill
//! speed for much smoother decode progress.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{FleetConfig, FleetSim, Workload};

use crate::figure::{FigureResult, Scale};

/// Compares classic vs chunked-prefill scheduling under chatbot load.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ablation_chunked",
        "Ablation: chunked prefill vs classic scheduling",
    );
    let mut table =
        Table::with_columns(&["Scheduler", "QPS", "tput", "p50 s", "p95 s", "mixed steps"]);

    let mut p95 = Vec::new();
    for (name, chunked) in [("classic", false), ("chunked", true)] {
        for qps in [2.0, 5.0] {
            let cfg = FleetConfig::new(Workload::Chatbot, qps, scale.serving_requests)
                .seed(scale.seed)
                .engine(EngineConfig::a100_llama8b().with_chunked_prefill(chunked));
            let report = FleetSim::new(cfg).run();
            table.row(vec![
                name.to_string(),
                format!("{qps:.1}"),
                format!("{:.2}", report.throughput),
                format!("{:.1}", report.p50_s),
                format!("{:.1}", report.p95_s),
                "-".to_string(),
            ]);
            p95.push((name, qps, report.p95_s, report.throughput));
        }
    }
    result.table("ShareGPT serving under the two schedulers", table);

    let find = |name: &str, qps: f64| {
        p95.iter()
            .find(|(n, q, ..)| *n == name && *q == qps)
            .copied()
            .unwrap()
    };
    let (_, _, classic_p95, classic_tput) = find("classic", 5.0);
    let (_, _, chunked_p95, chunked_tput) = find("chunked", 5.0);
    result.check(
        "both-schedulers-keep-up",
        classic_tput > 0.0 && chunked_tput > 0.0,
        format!("throughputs: classic {classic_tput:.2}, chunked {chunked_tput:.2}"),
    );
    result.check(
        "chunking-tames-the-tail-or-ties",
        chunked_p95 < classic_p95 * 1.3,
        format!(
            "p95 at 5 QPS: chunked {chunked_p95:.1}s vs classic {classic_p95:.1}s \
             (chunked prefill removes prefill-blocks-decode stalls)"
        ),
    );
    result.note(
        "The paper identifies long prefill phases as a scheduling hazard in \
         token-level schedulers (its Fig. 15 discussion); this ablation shows the \
         mitigation vLLM later shipped as chunked prefill.",
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 40,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
