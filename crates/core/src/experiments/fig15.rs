//! Fig. 15: p95 latency vs QPS with and without prefix caching — the
//! serving-throughput value of caching.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{peak_throughput, qps_sweep, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

/// Sweeps load ± prefix caching for chatbot and agent traffic.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "fig15",
        "Serving tail latency vs QPS, with and without prefix caching (Fig. 15)",
    );

    let chatbot_points = [1.0, 2.0, 4.0, 6.0, 8.0];
    let agent_points = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0];
    let mut gains = Vec::new();

    for (name, workload, points) in [
        ("ShareGPT", Workload::Chatbot, &chatbot_points[..]),
        (
            "ReAct/HotpotQA",
            Workload::Agent {
                kind: agentsim_agents::AgentKind::React,
                benchmark: Benchmark::HotpotQa,
                config: agentsim_agents::AgentConfig::default_8b(),
            },
            &agent_points[..],
        ),
    ] {
        let mut table =
            Table::with_columns(&["QPS", "p95 s (on)", "p95 s (off)", "tput on", "tput off"]);
        let on = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &workload,
            points,
            scale.serving_requests,
            scale.seed,
        );
        let off = qps_sweep(
            &EngineConfig::a100_llama8b().with_prefix_caching(false),
            &workload,
            points,
            scale.serving_requests,
            scale.seed,
        );
        for (a, b) in on.iter().zip(&off) {
            table.row(vec![
                format!("{:.2}", a.qps),
                format!("{:.1}", a.report.p95_s),
                format!("{:.1}", b.report.p95_s),
                format!("{:.2}", a.report.throughput),
                format!("{:.2}", b.report.throughput),
            ]);
        }
        result.table(&format!("{name}: prefix caching on vs off"), table);
        let peak_on = peak_throughput(&on);
        let peak_off = peak_throughput(&off).max(1e-9);
        gains.push((name, peak_on / peak_off, peak_on, peak_off));
    }

    let chatbot_gain = gains[0].1;
    let agent_gain = gains[1].1;
    result.note(format!(
        "Peak-throughput gain from prefix caching: ShareGPT {chatbot_gain:.2}x \
         (paper: 1.03x), ReAct/HotpotQA {agent_gain:.2}x (paper: 5.62x)."
    ));
    result.check(
        "caching-helps-agents-far-more",
        agent_gain > 1.5 * chatbot_gain,
        format!("agent gain {agent_gain:.2}x vs chatbot gain {chatbot_gain:.2}x"),
    );
    result.check(
        "chatbot-barely-benefits",
        chatbot_gain < 1.5,
        format!("chatbot gain {chatbot_gain:.2}x (single-call requests share little)"),
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
