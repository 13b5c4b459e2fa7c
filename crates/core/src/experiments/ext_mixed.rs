//! Extension: multi-tenant interference. The paper serves chatbot and
//! agent workloads separately; production replicas host both. How much
//! does co-locating agent traffic degrade chatbot QoS?

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_metrics::Table;
use agentsim_serving::{FleetConfig, FleetSim, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

/// Sweeps the agent share of a fixed-rate traffic mix.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_mixed",
        "Extension: chatbot QoS under co-located agent traffic",
    );
    let qps = 3.0;
    let mut table = Table::with_columns(&[
        "Agent share",
        "chatbot p50 s",
        "chatbot p95 s",
        "agent p50 s",
        "GPU util",
        "hit rate",
    ]);

    let mut rows = Vec::new();
    for agent_fraction in [0.0, 0.2, 0.5] {
        let workload = if agent_fraction == 0.0 {
            Workload::Chatbot
        } else {
            Workload::Mixed {
                agent_fraction,
                kind: AgentKind::React,
                benchmark: Benchmark::HotpotQa,
                config: AgentConfig::default_8b(),
            }
        };
        let mut report =
            FleetSim::new(FleetConfig::new(workload, qps, scale.serving_requests).seed(scale.seed))
                .run();
        let (chat_p50, chat_p95) = if agent_fraction == 0.0 {
            (report.p50_s, report.p95_s)
        } else {
            (
                report.chatbot_latencies.try_median().unwrap_or(f64::NAN),
                report.chatbot_latencies.try_p95().unwrap_or(f64::NAN),
            )
        };
        let agent_p50 = if agent_fraction == 0.0 {
            0.0
        } else {
            report.agent_latencies.try_median().unwrap_or(f64::NAN)
        };
        table.row(vec![
            format!("{:.0}%", agent_fraction * 100.0),
            format!("{chat_p50:.1}"),
            format!("{chat_p95:.1}"),
            if agent_fraction == 0.0 {
                "-".to_string()
            } else {
                format!("{agent_p50:.1}")
            },
            format!("{:.2}", report.utilization[0]),
            format!("{:.2}", report.kv_hit_rate),
        ]);
        rows.push((agent_fraction, chat_p50, chat_p95));
    }
    result.table(
        &format!("{qps} QPS total on one A100/8B replica, varying agent share"),
        table,
    );

    let at = |f: f64| rows.iter().find(|(x, ..)| *x == f).copied().unwrap();
    let (_, pure_p50, pure_p95) = at(0.0);
    let (_, mixed_p50, mixed_p95) = at(0.5);
    result.check(
        "agent-traffic-degrades-chatbot-qos",
        mixed_p95 > pure_p95 && mixed_p50 > pure_p50 * 0.9,
        format!(
            "chatbot p95 {pure_p95:.1}s alone vs {mixed_p95:.1}s with a 50% agent mix — \
             long agent contexts and repeated calls crowd the shared engine"
        ),
    );
    result.note(
        "This quantifies the paper's QoS warning (Key Takeaway #7) in a setting it \
         does not measure: single-replica multi-tenancy. Isolation (dedicated \
         replicas or agent-aware admission) is the implied remedy.",
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 50,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
