//! Fig. 7: latency distribution of a chatbot (ShareGPT) workload vs a
//! ReAct agent, processing one request at a time with prefix caching.

use agentsim_metrics::{Histogram, Table};
use agentsim_serving::{FleetSim, ServingConfig, Workload};

use crate::figure::{FigureResult, Scale};

const TRICKLE_QPS: f64 = 0.02; // one request at a time

fn trickle(workload: Workload, scale: &Scale) -> agentsim_serving::FleetReport {
    FleetSim::new(
        ServingConfig::new(workload, TRICKLE_QPS, scale.serving_requests).seed(scale.seed),
    )
    .run()
}

/// Measures both latency distributions.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "fig07",
        "Latency distribution: ShareGPT chatbot vs ReAct agent (Fig. 7)",
    );
    let chatbot = trickle(Workload::Chatbot, scale);
    let agent = trickle(Workload::react_hotpotqa(), scale);

    let mut table = Table::with_columns(&["Workload", "p50 s", "p95 s", "max s", "p95-p50 s"]);
    for (name, r) in [("ShareGPT", &chatbot), ("ReAct/HotpotQA", &agent)] {
        table.row(vec![
            name.to_string(),
            format!("{:.1}", r.p50_s),
            format!("{:.1}", r.p95_s),
            format!("{:.1}", r.latencies.summary().max()),
            format!("{:.1}", r.p95_s - r.p50_s),
        ]);
    }
    result.table("Latency summary (one request at a time)", table);

    for (name, r) in [("ShareGPT", &chatbot), ("ReAct/HotpotQA", &agent)] {
        let mut hist = Histogram::new(0.0, 40.0, 20);
        for &v in r.latencies.values() {
            hist.record(v);
        }
        let mut t = Table::with_columns(&["bin start s", "bin end s", "count"]);
        for (lo, hi, c) in hist.iter().filter(|&(_, _, c)| c > 0) {
            t.row(vec![format!("{lo:.0}"), format!("{hi:.0}"), c.to_string()]);
        }
        result.table(&format!("{name} latency histogram"), t);
    }

    let chatbot_in_band = {
        let mut hist = Histogram::new(0.0, 40.0, 40);
        for &v in chatbot.latencies.values() {
            hist.record(v);
        }
        1.0 - hist.tail_fraction(9.0)
    };
    result.check(
        "chatbot-consistent",
        chatbot_in_band > 0.8,
        format!(
            "{:.0}% of chatbot responses complete within 9 s (paper: most in 3-7 s)",
            chatbot_in_band * 100.0
        ),
    );
    result.check(
        "agent-heavier-tail",
        agent.p95_s - agent.p50_s > 1.2 * (chatbot.p95_s - chatbot.p50_s),
        format!(
            "spread (p95-p50): agent {:.1} s vs chatbot {:.1} s",
            agent.p95_s - agent.p50_s,
            chatbot.p95_s - chatbot.p50_s
        ),
    );
    result.check(
        "agent-slower-overall",
        agent.p50_s > chatbot.p50_s,
        format!(
            "median latency: agent {:.1} s vs chatbot {:.1} s",
            agent.p50_s, chatbot.p50_s
        ),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 25,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
