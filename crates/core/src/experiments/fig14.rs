//! Fig. 14: p50/p95 latency vs offered QPS for chatbot and agent
//! workloads, with prefix caching enabled — plus the "where did the
//! tail go" phase breakdown per load point, rebuilt from lifecycle
//! spans.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{
    peak_throughput, qps_sweep, qps_sweep_observed, Phase, SweepPoint, Workload,
};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

fn agent_workload(benchmark: Benchmark) -> Workload {
    Workload::Agent {
        kind: agentsim_agents::AgentKind::React,
        benchmark,
        config: agentsim_agents::AgentConfig::default_8b(),
    }
}

/// Sweeps offered load for the three paper workloads.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "fig14",
        "Tail latency vs QPS: ShareGPT chatbot vs ReAct agent (Fig. 14)",
    );
    let engine = EngineConfig::a100_llama8b();

    let chatbot_points = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0];
    let agent_points = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0];

    let mut peaks = Vec::new();

    // ReAct/HotpotQA runs with per-point span recorders: same seeds and
    // reports as a plain sweep, plus the phase attribution.
    let observed = qps_sweep_observed(
        &engine,
        &agent_workload(Benchmark::HotpotQa),
        &agent_points,
        scale.serving_requests,
        scale.seed,
    );
    {
        let mut table = Table::with_columns(&["QPS", "tput", "p50 s", "p95 s"]);
        for p in &observed {
            table.row(vec![
                format!("{:.2}", p.qps),
                format!("{:.2}", p.report.throughput),
                format!("{:.1}", p.report.p50_s),
                format!("{:.1}", p.report.p95_s),
            ]);
        }
        result.table("ReAct/HotpotQA load sweep", table);
        let as_points: Vec<SweepPoint> = observed
            .iter()
            .map(|p| SweepPoint {
                qps: p.qps,
                report: p.report.clone(),
            })
            .collect();
        peaks.push(("ReAct/HotpotQA", peak_throughput(&as_points)));
    }

    // Where did the tail go: per load point, the share of time the
    // slowest 5% of requests spent in each lifecycle phase.
    let mut phase_table = Table::with_columns(&[
        "QPS",
        "tail queue %",
        "tail prefill %",
        "tail decode %",
        "tail stall %",
        "all stall %",
    ]);
    for p in &observed {
        let pct = |x: f64| format!("{:.0}", x * 100.0);
        phase_table.row(vec![
            format!("{:.2}", p.qps),
            pct(p.tail.share(Phase::Queue)),
            pct(p.tail.share(Phase::Prefill)),
            pct(p.tail.share(Phase::Decode)),
            pct(p.tail.share(Phase::Stall)),
            pct(p.overall.share(Phase::Stall)),
        ]);
    }
    result.table(
        "Where did the tail go: phase shares of the slowest 5% (ReAct/HotpotQA)",
        phase_table,
    );
    let first = observed.first().expect("sweep has points");
    let last = observed.last().expect("sweep has points");
    result.check(
        "tail-shifts-from-decode-to-interference",
        last.tail.share(Phase::Stall) > first.tail.share(Phase::Stall) + 0.15
            && last.tail.share(Phase::Decode) < first.tail.share(Phase::Decode) - 0.15,
        format!(
            "tail stall share {:.0}% -> {:.0}% and decode share {:.0}% -> {:.0}% \
             from {} to {} QPS — past the knee the tail is admitted requests \
             stalled behind other requests' prefill bursts, not extra compute",
            first.tail.share(Phase::Stall) * 100.0,
            last.tail.share(Phase::Stall) * 100.0,
            first.tail.share(Phase::Decode) * 100.0,
            last.tail.share(Phase::Decode) * 100.0,
            first.qps,
            last.qps
        ),
    );
    let partition_ok = observed.iter().all(|p| {
        let shares = [
            p.tail.share(Phase::Queue),
            p.tail.share(Phase::Prefill),
            p.tail.share(Phase::Decode),
            p.tail.share(Phase::Stall),
        ];
        (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9
    });
    result.check(
        "phase-shares-partition-tail-time",
        partition_ok,
        "queue+prefill+decode+stall shares sum to 1 at every load point".to_string(),
    );

    // The other two workloads need no span attribution: plain sweeps.
    for (name, workload) in [
        ("ShareGPT", Workload::Chatbot),
        ("ReAct/WebShop", agent_workload(Benchmark::WebShop)),
    ] {
        let points: &[f64] = if name == "ShareGPT" {
            &chatbot_points
        } else {
            &agent_points
        };
        let sweep = qps_sweep(
            &engine,
            &workload,
            points,
            scale.serving_requests,
            scale.seed,
        );
        let mut table = Table::with_columns(&["QPS", "tput", "p50 s", "p95 s"]);
        for p in &sweep {
            table.row(vec![
                format!("{:.2}", p.qps),
                format!("{:.2}", p.report.throughput),
                format!("{:.1}", p.report.p50_s),
                format!("{:.1}", p.report.p95_s),
            ]);
        }
        result.table(&format!("{name} load sweep"), table);
        peaks.push((name, peak_throughput(&sweep)));
    }

    let peak = |name: &str| {
        peaks
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    };
    let chatbot = peak("ShareGPT");
    let hotpot = peak("ReAct/HotpotQA");
    let webshop = peak("ReAct/WebShop");
    result.note(format!(
        "Peak sustainable throughput: ShareGPT {chatbot:.1}, ReAct/HotpotQA {hotpot:.1}, \
         ReAct/WebShop {webshop:.1} QPS. Paper anchors: 6.4 / 2.6 / 1.2 QPS."
    ));
    result.check(
        "chatbot-sustains-more-load",
        chatbot > 1.3 * hotpot.max(webshop),
        format!("ShareGPT peak {chatbot:.1} vs agents {hotpot:.1}/{webshop:.1} QPS"),
    );
    result.check(
        "agents-within-paper-band",
        (1.2..5.0).contains(&hotpot),
        format!("ReAct/HotpotQA peak {hotpot:.1} QPS (paper: 2.6)"),
    );
    result.note(
        "The tail breakdown is the motivation for disaggregation (ext_disagg): \
         the overloaded tail is stall — admitted decodes blocked behind other \
         requests' prefill bursts — which a dedicated decode pool removes by \
         construction.",
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
