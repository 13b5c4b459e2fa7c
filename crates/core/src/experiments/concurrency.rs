//! §IV-C: importance of concurrent request scheduling — sequential vs
//! concurrent execution of ReAct agents.

use agentsim_agents::AgentKind;
use agentsim_metrics::Table;
use agentsim_serving::{FleetSim, ServingConfig, SingleRequest, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

/// Measures the throughput gain from concurrent execution.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "concurrency",
        "Sequential vs concurrent agent execution (Sec. IV-C)",
    );
    let mut table = Table::with_columns(&[
        "Benchmark",
        "Seq latency s",
        "Seq QPS",
        "Conc QPS",
        "Gain",
        "Conc latency s",
    ]);

    let mut gains = Vec::new();
    for benchmark in [Benchmark::HotpotQa, Benchmark::WebShop] {
        // Sequential: requests one after another — throughput is the
        // reciprocal of mean single-request latency.
        let singles = SingleRequest::new(AgentKind::React, benchmark)
            .seed(scale.seed)
            .run_batch(scale.samples);
        let seq_latency: f64 = singles
            .iter()
            .map(|o| o.trace.e2e().as_secs_f64())
            .sum::<f64>()
            / singles.len() as f64;
        let seq_qps = 1.0 / seq_latency;

        // Concurrent: open-loop at an offered load near saturation.
        let workload = Workload::Agent {
            kind: AgentKind::React,
            benchmark,
            config: agentsim_agents::AgentConfig::default_8b(),
        };
        let report = FleetSim::new(
            ServingConfig::new(workload, 4.0, scale.serving_requests).seed(scale.seed),
        )
        .run();
        let conc_qps = report.throughput;
        let gain = conc_qps / seq_qps;
        gains.push((benchmark, gain));
        table.row(vec![
            benchmark.to_string(),
            format!("{seq_latency:.1}"),
            format!("{seq_qps:.2}"),
            format!("{conc_qps:.2}"),
            format!("{gain:.1}x"),
            format!("{:.1}", report.p50_s),
        ]);
    }
    result.table("Sequential vs concurrent ReAct serving", table);

    let hotpot_gain = gains
        .iter()
        .find(|(b, _)| *b == Benchmark::HotpotQa)
        .map(|(_, g)| *g)
        .unwrap_or(0.0);
    let webshop_gain = gains
        .iter()
        .find(|(b, _)| *b == Benchmark::WebShop)
        .map(|(_, g)| *g)
        .unwrap_or(0.0);
    result.check(
        "concurrency-multiplies-throughput",
        hotpot_gain > 4.0 && webshop_gain > 2.0,
        format!(
            "gains: HotpotQA {hotpot_gain:.1}x, WebShop {webshop_gain:.1}x (paper: 25x and 6.2x)"
        ),
    );
    result.check(
        "idle-tools-give-hotpotqa-more-headroom",
        hotpot_gain > webshop_gain,
        format!(
            "HotpotQA gains more ({hotpot_gain:.1}x vs {webshop_gain:.1}x) because slow \
             Wikipedia calls leave idle GPU cycles to fill"
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
            samples: 8,
            serving_requests: 40,
            seed: 7,
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
