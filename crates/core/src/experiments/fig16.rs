//! Fig. 16: average and maximum KV-cache memory during serving, with and
//! without prefix caching.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{FleetConfig, FleetSim, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

const GIB: f64 = (1u64 << 30) as f64;

/// Measures serving KV occupancy ± prefix caching at the paper's operating
/// points (0.2 QPS HotpotQA, 0.1 QPS WebShop, ReAct).
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "fig16",
        "Serving KV-cache memory with and without prefix caching (Fig. 16)",
    );
    let mut table = Table::with_columns(&[
        "Benchmark",
        "Avg GiB (on)",
        "Avg GiB (off)",
        "Max GiB (on)",
        "Max GiB (off)",
    ]);

    let mut avg_savings = Vec::new();
    let mut max_savings = Vec::new();
    for (benchmark, qps) in [(Benchmark::HotpotQa, 0.2), (Benchmark::WebShop, 0.1)] {
        let run_one = |caching: bool| {
            let workload = Workload::Agent {
                kind: agentsim_agents::AgentKind::React,
                benchmark,
                config: agentsim_agents::AgentConfig::default_8b(),
            };
            let cfg = FleetConfig::new(workload, qps, scale.serving_requests)
                .seed(scale.seed)
                .engine(EngineConfig::a100_llama8b().with_prefix_caching(caching));
            FleetSim::new(cfg).run()
        };
        let on = run_one(true);
        let off = run_one(false);
        table.row(vec![
            benchmark.to_string(),
            format!("{:.3}", on.kv_avg_bytes / GIB),
            format!("{:.3}", off.kv_avg_bytes / GIB),
            format!("{:.3}", on.kv_max_bytes as f64 / GIB),
            format!("{:.3}", off.kv_max_bytes as f64 / GIB),
        ]);
        avg_savings.push(1.0 - on.kv_avg_bytes / off.kv_avg_bytes.max(1.0));
        max_savings.push(1.0 - on.kv_max_bytes as f64 / (off.kv_max_bytes as f64).max(1.0));
    }
    result.table("KV occupancy during ReAct serving", table);

    let avg_saving = avg_savings.iter().sum::<f64>() / avg_savings.len() as f64;
    let max_saving = max_savings.iter().sum::<f64>() / max_savings.len() as f64;
    result.check(
        "caching-cuts-average-kv",
        avg_saving > 0.2,
        format!(
            "average KV reduced {:.0}% with prefix caching (paper: 51.7%)",
            avg_saving * 100.0
        ),
    );
    result.check(
        "caching-cuts-peak-kv",
        max_saving > 0.15,
        format!(
            "peak KV reduced {:.0}% with prefix caching (paper: 63.5%)",
            max_saving * 100.0
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
            serving_requests: 30,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
