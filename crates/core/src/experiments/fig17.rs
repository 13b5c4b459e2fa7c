//! Fig. 17: tail latency and prefix-cache hit rate as the GPU memory
//! reserved for the KV cache shrinks (cache thrashing).

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{FleetConfig, FleetSim, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

/// KV pool sizes relative to the model weight size (the paper's legend).
const FRACTIONS: [f64; 4] = [0.10, 0.20, 0.30, 2.00];

/// Sweeps the KV pool size under ReAct/HotpotQA load.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "fig17",
        "Tail latency and cache hit rate vs KV pool size (Fig. 17)",
    );
    let mut table = Table::with_columns(&[
        "KV pool (xWeights)",
        "tput",
        "p95 s",
        "hit rate",
        "evictions",
        "preemptions",
    ]);

    // Offered load above the knee, so achieved throughput measures the
    // capacity each pool size can sustain.
    let qps = 3.0;
    let mut rows = Vec::new();
    for fraction in FRACTIONS {
        let workload = Workload::Agent {
            kind: agentsim_agents::AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: agentsim_agents::AgentConfig::default_8b(),
        };
        let cfg = FleetConfig::new(workload, qps, scale.serving_requests)
            .seed(scale.seed)
            .engine(EngineConfig::a100_llama8b().with_kv_fraction(fraction));
        let report = FleetSim::new(cfg).run();
        table.row(vec![
            format!("{fraction:.2}"),
            format!("{:.2}", report.throughput),
            format!("{:.1}", report.p95_s),
            format!("{:.2}", report.kv_hit_rate),
            report.evictions.to_string(),
            report.preemptions.to_string(),
        ]);
        rows.push((fraction, report));
    }
    result.table("ReAct/HotpotQA at 1.5 QPS under shrinking KV pools", table);

    let get = |f: f64| rows.iter().find(|(x, _)| *x == f).map(|(_, r)| r).unwrap();
    let tiny = get(0.10);
    let small = get(0.30);
    let full = get(2.00);

    result.check(
        "tiny-pool-collapses-throughput",
        tiny.throughput < 0.8 * full.throughput,
        format!(
            "10% pool: {:.2} vs 200% pool: {:.2} QPS (paper: -86.3%)",
            tiny.throughput, full.throughput
        ),
    );
    result.check(
        "thrashing-lowers-hit-rate",
        tiny.kv_hit_rate < full.kv_hit_rate - 0.05,
        format!(
            "hit rate {:.2} at 10% vs {:.2} at 200% (evictions: {} vs {})",
            tiny.kv_hit_rate, full.kv_hit_rate, tiny.evictions, full.evictions
        ),
    );
    result.check(
        "tail-latency-inflates-under-pressure",
        tiny.p95_s > 1.1 * full.p95_s,
        format!(
            "p95 {:.1}s at 10% vs {:.1}s at 200%",
            tiny.p95_s, full.p95_s
        ),
    );
    result.check(
        "moderate-pool-still-degrades",
        small.throughput <= full.throughput * 1.02 && small.kv_hit_rate <= full.kv_hit_rate,
        format!(
            "30% pool: {:.2} QPS, hit {:.2} (paper: 35% lower throughput than 200%)",
            small.throughput, small.kv_hit_rate
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
            serving_requests: 50,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
