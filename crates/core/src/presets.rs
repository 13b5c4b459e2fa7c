//! Shared experiment helpers: which agents run on which benchmark, batch
//! runners, and common derived statistics.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::EngineConfig;
use agentsim_serving::{SingleOutcome, SingleRequest};
use agentsim_workloads::Benchmark;

use crate::figure::Scale;

/// The agents the paper evaluates on `benchmark` (Table II pairing).
pub fn agents_for(benchmark: Benchmark) -> Vec<AgentKind> {
    AgentKind::ALL
        .into_iter()
        .filter(|k| k.supports(benchmark))
        .collect()
}

/// Runs `scale.samples` single requests of `agent` on `benchmark` with
/// the default 8B stack.
pub fn single_batch(agent: AgentKind, benchmark: Benchmark, scale: &Scale) -> Vec<SingleOutcome> {
    single_batch_with(
        agent,
        benchmark,
        scale,
        EngineConfig::a100_llama8b(),
        AgentConfig::default_8b(),
    )
}

/// Runs a batch with explicit engine and agent configurations.
pub fn single_batch_with(
    agent: AgentKind,
    benchmark: Benchmark,
    scale: &Scale,
    engine: EngineConfig,
    config: AgentConfig,
) -> Vec<SingleOutcome> {
    SingleRequest::new(agent, benchmark)
        .seed(scale.seed)
        .engine_config(engine)
        .agent_config(config)
        .run_batch(scale.samples)
}

/// Mean of a per-outcome statistic.
pub fn mean_of<F: Fn(&SingleOutcome) -> f64>(outcomes: &[SingleOutcome], f: F) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
}

/// Fraction of outcomes whose task was solved.
pub fn accuracy_of(outcomes: &[SingleOutcome]) -> f64 {
    mean_of(outcomes, |o| o.trace.outcome.solved as u64 as f64)
}

/// Mean end-to-end latency in seconds.
pub fn mean_latency_s(outcomes: &[SingleOutcome]) -> f64 {
    mean_of(outcomes, |o| o.trace.e2e().as_secs_f64())
}

/// 95th-percentile end-to-end latency in seconds (`NaN` for an empty
/// batch — a percentile of nothing is not a number, and figure tables
/// render it as such rather than a fabricated 0).
pub fn p95_latency_s(outcomes: &[SingleOutcome]) -> f64 {
    let mut samples: agentsim_metrics::Samples = outcomes
        .iter()
        .map(|o| o.trace.e2e().as_secs_f64())
        .collect();
    samples.try_p95().unwrap_or(f64::NAN)
}

/// Runs `scale.samples` single-turn ShareGPT queries, one at a time on a
/// fresh replica each, returning `(mean latency s, mean energy Wh)` —
/// the paper's conventional-LLM baseline for Table III.
pub fn sharegpt_single(scale: &Scale, engine_config: &EngineConfig) -> (f64, f64) {
    use agentsim_llm::Engine;
    use agentsim_simkit::SimTime;
    use agentsim_workloads::ShareGptGenerator;

    let generator = ShareGptGenerator::new(scale.seed);
    let mut latency_sum = 0.0;
    let mut energy_sum = 0.0;
    for query in generator.queries(scale.samples) {
        let mut engine = Engine::new(engine_config.clone());
        let mut now = SimTime::ZERO;
        engine.submit(now, query.prompt, query.output_tokens, query.gen_seed);
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            let _ = engine.complete_step(now);
        }
        latency_sum += now.as_secs_f64();
        energy_sum += engine.metrics().energy_within(now).watt_hours();
    }
    let n = scale.samples as f64;
    (latency_sum / n, energy_sum / n)
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a ratio as `12.3x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_lists_match_table2() {
        assert_eq!(agents_for(Benchmark::HotpotQa).len(), 5);
        assert_eq!(agents_for(Benchmark::WebShop).len(), 4); // no CoT
        assert_eq!(agents_for(Benchmark::Math).len(), 4); // no LLMCompiler
        assert_eq!(agents_for(Benchmark::HumanEval).len(), 4);
        assert!(agents_for(Benchmark::ShareGpt).is_empty());
    }

    #[test]
    fn batch_and_stats_helpers() {
        let scale = Scale {
            samples: 4,
            serving_requests: 1,
            seed: 1,
        };
        let outcomes = single_batch(AgentKind::Cot, Benchmark::HotpotQa, &scale);
        assert_eq!(outcomes.len(), 4);
        let acc = accuracy_of(&outcomes);
        assert!((0.0..=1.0).contains(&acc));
        assert!(mean_latency_s(&outcomes) > 0.0);
        assert!(p95_latency_s(&outcomes) >= mean_latency_s(&outcomes) * 0.5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(ratio(12.34), "12.3x");
    }
}
