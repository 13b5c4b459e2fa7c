//! Single-request runner: one agent session on a dedicated replica.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{Engine, EngineConfig, RequestId};
use agentsim_session::{seeds, CallDone, SessionCmd, SessionRunner, ToolRng};
use agentsim_simkit::{SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{Benchmark, TaskGenerator};

use crate::trace::RequestTrace;

/// Builder for a single-request experiment.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct SingleRequest {
    agent: AgentKind,
    benchmark: Benchmark,
    engine_config: EngineConfig,
    agent_config: AgentConfig,
    tools: ToolExecutor,
    seed: u64,
    task_index: u64,
}

/// Result of a single-request experiment: the trace plus replica-level
/// measurements over the request's lifetime.
#[derive(Debug, Clone)]
pub struct SingleOutcome {
    /// The request trace.
    pub trace: RequestTrace,
    /// GPU utilization over the request window (busy / window).
    pub utilization: f64,
    /// Engine wall time in prefill steps.
    pub prefill_busy: SimDuration,
    /// Engine wall time in decode steps.
    pub decode_busy: SimDuration,
    /// Engine idle time within the window (tool waits, gaps).
    pub idle: SimDuration,
    /// GPU energy over the window, watt-hours.
    pub energy_wh: f64,
    /// Peak KV-cache bytes referenced by live sequences.
    pub kv_peak_bytes: u64,
    /// Time-averaged KV-cache bytes.
    pub kv_avg_bytes: f64,
    /// Total FLOPs executed.
    pub flops: f64,
    /// Prefix-cache hit rate over prompt tokens.
    pub kv_hit_rate: f64,
}

impl SingleRequest {
    /// Creates a runner with the paper's default 8B engine and agent
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is not evaluated on `benchmark` (Table II).
    pub fn new(agent: AgentKind, benchmark: Benchmark) -> Self {
        assert!(
            agent.supports(benchmark),
            "{agent} is not evaluated on {benchmark}"
        );
        SingleRequest {
            agent,
            benchmark,
            engine_config: EngineConfig::a100_llama8b(),
            agent_config: AgentConfig::default_8b(),
            tools: ToolExecutor::new(),
            seed: 0,
            task_index: 0,
        }
    }

    /// Sets the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects which task of the stream to run.
    pub fn task_index(mut self, index: u64) -> Self {
        self.task_index = index;
        self
    }

    /// Replaces the engine configuration.
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Replaces the agent configuration.
    pub fn agent_config(mut self, config: AgentConfig) -> Self {
        self.agent_config = config;
        self
    }

    /// Replaces the tool executor (e.g. failure injection).
    pub fn tool_executor(mut self, tools: ToolExecutor) -> Self {
        self.tools = tools;
        self
    }

    /// Runs the session to completion.
    pub fn run(&self) -> SingleOutcome {
        let task = TaskGenerator::new(self.benchmark, self.seed).task(self.task_index);
        let mut engine = Engine::new(self.engine_config.clone());
        let root = SimRng::seed_from(self.seed).fork(self.task_index);

        let mut now = SimTime::ZERO;
        let (mut runner, mut cmd) = SessionRunner::agent(
            None,
            self.agent,
            &task,
            self.agent_config,
            root.fork(seeds::SINGLE_AGENT),
            ToolRng::Stream(root.fork(seeds::SINGLE_TOOLS)),
            &self.tools,
            now,
        );

        // Synchronous loop: the session is alone on the replica, so each
        // command runs to completion before the next is requested.
        loop {
            match cmd {
                SessionCmd::Llm(op) => {
                    let ids: Vec<RequestId> = op
                        .calls
                        .into_iter()
                        .map(|c| {
                            engine.submit_with_priority(
                                now,
                                c.prompt,
                                c.out_tokens,
                                c.gen_seed,
                                op.priority,
                            )
                        })
                        .collect();
                    let mut outstanding = ids.len();
                    let mut next = None;
                    while outstanding > 0 {
                        let end = engine
                            .start_step_if_idle(now)
                            .expect("engine must make progress on pending LLM calls");
                        now = end;
                        for c in engine.complete_step(now) {
                            let seq = ids.iter().position(|id| *id == c.id).expect("own call");
                            outstanding -= 1;
                            if let Some(cmd) = runner.on_call_done(
                                seq as u32,
                                CallDone::from_completion(c),
                                &self.tools,
                                now,
                            ) {
                                next = Some(cmd);
                            }
                        }
                    }
                    cmd = next.expect("op complete once all calls landed");
                }
                SessionCmd::Tools { wake } => {
                    now = wake;
                    cmd = runner.on_tools_done(&self.tools, now);
                }
                SessionCmd::Finish(_) => break,
            }
        }

        let metrics = engine.metrics();
        let block_bytes = self.engine_config.kv_bytes_per_block();
        let kv = engine.kv().stats();
        SingleOutcome {
            utilization: metrics.utilization(now),
            prefill_busy: metrics.prefill_busy + metrics.mixed_busy,
            decode_busy: metrics.decode_busy,
            idle: metrics.idle_within(now),
            energy_wh: metrics.energy_within(now).watt_hours(),
            flops: metrics.flops,
            kv_peak_bytes: kv.used_blocks.peak() * block_bytes,
            kv_avg_bytes: kv.used_blocks.average(now) * block_bytes as f64,
            kv_hit_rate: kv.hit_rate(),
            trace: runner.into_trace(),
        }
    }

    /// Runs tasks `0..n` of the stream on fresh replicas, in parallel
    /// across OS threads. Results are index-ordered and deterministic.
    pub fn run_batch(&self, n: u64) -> Vec<SingleOutcome> {
        crate::sweep::par_map(n as usize, |i| {
            let mut runner = self.clone();
            runner.task_index = i as u64;
            runner.run()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cot_trace_shape() {
        let o = SingleRequest::new(AgentKind::Cot, Benchmark::HotpotQa)
            .seed(1)
            .run();
        assert_eq!(o.trace.llm_calls(), 1);
        assert_eq!(o.trace.tool_calls(), 0);
        assert_eq!(o.trace.tool_wall, SimDuration::ZERO);
        // Single-inference request keeps the GPU busy almost throughout.
        assert!(o.utilization > 0.9, "CoT utilization {}", o.utilization);
        assert!(o.decode_busy > o.prefill_busy);
    }

    #[test]
    fn react_interleaves_and_idles_the_gpu() {
        let o = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(2)
            .run();
        assert!(o.trace.llm_calls() >= 2);
        assert!(o.trace.tool_calls() >= 1);
        assert!(o.trace.tool_wall > SimDuration::ZERO);
        // Fig. 6: Wikipedia waits idle the GPU substantially.
        assert!(o.utilization < 0.9, "ReAct utilization {}", o.utilization);
        assert!(o.idle > SimDuration::ZERO);
        // Fig. 5 partition: e2e = llm + tool + overlap.
        let sum = o.trace.llm_wall + o.trace.tool_wall + o.trace.overlap_wall;
        assert_eq!(sum, o.trace.e2e());
    }

    #[test]
    fn webshop_tools_are_cheap() {
        let hotpot = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(3)
            .run();
        let shop = SingleRequest::new(AgentKind::React, Benchmark::WebShop)
            .seed(3)
            .run();
        let frac = |o: &SingleOutcome| {
            o.trace.tool_wall.as_secs_f64() / o.trace.e2e().as_secs_f64().max(1e-9)
        };
        assert!(
            frac(&hotpot) > frac(&shop) + 0.2,
            "tool share hotpot {} vs webshop {}",
            frac(&hotpot),
            frac(&shop)
        );
    }

    #[test]
    fn iterative_calls_hit_prefix_cache() {
        let o = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(4)
            .run();
        if o.trace.llm_calls() >= 2 {
            // Later calls share the growing history prefix.
            let later_cached: u64 = o.trace.llm[1..]
                .iter()
                .map(|c| c.completion.cached_tokens as u64)
                .sum();
            assert!(later_cached > 0, "iterative prefix reuse expected");
        }
    }

    #[test]
    fn prefix_caching_off_recomputes_everything() {
        let cfg = EngineConfig::a100_llama8b().with_prefix_caching(false);
        let o = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(4)
            .engine_config(cfg)
            .run();
        assert_eq!(o.trace.cached_tokens(), 0);
        assert_eq!(o.kv_hit_rate, 0.0);
    }

    #[test]
    fn overlapped_plan_accounts_partition() {
        let o = SingleRequest::new(AgentKind::LlmCompiler, Benchmark::HotpotQa)
            .seed(5)
            .run();
        assert!(
            o.trace.overlap_wall > SimDuration::ZERO,
            "planner/tool overlap"
        );
        let sum = o.trace.llm_wall + o.trace.tool_wall + o.trace.overlap_wall;
        assert_eq!(sum, o.trace.e2e());
    }

    #[test]
    fn run_batch_is_deterministic_and_ordered() {
        let runner = SingleRequest::new(AgentKind::React, Benchmark::WebShop).seed(6);
        let a = runner.run_batch(6);
        let b = runner.run_batch(6);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.task_id, y.trace.task_id);
            assert_eq!(x.trace.e2e(), y.trace.e2e());
        }
        // Distinct tasks differ.
        assert!(a.windows(2).any(|w| w[0].trace.e2e() != w[1].trace.e2e()));
        assert!(runner.run_batch(0).is_empty());
    }

    #[test]
    fn energy_scales_with_work() {
        let cot = SingleRequest::new(AgentKind::Cot, Benchmark::HotpotQa)
            .seed(7)
            .run();
        let reflexion = SingleRequest::new(AgentKind::Reflexion, Benchmark::HotpotQa)
            .seed(7)
            .run();
        assert!(
            reflexion.energy_wh > 2.0 * cot.energy_wh,
            "reflexion {} Wh vs cot {} Wh",
            reflexion.energy_wh,
            cot.energy_wh
        );
    }

    #[test]
    fn lats_parallel_calls_batch_in_engine() {
        let o = SingleRequest::new(AgentKind::Lats, Benchmark::HotpotQa)
            .seed(8)
            .run();
        assert!(
            o.trace.llm_calls() > 15,
            "LATS made {}",
            o.trace.llm_calls()
        );
        // Parallel siblings share the parent prefix.
        assert!(o.kv_hit_rate > 0.3, "LATS hit rate {}", o.kv_hit_rate);
    }
}
