//! The traffic a serving driver receives, and how each turn of it opens
//! a session.
//!
//! Every driver draws its turns from the same [`Workload`] through
//! [`Workload::start_session`], so a what-if comparison (one replica vs
//! a fleet, colocated vs disaggregated) changes *only* the serving
//! topology: the same seed classifies, generates and forks every turn
//! identically.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_kvcache::TokenBuf;
use agentsim_simkit::{SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{Benchmark, ShareGptGenerator, TaskGenerator};

use crate::runner::{SessionCmd, SessionRunner, ToolRng};
use crate::seeds;

/// What kind of traffic a serving driver receives.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Non-agentic single-turn chatbot traffic (ShareGPT).
    Chatbot,
    /// Agentic traffic: every request runs this agent on this benchmark.
    Agent {
        /// The agent framework.
        kind: AgentKind,
        /// The benchmark tasks are drawn from.
        benchmark: Benchmark,
        /// The agent configuration.
        config: AgentConfig,
    },
    /// Multi-tenant mix: each arrival is an agent request with
    /// probability `agent_fraction`, otherwise a chatbot request.
    Mixed {
        /// Fraction of arrivals that are agentic, in `[0, 1]`.
        agent_fraction: f64,
        /// The agent framework for agentic arrivals.
        kind: AgentKind,
        /// The benchmark for agentic arrivals.
        benchmark: Benchmark,
        /// The agent configuration.
        config: AgentConfig,
    },
}

impl Workload {
    /// A ReAct-on-HotpotQA workload with default configuration (the
    /// paper's canonical agent serving setup).
    pub fn react_hotpotqa() -> Self {
        Workload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default(),
        }
    }

    /// The agent every agentic turn runs — framework, benchmark and
    /// configuration — or `None` for pure chatbot traffic.
    pub fn agent(&self) -> Option<(AgentKind, Benchmark, AgentConfig)> {
        match *self {
            Workload::Chatbot => None,
            Workload::Agent {
                kind,
                benchmark,
                config,
            }
            | Workload::Mixed {
                kind,
                benchmark,
                config,
                ..
            } => Some((kind, benchmark, config)),
        }
    }

    /// Rejects, at driver build time, a workload no run could serve: a
    /// non-finite or out-of-range `agent_fraction` (which the per-turn
    /// draw would silently turn into all-chatbot or all-agent traffic),
    /// an invalid agent config, or an agent not evaluated on the
    /// benchmark.
    pub fn validate(&self) {
        if let Workload::Mixed { agent_fraction, .. } = self {
            assert!(
                (0.0..=1.0).contains(agent_fraction),
                "agent_fraction {agent_fraction} must be a number in [0, 1]"
            );
        }
        if let Some((kind, benchmark, config)) = self.agent() {
            if let Err(e) = config.validate() {
                panic!("invalid agent config: {e}");
            }
            assert!(
                kind.supports(benchmark),
                "{kind} is not evaluated on {benchmark} (see Table II)"
            );
        }
    }

    /// The agent `turn` runs, or `None` if it is chatbot traffic. A mixed
    /// workload draws the turn's class from `root.fork(turn ^
    /// MIXED_CLASS)`, so drivers sharing a root classify turns alike.
    pub fn agent_turn(
        &self,
        root: &SimRng,
        turn: u64,
    ) -> Option<(AgentKind, Benchmark, AgentConfig)> {
        match *self {
            Workload::Mixed { agent_fraction, .. }
                if !root.fork(turn ^ seeds::MIXED_CLASS).chance(agent_fraction) =>
            {
                None
            }
            _ => self.agent(),
        }
    }

    /// Opens `turn`'s session on a driver with root stream `root` and
    /// root seed `seed`: a ShareGPT query for a chatbot turn, the turn's
    /// benchmark task for an agent turn. `agent` overrides the
    /// workload's agent configuration (a fleet tier serving a different
    /// model); `history` prefixes an agent turn's prompts with a carried
    /// conversation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_session(
        &self,
        turn: u64,
        seed: u64,
        root: &SimRng,
        agent: Option<AgentConfig>,
        history: Option<TokenBuf>,
        tools: &ToolExecutor,
        now: SimTime,
    ) -> (SessionRunner, SessionCmd) {
        match self.agent_turn(root, turn) {
            None => {
                let query = ShareGptGenerator::new(seed).query(turn);
                SessionRunner::chatbot(
                    query.prompt,
                    query.output_tokens,
                    query.gen_seed,
                    turn,
                    root.fork(turn ^ seeds::CHATBOT_SESSION),
                    now,
                )
            }
            Some((kind, benchmark, config)) => {
                let task = TaskGenerator::new(benchmark, seed).task(turn);
                SessionRunner::agent(
                    history,
                    kind,
                    &task,
                    agent.unwrap_or(config),
                    root.fork(turn ^ seeds::AGENT_SESSION),
                    ToolRng::ForkByTime,
                    tools,
                    now,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(agent_fraction: f64) -> Workload {
        Workload::Mixed {
            agent_fraction,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        }
    }

    #[test]
    fn valid_workloads_pass() {
        Workload::Chatbot.validate();
        Workload::react_hotpotqa().validate();
        mixed(0.0).validate();
        mixed(1.0).validate();
    }

    #[test]
    #[should_panic(expected = "agent_fraction NaN")]
    fn nan_agent_fraction_rejected() {
        mixed(f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "agent_fraction -0.1")]
    fn negative_agent_fraction_rejected() {
        mixed(-0.1).validate();
    }

    #[test]
    #[should_panic(expected = "agent_fraction 1.5")]
    fn agent_fraction_above_one_rejected() {
        mixed(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "invalid agent config")]
    fn invalid_agent_config_rejected() {
        let mut config = AgentConfig::default_8b();
        config.max_iterations = 0;
        Workload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "not evaluated on")]
    fn unsupported_benchmark_rejected() {
        Workload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::ShareGpt,
            config: AgentConfig::default_8b(),
        }
        .validate();
    }

    #[test]
    fn mixed_class_draw_is_per_turn_and_deterministic() {
        let root = SimRng::seed_from(7);
        let w = mixed(0.5);
        let classes: Vec<bool> = (0..64).map(|t| w.agent_turn(&root, t).is_some()).collect();
        let again: Vec<bool> = (0..64).map(|t| w.agent_turn(&root, t).is_some()).collect();
        assert_eq!(classes, again);
        assert!(classes.iter().any(|&a| a) && classes.iter().any(|&a| !a));
        assert!((0..64).all(|t| mixed(0.0).agent_turn(&root, t).is_none()));
        assert!((0..64).all(|t| mixed(1.0).agent_turn(&root, t).is_some()));
    }
}
