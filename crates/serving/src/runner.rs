//! The session state machine every serving driver steps.
//!
//! A [`SessionRunner`] steps one agent (or chatbot) session: it asks the
//! [`AgentPolicy`] for its next op, executes tool batches, accumulates
//! the [`RequestTrace`], and tells the driver — via [`SessionCmd`] —
//! what *it* must do, because only the driver knows where LLM calls go
//! (one engine, a routed fleet, or a prefill/decode pool pair) and owns
//! the event queue.
//!
//! The protocol:
//!
//! 1. [`SessionRunner::agent`] / [`SessionRunner::chatbot`] return the
//!    runner plus its first command.
//! 2. [`SessionCmd::Llm`] — submit every [`LlmSubmit`] to an engine with
//!    the op's priority, remembering each call's `seq` (its index in the
//!    batch). When a call completes, feed [`SessionRunner::on_call_done`];
//!    once the whole batch is in, it returns the next command.
//! 3. [`SessionCmd::Tools`] — tools are already executed (latencies are
//!    simulated, not awaited); schedule a wake-up at `wake` and then call
//!    [`SessionRunner::on_tools_done`].
//! 4. [`SessionCmd::Finish`] — the turn is over; take the trace and
//!    retire (or, under a closed-loop client, re-submit) the session.
//!
//! The golden `FleetReport`/`DisaggReport` fingerprints pin its timing,
//! RNG forks and trace arithmetic.

use agentsim_agents::{
    build_agent, AgentConfig, AgentKind, AgentOp, AgentPolicy, LlmCallSpec, LlmOutput, OpResult,
    OutputKind, TaskOutcome,
};
use agentsim_kvcache::{TokenBuf, DEFAULT_BLOCK_SIZE};
use agentsim_llm::LlmCompletion;
use agentsim_simkit::{SimDuration, SimRng, SimTime};
use agentsim_tools::{ToolCall, ToolExecutor, ToolResult};
use agentsim_workloads::{Benchmark, Task};

use crate::seeds;
use crate::trace::{LlmCallRecord, RequestTrace};

/// One LLM call the driver must submit to an engine.
#[derive(Debug)]
pub(crate) struct LlmSubmit {
    /// The full input prompt (moved, so memoized block hashes carry into
    /// the engine instead of being recomputed from a copy).
    pub prompt: TokenBuf,
    /// Number of tokens to generate.
    pub out_tokens: u32,
    /// Seed identifying the output token stream.
    pub gen_seed: u64,
}

/// A batch of LLM calls forming one agent op. Calls are identified by
/// their index (`seq`) in [`LlmOp::calls`] when reporting completion.
#[derive(Debug)]
pub(crate) struct LlmOp {
    /// The calls, in submission order.
    pub calls: Vec<LlmSubmit>,
    /// Scheduling priority: the session's LLM-call count so far, so
    /// deeper (warmer, closer-to-done) sessions can be favoured by
    /// priority-aware engine schedulers.
    pub priority: u32,
}

/// What the driver must do next for a session.
#[derive(Debug)]
pub(crate) enum SessionCmd {
    /// Submit these LLM calls; resume via [`SessionRunner::on_call_done`].
    Llm(LlmOp),
    /// Tools are running; wake the session at `wake` and call
    /// [`SessionRunner::on_tools_done`].
    Tools {
        /// When the slowest tool of the batch lands.
        wake: SimTime,
    },
    /// The session's turn is complete.
    Finish(TaskOutcome),
}

/// A completed LLM call, as reported back by the driver.
#[derive(Debug)]
pub(crate) struct CallDone {
    /// Output tokens generated.
    pub tokens: u32,
    /// The full engine completion record, when the driver has it in hand
    /// (a migrated call's decode leg is only half the call: the driver
    /// stitches both legs separately and passes `None`, so the trace
    /// carries no half-call record).
    pub completion: Option<LlmCompletion>,
}

impl CallDone {
    /// Wraps a full completion record.
    pub fn from_completion(completion: LlmCompletion) -> Self {
        CallDone {
            tokens: completion.output_tokens,
            completion: Some(completion),
        }
    }

    /// Only the output-token count is known (disaggregated legs).
    pub fn tokens_only(tokens: u32) -> Self {
        CallDone {
            tokens,
            completion: None,
        }
    }
}

/// A session's carried history and the last prompt spliced behind it.
#[derive(Debug)]
struct Carry {
    /// Leading tokens of `spliced` that are the carried history.
    history_len: usize,
    /// The history followed by the last prompt spliced behind it (at
    /// first, the history alone), with a current chain-hash memo.
    spliced: TokenBuf,
}

impl Carry {
    fn new(history: TokenBuf) -> Self {
        Carry {
            history_len: history.len(),
            spliced: history,
        }
    }

    /// The history followed by `prompt`, its chain hashes memoized at
    /// [`DEFAULT_BLOCK_SIZE`]. The splice reuses the previous one's
    /// runs and memo up to where the two prompts diverge, so an agent
    /// prompt that extends the last one hashes only the tokens it added.
    fn splice(&mut self, prompt: &TokenBuf) -> TokenBuf {
        let shared = self.spliced.common_prefix_len(self.history_len, prompt);
        self.spliced.truncate(self.history_len + shared);
        self.spliced.push_buf_from(prompt, shared);
        self.spliced
            .chain_hashes_cached(DEFAULT_BLOCK_SIZE as usize);
        self.spliced.clone()
    }
}

/// How the runner derives randomness for tool execution.
#[derive(Debug)]
pub(crate) enum ToolRng {
    /// Fork a fresh stream off the session RNG keyed by the current
    /// simulation time (the event-driven drivers' scheme: tool draws stay
    /// independent of how many sessions interleave).
    ForkByTime,
    /// Draw from one dedicated sequential stream (the single-request
    /// driver's scheme, kept for bit-compatibility with its traces).
    Stream(SimRng),
}

/// The per-session state machine. See the [module docs](self) for the
/// driver protocol.
#[derive(Debug)]
pub(crate) struct SessionRunner {
    /// `None` for chatbot sessions (single call, no policy).
    policy: Option<Box<dyn AgentPolicy>>,
    trace: RequestTrace,
    rng: SimRng,
    tool_rng: ToolRng,
    /// Conversation carried over from the session's earlier turns,
    /// prepended to every outgoing prompt. The agent policy is unaware of
    /// it: its own context starts fresh each turn, and the shared-prefix
    /// machinery (chain-hashed KV blocks) makes the carried tokens a
    /// cache hit when the history is still resident.
    carry: Option<Carry>,
    /// Specs of the in-flight op (prompts already moved out), in
    /// submission order.
    pending: Vec<LlmCallSpec>,
    /// Completion slots matching `pending` by index.
    done: Vec<Option<CallDone>>,
    done_count: usize,
    /// Tool results landing at the scheduled `Tools { wake }` instant.
    scheduled_tools: Vec<ToolResult>,
    /// Planner outputs held back while an overlapped plan's tools run,
    /// delivered together with the tool results.
    held_outputs: Vec<LlmOutput>,
    /// Tools to launch when the overlapped planner call finishes.
    overlap_tools: Option<(Vec<ToolCall>, f64)>,
    op_start: SimTime,
    calls_made: u32,
}

impl SessionRunner {
    /// Starts an agent session on `task`, returning the runner and its
    /// first command. `history` — the carried context of the session's
    /// earlier turns, if any — is prepended to every prompt this turn
    /// submits, so a resident or offloaded copy of the prior turn's KV
    /// blocks turns the whole carry into a prefix hit.
    #[allow(clippy::too_many_arguments)]
    pub fn agent(
        history: Option<TokenBuf>,
        kind: AgentKind,
        task: &Task,
        config: AgentConfig,
        rng: SimRng,
        tool_rng: ToolRng,
        tools: &ToolExecutor,
        now: SimTime,
    ) -> (Self, SessionCmd) {
        let mut runner = SessionRunner {
            policy: Some(build_agent(kind, task, config)),
            trace: RequestTrace::new(kind, task.benchmark, task.id, now),
            rng,
            tool_rng,
            carry: history.map(Carry::new),
            pending: Vec::new(),
            done: Vec::new(),
            done_count: 0,
            scheduled_tools: Vec::new(),
            held_outputs: Vec::new(),
            overlap_tools: None,
            op_start: now,
            calls_made: 0,
        };
        let op = runner
            .policy
            .as_mut()
            .expect("agent session")
            .next(&OpResult::empty(), &mut runner.rng);
        let cmd = runner.handle_op(op, tools, now);
        (runner, cmd)
    }

    /// Starts a single-call chatbot session (no policy): one prompt, one
    /// answer, done.
    pub fn chatbot(
        prompt: TokenBuf,
        out_tokens: u32,
        gen_seed: u64,
        task_id: u64,
        rng: SimRng,
        now: SimTime,
    ) -> (Self, SessionCmd) {
        let mut runner = SessionRunner {
            policy: None,
            // The agent label is unused for chatbot traffic.
            trace: RequestTrace::new(AgentKind::Cot, Benchmark::ShareGpt, task_id, now),
            rng,
            tool_rng: ToolRng::ForkByTime,
            carry: None,
            pending: Vec::new(),
            done: Vec::new(),
            done_count: 0,
            scheduled_tools: Vec::new(),
            held_outputs: Vec::new(),
            overlap_tools: None,
            op_start: now,
            calls_made: 0,
        };
        let spec = LlmCallSpec {
            prompt: Default::default(),
            out_tokens,
            gen_seed,
            kind: OutputKind::Answer,
            breakdown: Default::default(),
        };
        let cmd = runner.begin_llm_op_prompts(vec![(prompt, spec)], now);
        (runner, cmd)
    }

    /// Whether this is an agent session (as opposed to chatbot traffic).
    pub fn is_agent(&self) -> bool {
        self.policy.is_some()
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }

    /// Consumes the runner, yielding the final trace.
    pub fn into_trace(self) -> RequestTrace {
        self.trace
    }

    /// Records call `seq` of the in-flight op as complete. Returns the
    /// next command once the whole op has landed, `None` while calls are
    /// still outstanding.
    pub fn on_call_done(
        &mut self,
        seq: u32,
        done: CallDone,
        tools: &ToolExecutor,
        now: SimTime,
    ) -> Option<SessionCmd> {
        let slot = &mut self.done[seq as usize];
        debug_assert!(slot.is_none(), "call {seq} completed twice");
        *slot = Some(done);
        self.done_count += 1;
        if self.done_count < self.pending.len() {
            return None;
        }
        Some(self.advance_llm_op(tools, now))
    }

    /// Resumes the session after its scheduled tool batch landed.
    pub fn on_tools_done(&mut self, tools: &ToolExecutor, now: SimTime) -> SessionCmd {
        let results = std::mem::take(&mut self.scheduled_tools);
        self.trace.tools.extend(results.iter().cloned());
        let result = OpResult {
            llm: std::mem::take(&mut self.held_outputs),
            tools: results,
        };
        let op = self
            .policy
            .as_mut()
            .expect("agent session")
            .next(&result, &mut self.rng);
        self.handle_op(op, tools, now)
    }

    /// All calls of the current op completed: record them and advance.
    fn advance_llm_op(&mut self, tools: &ToolExecutor, now: SimTime) -> SessionCmd {
        let pending = std::mem::take(&mut self.pending);
        let done = std::mem::take(&mut self.done);
        self.done_count = 0;
        let mut outputs = Vec::with_capacity(pending.len());
        for (spec, slot) in pending.into_iter().zip(done) {
            let call = slot.expect("every pending call completed");
            outputs.push(LlmOutput {
                tokens: call.tokens,
                gen_seed: spec.gen_seed,
            });
            if let Some(completion) = call.completion {
                let mut breakdown = spec.breakdown;
                breakdown.output = completion.output_tokens;
                self.trace.llm.push(LlmCallRecord {
                    completion,
                    kind: spec.kind,
                    breakdown,
                });
            }
        }
        let op_time = now.saturating_since(self.op_start);

        // Chatbot sessions finish after their single call.
        if self.policy.is_none() {
            self.trace.llm_wall += op_time;
            self.trace.finished = now;
            return SessionCmd::Finish(self.trace.outcome);
        }

        // LLMCompiler overlapped plan: launch the planned tools with the
        // overlap credit already elapsed during planning; the planner
        // outputs are held back and delivered with the tool results.
        if let Some((calls, overlap)) = self.overlap_tools.take() {
            let results = self.exec_tools(tools, &calls, now, seeds::OVERLAP_TOOLS);
            let wall = batch_wall(&results);
            let credit = op_time.mul_f64(overlap.clamp(0.0, 1.0));
            let overlapped = wall.min(credit);
            let extra = wall.saturating_sub(credit);
            self.trace.llm_wall += op_time.saturating_sub(overlapped);
            self.trace.overlap_wall += overlapped;
            self.trace.tool_wall += extra;
            self.scheduled_tools = results;
            self.held_outputs = outputs;
            return SessionCmd::Tools { wake: now + extra };
        }

        self.trace.llm_wall += op_time;
        let result = OpResult {
            llm: outputs,
            tools: Vec::new(),
        };
        let op = self
            .policy
            .as_mut()
            .expect("agent session")
            .next(&result, &mut self.rng);
        self.handle_op(op, tools, now)
    }

    fn handle_op(&mut self, op: AgentOp, tools: &ToolExecutor, now: SimTime) -> SessionCmd {
        match op {
            AgentOp::Llm(spec) => self.begin_llm_op(vec![spec], now),
            AgentOp::LlmBatch(specs) => self.begin_llm_op(specs, now),
            AgentOp::Tools(calls) => {
                self.op_start = now;
                let results = self.exec_tools(tools, &calls, now, 0);
                let wall = batch_wall(&results);
                self.trace.tool_wall += wall;
                self.scheduled_tools = results;
                SessionCmd::Tools { wake: now + wall }
            }
            AgentOp::OverlappedPlan {
                llm,
                tools: calls,
                overlap,
            } => {
                self.overlap_tools = Some((calls, overlap));
                self.begin_llm_op(vec![llm], now)
            }
            AgentOp::Finish(outcome) => {
                self.trace.outcome = outcome;
                self.trace.finished = now;
                SessionCmd::Finish(outcome)
            }
        }
    }

    fn begin_llm_op(&mut self, specs: Vec<LlmCallSpec>, now: SimTime) -> SessionCmd {
        let prompts = specs
            .into_iter()
            .map(|mut spec| (std::mem::take(&mut spec.prompt), spec))
            .collect();
        self.begin_llm_op_prompts(prompts, now)
    }

    fn begin_llm_op_prompts(
        &mut self,
        specs: Vec<(TokenBuf, LlmCallSpec)>,
        now: SimTime,
    ) -> SessionCmd {
        self.op_start = now;
        let priority = self.calls_made;
        self.calls_made += specs.len() as u32;
        let mut calls = Vec::with_capacity(specs.len());
        let mut pending = Vec::with_capacity(specs.len());
        for (prompt, spec) in specs {
            let prompt = match &mut self.carry {
                Some(carry) => carry.splice(&prompt),
                None => prompt,
            };
            calls.push(LlmSubmit {
                prompt,
                out_tokens: spec.out_tokens,
                gen_seed: spec.gen_seed,
            });
            pending.push(spec);
        }
        self.done = (0..pending.len()).map(|_| None).collect();
        self.done_count = 0;
        self.pending = pending;
        SessionCmd::Llm(LlmOp { calls, priority })
    }

    /// Executes a tool batch under the configured RNG scheme. `salt` is
    /// XOR'd into the time key so overlapped-plan tools draw independently
    /// of a plain batch at the same instant.
    fn exec_tools(
        &mut self,
        tools: &ToolExecutor,
        calls: &[ToolCall],
        now: SimTime,
        salt: u64,
    ) -> Vec<ToolResult> {
        match &mut self.tool_rng {
            ToolRng::ForkByTime => {
                let mut rng = self.rng.fork(now.as_micros() ^ salt);
                tools.execute_batch(calls, &mut rng)
            }
            ToolRng::Stream(rng) => tools.execute_batch(calls, rng),
        }
    }
}

/// Wall time of a concurrent tool batch: its slowest call (latencies
/// within a batch are correlated — see [`ToolExecutor::execute_batch`]).
fn batch_wall(results: &[ToolResult]) -> SimDuration {
    results
        .iter()
        .map(|r| r.latency)
        .max()
        .unwrap_or(SimDuration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_workloads::TaskGenerator;

    fn start_react(seed: u64) -> (SessionRunner, SessionCmd, ToolExecutor) {
        let task = TaskGenerator::new(Benchmark::HotpotQa, seed).task(0);
        let tools = ToolExecutor::new();
        let rng = SimRng::seed_from(seed).fork(1);
        let (runner, cmd) = SessionRunner::agent(
            None,
            AgentKind::React,
            &task,
            AgentConfig::default(),
            rng,
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        (runner, cmd, tools)
    }

    /// Drives a session synchronously with fabricated completions.
    fn drive(mut runner: SessionRunner, mut cmd: SessionCmd, tools: &ToolExecutor) -> RequestTrace {
        let mut now = SimTime::ZERO;
        loop {
            match cmd {
                SessionCmd::Llm(op) => {
                    now += SimDuration::from_millis(250);
                    let mut next = None;
                    for (seq, call) in op.calls.iter().enumerate() {
                        let done = CallDone::tokens_only(call.out_tokens);
                        if let Some(c) = runner.on_call_done(seq as u32, done, tools, now) {
                            next = Some(c);
                        }
                    }
                    cmd = next.expect("full batch completed");
                }
                SessionCmd::Tools { wake } => {
                    now = wake;
                    cmd = runner.on_tools_done(tools, now);
                }
                SessionCmd::Finish(_) => return runner.into_trace(),
            }
        }
    }

    #[test]
    fn react_session_runs_to_finish() {
        let (runner, cmd, tools) = start_react(3);
        assert!(
            matches!(cmd, SessionCmd::Llm(_)),
            "agents open with an LLM call"
        );
        let trace = drive(runner, cmd, &tools);
        assert!(trace.tool_calls() >= 1);
        assert!(trace.finished > trace.started);
    }

    #[test]
    fn chatbot_session_is_single_call() {
        let tools = ToolExecutor::new();
        let (mut runner, cmd) = SessionRunner::chatbot(
            TokenBuf::from_segment(7, 64),
            32,
            9,
            0,
            SimRng::seed_from(1),
            SimTime::ZERO,
        );
        assert!(!runner.is_agent());
        let SessionCmd::Llm(op) = cmd else {
            panic!("chatbot opens with its single LLM call")
        };
        assert_eq!(op.calls.len(), 1);
        assert_eq!(op.priority, 0);
        let end = SimTime::from_secs_f64(2.0);
        let cmd = runner
            .on_call_done(0, CallDone::tokens_only(32), &tools, end)
            .expect("single call finishes the op");
        assert!(matches!(cmd, SessionCmd::Finish(_)));
        assert_eq!(runner.trace().e2e(), SimDuration::from_secs(2));
    }

    #[test]
    fn carried_history_prefixes_every_prompt() {
        let task = TaskGenerator::new(Benchmark::HotpotQa, 3).task(0);
        let tools = ToolExecutor::new();
        let history = TokenBuf::from_segment(0xC0FFEE, 96);
        let fresh = SessionRunner::agent(
            None,
            AgentKind::React,
            &task,
            AgentConfig::default(),
            SimRng::seed_from(3).fork(1),
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        let cont = SessionRunner::agent(
            Some(history.clone()),
            AgentKind::React,
            &task,
            AgentConfig::default(),
            SimRng::seed_from(3).fork(1),
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        let (SessionCmd::Llm(fresh_op), SessionCmd::Llm(cont_op)) = (fresh.1, cont.1) else {
            panic!("agents open with an LLM call")
        };
        let fresh_prompt = &fresh_op.calls[0].prompt;
        let cont_prompt = &cont_op.calls[0].prompt;
        assert_eq!(cont_prompt.len(), history.len() + fresh_prompt.len());
        let mut want = history.clone();
        want.push_buf(fresh_prompt);
        assert!(cont_prompt.ids().eq(want.ids()));
    }

    /// Every prompt a session submits, driven like [`drive`].
    fn submitted_prompts(kind: AgentKind, history: Option<TokenBuf>) -> Vec<TokenBuf> {
        let task = TaskGenerator::new(Benchmark::HotpotQa, 9).task(0);
        let tools = ToolExecutor::new();
        let (mut runner, mut cmd) = SessionRunner::agent(
            history,
            kind,
            &task,
            AgentConfig::default(),
            SimRng::seed_from(9).fork(1),
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        let mut prompts = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            match cmd {
                SessionCmd::Llm(op) => {
                    now += SimDuration::from_millis(250);
                    let mut next = None;
                    for (seq, call) in op.calls.into_iter().enumerate() {
                        let done = CallDone::tokens_only(call.out_tokens);
                        prompts.push(call.prompt);
                        if let Some(c) = runner.on_call_done(seq as u32, done, &tools, now) {
                            next = Some(c);
                        }
                    }
                    cmd = next.expect("full batch completed");
                }
                SessionCmd::Tools { wake } => {
                    now = wake;
                    cmd = runner.on_tools_done(&tools, now);
                }
                SessionCmd::Finish(_) => return prompts,
            }
        }
    }

    #[test]
    fn every_carried_prompt_is_the_history_then_the_agent_prompt_memoized() {
        let bs = DEFAULT_BLOCK_SIZE as usize;
        // A history off the block grid, so spliced blocks straddle it.
        let history = TokenBuf::from_segment(0xC0FFEE, 101);
        for kind in [AgentKind::React, AgentKind::Lats] {
            let fresh = submitted_prompts(kind, None);
            let carried = submitted_prompts(kind, Some(history.clone()));
            assert!(fresh.len() > 2, "{kind:?} makes several calls");
            assert_eq!(carried.len(), fresh.len());
            for (f, c) in fresh.iter().zip(&carried) {
                let mut want = history.clone();
                want.push_buf(f);
                assert_eq!(c, &want);
                assert_eq!(c.memoized_blocks(bs), c.len() / bs, "memo is current");
                assert_eq!(
                    &*c.chain_hashes_cached(bs),
                    &agentsim_kvcache::hash::chain_hashes(&c.ids().collect::<Vec<_>>(), bs)[..]
                );
            }
        }
    }

    #[test]
    fn batch_resumes_only_after_all_calls() {
        let task = TaskGenerator::new(Benchmark::HotpotQa, 5).task(0);
        let tools = ToolExecutor::new();
        let (mut runner, cmd) = SessionRunner::agent(
            None,
            AgentKind::Lats,
            &task,
            AgentConfig::default(),
            SimRng::seed_from(5).fork(1),
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        let SessionCmd::Llm(op) = cmd else {
            panic!("LATS opens with LLM work")
        };
        if op.calls.len() > 1 {
            let t = SimTime::from_secs_f64(1.0);
            let first = runner.on_call_done(0, CallDone::tokens_only(8), &tools, t);
            assert!(first.is_none(), "op must wait for the full batch");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (ra, ca, tools) = start_react(11);
        let (rb, cb, _) = start_react(11);
        let a = drive(ra, ca, &tools);
        let b = drive(rb, cb, &tools);
        assert_eq!(a.e2e(), b.e2e());
        assert_eq!(a.tool_calls(), b.tool_calls());
        assert_eq!(a.outcome.solved, b.outcome.solved);
    }

    #[test]
    fn overlapped_plan_delivers_planner_outputs_with_tools() {
        // LLMCompiler's AwaitPlanAndTools phase reads `last.llm`; the
        // runner must hold planner outputs through the overlap window
        // (the driver-private state machines silently dropped them).
        let task = TaskGenerator::new(Benchmark::HotpotQa, 2).task(0);
        let tools = ToolExecutor::new();
        let (runner, cmd) = SessionRunner::agent(
            None,
            AgentKind::LlmCompiler,
            &task,
            AgentConfig::default(),
            SimRng::seed_from(2).fork(1),
            ToolRng::ForkByTime,
            &tools,
            SimTime::ZERO,
        );
        let trace = drive(runner, cmd, &tools);
        assert!(trace.overlap_wall > SimDuration::ZERO || trace.tool_wall > SimDuration::ZERO);
        assert_eq!(
            trace.llm_wall + trace.tool_wall + trace.overlap_wall,
            trace.e2e(),
            "three-way wall partition must telescope to e2e"
        );
    }
}
