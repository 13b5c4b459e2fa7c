//! Context assembly and token accounting.
//!
//! Tracks the agent's growing input context by category — instruction,
//! few-shot, user, LLM history, tool history — which is exactly the
//! decomposition of the paper's Fig. 8, and the per-iteration growth of
//! its Fig. 9. The underlying [`TokenBuf`] is what gets submitted to the
//! engine, so shared prefixes (instructions, accumulated histories) hash
//! to the same KV blocks across calls.

use std::fmt;

use agentsim_kvcache::{TokenBuf, DEFAULT_BLOCK_SIZE};
use agentsim_simkit::rng::hash_key;
use agentsim_tools::ToolResult;
use agentsim_workloads::segments::{
    fewshot_example_tokens, fewshot_seed, instruction_seed, instruction_tokens,
};
use agentsim_workloads::Task;

/// Token counts by category at one LLM call (input side), plus the
/// output produced by that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextBreakdown {
    /// Fixed instruction tokens.
    pub instruction: u32,
    /// Few-shot example tokens.
    pub fewshot: u32,
    /// User query tokens.
    pub user: u32,
    /// Accumulated prior LLM outputs.
    pub llm_history: u32,
    /// Accumulated tool responses.
    pub tool_history: u32,
    /// Output tokens generated by this call (0 until known).
    pub output: u32,
}

impl ContextBreakdown {
    /// Total input tokens.
    pub fn input_total(&self) -> u32 {
        self.instruction + self.fewshot + self.user + self.llm_history + self.tool_history
    }
}

impl fmt::Display for ContextBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in={} (instr {} few {} user {} llm {} tool {}) out={}",
            self.input_total(),
            self.instruction,
            self.fewshot,
            self.user,
            self.llm_history,
            self.tool_history,
            self.output
        )
    }
}

/// The agent's evolving context: a token buffer plus category accounting.
///
/// The buffer's chain-hash memo is kept current at [`DEFAULT_BLOCK_SIZE`]
/// after every append, so each [`Self::snapshot`] (and each clone, such as
/// a LATS child node) carries it: an engine at that block size hashes only
/// the blocks a call adds, never the whole context again.
///
/// # Example
///
/// ```
/// use agentsim_agents::ContextTracker;
/// use agentsim_agents::AgentKind;
/// use agentsim_workloads::{Benchmark, TaskGenerator};
///
/// let task = TaskGenerator::new(Benchmark::HotpotQa, 1).task(0);
/// let mut ctx = ContextTracker::new(AgentKind::React.tag(), &task, 4);
/// let before = ctx.len();
/// ctx.append_llm_output(42, 50);
/// assert_eq!(ctx.len(), before + 50);
/// assert_eq!(ctx.breakdown().llm_history, 50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContextTracker {
    buf: TokenBuf,
    breakdown: ContextBreakdown,
    tool_seq: u64,
    task_key: u64,
}

impl ContextTracker {
    /// Builds the initial context: instruction + `fewshot` examples +
    /// user query, using the benchmark/agent segment seeds (so every
    /// request of the same agent x benchmark shares this prefix).
    pub fn new(agent_tag: u64, task: &Task, fewshot: u32) -> Self {
        let b = task.benchmark;
        let mut buf = TokenBuf::new();
        let instr = instruction_tokens(b);
        buf.push_segment(instruction_seed(b, agent_tag), instr);
        let per_example = fewshot_example_tokens(b);
        for i in 0..fewshot {
            buf.push_segment(fewshot_seed(b, agent_tag, i), per_example);
        }
        let user = task.user_segment();
        buf.push_buf(&user);
        let ctx = ContextTracker {
            buf,
            breakdown: ContextBreakdown {
                instruction: instr,
                fewshot: fewshot * per_example,
                user: user.len() as u32,
                llm_history: 0,
                tool_history: 0,
                output: 0,
            },
            tool_seq: 0,
            task_key: task.rng_key(),
        };
        ctx.extend_memo();
        ctx
    }

    /// Appends a completed LLM output (identified by its generation seed)
    /// to the context.
    pub fn append_llm_output(&mut self, gen_seed: u64, tokens: u32) {
        self.buf.push_generated_run(gen_seed, 0, tokens.into());
        self.breakdown.llm_history += tokens;
        self.extend_memo();
    }

    /// Appends a tool observation to the context.
    pub fn append_tool(&mut self, result: &ToolResult) {
        let seed = hash_key(b"tool-obs", self.task_key ^ self.tool_seq.rotate_left(23));
        self.tool_seq += 1;
        self.buf.push_segment(seed, result.response_tokens);
        self.breakdown.tool_history += result.response_tokens;
        self.extend_memo();
    }

    fn extend_memo(&self) {
        self.buf.chain_hashes_cached(DEFAULT_BLOCK_SIZE as usize);
    }

    /// The current prompt (cloned for submission).
    pub fn snapshot(&self) -> TokenBuf {
        self.buf.clone()
    }

    /// Current context length in tokens.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the context is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current category accounting.
    pub fn breakdown(&self) -> ContextBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_simkit::SimDuration;
    use agentsim_tools::ToolKind;
    use agentsim_workloads::{Benchmark, TaskGenerator};

    fn task() -> Task {
        TaskGenerator::new(Benchmark::HotpotQa, 1).task(0)
    }

    fn tool_result(tokens: u32) -> ToolResult {
        ToolResult {
            kind: ToolKind::WikipediaSearch,
            latency: SimDuration::from_secs(1),
            response_tokens: tokens,
            failed: false,
        }
    }

    #[test]
    fn initial_context_matches_segments() {
        let t = task();
        let ctx = ContextTracker::new(2, &t, 4);
        let b = ctx.breakdown();
        assert_eq!(b.instruction, 180);
        assert_eq!(b.fewshot, 4 * 190);
        assert_eq!(b.user as usize, t.user_segment().len());
        assert_eq!(ctx.len() as u32, b.input_total());
        assert!(!ctx.is_empty());
    }

    #[test]
    fn same_agent_same_benchmark_shares_prefix() {
        let g = TaskGenerator::new(Benchmark::HotpotQa, 1);
        let a = ContextTracker::new(2, &g.task(0), 4).snapshot();
        let b = ContextTracker::new(2, &g.task(1), 4).snapshot();
        let shared = 180 + 4 * 190;
        assert!(a.ids().take(shared).eq(b.ids().take(shared)));
        assert_ne!(a.ids().nth(shared), b.ids().nth(shared));
    }

    #[test]
    fn different_agents_do_not_share_instructions() {
        let t = task();
        let a = ContextTracker::new(2, &t, 4).snapshot();
        let b = ContextTracker::new(3, &t, 4).snapshot();
        assert_ne!(a.ids().next(), b.ids().next());
    }

    #[test]
    fn histories_accumulate_by_category() {
        let t = task();
        let mut ctx = ContextTracker::new(2, &t, 4);
        let base = ctx.len();
        ctx.append_llm_output(7, 50);
        ctx.append_tool(&tool_result(300));
        ctx.append_llm_output(8, 60);
        let b = ctx.breakdown();
        assert_eq!(b.llm_history, 110);
        assert_eq!(b.tool_history, 300);
        assert_eq!(ctx.len(), base + 410);
    }

    #[test]
    fn llm_history_matches_engine_generated_tokens() {
        // The tokens appended for an LLM output must equal what the engine
        // generated for the same seed — the prefix-cache contract.
        let t = task();
        let mut ctx = ContextTracker::new(2, &t, 0);
        let before = ctx.snapshot();
        ctx.append_llm_output(99, 3);
        let after = ctx.snapshot();
        let mut expected = before;
        expected.push_generated(99, 0);
        expected.push_generated(99, 1);
        expected.push_generated(99, 2);
        assert_eq!(after, expected);
        // The output is one run however long it is.
        ctx.append_llm_output(100, 500);
        assert_eq!(ctx.snapshot().run_count(), after.run_count() + 1);
    }

    #[test]
    fn snapshots_and_clones_carry_a_current_hash_memo() {
        let bs = DEFAULT_BLOCK_SIZE as usize;
        let carries_memo = |buf: &TokenBuf| {
            assert_eq!(buf.memoized_blocks(bs), buf.len() / bs, "memo is current");
            assert_eq!(
                &*buf.chain_hashes_cached(bs),
                &agentsim_kvcache::hash::chain_hashes(&buf.ids().collect::<Vec<_>>(), bs)[..]
            );
        };
        let t = task();
        let mut ctx = ContextTracker::new(2, &t, 4);
        carries_memo(&ctx.snapshot());
        // ReAct: each iteration appends a thought/action, then a tool
        // observation, and submits the context after each.
        for i in 0..3 {
            ctx.append_llm_output(100 + i, 37);
            carries_memo(&ctx.snapshot());
            ctx.append_tool(&tool_result(211));
            carries_memo(&ctx.snapshot());
        }
        // LATS: a child node clones its parent's context and appends the
        // output that created it.
        let mut child = ctx.clone();
        child.append_llm_output(999, 53);
        carries_memo(&child.snapshot());
        carries_memo(&ctx.snapshot());
    }

    #[test]
    fn distinct_tool_calls_produce_distinct_segments() {
        let t = task();
        let mut ctx = ContextTracker::new(2, &t, 0);
        let start = ctx.len();
        ctx.append_tool(&tool_result(10));
        let first: Vec<u64> = ctx.snapshot().ids().skip(start).collect();
        ctx.append_tool(&tool_result(10));
        let second: Vec<u64> = ctx.snapshot().ids().skip(start + 10).collect();
        assert_ne!(first, second);
    }
}
