//! The ShareGPT chatbot workload (non-agentic baseline).
//!
//! Single-turn conversations: one prompt, one LLM inference, no tools.
//! Length statistics follow the dataset's well-known skew: inputs are a
//! few hundred tokens with a long tail, outputs a few hundred tokens.
//! Calibrated so a median query decodes in ≈3–7 s on an A100 + 8B model,
//! matching the paper's Fig. 7.

use agentsim_kvcache::TokenBuf;
use agentsim_simkit::dist::{ClampedLogNormal, Sample};
use agentsim_simkit::SimRng;

use crate::benchmark::Benchmark;
use crate::segments::{instruction_seed, instruction_tokens, user_seed};

/// One sampled chatbot query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareGptQuery {
    /// Stable identity within the stream.
    pub id: u64,
    /// Full prompt (short shared system prompt + user turn).
    pub prompt: TokenBuf,
    /// Response length the model will generate.
    pub output_tokens: u32,
    /// Seed identifying the output stream.
    pub gen_seed: u64,
}

/// Generates ShareGPT-style single-turn queries.
///
/// # Example
///
/// ```
/// use agentsim_workloads::ShareGptGenerator;
///
/// let g = ShareGptGenerator::new(1);
/// let q = g.query(0);
/// assert!(q.prompt.len() > 30);
/// assert!(q.output_tokens >= 16);
/// ```
#[derive(Debug, Clone)]
pub struct ShareGptGenerator {
    seed: u64,
    input_tokens: ClampedLogNormal,
    output_tokens: ClampedLogNormal,
}

impl ShareGptGenerator {
    /// Creates a generator rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        ShareGptGenerator {
            seed,
            input_tokens: ClampedLogNormal::from_mean_cv(230.0, 1.0, 10.0, 2048.0),
            output_tokens: ClampedLogNormal::from_mean_cv(290.0, 0.35, 32.0, 700.0),
        }
    }

    /// The `index`-th query of the stream (pure function).
    pub fn query(&self, index: u64) -> ShareGptQuery {
        let mut rng = SimRng::seed_from(self.seed ^ 0x5A6E).fork(index);
        let sys = instruction_seed(Benchmark::ShareGpt, 0);
        let mut prompt = TokenBuf::from_segment(sys, instruction_tokens(Benchmark::ShareGpt));
        let user = user_seed(Benchmark::ShareGpt, self.seed.rotate_left(7) ^ index);
        prompt.push_segment(user, self.input_tokens.sample_count(&mut rng).max(8) as u32);
        ShareGptQuery {
            id: index,
            prompt,
            output_tokens: self.output_tokens.sample_count(&mut rng).max(16) as u32,
            gen_seed: user ^ 0x00D0,
        }
    }

    /// The first `n` queries.
    pub fn queries(&self, n: u64) -> impl Iterator<Item = ShareGptQuery> + '_ {
        (0..n).map(move |i| self.query(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_pure_functions() {
        let g = ShareGptGenerator::new(9);
        assert_eq!(g.query(3), g.query(3));
        assert_ne!(g.query(3).prompt, g.query(4).prompt);
    }

    #[test]
    fn queries_share_only_the_system_prompt() {
        let g = ShareGptGenerator::new(9);
        let a = g.query(0).prompt;
        let b = g.query(1).prompt;
        let sys = instruction_tokens(Benchmark::ShareGpt) as usize;
        assert!(a.ids().take(sys).eq(b.ids().take(sys)));
        assert_ne!(a.ids().nth(sys), b.ids().nth(sys));
    }

    #[test]
    fn mean_lengths_are_calibrated() {
        let g = ShareGptGenerator::new(11);
        let n = 3_000u64;
        let (mut in_sum, mut out_sum) = (0.0, 0.0);
        for q in g.queries(n) {
            in_sum += q.prompt.len() as f64;
            out_sum += q.output_tokens as f64;
        }
        let in_mean = in_sum / n as f64;
        let out_mean = out_sum / n as f64;
        assert!((200.0..330.0).contains(&in_mean), "input mean {in_mean}");
        assert!((250.0..330.0).contains(&out_mean), "output mean {out_mean}");
    }

    #[test]
    fn output_lengths_have_spread() {
        let g = ShareGptGenerator::new(12);
        let outs: Vec<u32> = g.queries(500).map(|q| q.output_tokens).collect();
        let min = *outs.iter().min().unwrap();
        let max = *outs.iter().max().unwrap();
        assert!(max > 2 * min, "distribution too tight: {min}..{max}");
    }
}
