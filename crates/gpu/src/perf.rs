//! Roofline performance model for LLM engine steps.
//!
//! The model captures the two regimes the paper's analysis rests on:
//!
//! * **prefill** — large matrix multiplies; throughput-bound by peak FLOPs,
//! * **decode** — one token per sequence per step; bound by HBM bandwidth
//!   (weights are re-read every step, plus each sequence's KV cache).
//!
//! Step time is `max(compute time, memory time) + fixed overhead`, where
//! the overhead models kernel launch, scheduling and (for tensor-parallel
//! replicas) collective synchronization.

use agentsim_simkit::SimDuration;

use crate::cluster::ClusterSpec;

/// Cost of one engine step as predicted by the roofline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Wall-clock duration of the step.
    pub duration: SimDuration,
    /// Dense + attention FLOPs executed.
    pub flops: f64,
    /// Bytes moved through HBM (weights + KV reads/writes).
    pub hbm_bytes: f64,
    /// Time the step would take if purely compute-bound.
    pub compute_time_s: f64,
    /// Time the step would take if purely memory-bound.
    pub memory_time_s: f64,
}

/// A batch element entering prefill: `new_tokens` to be processed on top of
/// `cached_tokens` already present in the KV cache (prefix-cache hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillItem {
    /// Tokens whose KV must be computed in this step.
    pub new_tokens: u64,
    /// Tokens already cached (skipped work — the prefix-caching win).
    pub cached_tokens: u64,
}

/// Analytical performance model for one model replica.
///
/// # Example
///
/// ```
/// use agentsim_gpu::{ClusterSpec, PerfModel};
/// use agentsim_gpu::perf::PrefillItem;
///
/// let perf = PerfModel::new(ClusterSpec::a100_llama8b());
/// let full = perf.prefill(&[PrefillItem { new_tokens: 2048, cached_tokens: 0 }]);
/// let cached = perf.prefill(&[PrefillItem { new_tokens: 256, cached_tokens: 1792 }]);
/// assert!(cached.duration < full.duration, "prefix caching must shorten prefill");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    cluster: ClusterSpec,
    /// Fraction of peak FLOPs achieved during prefill (large GEMMs).
    pub prefill_efficiency: f64,
    /// Fraction of peak FLOPs achieved during decode GEMVs.
    pub decode_compute_efficiency: f64,
    /// Fraction of peak HBM bandwidth achieved.
    pub bandwidth_efficiency: f64,
    /// Fixed per-step overhead (scheduler iteration, kernel launches).
    pub step_overhead: SimDuration,
}

impl PerfModel {
    /// Creates a performance model with calibrated default efficiencies.
    pub fn new(cluster: ClusterSpec) -> Self {
        PerfModel {
            cluster,
            prefill_efficiency: 0.55,
            decode_compute_efficiency: 0.70,
            bandwidth_efficiency: 0.80,
            step_overhead: SimDuration::from_micros(2_000),
        }
    }

    /// The cluster this model describes.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    fn achieved_flops(&self, efficiency: f64) -> f64 {
        self.cluster.total_flops() * efficiency
    }

    fn achieved_bandwidth(&self) -> f64 {
        self.cluster.total_bandwidth() * self.bandwidth_efficiency
    }

    /// FLOPs to prefill `new` tokens whose context already holds `past`
    /// tokens (dense work plus causal-attention work).
    pub fn prefill_flops(&self, new: u64, past: u64) -> f64 {
        let m = &self.cluster.model;
        let dense = m.flops_per_token_dense() * new as f64;
        // Token i (0-based within the new chunk) attends over past + i + 1
        // positions; summing gives past*new + new*(new+1)/2.
        let attended = past as f64 * new as f64 + new as f64 * (new as f64 + 1.0) / 2.0;
        let attn = 4.0 * m.layers as f64 * m.heads as f64 * m.head_dim as f64 * attended;
        dense + attn
    }

    /// Cost of a prefill step over a batch of items.
    ///
    /// Cached tokens contribute no FLOPs (their KV is reused), which is how
    /// prefix caching shortens the prefill phase.
    pub fn prefill(&self, items: &[PrefillItem]) -> StepCost {
        let m = &self.cluster.model;
        let mut flops = 0.0;
        let mut kv_written = 0.0;
        for it in items {
            flops += self.prefill_flops(it.new_tokens, it.cached_tokens);
            kv_written += (it.new_tokens * m.kv_bytes_per_token()) as f64;
        }
        // Weights are streamed at least once per step.
        let hbm = m.weight_bytes() as f64 + kv_written;
        let compute = flops / self.achieved_flops(self.prefill_efficiency);
        let memory = hbm / self.achieved_bandwidth();
        self.finish(flops, hbm, compute, memory)
    }

    /// Cost of one decode step for a batch of sequences with the given
    /// context lengths (one new token per sequence).
    pub fn decode_step(&self, context_lens: &[u64]) -> StepCost {
        let m = &self.cluster.model;
        let batch = context_lens.len() as f64;
        let total_ctx: u64 = context_lens.iter().sum();

        let flops: f64 = m.flops_per_token_dense() * batch
            + context_lens
                .iter()
                .map(|&c| m.flops_per_token_attn(c))
                .sum::<f64>();
        // Weights once per step; each sequence reads its whole KV cache and
        // writes one token of KV.
        let hbm = m.weight_bytes() as f64
            + (total_ctx + context_lens.len() as u64) as f64 * m.kv_bytes_per_token() as f64;

        let compute = flops / self.achieved_flops(self.decode_compute_efficiency);
        let memory = hbm / self.achieved_bandwidth();
        self.finish(flops, hbm, compute, memory)
    }

    /// Cost of a mixed step (chunked prefill co-scheduled with decodes) —
    /// used by the chunked-prefill ablation.
    pub fn mixed_step(&self, prefill: &[PrefillItem], decode_ctx: &[u64]) -> StepCost {
        let p = self.prefill(prefill);
        let d = self.decode_step(decode_ctx);
        let flops = p.flops + d.flops;
        let m = &self.cluster.model;
        // Weights counted once, not twice.
        let hbm = p.hbm_bytes + d.hbm_bytes - m.weight_bytes() as f64;
        let compute = p.compute_time_s + d.compute_time_s;
        let memory = hbm / self.achieved_bandwidth();
        self.finish(flops, hbm, compute, memory)
    }

    fn finish(&self, flops: f64, hbm: f64, compute: f64, memory: f64) -> StepCost {
        let roofline = compute.max(memory);
        let overhead = self.step_overhead.as_secs_f64() + self.cluster.tp_sync_s();
        StepCost {
            duration: SimDuration::from_secs_f64(roofline + overhead),
            flops,
            hbm_bytes: hbm,
            compute_time_s: compute,
            memory_time_s: memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf_8b() -> PerfModel {
        PerfModel::new(ClusterSpec::a100_llama8b())
    }

    fn perf_70b() -> PerfModel {
        PerfModel::new(ClusterSpec::a100x8_llama70b())
    }

    #[test]
    fn single_decode_token_is_weight_read_bound() {
        // 16 GB weights over ~1.24 TB/s effective ≈ 13 ms, plus overhead.
        let step = perf_8b().decode_step(&[1000]);
        assert!(step.memory_time_s >= step.compute_time_s);
        let s = step.duration.as_secs_f64();
        assert!((0.010..0.025).contains(&s), "decode step {s} s");
    }

    #[test]
    fn decode_batches_amortize_weight_reads() {
        let perf = perf_8b();
        let one = perf.decode_step(&[1000]).duration.as_secs_f64();
        let thirty_two = perf.decode_step(&[1000; 32]).duration.as_secs_f64();
        // 32 sequences cost far less than 32x one sequence.
        assert!(thirty_two < 4.0 * one, "one={one} batch32={thirty_two}");
    }

    #[test]
    fn prefill_is_compute_bound_for_long_prompts() {
        let step = perf_8b().prefill(&[PrefillItem {
            new_tokens: 4096,
            cached_tokens: 0,
        }]);
        assert!(step.compute_time_s > step.memory_time_s);
        // 4096 tokens x 16 GFLOPs/token ≈ 66 TFLOP at ~172 TFLOPS ≈ 0.38 s.
        let s = step.duration.as_secs_f64();
        assert!((0.2..0.8).contains(&s), "prefill {s} s");
    }

    #[test]
    fn cached_tokens_cut_prefill_time() {
        let perf = perf_8b();
        let cold = perf.prefill(&[PrefillItem {
            new_tokens: 3000,
            cached_tokens: 0,
        }]);
        let warm = perf.prefill(&[PrefillItem {
            new_tokens: 300,
            cached_tokens: 2700,
        }]);
        assert!(warm.duration.as_secs_f64() < cold.duration.as_secs_f64() / 3.0);
        assert!(warm.flops < cold.flops / 5.0);
    }

    #[test]
    fn seventy_b_decode_is_slower_despite_eight_gpus() {
        let d8 = perf_8b().decode_step(&[2000]).duration.as_secs_f64();
        let d70 = perf_70b().decode_step(&[2000]).duration.as_secs_f64();
        assert!(d70 > d8, "8B {d8} s vs 70B {d70} s");
    }

    #[test]
    fn longer_contexts_cost_more_decode_time() {
        let perf = perf_8b();
        let short = perf.decode_step(&[500; 8]).duration;
        let long = perf.decode_step(&[8000; 8]).duration;
        assert!(long > short);
    }

    #[test]
    fn prefill_flops_match_closed_form() {
        let perf = perf_8b();
        // No past: attended = n(n+1)/2.
        let f = perf.prefill_flops(100, 0);
        let m = ModelShape::of(perf.cluster());
        let expected = 2.0 * m.params * 100.0 + 4.0 * m.layers * m.heads * m.head_dim * 5050.0;
        assert!((f - expected).abs() / expected < 1e-12);
    }

    struct ModelShape {
        params: f64,
        layers: f64,
        heads: f64,
        head_dim: f64,
    }
    impl ModelShape {
        fn of(c: &ClusterSpec) -> Self {
            ModelShape {
                params: c.model.params as f64,
                layers: c.model.layers as f64,
                heads: c.model.heads as f64,
                head_dim: c.model.head_dim as f64,
            }
        }
    }

    #[test]
    fn mixed_step_counts_weights_once() {
        let perf = perf_8b();
        let p = perf.prefill(&[PrefillItem {
            new_tokens: 512,
            cached_tokens: 0,
        }]);
        let d = perf.decode_step(&[1000; 4]);
        let m = perf.mixed_step(
            &[PrefillItem {
                new_tokens: 512,
                cached_tokens: 0,
            }],
            &[1000; 4],
        );
        let weights = perf.cluster().model.weight_bytes() as f64;
        assert!((m.hbm_bytes - (p.hbm_bytes + d.hbm_bytes - weights)).abs() < 1.0);
        // Mixing is cheaper than running the two steps back-to-back.
        assert!(m.duration < p.duration + d.duration);
    }

    #[test]
    fn empty_decode_step_is_just_overhead_plus_weights() {
        let perf = perf_8b();
        let step = perf.decode_step(&[]);
        assert_eq!(step.flops, 0.0);
        assert!(step.duration >= perf.step_overhead);
    }
}
