//! Aggregate results of a colocated serving run.

use agentsim_metrics::Samples;
use agentsim_simkit::SimDuration;

/// Results of a fleet run — one shared replica or many behind a router.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Offered load.
    pub offered_qps: f64,
    /// Turns completed *within their deadline* (all turns when the run
    /// has no deadline).
    pub completed: u64,
    /// On-time turns whose agent actually solved its task (the
    /// cognition-model verdict) — the accuracy numerator cascade
    /// experiments trade off against cost and latency.
    pub solved: u64,
    /// Failure-driven re-routes of unsolved turns to a higher tier.
    pub escalated: u64,
    /// Time from the start of the run to the last turn resolution.
    pub makespan: SimDuration,
    /// End-to-end latencies of on-time turns (seconds).
    pub latencies: Samples,
    /// End-to-end latencies of on-time agentic turns only (empty unless
    /// the workload contains agents).
    pub agent_latencies: Samples,
    /// End-to-end latencies of on-time chatbot turns only (empty unless
    /// the workload contains chatbot traffic).
    pub chatbot_latencies: Samples,
    /// Median latency.
    pub p50_s: f64,
    /// Tail latency.
    pub p95_s: f64,
    /// Fleet-aggregate prefix-cache hit rate.
    pub kv_hit_rate: f64,
    /// Fleet-aggregate energy (Wh).
    pub energy_wh: f64,
    /// Per-replica utilization.
    pub utilization: Vec<f64>,
    /// Sequences preempted for KV pressure, fleet-wide.
    pub preemptions: u64,
    /// Cached-block evictions (thrashing indicator), fleet-wide.
    pub evictions: u64,
    /// Time-averaged KV bytes referenced by live sequences, averaged over
    /// replicas.
    pub kv_avg_bytes: f64,
    /// Peak KV bytes referenced by live sequences on any one replica.
    pub kv_max_bytes: u64,
    /// Finished turns per second, late ones included.
    pub throughput: f64,
    /// On-time turns per second — the paper's "useful" throughput. Equals
    /// `throughput` when no deadline is set.
    pub goodput: f64,
    /// Delivery attempts processed (initial turns plus retries).
    pub attempts: u64,
    /// Re-issues scheduled after deadline expiries.
    pub retries: u64,
    /// Logical turns the client gave up on (deadline expired, retry
    /// budget exhausted).
    pub abandoned: u64,
    /// Attempts that finished after their deadline (only possible without
    /// server-side cancellation — the work completes but nobody reads it).
    pub late: u64,
    /// Attempts torn down server-side at deadline expiry.
    pub cancelled: u64,
    /// Queued ops dropped at dispatch (dead or expired sessions).
    pub dropped: u64,
    /// GPU service seconds burned on work no live client received:
    /// engine-side partial service of cancelled requests plus completed
    /// service delivered after the client gave up.
    pub wasted_gpu_s: f64,
    /// Peak number of simultaneously live sessions (bounded by the
    /// population under a closed-loop client).
    pub max_live_sessions: u64,
    /// Median time-to-first-token across every finished engine call
    /// (queueing plus prefill — the latency the KV offload tiers tax).
    pub ttft_p50_s: f64,
    /// Tail time-to-first-token across every finished engine call.
    pub ttft_p95_s: f64,
    /// Median time-per-output-token across every finished engine call
    /// with more than one output token (seconds/token).
    pub tpot_p50_s: f64,
    /// p99 time-per-output-token — the decode-interference tail the
    /// cascade's premium pool must keep short.
    pub tpot_p99_s: f64,
    /// Blocks demoted out of HBM into the offload tiers, fleet-wide
    /// (zero without [`agentsim_llm::OffloadConfig`]).
    pub offload_demoted_blocks: u64,
    /// Blocks promoted back into HBM from the offload tiers, fleet-wide.
    pub offload_promoted_blocks: u64,
    /// Prompt tokens served from an offload tier instead of recomputed —
    /// the hierarchy's prefill savings, fleet-wide.
    pub offload_promoted_tokens: u64,
    /// Blocks that fell off the bottom of the hierarchy, fleet-wide.
    pub offload_dropped_blocks: u64,
    /// Bytes moved over the HBM↔host offload links, fleet-wide.
    pub offload_host_bytes: u64,
    /// Bytes moved over the host↔NVMe offload links, fleet-wide.
    pub offload_nvme_bytes: u64,
    /// Wire time the HBM↔host offload links spent moving KV, fleet-wide
    /// (seconds) — with promotion pipelining this includes wire time
    /// hidden behind prefill compute.
    pub offload_host_busy_s: f64,
    /// Head-of-line queueing delay on the HBM↔host links, fleet-wide
    /// (seconds).
    pub offload_host_wait_s: f64,
    /// Wire time the host↔NVMe offload links spent moving KV (seconds).
    pub offload_nvme_busy_s: f64,
    /// Head-of-line queueing delay on the host↔NVMe links (seconds).
    pub offload_nvme_wait_s: f64,
}

impl FleetReport {
    /// Whether the run kept up with the offered load (achieved at least
    /// `fraction` of it).
    pub fn sustained(&self, fraction: f64) -> bool {
        self.throughput >= self.offered_qps * fraction
    }

    /// Task accuracy among on-time turns.
    pub fn accuracy(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.solved as f64 / self.completed as f64
        }
    }
}

/// The single-replica report: a one-replica fleet reports like any
/// other. Kept as an alias for existing callers; new code names
/// [`FleetReport`].
pub type ServingReport = FleetReport;

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FleetReport {
        FleetReport {
            offered_qps: 2.0,
            completed: 100,
            solved: 40,
            throughput: 2.0,
            ..FleetReport::default()
        }
    }

    #[test]
    fn throughput_and_sustained() {
        let r = report();
        assert!(r.sustained(0.9));
        assert!(!r.sustained(1.1));
    }

    #[test]
    fn accuracy_fraction() {
        assert!((report().accuracy() - 0.4).abs() < 1e-12);
    }
}
