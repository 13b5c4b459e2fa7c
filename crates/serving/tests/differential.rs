//! Differential test: the disagg driver collapsed to one colocated
//! replica on a zero-cost link adds a topology, not a behaviour. It
//! reproduces each serving golden cell bit for bit, in every field the
//! two reports share.

mod golden_table;

use agentsim_llm::SchedulerPolicy;
use agentsim_serving::Workload;
use golden_table::{chatbot, digest, mixed, react, serving, serving_as_disagg};
use golden_table::{golden, Fold};
use golden_table::{DEEPEST, FCFS};

/// Digest of the fields `FleetReport` and `DisaggReport` share.
macro_rules! shared_digest {
    ($r:expr) => {{
        let r = &$r;
        digest(
            &[
                &r.offered_qps as &dyn Fold,
                &r.completed,
                &r.solved,
                &r.abandoned,
                &r.dropped,
                &r.makespan,
                &r.latencies,
                &r.p50_s,
                &r.p95_s,
                &r.energy_wh,
                &r.kv_hit_rate,
                &r.offload_demoted_blocks,
                &r.offload_promoted_blocks,
                &r.offload_promoted_tokens,
                &r.offload_dropped_blocks,
                &r.preemptions,
            ][..],
        )
    }};
}

/// The colocated disagg run agrees with the serving run on every shared
/// field, and that serving run is still the one `cell` pins.
fn assert_matches_serving(cell: &str, workload: Workload, scheduler: SchedulerPolicy) {
    let d = serving_as_disagg(workload.clone(), scheduler);
    assert_eq!((d.migrated_calls, d.transferred_bytes), (0, 0));
    let s = serving(workload, scheduler);
    assert_eq!(shared_digest!(d), shared_digest!(s));
    assert_eq!(
        Some(digest(&s)),
        golden(cell),
        "serving run drifted from {cell}"
    );
}

#[test]
fn chatbot_fcfs_matches_serving_golden() {
    assert_matches_serving("serving/chatbot-fcfs", chatbot(), FCFS);
}

#[test]
fn chatbot_deepest_matches_serving_golden() {
    assert_matches_serving("serving/chatbot-deepest", chatbot(), DEEPEST);
}

#[test]
fn agent_fcfs_matches_serving_golden() {
    assert_matches_serving("serving/agent-fcfs", react(), FCFS);
}

#[test]
fn agent_deepest_matches_serving_golden() {
    assert_matches_serving("serving/agent-deepest", react(), DEEPEST);
}

#[test]
fn mixed_fcfs_matches_serving_golden() {
    assert_matches_serving("serving/mixed-fcfs", mixed(), FCFS);
}

#[test]
fn mixed_deepest_matches_serving_golden() {
    assert_matches_serving("serving/mixed-deepest", mixed(), DEEPEST);
}
