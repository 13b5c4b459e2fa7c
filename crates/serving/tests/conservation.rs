//! Conservation invariants for disaggregated serving: nothing is lost,
//! duplicated, or conjured across the prefill → transfer → decode
//! hand-off.
//!
//! Checked via engine observers attached to every pool replica:
//!
//! 1. every request prefills exactly once (one terminal event per
//!    prefill-side submission; decode pools never run prefill tokens);
//! 2. transferred KV bytes equal the prefill-side KV footprint released
//!    at migration, byte for byte;
//! 3. decode-pool KV occupancy never exceeds pool capacity;
//! 4. a zero-cost link reproduces colocated per-request token counts —
//!    disaggregation with free transfers changes *where* work runs, not
//!    *what* is computed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use agentsim_gpu::LinkSpec;
use agentsim_llm::{EngineEvent, EngineObserver, RequestId};
use agentsim_serving::{DisaggConfig, DisaggReport, DisaggSim, Workload};

/// Per-replica event tally shared with the test body.
#[derive(Debug, Default)]
struct Tally {
    submitted: Vec<RequestId>,
    /// Admissions with fresh prompt tokens to prefill (per request).
    prefill_admissions: HashMap<RequestId, u32>,
    /// Prompt tokens admitted from the prefix cache or KV import.
    zero_token_admissions: u64,
    completed: Vec<RequestId>,
    migrated: Vec<RequestId>,
    migrated_bytes: u64,
    prefill_step_tokens: u64,
    occupancy_violations: u64,
    steps: u64,
}

#[derive(Debug, Clone)]
struct TallyObserver(Arc<Mutex<Tally>>);

impl EngineObserver for TallyObserver {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        let mut t = self.0.lock().unwrap();
        match *event {
            EngineEvent::Submitted { id, .. } => t.submitted.push(id),
            EngineEvent::Admitted { id, new_tokens, .. } => {
                if new_tokens > 0 {
                    *t.prefill_admissions.entry(id).or_insert(0) += 1;
                } else {
                    t.zero_token_admissions += 1;
                }
            }
            EngineEvent::StepCompleted {
                prefill,
                kv_used_blocks,
                kv_total_blocks,
                ..
            } => {
                t.steps += 1;
                t.prefill_step_tokens += prefill.iter().map(|(_, n)| *n as u64).sum::<u64>();
                if kv_used_blocks > kv_total_blocks {
                    t.occupancy_violations += 1;
                }
            }
            EngineEvent::Completed { completion, .. } => t.completed.push(completion.id),
            EngineEvent::Migrated { id, kv_bytes, .. } => {
                t.migrated.push(id);
                t.migrated_bytes += kv_bytes;
            }
            EngineEvent::Preempted { .. } => {}
            EngineEvent::RoleChanged { .. } => {}
            // Role-split fleets reject cancellation at build, so engine
            // work is never abandoned.
            EngineEvent::Abandoned { .. } => unreachable!("disagg never abandons engine work"),
        }
    }
}

type Tallies = Vec<Arc<Mutex<Tally>>>;

/// Runs `cfg` with a tally on every replica; returns the report plus the
/// prefill-pool and decode-pool tallies.
fn run_tallied(cfg: DisaggConfig) -> (DisaggReport, Tallies, Tallies) {
    let mut sim = DisaggSim::new(cfg);
    let (np, nd) = sim.pool_sizes();
    let mut prefill = Vec::with_capacity(np);
    let mut decode = Vec::with_capacity(nd);
    for p in 0..np {
        let tally = Arc::new(Mutex::new(Tally::default()));
        sim.set_replica_observer(p, Box::new(TallyObserver(tally.clone())));
        prefill.push(tally);
    }
    for d in 0..nd {
        let tally = Arc::new(Mutex::new(Tally::default()));
        sim.set_replica_observer(np + d, Box::new(TallyObserver(tally.clone())));
        decode.push(tally);
    }
    (sim.run(), prefill, decode)
}

#[test]
fn every_request_prefills_exactly_once_and_terminates_exactly_once() {
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 0.8, 12)
        .seed(11)
        .pools(2, 2);
    let (report, prefill, decode) = run_tallied(cfg);
    assert_eq!(report.completed, 12);

    let mut submitted = 0usize;
    let mut terminals = 0usize;
    for t in &prefill {
        let t = t.lock().unwrap();
        submitted += t.submitted.len();
        terminals += t.completed.len() + t.migrated.len();
        // Each prefill-side request prefills fresh tokens at least once
        // (exactly once unless preempted mid-prefill and recomputed).
        for id in &t.submitted {
            let n = t.prefill_admissions.get(id).copied().unwrap_or(0);
            assert!(n >= 1, "request {id:?} never prefilled");
        }
        // No request terminates twice on the prefill side.
        let mut seen: Vec<RequestId> = t
            .completed
            .iter()
            .chain(t.migrated.iter())
            .copied()
            .collect();
        seen.sort_by_key(|id| id.0);
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "a request terminated twice");
    }
    assert_eq!(
        submitted, terminals,
        "every prefill-side submission ends in exactly one terminal event"
    );
    assert_eq!(report.calls.len(), submitted, "one record per call");

    // Decode pools run zero prefill tokens and only see imported
    // (zero-new-token) admissions; every decode submission completes.
    let mut decode_submitted = 0usize;
    let mut decode_completed = 0usize;
    for t in &decode {
        let t = t.lock().unwrap();
        assert_eq!(t.prefill_step_tokens, 0, "decode pool ran prefill work");
        assert!(t.prefill_admissions.is_empty(), "decode pool prefilled");
        decode_submitted += t.submitted.len();
        decode_completed += t.completed.len();
        assert!(t.migrated.is_empty(), "decode pools never re-migrate");
    }
    assert_eq!(decode_submitted, decode_completed);
    assert_eq!(decode_submitted as u64, report.migrated_calls);
}

#[test]
fn transferred_bytes_match_prefill_side_kv_footprint() {
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 0.8, 10)
        .seed(5)
        .link(LinkSpec::pcie_gen4());
    let (report, prefill, _) = run_tallied(cfg);
    let released: u64 = prefill
        .iter()
        .map(|t| t.lock().unwrap().migrated_bytes)
        .sum();
    assert!(released > 0);
    assert_eq!(
        released, report.transferred_bytes,
        "link moved exactly the bytes the prefill pool released"
    );
    assert_eq!(
        released,
        report.calls.iter().map(|c| c.kv_bytes).sum::<u64>(),
        "per-call records account for every transferred byte"
    );
}

#[test]
fn decode_pool_occupancy_never_exceeds_capacity() {
    // Push hard enough that decode pools are busy and preemption is
    // plausible; the occupancy invariant must hold at every step.
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 3.0, 20)
        .seed(13)
        .pools(2, 1);
    let (report, prefill, decode) = run_tallied(cfg);
    assert_eq!(report.completed, 20);
    for t in prefill.iter().chain(decode.iter()) {
        let t = t.lock().unwrap();
        assert!(t.steps > 0);
        assert_eq!(t.occupancy_violations, 0, "KV occupancy exceeded capacity");
    }
}

#[test]
fn zero_cost_link_reproduces_colocated_token_counts() {
    // Chatbot traffic: per-request token counts are drawn from the
    // workload generator alone, so free transfers must not change them.
    // (Agent workloads can legitimately diverge: tool latencies are
    // drawn from timing-dependent RNG forks.)
    let n = 24;
    let disagg = DisaggSim::new(
        DisaggConfig::new(Workload::Chatbot, 1.5, n)
            .seed(21)
            .link(LinkSpec::zero_cost()),
    )
    .run();
    let colocated =
        DisaggSim::new(DisaggConfig::colocated(Workload::Chatbot, 1, 1.5, n).seed(21)).run();

    assert_eq!(disagg.completed, n);
    assert_eq!(colocated.completed, n);
    assert_eq!(colocated.migrated_calls, 0);
    assert_eq!(colocated.transferred_bytes, 0);

    let tokens = |r: &DisaggReport| {
        let mut v: Vec<(u64, u32, u32)> = r
            .calls
            .iter()
            .map(|c| (c.session, c.prompt_tokens, c.output_tokens))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        tokens(&disagg),
        tokens(&colocated),
        "free transfers must not change what is computed, only where"
    );
    // The zero-cost link really is free: transfer time telescopes to
    // nothing even though the calls did migrate.
    assert!(disagg.migrated_calls > 0);
    for c in disagg.calls.iter().filter(|c| c.migrated()) {
        assert_eq!(c.span().transfer, agentsim_simkit::SimDuration::ZERO);
    }
}
