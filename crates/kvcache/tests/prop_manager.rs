//! Property-based tests for the KV block manager: under arbitrary
//! sequences of allocate / append / free operations, the pool never
//! leaks, refcounts stay consistent, and prefix caching never changes
//! *which* work completes — only how much of it is reused.

use agentsim_kvcache::{
    AllocError, EvictionPolicy, KvBlockManager, KvConfig, OffloadSpec, Seq, Tier, TierDir,
    TierTransfer, TokenBuf,
};
use agentsim_simkit::SimTime;
use proptest::prelude::*;

/// A scripted operation on the manager.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a prompt built from (seed, len) segments.
    Alloc { seed: u64, tokens: u32 },
    /// Append `n` generated tokens to the `k`-th live sequence.
    Append { k: usize, n: u8 },
    /// Free the `k`-th live sequence.
    Free { k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..6, 1u32..200).prop_map(|(seed, tokens)| Op::Alloc { seed, tokens }),
        (0usize..8, 1u8..40).prop_map(|(k, n)| Op::Append { k, n }),
        (0usize..8).prop_map(|k| Op::Free { k }),
    ]
}

fn run_script(ops: &[Op], num_blocks: u32, prefix_caching: bool) -> (KvBlockManager, u64) {
    let mut mgr = KvBlockManager::new(KvConfig {
        num_blocks,
        block_size: 16,
        prefix_caching,
    });
    let mut live: Vec<Seq> = Vec::new();
    let mut clock = 0u64;
    let mut total_appended = 0u64;
    for op in ops {
        clock += 1;
        let now = SimTime::from_micros(clock);
        match op {
            Op::Alloc { seed, tokens } => {
                let prompt = TokenBuf::from_segment(*seed, *tokens);
                match mgr.allocate(&prompt, now) {
                    Ok(seq) => live.push(seq),
                    Err(AllocError::Insufficient { .. }) => {}
                }
            }
            Op::Append { k, n } => {
                if live.is_empty() {
                    continue;
                }
                let k = k % live.len();
                for i in 0..*n {
                    match mgr.append_token(&mut live[k], (clock << 8) ^ i as u64, now) {
                        Ok(()) => total_appended += 1,
                        Err(AllocError::Insufficient { .. }) => break,
                    }
                }
            }
            Op::Free { k } => {
                if live.is_empty() {
                    continue;
                }
                let seq = live.swap_remove(k % live.len());
                mgr.free(seq, now);
            }
        }
        mgr.check_invariants()
            .unwrap_or_else(|e| panic!("invariant broken after {op:?}: {e}"));
    }
    // Drain.
    for seq in live {
        clock += 1;
        mgr.free(seq, SimTime::from_micros(clock));
    }
    mgr.check_invariants().expect("invariants after drain");
    (mgr, total_appended)
}

/// A scripted operation against a manager with offload tiers attached:
/// the base ops plus next-invocation hints from the "session layer".
#[derive(Debug, Clone)]
enum TieredOp {
    Base(Op),
    /// Hint the `k`-th live sequence's prompt chain back `delta_ms` from now.
    Hint {
        k: usize,
        delta_ms: u32,
    },
}

fn tiered_op_strategy() -> impl Strategy<Value = TieredOp> {
    prop_oneof![
        op_strategy().prop_map(TieredOp::Base),
        op_strategy().prop_map(TieredOp::Base),
        op_strategy().prop_map(TieredOp::Base),
        (0usize..8, 1u32..120_000).prop_map(|(k, delta_ms)| TieredOp::Hint { k, delta_ms }),
    ]
}

/// Ledger of everything the tiers reported moving, reconciled against
/// the stats counters at the end of the run.
#[derive(Debug, Default, PartialEq, Eq)]
struct TransferLedger {
    demoted_host: u64,
    demoted_nvme: u64,
    promoted_host: u64,
    promoted_nvme: u64,
}

impl TransferLedger {
    fn absorb(&mut self, events: &[TierTransfer]) {
        for e in events {
            let slot = match (e.tier, e.dir) {
                (Tier::Host, TierDir::Demote) => &mut self.demoted_host,
                (Tier::Nvme, TierDir::Demote) => &mut self.demoted_nvme,
                (Tier::Host, TierDir::Promote) => &mut self.promoted_host,
                (Tier::Nvme, TierDir::Promote) => &mut self.promoted_nvme,
            };
            *slot += e.blocks as u64;
        }
    }
}

/// Like [`run_script`], but with offload tiers attached; drains the
/// transfer queue after every op (as the engine does) and returns the
/// reconciliation ledger alongside the manager.
fn run_tiered_script(
    ops: &[TieredOp],
    num_blocks: u32,
    spec: Option<OffloadSpec>,
) -> (KvBlockManager, TransferLedger) {
    let mut mgr = KvBlockManager::new(KvConfig {
        num_blocks,
        block_size: 16,
        prefix_caching: true,
    });
    if let Some(spec) = spec {
        mgr.enable_offload(spec);
    }
    let mut live: Vec<(Seq, TokenBuf)> = Vec::new();
    let mut clock = 0u64;
    let mut ledger = TransferLedger::default();
    let mut events = Vec::new();
    for op in ops {
        clock += 1;
        let now = SimTime::from_micros(clock * 1_000);
        match op {
            TieredOp::Base(Op::Alloc { seed, tokens }) => {
                let prompt = TokenBuf::from_segment(*seed, *tokens);
                match mgr.allocate(&prompt, now) {
                    Ok(seq) => live.push((seq, prompt)),
                    Err(AllocError::Insufficient { .. }) => {}
                }
            }
            TieredOp::Base(Op::Append { k, n }) => {
                if live.is_empty() {
                    continue;
                }
                let k = k % live.len();
                for i in 0..*n {
                    match mgr.append_token(&mut live[k].0, (clock << 8) ^ i as u64, now) {
                        Ok(()) => {}
                        Err(AllocError::Insufficient { .. }) => break,
                    }
                }
            }
            TieredOp::Base(Op::Free { k }) => {
                if live.is_empty() {
                    continue;
                }
                let (seq, _) = live.swap_remove(k % live.len());
                mgr.free(seq, now);
            }
            TieredOp::Hint { k, delta_ms } => {
                if live.is_empty() {
                    continue;
                }
                let buf = &live[k % live.len()].1;
                let hashes: Vec<u64> = buf.chain_hashes_cached(16).to_vec();
                let at = now + agentsim_simkit::SimDuration::from_millis(*delta_ms as u64);
                mgr.hint_next_use(&hashes, now, at);
            }
        }
        mgr.check_invariants()
            .unwrap_or_else(|e| panic!("invariant broken after {op:?}: {e}"));
        mgr.take_tier_transfers(&mut events);
        ledger.absorb(&events);
        events.clear();
    }
    for (seq, _) in live {
        clock += 1;
        mgr.free(seq, SimTime::from_micros(clock * 1_000));
    }
    mgr.check_invariants().expect("invariants after drain");
    mgr.take_tier_transfers(&mut events);
    ledger.absorb(&events);
    (mgr, ledger)
}

fn spec(host: u32, nvme: u32, distance: bool) -> OffloadSpec {
    OffloadSpec {
        host_blocks: host,
        nvme_blocks: nvme,
        policy: if distance {
            EvictionPolicy::InvocationDistance
        } else {
            EvictionPolicy::Lru
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_arbitrary_scripts(
        ops in prop::collection::vec(op_strategy(), 1..80),
        caching in any::<bool>(),
    ) {
        let (mgr, _) = run_script(&ops, 64, caching);
        // After draining, no block is referenced.
        prop_assert_eq!(mgr.live_sequences(), 0);
        prop_assert_eq!(mgr.used_blocks(), 0);
        // Every block is free or evictable.
        prop_assert_eq!(mgr.free_blocks() + mgr.evictable_blocks(), 64);
    }

    #[test]
    fn caching_never_loses_blocks(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        // The same script with caching on and off keeps the same total
        // block count and admits at least as many hit tokens with caching.
        let (on, _) = run_script(&ops, 48, true);
        let (off, _) = run_script(&ops, 48, false);
        prop_assert!(on.stats().hit_tokens >= off.stats().hit_tokens);
        prop_assert_eq!(off.stats().hit_tokens, 0);
    }

    #[test]
    fn repeated_identical_prompts_converge_to_high_hit_rates(
        seed in 0u64..100,
        len in 32u32..400,
        repeats in 2usize..8,
    ) {
        let mut mgr = KvBlockManager::new(KvConfig {
            num_blocks: 256,
            block_size: 16,
            prefix_caching: true,
        });
        let prompt = TokenBuf::from_segment(seed, len);
        let mut last_cached = 0;
        for i in 0..repeats {
            let now = SimTime::from_micros(i as u64 + 1);
            let seq = mgr.allocate(&prompt, now).expect("fits");
            last_cached = seq.cached_tokens();
            mgr.free(seq, now);
        }
        // All full blocks hit (minus the recompute-last-token rule).
        let full_blocks = (len as usize / 16) * 16;
        prop_assert_eq!(last_cached, full_blocks.min(len as usize - 1));
    }

    #[test]
    fn without_caching_nothing_is_ever_evicted(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        // With prefix caching off, freed blocks return straight to the
        // free list, so the LRU never has anything to evict.
        let (mgr, _) = run_script(&ops, 32, false);
        prop_assert_eq!(mgr.stats().evictions, 0);
        prop_assert_eq!(mgr.evictable_blocks(), 0);
    }

    #[test]
    fn scripts_are_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let (a, appended_a) = run_script(&ops, 48, true);
        let (b, appended_b) = run_script(&ops, 48, true);
        prop_assert_eq!(appended_a, appended_b);
        prop_assert_eq!(a.stats().hit_tokens, b.stats().hit_tokens);
        prop_assert_eq!(a.stats().evictions, b.stats().evictions);
        prop_assert_eq!(a.free_blocks(), b.free_blocks());
    }

    #[test]
    fn tiered_invariants_hold_and_transfers_reconcile(
        ops in prop::collection::vec(tiered_op_strategy(), 1..80),
        distance in any::<bool>(),
        host in 0u32..24,
        nvme in 0u32..48,
    ) {
        // Per-tier accounting survives arbitrary scripts (capacity caps,
        // one-home-per-hash, rank/order agreement), and the transfer
        // queue the engine prices reconciles exactly with the stats
        // counters the reports aggregate.
        let (mgr, ledger) = run_tiered_script(&ops, 32, Some(spec(host, nvme, distance)));
        prop_assert_eq!(mgr.live_sequences(), 0);
        prop_assert_eq!(mgr.used_blocks(), 0);
        prop_assert_eq!(mgr.free_blocks() + mgr.evictable_blocks(), 32);
        let s = mgr.stats();
        prop_assert_eq!(ledger, TransferLedger {
            demoted_host: s.demoted_blocks_host,
            demoted_nvme: s.demoted_blocks_nvme,
            promoted_host: s.promoted_blocks_host,
            promoted_nvme: s.promoted_blocks_nvme,
        });
        let hier = mgr.hierarchy().expect("offload enabled");
        prop_assert!(hier.host_resident() as u32 <= host);
        prop_assert!(hier.nvme_resident() as u32 <= nvme);
    }

    #[test]
    fn zero_capacity_tiers_are_invisible(
        ops in prop::collection::vec(tiered_op_strategy(), 1..60),
    ) {
        // tiers(0, 0) under the LRU baseline must behave bit-identically
        // to no hierarchy at all: same hits, same evictions, same final
        // pool shape, and no transfer ever recorded. (Under
        // InvocationDistance zero-capacity tiers still re-rank *HBM*
        // eviction from hints, so only the LRU arm is fully invisible.)
        let (tiered, ledger) = run_tiered_script(&ops, 32, Some(spec(0, 0, false)));
        let (plain, _) = run_tiered_script(&ops, 32, None);
        let (distance, distance_ledger) = run_tiered_script(&ops, 32, Some(spec(0, 0, true)));
        prop_assert_eq!(distance_ledger, TransferLedger::default());
        prop_assert_eq!(distance.stats().promoted_tokens, 0);
        prop_assert_eq!(distance.hierarchy().unwrap().host_resident(), 0);
        prop_assert_eq!(distance.hierarchy().unwrap().nvme_resident(), 0);
        prop_assert_eq!(ledger, TransferLedger::default());
        prop_assert_eq!(tiered.stats().hit_tokens, plain.stats().hit_tokens);
        prop_assert_eq!(tiered.stats().promoted_tokens, 0);
        prop_assert_eq!(tiered.stats().evictions, plain.stats().evictions);
        prop_assert_eq!(tiered.free_blocks(), plain.free_blocks());
        prop_assert_eq!(tiered.evictable_blocks(), plain.evictable_blocks());
    }

    #[test]
    fn lru_tiers_never_lose_hits_vs_plain(
        ops in prop::collection::vec(tiered_op_strategy(), 1..60),
    ) {
        // Under the LRU baseline the HBM trajectory is unchanged —
        // demotion is a side-copy, promoted blocks are allocated exactly
        // like misses — so tiers can only *add* reuse, and every extra
        // hit token is accounted to promotion.
        let (tiered, _) = run_tiered_script(&ops, 32, Some(spec(16, 32, false)));
        let (plain, _) = run_tiered_script(&ops, 32, None);
        prop_assert_eq!(
            tiered.stats().hit_tokens,
            plain.stats().hit_tokens + tiered.stats().promoted_tokens
        );
        prop_assert_eq!(tiered.stats().evictions, plain.stats().evictions);
        prop_assert_eq!(tiered.free_blocks(), plain.free_blocks());
    }

    #[test]
    fn tiered_scripts_are_deterministic(
        ops in prop::collection::vec(tiered_op_strategy(), 1..50),
        distance in any::<bool>(),
    ) {
        let (a, la) = run_tiered_script(&ops, 32, Some(spec(12, 24, distance)));
        let (b, lb) = run_tiered_script(&ops, 32, Some(spec(12, 24, distance)));
        prop_assert_eq!(la, lb);
        prop_assert_eq!(a.stats().hit_tokens, b.stats().hit_tokens);
        prop_assert_eq!(a.stats().promoted_tokens, b.stats().promoted_tokens);
        prop_assert_eq!(a.stats().evictions, b.stats().evictions);
        prop_assert_eq!(a.stats().offload_dropped_blocks, b.stats().offload_dropped_blocks);
        prop_assert_eq!(a.free_blocks(), b.free_blocks());
    }
}
