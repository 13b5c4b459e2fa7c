//! Differential test of the offload tiers: [`MemoryHierarchy`] against a
//! reference written from its module docs, with one `BTreeMap` each for
//! predictions, host entries and NVMe entries, and a `BTreeSet` eviction
//! order per tier. Random demote / take / predict / clear / prune scripts
//! at capacities 0..8 must give the same victims, transfers, ranks, tiers
//! and counters.

use std::collections::{BTreeMap, BTreeSet};

use agentsim_kvcache::{
    EvictionPolicy, KvStats, MemoryHierarchy, OffloadSpec, Tier, TierDir, TierTransfer,
};
use agentsim_simkit::SimTime;
use proptest::prelude::*;

/// Hashes the tier operations draw from.
const HASHES: u64 = 24;

/// First hash of the predictions `Fill` adds, above [`HASHES`].
const FRESH: u64 = 1 << 32;

#[derive(Debug, Clone)]
enum Op {
    /// An HBM eviction spilling `hash` down (skipped while a tier holds
    /// it: the manager never demotes offloaded content).
    Demote { hash: u64 },
    /// Recomputed content invalidating an offloaded copy.
    Take { hash: u64 },
    /// A promotion, which also clears the prediction.
    TakeAndClear { hash: u64 },
    /// A hint: `hash` returns at `at`.
    Predict { hash: u64, at: u64 },
    /// An invocation clearing `hash`'s prediction.
    Clear { hash: u64 },
    /// Drop predictions expired before `now`, past the watermark.
    Prune { now: u64 },
    /// Predict fresh hashes until `delta` more hashes hold a prediction
    /// than the prune watermark: this lands on both sides of its edge.
    Fill { delta: i64 },
    /// A coalesced promotion transfer.
    Promote { nvme: bool, blocks: u32 },
}

/// Tier and prediction operations on [`HASHES`].
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..HASHES).prop_map(|hash| Op::Demote { hash }),
        (0..HASHES).prop_map(|hash| Op::Demote { hash }),
        (0..HASHES).prop_map(|hash| Op::Take { hash }),
        (0..HASHES).prop_map(|hash| Op::TakeAndClear { hash }),
        // Few distinct times, so ranks tie and stamps decide.
        (0..HASHES, 0u64..4).prop_map(|(hash, at)| Op::Predict { hash, at }),
        (0..HASHES, 0u64..4).prop_map(|(hash, at)| Op::Predict { hash, at }),
        (0..HASHES).prop_map(|hash| Op::Clear { hash }),
        (0u64..6).prop_map(|now| Op::Prune { now }),
        (any::<bool>(), 0u32..3).prop_map(|(nvme, blocks)| Op::Promote { nvme, blocks }),
    ]
}

/// [`op_strategy`] plus `Fill`, which takes a thousand predictions past
/// the prune watermark, so these scripts are the slow ones.
fn filling_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        (-2i64..3).prop_map(|delta| Op::Fill { delta }),
    ]
}

/// One tier's hash -> (rank, stamp).
type Entries = BTreeMap<u64, (u64, u64)>;

/// One tier's (rank, stamp, hash) keys: the first is the next victim.
type Order = BTreeSet<(u64, u64, u64)>;

/// The hierarchy as its module docs describe it.
struct Reference {
    spec: OffloadSpec,
    pred: BTreeMap<u64, u64>,
    host: Entries,
    nvme: Entries,
    host_order: Order,
    nvme_order: Order,
    stamp: u64,
    events: Vec<TierTransfer>,
    stats: KvStats,
}

impl Reference {
    fn new(spec: OffloadSpec) -> Self {
        Reference {
            spec,
            pred: BTreeMap::new(),
            host: BTreeMap::new(),
            nvme: BTreeMap::new(),
            host_order: BTreeSet::new(),
            nvme_order: BTreeSet::new(),
            stamp: 0,
            events: Vec::new(),
            stats: KvStats::default(),
        }
    }

    fn watermark(&self) -> usize {
        2 * (self.spec.host_blocks + self.spec.nvme_blocks) as usize + 1024
    }

    /// Farthest prediction first, unhinted last; everything 0 under LRU.
    fn rank_for(&self, hash: u64) -> u64 {
        match self.spec.policy {
            EvictionPolicy::Lru => 0,
            EvictionPolicy::InvocationDistance => {
                self.pred.get(&hash).map_or(u64::MAX, |&at| u64::MAX - at)
            }
        }
    }

    fn tier_of(&self, hash: u64) -> Option<Tier> {
        if self.host.contains_key(&hash) {
            Some(Tier::Host)
        } else if self.nvme.contains_key(&hash) {
            Some(Tier::Nvme)
        } else {
            None
        }
    }

    fn tier(&mut self, tier: Tier) -> (&mut Entries, &mut Order) {
        match tier {
            Tier::Host => (&mut self.host, &mut self.host_order),
            Tier::Nvme => (&mut self.nvme, &mut self.nvme_order),
        }
    }

    fn insert(&mut self, tier: Tier, hash: u64) {
        self.stamp += 1;
        let (rank, stamp) = (self.rank_for(hash), self.stamp);
        let (entries, order) = self.tier(tier);
        entries.insert(hash, (rank, stamp));
        order.insert((rank, stamp, hash));
        self.events.push(TierTransfer {
            tier,
            dir: TierDir::Demote,
            blocks: 1,
        });
    }

    fn pop_victim(&mut self, tier: Tier) -> u64 {
        let (entries, order) = self.tier(tier);
        let (_, _, hash) = order.pop_first().expect("full tier has a victim");
        entries.remove(&hash);
        hash
    }

    fn demote(&mut self, hash: u64) {
        if self.spec.host_blocks > 0 {
            if self.host.len() as u32 >= self.spec.host_blocks {
                let victim = self.pop_victim(Tier::Host);
                self.spill(victim);
            }
            self.insert(Tier::Host, hash);
            self.stats.demoted_blocks_host += 1;
            self.stats.host_peak_blocks = self.stats.host_peak_blocks.max(self.host.len() as u64);
        } else {
            self.spill(hash);
        }
    }

    fn spill(&mut self, hash: u64) {
        if self.spec.nvme_blocks == 0 {
            if self.spec.host_blocks > 0 {
                self.stats.offload_dropped_blocks += 1;
            }
            self.pred.remove(&hash);
            return;
        }
        if self.nvme.len() as u32 >= self.spec.nvme_blocks {
            let victim = self.pop_victim(Tier::Nvme);
            self.stats.offload_dropped_blocks += 1;
            self.pred.remove(&victim);
        }
        self.insert(Tier::Nvme, hash);
        self.stats.demoted_blocks_nvme += 1;
        self.stats.nvme_peak_blocks = self.stats.nvme_peak_blocks.max(self.nvme.len() as u64);
    }

    fn take(&mut self, hash: u64) -> Option<Tier> {
        let tier = self.tier_of(hash)?;
        let (entries, order) = self.tier(tier);
        let (rank, stamp) = entries.remove(&hash).expect("held");
        order.remove(&(rank, stamp, hash));
        Some(tier)
    }

    fn predict(&mut self, hash: u64, at: u64) -> u64 {
        self.pred.insert(hash, at);
        let rank = self.rank_for(hash);
        if let Some(tier) = self.tier_of(hash) {
            let (entries, order) = self.tier(tier);
            let (old, stamp) = entries[&hash];
            if old != rank {
                entries.insert(hash, (rank, stamp));
                order.remove(&(old, stamp, hash));
                order.insert((rank, stamp, hash));
            }
        }
        rank
    }

    fn prune(&mut self, now: u64) {
        if self.pred.len() > self.watermark() {
            self.pred.retain(|_, &mut at| at >= now);
        }
    }

    fn promote(&mut self, tier: Tier, blocks: u32) {
        if blocks == 0 {
            return;
        }
        self.events.push(TierTransfer {
            tier,
            dir: TierDir::Promote,
            blocks,
        });
        match tier {
            Tier::Host => self.stats.promoted_blocks_host += u64::from(blocks),
            Tier::Nvme => self.stats.promoted_blocks_nvme += u64::from(blocks),
        }
    }
}

/// The counters the hierarchy updates.
fn tier_stats(s: &KvStats) -> [u64; 9] {
    [
        s.demoted_blocks_host,
        s.demoted_blocks_nvme,
        s.promoted_blocks_host,
        s.promoted_blocks_nvme,
        s.offload_dropped_blocks,
        s.host_peak_blocks,
        s.nvme_peak_blocks,
        s.hit_tokens,
        s.evictions,
    ]
}

fn at(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

/// Runs `ops` on both and fails at the first observable difference.
fn run(ops: &[Op], host: u32, nvme: u32, distance: bool) -> Result<(), String> {
    let policy = if distance {
        EvictionPolicy::InvocationDistance
    } else {
        EvictionPolicy::Lru
    };
    let spec = OffloadSpec {
        host_blocks: host,
        nvme_blocks: nvme,
        policy,
    };
    let mut real = MemoryHierarchy::new(spec);
    let mut stats = KvStats::default();
    let mut want = Reference::new(spec);
    let mut fresh = FRESH;
    let mut got_events = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let fail = |what: String| Err(format!("step {step} {op:?}: {what}"));
        match *op {
            Op::Demote { hash } => {
                if want.tier_of(hash).is_none() {
                    real.demote(hash, &mut stats);
                    want.demote(hash);
                }
            }
            Op::Take { hash } => {
                let (got, exp) = (real.take(hash), want.take(hash));
                if got != exp {
                    return fail(format!("take {got:?}, reference {exp:?}"));
                }
            }
            Op::TakeAndClear { hash } => {
                let (got, exp) = (real.take_and_clear(hash), want.take(hash));
                want.pred.remove(&hash);
                if got != exp {
                    return fail(format!("take_and_clear {got:?}, reference {exp:?}"));
                }
            }
            Op::Predict { hash, at: t } => {
                let (got, exp) = (real.predict(hash, at(t)), want.predict(hash, t));
                if got != exp {
                    return fail(format!("predict rank {got}, reference {exp}"));
                }
            }
            Op::Clear { hash } => {
                real.clear_pred(hash);
                want.pred.remove(&hash);
            }
            Op::Prune { now } => {
                real.prune_pred(at(now));
                want.prune(now);
                // Every seventh fresh hash covers all six prediction times.
                for hash in (0..HASHES).chain((FRESH..fresh).step_by(7)) {
                    let (got, exp) = (real.rank_for(hash), want.rank_for(hash));
                    if got != exp {
                        return fail(format!("rank_for({hash:#x}) {got}, reference {exp}"));
                    }
                }
            }
            Op::Fill { delta } => {
                let target = want.watermark() as i64 + delta;
                while (want.pred.len() as i64) < target {
                    let t = fresh % 6;
                    real.predict(fresh, at(t));
                    want.predict(fresh, t);
                    fresh += 1;
                }
            }
            Op::Promote { nvme, blocks } => {
                let tier = if nvme { Tier::Nvme } else { Tier::Host };
                real.record_promote(tier, blocks, &mut stats);
                want.promote(tier, blocks);
            }
        }
        // Past a `Fill` a thousand records hold predictions, so the full
        // invariant scan runs on every eighth step and the last.
        if fresh == FRESH || step % 8 == 0 || step + 1 == ops.len() {
            real.check_invariants().or_else(&fail)?;
        }
        real.take_transfers(&mut got_events);
        if got_events != want.events {
            return fail(format!(
                "transfers {got_events:?}, reference {:?}",
                want.events
            ));
        }
        if tier_stats(&stats) != tier_stats(&want.stats) {
            return fail(format!(
                "stats {:?}, reference {:?}",
                tier_stats(&stats),
                tier_stats(&want.stats)
            ));
        }
        if (real.host_resident(), real.nvme_resident()) != (want.host.len(), want.nvme.len()) {
            return fail(format!(
                "resident {}+{}, reference {}+{}",
                real.host_resident(),
                real.nvme_resident(),
                want.host.len(),
                want.nvme.len()
            ));
        }
        for hash in 0..HASHES {
            let (got, exp) = (real.tier_of(hash), want.tier_of(hash));
            if got != exp {
                return fail(format!("tier_of({hash}) {got:?}, reference {exp:?}"));
            }
            let (got, exp) = (real.rank_for(hash), want.rank_for(hash));
            if got != exp {
                return fail(format!("rank_for({hash}) {got}, reference {exp}"));
            }
        }
    }
    Ok(())
}

/// Scripts, a quarter of them crossing the prune watermark, with host
/// and NVMe capacities and whether the policy is invocation distance.
fn scripts() -> impl Strategy<Value = (Vec<Op>, u32, u32, bool)> {
    let ops = prop_oneof![
        prop::collection::vec(op_strategy(), 1..120),
        prop::collection::vec(op_strategy(), 1..120),
        prop::collection::vec(op_strategy(), 1..120),
        prop::collection::vec(filling_op_strategy(), 1..80),
    ];
    (ops, 0u32..8, 0u32..8, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hierarchy_matches_its_reference(script in scripts()) {
        let (ops, host, nvme, distance) = script;
        prop_assert_eq!(run(&ops, host, nvme, distance), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    // The same differential at depth: `cargo test --release -p
    // agentsim-kvcache -- --ignored`.
    #[test]
    #[ignore]
    fn hierarchy_matches_its_reference_deep(script in scripts()) {
        let (ops, host, nvme, distance) = script;
        prop_assert_eq!(run(&ops, host, nvme, distance), Ok(()));
    }
}

/// The prune fires one prediction past the watermark, not at it.
#[test]
fn prune_fires_just_past_the_watermark() {
    let spec = OffloadSpec {
        host_blocks: 1,
        nvme_blocks: 2,
        policy: EvictionPolicy::InvocationDistance,
    };
    let watermark = 2 * 3 + 1024;
    let mut h = MemoryHierarchy::new(spec);
    for hash in 0..watermark {
        h.predict(hash, at(hash + 1));
    }
    h.prune_pred(at(watermark));
    assert_eq!(
        h.rank_for(0),
        u64::MAX - 1,
        "at the watermark nothing is pruned"
    );
    h.predict(watermark, at(watermark + 1));
    h.prune_pred(at(watermark));
    assert_eq!(h.rank_for(0), u64::MAX, "past it, expired predictions go");
    assert_eq!(h.rank_for(watermark), u64::MAX - watermark - 1);
}
