//! HBM → host-DRAM → NVMe offload tiers for idle-session KV.
//!
//! Agentic sessions spend most of their wall-clock *waiting* — on tool
//! calls, client think time, and turn gaps — while their KV squats in HBM
//! doing nothing. The [`MemoryHierarchy`] gives the block manager two
//! lower tiers to spill into: when memory pressure evicts a cached block
//! from HBM, its content (identified by chain hash, exactly like the
//! prefix cache) is *demoted* into host DRAM instead of destroyed, and
//! cascades on to NVMe when host fills. A later prompt whose prefix lives
//! in a lower tier *promotes* it back — paying modeled transfer time
//! instead of recompute.
//!
//! The hierarchy itself is sans-IO: it records [`TierTransfer`] events and
//! leaves pricing to the engine, which replays them through the
//! [`LinkSpec`](https://docs.rs/agentsim-gpu) interconnect model
//! (`pcie_host` for HBM↔host, `nvme` for host↔NVMe). Demotes are
//! asynchronous (the link is occupied but no step waits); promotes gate
//! admission, extending the admitting prefill step — the TTFT toll of a
//! cold tier.
//!
//! Eviction order within HBM and within each tier is set by
//! [`EvictionPolicy`]:
//!
//! * [`EvictionPolicy::Lru`] — the baseline: least-recently-used first.
//! * [`EvictionPolicy::InvocationDistance`] — ScaleSim-style: the session
//!   layer knows *exactly* when an idle session returns (tool-call wake
//!   time, closed-loop think time), and hints the hierarchy with the
//!   predicted next-invocation time per chain hash. Content predicted
//!   farthest in the future is evicted first. Content with no prediction
//!   is evicted last: a hot shared prefix loses its prediction the moment
//!   it is reused, so unhinted content is treated as imminently needed.
//!   LRU order breaks ties. With no hints at all the policy degenerates
//!   to exact LRU.
//!
//! Everything the hierarchy knows about one chain hash sits in one
//! record: its prediction, and while the content is offloaded, the tier
//! holding it and its `(rank, stamp)` key in that tier's eviction order.
//! A record with neither is removed. So one map probe serves each
//! operation: [`MemoryHierarchy::take`] and
//! [`MemoryHierarchy::take_and_clear`] (which also drops the prediction,
//! as a promotion does), [`MemoryHierarchy::predict`] (which also re-keys
//! an offloaded copy), and a demotion's cascade, which updates the
//! victim's record in place as it moves down a tier. Each tier's order
//! reads liveness from the same records: a key is live while its hash's
//! record names that tier, rank and stamp.

use std::collections::hash_map::Entry;

use agentsim_simkit::rng::KeyMap;
use agentsim_simkit::SimTime;

use crate::heap::{EvictionHeap, Key};
use crate::stats::KvStats;

/// An offload tier below HBM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Host DRAM, reachable over the GPU's PCIe DMA path.
    Host,
    /// NVMe flash below host DRAM.
    Nvme,
}

impl Tier {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Host => "host",
            Tier::Nvme => "nvme",
        }
    }
}

/// Direction of a tier transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDir {
    /// HBM (or a higher tier) spilling down.
    Demote,
    /// A lower tier restoring content into HBM.
    Promote,
}

/// One recorded block movement, priced later by the engine. `tier` names
/// the link the bytes cross: `Host` transfers ride the GPU↔host DMA path,
/// `Nvme` transfers the host↔NVMe path (including host-tier overflow
/// spilling down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTransfer {
    /// Which link the transfer crosses.
    pub tier: Tier,
    /// Demotion (spill) or promotion (restore).
    pub dir: TierDir,
    /// Whole KV blocks moved.
    pub blocks: u32,
}

/// How eviction victims are ranked, in HBM and within each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Least-recently-used first (the vLLM baseline).
    #[default]
    Lru,
    /// Predicted next-invocation distance (Belady over session hints):
    /// farthest-predicted-next-use first. Unhinted content is treated as
    /// imminently reusable — a hot shared prefix loses its prediction the
    /// moment it is re-used, and punishing that would evict exactly the
    /// blocks every session needs — so it is evicted last, in LRU order.
    InvocationDistance,
}

/// Sizing and policy of the offload tiers, in whole KV blocks.
///
/// A zero-capacity tier is skipped in the demote cascade; with both tiers
/// at zero the hierarchy never retains anything, records no transfers, and
/// the manager behaves bit-identically to one with no hierarchy at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadSpec {
    /// Host-DRAM tier capacity in blocks.
    pub host_blocks: u32,
    /// NVMe tier capacity in blocks.
    pub nvme_blocks: u32,
    /// Victim ranking, shared by HBM and both tiers.
    pub policy: EvictionPolicy,
}

/// Entries evicted sooner sort lower. A prediction at absolute
/// microsecond `t` ranks `u64::MAX - t`, so nearer predictions rank
/// higher and survive longer; unhinted content ranks `u64::MAX` (assumed
/// imminent, evicted last). Under LRU everything ranks 0 and the stamp
/// (recency) decides alone.
type Rank = u64;

/// The rank that `policy` gives content predicted back at `pred`.
fn rank(policy: EvictionPolicy, pred: Option<u64>) -> Rank {
    match policy {
        EvictionPolicy::Lru => 0,
        EvictionPolicy::InvocationDistance => pred.map_or(u64::MAX, |at| u64::MAX - at),
    }
}

/// What the hierarchy knows about one chain hash; see the module docs.
/// Three words, because the record map's footprint sets what every
/// probe costs: `bits` packs the slot's stamp with whether the record
/// holds a prediction and which tier holds the content.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    /// Predicted next-invocation time (absolute micros), while
    /// [`HAS_PRED`] is set.
    at: u64,
    /// The slot's rank, while a tier holds the content.
    rank: Rank,
    /// `stamp << 3 | HAS_PRED | tier`, the tier bits 0 (none), 1 (host)
    /// or 2 (NVMe).
    bits: u64,
}

/// [`Record::bits`]: the record holds a prediction.
const HAS_PRED: u64 = 0b100;
/// [`Record::bits`]: the tier holding the content.
const TIER_BITS: u64 = 0b011;

impl Record {
    /// Predicted next-invocation time (absolute micros), from a hint.
    fn pred(&self) -> Option<u64> {
        (self.bits & HAS_PRED != 0).then_some(self.at)
    }

    /// Sets the prediction, returning the previous one.
    fn set_pred(&mut self, pred: Option<u64>) -> Option<u64> {
        let old = self.pred();
        match pred {
            Some(at) => {
                self.at = at;
                self.bits |= HAS_PRED;
            }
            None => self.bits &= !HAS_PRED,
        }
        old
    }

    /// `(tier, rank, stamp)`: the tier holding the content and its key
    /// in that tier's order.
    fn slot(&self) -> Option<(Tier, Rank, u64)> {
        let tier = match self.bits & TIER_BITS {
            0 => return None,
            1 => Tier::Host,
            _ => Tier::Nvme,
        };
        Some((tier, self.rank, self.bits >> 3))
    }

    /// Sets the slot, returning the previous one.
    fn set_slot(&mut self, slot: Option<(Tier, Rank, u64)>) -> Option<(Tier, Rank, u64)> {
        let old = self.slot();
        self.bits &= HAS_PRED;
        if let Some((tier, rank, stamp)) = slot {
            debug_assert!(stamp < 1 << 61, "stamp {stamp} overflows the record");
            self.rank = rank;
            self.bits |= stamp << 3
                | match tier {
                    Tier::Host => 1,
                    Tier::Nvme => 2,
                };
        }
        old
    }
}

/// One tier's eviction order.
#[derive(Debug, Default)]
struct TierState {
    capacity: u32,
    /// (rank, stamp, hash): the minimum is the next victim. Stamps are
    /// unique per insertion, so ties resolve FIFO and deterministically.
    /// A key is live while its hash's record holds it as its slot here.
    order: EvictionHeap<u64>,
}

/// Whether `key` is its hash's current slot in `tier`.
fn live_in(records: &KeyMap<Record>, tier: Tier) -> impl Fn(&Key<u64>) -> bool + '_ {
    move |&(rank, stamp, hash)| {
        records
            .get(&hash)
            .is_some_and(|r| r.slot() == Some((tier, rank, stamp)))
    }
}

/// The offload tiers below HBM. Owned by the block manager; content is
/// keyed by chain hash (the same identity the prefix cache uses), so a
/// hash lives in exactly one place — the HBM prefix cache, the host tier,
/// or the NVMe tier.
#[derive(Debug)]
pub struct MemoryHierarchy {
    spec: OffloadSpec,
    host: TierState,
    nvme: TierState,
    /// chain hash -> its prediction (fed by the session layer via hints)
    /// and its tier slot. No record is empty.
    records: KeyMap<Record>,
    /// Records holding a prediction.
    preds: usize,
    /// Monotonic insertion counter for deterministic tie-breaks.
    stamp: u64,
    /// Transfers recorded since the last drain, in occurrence order.
    events: Vec<TierTransfer>,
}

impl MemoryHierarchy {
    /// Builds the tiers per `spec`.
    pub fn new(spec: OffloadSpec) -> Self {
        MemoryHierarchy {
            spec,
            host: TierState {
                capacity: spec.host_blocks,
                ..TierState::default()
            },
            nvme: TierState {
                capacity: spec.nvme_blocks,
                ..TierState::default()
            },
            records: KeyMap::default(),
            preds: 0,
            stamp: 0,
            events: Vec::new(),
        }
    }

    /// The configured sizing and policy.
    pub fn spec(&self) -> OffloadSpec {
        self.spec
    }

    /// The victim-ranking policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.spec.policy
    }

    /// Eviction rank for `hash` under the current policy and predictions.
    pub fn rank_for(&self, hash: u64) -> Rank {
        match self.spec.policy {
            EvictionPolicy::Lru => 0,
            policy => rank(policy, self.records.get(&hash).and_then(|r| r.pred())),
        }
    }

    /// Which tier holds `hash`, if any.
    pub fn tier_of(&self, hash: u64) -> Option<Tier> {
        self.records.get(&hash)?.slot().map(|(tier, ..)| tier)
    }

    /// Blocks currently resident in the host tier.
    pub fn host_resident(&self) -> usize {
        self.host.order.len()
    }

    /// Blocks currently resident in the NVMe tier.
    pub fn nvme_resident(&self) -> usize {
        self.nvme.order.len()
    }

    /// Spills an HBM-evicted block's content into the hierarchy,
    /// cascading host → NVMe → dropped. Records the transfers and updates
    /// `stats` (demote counters, occupancy peaks, drops).
    pub fn demote(&mut self, hash: u64, stats: &mut KvStats) {
        debug_assert!(
            self.tier_of(hash).is_none(),
            "demoting {hash:#x} which is already offloaded"
        );
        if self.host.capacity > 0 {
            if self.host_resident() as u32 >= self.host.capacity {
                let (_, _, victim) = self
                    .host
                    .order
                    .pop(live_in(&self.records, Tier::Host))
                    .expect("full tier has a victim");
                self.spill_to_nvme(victim, stats);
            }
            self.place(hash, Tier::Host);
            self.events.push(TierTransfer {
                tier: Tier::Host,
                dir: TierDir::Demote,
                blocks: 1,
            });
            stats.demoted_blocks_host += 1;
            stats.host_peak_blocks = stats.host_peak_blocks.max(self.host_resident() as u64);
        } else {
            self.spill_to_nvme(hash, stats);
        }
    }

    /// Host-tier overflow (or a demote with no host tier) landing on NVMe.
    fn spill_to_nvme(&mut self, hash: u64, stats: &mut KvStats) {
        if self.nvme.capacity == 0 {
            // Nowhere left to spill. Content that was resident in a tier
            // counts as dropped; with both tiers at zero capacity nothing
            // was ever resident, so nothing is counted and the hierarchy
            // is a no-op.
            if self.host.capacity > 0 {
                stats.offload_dropped_blocks += 1;
            }
            self.forget(hash);
            return;
        }
        if self.nvme_resident() as u32 >= self.nvme.capacity {
            let (_, _, victim) = self
                .nvme
                .order
                .pop(live_in(&self.records, Tier::Nvme))
                .expect("full tier has a victim");
            stats.offload_dropped_blocks += 1;
            self.forget(victim);
        }
        self.place(hash, Tier::Nvme);
        self.events.push(TierTransfer {
            tier: Tier::Nvme,
            dir: TierDir::Demote,
            blocks: 1,
        });
        stats.demoted_blocks_nvme += 1;
        stats.nvme_peak_blocks = stats.nvme_peak_blocks.max(self.nvme_resident() as u64);
    }

    /// Keys `hash` into `tier` under a fresh stamp and the rank its
    /// prediction gives, updating its record in place (a host victim
    /// moving down to NVMe keeps its prediction).
    fn place(&mut self, hash: u64, tier: Tier) {
        self.stamp += 1;
        let stamp = self.stamp;
        let record = self.records.entry(hash).or_default();
        let rank = rank(self.spec.policy, record.pred());
        record.set_slot(Some((tier, rank, stamp)));
        self.order_mut(tier).0.push((rank, stamp, hash));
    }

    /// Drops everything known about `hash`: dropped content takes its
    /// prediction with it.
    fn forget(&mut self, hash: u64) {
        if self
            .records
            .remove(&hash)
            .is_some_and(|r| r.pred().is_some())
        {
            self.preds -= 1;
        }
    }

    /// `tier`'s eviction order, beside the records its liveness reads.
    fn order_mut(&mut self, tier: Tier) -> (&mut EvictionHeap<u64>, &KeyMap<Record>) {
        let state = match tier {
            Tier::Host => &mut self.host,
            Tier::Nvme => &mut self.nvme,
        };
        (&mut state.order, &self.records)
    }

    /// Marks `tier`'s key for a hash stale once its record no longer
    /// holds it.
    fn invalidate(&mut self, tier: Tier) {
        let (order, records) = self.order_mut(tier);
        order.invalidate(live_in(records, tier));
    }

    /// Removes `hash` from whichever tier holds it, returning the tier,
    /// and keeps its prediction. Used to invalidate a stale copy when the
    /// same content is recomputed fresh in HBM — keeping every hash
    /// resident in exactly one place.
    pub fn take(&mut self, hash: u64) -> Option<Tier> {
        let Entry::Occupied(mut entry) = self.records.entry(hash) else {
            return None;
        };
        let (tier, ..) = entry.get_mut().set_slot(None)?;
        if entry.get().pred().is_none() {
            entry.remove();
        }
        self.invalidate(tier);
        Some(tier)
    }

    /// Removes `hash` from whichever tier holds it, returning the tier,
    /// and clears its prediction: a promotion, whose predicted invocation
    /// has happened. Clears the prediction even when no tier holds it.
    pub fn take_and_clear(&mut self, hash: u64) -> Option<Tier> {
        let record = self.records.remove(&hash)?;
        if record.pred().is_some() {
            self.preds -= 1;
        }
        let (tier, ..) = record.slot()?;
        self.invalidate(tier);
        Some(tier)
    }

    /// Records a coalesced promotion transfer of `blocks` from `tier`.
    pub fn record_promote(&mut self, tier: Tier, blocks: u32, stats: &mut KvStats) {
        if blocks == 0 {
            return;
        }
        self.events.push(TierTransfer {
            tier,
            dir: TierDir::Promote,
            blocks,
        });
        match tier {
            Tier::Host => stats.promoted_blocks_host += blocks as u64,
            Tier::Nvme => stats.promoted_blocks_nvme += blocks as u64,
        }
    }

    /// Sets the predicted next-invocation time for `hash`, re-keys its
    /// offloaded copy (if any) under the rank that gives, and returns
    /// that rank (what [`Self::rank_for`] now reports). The manager
    /// re-keys an HBM-resident copy itself — it owns that order.
    pub fn predict(&mut self, hash: u64, at: SimTime) -> Rank {
        let at = at.as_micros();
        let rank = rank(self.spec.policy, Some(at));
        let record = self.records.entry(hash).or_default();
        if record.set_pred(Some(at)).is_none() {
            self.preds += 1;
        }
        if let Some((tier, old, stamp)) = record.slot() {
            if old != rank {
                record.set_slot(Some((tier, rank, stamp)));
                self.order_mut(tier).0.push((rank, stamp, hash));
                self.invalidate(tier);
            }
        }
        rank
    }

    /// Clears the prediction for `hash` — its invocation has happened.
    /// Without this, an ended session's last hint would keep its blocks
    /// looking imminently useful forever.
    pub fn clear_pred(&mut self, hash: u64) {
        if let Entry::Occupied(mut entry) = self.records.entry(hash) {
            if entry.get_mut().set_pred(None).is_some() {
                self.preds -= 1;
                if entry.get().slot().is_none() {
                    entry.remove();
                }
            }
        }
    }

    /// Drops predictions that expired before `now`, once more hashes hold
    /// one than twice the tier working set plus 1024. The outcome depends
    /// only on map contents and `now`, never on iteration order, so it is
    /// deterministic.
    pub fn prune_pred(&mut self, now: SimTime) {
        let watermark = 2 * (self.spec.host_blocks + self.spec.nvme_blocks) as usize + 1024;
        if self.preds > watermark {
            let now_us = now.as_micros();
            let mut preds = 0;
            self.records.retain(|_, r| {
                let pred = r.pred().filter(|&at| at >= now_us);
                r.set_pred(pred);
                preds += usize::from(r.pred().is_some());
                r.pred().is_some() || r.slot().is_some()
            });
            self.preds = preds;
        }
    }

    /// Drains the transfers recorded since the last call, in order.
    pub fn take_transfers(&mut self, out: &mut Vec<TierTransfer>) {
        out.append(&mut self.events);
    }

    /// Internal-consistency check, composed into
    /// [`crate::KvBlockManager::check_invariants`]: capacities respected,
    /// each tier's live keys are exactly its records' slots, no record is
    /// empty, and the prediction count matches the records.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut host, mut nvme, mut preds) = (0, 0, 0);
        for (&hash, r) in &self.records {
            match r.slot() {
                Some((Tier::Host, ..)) => host += 1,
                Some((Tier::Nvme, ..)) => nvme += 1,
                None if r.pred().is_none() => {
                    return Err(format!("hash {hash:#x} has an empty record"));
                }
                None => {}
            }
            preds += usize::from(r.pred().is_some());
        }
        if preds != self.preds {
            return Err(format!("{preds} predictions counted as {}", self.preds));
        }
        for (tier, state, slots) in [
            (Tier::Host, &self.host, host),
            (Tier::Nvme, &self.nvme, nvme),
        ] {
            if slots as u32 > state.capacity {
                return Err(format!(
                    "{} tier holds {slots} blocks over capacity {}",
                    tier.name(),
                    state.capacity
                ));
            }
            // A live key is its hash's slot, so the live keys are the
            // slots exactly when they are as many.
            let live = state.order.live_keys(live_in(&self.records, tier)).len();
            if live != slots || state.order.len() != slots {
                return Err(format!(
                    "{} tier order has {live} live keys (counted {}) for {slots} slots",
                    tier.name(),
                    state.order.len(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(host: u32, nvme: u32, policy: EvictionPolicy) -> OffloadSpec {
        OffloadSpec {
            host_blocks: host,
            nvme_blocks: nvme,
            policy,
        }
    }

    /// Evicts the host tier's victim as a full tier would, without the
    /// cascade.
    fn pop_host(h: &mut MemoryHierarchy) -> Option<u64> {
        let (_, _, hash) = h.host.order.pop(live_in(&h.records, Tier::Host))?;
        h.forget(hash);
        Some(hash)
    }

    fn demote_n(h: &mut MemoryHierarchy, stats: &mut KvStats, hashes: &[u64]) {
        for &hash in hashes {
            h.demote(hash, stats);
            h.check_invariants().unwrap();
        }
    }

    #[test]
    fn record_keeps_prediction_and_slot_apart() {
        let mut r = Record::default();
        assert_eq!((r.pred(), r.slot()), (None, None));
        assert_eq!(r.set_pred(Some(u64::MAX)), None);
        let slot = (Tier::Nvme, u64::MAX, (1 << 61) - 1);
        assert_eq!(r.set_slot(Some(slot)), None);
        assert_eq!((r.pred(), r.slot()), (Some(u64::MAX), Some(slot)));
        assert_eq!(r.set_pred(None), Some(u64::MAX));
        assert_eq!(r.slot(), Some(slot));
        r.set_pred(Some(0));
        assert_eq!(r.set_slot(Some((Tier::Host, 0, 1))), Some(slot));
        assert_eq!(r.set_slot(None), Some((Tier::Host, 0, 1)));
        assert_eq!((r.pred(), r.slot()), (Some(0), None));
    }

    #[test]
    fn demote_cascades_host_to_nvme_to_dropped() {
        let mut h = MemoryHierarchy::new(spec(2, 2, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2, 3, 4, 5]);
        // Host keeps the 2 newest, NVMe the 2 pushed down, 1 fell off.
        assert_eq!(h.host_resident(), 2);
        assert_eq!(h.nvme_resident(), 2);
        assert_eq!(h.tier_of(4), Some(Tier::Host));
        assert_eq!(h.tier_of(5), Some(Tier::Host));
        assert_eq!(h.tier_of(2), Some(Tier::Nvme));
        assert_eq!(h.tier_of(3), Some(Tier::Nvme));
        assert_eq!(h.tier_of(1), None, "oldest dropped off nvme");
        assert_eq!(stats.demoted_blocks_host, 5);
        assert_eq!(stats.demoted_blocks_nvme, 3);
        assert_eq!(stats.offload_dropped_blocks, 1);
        assert_eq!(stats.host_peak_blocks, 2);
        assert_eq!(stats.nvme_peak_blocks, 2);
    }

    #[test]
    fn zero_capacity_hierarchy_is_a_no_op() {
        let mut h = MemoryHierarchy::new(spec(0, 0, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2, 3]);
        assert_eq!(h.host_resident(), 0);
        assert_eq!(h.nvme_resident(), 0);
        let mut out = Vec::new();
        h.take_transfers(&mut out);
        assert!(out.is_empty());
        assert_eq!(stats.demoted_blocks_host, 0);
        assert_eq!(stats.offload_dropped_blocks, 0);
    }

    #[test]
    fn host_only_hierarchy_drops_overflow() {
        let mut h = MemoryHierarchy::new(spec(1, 0, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]);
        assert_eq!(h.tier_of(2), Some(Tier::Host));
        assert_eq!(h.tier_of(1), None);
        assert_eq!(stats.offload_dropped_blocks, 1);
    }

    #[test]
    fn take_removes_from_either_tier() {
        let mut h = MemoryHierarchy::new(spec(1, 1, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]); // 1 spills to nvme, 2 in host
        assert_eq!(h.take(2), Some(Tier::Host));
        assert_eq!(h.take(1), Some(Tier::Nvme));
        assert_eq!(h.take(3), None);
        assert_eq!(h.host_resident() + h.nvme_resident(), 0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn lru_victims_leave_in_insertion_order() {
        let mut h = MemoryHierarchy::new(spec(4, 0, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[10, 20, 30, 40]);
        assert_eq!(pop_host(&mut h), Some(10));
        assert_eq!(pop_host(&mut h), Some(20));
        assert_eq!(pop_host(&mut h), Some(30));
        assert_eq!(pop_host(&mut h), Some(40));
    }

    #[test]
    fn invocation_distance_evicts_farthest_first_and_unhinted_last() {
        let mut h = MemoryHierarchy::new(spec(4, 0, EvictionPolicy::InvocationDistance));
        let mut stats = KvStats::default();
        h.predict(20, SimTime::from_micros(5_000)); // returns soon
        h.predict(30, SimTime::from_micros(9_000_000)); // returns much later
        demote_n(&mut h, &mut stats, &[10, 20, 30, 40]);
        // Farthest prediction (30) goes first, then the imminent 20.
        // Unhinted 10 and 40 are assumed imminently reusable: out last,
        // in insertion order among themselves.
        assert_eq!(pop_host(&mut h), Some(30));
        assert_eq!(pop_host(&mut h), Some(20));
        assert_eq!(pop_host(&mut h), Some(10));
        assert_eq!(pop_host(&mut h), Some(40));
    }

    #[test]
    fn late_hint_rekeys_resident_entries() {
        let mut h = MemoryHierarchy::new(spec(2, 0, EvictionPolicy::InvocationDistance));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]);
        // Both unhinted: 1 (older) would go first. A hint that 2 returns
        // far in the future re-keys it ahead of 1 in the victim order.
        h.predict(2, SimTime::from_micros(9_000_000));
        h.check_invariants().unwrap();
        h.demote(3, &mut stats);
        assert_eq!(h.tier_of(1), Some(Tier::Host));
        assert_eq!(h.tier_of(2), None);
        h.check_invariants().unwrap();
    }

    #[test]
    fn hints_are_inert_under_lru() {
        let mut h = MemoryHierarchy::new(spec(2, 0, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]);
        h.predict(1, SimTime::from_micros(100));
        h.demote(3, &mut stats);
        // LRU ignores the hint: 1 is still the oldest and still the victim.
        assert_eq!(h.tier_of(1), None);
        assert_eq!(h.tier_of(2), Some(Tier::Host));
    }

    #[test]
    fn cleared_prediction_reverts_to_unhinted() {
        let mut h = MemoryHierarchy::new(spec(8, 0, EvictionPolicy::InvocationDistance));
        h.predict(7, SimTime::from_micros(42));
        assert_eq!(h.rank_for(7), u64::MAX - 42);
        h.clear_pred(7);
        assert_eq!(h.rank_for(7), u64::MAX, "unhinted is assumed imminent");
    }

    #[test]
    fn transfers_drain_in_occurrence_order() {
        let mut h = MemoryHierarchy::new(spec(1, 1, EvictionPolicy::Lru));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]);
        h.record_promote(Tier::Host, 3, &mut stats);
        let mut out = Vec::new();
        h.take_transfers(&mut out);
        assert_eq!(
            out,
            vec![
                TierTransfer {
                    tier: Tier::Host,
                    dir: TierDir::Demote,
                    blocks: 1
                },
                TierTransfer {
                    tier: Tier::Nvme,
                    dir: TierDir::Demote,
                    blocks: 1
                },
                TierTransfer {
                    tier: Tier::Host,
                    dir: TierDir::Demote,
                    blocks: 1
                },
                TierTransfer {
                    tier: Tier::Host,
                    dir: TierDir::Promote,
                    blocks: 3
                },
            ]
        );
        h.take_transfers(&mut out);
        assert_eq!(out.len(), 4, "a drain empties the queue");
        assert_eq!(stats.promoted_blocks_host, 3);
    }

    #[test]
    fn prune_drops_only_expired_predictions() {
        let mut h = MemoryHierarchy::new(spec(0, 0, EvictionPolicy::InvocationDistance));
        // Fill past the watermark (2*(0+0)+1024).
        for i in 0..2000u64 {
            h.predict(i, SimTime::from_micros(i));
        }
        h.prune_pred(SimTime::from_micros(1_500));
        assert_eq!(h.rank_for(100), u64::MAX, "expired prediction pruned");
        assert_eq!(
            h.rank_for(1_900),
            u64::MAX - 1_900,
            "future prediction kept"
        );
    }
}
