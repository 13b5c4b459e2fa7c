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

use agentsim_simkit::SimTime;

use crate::hash::KeyMap;
use crate::heap::EvictionHeap;
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

/// One tier's content set, ordered for eviction.
#[derive(Debug, Default)]
struct TierState {
    capacity: u32,
    /// chain hash -> (rank, stamp) as currently keyed in `order`.
    entries: KeyMap<(Rank, u64)>,
    /// (rank, stamp, hash): the minimum is the next victim. Stamps are
    /// unique per insertion, so ties resolve FIFO and deterministically.
    /// A key is live while `entries` maps its hash to its rank and stamp.
    order: EvictionHeap<u64>,
}

/// Whether `key` is its hash's current entry in `entries`.
fn live_in(entries: &KeyMap<(Rank, u64)>) -> impl Fn(&(Rank, u64, u64)) -> bool + '_ {
    |&(rank, stamp, hash)| entries.get(&hash) == Some(&(rank, stamp))
}

impl TierState {
    fn insert(&mut self, hash: u64, rank: Rank, stamp: u64) {
        let prev = self.entries.insert(hash, (rank, stamp));
        debug_assert!(prev.is_none(), "hash {hash:#x} already in tier");
        self.order.push((rank, stamp, hash));
    }

    fn remove(&mut self, hash: u64) -> bool {
        let removed = self.entries.remove(&hash).is_some();
        if removed {
            self.order.invalidate(live_in(&self.entries));
        }
        removed
    }

    /// Removes and returns the lowest-ranked entry's hash.
    fn pop_victim(&mut self) -> Option<u64> {
        let (_, _, hash) = self.order.pop(live_in(&self.entries))?;
        self.entries.remove(&hash);
        Some(hash)
    }

    /// Re-keys `hash` under `rank` if this tier holds it; returns whether
    /// it does.
    fn rekey(&mut self, hash: u64, rank: Rank) -> bool {
        let Some(&(old_rank, stamp)) = self.entries.get(&hash) else {
            return false;
        };
        if old_rank != rank {
            self.entries.insert(hash, (rank, stamp));
            self.order.push((rank, stamp, hash));
            self.order.invalidate(live_in(&self.entries));
        }
        true
    }

    fn len(&self) -> usize {
        self.entries.len()
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
    /// chain hash -> predicted next-invocation time (absolute micros),
    /// fed by the session layer via hints.
    pred: KeyMap<u64>,
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
            pred: KeyMap::default(),
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
            EvictionPolicy::InvocationDistance => {
                self.pred.get(&hash).map_or(u64::MAX, |&at| u64::MAX - at)
            }
        }
    }

    /// Which tier holds `hash`, if any.
    pub fn tier_of(&self, hash: u64) -> Option<Tier> {
        if self.host.entries.contains_key(&hash) {
            Some(Tier::Host)
        } else if self.nvme.entries.contains_key(&hash) {
            Some(Tier::Nvme)
        } else {
            None
        }
    }

    /// Blocks currently resident in the host tier.
    pub fn host_resident(&self) -> usize {
        self.host.len()
    }

    /// Blocks currently resident in the NVMe tier.
    pub fn nvme_resident(&self) -> usize {
        self.nvme.len()
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
            if self.host.len() as u32 >= self.host.capacity {
                let victim = self.host.pop_victim().expect("full tier has a victim");
                self.spill_to_nvme(victim, stats);
            }
            let (rank, stamp) = self.fresh_key(hash);
            self.host.insert(hash, rank, stamp);
            self.events.push(TierTransfer {
                tier: Tier::Host,
                dir: TierDir::Demote,
                blocks: 1,
            });
            stats.demoted_blocks_host += 1;
            stats.host_peak_blocks = stats.host_peak_blocks.max(self.host.len() as u64);
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
            self.pred.remove(&hash);
            return;
        }
        if self.nvme.len() as u32 >= self.nvme.capacity {
            let victim = self.nvme.pop_victim().expect("full tier has a victim");
            stats.offload_dropped_blocks += 1;
            self.pred.remove(&victim);
        }
        let (rank, stamp) = self.fresh_key(hash);
        self.nvme.insert(hash, rank, stamp);
        self.events.push(TierTransfer {
            tier: Tier::Nvme,
            dir: TierDir::Demote,
            blocks: 1,
        });
        stats.demoted_blocks_nvme += 1;
        stats.nvme_peak_blocks = stats.nvme_peak_blocks.max(self.nvme.len() as u64);
    }

    /// Removes `hash` from whichever tier holds it, returning the tier.
    /// Used both for promotion (the caller records the transfer) and to
    /// invalidate a stale copy when the same content is recomputed fresh
    /// in HBM — keeping every hash resident in exactly one place.
    pub fn take(&mut self, hash: u64) -> Option<Tier> {
        if self.host.remove(hash) {
            Some(Tier::Host)
        } else if self.nvme.remove(hash) {
            Some(Tier::Nvme)
        } else {
            None
        }
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

    /// Sets the predicted next-invocation time for `hash` and re-ranks it
    /// wherever it is offloaded. (The manager re-ranks HBM-resident copies
    /// itself — it owns that order.)
    pub fn hint(&mut self, hash: u64, at: SimTime) {
        let rank = self.predict(hash, at);
        self.rekey(hash, rank);
    }

    /// Sets the predicted next-invocation time for `hash` and returns the
    /// rank that gives it (what [`Self::rank_for`] now reports), without
    /// re-ranking any copy.
    pub fn predict(&mut self, hash: u64, at: SimTime) -> Rank {
        let at = at.as_micros();
        self.pred.insert(hash, at);
        match self.spec.policy {
            EvictionPolicy::Lru => 0,
            EvictionPolicy::InvocationDistance => u64::MAX - at,
        }
    }

    /// Re-keys `hash` under `rank` in whichever tier holds it; a no-op
    /// when no tier does.
    pub fn rekey(&mut self, hash: u64, rank: Rank) {
        if !self.host.rekey(hash, rank) {
            self.nvme.rekey(hash, rank);
        }
    }

    /// Clears the prediction for `hash` — its invocation has happened.
    /// Without this, an ended session's last hint would keep its blocks
    /// looking imminently useful forever.
    pub fn clear_pred(&mut self, hash: u64) {
        self.pred.remove(&hash);
    }

    /// Drops predictions that expired before `now`, once the map outgrows
    /// the tier working set. The outcome depends only on map contents and
    /// `now`, never on iteration order, so it is deterministic.
    pub fn prune_pred(&mut self, now: SimTime) {
        let watermark = 2 * (self.spec.host_blocks + self.spec.nvme_blocks) as usize + 1024;
        if self.pred.len() > watermark {
            let now_us = now.as_micros();
            self.pred.retain(|_, &mut at| at >= now_us);
        }
    }

    /// Drains the transfers recorded since the last call, in order.
    pub fn take_transfers(&mut self, out: &mut Vec<TierTransfer>) {
        out.append(&mut self.events);
    }

    /// Whether any transfers are pending drain.
    pub fn has_transfers(&self) -> bool {
        !self.events.is_empty()
    }

    fn fresh_key(&mut self, hash: u64) -> (Rank, u64) {
        self.stamp += 1;
        (self.rank_for(hash), self.stamp)
    }

    /// Internal-consistency check, composed into
    /// [`crate::KvBlockManager::check_invariants`]: capacities respected,
    /// each entry has exactly one live key in its tier's order heap, and
    /// no hash in two tiers.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (tier, state) in [(Tier::Host, &self.host), (Tier::Nvme, &self.nvme)] {
            if state.len() as u32 > state.capacity {
                return Err(format!(
                    "{} tier holds {} blocks over capacity {}",
                    tier.name(),
                    state.len(),
                    state.capacity
                ));
            }
            let live = state.order.live_keys(live_in(&state.entries));
            if live.len() != state.entries.len() || state.order.len() != live.len() {
                return Err(format!(
                    "{} tier order heap has {} live keys (counted {}) for {} entries",
                    tier.name(),
                    live.len(),
                    state.order.len(),
                    state.entries.len()
                ));
            }
        }
        for hash in self.host.entries.keys() {
            if self.nvme.entries.contains_key(hash) {
                return Err(format!("hash {hash:#x} resident in both host and nvme"));
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

    fn demote_n(h: &mut MemoryHierarchy, stats: &mut KvStats, hashes: &[u64]) {
        for &hash in hashes {
            h.demote(hash, stats);
            h.check_invariants().unwrap();
        }
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
        assert!(!h.has_transfers());
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
        assert_eq!(h.host.pop_victim(), Some(10));
        assert_eq!(h.host.pop_victim(), Some(20));
        assert_eq!(h.host.pop_victim(), Some(30));
        assert_eq!(h.host.pop_victim(), Some(40));
    }

    #[test]
    fn invocation_distance_evicts_farthest_first_and_unhinted_last() {
        let mut h = MemoryHierarchy::new(spec(4, 0, EvictionPolicy::InvocationDistance));
        let mut stats = KvStats::default();
        h.hint(20, SimTime::from_micros(5_000)); // returns soon
        h.hint(30, SimTime::from_micros(9_000_000)); // returns much later
        demote_n(&mut h, &mut stats, &[10, 20, 30, 40]);
        // Farthest prediction (30) goes first, then the imminent 20.
        // Unhinted 10 and 40 are assumed imminently reusable: out last,
        // in insertion order among themselves.
        assert_eq!(h.host.pop_victim(), Some(30));
        assert_eq!(h.host.pop_victim(), Some(20));
        assert_eq!(h.host.pop_victim(), Some(10));
        assert_eq!(h.host.pop_victim(), Some(40));
    }

    #[test]
    fn late_hint_rekeys_resident_entries() {
        let mut h = MemoryHierarchy::new(spec(2, 0, EvictionPolicy::InvocationDistance));
        let mut stats = KvStats::default();
        demote_n(&mut h, &mut stats, &[1, 2]);
        // Both unhinted: 1 (older) would go first. A hint that 2 returns
        // far in the future re-keys it ahead of 1 in the victim order.
        h.hint(2, SimTime::from_micros(9_000_000));
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
        h.hint(1, SimTime::from_micros(100));
        h.demote(3, &mut stats);
        // LRU ignores the hint: 1 is still the oldest and still the victim.
        assert_eq!(h.tier_of(1), None);
        assert_eq!(h.tier_of(2), Some(Tier::Host));
    }

    #[test]
    fn cleared_prediction_reverts_to_unhinted() {
        let mut h = MemoryHierarchy::new(spec(8, 0, EvictionPolicy::InvocationDistance));
        h.hint(7, SimTime::from_micros(42));
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
        assert!(!h.has_transfers());
        assert_eq!(stats.promoted_blocks_host, 3);
    }

    #[test]
    fn prune_drops_only_expired_predictions() {
        let mut h = MemoryHierarchy::new(spec(0, 0, EvictionPolicy::InvocationDistance));
        // Fill past the watermark (2*(0+0)+1024).
        for i in 0..2000u64 {
            h.hint(i, SimTime::from_micros(i));
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
