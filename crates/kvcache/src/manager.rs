//! The paged KV block manager.
//!
//! Models vLLM's block allocator with automatic prefix caching: sequences
//! own block tables; full blocks are chain-hashed and registered in a
//! prefix cache; unreferenced hashed blocks stay resident (evictable, LRU)
//! until memory pressure reclaims them.
//!
//! The pool grows with use: construction does no per-block work, and a
//! block's record is created when its id is first handed out. Recycled
//! ids come first (last freed, first reused), then never-used ids in
//! ascending order, then eviction, so ids are handed out in the order a
//! pool whose free list started full would hand them out.

use std::fmt;

use agentsim_simkit::SimTime;

use crate::block::{BlockId, BlockMeta, BlockState};
use crate::hash::{chain_start, chain_step, CHAIN_ROOT};
use crate::heap::{EvictionHeap, Key};
use crate::hierarchy::{EvictionPolicy, MemoryHierarchy, OffloadSpec, Tier, TierTransfer};
use crate::prefix::PrefixTable;
use crate::stats::KvStats;
use crate::tokens::{Token, TokenBuf};

/// Tokens per KV block unless an engine asks for another size (vLLM's
/// default). Agent contexts memoize their chain hashes at this size.
pub const DEFAULT_BLOCK_SIZE: u32 = 16;

/// Sizing and policy of the KV pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Total physical blocks in the pool.
    pub num_blocks: u32,
    /// Tokens per block (see [`DEFAULT_BLOCK_SIZE`]).
    pub block_size: u32,
    /// Whether automatic prefix caching is enabled.
    pub prefix_caching: bool,
}

impl KvConfig {
    /// Blocks needed to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_size as usize)
    }
}

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free or evictable blocks.
    Insufficient {
        /// Fresh blocks the request needed.
        needed: usize,
        /// Free + evictable blocks available.
        available: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Insufficient { needed, available } => write!(
                f,
                "insufficient KV blocks: needed {needed}, available {available}"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// A live sequence's block table, owned by the caller from
/// [`KvBlockManager::allocate`] (or [`KvBlockManager::import`]) until it
/// is handed back to [`KvBlockManager::free`] (or
/// [`KvBlockManager::export`]). Dropping it instead leaks its blocks,
/// and [`KvBlockManager::live_sequences`] keeps counting it. It is
/// neither `Clone` nor `Copy`, so a released sequence cannot be read or
/// released again:
///
/// ```compile_fail,E0382
/// use agentsim_kvcache::{KvBlockManager, KvConfig, TokenBuf};
/// use agentsim_simkit::SimTime;
///
/// let mut mgr = KvBlockManager::new(KvConfig { num_blocks: 4, block_size: 16, prefix_caching: true });
/// let seq = mgr.allocate(&TokenBuf::from_segment(1, 16), SimTime::ZERO).unwrap();
/// mgr.free(seq, SimTime::ZERO);
/// let _ = seq.cached_tokens(); // error[E0382]: borrow of moved value: `seq`
/// ```
#[derive(Debug)]
pub struct Seq {
    blocks: Vec<BlockId>,
    len: usize,
    cached_tokens: usize,
    /// Running chain-hash state of the trailing block: [`chain_start`] of
    /// the last full block's hash, folded with the tail's tokens so far.
    /// When the tail fills, this *is* its chain hash.
    tail_state: u64,
}

impl Seq {
    /// Prompt tokens that were served from the prefix cache (or promoted
    /// from an offload tier).
    pub fn cached_tokens(&self) -> usize {
        self.cached_tokens
    }
}

/// The paged KV-cache block manager. See the [crate docs](crate) for an
/// overview and example.
#[derive(Debug)]
pub struct KvBlockManager {
    config: KvConfig,
    /// One record per block handed out so far: lifecycle, prefix-cache
    /// ownership and last-use tick. Ids at and above its length have
    /// never been used and count as free.
    metas: Vec<BlockMeta>,
    /// Each block's eviction rank, beside `metas`, only under
    /// [`EvictionPolicy::InvocationDistance`]; every rank is zero
    /// otherwise.
    ranks: Option<Vec<u64>>,
    /// Freed ids, reused last in, first out before any never-used id.
    free: Vec<BlockId>,
    /// chain hash -> resident block holding that content; that block's
    /// `registered` flag is set.
    cache: PrefixTable,
    /// Evictable blocks keyed (rank, last-use tick, block): the minimum
    /// is the next victim. Rank is zero without an offload hierarchy (or
    /// under its LRU baseline), making the order exactly LRU. A key is
    /// live while its block is `Cached` under that rank and tick.
    evictable: EvictionHeap<BlockId>,
    /// Sequences admitted and not yet freed or exported.
    live: usize,
    tick: u64,
    /// Blocks currently in [`BlockState::Active`], maintained at every
    /// state transition so usage tracking never scans the pool.
    active: usize,
    /// Offload tiers below HBM; eviction demotes into them and admission
    /// promotes back out. `None` keeps the classic evict-and-forget pool.
    hierarchy: Option<MemoryHierarchy>,
    stats: KvStats,
}

impl KvBlockManager {
    /// Creates a pool per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` or `block_size` is zero.
    pub fn new(config: KvConfig) -> Self {
        assert!(config.num_blocks > 0, "pool must have at least one block");
        assert!(config.block_size > 0, "block size must be positive");
        KvBlockManager {
            config,
            metas: Vec::with_capacity(config.num_blocks as usize),
            ranks: None,
            free: Vec::new(),
            cache: PrefixTable::default(),
            evictable: EvictionHeap::default(),
            live: 0,
            tick: 0,
            active: 0,
            hierarchy: None,
            stats: KvStats::default(),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> KvConfig {
        self.config
    }

    /// Attaches offload tiers below HBM. Must be called before any
    /// traffic, and requires prefix caching — tier content is identified
    /// by chain hash, exactly like the prefix cache.
    ///
    /// # Panics
    ///
    /// Panics if sequences were already admitted or prefix caching is off.
    pub fn enable_offload(&mut self, spec: OffloadSpec) {
        assert!(
            self.stats.sequences == 0,
            "offload tiers must be configured before any traffic"
        );
        assert!(
            self.config.prefix_caching,
            "KV offload requires prefix caching (tier content is chain-hashed)"
        );
        if spec.policy == EvictionPolicy::InvocationDistance {
            let mut ranks = Vec::with_capacity(self.config.num_blocks as usize);
            ranks.resize(self.metas.len(), 0);
            self.ranks = Some(ranks);
        }
        self.hierarchy = Some(MemoryHierarchy::new(spec));
    }

    /// The offload hierarchy, if one is attached.
    pub fn hierarchy(&self) -> Option<&MemoryHierarchy> {
        self.hierarchy.as_ref()
    }

    /// Drains tier transfers recorded since the last call (in occurrence
    /// order) into `out`, for the engine to price through its links.
    pub fn take_tier_transfers(&mut self, out: &mut Vec<TierTransfer>) {
        if let Some(h) = &mut self.hierarchy {
            h.take_transfers(out);
        }
    }

    /// Whether `key` is `id`'s current eviction key (see `evictable`).
    fn live_key<'a>(
        metas: &'a [BlockMeta],
        ranks: &'a Option<Vec<u64>>,
    ) -> impl Fn(&Key<BlockId>) -> bool + 'a {
        move |&(rank, tick, id)| {
            let m = &metas[id.0 as usize];
            m.state() == BlockState::Cached
                && m.tick == tick
                && ranks.as_ref().map_or(0, |r| r[id.0 as usize]) == rank
        }
    }

    /// Reads a registered block's chain hash, confirming a prefix-table
    /// hit.
    fn key_of(metas: &[BlockMeta]) -> impl Fn(BlockId) -> u64 + '_ {
        |id| {
            metas[id.0 as usize]
                .chain_hash()
                .expect("a registered block is hashed")
        }
    }

    /// Admits a sequence with the given prompt, reusing cached prefix
    /// blocks where possible.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] if the pool cannot hold the
    /// non-cached portion even after evicting every evictable block.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn allocate(&mut self, tokens: &TokenBuf, now: SimTime) -> Result<Seq, AllocError> {
        self.admit(tokens, now, false)
    }

    /// Admits a sequence whose KV content was computed elsewhere and
    /// transferred in (disaggregated serving). Blocks are allocated and
    /// hashed exactly as [`Self::allocate`] would — resident blocks with
    /// matching content are shared rather than duplicated — but the tokens
    /// are accounted as *imported*, not as prefix-cache hits or misses,
    /// because no local prefill compute is implied either way.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] like [`Self::allocate`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn import(&mut self, tokens: &TokenBuf, now: SimTime) -> Result<Seq, AllocError> {
        self.admit(tokens, now, true)
    }

    /// Releases a sequence whose KV is migrating to another pool, counting
    /// its tokens as exported. Returns the sequence length in tokens (the
    /// KV footprint being shipped). Block disposal is identical to
    /// [`Self::free`].
    pub fn export(&mut self, seq: Seq, now: SimTime) -> usize {
        let len = seq.len;
        self.stats.exported_tokens += len as u64;
        self.free(seq, now);
        len
    }

    fn admit(
        &mut self,
        tokens: &TokenBuf,
        now: SimTime,
        imported: bool,
    ) -> Result<Seq, AllocError> {
        assert!(!tokens.is_empty(), "cannot allocate an empty sequence");
        let bs = self.config.block_size as usize;
        let hashes = tokens.chain_hashes_cached(bs);
        let total = self.config.blocks_for(tokens.len());

        // The leading hit run, resolved once into the new block table.
        let mut blocks = Vec::with_capacity(total);
        if self.config.prefix_caching {
            let key_of = Self::key_of(&self.metas);
            blocks.extend(hashes.iter().map_while(|&h| self.cache.get(h, &key_of)));
        }
        let hits = blocks.len();
        // Cached hit blocks are revived, not evicted, so they do not count
        // as available for fresh allocation.
        let revivable = blocks
            .iter()
            .filter(|id| self.metas[id.0 as usize].state() == BlockState::Cached)
            .count();
        let available = self.free_blocks() + self.evictable.len();
        if total - hits > available - revivable {
            self.stats.rejections += 1;
            return Err(AllocError::Insufficient {
                needed: total - hits,
                available,
            });
        }

        // Revive / share cached prefix blocks.
        for &id in &blocks {
            if self.metas[id.0 as usize].state() == BlockState::Cached {
                self.metas[id.0 as usize].set_state(BlockState::Active);
                self.active += 1;
                self.evictable
                    .invalidate(Self::live_key(&self.metas, &self.ranks));
            }
            self.touch(id);
            self.metas[id.0 as usize].ref_count += 1;
        }

        // Where the HBM hit run ends, the offload tiers may continue it:
        // consecutive blocks resident in host/NVMe are *promoted* — they
        // still need fresh HBM blocks below, but their tokens skip
        // recompute and the transfer is priced by the engine instead.
        // Imports skip this: their KV arrives over the migration link.
        let mut promoted = 0usize;
        if !imported && self.config.prefix_caching {
            if let Some(hier) = &mut self.hierarchy {
                // Every prefix block touched by this admission has had its
                // predicted invocation happen; stale predictions would
                // keep an ended session's blocks looking hot forever. The
                // scan clears the predictions of the hashes it reaches,
                // the loop below those of the rest, all before the fresh
                // blocks: an eviction there can demote a later hash of
                // this prompt, ranked by its prediction.
                let (mut from_host, mut from_nvme) = (0u32, 0u32);
                for h in &hashes[hits..] {
                    match hier.take_and_clear(*h) {
                        Some(Tier::Host) => from_host += 1,
                        Some(Tier::Nvme) => from_nvme += 1,
                        None => break,
                    }
                    promoted += 1;
                }
                hier.record_promote(Tier::Host, from_host, &mut self.stats);
                hier.record_promote(Tier::Nvme, from_nvme, &mut self.stats);
                let scanned = (hits + promoted + 1).min(hashes.len());
                for h in hashes[..hits].iter().chain(&hashes[scanned..]) {
                    hier.clear_pred(*h);
                }
            }
        }

        // Fresh blocks for the remaining full blocks (hash known now — the
        // prefill computing them, or the promotion restoring them, makes
        // the content immediately shareable).
        for (k, h) in hashes[hits..].iter().enumerate() {
            let id = self.obtain_block()?;
            let meta = &mut self.metas[id.0 as usize];
            meta.set_state(BlockState::Active);
            meta.ref_count = 1;
            self.active += 1;
            if self.config.prefix_caching {
                meta.set_chain_hash(*h);
                meta.set_registered(true);
                // A resident block behind the hit run may hold this chain
                // already; the fresh block takes its registration over.
                if let Some(prev) = self.cache.insert(*h, id, Self::key_of(&self.metas)) {
                    self.metas[prev.0 as usize].set_registered(false);
                }
                // Recomputed content invalidates any stale offloaded copy:
                // a hash lives in exactly one place. The promotion scan
                // just took the leading `promoted` hashes, and nothing
                // here puts them back (eviction demotes only HBM-resident
                // hashes), so only the recomputed ones are probed.
                if k >= promoted {
                    if let Some(hier) = &mut self.hierarchy {
                        hier.take(*h);
                    }
                }
            }
            blocks.push(id);
        }

        // Trailing partial block, if any.
        let rem = tokens.len() % bs;
        if rem != 0 {
            let id = self.obtain_block()?;
            let meta = &mut self.metas[id.0 as usize];
            meta.set_state(BlockState::Active);
            meta.ref_count = 1;
            self.active += 1;
            blocks.push(id);
        }

        // A fully cached prompt still recomputes its final token so the
        // model has logits to sample from (vLLM behaviour). Promoted
        // blocks count as cached — their tokens skip recompute too.
        let cached_tokens = ((hits + promoted) * bs).min(tokens.len().saturating_sub(1));
        if imported {
            self.stats.imported_tokens += tokens.len() as u64;
        } else {
            let hbm_cached = (hits * bs).min(tokens.len().saturating_sub(1));
            self.stats.hit_tokens += cached_tokens as u64;
            self.stats.promoted_tokens += (cached_tokens - hbm_cached) as u64;
            self.stats.miss_tokens += (tokens.len() - cached_tokens) as u64;
        }
        self.stats.sequences += 1;

        // `chain_hash` over a partial block is the running state
        // `append_token` continues.
        let tail_state = tokens.ids_from(tokens.len() - rem).fold(
            chain_start(hashes.last().copied().unwrap_or(CHAIN_ROOT)),
            chain_step,
        );
        self.live += 1;
        self.note_usage(now);
        Ok(Seq {
            blocks,
            len: tokens.len(),
            cached_tokens,
            tail_state,
        })
    }

    /// Appends one generated token to a live sequence, growing its block
    /// table when a block boundary is crossed.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Insufficient`] if a new block is needed and
    /// none can be freed (the caller should preempt the sequence).
    pub fn append_token(
        &mut self,
        seq: &mut Seq,
        token: Token,
        now: SimTime,
    ) -> Result<(), AllocError> {
        let bs = self.config.block_size as usize;
        if seq.len.is_multiple_of(bs) {
            let id = self.obtain_block()?;
            let meta = &mut self.metas[id.0 as usize];
            meta.set_state(BlockState::Active);
            meta.ref_count = 1;
            self.active += 1;
            seq.blocks.push(id);
        }
        seq.tail_state = chain_step(seq.tail_state, token);
        seq.len += 1;

        // Did the tail block just fill? Then register its chain hash.
        if seq.len.is_multiple_of(bs) {
            let h = seq.tail_state;
            seq.tail_state = chain_start(h);
            let id = *seq.blocks.last().expect("tail block exists");
            if self.config.prefix_caching {
                self.metas[id.0 as usize].set_chain_hash(h);
                // Content collisions (another block already holds this
                // chain) keep the existing entry.
                if self
                    .cache
                    .insert_if_absent(h, id, Self::key_of(&self.metas))
                {
                    self.metas[id.0 as usize].set_registered(true);
                }
                // Freshly decoded content invalidates a stale offloaded
                // copy of the same chain.
                if let Some(hier) = &mut self.hierarchy {
                    hier.take(h);
                }
            }
        }
        self.note_usage(now);
        Ok(())
    }

    /// Releases a sequence. Hashed blocks stay resident (evictable) when
    /// prefix caching is on; everything else returns to the free list.
    pub fn free(&mut self, seq: Seq, now: SimTime) {
        self.live -= 1;
        for id in seq.blocks {
            let meta = &mut self.metas[id.0 as usize];
            assert!(meta.ref_count > 0, "double free of {id}");
            meta.ref_count -= 1;
            if meta.ref_count > 0 {
                continue;
            }
            self.active -= 1;
            // Only registered blocks (prefix caching on) stay resident.
            if meta.registered() {
                meta.set_state(BlockState::Cached);
                let hash = meta.chain_hash().expect("registered");
                let rank = match (&mut self.ranks, &self.hierarchy) {
                    (Some(ranks), Some(hier)) => {
                        ranks[id.0 as usize] = hier.rank_for(hash);
                        ranks[id.0 as usize]
                    }
                    _ => 0,
                };
                self.touch(id);
                self.evictable
                    .push((rank, self.metas[id.0 as usize].tick, id));
            } else {
                meta.release();
                self.free.push(id);
            }
        }
        self.note_usage(now);
    }

    /// Feeds the session layer's next-invocation prediction for a token
    /// chain: each of `hashes` (the chain hashes of a context that will be
    /// resubmitted) is expected back at `at`, predicted at time `now`.
    /// Re-ranks any HBM-evictable copy and any offloaded copy under
    /// [`EvictionPolicy::InvocationDistance`]; a no-op without a
    /// hierarchy or under the LRU baseline.
    pub fn hint_next_use(&mut self, hashes: &[u64], now: SimTime, at: SimTime) {
        // Ranks are kept only under invocation-distance eviction.
        let (Some(hier), Some(_)) = (&mut self.hierarchy, &self.ranks) else {
            return;
        };
        for &h in hashes {
            // `predict` re-keys an offloaded copy. A hash lives in exactly
            // one place, so one the prefix cache holds has no such copy.
            let rank = hier.predict(h, at);
            if let Some(id) = self.cache.get(h, Self::key_of(&self.metas)) {
                // Re-key a resident evictable copy under its new rank.
                let meta = &self.metas[id.0 as usize];
                let old = &mut self.ranks.as_mut().expect("ranked")[id.0 as usize];
                if meta.state() == BlockState::Cached && rank != *old {
                    *old = rank;
                    self.evictable.push((rank, meta.tick, id));
                    self.evictable
                        .invalidate(Self::live_key(&self.metas, &self.ranks));
                }
            }
        }
        hier.prune_pred(now);
    }

    /// Blocks referenced by live sequences.
    pub fn used_blocks(&self) -> usize {
        self.active
    }

    /// Free blocks: those on the free list and those never handed out.
    pub fn free_blocks(&self) -> usize {
        self.free.len() + self.config.num_blocks as usize - self.metas.len()
    }

    /// Unreferenced cached blocks (evictable).
    pub fn evictable_blocks(&self) -> usize {
        self.evictable.len()
    }

    /// Sequences admitted and not yet freed or exported. A [`Seq`]
    /// dropped without either still counts, so a leak shows here.
    pub fn live_sequences(&self) -> usize {
        self.live
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    fn obtain_block(&mut self) -> Result<BlockId, AllocError> {
        if let Some(id) = self.free.pop() {
            self.touch(id);
            return Ok(id);
        }
        if self.metas.len() < self.config.num_blocks as usize {
            let id = BlockId(self.metas.len() as u32);
            self.metas.push(BlockMeta::free());
            if let Some(ranks) = &mut self.ranks {
                ranks.push(0);
            }
            self.touch(id);
            return Ok(id);
        }
        // Evict the lowest-ranked cached block (exact LRU without an
        // offload hierarchy).
        let victim = self.evictable.pop(Self::live_key(&self.metas, &self.ranks));
        if let Some((_, _, id)) = victim {
            let meta = &mut self.metas[id.0 as usize];
            if meta.registered() {
                let h = meta.chain_hash().expect("registered");
                self.cache.remove(h, id);
                // Spill the evicted content down the hierarchy rather
                // than destroying it; the engine prices the copy as an
                // asynchronous transfer on the offload link.
                if let Some(hier) = &mut self.hierarchy {
                    hier.demote(h, &mut self.stats);
                }
            }
            *meta = BlockMeta::free();
            self.stats.evictions += 1;
            self.touch(id);
            return Ok(id);
        }
        Err(AllocError::Insufficient {
            needed: 1,
            available: 0,
        })
    }

    fn touch(&mut self, id: BlockId) {
        self.tick += 1;
        self.metas[id.0 as usize].tick = self.tick;
    }

    fn note_usage(&mut self, now: SimTime) {
        self.stats.used_blocks.set(now, self.active as u64);
    }

    /// Internal-consistency check used by tests: every block handed out is
    /// in exactly one of {free list, eviction order, active} (a `Cached`
    /// block by exactly one live key), refcounts match liveness, the
    /// prefix table is well formed and points at resident blocks holding
    /// its hashes, and a block is `registered` exactly when the table maps
    /// its chain hash to it.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.metas.len();
        if n > self.config.num_blocks as usize {
            return Err(format!(
                "{n} block records in a pool of {}",
                self.config.num_blocks
            ));
        }
        if let Some(ranks) = self.ranks.as_ref().filter(|r| r.len() != n) {
            return Err(format!("{} ranks for {n} block records", ranks.len()));
        }
        let mut seen = vec![0u8; n];
        for id in &self.free {
            let Some(meta) = self.metas.get(id.0 as usize) else {
                return Err(format!("{id} on free list but never handed out"));
            };
            seen[id.0 as usize] += 1;
            if meta.state() != BlockState::Free {
                return Err(format!("{id} on free list but not Free"));
            }
        }
        let live = self
            .evictable
            .live_keys(Self::live_key(&self.metas, &self.ranks));
        if live.len() != self.evictable.len() {
            return Err(format!(
                "{} live eviction keys for {} evictable blocks",
                live.len(),
                self.evictable.len()
            ));
        }
        for &(_, _, id) in &live {
            seen[id.0 as usize] += 1;
            if self.metas[id.0 as usize].ref_count != 0 {
                return Err(format!("{id} evictable with refs"));
            }
        }
        let key_of = Self::key_of(&self.metas);
        for (i, m) in self.metas.iter().enumerate() {
            let owner = m.chain_hash().and_then(|h| self.cache.get(h, &key_of));
            if m.registered() != (owner == Some(BlockId(i as u32))) {
                return Err(format!(
                    "blk#{i} registered {} but the cache maps its hash to {owner:?}",
                    m.registered()
                ));
            }
            match m.state() {
                BlockState::Active => {
                    if m.ref_count == 0 {
                        return Err(format!("blk#{i} active with zero refs"));
                    }
                    seen[i] += 1;
                }
                state @ (BlockState::Free | BlockState::Cached) => {
                    if m.ref_count != 0 {
                        return Err(format!("blk#{i} {state:?} with refs"));
                    }
                }
            }
        }
        if let Some(i) = seen.iter().position(|&c| c != 1) {
            return Err(format!("blk#{i} in {} places", seen[i]));
        }
        let active_scan = self
            .metas
            .iter()
            .filter(|m| m.state() == BlockState::Active)
            .count();
        if active_scan != self.active {
            return Err(format!(
                "active counter {} != scan {active_scan}",
                self.active
            ));
        }
        self.cache.check_invariants()?;
        for (tag, id) in self.cache.entries() {
            let Some(meta) = self.metas.get(id.0 as usize) else {
                return Err(format!("cache entry {tag:#x} points at unused {id}"));
            };
            if meta.chain_hash().map(|h| (h >> 32) as u32) != Some(tag) {
                return Err(format!(
                    "cache entry {tag:#x} points at {id} without that hash"
                ));
            }
            if !meta.registered() || meta.state() == BlockState::Free {
                return Err(format!("cache entry {tag:#x} points at {meta:?} {id}"));
            }
        }
        if let Some(hier) = &self.hierarchy {
            hier.check_invariants()?;
            // A chain hash lives in exactly one place: the HBM prefix
            // cache, the host tier, or the NVMe tier.
            for (_, id) in self.cache.entries() {
                let h = key_of(id);
                if let Some(tier) = hier.tier_of(h) {
                    return Err(format!(
                        "hash {h:#x} resident in HBM and the {} tier",
                        tier.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{chain_hash, chain_hashes};
    use crate::tokens::generated_token;

    fn mgr(blocks: u32, caching: bool) -> KvBlockManager {
        KvBlockManager::new(KvConfig {
            num_blocks: blocks,
            block_size: 16,
            prefix_caching: caching,
        })
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Leading blocks of `hashes` resident in HBM.
    fn count_hits(m: &KvBlockManager, hashes: &[u64]) -> usize {
        hashes
            .iter()
            .take_while(|&&h| m.cache.get(h, KvBlockManager::key_of(&m.metas)).is_some())
            .count()
    }

    #[test]
    fn cold_allocation_has_no_hits() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 48);
        let s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(s.cached_tokens(), 0);
        assert_eq!(m.used_blocks(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn freed_prefix_is_reused() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        assert_eq!(m.evictable_blocks(), 4);
        let s2 = m.allocate(&p, t(2)).unwrap();
        // 64 tokens = 4 full blocks, all cached; final token recomputed.
        assert_eq!(s2.cached_tokens(), 63);
        assert_eq!(m.free_blocks(), 12); // the same 4 blocks are revived
        m.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_sequences_share_active_prefix() {
        let mut m = mgr(16, true);
        let mut p1 = TokenBuf::from_segment(9, 32);
        p1.push_segment(100, 16);
        let mut p2 = TokenBuf::from_segment(9, 32);
        p2.push_segment(200, 16);
        let s1 = m.allocate(&p1, t(0)).unwrap();
        let s2 = m.allocate(&p2, t(1)).unwrap();
        // 2 shared prefix blocks + 2 distinct suffix blocks.
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(s2.cached_tokens(), 32);
        m.free(s1, t(2));
        m.free(s2, t(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefix_caching_off_never_hits() {
        let mut m = mgr(16, false);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        assert_eq!(m.evictable_blocks(), 0);
        assert_eq!(m.free_blocks(), 16);
        let s2 = m.allocate(&p, t(2)).unwrap();
        assert_eq!(s2.cached_tokens(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn eviction_reclaims_lru_blocks() {
        let mut m = mgr(8, true);
        let p1 = TokenBuf::from_segment(1, 64); // 4 blocks
        let s1 = m.allocate(&p1, t(0)).unwrap();
        m.free(s1, t(1));
        let p2 = TokenBuf::from_segment(2, 64);
        let s2 = m.allocate(&p2, t(2)).unwrap();
        m.free(s2, t(3));
        // Pool of 8 now holds 8 cached blocks; a third prompt evicts p1's.
        let p3 = TokenBuf::from_segment(3, 64);
        let _s3 = m.allocate(&p3, t(4)).unwrap();
        assert_eq!(m.stats().evictions, 4);
        // p1 no longer cached, p2 still is.
        let hashes1 = p1.chain_hashes_cached(16).to_vec();
        assert_eq!(count_hits(&m, &hashes1), 0);
        let hashes2 = p2.chain_hashes_cached(16).to_vec();
        assert_eq!(count_hits(&m, &hashes2), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn allocation_fails_when_pool_exhausted() {
        let mut m = mgr(4, true);
        let p1 = TokenBuf::from_segment(1, 64);
        let _s1 = m.allocate(&p1, t(0)).unwrap();
        let p2 = TokenBuf::from_segment(2, 16);
        let err = m.allocate(&p2, t(1)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(m.stats().rejections, 1);
        // A refused admission changes nothing, so a retry is refused (and
        // counted) again.
        assert_eq!(m.allocate(&p2, t(2)).unwrap_err(), err);
        assert_eq!(m.stats().rejections, 2);
        assert_eq!(m.used_blocks(), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_growth_allocates_blocks_and_registers_hashes() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 24); // 1 full + 1 partial
        let mut s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 2);

        // Grow by 8 tokens: fills the partial block (now hashed).
        let mut full = p.clone();
        full.push_segment(777, 8);
        for i in 0..8u64 {
            let tok = crate::tokens::segment_token(777, i);
            m.append_token(&mut s, tok, t(10 + i)).unwrap();
        }
        assert_eq!(s.len, 32);
        assert_eq!(m.used_blocks(), 2);
        m.free(s, t(100));

        // A new prompt with the same 32 tokens hits both blocks.
        let s2 = m.allocate(&full, t(101)).unwrap();
        assert_eq!(s2.cached_tokens(), 31);
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_crossing_boundary_takes_new_block() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        let mut s = m.allocate(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 1);
        m.append_token(&mut s, 123, t(1)).unwrap();
        assert_eq!(m.used_blocks(), 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn decode_oom_is_reported() {
        let mut m = mgr(1, true);
        let p = TokenBuf::from_segment(1, 16);
        let mut s = m.allocate(&p, t(0)).unwrap();
        let err = m.append_token(&mut s, 1, t(1)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut m = mgr(32, true);
        let p = TokenBuf::from_segment(1, 64);
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1));
        let _ = m.allocate(&p, t(2)).unwrap();
        let st = m.stats();
        assert_eq!(st.hit_tokens, 63);
        assert_eq!(st.miss_tokens, 64 + 1);
        assert!((st.hit_rate() - 63.0 / 128.0).abs() < 1e-12);
        assert_eq!(st.sequences, 2);
    }

    #[test]
    fn usage_tracker_sees_peak() {
        let mut m = mgr(32, true);
        let p = TokenBuf::from_segment(1, 160); // 10 blocks
        let s = m.allocate(&p, t(0)).unwrap();
        m.free(s, t(1_000_000));
        assert_eq!(m.stats().used_blocks.peak(), 10);
        let avg = m.stats().used_blocks.average(t(2_000_000));
        assert!((avg - 5.0).abs() < 0.1, "avg {avg}");
    }

    #[test]
    fn revived_block_not_counted_available() {
        // Pool 4; cached prompt occupies all 4 evictable. A new prompt
        // sharing 2 blocks + needing 2 fresh must succeed (evicting the
        // 2 non-shared), exercising the revive-vs-evict accounting.
        let mut m = mgr(4, true);
        let mut p1 = TokenBuf::from_segment(1, 32);
        p1.push_segment(2, 32);
        let s1 = m.allocate(&p1, t(0)).unwrap();
        m.free(s1, t(1));
        let mut p2 = TokenBuf::from_segment(1, 32);
        p2.push_segment(3, 32);
        let s2 = m.allocate(&p2, t(2)).unwrap();
        assert_eq!(s2.cached_tokens(), 32);
        assert_eq!(m.stats().evictions, 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn readmission_takes_over_a_stale_holders_registration() {
        let mut m = mgr(8, true);
        m.enable_offload(OffloadSpec {
            host_blocks: 8,
            nvme_blocks: 0,
            policy: EvictionPolicy::Lru,
        });
        let p = TokenBuf::from_segment(1, 48); // 3 full blocks
        let hashes = p.chain_hashes_cached(16).to_vec();
        let s = m.allocate(&p, t(0)).unwrap();
        let old = s.blocks.clone();
        m.free(s, t(1));
        // One-token sequences hold partial blocks, which free straight
        // back to the free list. Six of them drain the 5 free blocks and
        // evict only the prompt's least recent block, its first.
        let fillers: Vec<_> = (0..6)
            .map(|i| {
                m.allocate(&TokenBuf::from_segment(100 + i, 1), t(2))
                    .unwrap()
            })
            .collect();
        assert_eq!(m.stats().evictions, 1);
        for f in fillers {
            m.free(f, t(3));
        }
        // Re-admission misses HBM at block 1 (it promotes from host), so
        // blocks 2-3 land on fresh blocks too, which take the
        // registration over from the old holders.
        let s = m.allocate(&p, t(4)).unwrap();
        assert_eq!(s.cached_tokens(), 16);
        let new = s.blocks.clone();
        for k in 1..3 {
            let key_of = KvBlockManager::key_of(&m.metas);
            assert_eq!(m.cache.get(hashes[k], key_of), Some(new[k]));
            assert!(!m.metas[old[k].0 as usize].registered());
            assert_eq!(m.metas[old[k].0 as usize].state(), BlockState::Cached);
        }
        m.check_invariants().unwrap();
        // Evicting the old holders must neither drop nor demote the new
        // owners' content.
        let fillers: Vec<_> = (0..5)
            .map(|i| {
                m.allocate(&TokenBuf::from_segment(200 + i, 1), t(5))
                    .unwrap()
            })
            .collect();
        assert_eq!(m.stats().evictions, 3);
        assert_eq!(m.stats().demoted_blocks_host, 1, "only the first block");
        assert_eq!(count_hits(&m, &hashes), 3);
        m.check_invariants().unwrap();
        for f in fillers {
            m.free(f, t(6));
        }
        m.free(s, t(7));
        let again = m.allocate(&p, t(8)).unwrap();
        assert_eq!(again.cached_tokens(), 47);
        m.check_invariants().unwrap();
    }

    #[test]
    fn append_collision_leaves_the_copy_unregistered() {
        let mut m = mgr(16, true);
        let full = TokenBuf::from_segment(1, 16);
        let owner = m.allocate(&full, t(0)).unwrap();
        // A second sequence decodes the same 16 tokens into its own block.
        let mut copy = m.allocate(&TokenBuf::from_segment(1, 8), t(1)).unwrap();
        for i in 8..16 {
            let tok = crate::tokens::segment_token(1, i);
            m.append_token(&mut copy, tok, t(2)).unwrap();
        }
        let copy_block = copy.blocks[0];
        assert!(!m.metas[copy_block.0 as usize].registered());
        m.check_invariants().unwrap();
        m.free(copy, t(3));
        assert_eq!(m.metas[copy_block.0 as usize].state(), BlockState::Free);
        assert_eq!((m.free_blocks(), m.evictable_blocks()), (15, 0));
        m.free(owner, t(4));
        assert_eq!((m.free_blocks(), m.evictable_blocks()), (15, 1));
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_accounts_tokens_without_hits_or_misses() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 40); // 2 full + 1 partial block
        let s = m.import(&p, t(0)).unwrap();
        assert_eq!(m.used_blocks(), 3);
        assert_eq!(s.len, 40);
        let st = m.stats();
        assert_eq!(st.imported_tokens, 40);
        assert_eq!(st.hit_tokens, 0);
        assert_eq!(st.miss_tokens, 0);
        assert_eq!(st.sequences, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_shares_resident_blocks() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 64);
        let s1 = m.allocate(&p, t(0)).unwrap();
        // The same content imported concurrently shares the 4 full blocks
        // (only the partial-tail rule differs: 64 is block-aligned).
        let s2 = m.import(&p, t(1)).unwrap();
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(m.stats().imported_tokens, 64);
        m.free(s1, t(2));
        m.free(s2, t(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn export_counts_footprint_and_frees() {
        let mut m = mgr(16, true);
        let p = TokenBuf::from_segment(1, 48);
        let s = m.allocate(&p, t(0)).unwrap();
        let len = m.export(s, t(1));
        assert_eq!(len, 48);
        assert_eq!(m.stats().exported_tokens, 48);
        assert_eq!(m.live_sequences(), 0);
        // Hashed blocks stay evictable, exactly as `free` leaves them.
        assert_eq!(m.evictable_blocks(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn import_rejection_is_counted() {
        let mut m = mgr(2, true);
        let p = TokenBuf::from_segment(1, 64);
        let err = m.import(&p, t(0)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(m.stats().rejections, 1);
        assert_eq!(m.stats().imported_tokens, 0);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_prompt_panics() {
        let mut m = mgr(4, true);
        let _ = m.allocate(&TokenBuf::new(), t(0));
    }

    /// `m` as a constructor that wrote every record and a full free list
    /// would have built it.
    fn eager(mut m: KvBlockManager) -> KvBlockManager {
        let n = m.config.num_blocks;
        m.metas = vec![BlockMeta::free(); n as usize];
        m.free = (0..n).rev().map(BlockId).collect();
        if let Some(ranks) = &mut m.ranks {
            *ranks = vec![0; n as usize];
        }
        m
    }

    /// Drives a lazily grown pool and its eager twin through one seeded
    /// allocate/append/free/hint script, comparing every block table.
    /// Returns the lazy pool.
    fn lockstep(config: KvConfig, offload: Option<OffloadSpec>, seed: u64) -> KvBlockManager {
        let mut lazy = KvBlockManager::new(config);
        if let Some(spec) = offload {
            lazy.enable_offload(spec);
        }
        assert!(lazy.metas.is_empty(), "construction touches no block");
        let n = config.num_blocks as usize;
        assert_eq!(
            lazy.free_blocks() + lazy.evictable_blocks() + lazy.used_blocks(),
            n
        );
        let mut twin = KvBlockManager::new(config);
        if let Some(spec) = offload {
            twin.enable_offload(spec);
        }
        let mut twin = eager(twin);
        let mut live: Vec<(Seq, Seq, TokenBuf)> = Vec::new();
        let mut x = seed;
        for step in 0..2_000u64 {
            x = agentsim_simkit::rng::splitmix64(x);
            let now = t(step);
            match x % 8 {
                0..=2 => {
                    let prompt = TokenBuf::from_segment(x >> 8 & 7, 1 + (x >> 16) as u32 % 90);
                    match (lazy.allocate(&prompt, now), twin.allocate(&prompt, now)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.blocks, b.blocks, "step {step}: admission");
                            live.push((a, b, prompt));
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b),
                        (a, b) => panic!("step {step}: {a:?} vs {b:?}"),
                    }
                }
                3 | 4 if !live.is_empty() => {
                    let k = (x >> 8) as usize % live.len();
                    let (a, b, _) = &mut live[k];
                    for i in 0..(x >> 20) % 40 {
                        let token = generated_token(step, i);
                        let ra = lazy.append_token(a, token, now);
                        assert_eq!(ra, twin.append_token(b, token, now));
                        if ra.is_err() {
                            break;
                        }
                    }
                    assert_eq!(a.blocks, b.blocks, "step {step}: decode");
                }
                5 | 6 if !live.is_empty() => {
                    let (a, b, prompt) = live.swap_remove((x >> 8) as usize % live.len());
                    lazy.free(a, now);
                    twin.free(b, now);
                    let hashes = prompt.chain_hashes_cached(16).to_vec();
                    let at = t(step + (x >> 24) % 500);
                    lazy.hint_next_use(&hashes, now, at);
                    twin.hint_next_use(&hashes, now, at);
                }
                _ => {}
            }
            let counts = |m: &KvBlockManager| {
                (
                    m.free_blocks(),
                    m.evictable_blocks(),
                    m.used_blocks(),
                    m.stats().evictions,
                )
            };
            assert_eq!(counts(&lazy), counts(&twin), "step {step}");
            assert_eq!(
                lazy.free_blocks() + lazy.evictable_blocks() + lazy.used_blocks(),
                n
            );
            lazy.check_invariants().unwrap();
        }
        lazy
    }

    #[test]
    fn lazy_pool_hands_out_the_eager_pools_ids() {
        let config = |prefix_caching| KvConfig {
            num_blocks: 24,
            block_size: 16,
            prefix_caching,
        };
        let distance = OffloadSpec {
            host_blocks: 8,
            nvme_blocks: 4,
            policy: EvictionPolicy::InvocationDistance,
        };
        for seed in 0..8 {
            let m = lockstep(config(true), None, seed);
            assert!(m.stats().evictions > 0, "the script evicts");
            let m = lockstep(config(true), Some(distance), seed);
            assert!(m.stats().demoted_blocks_host > 0, "the script demotes");
            lockstep(config(false), None, seed);
        }
    }

    #[test]
    fn dropped_seq_still_counts_as_live() {
        let mut m = mgr(4, true);
        let p = TokenBuf::from_segment(1, 16);
        drop(m.allocate(&p, t(0)).unwrap());
        assert_eq!(m.live_sequences(), 1, "a leaked sequence stays visible");
        assert_eq!(m.used_blocks(), 1);
        let s = m.allocate(&p, t(1)).unwrap();
        m.free(s, t(2));
        assert_eq!(m.live_sequences(), 1);
    }

    mod offload {
        use super::*;
        use crate::hierarchy::{EvictionPolicy, OffloadSpec, Tier, TierDir, TierTransfer};

        fn tiered(blocks: u32, host: u32, nvme: u32, policy: EvictionPolicy) -> KvBlockManager {
            let mut m = mgr(blocks, true);
            m.enable_offload(OffloadSpec {
                host_blocks: host,
                nvme_blocks: nvme,
                policy,
            });
            m
        }

        #[test]
        fn eviction_demotes_instead_of_destroying() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64); // 4 blocks
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            // Pool full of cached blocks; p3 evicts p1's four into host.
            let p3 = TokenBuf::from_segment(3, 64);
            let _s3 = m.allocate(&p3, t(4)).unwrap();
            assert_eq!(m.stats().evictions, 4);
            assert_eq!(m.stats().demoted_blocks_host, 4);
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            m.check_invariants().unwrap();
        }

        #[test]
        fn offloaded_prefix_promotes_and_counts_as_cached() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 128); // 8 blocks: evicts all of p1
            let s2 = m.allocate(&p2, t(2)).unwrap();
            assert_eq!(m.stats().demoted_blocks_host, 4);
            m.free(s2, t(3));
            // p1 returns: its 4 blocks promote from host instead of
            // recomputing — same cached_tokens a pure HBM hit would give.
            let s1b = m.allocate(&p1, t(4)).unwrap();
            assert_eq!(s1b.cached_tokens(), 63);
            assert_eq!(m.stats().promoted_blocks_host, 4);
            assert_eq!(m.stats().promoted_tokens, 63);
            // p1's copies left the tier; the fresh blocks its readmission
            // needed evicted (and demoted) p2's four in turn.
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            // The transfer events carry both directions for the engine.
            let mut events = Vec::new();
            m.take_tier_transfers(&mut events);
            let promoted: u32 = events
                .iter()
                .filter(|e| e.dir == TierDir::Promote)
                .map(|e| e.blocks)
                .sum();
            assert_eq!(promoted, 4);
            m.check_invariants().unwrap();
        }

        #[test]
        fn promoted_tokens_are_a_subset_of_hits() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 128);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let _ = m.allocate(&p1, t(4)).unwrap();
            let st = m.stats();
            assert!(st.promoted_tokens <= st.hit_tokens);
            assert_eq!(st.hit_tokens + st.miss_tokens, 64 + 128 + 64);
        }

        #[test]
        fn zero_capacity_tiers_match_no_offload_exactly() {
            // The same op script against a plain pool and a zero-capacity
            // hierarchy: every observable (stats, block placement) agrees.
            let run = |m: &mut KvBlockManager| {
                let p1 = TokenBuf::from_segment(1, 64);
                let s1 = m.allocate(&p1, t(0)).unwrap();
                m.free(s1, t(1));
                let p2 = TokenBuf::from_segment(2, 128);
                let s2 = m.allocate(&p2, t(2)).unwrap();
                m.free(s2, t(3));
                let s3 = m.allocate(&p1, t(4)).unwrap();
                m.check_invariants().unwrap();
                (
                    s3.cached_tokens(),
                    m.stats().evictions,
                    m.stats().hit_tokens,
                    m.stats().miss_tokens,
                    m.free_blocks(),
                    m.evictable_blocks(),
                )
            };
            let mut plain = mgr(8, true);
            let mut zeroed = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            assert_eq!(run(&mut plain), run(&mut zeroed));
            let st = zeroed.stats();
            assert_eq!(st.demoted_blocks_host + st.demoted_blocks_nvme, 0);
            assert_eq!(st.offload_dropped_blocks, 0);
            let mut events = Vec::new();
            zeroed.take_tier_transfers(&mut events);
            assert!(events.is_empty(), "zero-capacity tiers record no transfers");
        }

        #[test]
        fn recomputed_chain_invalidates_stale_tier_copy() {
            let mut m = tiered(4, 8, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            // Evict everything into host...
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4);
            m.free(s2, t(3));
            // ...then readmit p1: the four blocks promote back, leaving
            // no duplicate copies behind.
            let _ = m.allocate(&p1, t(4)).unwrap();
            assert_eq!(m.hierarchy().unwrap().host_resident(), 4); // p2's, demoted in turn
            m.check_invariants().unwrap();
        }

        #[test]
        fn distance_hints_spill_the_farthest_context_first() {
            let mut m = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64); // 4 blocks, freed older
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64); // 4 blocks, freed newer
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            // p1 returns imminently, p2 only much later: a new prompt
            // evicts p2's blocks even though they are the younger ones
            // (LRU would have taken p1's).
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            let hashes2 = p2.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(4), t(1_000));
            m.hint_next_use(&hashes2, t(4), t(60_000_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            assert_eq!(count_hits(&m, &hashes1), 4, "imminent blocks survived");
            assert_eq!(count_hits(&m, &hashes2), 0, "far-future blocks evicted");
            m.check_invariants().unwrap();
        }

        #[test]
        fn unhinted_blocks_outrank_every_prediction() {
            // Unhinted content is assumed imminently reusable (a hot
            // shared prefix loses its prediction on every use), so even an
            // imminent hint spills before it.
            let mut m = tiered(8, 0, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64); // freed older, unhinted
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64); // freed newer, hinted
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            let hashes2 = p2.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes2, t(4), t(1_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            assert_eq!(count_hits(&m, &hashes1), 4, "unhinted blocks survived");
            assert_eq!(count_hits(&m, &hashes2), 0, "hinted blocks spilled");
            m.check_invariants().unwrap();
        }

        #[test]
        fn lru_ignores_hints_entirely() {
            let mut m = tiered(8, 0, 0, EvictionPolicy::Lru);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let p2 = TokenBuf::from_segment(2, 64);
            let s2 = m.allocate(&p2, t(2)).unwrap();
            m.free(s2, t(3));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(4), t(1_000));
            let p3 = TokenBuf::from_segment(3, 64);
            let _ = m.allocate(&p3, t(5)).unwrap();
            // Strict LRU: the older p1 blocks go first, hint or no hint.
            assert_eq!(count_hits(&m, &hashes1), 0);
            m.check_invariants().unwrap();
        }

        #[test]
        fn admission_clears_consumed_predictions() {
            let mut m = tiered(8, 8, 0, EvictionPolicy::InvocationDistance);
            let p1 = TokenBuf::from_segment(1, 64);
            let s1 = m.allocate(&p1, t(0)).unwrap();
            m.free(s1, t(1));
            let hashes1 = p1.chain_hashes_cached(16).to_vec();
            m.hint_next_use(&hashes1, t(2), t(10));
            // The predicted invocation happens; the hint must not outlive it.
            let s1b = m.allocate(&p1, t(10)).unwrap();
            m.free(s1b, t(11));
            for h in &hashes1 {
                assert_eq!(m.hierarchy().unwrap().rank_for(*h), u64::MAX);
            }
            m.check_invariants().unwrap();
        }

        #[test]
        fn demote_cascade_reaches_nvme_through_the_manager() {
            let mut m = tiered(4, 2, 2, EvictionPolicy::Lru);
            for seed in 1..=3u64 {
                let p = TokenBuf::from_segment(seed, 64);
                let s = m.allocate(&p, t(seed)).unwrap();
                m.free(s, t(seed * 10));
            }
            // Three 4-block prompts through a 4-block pool: 8 evictions,
            // host holds 2, nvme 2, the rest fell off the bottom.
            let st = m.stats();
            assert_eq!(st.evictions, 8);
            assert_eq!(m.hierarchy().unwrap().host_resident(), 2);
            assert_eq!(m.hierarchy().unwrap().nvme_resident(), 2);
            assert_eq!(st.offload_dropped_blocks, 4);
            assert_eq!(st.host_peak_blocks, 2);
            assert_eq!(st.nvme_peak_blocks, 2);
            m.check_invariants().unwrap();
            let mut events = Vec::new();
            m.take_tier_transfers(&mut events);
            assert!(events.contains(&TierTransfer {
                tier: Tier::Nvme,
                dir: TierDir::Demote,
                blocks: 1
            }));
        }

        #[test]
        #[should_panic(expected = "before any traffic")]
        fn late_offload_enable_rejected() {
            let mut m = mgr(8, true);
            let p = TokenBuf::from_segment(1, 16);
            let _ = m.allocate(&p, t(0)).unwrap();
            m.enable_offload(OffloadSpec {
                host_blocks: 4,
                nvme_blocks: 0,
                policy: EvictionPolicy::Lru,
            });
        }

        #[test]
        #[should_panic(expected = "requires prefix caching")]
        fn offload_without_prefix_caching_rejected() {
            let mut m = mgr(8, false);
            m.enable_offload(OffloadSpec {
                host_blocks: 4,
                nvme_blocks: 0,
                policy: EvictionPolicy::Lru,
            });
        }
    }

    mod per_token {
        use super::*;
        use proptest::prelude::*;

        /// A scripted operation; appended tokens come from one generation
        /// stream per prompt seed, so equal sequences decode equal blocks
        /// and the append path meets chains another block already holds.
        #[derive(Debug, Clone)]
        enum Op {
            Alloc { seed: u64, len: u32 },
            Append { k: usize, n: u8 },
            Free { k: usize },
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..4, 1u32..150).prop_map(|(seed, len)| Op::Alloc { seed, len }),
                (0usize..6, 1u8..80).prop_map(|(k, n)| Op::Append { k, n }),
                (0usize..6).prop_map(|k| Op::Free { k }),
            ]
        }

        /// A live sequence: its block table, every token it holds, the
        /// generation seed and how many tokens it has decoded.
        type Live = (Seq, TokenBuf, u64, u64);

        /// Every full block of `seq` carries the chain hash of its token
        /// stream, and the tail state is that stream's partial block
        /// folded onto the last full block's hash.
        fn check_seq(m: &KvBlockManager, (seq, tokens, _, _): &Live) -> Result<(), String> {
            let bs = m.config.block_size as usize;
            let ids: Vec<Token> = tokens.ids().collect();
            let want = chain_hashes(&ids, bs);
            if seq.len != tokens.len() || seq.blocks.len() != tokens.len().div_ceil(bs) {
                return Err(format!(
                    "{seq:?} holds the wrong number of tokens or blocks"
                ));
            }
            for (j, (id, hash)) in seq.blocks.iter().zip(&want).enumerate() {
                let meta = &m.metas[id.0 as usize];
                if meta.chain_hash() != Some(*hash) {
                    return Err(format!(
                        "{seq:?} block {j} ({id}) hashed {:?}",
                        meta.chain_hash()
                    ));
                }
            }
            let parent = want.last().copied().unwrap_or(CHAIN_ROOT);
            if seq.tail_state != chain_hash(parent, &ids[want.len() * bs..]) {
                return Err(format!("{seq:?} tail state diverged"));
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn appended_blocks_hash_the_prompt_then_the_output(
                block_size in prop::sample::select(vec![16u32, 32]),
                ops in prop::collection::vec(op(), 1..60),
            ) {
                let mut m = KvBlockManager::new(KvConfig {
                    num_blocks: 40,
                    block_size,
                    prefix_caching: true,
                });
                let mut live: Vec<Live> = Vec::new();
                for (step, op) in ops.iter().enumerate() {
                    let now = t(step as u64);
                    match *op {
                        Op::Alloc { seed, len } => {
                            let prompt = TokenBuf::from_segment(seed, len);
                            if let Ok(seq) = m.allocate(&prompt, now) {
                                live.push((seq, prompt, seed, 0));
                            }
                        }
                        Op::Append { k, n } if !live.is_empty() => {
                            let k = k % live.len();
                            let (seq, tokens, seed, out) = &mut live[k];
                            for _ in 0..n {
                                let token = generated_token(*seed, *out);
                                if m.append_token(seq, token, now).is_err() {
                                    break;
                                }
                                tokens.push_generated(*seed, *out);
                                *out += 1;
                            }
                        }
                        Op::Free { k } if !live.is_empty() => {
                            let (seq, ..) = live.swap_remove(k % live.len());
                            m.free(seq, now);
                        }
                        _ => {}
                    }
                    m.check_invariants().map_err(|e| format!("after {op:?}: {e}"))?;
                    for seq in &live {
                        check_seq(&m, seq).map_err(|e| format!("after {op:?}: {e}"))?;
                    }
                }
            }
        }
    }
}
