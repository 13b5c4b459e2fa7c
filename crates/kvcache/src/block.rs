//! Block identifiers and per-block metadata.

use std::fmt;

/// Index of a physical KV block in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Lifecycle state of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// On the free list.
    Free,
    /// Referenced by at least one live sequence.
    Active,
    /// Unreferenced but kept resident for prefix reuse (evictable).
    Cached,
}

/// Metadata for one physical block: its lifecycle, prefix-cache and
/// eviction state in one record.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Current lifecycle state.
    pub state: BlockState,
    /// Live references from sequences.
    pub ref_count: u32,
    /// Chain hash once the block is full (eligible for prefix reuse).
    pub chain_hash: Option<u64>,
    /// Whether the prefix cache maps `chain_hash` to this block. A block
    /// whose content another block already registered stays unregistered.
    pub registered: bool,
    /// Last-use tick, unique per touch: the recency part of the block's
    /// eviction key.
    pub tick: u64,
    /// Eviction rank as currently keyed while [`BlockState::Cached`]
    /// (always zero under plain LRU).
    pub rank: u64,
}

impl BlockMeta {
    /// A brand-new free block.
    pub fn free() -> Self {
        BlockMeta {
            state: BlockState::Free,
            ref_count: 0,
            chain_hash: None,
            registered: false,
            tick: 0,
            rank: 0,
        }
    }
}

impl Default for BlockMeta {
    fn default() -> Self {
        BlockMeta::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_free_and_unreferenced() {
        let b = BlockMeta::free();
        assert_eq!(b.state, BlockState::Free);
        assert_eq!(b.ref_count, 0);
        assert!(b.chain_hash.is_none());
        assert!(!b.registered);
    }

    #[test]
    fn block_id_displays() {
        assert_eq!(BlockId(7).to_string(), "blk#7");
    }

    #[test]
    fn block_ids_order_by_index() {
        assert!(BlockId(1) < BlockId(2));
    }
}
