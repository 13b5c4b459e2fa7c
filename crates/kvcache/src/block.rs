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
pub(crate) enum BlockState {
    /// On the free list (or never handed out).
    Free = 0,
    /// Referenced by at least one live sequence.
    Active = 1,
    /// Unreferenced but kept resident for prefix reuse (evictable).
    Cached = 2,
}

/// `flags` bits 0–1: the [`BlockState`].
const STATE_MASK: u8 = 0b0011;
/// `flags` bit: the prefix table maps the chain hash to this block.
const REGISTERED: u8 = 0b0100;
/// `flags` bit: `hash` holds the block's chain hash.
const HASHED: u8 = 0b1000;

/// Metadata for one physical block: its lifecycle, prefix-cache and
/// recency state in one 24-byte record. The eviction rank lives beside
/// the records, and only under invocation-distance eviction (it is zero
/// under LRU).
#[derive(Debug, Clone)]
pub(crate) struct BlockMeta {
    /// Chain hash, meaningful while the `HASHED` flag is set (the block
    /// is full and eligible for prefix reuse).
    hash: u64,
    /// Last-use tick, unique per touch: the recency part of the block's
    /// eviction key.
    pub(crate) tick: u64,
    /// Live references from sequences.
    pub(crate) ref_count: u32,
    /// State, `REGISTERED` and `HASHED`.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<BlockMeta>() == 24);

impl BlockMeta {
    /// A brand-new free block.
    pub(crate) const fn free() -> Self {
        BlockMeta {
            hash: 0,
            tick: 0,
            ref_count: 0,
            flags: BlockState::Free as u8,
        }
    }

    /// Current lifecycle state.
    pub(crate) fn state(&self) -> BlockState {
        match self.flags & STATE_MASK {
            0 => BlockState::Free,
            1 => BlockState::Active,
            _ => BlockState::Cached,
        }
    }

    pub(crate) fn set_state(&mut self, state: BlockState) {
        self.flags = (self.flags & !STATE_MASK) | state as u8;
    }

    /// Chain hash once the block is full.
    pub(crate) fn chain_hash(&self) -> Option<u64> {
        (self.flags & HASHED != 0).then_some(self.hash)
    }

    pub(crate) fn set_chain_hash(&mut self, hash: u64) {
        self.hash = hash;
        self.flags |= HASHED;
    }

    /// Back to [`BlockState::Free`], unhashed and unregistered; the tick
    /// stays.
    pub(crate) fn release(&mut self) {
        self.flags = BlockState::Free as u8;
    }

    /// Whether the prefix table maps `chain_hash` to this block. A block
    /// whose content another block already registered stays unregistered.
    pub(crate) fn registered(&self) -> bool {
        self.flags & REGISTERED != 0
    }

    pub(crate) fn set_registered(&mut self, registered: bool) {
        if registered {
            self.flags |= REGISTERED;
        } else {
            self.flags &= !REGISTERED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_free_and_unreferenced() {
        let b = BlockMeta::free();
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.ref_count, 0);
        assert!(b.chain_hash().is_none());
        assert!(!b.registered());
    }

    #[test]
    fn flags_pack_independently() {
        let mut b = BlockMeta::free();
        b.set_chain_hash(0);
        b.set_registered(true);
        for state in [BlockState::Active, BlockState::Cached, BlockState::Free] {
            b.set_state(state);
            assert_eq!(b.state(), state);
            assert_eq!(b.chain_hash(), Some(0), "a zero hash is still a hash");
            assert!(b.registered());
        }
        b.set_registered(false);
        assert!(!b.registered());
        assert_eq!((b.state(), b.chain_hash()), (BlockState::Free, Some(0)));
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
