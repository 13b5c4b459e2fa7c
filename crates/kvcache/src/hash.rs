//! Chain hashing of token blocks (vLLM-style prefix keys).
//!
//! A full block's identity is the hash of *all tokens from the start of the
//! sequence through the end of that block* — computed incrementally as
//! `hash(parent_chain_hash, block_tokens)`. Two sequences share a cached
//! block if and only if they agree on the entire prefix up to it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use agentsim_simkit::rng::splitmix64;

use crate::tokens::Token;

/// Seed for the first block in a chain (no parent).
pub const CHAIN_ROOT: u64 = 0x005E_ED0F_C4A1;

/// A map keyed by a chain hash or a sequence id, hashed with [`KeyHasher`].
pub(crate) type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// One-multiply hasher for keys the simulator makes itself. Chain hashes
/// are already splitmix64 output and sequence ids count up, so a single
/// odd multiply spreads both over the table; no key comes from outside
/// the program, so SipHash's collision resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes one full block of tokens given the parent chain hash. Over a
/// partial block it gives the running state that later tokens of that
/// block fold into.
pub fn chain_hash(parent: u64, block_tokens: &[Token]) -> u64 {
    block_tokens
        .iter()
        .fold(chain_start(parent), |h, &t| chain_step(h, t))
}

/// The running state of a block's chain hash before its first token.
/// Folding a block's tokens into it with [`chain_step`] yields
/// [`chain_hash`]`(parent, block)`, so a growing sequence can hash its
/// tail block one token at a time without keeping the tokens.
pub(crate) fn chain_start(parent: u64) -> u64 {
    splitmix64(parent ^ 0xB10C)
}

/// Folds one more token into a block's running chain-hash state.
pub(crate) fn chain_step(state: u64, token: Token) -> u64 {
    splitmix64(state ^ token)
}

/// Computes the chain hashes of every *full* block in a token stream.
///
/// The trailing partial block (if any) has no hash — it cannot be shared.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn chain_hashes(tokens: &[Token], block_size: usize) -> Vec<u64> {
    assert!(block_size > 0, "block size must be positive");
    let mut hashes = Vec::with_capacity(tokens.len() / block_size);
    let mut parent = CHAIN_ROOT;
    for chunk in tokens.chunks_exact(block_size) {
        parent = chain_hash(parent, chunk);
        hashes.push(parent);
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_prefixes_share_hashes() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b.extend(100..116);
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        assert_eq!(ha.len(), 4);
        assert_eq!(hb.len(), 5);
        assert_eq!(&hb[..4], &ha[..]);
    }

    #[test]
    fn divergence_breaks_all_later_hashes() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b[0] = 999; // first token differs
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        for (x, y) in ha.iter().zip(&hb) {
            assert_ne!(x, y, "chain must diverge from the first block on");
        }
    }

    #[test]
    fn mid_sequence_divergence_keeps_earlier_blocks() {
        let a: Vec<Token> = (0..64).collect();
        let mut b = a.clone();
        b[40] = 999; // diverges inside block 2
        let ha = chain_hashes(&a, 16);
        let hb = chain_hashes(&b, 16);
        assert_eq!(ha[0], hb[0]);
        assert_eq!(ha[1], hb[1]);
        assert_ne!(ha[2], hb[2]);
        assert_ne!(ha[3], hb[3]);
    }

    #[test]
    fn partial_blocks_are_not_hashed() {
        let tokens: Vec<Token> = (0..20).collect();
        assert_eq!(chain_hashes(&tokens, 16).len(), 1);
        assert_eq!(chain_hashes(&tokens[..15], 16).len(), 0);
    }

    #[test]
    fn running_state_matches_the_block_hash() {
        let block: Vec<Token> = (0..16).map(|t| t * 7 + 3).collect();
        let state = block.iter().fold(chain_start(42), |h, &t| chain_step(h, t));
        assert_eq!(state, chain_hash(42, &block));
        assert_eq!(chain_start(42), chain_hash(42, &[]));
    }

    #[test]
    fn hash_depends_on_parent() {
        let block: Vec<Token> = (0..16).collect();
        assert_ne!(chain_hash(1, &block), chain_hash(2, &block));
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = chain_hashes(&[1, 2, 3], 0);
    }
}
