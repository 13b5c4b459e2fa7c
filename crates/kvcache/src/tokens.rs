//! Content-identified token streams.
//!
//! The simulator never stores text. A token is an opaque `u64` *content id*
//! derived deterministically from a segment seed and position, so two
//! prompts built from the same segments produce identical token streams —
//! which is exactly what prefix caching needs to detect sharing.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::hash::{Hash, Hasher};

use agentsim_simkit::rng::splitmix64;

use crate::hash::{chain_hash, CHAIN_ROOT};

/// An opaque token content id.
pub type Token = u64;

/// Memoized chain hashes of the stream's leading full blocks.
///
/// Token streams are append-only (except [`TokenBuf::truncate`]), so block
/// hashes computed once stay valid for the stream's whole life: appends
/// only ever add *new* full blocks behind the ones already hashed. The
/// cache is filled lazily by [`TokenBuf::chain_hashes_cached`] and extended
/// incrementally from the last cached hash, making repeated hashing of a
/// growing stream O(new tokens) instead of O(total tokens).
#[derive(Debug, Clone)]
struct HashCache {
    block_size: usize,
    hashes: Vec<u64>,
}

/// An owned, growable token stream.
///
/// Prompts are assembled by concatenating *segments* (instruction blocks,
/// few-shot examples, user queries, tool responses). Each segment is a pure
/// function of its seed, so equal segments yield equal token runs.
///
/// # Example
///
/// ```
/// use agentsim_kvcache::TokenBuf;
///
/// let mut prompt = TokenBuf::new();
/// prompt.push_segment(0xFEED, 8);   // instruction
/// prompt.push_segment(0xBEEF, 4);   // user query
/// assert_eq!(prompt.len(), 12);
///
/// let same = {
///     let mut p = TokenBuf::new();
///     p.push_segment(0xFEED, 8);
///     p.push_segment(0xBEEF, 4);
///     p
/// };
/// assert_eq!(prompt, same);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenBuf {
    tokens: Vec<Token>,
    /// Lazily filled block-hash prefix cache; identity is `tokens` alone
    /// (equality/hashing ignore it, `Clone` carries it along).
    hash_cache: RefCell<Option<HashCache>>,
}

impl TokenBuf {
    /// Creates an empty stream.
    pub fn new() -> Self {
        TokenBuf::default()
    }

    /// Creates an empty stream with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TokenBuf {
            tokens: Vec::with_capacity(capacity),
            hash_cache: RefCell::new(None),
        }
    }

    /// Creates a stream holding one whole segment.
    pub fn from_segment(seed: u64, len: u32) -> Self {
        let mut buf = TokenBuf::with_capacity(len as usize);
        buf.push_segment(seed, len);
        buf
    }

    /// A copy, hash memo included, with room for `additional` more tokens
    /// so that appending them does not copy the stream again.
    pub fn clone_reserving(&self, additional: usize) -> Self {
        let mut tokens = Vec::with_capacity(self.tokens.len() + additional);
        tokens.extend_from_slice(&self.tokens);
        TokenBuf {
            tokens,
            hash_cache: self.hash_cache.clone(),
        }
    }

    /// Appends `len` tokens of the segment identified by `seed`.
    pub fn push_segment(&mut self, seed: u64, len: u32) {
        self.tokens
            .extend((0..len as u64).map(|i| segment_token(seed, i)));
    }

    /// Appends a single freshly generated token (decode output); the token
    /// id is derived from `(seed, index)` so re-runs are reproducible.
    pub fn push_generated(&mut self, seed: u64, index: u64) {
        self.tokens.push(generated_token(seed, index));
    }

    /// Appends all tokens of another stream.
    pub fn push_buf(&mut self, other: &TokenBuf) {
        self.tokens.extend_from_slice(&other.tokens);
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The raw token ids.
    pub fn as_slice(&self) -> &[Token] {
        &self.tokens
    }

    /// Iterates over token ids.
    pub fn iter(&self) -> std::slice::Iter<'_, Token> {
        self.tokens.iter()
    }

    /// Truncates to the first `len` tokens (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.tokens.truncate(len);
        // Hashes of surviving full blocks stay valid; drop the rest.
        if let Some(cache) = self.hash_cache.get_mut() {
            cache.hashes.truncate(len / cache.block_size);
        }
    }

    /// Leading full blocks whose chain hashes are memoized at
    /// `block_size` (zero if the memo is empty or at another size).
    pub fn memoized_blocks(&self, block_size: usize) -> usize {
        self.hash_cache
            .borrow()
            .as_ref()
            .filter(|c| c.block_size == block_size)
            .map_or(0, |c| c.hashes.len())
    }

    /// The chain hashes of every leading *full* block, memoized.
    ///
    /// Equivalent to [`crate::hash::chain_hashes`]`(self.as_slice(),
    /// block_size)` but O(tokens appended since the last call) instead of
    /// O(all tokens): the cache persists across calls (and across
    /// `Clone`) and is extended incrementally from the last cached hash.
    /// Switching `block_size` between calls discards and rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn chain_hashes_cached(&self, block_size: usize) -> Ref<'_, [u64]> {
        assert!(block_size > 0, "block size must be positive");
        let want = self.tokens.len() / block_size;
        let fresh = self
            .hash_cache
            .borrow()
            .as_ref()
            .is_some_and(|c| c.block_size == block_size && c.hashes.len() == want);
        if !fresh {
            let mut slot = self.hash_cache.borrow_mut();
            let cache = match slot.as_mut() {
                Some(c) if c.block_size == block_size => c,
                _ => slot.insert(HashCache {
                    block_size,
                    hashes: Vec::with_capacity(want),
                }),
            };
            let mut parent = cache.hashes.last().copied().unwrap_or(CHAIN_ROOT);
            for block in cache.hashes.len()..want {
                parent = chain_hash(
                    parent,
                    &self.tokens[block * block_size..(block + 1) * block_size],
                );
                cache.hashes.push(parent);
            }
        }
        Ref::map(self.hash_cache.borrow(), |c| {
            c.as_ref().map_or(&[][..], |i| i.hashes.as_slice())
        })
    }
}

// Equality, ordering and hashing are defined by the token stream alone;
// the memoized hash cache is derived state.
impl PartialEq for TokenBuf {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens
    }
}

impl Eq for TokenBuf {}

impl Hash for TokenBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tokens.hash(state);
    }
}

impl Extend<Token> for TokenBuf {
    fn extend<I: IntoIterator<Item = Token>>(&mut self, iter: I) {
        self.tokens.extend(iter);
    }
}

impl FromIterator<Token> for TokenBuf {
    fn from_iter<I: IntoIterator<Item = Token>>(iter: I) -> Self {
        TokenBuf::from(iter.into_iter().collect::<Vec<Token>>())
    }
}

impl From<Vec<Token>> for TokenBuf {
    fn from(tokens: Vec<Token>) -> Self {
        TokenBuf {
            tokens,
            hash_cache: RefCell::new(None),
        }
    }
}

impl AsRef<[Token]> for TokenBuf {
    fn as_ref(&self) -> &[Token] {
        &self.tokens
    }
}

impl fmt::Display for TokenBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenBuf[{} tokens]", self.tokens.len())
    }
}

/// The `i`-th token of the segment identified by `seed`.
pub fn segment_token(seed: u64, i: u64) -> Token {
    splitmix64(splitmix64(seed) ^ i)
}

/// The `i`-th *generated* (decode-output) token for generation stream
/// `seed`. Used by both the engine (as it appends KV entries during
/// decode) and the agents (as they replay the same output into the next
/// call's prompt), so history blocks hash identically across calls.
pub fn generated_token(seed: u64, i: u64) -> Token {
    segment_token(seed ^ 0xD1CE, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_deterministic() {
        let a = TokenBuf::from_segment(42, 100);
        let b = TokenBuf::from_segment(42, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TokenBuf::from_segment(1, 32);
        let b = TokenBuf::from_segment(2, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn concatenation_preserves_prefix() {
        let mut a = TokenBuf::from_segment(7, 20);
        let prefix = a.clone();
        a.push_segment(8, 10);
        assert_eq!(&a.as_slice()[..20], prefix.as_slice());
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn generated_tokens_are_reproducible_but_fresh() {
        let mut a = TokenBuf::new();
        a.push_generated(5, 0);
        a.push_generated(5, 1);
        let mut b = TokenBuf::new();
        b.push_generated(5, 0);
        b.push_generated(5, 1);
        assert_eq!(a, b);
        assert_ne!(a.as_slice()[0], a.as_slice()[1]);
        // Generated tokens differ from segment tokens of the same seed.
        assert_ne!(a.as_slice()[0], segment_token(5, 0));
    }

    #[test]
    fn push_buf_and_collect() {
        let a = TokenBuf::from_segment(1, 4);
        let mut b = TokenBuf::new();
        b.push_buf(&a);
        b.push_buf(&a);
        assert_eq!(b.len(), 8);
        let c: TokenBuf = a.iter().copied().collect();
        assert_eq!(c, a);
    }

    #[test]
    fn clone_reserving_keeps_tokens_and_memo() {
        let a = TokenBuf::from_segment(3, 40);
        a.chain_hashes_cached(16);
        let mut b = a.clone_reserving(8);
        assert_eq!(b, a);
        assert_eq!(b.memoized_blocks(16), 2);
        assert!(b.tokens.capacity() >= 48);
        let ptr = b.tokens.as_ptr();
        for i in 0..8 {
            b.push_generated(9, i);
        }
        assert_eq!(b.tokens.as_ptr(), ptr, "appends fit the reserved room");
    }

    #[test]
    fn truncate_shortens() {
        let mut a = TokenBuf::from_segment(1, 10);
        a.truncate(4);
        assert_eq!(a.len(), 4);
        a.truncate(100);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn display_reports_length() {
        assert_eq!(
            TokenBuf::from_segment(1, 3).to_string(),
            "TokenBuf[3 tokens]"
        );
    }
}
