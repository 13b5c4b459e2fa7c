//! Content-identified token streams.
//!
//! The simulator never stores text. A token is an opaque `u64` *content id*
//! derived deterministically from a segment seed and position, so two
//! prompts built from the same segments produce identical token streams —
//! which is exactly what prefix caching needs to detect sharing.
//!
//! Nor does it store the ids. A stream is a list of *runs* `(base, first,
//! len)` whose `i`-th id is `splitmix64(base ^ (first + i))`: a segment
//! is one run (base `splitmix64(seed)`, first 0, see [`segment_token`]),
//! and a call's decode output is one run (base `splitmix64(seed ^
//! 0xD1CE)`, first the output index, see [`generated_token`]). An append
//! whose ids continue the last run extends it, so a stream holds one run
//! per segment or output, never one word per token, and a clone copies
//! only the runs and the chain-hash memo (one `u64` per block). Ids are
//! generated where something reads them: the memo, the KV manager's
//! partial tail block, and the id-by-id comparison behind `==` and
//! [`TokenBuf::common_prefix_len`] where two runs differ.

use std::cell::{Ref, RefCell};
use std::fmt;

use agentsim_simkit::rng::splitmix64;

use crate::hash::{chain_start, chain_step, CHAIN_ROOT};

/// An opaque token content id.
pub type Token = u64;

/// Salt separating a generation stream's ids from a segment's.
const GENERATED_SALT: u64 = 0xD1CE;

/// `len` consecutive ids of one id family: id `i` is
/// `splitmix64(base ^ (first + i))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    base: u64,
    first: u64,
    len: u64,
}

impl Run {
    fn id(&self, i: u64) -> Token {
        splitmix64(self.base ^ self.first.wrapping_add(i))
    }

    /// The run with its first `skip` ids dropped, unless none remain.
    fn rest(self, skip: u64) -> Option<Run> {
        (skip < self.len).then(|| Run {
            first: self.first.wrapping_add(skip),
            len: self.len - skip,
            ..self
        })
    }
}

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

/// An owned, growable token stream, held as runs of generated ids (see
/// the [module docs](self)).
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
    runs: Vec<Run>,
    len: usize,
    /// Lazily filled block-hash prefix cache; identity is the id stream
    /// alone (equality ignores it, `Clone` carries it along).
    hash_cache: RefCell<Option<HashCache>>,
}

impl TokenBuf {
    /// Creates an empty stream.
    pub fn new() -> Self {
        TokenBuf::default()
    }

    /// Creates a stream holding one whole segment.
    pub fn from_segment(seed: u64, len: u32) -> Self {
        let mut buf = TokenBuf::new();
        buf.push_segment(seed, len);
        buf
    }

    /// Appends `len` tokens of the segment identified by `seed`.
    pub fn push_segment(&mut self, seed: u64, len: u32) {
        self.push_run(Run {
            base: splitmix64(seed),
            first: 0,
            len: len.into(),
        });
    }

    /// Appends a single freshly generated token (decode output); the token
    /// id is derived from `(seed, index)` so re-runs are reproducible.
    pub fn push_generated(&mut self, seed: u64, index: u64) {
        self.push_generated_run(seed, index, 1);
    }

    /// Appends generated tokens `first..first + n` of stream `seed`, as
    /// `n` calls to [`Self::push_generated`] would, in O(1).
    pub fn push_generated_run(&mut self, seed: u64, first: u64, n: u64) {
        self.push_run(Run {
            base: splitmix64(seed ^ GENERATED_SALT),
            first,
            len: n,
        });
    }

    /// Appends all tokens of another stream.
    pub fn push_buf(&mut self, other: &TokenBuf) {
        self.push_buf_from(other, 0);
    }

    /// Appends the tokens of `other` from position `start` on.
    ///
    /// # Panics
    ///
    /// Panics if `start` exceeds `other.len()`.
    pub fn push_buf_from(&mut self, other: &TokenBuf, start: usize) {
        for run in other.runs_from(start) {
            self.push_run(run);
        }
    }

    /// Appends a run, extending the last one when its ids continue it.
    fn push_run(&mut self, run: Run) {
        if run.len == 0 {
            return;
        }
        self.len += run.len as usize;
        if let Some(last) = self.runs.last_mut() {
            if last.base == run.base && last.first.wrapping_add(last.len) == run.first {
                last.len += run.len;
                return;
            }
        }
        self.runs.push(run);
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs the stream is held as: it grows with appends that
    /// start a new id family or index, not with tokens.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Generates the token ids in order.
    pub fn ids(&self) -> impl Iterator<Item = Token> + '_ {
        self.ids_from(0)
    }

    /// Generates the token ids from position `start` on.
    pub(crate) fn ids_from(&self, start: usize) -> impl Iterator<Item = Token> + '_ {
        self.runs_from(start)
            .flat_map(|run| (0..run.len).map(move |i| run.id(i)))
    }

    /// The runs covering positions `start..`, the first one trimmed.
    fn runs_from(&self, start: usize) -> impl Iterator<Item = Run> + '_ {
        assert!(
            start <= self.len,
            "start {start} past the stream's {} tokens",
            self.len
        );
        let mut skip = start as u64;
        self.runs.iter().filter_map(move |&run| {
            let rest = run.rest(skip);
            skip = skip.saturating_sub(run.len);
            rest
        })
    }

    /// Length of the longest common prefix of this stream's tokens from
    /// position `from` on and all of `other`'s. Runs that generate the
    /// same ids are skipped whole; ids are compared one by one only from
    /// the first pair of runs that differ.
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds `self.len()`.
    pub fn common_prefix_len(&self, from: usize, other: &TokenBuf) -> usize {
        let mut mine = self.runs_from(from);
        let mut theirs = other.runs.iter().copied();
        let (mut a, mut b) = (mine.next(), theirs.next());
        let mut shared = 0usize;
        while let (Some(ra), Some(rb)) = (a, b) {
            let n = ra.len.min(rb.len);
            if ra.base != rb.base || ra.first != rb.first {
                if let Some(i) = (0..n).find(|&i| ra.id(i) != rb.id(i)) {
                    return shared + i as usize;
                }
            }
            shared += n as usize;
            a = ra.rest(n).or_else(|| mine.next());
            b = rb.rest(n).or_else(|| theirs.next());
        }
        shared
    }

    /// Truncates to the first `len` tokens (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let mut drop = (self.len - len) as u64;
        while let Some(last) = self.runs.last_mut() {
            if last.len > drop {
                last.len -= drop;
                break;
            }
            drop -= last.len;
            self.runs.pop();
        }
        self.len = len;
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
    /// Equivalent to [`crate::hash::chain_hashes`] over the ids of
    /// [`Self::ids`] but O(tokens appended since the last call) instead
    /// of O(all tokens): the cache persists across calls (and across
    /// `Clone`) and is extended incrementally from the last cached hash.
    /// Switching `block_size` between calls discards and rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn chain_hashes_cached(&self, block_size: usize) -> Ref<'_, [u64]> {
        assert!(block_size > 0, "block size must be positive");
        let want = self.len / block_size;
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
            let done = cache.hashes.len();
            let mut ids = self.ids_from(done * block_size);
            let mut parent = cache.hashes.last().copied().unwrap_or(CHAIN_ROOT);
            for _ in done..want {
                parent = ids
                    .by_ref()
                    .take(block_size)
                    .fold(chain_start(parent), chain_step);
                cache.hashes.push(parent);
            }
        }
        Ref::map(self.hash_cache.borrow(), |c| {
            c.as_ref().map_or(&[][..], |i| i.hashes.as_slice())
        })
    }
}

// Equality is defined by the id stream alone; the run split and the
// memoized hash cache are representation.
impl PartialEq for TokenBuf {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.common_prefix_len(0, other) == self.len
    }
}

impl Eq for TokenBuf {}

impl fmt::Display for TokenBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenBuf[{} tokens]", self.len)
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
    segment_token(seed ^ GENERATED_SALT, i)
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
        assert!(a.ids().take(20).eq(prefix.ids()));
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn runs_generate_the_per_token_ids() {
        let mut a = TokenBuf::from_segment(3, 5);
        a.push_generated_run(4, 7, 3);
        let want: Vec<Token> = (0..5)
            .map(|i| segment_token(3, i))
            .chain((7..10).map(|i| generated_token(4, i)))
            .collect();
        assert_eq!(a.ids().collect::<Vec<_>>(), want);
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
        let ids: Vec<Token> = a.ids().collect();
        assert_ne!(ids[0], ids[1]);
        // Generated tokens differ from segment tokens of the same seed.
        assert_ne!(ids[0], segment_token(5, 0));
    }

    #[test]
    fn push_buf_and_collect() {
        let a = TokenBuf::from_segment(1, 4);
        let mut b = TokenBuf::new();
        b.push_buf(&a);
        b.push_buf(&a);
        assert_eq!(b.len(), 8);
        let ids: Vec<Token> = b.ids().collect();
        assert_eq!(ids[..4], ids[4..]);
        assert!(a.ids().eq(ids[..4].iter().copied()));
    }

    #[test]
    fn consecutive_generated_tokens_stay_one_run() {
        let mut a = TokenBuf::new();
        for i in 0..1000 {
            a.push_generated(9, i);
        }
        assert_eq!(a.len(), 1000);
        assert_eq!(a.run_count(), 1);
        let mut b = TokenBuf::new();
        b.push_generated_run(9, 0, 1000);
        assert_eq!(a, b);
        // A gap in the indices, or another stream, starts a new run.
        a.push_generated(9, 1001);
        a.push_generated(8, 1002);
        assert_eq!(a.run_count(), 3);
    }

    #[test]
    fn equal_ids_in_other_runs_compare_equal() {
        // Stream 1 at index i and stream 2 at index i ^ d, where d is the
        // xor of their bases, generate the same id: equal streams need not
        // be held as equal runs, so `==` falls back to comparing ids.
        let base = |seed: u64| splitmix64(seed ^ GENERATED_SALT);
        let d = base(1) ^ base(2);
        let mut a = TokenBuf::from_segment(5, 6);
        let mut b = a.clone();
        for i in 0..3 {
            a.push_generated(1, i);
            b.push_generated(2, i ^ d);
        }
        a.push_segment(6, 4);
        b.push_segment(6, 4);
        assert_ne!(a.runs, b.runs);
        assert_eq!(a, b);
        assert_eq!(a.common_prefix_len(0, &b), 13);
        assert_eq!(a.common_prefix_len(7, &b), 0);
        b.truncate(12);
        b.push_segment(7, 1);
        assert_ne!(a, b);
        assert_eq!(a.common_prefix_len(0, &b), 12);
    }

    #[test]
    fn clone_copies_runs_and_memo() {
        let a = TokenBuf::from_segment(3, 40);
        a.chain_hashes_cached(16);
        let mut b = a.clone();
        assert_eq!(b, a);
        assert_eq!(b.memoized_blocks(16), 2);
        b.push_generated_run(9, 0, 8);
        assert_eq!(b.run_count(), 2);
        assert_eq!(a.len(), 40, "the original is untouched");
    }

    #[test]
    fn truncate_shortens() {
        let mut a = TokenBuf::from_segment(1, 10);
        a.push_segment(2, 10);
        a.truncate(14);
        assert_eq!(a.len(), 14);
        assert_eq!(a.run_count(), 2);
        a.truncate(10);
        assert_eq!(a.run_count(), 1);
        assert_eq!(a, TokenBuf::from_segment(1, 10));
        a.truncate(4);
        assert_eq!(a.len(), 4);
        a.truncate(100);
        assert_eq!(a.len(), 4);
        a.truncate(0);
        assert!(a.is_empty());
        assert_eq!(a.run_count(), 0);
    }

    #[test]
    fn display_reports_length() {
        assert_eq!(
            TokenBuf::from_segment(1, 3).to_string(),
            "TokenBuf[3 tokens]"
        );
    }
}
