//! Differential property tests for [`TokenBuf`]: scripts of segment,
//! generated-run, `push_buf`, truncate, clone and splice-prefix operations
//! run against the run-length stream and a materialized `Vec<Token>`
//! reference kept here. After each script the generated ids, the length,
//! `==` and the memoized chain hashes at every block size in `1..40` must
//! match the reference.

use agentsim_kvcache::hash::chain_hashes;
use agentsim_kvcache::tokens::{generated_token, segment_token, Token};
use agentsim_kvcache::TokenBuf;
use proptest::prelude::*;

/// A scripted operation on the stream.
#[derive(Debug, Clone)]
enum Op {
    /// Append a (seed, len) segment.
    Segment { seed: u64, len: u32 },
    /// Append generated tokens `first..first + n` of stream `seed`, one
    /// token at a time or as one run.
    Generated {
        seed: u64,
        first: u64,
        n: u8,
        whole: bool,
    },
    /// Append another whole segment-stream.
    Buf { seed: u64, len: u32 },
    /// Truncate to `keep` tokens (no-op when already shorter).
    Truncate { keep: u16 },
    /// Replace the stream with a clone of itself (the cache must carry).
    CloneSwap,
    /// Splice: keep the first `keep` tokens, then append the stream's own
    /// suffix from `from` on, as the context-carry splice does with the
    /// prompt behind a shared prefix.
    Splice { keep: u16, from: u16 },
    /// Read the memoized hashes at this block size and check them.
    Check { block_size: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, 0u32..200).prop_map(|(seed, len)| Op::Segment { seed, len }),
        (0u64..4, 0u64..80, 0u8..64, any::<bool>()).prop_map(|(seed, first, n, whole)| {
            Op::Generated {
                seed,
                first,
                n,
                whole,
            }
        }),
        (0u64..4, 1u32..100).prop_map(|(seed, len)| Op::Buf { seed, len }),
        (0u16..600).prop_map(|keep| Op::Truncate { keep }),
        Just(Op::CloneSwap),
        (0u16..600, 0u16..600).prop_map(|(keep, from)| Op::Splice { keep, from }),
        (1u8..40).prop_map(|block_size| Op::Check { block_size }),
    ]
}

/// Applies `op` to both the stream and its reference.
fn apply(buf: &mut TokenBuf, reference: &mut Vec<Token>, op: &Op) {
    match *op {
        Op::Segment { seed, len } => {
            buf.push_segment(seed, len);
            reference.extend((0..u64::from(len)).map(|i| segment_token(seed, i)));
        }
        Op::Generated {
            seed,
            first,
            n,
            whole,
        } => {
            let n = u64::from(n);
            if whole {
                buf.push_generated_run(seed, first, n);
            } else {
                (first..first + n).for_each(|i| buf.push_generated(seed, i));
            }
            reference.extend((first..first + n).map(|i| generated_token(seed, i)));
        }
        Op::Buf { seed, len } => {
            buf.push_buf(&TokenBuf::from_segment(seed, len));
            reference.extend((0..u64::from(len)).map(|i| segment_token(seed, i)));
        }
        Op::Truncate { keep } => {
            buf.truncate(keep.into());
            reference.truncate(keep.into());
        }
        Op::CloneSwap => *buf = buf.clone(),
        Op::Splice { keep, from } => {
            let source = buf.clone();
            let keep = usize::from(keep).min(source.len());
            let from = usize::from(from).min(source.len());
            buf.truncate(keep);
            buf.push_buf_from(&source, from);
            let moved = reference[from..].to_vec();
            reference.truncate(keep);
            reference.extend(moved);
        }
        Op::Check { block_size } => check(buf, reference, block_size.into()),
    }
}

fn check(buf: &TokenBuf, reference: &[Token], block_size: usize) {
    let cached = buf.chain_hashes_cached(block_size);
    assert_eq!(
        &*cached,
        &chain_hashes(reference, block_size)[..],
        "memoized hashes diverged at block size {block_size} with {} tokens",
        buf.len()
    );
}

/// Runs `ops` from an empty stream, checking the ids after each step.
fn run_script(ops: &[Op]) -> (TokenBuf, Vec<Token>) {
    let mut buf = TokenBuf::new();
    let mut reference = Vec::new();
    for op in ops {
        apply(&mut buf, &mut reference, op);
        assert_eq!(buf.len(), reference.len());
    }
    assert!(buf.ids().eq(reference.iter().copied()));
    (buf, reference)
}

/// The shared-prefix length of `a[from..]` and `b`, id by id.
fn common_prefix(a: &[Token], from: usize, b: &[Token]) -> usize {
    a[from..].iter().zip(b).take_while(|(x, y)| x == y).count()
}

proptest! {
    #[test]
    fn memoized_hashes_match_from_scratch(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        other in proptest::collection::vec(op_strategy(), 1..6),
        from in 0usize..600,
    ) {
        let (buf, reference) = run_script(&ops);
        for bs in 1..40 {
            check(&buf, &reference, bs);
            // A repeated read hits the warm cache.
            check(&buf, &reference, bs);
        }
        // `==` and the splice's shared prefix agree with the reference,
        // against a short unrelated script (the few seeds make equal
        // streams likely), its own prefix and a one-token change.
        let (b, b_reference) = run_script(&other);
        prop_assert_eq!(buf == b, reference == b_reference);
        let from = from.min(reference.len());
        prop_assert_eq!(
            buf.common_prefix_len(from, &b),
            common_prefix(&reference, from, &b_reference)
        );
        let mut prefix = buf.clone();
        prefix.truncate(from);
        prop_assert_eq!(buf.common_prefix_len(0, &prefix), prefix.len());
        prop_assert_eq!(buf == prefix, from == reference.len());
        if let Some(&last) = reference.last() {
            let mut changed = buf.clone();
            changed.truncate(reference.len() - 1);
            changed.push_segment(0xBAD, 1);
            prop_assert_eq!(changed == buf, segment_token(0xBAD, 0) == last);
        }
    }

    #[test]
    fn cache_survives_incremental_growth(len0 in 0u32..300, grow in 1u32..300, bs in 1usize..40) {
        // Warm the cache, extend the stream, and verify the extension is
        // hashed correctly on top of the retained prefix hashes.
        let mut buf = TokenBuf::from_segment(1, len0);
        let mut reference: Vec<Token> = (0..u64::from(len0)).map(|i| segment_token(1, i)).collect();
        check(&buf, &reference, bs);
        buf.push_segment(2, grow);
        reference.extend((0..u64::from(grow)).map(|i| segment_token(2, i)));
        check(&buf, &reference, bs);
    }

    #[test]
    fn switching_block_size_rebuilds(len in 1u32..400, a in 1usize..40, b in 1usize..40) {
        let buf = TokenBuf::from_segment(3, len);
        let reference: Vec<Token> = (0..u64::from(len)).map(|i| segment_token(3, i)).collect();
        check(&buf, &reference, a);
        check(&buf, &reference, b);
        check(&buf, &reference, a);
    }
}
