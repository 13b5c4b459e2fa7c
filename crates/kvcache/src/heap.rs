//! The eviction order of HBM and of each offload tier: `(rank, stamp,
//! item)` keys, kept in a sorted FIFO run beside a min-heap and
//! invalidated lazily.
//!
//! Keys usually arrive in ascending order: under LRU every key is
//! `(0, fresh stamp, item)`. [`EvictionHeap::push`] appends such a key to
//! the back of the run, and only a key below the run's back (a hinted
//! rank, a re-key to a lower rank) goes to the heap. The run therefore
//! stays sorted, its front is its minimum, and under LRU push and pop are
//! O(1) with no sift. [`EvictionHeap::pop`] returns the smaller of the two
//! heads, so the victim is the minimum key, exactly as with one heap.
//!
//! The owner keeps each evictable item's *current* key in its own state
//! and decides liveness: an entry is live only while its item is still
//! evictable under exactly that key. Reviving, removing or re-keying an
//! item therefore costs no search: the old entry simply goes stale,
//! [`EvictionHeap::pop`] skips stale entries at both heads, and once
//! stale entries outnumber live ones the live keys of both structures
//! are merged, in order, into a new run and the heap starts empty.
//! Re-keying an item A → B → A makes its first A entry
//! live again next to the new one; both are the same key, so the minimum
//! is unchanged, and whichever copy pops second is stale by then (a
//! popped item leaves the evictable set).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// `(rank, stamp, item)`: the minimum is the next victim.
pub(crate) type Key<T> = (u64, u64, T);

/// Eviction keys in a sorted run plus a min-heap, with lazy
/// invalidation; see the module docs.
#[derive(Debug)]
pub(crate) struct EvictionHeap<T: Ord> {
    /// Keys pushed in ascending order, smallest at the front.
    run: VecDeque<Key<T>>,
    /// Keys that arrived below the run's back.
    heap: BinaryHeap<Reverse<Key<T>>>,
    /// Evictable items: one per live key.
    live: usize,
}

impl<T: Ord> Default for EvictionHeap<T> {
    fn default() -> Self {
        EvictionHeap {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            live: 0,
        }
    }
}

impl<T: Ord + Copy> EvictionHeap<T> {
    /// Evictable items.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Adds an evictable item under `key`, which the owner has already
    /// recorded as the item's current key.
    pub(crate) fn push(&mut self, key: Key<T>) {
        if self.run.back().is_none_or(|back| key >= *back) {
            self.run.push_back(key);
        } else {
            self.heap.push(Reverse(key));
        }
        self.live += 1;
    }

    /// Notes that one live key went stale: the owner revived or removed
    /// its item, or re-keyed it after pushing the new key, and `is_live`
    /// already rejects the old key.
    pub(crate) fn invalidate(&mut self, is_live: impl Fn(&Key<T>) -> bool) {
        self.live -= 1;
        if self.run.len() + self.heap.len() - self.live > self.live {
            // The live keys of both, in order, become the new run in the
            // run's buffer; the heap's buffer is released.
            let mut keys = Vec::from(std::mem::take(&mut self.run));
            keys.retain(|k| is_live(k));
            let heap = std::mem::take(&mut self.heap).into_vec();
            keys.extend(heap.into_iter().map(|Reverse(k)| k).filter(|k| is_live(k)));
            keys.sort_unstable();
            keys.dedup();
            self.run = VecDeque::from(keys);
        }
    }

    /// Removes and returns the minimum live key. The owner must take the
    /// item out of its evictable set before the next call.
    pub(crate) fn pop(&mut self, is_live: impl Fn(&Key<T>) -> bool) -> Option<Key<T>> {
        if self.live == 0 {
            self.run.clear();
            self.heap.clear();
            return None;
        }
        while self.run.front().is_some_and(|k| !is_live(k)) {
            self.run.pop_front();
        }
        while self.heap.peek().is_some_and(|Reverse(k)| !is_live(k)) {
            self.heap.pop();
        }
        let key = match (self.run.front(), self.heap.peek()) {
            (Some(front), Some(Reverse(top))) if top < front => self.heap.pop().map(|Reverse(k)| k),
            (Some(_), _) => self.run.pop_front(),
            (None, Some(_)) => self.heap.pop().map(|Reverse(k)| k),
            (None, None) => unreachable!("{} evictable items but no live key", self.live),
        };
        self.live -= 1;
        key
    }

    /// The distinct live keys in ascending order (invariant checks).
    pub(crate) fn live_keys(&self, is_live: impl Fn(&Key<T>) -> bool) -> Vec<Key<T>> {
        let mut keys: Vec<Key<T>> = self
            .run
            .iter()
            .chain(self.heap.iter().map(|Reverse(k)| k))
            .copied()
            .filter(|k| is_live(k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// An operation on one of [`ITEMS`] items.
    #[derive(Debug, Clone)]
    enum Op {
        /// Make a non-evictable item evictable under a fresh stamp.
        Push { item: u32, rank: u64 },
        /// Take an evictable item back out (a revived block).
        Revive { item: u32 },
        /// Re-rank an evictable item, keeping its stamp.
        Rekey { item: u32, rank: u64 },
        /// Evict the minimum.
        Pop,
    }

    const ITEMS: u32 = 12;

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Three ranks force ties and A -> B -> A re-keys.
        prop_oneof![
            (0u32..ITEMS, 0u64..3).prop_map(|(item, rank)| Op::Push { item, rank }),
            (0u32..ITEMS).prop_map(|item| Op::Revive { item }),
            (0u32..ITEMS, 0u64..3).prop_map(|(item, rank)| Op::Rekey { item, rank }),
            Just(Op::Pop),
        ]
    }

    /// The LRU shape: most pushes are rank 0 under ascending stamps, so
    /// they land in the run, and the re-keys up and back down send keys
    /// below the run's back to the heap.
    fn lru_op_strategy() -> impl Strategy<Value = Op> {
        let push = || (0u32..ITEMS).prop_map(|item| Op::Push { item, rank: 0 });
        prop_oneof![
            push(),
            push(),
            push(),
            (0u32..ITEMS, 0u64..3).prop_map(|(item, rank)| Op::Rekey { item, rank }),
            (0u32..ITEMS).prop_map(|item| Op::Revive { item }),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    /// LRU-shaped scripts open with a rank-0 push, a re-key to a higher
    /// rank and another rank-0 push, which lands below the run's back: so
    /// every script reaches both structures.
    fn lru_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(lru_op_strategy(), 1..200).prop_map(|ops| {
            let mut script = vec![
                Op::Push { item: 0, rank: 0 },
                Op::Rekey { item: 0, rank: 2 },
                Op::Push { item: 1, rank: 0 },
            ];
            script.extend(ops);
            script
        })
    }

    /// Drives the heap and a `BTreeSet` of current keys side by side.
    /// With `both_paths`, it also fails unless the run and the heap each
    /// received at least one push.
    fn run(ops: &[Op], both_paths: bool) -> Result<(), String> {
        let mut heap = EvictionHeap::default();
        let mut reference: BTreeSet<Key<u32>> = BTreeSet::new();
        let mut current: Vec<Option<(u64, u64)>> = vec![None; ITEMS as usize];
        let mut stamp = 0u64;
        let (mut to_run, mut to_heap) = (0usize, 0usize);
        let mut push = |heap: &mut EvictionHeap<u32>, key: Key<u32>| {
            let before = heap.run.len();
            heap.push(key);
            if heap.run.len() > before {
                to_run += 1;
            } else {
                to_heap += 1;
            }
        };
        for op in ops {
            let live =
                |cur: &[Option<(u64, u64)>], &(r, s, i): &Key<u32>| cur[i as usize] == Some((r, s));
            match *op {
                Op::Push { item, rank } => {
                    if current[item as usize].is_none() {
                        stamp += 1;
                        current[item as usize] = Some((rank, stamp));
                        push(&mut heap, (rank, stamp, item));
                        reference.insert((rank, stamp, item));
                    }
                }
                Op::Revive { item } => {
                    if let Some((rank, s)) = current[item as usize].take() {
                        heap.invalidate(|k| live(&current, k));
                        reference.remove(&(rank, s, item));
                    }
                }
                Op::Rekey { item, rank } => {
                    if let Some((old, s)) = current[item as usize] {
                        if old != rank {
                            current[item as usize] = Some((rank, s));
                            push(&mut heap, (rank, s, item));
                            heap.invalidate(|k| live(&current, k));
                            reference.remove(&(old, s, item));
                            reference.insert((rank, s, item));
                        }
                    }
                }
                Op::Pop => {
                    let got = heap.pop(|k| live(&current, k));
                    let want = reference.pop_first();
                    if got != want {
                        return Err(format!("popped {got:?}, reference {want:?}"));
                    }
                    if let Some((_, _, item)) = got {
                        current[item as usize] = None;
                    }
                }
            }
            if heap.len() != reference.len() {
                return Err(format!(
                    "{} evictable, reference {}",
                    heap.len(),
                    reference.len()
                ));
            }
            let keys = heap.live_keys(|k| live(&current, k));
            if !keys.iter().eq(reference.iter()) {
                return Err(format!("live keys {keys:?}, reference {reference:?}"));
            }
        }
        if both_paths && (to_run == 0 || to_heap == 0) {
            return Err(format!("{to_run} pushes to the run, {to_heap} to the heap"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_a_btreeset_reference(
            script in prop_oneof![
                prop::collection::vec(op_strategy(), 1..200).prop_map(|ops| (ops, false)),
                lru_ops().prop_map(|ops| (ops, true)),
            ]
        ) {
            let (ops, both_paths) = script;
            prop_assert_eq!(run(&ops, both_paths), Ok(()));
        }
    }

    #[test]
    fn rekey_back_and_forth_pops_the_item_once() {
        let ops = [
            Op::Push { item: 1, rank: 0 },
            Op::Push { item: 2, rank: 1 },
            Op::Rekey { item: 1, rank: 2 },
            Op::Rekey { item: 1, rank: 0 },
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ];
        assert_eq!(run(&ops, true), Ok(()));
    }

    #[test]
    fn in_order_keys_never_reach_the_heap() {
        let mut heap = EvictionHeap::default();
        for i in 0..8u32 {
            heap.push((0, u64::from(i), i));
        }
        assert_eq!((heap.run.len(), heap.heap.len()), (8, 0));
        for i in 0..8u32 {
            assert_eq!(heap.pop(|_| true), Some((0, u64::from(i), i)));
        }
    }

    #[test]
    fn compaction_drops_stale_entries() {
        let mut heap = EvictionHeap::default();
        // Item i's current (rank, stamp).
        let mut current: [Option<(u64, u64)>; 7] = [None; 7];
        let live = |cur: &[Option<(u64, u64)>], &(r, s, i): &Key<usize>| cur[i] == Some((r, s));
        for (i, cur) in current.iter_mut().enumerate().take(5) {
            *cur = Some((0, i as u64));
            heap.push((0, i as u64, i));
        }
        current[5] = Some((1, 5));
        heap.push((1, 5, 5));
        // Re-key item 5 A -> B -> A: B sorts below the run's back and goes
        // to the heap, the second A lands in the run next to the first.
        current[5] = Some((0, 5));
        heap.push((0, 5, 5));
        heap.invalidate(|k| live(&current, k));
        current[5] = Some((1, 5));
        heap.push((1, 5, 5));
        heap.invalidate(|k| live(&current, k));
        // A live key that also sorts below the run's back.
        current[6] = Some((0, 6));
        heap.push((0, 6, 6));
        assert_eq!((heap.run.len(), heap.heap.len()), (7, 2));
        // Reviving items 0..3 stales their run entries; the third revival
        // leaves 5 stale entries (3 in the run, B, a duplicate A) against
        // 4 live, which triggers the rebuild.
        for i in 0..3 {
            current[i] = None;
            heap.invalidate(|k| live(&current, k));
        }
        assert_eq!(heap.len(), 4);
        assert_eq!(
            heap.run.iter().copied().collect::<Vec<_>>(),
            [(0, 3, 3), (0, 4, 4), (0, 6, 6), (1, 5, 5)],
            "stale entries and the duplicate A are gone, the live heap key merged in order"
        );
        assert!(heap.heap.is_empty());
        assert_eq!(heap.pop(|k| live(&current, k)), Some((0, 3, 3)));
    }
}
