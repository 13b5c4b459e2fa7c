//! The eviction order of HBM and of each offload tier: a min-heap of
//! `(rank, stamp, item)` keys that invalidates lazily.
//!
//! The owner keeps each evictable item's *current* key in its own state
//! and decides liveness: a heap entry is live only while its item is still
//! evictable under exactly that key. Reviving, removing or re-keying an
//! item therefore costs no heap search: the old entry simply goes stale,
//! [`EvictionHeap::pop`] skips stale entries, and the heap is rebuilt from
//! its live entries once stale ones outnumber them. Re-keying an item
//! A → B → A makes its first A entry live again next to the new one; both
//! are the same key, so the minimum is unchanged, and whichever copy pops
//! second is stale by then (a popped item leaves the evictable set).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(rank, stamp, item)`: the minimum is the next victim.
pub(crate) type Key<T> = (u64, u64, T);

/// Min-heap of eviction keys with lazy invalidation; see the module docs.
#[derive(Debug)]
pub(crate) struct EvictionHeap<T: Ord> {
    heap: BinaryHeap<Reverse<Key<T>>>,
    /// Evictable items: one per live key.
    live: usize,
}

impl<T: Ord> Default for EvictionHeap<T> {
    fn default() -> Self {
        EvictionHeap {
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
        self.heap.push(Reverse(key));
        self.live += 1;
    }

    /// Notes that one live key went stale: the owner revived or removed
    /// its item, or re-keyed it after pushing the new key, and `is_live`
    /// already rejects the old key.
    pub(crate) fn invalidate(&mut self, is_live: impl Fn(&Key<T>) -> bool) {
        self.live -= 1;
        if self.heap.len() - self.live > self.live {
            let mut keys = std::mem::take(&mut self.heap).into_vec();
            keys.retain(|Reverse(k)| is_live(k));
            keys.sort_unstable();
            keys.dedup();
            self.heap = BinaryHeap::from(keys);
        }
    }

    /// Removes and returns the minimum live key. The owner must take the
    /// item out of its evictable set before the next call.
    pub(crate) fn pop(&mut self, is_live: impl Fn(&Key<T>) -> bool) -> Option<Key<T>> {
        if self.live == 0 {
            self.heap.clear();
            return None;
        }
        while let Some(Reverse(key)) = self.heap.pop() {
            if is_live(&key) {
                self.live -= 1;
                return Some(key);
            }
        }
        unreachable!("{} evictable items but no live key", self.live)
    }

    /// The distinct live keys in ascending order (invariant checks).
    pub(crate) fn live_keys(&self, is_live: impl Fn(&Key<T>) -> bool) -> Vec<Key<T>> {
        let mut keys: Vec<Key<T>> = self
            .heap
            .iter()
            .map(|Reverse(k)| *k)
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

    /// Drives the heap and a `BTreeSet` of current keys side by side.
    fn run(ops: &[Op]) -> Result<(), String> {
        let mut heap = EvictionHeap::default();
        let mut reference: BTreeSet<Key<u32>> = BTreeSet::new();
        let mut current: Vec<Option<(u64, u64)>> = vec![None; ITEMS as usize];
        let mut stamp = 0u64;
        for op in ops {
            let live =
                |cur: &[Option<(u64, u64)>], &(r, s, i): &Key<u32>| cur[i as usize] == Some((r, s));
            match *op {
                Op::Push { item, rank } => {
                    if current[item as usize].is_none() {
                        stamp += 1;
                        current[item as usize] = Some((rank, stamp));
                        heap.push((rank, stamp, item));
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
                            heap.push((rank, s, item));
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
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_a_btreeset_reference(ops in prop::collection::vec(op_strategy(), 1..200)) {
            prop_assert_eq!(run(&ops), Ok(()));
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
        assert_eq!(run(&ops), Ok(()));
    }

    #[test]
    fn compaction_drops_stale_entries() {
        let mut heap = EvictionHeap::default();
        let mut current = [true; 8];
        for i in 0..8u32 {
            heap.push((0, u64::from(i), i));
        }
        for i in 0..5u32 {
            current[i as usize] = false;
            heap.invalidate(|&(_, _, j)| current[j as usize]);
        }
        assert_eq!(heap.len(), 3);
        assert_eq!(heap.heap.len(), 3, "5 stale > 3 live triggers a rebuild");
        assert_eq!(heap.pop(|&(_, _, j)| current[j as usize]), Some((0, 5, 5)));
    }
}
