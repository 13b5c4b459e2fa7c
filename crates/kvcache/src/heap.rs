//! The eviction order of HBM and of each offload tier: `(rank, stamp,
//! item)` keys, kept as one FIFO run per rank beside a small fallback
//! heap, and invalidated lazily.
//!
//! Within one rank, keys almost always arrive in ascending order: stamps
//! only grow, and a hint re-keys a whole context to one new rank in chain
//! order, whose stamps ascend too. [`EvictionHeap::push`] therefore
//! appends a key at or above the back of its rank's run, so every run
//! stays sorted and its front is its minimum. Only a key below its run's
//! back (an item re-keyed A → B → A, back to a rank whose run has grown
//! since) goes to the fallback min-heap. [`EvictionHeap::pop`] returns the
//! smaller of the lowest run's front and the fallback's top, so the victim
//! is the minimum key, exactly as with one heap. The lowest rank's run is
//! held outside the map of the others, so a pop finds it without a
//! search. Under LRU every key has rank 0: that run is the only one, and
//! push and pop are a deque append and pop-front.
//!
//! The owner keeps each evictable item's *current* key in its own state
//! and decides liveness: an entry is live only while its item is still
//! evictable under exactly that key. Reviving, removing or re-keying an
//! item therefore costs no search: the old entry simply goes stale,
//! [`EvictionHeap::pop`] skips stale entries at both heads, and once
//! stale entries outnumber live ones every run and the fallback are
//! filtered in place. A filtered run keeps its order, so compaction sorts
//! nothing; it also drops adjacent duplicates and runs left empty.
//! Re-keying an item A → B → A makes its first A entry live again next
//! to the new one; both are the same key, so the minimum is unchanged,
//! and whichever copy pops second is stale by then (a popped item leaves
//! the evictable set).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// `(rank, stamp, item)`: the minimum is the next victim.
pub(crate) type Key<T> = (u64, u64, T);

/// One rank's `(stamp, item)` keys in push order, which is ascending.
type Run<T> = VecDeque<(u64, T)>;

/// Eviction keys in per-rank sorted runs plus a fallback min-heap, with
/// lazy invalidation; see the module docs.
#[derive(Debug)]
pub(crate) struct EvictionHeap<T: Ord> {
    /// The lowest rank's run, kept out of `rest` so that pops, and under
    /// LRU every push, touch no map. Empty only when `rest` is empty too.
    head: Run<T>,
    /// The rank of `head`, below every rank in `rest`.
    head_rank: u64,
    /// rank -> that rank's run, for the ranks above `head_rank`. No run
    /// is empty.
    rest: BTreeMap<u64, Run<T>>,
    /// Keys that arrived below their run's back.
    fallback: BinaryHeap<Reverse<Key<T>>>,
    /// Entries in the runs and `fallback`, live or stale.
    stored: usize,
    /// Evictable items: one per live key.
    live: usize,
}

impl<T: Ord> Default for EvictionHeap<T> {
    fn default() -> Self {
        EvictionHeap {
            head: VecDeque::new(),
            head_rank: 0,
            rest: BTreeMap::new(),
            fallback: BinaryHeap::new(),
            stored: 0,
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
        let (rank, stamp, item) = key;
        if self.head.is_empty() {
            self.head_rank = rank;
        } else if rank < self.head_rank {
            let head = std::mem::take(&mut self.head);
            self.rest.insert(self.head_rank, head);
            self.head_rank = rank;
        }
        let run = if rank == self.head_rank {
            &mut self.head
        } else {
            self.rest.entry(rank).or_default()
        };
        if run.back().is_none_or(|&back| (stamp, item) >= back) {
            run.push_back((stamp, item));
        } else {
            self.fallback.push(Reverse(key));
        }
        self.stored += 1;
        self.live += 1;
    }

    /// Notes that one live key went stale: the owner revived or removed
    /// its item, or re-keyed it after pushing the new key, and `is_live`
    /// already rejects the old key.
    pub(crate) fn invalidate(&mut self, is_live: impl Fn(&Key<T>) -> bool) {
        self.live -= 1;
        if self.stored - self.live > self.live {
            self.compact(is_live);
        }
    }

    /// Drops every stale entry, and each run's adjacent duplicates, in
    /// place.
    fn compact(&mut self, is_live: impl Fn(&Key<T>) -> bool) {
        let filter = |rank: u64, run: &mut Run<T>| {
            let mut last = None;
            run.retain(|&(stamp, item)| {
                let keep = last != Some((stamp, item)) && is_live(&(rank, stamp, item));
                if keep {
                    last = Some((stamp, item));
                }
                keep
            });
            !run.is_empty()
        };
        filter(self.head_rank, &mut self.head);
        self.rest.retain(|&rank, run| filter(rank, run));
        self.refill_head();
        self.fallback.retain(|Reverse(key)| is_live(key));
        self.stored = self.head.len()
            + self.rest.values().map(VecDeque::len).sum::<usize>()
            + self.fallback.len();
    }

    /// Makes the lowest run in `rest` the head once the head is empty.
    fn refill_head(&mut self) {
        if self.head.is_empty() {
            if let Some((rank, run)) = self.rest.pop_first() {
                self.head = run;
                self.head_rank = rank;
            }
        }
    }

    /// Removes and returns the minimum live key. The owner must take the
    /// item out of its evictable set before the next call.
    pub(crate) fn pop(&mut self, is_live: impl Fn(&Key<T>) -> bool) -> Option<Key<T>> {
        if self.live == 0 {
            self.head.clear();
            self.rest.clear();
            self.fallback.clear();
            self.stored = 0;
            return None;
        }
        // The lowest run's first live key; runs holding only stale keys
        // are dropped on the way.
        loop {
            while self
                .head
                .front()
                .is_some_and(|&(stamp, item)| !is_live(&(self.head_rank, stamp, item)))
            {
                self.head.pop_front();
                self.stored -= 1;
            }
            if !self.head.is_empty() || self.rest.is_empty() {
                break;
            }
            self.refill_head();
        }
        while self.fallback.peek().is_some_and(|Reverse(k)| !is_live(k)) {
            self.fallback.pop();
            self.stored -= 1;
        }
        let front = self
            .head
            .front()
            .map(|&(stamp, item)| (self.head_rank, stamp, item));
        let key = match (front, self.fallback.peek()) {
            (Some(front), Some(&Reverse(top))) if top < front => {
                self.fallback.pop();
                top
            }
            (Some(front), _) => {
                self.head.pop_front();
                self.refill_head();
                front
            }
            (None, Some(&Reverse(top))) => {
                self.fallback.pop();
                top
            }
            (None, None) => unreachable!("{} evictable items but no live key", self.live),
        };
        self.stored -= 1;
        self.live -= 1;
        Some(key)
    }

    /// Every run with its rank, lowest rank first.
    fn runs(&self) -> impl Iterator<Item = (u64, &Run<T>)> {
        let head = (!self.head.is_empty()).then_some((self.head_rank, &self.head));
        head.into_iter()
            .chain(self.rest.iter().map(|(&rank, run)| (rank, run)))
    }

    /// The distinct live keys in ascending order (invariant checks).
    pub(crate) fn live_keys(&self, is_live: impl Fn(&Key<T>) -> bool) -> Vec<Key<T>> {
        let mut keys: Vec<Key<T>> = self
            .runs()
            .flat_map(|(rank, run)| run.iter().map(move |&(stamp, item)| (rank, stamp, item)))
            .chain(self.fallback.iter().map(|&Reverse(k)| k))
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
        /// Re-rank every evictable item of rank `from` to `to`, in stamp
        /// order: a hint covering a whole context.
        RekeyRun { from: u64, to: u64 },
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
    /// they append to one run, and the re-keys up and back down send
    /// keys below the rank-0 run's back to the fallback.
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

    /// The hint shape: many keys share a rank under ascending stamps,
    /// whole runs move to one new rank, and single items move A -> B -> A
    /// back to an older rank.
    fn hint_op_strategy() -> impl Strategy<Value = Op> {
        let push = || (0u32..ITEMS, 0u64..4).prop_map(|(item, rank)| Op::Push { item, rank });
        prop_oneof![
            push(),
            push(),
            push(),
            (0u64..4, 0u64..4).prop_map(|(from, to)| Op::RekeyRun { from, to }),
            (0u64..4, 0u64..4).prop_map(|(from, to)| Op::RekeyRun { from, to }),
            (0u32..ITEMS, 0u64..4).prop_map(|(item, rank)| Op::Rekey { item, rank }),
            (0u32..ITEMS).prop_map(|item| Op::Revive { item }),
            Just(Op::Pop),
        ]
    }

    /// Every coverage script opens with a rank-0 push, a re-key to a
    /// higher rank, another rank-0 push and the re-key back: the last
    /// key lands below the rank-0 run's back, so every script reaches both
    /// the per-rank append and the fallback.
    fn covering(ops: impl Strategy<Value = Op>) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(ops, 1..200).prop_map(|ops| {
            let mut script = vec![
                Op::Push { item: 0, rank: 0 },
                Op::Rekey { item: 0, rank: 2 },
                Op::Push { item: 1, rank: 0 },
                Op::Rekey { item: 0, rank: 0 },
            ];
            script.extend(ops);
            script
        })
    }

    /// Whether every run holds its keys in ascending order, no run in
    /// `rest` is empty, and the head is the lowest run.
    fn well_formed<T: Ord + Copy>(heap: &EvictionHeap<T>) -> bool {
        let sorted = heap
            .runs()
            .all(|(_, run)| run.iter().zip(run.iter().skip(1)).all(|(a, b)| a <= b));
        let head_lowest = match heap.rest.first_key_value() {
            Some((&rank, _)) => !heap.head.is_empty() && heap.head_rank < rank,
            None => true,
        };
        sorted && head_lowest && heap.rest.values().all(|run| !run.is_empty())
    }

    /// The heap, a `BTreeSet` of current keys, and each item's current
    /// `(rank, stamp)`, driven side by side.
    #[derive(Default)]
    struct Harness {
        heap: EvictionHeap<u32>,
        reference: BTreeSet<Key<u32>>,
        current: Vec<Option<(u64, u64)>>,
        stamp: u64,
        to_runs: usize,
        to_fallback: usize,
    }

    fn live(current: &[Option<(u64, u64)>]) -> impl Fn(&Key<u32>) -> bool + '_ {
        |&(r, s, i)| current[i as usize] == Some((r, s))
    }

    impl Harness {
        fn push(&mut self, key: Key<u32>) {
            let before = self.heap.fallback.len();
            self.heap.push(key);
            if self.heap.fallback.len() > before {
                self.to_fallback += 1;
            } else {
                self.to_runs += 1;
            }
        }

        fn rekey(&mut self, item: u32, rank: u64) {
            if let Some((old, s)) = self.current[item as usize] {
                if old != rank {
                    self.current[item as usize] = Some((rank, s));
                    self.push((rank, s, item));
                    self.heap.invalidate(live(&self.current));
                    self.reference.remove(&(old, s, item));
                    self.reference.insert((rank, s, item));
                }
            }
        }

        fn apply(&mut self, op: &Op) -> Result<(), String> {
            match *op {
                Op::Push { item, rank } => {
                    if self.current[item as usize].is_none() {
                        self.stamp += 1;
                        self.current[item as usize] = Some((rank, self.stamp));
                        self.push((rank, self.stamp, item));
                        self.reference.insert((rank, self.stamp, item));
                    }
                }
                Op::Revive { item } => {
                    if let Some((rank, s)) = self.current[item as usize].take() {
                        self.heap.invalidate(live(&self.current));
                        self.reference.remove(&(rank, s, item));
                    }
                }
                Op::Rekey { item, rank } => self.rekey(item, rank),
                Op::RekeyRun { from, to } => {
                    let run: Vec<u32> = self
                        .reference
                        .iter()
                        .filter(|&&(r, _, _)| r == from)
                        .map(|&(_, _, item)| item)
                        .collect();
                    for item in run {
                        self.rekey(item, to);
                    }
                }
                Op::Pop => {
                    let got = self.heap.pop(live(&self.current));
                    let want = self.reference.pop_first();
                    if got != want {
                        return Err(format!("popped {got:?}, reference {want:?}"));
                    }
                    if let Some((_, _, item)) = got {
                        self.current[item as usize] = None;
                    }
                }
            }
            let (heap, reference) = (&self.heap, &self.reference);
            if heap.len() != reference.len() {
                return Err(format!(
                    "{} evictable, reference {}",
                    heap.len(),
                    reference.len()
                ));
            }
            let keys = heap.live_keys(live(&self.current));
            if !keys.iter().eq(reference.iter()) {
                return Err(format!("live keys {keys:?}, reference {reference:?}"));
            }
            if !well_formed(heap) {
                return Err(format!("runs malformed: {heap:?}"));
            }
            Ok(())
        }
    }

    /// Drives [`Harness`] through `ops`. With `both_paths`, it also fails
    /// unless the per-rank append and the fallback each took a push.
    fn run(ops: &[Op], both_paths: bool) -> Result<(), String> {
        let mut h = Harness {
            current: vec![None; ITEMS as usize],
            ..Harness::default()
        };
        for op in ops {
            h.apply(op)?;
        }
        if both_paths && (h.to_runs == 0 || h.to_fallback == 0) {
            return Err(format!(
                "{} pushes to the runs, {} to the fallback",
                h.to_runs, h.to_fallback
            ));
        }
        Ok(())
    }

    fn scripts() -> impl Strategy<Value = (Vec<Op>, bool)> {
        prop_oneof![
            prop::collection::vec(op_strategy(), 1..200).prop_map(|ops| (ops, false)),
            covering(lru_op_strategy()).prop_map(|ops| (ops, true)),
            covering(hint_op_strategy()).prop_map(|ops| (ops, true)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_a_btreeset_reference(script in scripts()) {
            let (ops, both_paths) = script;
            prop_assert_eq!(run(&ops, both_paths), Ok(()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        // The same differential at depth: `cargo test --release -p
        // agentsim-kvcache -- --ignored`.
        #[test]
        #[ignore]
        fn pops_match_a_btreeset_reference_deep(script in scripts()) {
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
        assert_eq!(run(&ops, false), Ok(()));
    }

    #[test]
    fn in_order_keys_never_reach_the_heap() {
        let mut heap = EvictionHeap::default();
        // Two ranks, each pushed in stamp order but interleaved.
        for i in 0..8u32 {
            heap.push((u64::from(i % 2), u64::from(i), i));
        }
        assert!(heap.fallback.is_empty());
        assert_eq!(heap.runs().count(), 2);
        for i in [0u32, 2, 4, 6, 1, 3, 5, 7] {
            assert_eq!(
                heap.pop(|_| true),
                Some((u64::from(i % 2), u64::from(i), i))
            );
        }
        assert_eq!(heap.runs().count(), 0, "emptied runs are dropped");
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
        let rekey =
            |heap: &mut EvictionHeap<usize>, cur: &mut [Option<(u64, u64)>], item: usize, rank| {
                let (_, stamp) = cur[item].expect("evictable");
                cur[item] = Some((rank, stamp));
                heap.push((rank, stamp, item));
                heap.invalidate(|k| live(cur, k));
            };
        // Item 2 re-keyed 0 -> 1 -> 0: its second rank-0 key sorts below
        // that run's back and goes to the fallback, and its first one is
        // live again.
        rekey(&mut heap, &mut current, 2, 1);
        rekey(&mut heap, &mut current, 2, 0);
        // Item 5 re-keyed 1 -> 0 -> 1: every key lands at the back of its
        // rank's run, so rank 1 holds the same key twice, side by side.
        current[5] = Some((1, 5));
        heap.push((1, 5, 5));
        rekey(&mut heap, &mut current, 5, 0);
        rekey(&mut heap, &mut current, 5, 1);
        assert_eq!((heap.stored, heap.fallback.len()), (10, 1));
        // Reviving items 0 and 1 leaves 6 entries beyond the 4 live keys
        // (items 0 and 1, item 2's rank-1 key and second live copy, item
        // 5's rank-0 key and duplicate), which triggers the compaction.
        for i in 0..2 {
            current[i] = None;
            heap.invalidate(|k| live(&current, k));
        }
        assert_eq!(heap.len(), 4);
        let runs: Vec<(u64, Vec<(u64, usize)>)> = heap
            .runs()
            .map(|(rank, run)| (rank, run.iter().copied().collect()))
            .collect();
        assert_eq!(
            runs,
            [(0, vec![(2, 2), (3, 3), (4, 4)]), (1, vec![(5, 5)])],
            "stale entries and the duplicate are gone, each run still in order"
        );
        assert_eq!(heap.fallback.len(), 1, "the live fallback key stays");
        assert_eq!(heap.stored, 5);
        assert_eq!(heap.pop(|k| live(&current, k)), Some((0, 2, 2)));
        current[2] = None;
        assert_eq!(heap.pop(|k| live(&current, k)), Some((0, 3, 3)));
    }
}
