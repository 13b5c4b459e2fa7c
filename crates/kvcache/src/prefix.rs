//! The HBM prefix cache: chain hash -> the resident block registered
//! under it, as an open-addressed table of 8-byte slots.
//!
//! A slot packs a 32-bit tag, the chain hash's high half, with the block
//! id plus one; zero is an empty slot. The table stores no full key: the
//! registered block's own record holds its chain hash, so a lookup that
//! finds a slot with the right tag confirms the hit against that hash
//! (the owner passes it in as `key_of`). A slot's home is derived from
//! its tag alone, so growing the table and deleting from it read no
//! record. Collisions probe linearly, wrapping past the end, and a
//! delete shifts the rest of its cluster back instead of leaving a
//! tombstone, so probes never lengthen under insert/remove churn.
//!
//! Eviction removes a known block's entry: it scans from the hash's home
//! for the slot holding exactly that tag and block, with no key compare.
//!
//! The table starts empty and doubles once it would hold more than one
//! entry per [`SLOTS_PER_ENTRY`] slots, so a pool's table follows the
//! hashes it actually registers; construction allocates nothing.

use crate::block::BlockId;

/// Slots per entry the table keeps at least (its inverse maximum load).
const SLOTS_PER_ENTRY: usize = 4;

/// The capacity of the first allocation, in slots.
const MIN_SLOTS: usize = 64;

/// The tag of a chain hash: its high half.
fn tag(hash: u64) -> u32 {
    (hash >> 32) as u32
}

fn slot(tag: u32, id: BlockId) -> u64 {
    (u64::from(tag) << 32) | u64::from(id.0 + 1)
}

fn slot_tag(slot: u64) -> u32 {
    (slot >> 32) as u32
}

fn slot_block(slot: u64) -> BlockId {
    BlockId(slot as u32 - 1)
}

/// Chain hash -> registered block; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct PrefixTable {
    /// A power-of-two number of slots, or none before the first insert.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
}

/// Where a probe for a hash ended.
enum Probe {
    /// The slot holding the hash.
    Hit(usize),
    /// The empty slot that ends the hash's cluster.
    Miss(usize),
}

impl PrefixTable {
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot a tag's probe starts at: the tag's top bits.
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.slots.len() as u64) >> 32) as usize
    }

    fn probe(&self, hash: u64, key_of: impl Fn(BlockId) -> u64) -> Probe {
        let t = tag(hash);
        let mut i = self.home(t);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Probe::Miss(i);
            }
            if slot_tag(s) == t && key_of(slot_block(s)) == hash {
                return Probe::Hit(i);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// The block registered under `hash`; `key_of` reads a block's chain
    /// hash.
    pub(crate) fn get(&self, hash: u64, key_of: impl Fn(BlockId) -> u64) -> Option<BlockId> {
        if self.len == 0 {
            return None;
        }
        match self.probe(hash, key_of) {
            Probe::Hit(i) => Some(slot_block(self.slots[i])),
            Probe::Miss(_) => None,
        }
    }

    /// Registers `id` under `hash`, taking the registration over from the
    /// block that held it, which is returned. `key_of(id)` must already
    /// read `hash`, and `id` must not be registered.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        id: BlockId,
        key_of: impl Fn(BlockId) -> u64,
    ) -> Option<BlockId> {
        self.reserve_one();
        match self.probe(hash, key_of) {
            Probe::Hit(i) => {
                let prev = slot_block(self.slots[i]);
                self.slots[i] = slot(tag(hash), id);
                Some(prev)
            }
            Probe::Miss(i) => {
                self.fill(i, slot(tag(hash), id));
                None
            }
        }
    }

    /// Registers `id` under `hash` unless another block holds it; returns
    /// whether `id` was registered. The preconditions of
    /// [`Self::insert`] apply.
    pub(crate) fn insert_if_absent(
        &mut self,
        hash: u64,
        id: BlockId,
        key_of: impl Fn(BlockId) -> u64,
    ) -> bool {
        self.reserve_one();
        match self.probe(hash, key_of) {
            Probe::Hit(_) => false,
            Probe::Miss(i) => {
                self.fill(i, slot(tag(hash), id));
                true
            }
        }
    }

    fn fill(&mut self, i: usize, s: u64) {
        self.slots[i] = s;
        self.len += 1;
    }

    /// Unregisters block `id`, which is registered under `hash`. The slot
    /// is found by tag and block, so no chain hash is read; the entries
    /// after it in its cluster shift back to close the gap.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered under `hash`.
    pub(crate) fn remove(&mut self, hash: u64, id: BlockId) {
        assert!(self.len > 0, "{id} is not registered");
        let want = slot(tag(hash), id);
        let mask = self.mask();
        let mut hole = self.home(tag(hash));
        while self.slots[hole] != want {
            assert!(self.slots[hole] != 0, "{id} is not registered");
            hole = (hole + 1) & mask;
        }
        // Backward-shift deletion: an entry may fill the hole unless its
        // home lies cyclically after the hole, up to its own slot.
        let mut j = (hole + 1) & mask;
        while self.slots[j] != 0 {
            let home = self.home(slot_tag(self.slots[j]));
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }

    /// Doubles the table if one more entry would exceed its load bound.
    fn reserve_one(&mut self) {
        if (self.len + 1) * SLOTS_PER_ENTRY <= self.slots.len() {
            return;
        }
        let cap = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; cap]);
        for s in old.into_iter().filter(|&s| s != 0) {
            let mut i = self.home(slot_tag(s));
            while self.slots[i] != 0 {
                i = (i + 1) & self.mask();
            }
            self.slots[i] = s;
        }
    }

    /// Every `(tag, block)` entry, in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, BlockId)> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| (slot_tag(s), slot_block(s)))
    }

    /// Structural check used by tests: the count matches, the load bound
    /// holds, no block appears twice, and every entry is reachable from
    /// its home without crossing an empty slot.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let occupied = self.slots.iter().filter(|&&s| s != 0).count();
        if occupied != self.len {
            return Err(format!("{occupied} occupied slots, len {}", self.len));
        }
        if self.len * SLOTS_PER_ENTRY > self.slots.len() {
            return Err(format!(
                "{} entries in {} slots",
                self.len,
                self.slots.len()
            ));
        }
        let mut blocks: Vec<BlockId> = self.entries().map(|(_, id)| id).collect();
        blocks.sort_unstable();
        if let Some(w) = blocks.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("{} registered twice", w[0]));
        }
        for (i, &s) in self.slots.iter().enumerate().filter(|(_, &s)| s != 0) {
            let mut j = self.home(slot_tag(s));
            while j != i {
                if self.slots[j] == 0 {
                    return Err(format!(
                        "{} at slot {i} is cut off from its home by empty slot {j}",
                        slot_block(s)
                    ));
                }
                j = (j + 1) & self.mask();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use agentsim_simkit::rng::KeyMap;
    use proptest::prelude::*;

    use super::*;

    /// Block ids the scripts draw from.
    const BLOCKS: u32 = 48;

    #[derive(Debug, Clone)]
    enum Op {
        /// Register an unregistered block under key `k`, replacing any
        /// holder (a fresh block at admission).
        Insert { k: usize },
        /// Register an unregistered block under key `k` unless one holds
        /// it (a block filled by decoding).
        InsertIfAbsent { k: usize },
        /// Unregister the `n`-th registered block (an eviction).
        Remove { n: usize },
        /// Look key `k` up.
        Get { k: usize },
    }

    /// A chain hash. Tags come from a few clusters so that probes collide:
    /// all-ones high bits home in the last slot and wrap past the end, and
    /// a shared tag with distinct low halves needs the full-hash confirm.
    fn key() -> impl Strategy<Value = u64> {
        let tag = prop_oneof![
            (0u32..4).prop_map(|d| u32::MAX - d),
            0u32..4,
            (0u32..4).prop_map(|d| 0x8000_0000 + d),
            any::<u32>(),
        ];
        (tag, 0u32..3).prop_map(|(tag, low)| (u64::from(tag) << 32) | u64::from(low))
    }

    fn op(keys: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..keys).prop_map(|k| Op::Insert { k }),
            (0..keys).prop_map(|k| Op::InsertIfAbsent { k }),
            any::<usize>().prop_map(|n| Op::Remove { n }),
            (0..keys).prop_map(|k| Op::Get { k }),
        ]
    }

    fn script() -> impl Strategy<Value = (Vec<u64>, Vec<Op>)> {
        prop::collection::vec(key(), 1..40).prop_flat_map(|keys| {
            let n = keys.len();
            (Just(keys), prop::collection::vec(op(n), 1..300))
        })
    }

    /// Runs `ops` against the table and a `KeyMap` model side by side.
    /// `hash_of[b]` is block `b`'s chain hash, as a block record holds it.
    fn run(keys: &[u64], ops: &[Op]) -> Result<(), String> {
        let mut table = PrefixTable::default();
        let mut model: KeyMap<BlockId> = KeyMap::default();
        let mut hash_of = vec![0u64; BLOCKS as usize];
        // Unregistered blocks, most recently released last.
        let mut spare: Vec<BlockId> = (0..BLOCKS).rev().map(BlockId).collect();
        for op in ops {
            match *op {
                Op::Insert { k } | Op::InsertIfAbsent { k } => {
                    let Some(id) = spare.pop() else { continue };
                    let h = keys[k];
                    hash_of[id.0 as usize] = h;
                    let key_of = |b: BlockId| hash_of[b.0 as usize];
                    if let Op::Insert { .. } = op {
                        let got = table.insert(h, id, key_of);
                        let want = model.insert(h, id);
                        if got != want {
                            return Err(format!("{op:?}: replaced {got:?}, model {want:?}"));
                        }
                        spare.extend(want);
                    } else {
                        let got = table.insert_if_absent(h, id, key_of);
                        let want = !model.contains_key(&h);
                        if got != want {
                            return Err(format!("{op:?}: inserted {got}, model {want}"));
                        }
                        if want {
                            model.insert(h, id);
                        } else {
                            spare.push(id);
                        }
                    }
                }
                Op::Remove { n } => {
                    if model.is_empty() {
                        continue;
                    }
                    let mut held: Vec<(BlockId, u64)> =
                        model.iter().map(|(&h, &id)| (id, h)).collect();
                    held.sort_unstable();
                    let (id, h) = held[n % held.len()];
                    table.remove(h, id);
                    model.remove(&h);
                    spare.push(id);
                }
                Op::Get { k } => {
                    let got = table.get(keys[k], |b| hash_of[b.0 as usize]);
                    let want = model.get(&keys[k]).copied();
                    if got != want {
                        return Err(format!("{op:?}: got {got:?}, model {want:?}"));
                    }
                }
            }
            table
                .check_invariants()
                .map_err(|e| format!("after {op:?}: {e}"))?;
            if table.len != model.len() {
                return Err(format!(
                    "after {op:?}: {} entries, model {}",
                    table.len,
                    model.len()
                ));
            }
            for (&h, &id) in &model {
                if table.get(h, |b| hash_of[b.0 as usize]) != Some(id) {
                    return Err(format!("after {op:?}: lost {h:#x} -> {id}"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_keymap_model(script in script()) {
            let (keys, ops) = script;
            prop_assert_eq!(run(&keys, &ops), Ok(()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        // The same differential at depth: `cargo test --release -p
        // agentsim-kvcache -- --ignored`.
        #[test]
        #[ignore]
        fn matches_a_keymap_model_deep(script in script()) {
            let (keys, ops) = script;
            prop_assert_eq!(run(&keys, &ops), Ok(()));
        }
    }

    #[test]
    fn a_cluster_wraps_past_the_end_and_closes_on_removal() {
        let mut table = PrefixTable::default();
        // Three hashes homed in the last slot, one homed in slot 0.
        let hashes = [u64::MAX, u64::MAX - 1, u64::MAX - 2, 5];
        let key_of = |b: BlockId| hashes[b.0 as usize];
        for (b, &h) in hashes.iter().enumerate() {
            assert_eq!(table.insert(h, BlockId(b as u32), key_of), None);
        }
        let last = table.slots.len() - 1;
        let at = |table: &PrefixTable, i: usize| slot_block(table.slots[i]).0;
        assert_eq!(
            (
                at(&table, last),
                at(&table, 0),
                at(&table, 1),
                at(&table, 2)
            ),
            (0, 1, 2, 3),
            "the last-slot cluster wrapped onto slot 0 and pushed hash 5 on"
        );
        // Removing the cluster's head shifts both wrapped entries back
        // across the end, and hash 5 back to its home.
        table.remove(u64::MAX, BlockId(0));
        table.check_invariants().unwrap();
        assert_eq!((at(&table, last), at(&table, 0), at(&table, 1)), (1, 2, 3));
        assert_eq!(table.slots[2], 0);
        for (b, &h) in hashes.iter().enumerate().skip(1) {
            assert_eq!(table.get(h, key_of), Some(BlockId(b as u32)));
        }
        assert_eq!(table.get(u64::MAX, key_of), None);
    }

    #[test]
    fn a_shared_tag_is_told_apart_by_the_full_hash() {
        let mut table = PrefixTable::default();
        let hashes = [(7 << 32) | 1, (7 << 32) | 2];
        let key_of = |b: BlockId| hashes[b.0 as usize];
        assert!(table.insert_if_absent(hashes[0], BlockId(0), key_of));
        assert!(table.insert_if_absent(hashes[1], BlockId(1), key_of));
        assert_eq!(table.get(hashes[1], key_of), Some(BlockId(1)));
        assert_eq!(table.get((7 << 32) | 3, key_of), None);
        table.remove(hashes[0], BlockId(0));
        assert_eq!(table.get(hashes[1], key_of), Some(BlockId(1)));
    }

    #[test]
    fn the_table_allocates_on_first_insert_and_doubles_at_its_load_bound() {
        let mut table = PrefixTable::default();
        assert!(table.slots.is_empty());
        let hashes: Vec<u64> = (0..=MIN_SLOTS as u64 / 4).map(|i| i << 40).collect();
        let key_of = |b: BlockId| hashes[b.0 as usize];
        for (b, &h) in hashes.iter().enumerate() {
            table.insert(h, BlockId(b as u32), key_of);
            let want = if b < MIN_SLOTS / SLOTS_PER_ENTRY {
                MIN_SLOTS
            } else {
                2 * MIN_SLOTS
            };
            assert_eq!(table.slots.len(), want, "after {} entries", b + 1);
        }
        table.check_invariants().unwrap();
        for (b, &h) in hashes.iter().enumerate() {
            assert_eq!(table.get(h, key_of), Some(BlockId(b as u32)));
        }
    }
}
