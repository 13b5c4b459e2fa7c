//! Deterministic random numbers with cheap independent sub-streams.
//!
//! All stochastic behaviour in the workspace flows through [`SimRng`], so a
//! single `u64` seed pins an entire experiment. Sub-streams ([`SimRng::fork`])
//! let independent components (each request, each tool call) draw from
//! decorrelated sequences without sharing mutable state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A seedable random number generator for simulations.
///
/// Wraps an in-tree xoshiro256++ core (no external dependency, so the
/// workspace builds offline) and adds domain-separated forking: a parent
/// stream can mint child streams keyed by an arbitrary `u64` (e.g. a request
/// id), and the child sequence is a pure function of `(root seed, key path)`.
///
/// # Example
///
/// ```
/// use agentsim_simkit::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut child = a.fork(123);
/// let _ = child.f64(); // independent of the parent's future draws
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mints an independent child stream keyed by `key`.
    ///
    /// Forking does not consume randomness from the parent, so the parent's
    /// own sequence is unaffected by how many children are created.
    pub fn fork(&self, key: u64) -> SimRng {
        let child_seed = splitmix64(self.seed ^ splitmix64(key.wrapping_add(0x9E37_79B9)));
        SimRng::seed_from(child_seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Uniform `usize` draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty range");
        self.below(n as u64) as usize
    }

    /// Unbiased uniform draw in `[0, n)` (Lemire's multiply-shift method).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.inner.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n || low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

/// The xoshiro256++ generator (Blackman & Vigna) backing [`SimRng`].
///
/// Small, fast, and statistically strong; vendored in-tree so the
/// workspace has zero external runtime dependencies.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the 256-bit state with a SplitMix64
    /// stream (the seeding procedure the xoshiro authors recommend).
    fn seed_from_u64(seed: u64) -> Self {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        if s == [0; 4] {
            s[0] = 1; // the all-zero state is a fixed point
        }
        Xoshiro256PlusPlus { s }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// SplitMix64 mixing function — used to derive well-distributed seeds from
/// structured keys (request ids, stage numbers, …).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A map keyed by a `u64` the simulator makes itself (a chain hash, a
/// sequence or request id), hashed with [`KeyHasher`].
pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// One-multiply hasher for keys the simulator makes itself. Chain hashes
/// are already splitmix64 output and ids count up, so a single odd
/// multiply spreads both over the table; no key comes from outside the
/// program, so SipHash's collision resistance buys nothing here. Its
/// methods are `#[inline]` so the maps of other crates keep the one
/// multiply inline.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes an arbitrary byte string plus an index into a `u64` — used by the
/// token-segment machinery to derive stable content ids.
pub fn hash_key(bytes: &[u8], index: u64) -> u64 {
    // FNV-1a over bytes, then splitmix with the index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h ^ splitmix64(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "streams should be decorrelated, {same} collisions"
        );
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = SimRng::seed_from(5);
        let mut c1 = parent.fork(10);
        let mut c2 = parent.fork(10);
        let mut c3 = parent.fork(11);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        let _ = b.fork(1);
        let _ = b.fork(2);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_rate_is_close() {
        let mut rng = SimRng::seed_from(8);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            let x = rng.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = SimRng::seed_from(7);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hash_key_distinguishes_inputs() {
        assert_ne!(hash_key(b"a", 0), hash_key(b"a", 1));
        assert_ne!(hash_key(b"a", 0), hash_key(b"b", 0));
        assert_eq!(hash_key(b"a", 0), hash_key(b"a", 0));
    }
}
