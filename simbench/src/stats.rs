//! The benchmark's own arithmetic: order statistics over host timings,
//! guarded ratios, and the bit-exact fingerprint of simulated outputs.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice or one holding a NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, `q` in `[0, 1]`, by linear interpolation
/// between the closest ranks (rank `q * (n - 1)` over the sorted values).
/// `None` for an empty slice or one holding a NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// `num / den`, or `None` when the denominator is zero (the ratio is
/// undefined, not zero).
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// A 64-bit FNV-1a hash over a sequence of 64-bit words: the fingerprint
/// of a run's simulated outputs or traced counts. Floats enter as their
/// bit patterns, so any change in any bit of any input changes the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in, byte by byte (little-endian).
    pub fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds one float in by its exact bit pattern.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Fingerprint of a whole word sequence.
    pub fn of(words: &[u64]) -> Self {
        let mut fp = Fingerprint::default();
        for &w in words {
            fp.word(w);
        }
        fp
    }

    /// The hash value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        // Rank 0.95 * 4 = 3.8: 40 + 0.8 * (50 - 40).
        assert_eq!(quantile(&v, 0.95), Some(48.0));
        // Input order does not matter.
        assert_eq!(quantile(&[50.0, 10.0, 40.0, 20.0, 30.0], 0.95), Some(48.0));
    }

    #[test]
    fn quantile_rejects_empty_and_nan() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn ratio_is_undefined_on_zero_denominator() {
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        assert_eq!(ratio(0.0, 2.0), Some(0.0));
        assert_eq!(ratio(1.0, 0.0), None);
    }

    #[test]
    fn fingerprint_is_fnv1a_over_little_endian_words() {
        // FNV-1a of the eight zero bytes of one 0u64 word.
        let mut expected: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            expected = expected.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(Fingerprint::of(&[0]).value(), expected);
        assert_eq!(Fingerprint::of(&[]).value(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fingerprint_sees_order_and_every_float_bit() {
        assert_ne!(Fingerprint::of(&[1, 2]), Fingerprint::of(&[2, 1]));
        let mut a = Fingerprint::default();
        a.float(0.1 + 0.2);
        let mut b = Fingerprint::default();
        b.float(0.3);
        assert_ne!(a, b, "one ulp apart must not collide");
        let mut c = Fingerprint::default();
        c.float(0.3);
        assert_eq!(b, c);
        let mut d = Fingerprint::default();
        d.word(5).float(1.5);
        assert_eq!(d, Fingerprint::of(&[5, 1.5f64.to_bits()]));
    }
}
