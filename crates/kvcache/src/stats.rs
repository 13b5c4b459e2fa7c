//! Cache statistics: hit rates, evictions, and time-weighted occupancy.

use agentsim_simkit::SimTime;

/// Time-weighted gauge: tracks average and peak of an integer quantity
/// that changes at discrete instants.
#[derive(Debug, Clone, Default)]
pub struct UsageTracker {
    area: f64, // value x seconds
    last_change: SimTime,
    current: u64,
    peak: u64,
}

impl UsageTracker {
    /// Creates a tracker starting at zero.
    pub fn new() -> Self {
        UsageTracker::default()
    }

    /// Records that the gauge changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: u64) {
        let dt = now.saturating_since(self.last_change).as_secs_f64();
        self.area += self.current as f64 * dt;
        self.last_change = now;
        self.current = value;
        self.peak = self.peak.max(value);
    }

    /// Current gauge value.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Peak gauge value observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Time-weighted average over `[0, end]`.
    ///
    /// Returns zero if `end` is the origin.
    pub fn average(&self, end: SimTime) -> f64 {
        let total = end.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let tail = end.saturating_since(self.last_change).as_secs_f64();
        (self.area + self.current as f64 * tail) / total
    }
}

/// Aggregate statistics of a [`crate::KvBlockManager`].
#[derive(Debug, Clone, Default)]
pub struct KvStats {
    /// Prompt tokens served from the prefix cache.
    pub hit_tokens: u64,
    /// Prompt tokens that had to be computed.
    pub miss_tokens: u64,
    /// Cached blocks evicted to make room.
    pub evictions: u64,
    /// Sequences admitted.
    pub sequences: u64,
    /// Admissions (`allocate` or `import`) refused for lack of blocks.
    /// The engine admits without a pre-check, so under an engine this
    /// counts the admission passes that stopped at a head-of-line request
    /// the pool could not hold.
    pub rejections: u64,
    /// Tokens admitted via [`crate::KvBlockManager::import`]: their KV was
    /// computed elsewhere (disaggregated prefill) and transferred in, so
    /// they count as neither hits nor misses.
    pub imported_tokens: u64,
    /// Tokens whose KV left this pool via
    /// [`crate::KvBlockManager::export`] for decode elsewhere.
    pub exported_tokens: u64,
    /// Time-weighted active (referenced) block occupancy.
    pub used_blocks: UsageTracker,
    /// Blocks demoted HBM → host tier (offload hierarchy only).
    pub demoted_blocks_host: u64,
    /// Blocks demoted onto the NVMe tier (host overflow, or direct with
    /// no host tier).
    pub demoted_blocks_nvme: u64,
    /// Blocks promoted host tier → HBM on admission.
    pub promoted_blocks_host: u64,
    /// Blocks promoted NVMe tier → HBM on admission.
    pub promoted_blocks_nvme: u64,
    /// Prompt tokens served from an offload tier instead of recompute
    /// (a subset of `hit_tokens`).
    pub promoted_tokens: u64,
    /// Blocks that fell off the bottom of the hierarchy (their next use,
    /// if any, is a full recompute).
    pub offload_dropped_blocks: u64,
    /// Peak host-tier occupancy in blocks.
    pub host_peak_blocks: u64,
    /// Peak NVMe-tier occupancy in blocks.
    pub nvme_peak_blocks: u64,
}

impl KvStats {
    /// Fraction of looked-up prompt tokens served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_tokens + self.miss_tokens;
        if total == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_time_weighted_average() {
        let mut t = UsageTracker::new();
        t.set(SimTime::ZERO, 10);
        t.set(SimTime::from_secs_f64(1.0), 20);
        // 10 for 1 s, then 20 for 1 s => avg 15 at t = 2 s.
        let avg = t.average(SimTime::from_secs_f64(2.0));
        assert!((avg - 15.0).abs() < 1e-9, "avg {avg}");
        assert_eq!(t.peak(), 20);
        assert_eq!(t.current(), 20);
    }

    #[test]
    fn tracker_average_at_origin_is_zero() {
        let t = UsageTracker::new();
        assert_eq!(t.average(SimTime::ZERO), 0.0);
    }

    #[test]
    fn hit_rate_handles_empty() {
        let s = KvStats::default();
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes_fraction() {
        let s = KvStats {
            hit_tokens: 30,
            miss_tokens: 70,
            ..KvStats::default()
        };
        assert!((s.hit_rate() - 0.3).abs() < 1e-12);
    }
}
