//! Pool autoscaling: controllers that flip replicas between the prefill
//! and decode pools at runtime.
//!
//! The right prefill/decode split depends on the workflow mix (ReAct's
//! short interleaved calls are prefill-heavy; chatbot and deep-rollout
//! traffic is decode-heavy) and drifts over a run. A [`PoolController`]
//! watches per-pool demand each event and may ask the driver to *flip*
//! one replica to the other pool. The driver then drains the replica —
//! it stops admitting new work, finishes or migrates everything in
//! flight, waits for committed inbound KV transfers to land — pays the
//! [`agentsim_gpu::FlipCostModel`] reconfiguration gap, and re-inserts
//! the replica into the target pool, emitting
//! [`agentsim_llm::EngineEvent::RoleChanged`] on the replica's observer
//! stream.
//!
//! Controllers are deliberately sans-IO: they see a [`PoolObservation`]
//! snapshot and answer with an optional [`FlipDirection`]. That keeps
//! them deterministic and unit-testable, and lets property tests drive
//! the whole drain machinery from arbitrary [`ScheduleController`] flip
//! schedules.

use agentsim_simkit::{SimDuration, SimTime};

/// Which way a replica should flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipDirection {
    /// Move one prefill replica into the decode pool.
    PrefillToDecode,
    /// Move one decode replica into the prefill pool.
    DecodeToPrefill,
}

impl FlipDirection {
    /// Stable lowercase name (used in reports and traces).
    pub fn name(self) -> &'static str {
        match self {
            FlipDirection::PrefillToDecode => "prefill_to_decode",
            FlipDirection::DecodeToPrefill => "decode_to_prefill",
        }
    }
}

/// A point-in-time snapshot of pool demand, handed to
/// [`PoolController::observe`] once per simulation event.
#[derive(Debug, Clone, Copy)]
pub struct PoolObservation {
    /// Current simulated time.
    pub now: SimTime,
    /// Live prefill-pool members (excludes any draining replica).
    pub prefill_replicas: usize,
    /// Live decode-pool members (excludes any draining replica).
    pub decode_replicas: usize,
    /// Whether a flip is already in progress (the driver ignores new
    /// flip requests while one is).
    pub flip_in_progress: bool,
    /// Requests queued across the prefill pool.
    pub prefill_queue: usize,
    /// Sequences running across the prefill pool.
    pub prefill_running: usize,
    /// Requests queued across the decode pool.
    pub decode_queue: usize,
    /// Sequences running across the decode pool.
    pub decode_running: usize,
    /// KV transfers in the air toward the decode pool (imminent decode
    /// work).
    pub transfers_in_flight: usize,
}

impl PoolObservation {
    /// Prefill demand per live prefill replica.
    pub fn prefill_demand(&self) -> f64 {
        if self.prefill_replicas == 0 {
            return 0.0;
        }
        (self.prefill_queue + self.prefill_running) as f64 / self.prefill_replicas as f64
    }

    /// Decode demand per live decode replica (in-flight transfers count:
    /// they are committed decode work).
    pub fn decode_demand(&self) -> f64 {
        if self.decode_replicas == 0 {
            return 0.0;
        }
        (self.decode_queue + self.decode_running + self.transfers_in_flight) as f64
            / self.decode_replicas as f64
    }
}

/// Decides when to flip a replica between pools.
///
/// Implementations must be deterministic functions of the observation
/// stream — the driver calls [`PoolController::observe`] after every
/// simulation event, in event order, and reports stay bit-reproducible
/// only if controllers never consult outside state.
pub trait PoolController: std::fmt::Debug {
    /// Observes current demand; returns a flip request, or `None` to
    /// leave the pools alone. Called once per simulation event. The
    /// driver ignores requests while a flip is in progress or when the
    /// source pool is at its floor of one replica.
    fn observe(&mut self, obs: &PoolObservation) -> Option<FlipDirection>;
}

/// Tuning for the default [`HysteresisController`].
#[derive(Debug, Clone, PartialEq)]
pub struct HysteresisConfig {
    /// Flip decode→prefill once the prefill/decode demand ratio has
    /// stayed above this for `dwell`.
    pub high: f64,
    /// Flip prefill→decode once the ratio has stayed below this for
    /// `dwell`.
    pub low: f64,
    /// How long the ratio must stay out of band before a flip fires
    /// (guards against reacting to one bursty batch).
    pub dwell: SimDuration,
    /// Never shrink the prefill pool below this.
    pub min_prefill: usize,
    /// Never shrink the decode pool below this.
    pub min_decode: usize,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        HysteresisConfig {
            high: 2.0,
            low: 0.5,
            dwell: SimDuration::from_secs(5),
            min_prefill: 1,
            min_decode: 1,
        }
    }
}

/// The default controller: a hysteresis band on the per-replica
/// prefill/decode demand ratio, with a dwell timer.
///
/// The ratio must leave the `[low, high]` band and *stay* out for
/// `dwell` simulated time before a flip fires; after a flip both timers
/// reset, so consecutive flips are at least `dwell` apart. The band plus
/// the dwell is what prevents ping-ponging when demand sits near the
/// boundary.
#[derive(Debug)]
pub struct HysteresisController {
    config: HysteresisConfig,
    above_since: Option<SimTime>,
    below_since: Option<SimTime>,
}

impl HysteresisController {
    /// Creates the controller with the given tuning.
    pub fn new(config: HysteresisConfig) -> Self {
        assert!(
            config.low < config.high,
            "hysteresis band must be non-empty: low {} >= high {}",
            config.low,
            config.high
        );
        HysteresisController {
            config,
            above_since: None,
            below_since: None,
        }
    }
}

impl PoolController for HysteresisController {
    fn observe(&mut self, obs: &PoolObservation) -> Option<FlipDirection> {
        if obs.flip_in_progress {
            // Demand during a drain is distorted (one replica is
            // leaving); restart the timers afterwards.
            self.above_since = None;
            self.below_since = None;
            return None;
        }
        // An idle cluster (no demand anywhere) says nothing about the
        // split; keep the timers running only on live signal.
        let prefill = obs.prefill_demand();
        let decode = obs.decode_demand();
        if prefill == 0.0 && decode == 0.0 {
            self.above_since = None;
            self.below_since = None;
            return None;
        }
        // Ratio with a protected denominator: an empty decode pool under
        // prefill load reads as "very prefill-heavy".
        let ratio = if decode == 0.0 {
            f64::INFINITY
        } else {
            prefill / decode
        };
        if ratio > self.config.high {
            self.below_since = None;
            let since = *self.above_since.get_or_insert(obs.now);
            if obs.now.saturating_since(since) >= self.config.dwell
                && obs.decode_replicas > self.config.min_decode
            {
                self.above_since = None;
                return Some(FlipDirection::DecodeToPrefill);
            }
        } else if ratio < self.config.low {
            self.above_since = None;
            let since = *self.below_since.get_or_insert(obs.now);
            if obs.now.saturating_since(since) >= self.config.dwell
                && obs.prefill_replicas > self.config.min_prefill
            {
                self.below_since = None;
                return Some(FlipDirection::PrefillToDecode);
            }
        } else {
            self.above_since = None;
            self.below_since = None;
        }
        None
    }
}

/// Replays a fixed flip schedule: each entry fires once its time is
/// reached (in order). Infeasible entries (source pool at its floor) are
/// dropped by the driver, deterministically.
#[derive(Debug)]
pub struct ScheduleController {
    schedule: Vec<(SimTime, FlipDirection)>,
    next: usize,
}

impl ScheduleController {
    /// Creates the controller. The schedule is sorted by time (stable,
    /// so same-time entries keep their given order).
    pub fn new(mut schedule: Vec<(SimTime, FlipDirection)>) -> Self {
        schedule.sort_by_key(|&(at, _)| at);
        ScheduleController { schedule, next: 0 }
    }
}

impl PoolController for ScheduleController {
    fn observe(&mut self, obs: &PoolObservation) -> Option<FlipDirection> {
        if obs.flip_in_progress {
            return None;
        }
        match self.schedule.get(self.next) {
            Some(&(at, direction)) if at <= obs.now => {
                self.next += 1;
                Some(direction)
            }
            _ => None,
        }
    }
}

/// A controller pinned to the static split: observes everything, flips
/// nothing. Exists to prove the controller plumbing itself does not
/// perturb a run (the pinned report must match the autoscaling-disabled
/// golden fingerprints bit for bit).
#[derive(Debug, Default)]
pub struct PinnedController;

impl PoolController for PinnedController {
    fn observe(&mut self, _obs: &PoolObservation) -> Option<FlipDirection> {
        None
    }
}

/// Which controller (if any) a role-split fleet runs with.
#[derive(Debug, Clone)]
pub enum AutoscalePolicy {
    /// No controller at all — the exact static-split code path.
    Disabled,
    /// A [`PinnedController`]: full controller plumbing, zero flips.
    Pinned,
    /// The default [`HysteresisController`].
    Hysteresis(HysteresisConfig),
    /// A fixed [`ScheduleController`] flip schedule.
    Schedule(Vec<(SimTime, FlipDirection)>),
}

impl AutoscalePolicy {
    /// Builds the controller, or `None` for [`AutoscalePolicy::Disabled`].
    pub fn build(&self) -> Option<Box<dyn PoolController>> {
        match self {
            AutoscalePolicy::Disabled => None,
            AutoscalePolicy::Pinned => Some(Box::new(PinnedController)),
            AutoscalePolicy::Hysteresis(cfg) => {
                Some(Box::new(HysteresisController::new(cfg.clone())))
            }
            AutoscalePolicy::Schedule(entries) => {
                Some(Box::new(ScheduleController::new(entries.clone())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_s: u64, pq: usize, dq: usize) -> PoolObservation {
        PoolObservation {
            now: SimTime::from_secs_f64(now_s as f64),
            prefill_replicas: 2,
            decode_replicas: 2,
            flip_in_progress: false,
            prefill_queue: pq,
            prefill_running: 0,
            decode_queue: dq,
            decode_running: 0,
            transfers_in_flight: 0,
        }
    }

    #[test]
    fn hysteresis_needs_dwell_before_flipping() {
        let mut c = HysteresisController::new(HysteresisConfig {
            dwell: SimDuration::from_secs(5),
            ..HysteresisConfig::default()
        });
        // Prefill-heavy (ratio 10/1 per-replica): above the band.
        assert_eq!(c.observe(&obs(0, 20, 2)), None, "dwell starts");
        assert_eq!(c.observe(&obs(4, 20, 2)), None, "still dwelling");
        assert_eq!(
            c.observe(&obs(5, 20, 2)),
            Some(FlipDirection::DecodeToPrefill)
        );
        // Timers reset after the flip fires.
        assert_eq!(c.observe(&obs(5, 20, 2)), None);
    }

    #[test]
    fn hysteresis_in_band_resets_the_timer() {
        let mut c = HysteresisController::new(HysteresisConfig {
            dwell: SimDuration::from_secs(5),
            ..HysteresisConfig::default()
        });
        assert_eq!(c.observe(&obs(0, 20, 2)), None);
        assert_eq!(c.observe(&obs(3, 4, 4)), None, "back in band");
        assert_eq!(c.observe(&obs(6, 20, 2)), None, "dwell restarts");
        assert_eq!(c.observe(&obs(10, 20, 2)), None);
        assert_eq!(
            c.observe(&obs(11, 20, 2)),
            Some(FlipDirection::DecodeToPrefill)
        );
    }

    #[test]
    fn hysteresis_flips_toward_decode_when_decode_heavy() {
        let mut c = HysteresisController::new(HysteresisConfig {
            dwell: SimDuration::ZERO,
            ..HysteresisConfig::default()
        });
        assert_eq!(
            c.observe(&obs(1, 1, 20)),
            Some(FlipDirection::PrefillToDecode)
        );
    }

    #[test]
    fn hysteresis_respects_pool_floors() {
        let mut c = HysteresisController::new(HysteresisConfig {
            dwell: SimDuration::ZERO,
            min_decode: 2,
            ..HysteresisConfig::default()
        });
        // Would flip decode→prefill, but the decode pool is at its floor.
        assert_eq!(c.observe(&obs(1, 20, 1)), None);
    }

    #[test]
    fn hysteresis_ignores_idle_and_mid_flip_observations() {
        let mut c = HysteresisController::new(HysteresisConfig {
            dwell: SimDuration::ZERO,
            ..HysteresisConfig::default()
        });
        assert_eq!(c.observe(&obs(1, 0, 0)), None, "idle cluster");
        let mut busy = obs(2, 20, 2);
        busy.flip_in_progress = true;
        assert_eq!(c.observe(&busy), None, "mid-flip");
    }

    #[test]
    #[should_panic(expected = "band must be non-empty")]
    fn inverted_band_rejected() {
        let _ = HysteresisController::new(HysteresisConfig {
            low: 3.0,
            high: 2.0,
            ..HysteresisConfig::default()
        });
    }

    #[test]
    fn schedule_fires_in_time_order() {
        let mut c = ScheduleController::new(vec![
            (SimTime::from_secs_f64(10.0), FlipDirection::DecodeToPrefill),
            (SimTime::from_secs_f64(2.0), FlipDirection::PrefillToDecode),
        ]);
        assert_eq!(c.observe(&obs(1, 0, 0)), None);
        assert_eq!(
            c.observe(&obs(3, 0, 0)),
            Some(FlipDirection::PrefillToDecode)
        );
        assert_eq!(c.observe(&obs(3, 0, 0)), None, "one fire per entry");
        assert_eq!(
            c.observe(&obs(11, 0, 0)),
            Some(FlipDirection::DecodeToPrefill)
        );
        assert_eq!(c.observe(&obs(12, 0, 0)), None, "schedule exhausted");
    }

    #[test]
    fn pinned_never_flips() {
        let mut c = PinnedController;
        assert_eq!(c.observe(&obs(1, 100, 0)), None);
        assert_eq!(c.observe(&obs(2, 0, 100)), None);
    }

    #[test]
    fn policy_builds_the_matching_controller() {
        assert!(AutoscalePolicy::Disabled.build().is_none());
        assert!(AutoscalePolicy::Pinned.build().is_some());
        assert!(AutoscalePolicy::Hysteresis(HysteresisConfig::default())
            .build()
            .is_some());
        assert!(AutoscalePolicy::Schedule(Vec::new()).build().is_some());
    }
}
