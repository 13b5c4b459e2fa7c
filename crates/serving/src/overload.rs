//! Overload-resilience policy: deadlines, retries, admission control,
//! and queue disciplines.
//!
//! The paper's capacity conclusions assume every arrival is served to
//! completion, but real agent services shed load: clients give up after
//! a deadline, front-ends retry with backoff, and serving layers bound
//! concurrency to avoid congestion collapse. This module holds the
//! *policy* vocabulary — the fleet driver owns the mechanics
//! (cancellation, dispatch queues, retry scheduling) and makes every
//! decision in event order, so runs replay bit-identically.
//!
//! An [`OverloadPolicy`] combines four knobs:
//!
//! * **deadline** — how long a client waits for a logical turn before
//!   abandoning it,
//! * **cancellation** — whether the server tears the attempt down at
//!   expiry ([`agentsim_llm` engines][Engine-cancel] release KV and stop
//!   burning steps) or keeps serving a request nobody will read,
//! * **retry** — an exponential-backoff re-issue policy
//!   ([`RetryPolicy`]),
//! * **admission** — a per-replica concurrency limit
//!   ([`AdmissionController`]): the naive [`AcceptAll`] baseline or an
//!   AIMD limiter ([`AimdLimiter`]) that backs off on timeouts, plus the
//!   dispatch-queue discipline ([`QueueDiscipline`]) applied while ops
//!   wait for an admission slot.
//!
//! [Engine-cancel]: https://docs.rs/agentsim-llm

use agentsim_simkit::SimDuration;

use crate::client::ClientModel;

/// Validates the offered-load parameters every serving driver shares.
///
/// `FleetConfig::pooled` and `FleetSim::new` route their
/// `qps`/`num_requests` through here, so the checks — and the panic
/// messages — cannot drift apart.
///
/// # Panics
///
/// Panics if `qps` is not a positive finite number or `num_requests` is
/// zero.
pub(crate) fn validate_load(qps: f64, num_requests: u64) {
    assert!(
        qps.is_finite() && qps > 0.0,
        "offered load must be a positive finite qps, got {qps}"
    );
    assert!(num_requests > 0, "a run must issue at least one request");
}

/// How queued work waiting for an admission slot is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-in first-out (fair, but under overload every request waits
    /// long enough to miss its deadline).
    #[default]
    Fifo,
    /// Last-in first-out (newest work first: fresh requests still have
    /// deadline budget left, old ones were probably abandoned anyway).
    Lifo,
    /// Earliest-deadline-first service, and expired entries are dropped
    /// at dispatch instead of being started for a client that already
    /// gave up. Requires a deadline.
    DeadlineDrop,
}

impl QueueDiscipline {
    /// Stable lowercase name (used by reports).
    pub fn name(self) -> &'static str {
        match self {
            QueueDiscipline::Fifo => "fifo",
            QueueDiscipline::Lifo => "lifo",
            QueueDiscipline::DeadlineDrop => "deadline-drop",
        }
    }
}

impl std::fmt::Display for QueueDiscipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Retry-with-exponential-backoff for turns whose deadline expired.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Re-issues after the initial attempt (attempt indices `1..=max`).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied per subsequent retry (≥ 1).
    pub backoff_mult: f64,
}

impl RetryPolicy {
    /// A conventional default: 2 retries, 1s base, doubling.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: SimDuration::from_secs(1),
            backoff_mult: 2.0,
        }
    }

    /// Backoff delay after failed attempt number `attempt` (0-based):
    /// `base * mult^attempt`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let scale = self.backoff_mult.powi(attempt as i32);
        SimDuration::from_secs_f64(self.backoff_base.as_secs_f64() * scale)
    }

    fn validate(&self) {
        assert!(
            self.backoff_base > SimDuration::ZERO,
            "retry backoff base must be positive"
        );
        assert!(
            self.backoff_mult.is_finite() && self.backoff_mult >= 1.0,
            "retry backoff multiplier must be finite and >= 1, got {}",
            self.backoff_mult
        );
    }
}

/// A per-replica concurrency limiter the drivers consult before moving
/// queued work onto an engine.
///
/// Implementations must be deterministic pure functions of their call
/// sequence — drivers invoke them in event order, which is what keeps
/// runs bit-identical across replays.
pub(crate) trait AdmissionController: std::fmt::Debug + Send {
    /// Maximum engine calls this replica may have in flight right now.
    fn limit(&self) -> usize;
    /// A call completed and was delivered to a live client.
    fn on_success(&mut self);
    /// A deadline expired while this replica held calls for the turn.
    fn on_timeout(&mut self);
}

/// The naive baseline: no limit, every arrival is admitted immediately.
/// This reproduces the historical driver behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AcceptAll;

impl AdmissionController for AcceptAll {
    fn limit(&self) -> usize {
        usize::MAX
    }
    fn on_success(&mut self) {}
    fn on_timeout(&mut self) {}
}

/// Additive-increase / multiplicative-decrease concurrency limiter (the
/// TCP-style gradient used by Netflix's `concurrency-limits` and the
/// `squeeze` crate): grow the limit slowly while work succeeds, cut it
/// sharply when deadlines expire.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AimdLimiter {
    limit: f64,
    min: f64,
    max: f64,
    increase: f64,
    decrease: f64,
}

impl AimdLimiter {
    /// Builds a limiter from a validated [`AdmissionPolicy::Aimd`].
    pub fn new(initial: f64, min: f64, max: f64, increase: f64, decrease: f64) -> Self {
        let limiter = AimdLimiter {
            limit: initial,
            min,
            max,
            increase,
            decrease,
        };
        limiter.validate();
        limiter
    }

    fn validate(&self) {
        assert!(
            self.min >= 1.0 && self.min <= self.limit && self.limit <= self.max,
            "aimd limits must satisfy 1 <= min <= initial <= max, got \
             min={} initial={} max={}",
            self.min,
            self.limit,
            self.max
        );
        assert!(
            self.increase.is_finite() && self.increase > 0.0,
            "aimd additive increase must be positive, got {}",
            self.increase
        );
        assert!(
            self.decrease > 0.0 && self.decrease < 1.0,
            "aimd multiplicative decrease must be in (0, 1), got {}",
            self.decrease
        );
    }

    /// The current fractional limit (floored by [`AdmissionController::limit`]).
    #[cfg(test)]
    fn current(&self) -> f64 {
        self.limit
    }
}

impl AdmissionController for AimdLimiter {
    fn limit(&self) -> usize {
        self.limit as usize
    }

    fn on_success(&mut self) {
        // Additive increase spread over a window of `limit` successes:
        // roughly +increase per round trip, as in TCP congestion control.
        self.limit = (self.limit + self.increase / self.limit).min(self.max);
    }

    fn on_timeout(&mut self) {
        self.limit = (self.limit * self.decrease).max(self.min);
    }
}

/// Declarative admission-control choice, carried by [`OverloadPolicy`].
/// Cheap to clone; the driver builds one controller per replica.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// No limit (the naive baseline).
    #[default]
    AcceptAll,
    /// An additive-increase / multiplicative-decrease limiter per
    /// replica: the limit grows by `increase` per window of `limit`
    /// successes and is multiplied by `decrease` on each timeout,
    /// staying within `[min, max]`.
    Aimd {
        /// Starting concurrency limit.
        initial: f64,
        /// Floor the limit never drops below (≥ 1).
        min: f64,
        /// Ceiling the limit never exceeds.
        max: f64,
        /// Additive increase per successful window.
        increase: f64,
        /// Multiplicative decrease factor on timeout, in `(0, 1)`.
        decrease: f64,
    },
}

impl AdmissionPolicy {
    /// A reasonable adaptive default: start at 8 concurrent calls,
    /// halve on timeout, floor 1, ceiling 64.
    pub fn aimd_default() -> Self {
        AdmissionPolicy::Aimd {
            initial: 8.0,
            min: 1.0,
            max: 64.0,
            increase: 1.0,
            decrease: 0.5,
        }
    }

    /// Instantiates the controller for one replica.
    pub(crate) fn build(&self) -> Box<dyn AdmissionController> {
        match *self {
            AdmissionPolicy::AcceptAll => Box::new(AcceptAll),
            AdmissionPolicy::Aimd {
                initial,
                min,
                max,
                increase,
                decrease,
            } => Box::new(AimdLimiter::new(initial, min, max, increase, decrease)),
        }
    }

    /// Stable lowercase name (used by reports).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::AcceptAll => "accept-all",
            AdmissionPolicy::Aimd { .. } => "aimd",
        }
    }

    fn validate(&self) {
        // Construction runs the full invariant check.
        let _ = self.build();
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The complete overload model a driver runs under. The default
/// ([`OverloadPolicy::none`]) disables every mechanism and reproduces
/// the historical no-deadline behaviour bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadPolicy {
    /// Client patience per logical turn, measured from the turn's
    /// arrival. `None` disables deadlines (and everything downstream).
    pub deadline: Option<SimDuration>,
    /// Tear the attempt down at expiry: cancel its in-flight engine
    /// calls (KV released at the next step boundary) and free its
    /// session slot. Without this the server keeps serving the request
    /// and the finished work is counted as late/wasted.
    pub cancel_on_expiry: bool,
    /// Re-issue expired turns with exponential backoff. Requires
    /// `cancel_on_expiry` (two live attempts of one turn cannot share a
    /// session slot).
    pub retry: Option<RetryPolicy>,
    /// Per-replica concurrency limiter.
    pub admission: AdmissionPolicy,
    /// Ordering of ops queued while a replica is at its limit.
    pub discipline: QueueDiscipline,
}

impl OverloadPolicy {
    /// No deadlines, no retries, accept-all admission: the historical
    /// behaviour.
    pub fn none() -> Self {
        OverloadPolicy::default()
    }

    /// Builder: sets the per-turn deadline.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: enables server-side cancellation at expiry.
    pub fn cancel_on_expiry(mut self) -> Self {
        self.cancel_on_expiry = true;
        self
    }

    /// Builder: sets the retry policy (implies cancellation).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Builder: sets the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Builder: sets the dispatch-queue discipline.
    pub fn discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Checks internal consistency and compatibility with `client`.
    ///
    /// # Panics
    ///
    /// Panics when the combination cannot run: retries without
    /// cancellation, cancellation or deadline-drop without a deadline,
    /// non-positive deadline, invalid retry/AIMD parameters, or a
    /// closed-loop client with deadlines but no cancellation (the next
    /// turn would collide with the still-running expired attempt in the
    /// same session slot).
    pub fn validate(&self, client: &ClientModel) {
        if let Some(deadline) = self.deadline {
            assert!(
                deadline > SimDuration::ZERO,
                "deadline must be positive when set"
            );
        }
        assert!(
            !self.cancel_on_expiry || self.deadline.is_some(),
            "cancel_on_expiry requires a deadline"
        );
        assert!(
            self.retry.is_none() || self.cancel_on_expiry,
            "a retry policy requires cancel_on_expiry: the expired attempt \
             must be torn down before its retry reuses the session slot"
        );
        assert!(
            self.discipline != QueueDiscipline::DeadlineDrop || self.deadline.is_some(),
            "the deadline-drop discipline requires a deadline"
        );
        if matches!(client, ClientModel::ClosedLoop { .. }) {
            assert!(
                self.deadline.is_none() || self.cancel_on_expiry,
                "a closed-loop client with deadlines requires cancel_on_expiry: \
                 the user's next turn reuses the expired attempt's session slot"
            );
        }
        if let Some(retry) = &self.retry {
            retry.validate();
        }
        self.admission.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_load_accepts_sane_parameters() {
        validate_load(0.5, 1);
        validate_load(1e6, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn validate_load_rejects_zero_qps() {
        validate_load(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn validate_load_rejects_nan_qps() {
        validate_load(f64::NAN, 10);
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn validate_load_rejects_infinite_qps() {
        validate_load(f64::INFINITY, 10);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn validate_load_rejects_zero_requests() {
        validate_load(1.0, 0);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_secs(1),
            backoff_mult: 2.0,
        };
        assert_eq!(r.backoff(0), SimDuration::from_secs(1));
        assert_eq!(r.backoff(1), SimDuration::from_secs(2));
        assert_eq!(r.backoff(2), SimDuration::from_secs(4));
        // A multiplier of exactly 1 keeps the delay flat.
        let flat = RetryPolicy {
            backoff_mult: 1.0,
            ..r
        };
        assert_eq!(flat.backoff(5), SimDuration::from_secs(1));
    }

    #[test]
    fn accept_all_never_limits() {
        let mut c = AcceptAll;
        assert_eq!(c.limit(), usize::MAX);
        c.on_timeout();
        c.on_success();
        assert_eq!(c.limit(), usize::MAX);
    }

    #[test]
    fn aimd_limiter_grows_additively_and_shrinks_multiplicatively() {
        let mut l = AimdLimiter::new(8.0, 1.0, 64.0, 1.0, 0.5);
        assert_eq!(l.limit(), 8);
        l.on_timeout();
        assert_eq!(l.limit(), 4);
        l.on_timeout();
        l.on_timeout();
        l.on_timeout();
        assert_eq!(l.limit(), 1, "floored at min");
        // Growth is gradual: ~limit successes raise the limit by ~increase.
        let before = l.current();
        for _ in 0..4 {
            l.on_success();
        }
        assert!(l.current() > before + 1.0);
        for _ in 0..100_000 {
            l.on_success();
        }
        assert_eq!(l.limit(), 64, "capped at max");
    }

    #[test]
    fn aimd_limiter_is_deterministic() {
        let drive = || {
            let mut l = AimdLimiter::new(8.0, 1.0, 64.0, 1.0, 0.5);
            for i in 0..1000 {
                if i % 7 == 0 {
                    l.on_timeout();
                } else {
                    l.on_success();
                }
            }
            l.current().to_bits()
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    #[should_panic(expected = "1 <= min <= initial <= max")]
    fn aimd_rejects_inverted_bounds() {
        let _ = AimdLimiter::new(8.0, 16.0, 64.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "multiplicative decrease must be in (0, 1)")]
    fn aimd_rejects_growing_decrease() {
        let _ = AimdLimiter::new(8.0, 1.0, 64.0, 1.0, 1.5);
    }

    #[test]
    fn default_policy_is_inactive_and_valid_for_every_client() {
        let p = OverloadPolicy::none();
        p.validate(&ClientModel::OpenLoopPoisson);
        p.validate(&ClientModel::ClosedLoop {
            concurrency: 4,
            think_time: SimDuration::from_secs(1),
        });
        p.validate(&ClientModel::TraceReplay { gaps: vec![] });
    }

    #[test]
    fn full_policy_validates() {
        let p = OverloadPolicy::none()
            .deadline(SimDuration::from_secs(30))
            .cancel_on_expiry()
            .retry(RetryPolicy::standard())
            .admission(AdmissionPolicy::aimd_default())
            .discipline(QueueDiscipline::DeadlineDrop);
        assert_ne!(p, OverloadPolicy::none());
        p.validate(&ClientModel::OpenLoopPoisson);
    }

    #[test]
    #[should_panic(expected = "requires cancel_on_expiry")]
    fn retry_without_cancellation_is_rejected() {
        OverloadPolicy::none()
            .deadline(SimDuration::from_secs(30))
            .retry(RetryPolicy::standard())
            .validate(&ClientModel::OpenLoopPoisson);
    }

    #[test]
    #[should_panic(expected = "requires a deadline")]
    fn cancellation_without_deadline_is_rejected() {
        OverloadPolicy::none()
            .cancel_on_expiry()
            .validate(&ClientModel::OpenLoopPoisson);
    }

    #[test]
    #[should_panic(expected = "deadline-drop discipline requires a deadline")]
    fn deadline_drop_without_deadline_is_rejected() {
        OverloadPolicy::none()
            .discipline(QueueDiscipline::DeadlineDrop)
            .validate(&ClientModel::OpenLoopPoisson);
    }

    #[test]
    #[should_panic(expected = "closed-loop client with deadlines requires cancel_on_expiry")]
    fn closed_loop_with_deadline_requires_cancellation() {
        OverloadPolicy::none()
            .deadline(SimDuration::from_secs(30))
            .validate(&ClientModel::ClosedLoop {
                concurrency: 2,
                think_time: SimDuration::ZERO,
            });
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_is_rejected() {
        OverloadPolicy::none()
            .deadline(SimDuration::ZERO)
            .validate(&ClientModel::OpenLoopPoisson);
    }

    #[test]
    fn discipline_and_policy_names_are_stable() {
        assert_eq!(QueueDiscipline::Fifo.to_string(), "fifo");
        assert_eq!(QueueDiscipline::Lifo.name(), "lifo");
        assert_eq!(QueueDiscipline::DeadlineDrop.name(), "deadline-drop");
        assert_eq!(AdmissionPolicy::AcceptAll.to_string(), "accept-all");
        assert_eq!(AdmissionPolicy::aimd_default().name(), "aimd");
    }
}
