//! Cascade routing policy: which model tier a turn lands on, and when a
//! failed turn escalates to a more capable (and more expensive) pool.
//!
//! The policy itself is pure configuration — the fleet driver owns the
//! mechanics (re-routing, conversation carry, KV hints); experiment code
//! shares the same vocabulary for cascade behaviour.
//!
//! Two knobs decide the *initial* tier of a turn:
//!
//! * `aptitude_margin` — a pre-screen on the cheap tier's best-case
//!   capability. The driver compares the task's latent aptitude (from
//!   the cognition model) against the cheap agent's deterministic
//!   full-evidence capability ceiling; tasks the cheap tier cannot
//!   solve even in the best case (plus the margin) skip straight to the
//!   premium tier instead of burning a doomed attempt.
//! * `escalate_retries` — deadline-expired retries of a turn re-arrive
//!   on a higher tier (attempt `k` lands on tier `min(k, top)`), on the
//!   theory that a blown deadline on the cheap pool is evidence the
//!   turn needs more capability or less queueing.
//!
//! One knob decides *post-hoc* escalation:
//!
//! * `escalate_on_failure` — a turn that finishes unsolved (and not
//!   expired) is re-run on the next tier up, carrying its conversation
//!   context, until `max_escalations` is exhausted or the top tier has
//!   had its try.

/// Policy for tier selection and failure-driven escalation across a
/// heterogeneous fleet's replica pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadePolicy {
    /// Re-run unsolved (non-expired) turns on the next tier up.
    pub escalate_on_failure: bool,
    /// If set, send turns whose latent aptitude exceeds the cheap
    /// tier's best-case capability minus this margin straight to the
    /// top tier. `None` disables the pre-screen.
    pub aptitude_margin: Option<f64>,
    /// Maximum failure-driven escalations per turn.
    pub max_escalations: u32,
    /// Land deadline-expired retries on progressively higher tiers.
    pub escalate_retries: bool,
}

impl CascadePolicy {
    /// No cascade behaviour at all: every turn lands on tier 0 and
    /// stays there. With a single pool this is bit-identical to the
    /// historical homogeneous fleet.
    pub fn none() -> Self {
        CascadePolicy {
            escalate_on_failure: false,
            aptitude_margin: None,
            max_escalations: 0,
            escalate_retries: false,
        }
    }

    /// The standard cascade: pre-screen hopeless tasks to the top tier
    /// with a 5% margin, escalate failures without limit, and bump
    /// deadline retries up a tier.
    pub fn standard() -> Self {
        CascadePolicy {
            escalate_on_failure: true,
            aptitude_margin: Some(0.05),
            max_escalations: u32::MAX,
            escalate_retries: true,
        }
    }

    /// True when the policy can never change a turn's tier.
    pub fn is_none(&self) -> bool {
        !self.escalate_on_failure && self.aptitude_margin.is_none() && !self.escalate_retries
    }
}

impl Default for CascadePolicy {
    fn default() -> Self {
        CascadePolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = CascadePolicy::none();
        assert!(p.is_none());
        assert!(!p.escalate_on_failure);
        assert_eq!(p.aptitude_margin, None);
        assert_eq!(p.max_escalations, 0);
        assert_eq!(p, CascadePolicy::default());
    }

    #[test]
    fn standard_is_active() {
        let p = CascadePolicy::standard();
        assert!(!p.is_none());
        assert!(p.escalate_on_failure);
        assert!(p.escalate_retries);
        assert!(p.aptitude_margin.unwrap() > 0.0);
        assert_eq!(p.max_escalations, u32::MAX);
    }
}
