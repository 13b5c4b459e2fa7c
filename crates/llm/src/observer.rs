//! Engine observability: structured lifecycle and step events.
//!
//! The paper's time-resolved figures (prefill/decode attribution,
//! KV-occupancy-over-time, batch composition, preemption counts — its
//! Figs. 5–13) all require *step-level* visibility into the serving
//! engine, not end-of-run aggregates. An [`EngineObserver`] attached via
//! [`Engine::set_observer`](crate::Engine::set_observer) receives every
//! [`EngineEvent`] as it happens; when no observer is attached the engine
//! skips event construction entirely, so the hook costs nothing on the
//! hot path.
//!
//! Events are emitted in simulated-time order (each event's timestamp is
//! monotonically non-decreasing across the emission sequence), which lets
//! recorders feed time-series directly without sorting.
//!
//! # Example
//!
//! ```
//! use agentsim_llm::{Engine, EngineConfig, EngineEvent, EngineObserver};
//! use agentsim_kvcache::TokenBuf;
//! use agentsim_simkit::SimTime;
//!
//! /// Counts completed steps.
//! #[derive(Debug, Default)]
//! struct StepCounter(u64);
//!
//! impl EngineObserver for StepCounter {
//!     fn on_event(&mut self, event: &EngineEvent<'_>) {
//!         if matches!(event, EngineEvent::StepCompleted { .. }) {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(EngineConfig::a100_llama8b());
//! engine.set_observer(Box::new(StepCounter::default()));
//! let mut now = SimTime::ZERO;
//! engine.submit(now, TokenBuf::from_segment(1, 128), 4, 0);
//! while let Some(end) = engine.start_step_if_idle(now) {
//!     now = end;
//!     engine.complete_step(now);
//! }
//! assert!(engine.has_observer());
//! ```

use agentsim_simkit::SimTime;

use crate::config::EngineRole;
use crate::request::{LlmCompletion, RequestId};

/// What kind of work a completed engine step performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A prefill batch (classic scheduling).
    Prefill,
    /// One decode iteration over the running set.
    Decode,
    /// Decodes plus prefill chunks co-scheduled (chunked-prefill mode).
    Mixed,
}

impl StepKind {
    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Prefill => "prefill",
            StepKind::Decode => "decode",
            StepKind::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured engine event. Borrowed slices refer to engine-internal
/// buffers valid for the duration of the callback.
#[derive(Debug)]
pub enum EngineEvent<'a> {
    /// A request entered the waiting queue.
    Submitted {
        /// The new request.
        id: RequestId,
        /// Submission time.
        at: SimTime,
        /// Prompt length in tokens.
        prompt_tokens: u32,
        /// Requested output tokens.
        out_tokens: u32,
        /// Scheduling priority (0 under plain FCFS submission).
        priority: u32,
    },
    /// A request was admitted into the running set (KV allocated). Fires
    /// again after each preemption when the request is re-admitted.
    Admitted {
        /// The admitted request.
        id: RequestId,
        /// Admission time (also the start of the step it joins).
        at: SimTime,
        /// Prompt tokens that must be prefilled.
        new_tokens: u32,
        /// Prompt tokens served from the prefix cache.
        cached_tokens: u32,
    },
    /// An engine step finished, with its batch composition and an
    /// occupancy snapshot. Emitted before the step's token-production
    /// effects ([`EngineEvent::Completed`] / [`EngineEvent::Preempted`]).
    StepCompleted {
        /// What the step did.
        kind: StepKind,
        /// When the step started executing.
        started: SimTime,
        /// When it finished (the event time).
        ended: SimTime,
        /// FLOPs executed by the step.
        flops: f64,
        /// Prefill participants as `(id, chunk_tokens)`.
        prefill: &'a [(RequestId, u32)],
        /// Decode participants (one token each).
        decode: &'a [RequestId],
        /// KV blocks referenced by live sequences at step end.
        kv_used_blocks: u64,
        /// Total KV blocks in the pool.
        kv_total_blocks: u64,
        /// Running sequences at step end (before completions are removed).
        running: u32,
        /// Requests waiting for admission at step end.
        waiting: u32,
    },
    /// A running sequence was preempted (KV freed, requeued for
    /// recompute-style resumption).
    Preempted {
        /// The victim.
        id: RequestId,
        /// Preemption time.
        at: SimTime,
        /// Tokens it had generated so far (preserved across requeue).
        generated: u32,
    },
    /// A request produced its final token.
    Completed {
        /// Completion time.
        at: SimTime,
        /// The full engine-side completion record.
        completion: &'a LlmCompletion,
    },
    /// A prefill-role engine released the request at its first token for
    /// decode on another pool
    /// ([`Engine::take_migrations`](crate::Engine::take_migrations) hands
    /// the caller the full [`crate::MigratedRequest`] record). Terminal on
    /// this engine, like [`EngineEvent::Completed`].
    Migrated {
        /// The released request.
        id: RequestId,
        /// Release time (end of the step that produced the first token).
        at: SimTime,
        /// Tokens generated before release (always 1: the first token).
        generated: u32,
        /// KV blocks the sequence occupied at release.
        kv_blocks: u32,
        /// KV bytes that must move to the decode pool.
        kv_bytes: u64,
    },
    /// A request was cancelled server-side before finishing — its client
    /// gave up (deadline expiry). The engine frees its KV at the next
    /// step boundary and charges the service it already received as
    /// wasted work. Terminal on this engine, like
    /// [`EngineEvent::Completed`].
    Abandoned {
        /// The cancelled request.
        id: RequestId,
        /// When the engine purged it (the enclosing step's end, or the
        /// cancellation instant on an idle engine).
        at: SimTime,
        /// Tokens it had generated before cancellation.
        generated: u32,
    },
    /// The engine finished draining and switched serving roles (pool
    /// autoscaling). Emitted by
    /// [`Engine::finish_drain`](crate::Engine::finish_drain) once the
    /// engine is empty, so every request observed before this event ran
    /// under `from` and every one after runs under `to`.
    RoleChanged {
        /// When the flip took effect.
        at: SimTime,
        /// The role the engine drained out of.
        from: EngineRole,
        /// The role it serves from now on.
        to: EngineRole,
    },
}

impl EngineEvent<'_> {
    /// The simulated time at which the event occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            EngineEvent::Submitted { at, .. }
            | EngineEvent::Admitted { at, .. }
            | EngineEvent::Preempted { at, .. }
            | EngineEvent::Completed { at, .. }
            | EngineEvent::Migrated { at, .. }
            | EngineEvent::Abandoned { at, .. }
            | EngineEvent::RoleChanged { at, .. } => at,
            EngineEvent::StepCompleted { ended, .. } => ended,
        }
    }

    /// Stable lowercase event name (used by exporters).
    pub fn name(&self) -> &'static str {
        match self {
            EngineEvent::Submitted { .. } => "submit",
            EngineEvent::Admitted { .. } => "admit",
            EngineEvent::StepCompleted { .. } => "step",
            EngineEvent::Preempted { .. } => "preempt",
            EngineEvent::Completed { .. } => "complete",
            EngineEvent::Migrated { .. } => "migrate",
            EngineEvent::Abandoned { .. } => "abandon",
            EngineEvent::RoleChanged { .. } => "role",
        }
    }
}

/// A sink for [`EngineEvent`]s, attached with
/// [`Engine::set_observer`](crate::Engine::set_observer).
///
/// Implementations must not assume anything about inter-event wall-clock
/// spacing; they receive events synchronously from inside the engine's
/// submit/step methods.
///
/// The `Send` bound exists so an [`Engine`](crate::Engine) carrying an
/// observer can move to a worker thread with the simulation it belongs to
/// (sweeps run independent points on separate threads).
/// Shared-state observers should hold `Arc<Mutex<..>>` rather than
/// `Rc<RefCell<..>>`.
pub trait EngineObserver: std::fmt::Debug + Send {
    /// Called for every engine event, in emission order.
    fn on_event(&mut self, event: &EngineEvent<'_>);
}

/// Broadcasts every event to several observers, in insertion order.
///
/// The engine holds a single observer slot; wrap independent sinks (say,
/// an in-memory span recorder plus a streaming JSONL writer) in a fanout
/// to attach them together.
#[derive(Debug, Default)]
pub struct FanoutObserver {
    observers: Vec<Box<dyn EngineObserver>>,
}

impl FanoutObserver {
    /// Creates an empty fanout.
    pub fn new() -> Self {
        FanoutObserver::default()
    }

    /// Adds `observer` to the broadcast list, builder-style.
    pub fn with(mut self, observer: Box<dyn EngineObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Adds `observer` to the broadcast list.
    pub fn push(&mut self, observer: Box<dyn EngineObserver>) {
        self.observers.push(observer);
    }
}

impl EngineObserver for FanoutObserver {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        for observer in &mut self.observers {
            observer.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_simkit::SimDuration;

    #[test]
    fn step_kind_names_are_stable() {
        assert_eq!(StepKind::Prefill.name(), "prefill");
        assert_eq!(StepKind::Decode.to_string(), "decode");
        assert_eq!(StepKind::Mixed.name(), "mixed");
    }

    #[test]
    fn event_reports_its_time_and_name() {
        let e = EngineEvent::Submitted {
            id: RequestId(3),
            at: SimTime::from_micros(42),
            prompt_tokens: 10,
            out_tokens: 4,
            priority: 0,
        };
        assert_eq!(e.at(), SimTime::from_micros(42));
        assert_eq!(e.name(), "submit");

        let c = LlmCompletion {
            id: RequestId(3),
            arrived: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::from_micros(99),
            prompt_tokens: 10,
            cached_tokens: 0,
            output_tokens: 4,
            prefill_time: SimDuration::ZERO,
            decode_time: SimDuration::ZERO,
            flops: 0.0,
            preemptions: 0,
        };
        let e = EngineEvent::Completed {
            at: SimTime::from_micros(99),
            completion: &c,
        };
        assert_eq!(e.at(), SimTime::from_micros(99));
        assert_eq!(e.name(), "complete");

        let e = EngineEvent::StepCompleted {
            kind: StepKind::Decode,
            started: SimTime::from_micros(10),
            ended: SimTime::from_micros(25),
            flops: 1.0,
            prefill: &[],
            decode: &[RequestId(3)],
            kv_used_blocks: 5,
            kv_total_blocks: 100,
            running: 1,
            waiting: 0,
        };
        assert_eq!(e.at(), SimTime::from_micros(25));
        assert_eq!(e.name(), "step");

        let e = EngineEvent::Migrated {
            id: RequestId(3),
            at: SimTime::from_micros(50),
            generated: 1,
            kv_blocks: 9,
            kv_bytes: 9 << 21,
        };
        assert_eq!(e.at(), SimTime::from_micros(50));
        assert_eq!(e.name(), "migrate");

        let e = EngineEvent::Abandoned {
            id: RequestId(3),
            at: SimTime::from_micros(60),
            generated: 2,
        };
        assert_eq!(e.at(), SimTime::from_micros(60));
        assert_eq!(e.name(), "abandon");

        let e = EngineEvent::RoleChanged {
            at: SimTime::from_micros(77),
            from: EngineRole::Prefill,
            to: EngineRole::Decode,
        };
        assert_eq!(e.at(), SimTime::from_micros(77));
        assert_eq!(e.name(), "role");
    }

    #[test]
    fn fanout_broadcasts_in_insertion_order() {
        use std::sync::{Arc, Mutex};

        #[derive(Debug)]
        struct Tagger(u8, Arc<Mutex<Vec<u8>>>);
        impl EngineObserver for Tagger {
            fn on_event(&mut self, _: &EngineEvent<'_>) {
                self.1.lock().unwrap().push(self.0);
            }
        }

        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut fanout = FanoutObserver::new()
            .with(Box::new(Tagger(1, seen.clone())))
            .with(Box::new(Tagger(2, seen.clone())));
        fanout.on_event(&EngineEvent::Preempted {
            id: RequestId(0),
            at: SimTime::ZERO,
            generated: 0,
        });
        fanout.on_event(&EngineEvent::Preempted {
            id: RequestId(0),
            at: SimTime::ZERO,
            generated: 0,
        });
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 1, 2]);
    }
}
