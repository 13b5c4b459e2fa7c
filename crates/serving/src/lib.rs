//! Serving drivers: execute agent sessions against the simulated engine
//! and tools.
//!
//! Both drivers, [`single`] and [`fleet`], step agent sessions issuing
//! iterative LLM calls and tool batches through one crate-private state
//! machine, the session runner. It holds the per-session pending and
//! completed LLM calls, tool execution, LLMCompiler overlap accounting
//! and trace accumulation; a driver keeps only where LLM calls are
//! submitted and how events are scheduled. Around it:
//!
//! * [`Workload`] — the traffic description (chatbot, agent, or a
//!   per-turn mix) and the one place a turn opens its session.
//! * [`ClientModel`] — who submits work and when: open-loop Poisson (the
//!   paper's methodology), closed-loop with think times and multi-turn
//!   session reuse, and recorded-trace replay.
//! * [`OverloadPolicy`] — per-request deadlines, [`RetryPolicy`] backoff,
//!   [`AdmissionPolicy`] and [`QueueDiscipline`].
//! * [`CascadePolicy`] — cognition-driven routing across model tiers.
//! * [`RequestTrace`] — the per-request execution record every driver
//!   produces, one [`LlmCallRecord`] per call.
//!
//! The drivers:
//!
//! * [`single`] — one request on a dedicated replica, producing a fully
//!   attributed [`RequestTrace`] (the paper's §IV-A/B per-request
//!   analysis: call counts, latency breakdown, GPU phase breakdown,
//!   token growth, KV footprint, prefix-caching effects).
//! * [`fleet`] — the cluster driver: one event loop for one shared
//!   replica or many behind a router. A one-replica fleet is the paper's
//!   §IV-C serving analysis (throughput, tail latency vs QPS, KV
//!   pressure, cache thrashing; [`open_loop::ServingConfig`] builds it),
//!   and routing across replicas (session affinity vs stateless
//!   balancing) extends its §VI datacenter view. Every run reports a
//!   [`FleetReport`]. Pools whose engines carry prefill/decode roles
//!   make it a Splitwise-style disaggregated fleet: KV migration over a
//!   modeled interconnect ([`transfer`]), and role-flip autoscaling
//!   ([`autoscale`]).
//! * [`observe`] — step-level observability: attach a [`SpanRecorder`]
//!   to any of the above and export per-request lifecycle spans, engine
//!   time-series, and Chrome-trace / JSONL files.
//! * [`sim`] / [`config`] — [`DisaggSim`] and [`DisaggConfig`], thin
//!   constructors over that fleet: a prefill pool and a decode pool (or
//!   the colocated baseline at iso-GPU count), reporting per-call
//!   five-phase records ([`CallRecord`]) in a [`DisaggReport`].
//!
//! # Example
//!
//! ```
//! use agentsim_serving::SingleRequest;
//! use agentsim_agents::AgentKind;
//! use agentsim_workloads::Benchmark;
//!
//! let outcome = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
//!     .seed(3)
//!     .run();
//! assert!(outcome.trace.llm_calls() >= 2);
//! assert!(outcome.trace.tool_calls() >= 1);
//! assert!(outcome.energy_wh > 0.0);
//! ```

pub mod autoscale;
mod cascade;
mod client;
pub mod config;
pub mod fleet;
pub mod observe;
pub mod open_loop;
mod overload;
pub mod report;
mod runner;
mod seeds;
pub mod sim;
pub mod single;
pub mod stream;
pub mod sweep;
mod trace;
pub mod transfer;
mod workload;

pub use autoscale::{AutoscalePolicy, FlipDirection, HysteresisConfig};
pub use cascade::CascadePolicy;
pub use client::ClientModel;
pub use config::{DisaggConfig, DisaggWorkload};
pub use fleet::{FleetConfig, FleetSim, ReplicaPool, Routing};
pub use observe::{chrome_trace, Phase, RequestSpan, Segment, SpanRecorder, StepRecord};
pub use open_loop::{ServingConfig, ServingSim, ServingWorkload};
pub use overload::{AdmissionPolicy, OverloadPolicy, QueueDiscipline, RetryPolicy};
pub use report::{
    CallRecord, CallSpan, DisaggReport, FleetReport, FlipRecord, LinkStats, ServingReport,
};
pub use sim::DisaggSim;
pub use single::{SingleOutcome, SingleRequest};
pub use stream::{SharedBuf, SpanStreamWriter};
pub use sweep::{
    peak_throughput, qps_sweep, qps_sweep_observed, ObservedSweepPoint, PhaseBreakdown, SweepPoint,
};
pub use trace::{LlmCallRecord, RequestTrace};
pub use transfer::TransferScheduler;
pub use workload::Workload;
