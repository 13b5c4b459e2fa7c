//! Serving drivers: execute agent sessions against the simulated engine
//! and tools.
//!
//! Both drivers, [`SingleRequest`] and [`FleetSim`], step agent sessions issuing
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
//! * [`SingleRequest`] — one request on a dedicated replica, producing a
//!   fully attributed [`RequestTrace`] (the paper's §IV-A/B per-request
//!   analysis: call counts, latency breakdown, GPU phase breakdown,
//!   token growth, KV footprint, prefix-caching effects).
//! * [`FleetSim`] — the cluster driver: one event loop for one shared
//!   replica or many behind a router, configured by one [`FleetConfig`].
//!   [`FleetConfig::new`] builds the paper's §IV-C one-replica server
//!   (throughput, tail latency vs QPS, KV pressure, cache thrashing), and
//!   routing across replicas (session affinity vs stateless balancing)
//!   extends its §VI datacenter view. Every run reports a
//!   [`FleetReport`]. [`FleetConfig::pools`] splits the replica into
//!   engines with prefill/decode roles, a Splitwise-style disaggregated
//!   fleet: KV migration over a modeled interconnect
//!   ([`TransferScheduler`]), and role-flip autoscaling
//!   ([`AutoscalePolicy`]).
//! * [`SpanRecorder`] — step-level observability: attach one to any
//!   fleet and export per-request lifecycle spans, engine time-series,
//!   and Chrome-trace / JSONL files.
//! * [`DisaggSim`] — that fleet keeping every call's five-phase record
//!   ([`CallRecord`]) and reporting a [`DisaggReport`], so a split and
//!   its colocated baseline at iso-GPU count compare call by call.
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

mod autoscale;
mod cascade;
mod client;
mod fleet;
mod observe;
mod overload;
mod report;
mod runner;
mod seeds;
mod sim;
mod single;
mod stream;
mod sweep;
mod trace;
mod transfer;
mod workload;

// Tests of `FleetConfig::new` and `FleetConfig::pools`. The module names
// keep the tests' ids stable.
#[cfg(test)]
#[path = "fleet_pools_tests.rs"]
mod config;
#[cfg(test)]
#[path = "fleet_new_tests.rs"]
mod open_loop;

pub use autoscale::{AutoscalePolicy, FlipDirection, HysteresisConfig};
pub use cascade::CascadePolicy;
pub use client::ClientModel;
pub use fleet::{FleetConfig, FleetSim, ReplicaPool, Routing};
pub use observe::{chrome_trace, Phase, RequestSpan, Segment, SpanRecorder, StepRecord};
pub use overload::{AdmissionPolicy, OverloadPolicy, QueueDiscipline, RetryPolicy};
pub use report::{CallRecord, CallSpan, DisaggReport, FleetReport, FlipRecord, LinkStats};
pub use sim::DisaggSim;
pub use single::{SingleOutcome, SingleRequest};
pub use stream::{SharedBuf, SpanStreamWriter};
pub use sweep::{
    peak_throughput, qps_sweep, qps_sweep_observed, ObservedSweepPoint, PhaseBreakdown, SweepPoint,
};
pub use trace::{LlmCallRecord, RequestTrace};
pub use transfer::TransferScheduler;
pub use workload::Workload;

// Older names of the items above, kept only until the simulator
// benchmark (`simbench/`) is re-pointed at them. Nothing else may name
// them; a CI step checks that.
/// Old name of [`FleetConfig`].
pub type ServingConfig = FleetConfig;
/// Old name of [`FleetConfig`]; its `new` is [`FleetConfig::new`], one
/// replica, so split it with [`FleetConfig::pools`].
pub type DisaggConfig = FleetConfig;
/// Old name of [`FleetSim`].
pub type ServingSim = FleetSim;
/// Old name of [`Workload`].
pub type ServingWorkload = Workload;
/// Old name of [`Workload`].
pub type DisaggWorkload = Workload;
/// Old name of [`FleetReport`].
pub type ServingReport = FleetReport;
