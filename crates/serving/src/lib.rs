//! Serving drivers: execute agent sessions against the simulated engine
//! and tools. All of them step the shared [`SessionRunner`] core and
//! take their traffic from a pluggable [`ClientModel`] (open-loop
//! Poisson, closed-loop think-time populations, trace replay).
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
//!   modeled interconnect, and role-flip autoscaling.
//! * [`observe`] — step-level observability: attach a [`SpanRecorder`]
//!   to any of the above and export per-request lifecycle spans, engine
//!   time-series, and Chrome-trace / JSONL files.
//! * [`sim`] / [`config`] — [`DisaggSim`] and [`DisaggConfig`], thin
//!   constructors over that fleet: a prefill pool and a decode pool (or
//!   the colocated baseline at iso-GPU count), reporting per-call
//!   five-phase records ([`DisaggReport`]). The record, transfer and
//!   autoscale types live in [`disagg`] (re-export of `agentsim-disagg`).
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

pub use agentsim_disagg as disagg;
pub use agentsim_session as session;

pub mod config;
pub mod fleet;
pub mod observe;
pub mod open_loop;
pub mod report;
pub mod sim;
pub mod single;
pub mod stream;
pub mod sweep;

/// Per-request execution traces (now shared driver infrastructure in
/// [`agentsim_session`]; re-exported here for path stability).
pub use agentsim_session::trace;

pub use config::{DisaggConfig, DisaggWorkload};
pub use disagg::{
    AutoscalePolicy, CallRecord, CallSpan, DisaggReport, FlipDirection, FlipRecord,
    HysteresisConfig,
};
pub use fleet::{FleetConfig, FleetSim, ReplicaPool, Routing};
pub use observe::{
    chrome_trace, stitch_disagg_span, Phase, RequestSpan, Segment, SpanRecorder, StepRecord,
};
pub use open_loop::{ServingConfig, ServingSim, ServingWorkload};
pub use report::{FleetReport, ServingReport};
pub use session::{
    validate_load, AdmissionPolicy, Arrival, ArrivalProcess, CascadePolicy, ClientModel,
    OverloadPolicy, QueueDiscipline, RetryPolicy, SessionCmd, SessionRunner, Workload,
};
pub use sim::DisaggSim;
pub use single::{SingleOutcome, SingleRequest};
pub use stream::SpanStreamWriter;
pub use sweep::{
    peak_throughput, qps_sweep, qps_sweep_observed, ObservedSweepPoint, PhaseBreakdown, SweepPoint,
};
pub use trace::{LlmCallRecord, RequestTrace};
