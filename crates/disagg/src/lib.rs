//! # agentsim-disagg
//!
//! Disaggregated prefill/decode serving (Splitwise/DistServe-style) for
//! the agent-infrastructure simulator:
//!
//! - **Role-split pools** — requests prefill on a dedicated prefill
//!   pool whose engines release each sequence at its first token, then
//!   decode on a separate pool that admits mid-life requests with
//!   pre-populated KV ([`agentsim_llm::EngineRole`]).
//! - **KV-transfer interconnect** — migrated KV blocks move over a
//!   modeled link (NVLink/PCIe/RDMA presets in [`agentsim_gpu::LinkSpec`])
//!   with per-link bandwidth, latency, and FIFO serialization queueing
//!   ([`TransferScheduler`]).
//! - **What-if baseline** — the colocated configuration
//!   ([`DisaggConfig::colocated`]) runs through the *same* driver with
//!   the same arrivals and task draws, so colocated-vs-disaggregated
//!   comparisons at iso-GPU count change nothing but topology.
//! - **Pool autoscaling** — a [`PoolController`] watches
//!   prefill-vs-decode demand and flips replicas between roles mid-run
//!   ([`AutoscalePolicy`]); a flipping replica drains (refuses new
//!   admissions, finishes or hands off in-flight work, lands in-flight
//!   KV transfers), pays a [`agentsim_gpu::FlipCostModel`]
//!   reconfiguration gap, and rejoins the other pool.
//!
//! The driver is [`DisaggSim`]; it reports a [`DisaggReport`] whose
//! per-call [`CallRecord`]s partition end-to-end latency exactly into
//! queue / prefill / transfer / decode / stall ([`CallSpan`]), plus one
//! [`FlipRecord`] per completed role flip.

#![warn(missing_docs)]

pub mod autoscale;
pub mod config;
pub mod report;
pub mod sim;
pub mod transfer;

pub use agentsim_session::Workload;
pub use autoscale::{
    AutoscalePolicy, FlipDirection, HysteresisConfig, HysteresisController, PinnedController,
    PoolController, PoolObservation, ScheduleController,
};
pub use config::{DisaggConfig, DisaggWorkload, PoolRouting};
pub use report::{CallRecord, CallSpan, DisaggReport, FlipRecord, LinkStats};
pub use sim::DisaggSim;
pub use transfer::{PendingTransfer, TransferScheduler};
