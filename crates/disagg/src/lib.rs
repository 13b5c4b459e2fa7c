//! # agentsim-disagg
//!
//! Building blocks of disaggregated prefill/decode serving
//! (Splitwise/DistServe-style) for the agent-infrastructure simulator.
//! The crate has no driver: `agentsim-serving`'s fleet runs them when its
//! pools carry [`agentsim_llm::EngineRole::Prefill`] /
//! [`agentsim_llm::EngineRole::Decode`] engines, and its `DisaggSim`
//! reports a [`DisaggReport`].
//!
//! - **KV-transfer interconnect** — migrated KV blocks move over a
//!   modeled link (NVLink/PCIe/RDMA presets in [`agentsim_gpu::LinkSpec`])
//!   with per-link bandwidth, latency, FIFO serialization queueing, and
//!   optional layer-wise chunk trains ([`TransferScheduler`]).
//! - **Pool autoscaling** — a [`PoolController`] watches
//!   prefill-vs-decode demand and asks for role flips mid-run
//!   ([`AutoscalePolicy`]); the driver drains the victim, pays a
//!   [`agentsim_gpu::FlipCostModel`] reconfiguration gap, and moves it to
//!   the other pool.
//! - **Records** — per-call [`CallRecord`]s partition end-to-end latency
//!   exactly into queue / prefill / transfer / decode / stall
//!   ([`CallSpan`]), plus one [`FlipRecord`] per completed role flip.

#![warn(missing_docs)]

pub mod autoscale;
pub mod report;
pub mod transfer;

pub use autoscale::{
    AutoscalePolicy, FlipDirection, HysteresisConfig, HysteresisController, PinnedController,
    PoolController, PoolObservation, ScheduleController,
};
pub use report::{CallRecord, CallSpan, DisaggReport, FlipRecord, LinkStats};
pub use transfer::{PendingTransfer, TransferScheduler};
