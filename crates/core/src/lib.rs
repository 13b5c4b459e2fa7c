//! # agentsim — experiment registry
//!
//! Reproduces every table and figure of *"The Cost of Dynamic Reasoning:
//! Demystifying AI Agents and Test-Time Scaling from an AI Infrastructure
//! Perspective"* (HPCA 2026) on the simulated serving stack built by the
//! sibling crates.
//!
//! Each experiment is a pure function of a [`Scale`] (sample counts) and
//! returns a [`FigureResult`]: one or more text tables, prose notes, and
//! machine-checked *shape checks* — the qualitative claims the paper
//! makes that the reproduction must preserve (who wins, by roughly what
//! factor, where crossovers fall).
//!
//! # Example
//!
//! ```no_run
//! use agentsim::{experiments, Scale};
//!
//! let result = experiments::fig04::run(&Scale::quick());
//! println!("{result}");
//! assert!(result.all_checks_pass());
//! ```
//!
//! The `agentsim-bench` crate's `figures` binary runs the whole registry
//! at paper scale and writes the outputs under `results/`.

pub mod experiments;
pub mod figure;
pub mod presets;

pub use experiments::{all_experiments, experiment_by_id, Experiment};
pub use figure::{Check, FigureResult, Scale};

// Re-export the pieces examples and downstream users need most.
pub use agentsim_agents::{AgentConfig, AgentKind};
pub use agentsim_llm::EngineConfig;
pub use agentsim_serving::{
    qps_sweep, FleetSim, ServingConfig, SingleOutcome, SingleRequest, Workload,
};
pub use agentsim_workloads::Benchmark;

/// Convenience prelude for examples and quick scripts.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::figure::{FigureResult, Scale};
    pub use agentsim_agents::{AgentConfig, AgentKind};
    pub use agentsim_llm::EngineConfig;
    pub use agentsim_metrics::{Histogram, Samples, Summary, Table};
    pub use agentsim_serving::{
        peak_throughput, qps_sweep, ClientModel, FleetConfig, FleetSim, ReplicaPool, Routing,
        ServingConfig, SingleRequest, Workload,
    };
    pub use agentsim_simkit::{SimDuration, SimTime};
    pub use agentsim_workloads::Benchmark;
}
