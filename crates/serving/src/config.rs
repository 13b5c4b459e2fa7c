//! Disaggregated-serving configuration: a role-split [`FleetConfig`]
//! built from pool sizes.

use std::ops::Deref;

use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_llm::{EngineConfig, EngineRole};

use crate::autoscale::AutoscalePolicy;
use crate::client::ClientModel;
use crate::fleet::{FleetConfig, ReplicaPool, Routing};
use crate::open_loop::ServingConfig;
use crate::workload::Workload;

/// The disaggregated driver's traffic description: the workload enum
/// every driver shares. Kept as an alias for existing callers; new code
/// names [`Workload`].
pub type DisaggWorkload = Workload;

/// One disaggregated (or colocated-baseline) run: a [`FleetConfig`] with
/// a prefill pool and a decode pool, or one colocated pool, on the
/// single-replica root stream (the one [`ServingConfig`] uses), so every
/// topology at one seed sees identical arrivals and task draws. Reads go
/// through to the [`FleetConfig`]; run it with [`crate::DisaggSim`].
#[derive(Debug, Clone)]
pub struct DisaggConfig(FleetConfig);

impl DisaggConfig {
    /// The [`ServingConfig`] replica split into 1 prefill + 1 decode
    /// replica over NVLink, prefill routed round-robin.
    pub fn new(workload: Workload, qps: f64, num_requests: u64) -> Self {
        let mut fleet: FleetConfig = ServingConfig::new(workload, qps, num_requests).into();
        fleet.routing = Routing::RoundRobin;
        DisaggConfig(fleet).pools(1, 1)
    }

    /// The colocated baseline at iso-GPU count: one pool of `replicas`
    /// role-free engines, no transfers, same arrivals.
    pub fn colocated(workload: Workload, replicas: u32, qps: f64, num_requests: u64) -> Self {
        DisaggConfig::new(workload, qps, num_requests).pools(replicas, 0)
    }

    /// Sets pool sizes: `prefill` + `decode` replicas of pool 0's engine.
    /// Zero decode replicas selects the colocated baseline.
    pub fn pools(mut self, prefill: u32, decode: u32) -> Self {
        assert!(prefill > 0, "need at least one prefill replica");
        let first = &self.0.pools[0];
        let pool = |role, replicas| ReplicaPool {
            engine: first.engine.clone().with_role(role),
            replicas,
            agent: first.agent,
        };
        self.0.pools = if decode == 0 {
            vec![pool(EngineRole::Colocated, prefill)]
        } else {
            vec![
                pool(EngineRole::Prefill, prefill),
                pool(EngineRole::Decode, decode),
            ]
        };
        self
    }

    /// Replaces every pool's engine configuration (each pool keeps its
    /// role).
    pub fn engine(self, engine: EngineConfig) -> Self {
        DisaggConfig(self.0.map_engines(|old| engine.clone().with_role(old.role)))
    }

    /// Sets the root seed.
    pub fn seed(self, seed: u64) -> Self {
        DisaggConfig(self.0.seed(seed))
    }

    /// Sets the KV-migration interconnect.
    pub fn link(self, link: LinkSpec) -> Self {
        DisaggConfig(self.0.link(link))
    }

    /// Ships each KV migration as up to `chunks` pipelined layer chunks.
    pub fn transfer_chunks(self, chunks: u32) -> Self {
        DisaggConfig(self.0.transfer_chunks(chunks))
    }

    /// Replaces the client model.
    pub fn client(self, client: ClientModel) -> Self {
        DisaggConfig(self.0.client(client))
    }

    /// Sets the pool-autoscaling policy. Requires a decode pool — the
    /// colocated baseline has no roles to flip.
    pub fn autoscale(self, policy: AutoscalePolicy) -> Self {
        DisaggConfig(self.0.autoscale(policy))
    }

    /// Sets the per-flip reconfiguration cost model.
    pub fn flip_cost(self, model: FlipCostModel) -> Self {
        DisaggConfig(self.0.flip_cost(model))
    }

    /// No-op, kept so existing callers still build: the disagg driver runs one
    /// sequential event loop, and thread count never changed a result.
    #[deprecated(note = "the disagg driver is sequential; thread count never changed a result")]
    pub fn threads(self, _threads: u32) -> Self {
        self
    }
}

impl Deref for DisaggConfig {
    type Target = FleetConfig;

    fn deref(&self) -> &FleetConfig {
        &self.0
    }
}

impl From<DisaggConfig> for FleetConfig {
    fn from(config: DisaggConfig) -> Self {
        config.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionPolicy, OverloadPolicy, QueueDiscipline};

    #[test]
    fn defaults_split_one_one_over_nvlink() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        let roles: Vec<_> = cfg
            .pools
            .iter()
            .map(|p| (p.engine.role, p.replicas))
            .collect();
        assert_eq!(
            roles,
            vec![(EngineRole::Prefill, 1), (EngineRole::Decode, 1)]
        );
        assert_eq!(cfg.total_replicas(), 2);
        assert_eq!(cfg.link.name, LinkSpec::nvlink4().name);
    }

    #[test]
    fn colocated_mode_has_no_decode_pool() {
        let cfg = DisaggConfig::colocated(Workload::Chatbot, 2, 1.0, 10);
        assert_eq!(cfg.pools.len(), 1);
        assert_eq!(cfg.pools[0].engine.role, EngineRole::Colocated);
        assert_eq!(cfg.total_replicas(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one prefill replica")]
    fn empty_prefill_pool_rejected() {
        let _ = DisaggConfig::new(Workload::Chatbot, 1.0, 1).pools(0, 1);
    }

    /// The overload knob is the fleet's one [`OverloadPolicy`].
    #[test]
    fn overload_knobs_default_off() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        assert_eq!(cfg.overload, OverloadPolicy::none());
        cfg.overload.validate(&cfg.client);
    }

    #[test]
    #[should_panic(expected = "deadline-drop discipline requires a deadline")]
    fn deadline_drop_without_deadline_rejected() {
        let cfg: FleetConfig = DisaggConfig::new(Workload::Chatbot, 1.0, 10).into();
        crate::FleetSim::new(
            cfg.overload(OverloadPolicy::none().discipline(QueueDiscipline::DeadlineDrop)),
        );
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn non_finite_load_rejected() {
        let _ = DisaggConfig::new(Workload::Chatbot, f64::NAN, 10);
    }

    /// An admission gate needs capacity for at least one call.
    #[test]
    #[should_panic(expected = "1 <= min")]
    fn zero_wide_gate_rejected() {
        let cfg: FleetConfig = DisaggConfig::new(Workload::Chatbot, 1.0, 10).into();
        let gate = AdmissionPolicy::Aimd {
            initial: 0.0,
            min: 0.0,
            max: 0.0,
            increase: 1.0,
            decrease: 0.5,
        };
        crate::FleetSim::new(cfg.overload(OverloadPolicy::none().admission(gate)));
    }

    #[test]
    fn autoscale_defaults_off_with_warm_flips() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Disabled));
        assert_eq!(cfg.flip_cost, FlipCostModel::warm());
        let cfg = cfg
            .autoscale(AutoscalePolicy::Pinned)
            .flip_cost(FlipCostModel::zero());
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Pinned));
        assert!(cfg.flip_cost.flip_time().is_zero());
    }
}
