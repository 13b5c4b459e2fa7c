//! Tests of [`FleetConfig::pools`](crate::FleetConfig::pools): a
//! prefill pool and a decode pool, or the colocated baseline.

mod tests {
    use agentsim_gpu::{FlipCostModel, LinkSpec};
    use agentsim_llm::{EngineConfig, EngineRole};

    use crate::{
        AdmissionPolicy, AutoscalePolicy, CascadePolicy, FleetConfig, OverloadPolicy,
        QueueDiscipline, ReplicaPool, Routing, Workload,
    };

    #[test]
    fn defaults_split_one_one_over_nvlink() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(1, 1);
        let roles: Vec<_> = cfg
            .pools
            .iter()
            .map(|p| (p.engine.role, p.replicas))
            .collect();
        assert_eq!(
            roles,
            vec![(EngineRole::Prefill, 1), (EngineRole::Decode, 1)]
        );
        assert_eq!(cfg.link.name, LinkSpec::nvlink4().name);
    }

    #[test]
    fn colocated_mode_has_no_decode_pool() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(2, 0);
        assert_eq!(cfg.pools.len(), 1);
        assert_eq!(cfg.pools[0].engine.role, EngineRole::Colocated);
        assert_eq!(cfg.pools[0].replicas, 2);
    }

    #[test]
    #[should_panic(expected = "at least one prefill replica")]
    fn empty_prefill_pool_rejected() {
        let _ = FleetConfig::new(Workload::Chatbot, 1.0, 1).pools(0, 1);
    }

    /// The overload knob is the fleet's one [`OverloadPolicy`].
    #[test]
    fn overload_knobs_default_off() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(1, 1);
        assert_eq!(cfg.overload, OverloadPolicy::none());
        cfg.overload.validate(&cfg.client);
    }

    #[test]
    #[should_panic(expected = "deadline-drop discipline requires a deadline")]
    fn deadline_drop_without_deadline_rejected() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(1, 1);
        crate::FleetSim::new(
            cfg.overload(OverloadPolicy::none().discipline(QueueDiscipline::DeadlineDrop)),
        );
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn non_finite_load_rejected() {
        let _ = FleetConfig::new(Workload::Chatbot, f64::NAN, 10);
    }

    /// An admission gate needs capacity for at least one call.
    #[test]
    #[should_panic(expected = "1 <= min")]
    fn zero_wide_gate_rejected() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(1, 1);
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
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10).pools(1, 1);
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Disabled));
        assert_eq!(cfg.flip_cost, FlipCostModel::warm());
        let cfg = cfg
            .autoscale(AutoscalePolicy::Schedule(Vec::new()))
            .flip_cost(FlipCostModel::zero());
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Schedule(ref s) if s.is_empty()));
        assert!(cfg.flip_cost.flip_time().is_zero());
    }

    /// `pools` re-splits only a one-pool fleet: a second pool (here a
    /// cascade's premium tier) would otherwise be dropped silently.
    #[test]
    #[should_panic(expected = "splits a one-pool fleet")]
    fn splitting_a_two_pool_fleet_rejected() {
        let cheap = ReplicaPool::new(EngineConfig::a100_llama8b(), 1);
        let premium = ReplicaPool::new(EngineConfig::a100x8_llama70b(), 1);
        let _ = FleetConfig::pooled(vec![cheap, premium], Routing::LeastLoaded, 1.0, 10)
            .cascade(CascadePolicy::standard())
            .pools(1, 1);
    }

    #[test]
    fn engine_keeps_each_pools_role() {
        let engine = EngineConfig::a100_llama8b().with_prefix_caching(false);
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 10)
            .pools(2, 1)
            .engine(engine);
        let pools: Vec<_> = cfg
            .pools
            .iter()
            .map(|p| (p.engine.role, p.engine.prefix_caching, p.replicas))
            .collect();
        assert_eq!(
            pools,
            vec![
                (EngineRole::Prefill, false, 2),
                (EngineRole::Decode, false, 1)
            ]
        );
    }
}
