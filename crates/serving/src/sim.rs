//! The disaggregated-serving driver: a [`FleetSim`] that keeps every
//! call's cross-pool [`CallRecord`](crate::CallRecord) and reports a
//! [`DisaggReport`].
//!
//! It runs the fleet's one event loop, so a disaggregated run and a
//! colocated run at the same seed differ *only* in serving topology —
//! the what-if experiments compare nothing else.

use agentsim_llm::EngineObserver;

use crate::fleet::{FleetConfig, FleetSim};
use crate::report::DisaggReport;

/// The disaggregated serving simulator. Build with [`DisaggSim::new`],
/// consume with [`DisaggSim::run`].
#[derive(Debug)]
pub struct DisaggSim(FleetSim);

impl DisaggSim {
    /// Builds the simulator from any [`FleetConfig`], typically one split
    /// by [`FleetConfig::pools`]: its Prefill-role replicas count as the
    /// prefill pool, and a colocated fleet reports every replica there.
    ///
    /// # Panics
    ///
    /// Panics where [`FleetSim::new`] does.
    pub fn new(config: FleetConfig) -> Self {
        let mut sim = FleetSim::new(config);
        sim.record_calls();
        DisaggSim(sim)
    }

    /// Replaces replica `replica`'s engine observer, by global index
    /// (initial prefill pool first, then the decode pool).
    pub fn set_replica_observer(&mut self, replica: usize, observer: Box<dyn EngineObserver>) {
        self.0.set_replica_observer(replica, observer);
    }

    /// Initial pool sizes as `(prefill, decode)` (for observer
    /// attachment; autoscaling changes live membership but not the
    /// replica count).
    pub fn pool_sizes(&self) -> (usize, usize) {
        self.0.pool_sizes()
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> DisaggReport {
        self.0.run_events();
        self.0.into_disagg_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AdmissionPolicy, AutoscalePolicy, ClientModel, FlipDirection, HysteresisConfig,
        OverloadPolicy, QueueDiscipline, Workload,
    };
    use agentsim_agents::{AgentConfig, AgentKind};
    use agentsim_gpu::{FlipCostModel, LinkSpec};
    use agentsim_simkit::{SimDuration, SimTime};

    fn react(qps: f64, n: u64) -> DisaggReport {
        DisaggSim::new(
            FleetConfig::new(Workload::react_hotpotqa(), qps, n)
                .pools(1, 1)
                .seed(1),
        )
        .run()
    }

    #[test]
    fn disagg_run_completes_and_migrates() {
        let r = react(0.5, 10);
        assert_eq!(r.completed, 10);
        assert!(r.migrated_calls > 0, "multi-token calls must migrate");
        assert!(r.transferred_bytes > 0);
        assert_eq!(
            r.transferred_bytes,
            r.calls.iter().map(|c| c.kv_bytes).sum::<u64>(),
            "link bytes match per-call KV footprints"
        );
        // Every migrated call's span partitions e2e exactly.
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e(), "call of session {}", c.session);
            if c.migrated() {
                assert!(c.span().transfer > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn colocated_mode_never_transfers() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 0.5, 10)
            .pools(2, 0)
            .seed(1);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 10);
        assert_eq!(r.migrated_calls, 0);
        assert_eq!(r.transferred_bytes, 0);
        assert!(r.decode_utilization.is_empty());
        for c in &r.calls {
            assert!(!c.migrated());
            assert_eq!(c.span().transfer, SimDuration::ZERO);
            assert_eq!(c.span().total(), c.e2e());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = react(0.5, 8);
        let b = react(0.5, 8);
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.transferred_bytes, b.transferred_bytes);
        assert_eq!(a.calls, b.calls);
    }

    #[test]
    fn slower_links_lengthen_ttft() {
        let base = FleetConfig::new(Workload::react_hotpotqa(), 0.5, 10)
            .pools(1, 1)
            .seed(2);
        let fast = DisaggSim::new(base.clone().link(LinkSpec::nvlink4())).run();
        let slow_spec = LinkSpec {
            name: "slow",
            bandwidth_bytes_per_s: 1e8, // 100 MB/s: painfully slow on purpose
            latency: SimDuration::from_millis(5),
        };
        let slow = DisaggSim::new(base.link(slow_spec)).run();
        let (mut f, mut s) = (fast.ttft(), slow.ttft());
        assert!(
            s.median() > f.median(),
            "slow-link ttft {} vs fast {}",
            s.median(),
            f.median()
        );
        // The extra time is visible in the transfer phase, not smeared
        // into queue/decode.
        assert!(slow.phase("transfer") > fast.phase("transfer") * 10.0);
    }

    #[test]
    fn chatbot_traffic_is_served_too() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 12)
            .pools(1, 1)
            .seed(3);
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12);
        assert_eq!(r.calls.len(), 12, "one call per chatbot request");
    }

    #[test]
    fn closed_loop_runs_through_the_disagg_topology() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 1.0, 12)
            .pools(1, 1)
            .seed(4)
            .client(ClientModel::ClosedLoop {
                concurrency: 3,
                think_time: SimDuration::from_secs(1),
            });
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12);
        assert!(r.migrated_calls > 0, "turns still migrate");
        // Session ids stay within the population under closed loop.
        assert!(r.calls.iter().all(|c| c.session < 3));
    }

    #[test]
    fn pinned_controller_matches_disabled_bit_for_bit() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 0.8, 10)
            .seed(9)
            .pools(2, 2);
        let disabled = DisaggSim::new(cfg.clone()).run();
        let pinned = DisaggSim::new(cfg.autoscale(AutoscalePolicy::Schedule(Vec::new()))).run();
        assert_eq!(disabled.calls, pinned.calls);
        assert_eq!(disabled.p95_s.to_bits(), pinned.p95_s.to_bits());
        assert_eq!(disabled.energy_wh.to_bits(), pinned.energy_wh.to_bits());
        assert!(pinned.flips.is_empty());
    }

    #[test]
    fn scheduled_flip_moves_a_replica_and_telescopes() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 0.8, 12)
            .seed(6)
            .pools(2, 2)
            .flip_cost(FlipCostModel::warm())
            .autoscale(AutoscalePolicy::Schedule(vec![(
                SimTime::from_secs_f64(2.0),
                FlipDirection::PrefillToDecode,
            )]));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 12, "no request lost across the flip");
        assert_eq!(r.flips.len(), 1, "the scheduled flip fired");
        let f = &r.flips[0];
        assert_eq!(f.direction, FlipDirection::PrefillToDecode);
        assert!(f.replica < 2, "victim came from the prefill pool");
        assert!(f.requested >= SimTime::from_secs_f64(2.0));
        assert!(f.drained >= f.requested, "drain takes non-negative time");
        assert_eq!(
            f.completed.saturating_since(f.drained),
            FlipCostModel::warm().flip_time(),
            "reconfiguration gap follows the cost model exactly"
        );
        // Flipped decode pool gains a member; utilization vectors track
        // final membership.
        assert_eq!(r.prefill_utilization.len(), 1);
        assert_eq!(r.decode_utilization.len(), 3);
        // All spans still partition end-to-end exactly.
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e());
        }
    }

    #[test]
    fn infeasible_schedule_entries_are_dropped() {
        // 1P+1D: both pools are at the one-replica floor, so neither
        // direction is feasible; the run must not stall or panic.
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 0.8, 8)
            .pools(1, 1)
            .seed(7)
            .autoscale(AutoscalePolicy::Schedule(vec![
                (SimTime::from_secs_f64(1.0), FlipDirection::PrefillToDecode),
                (SimTime::from_secs_f64(2.0), FlipDirection::DecodeToPrefill),
            ]));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 8);
        assert!(r.flips.is_empty(), "floor-protected pools never flip");
    }

    #[test]
    #[should_panic(expected = "requires a decode pool")]
    fn autoscaling_the_colocated_baseline_panics() {
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 4)
            .pools(2, 0)
            .autoscale(AutoscalePolicy::Schedule(Vec::new()));
        let _ = DisaggSim::new(cfg);
    }

    /// A fixed per-replica admission limit of `calls` engine calls.
    fn gate(calls: f64) -> AdmissionPolicy {
        AdmissionPolicy::Aimd {
            initial: calls,
            min: calls,
            max: calls,
            increase: 1.0,
            decrease: 0.5,
        }
    }

    /// `cfg` under an overload policy: the fleet's one overload API,
    /// with admission applied at the prefill replicas.
    fn gated(cfg: FleetConfig, policy: OverloadPolicy) -> DisaggReport {
        DisaggSim::new(cfg.overload(policy)).run()
    }

    #[test]
    fn wide_gate_changes_nothing_observable() {
        let base = FleetConfig::new(Workload::react_hotpotqa(), 1.0, 10)
            .pools(1, 1)
            .seed(5);
        let open = DisaggSim::new(base.clone()).run();
        let wide = gated(base, OverloadPolicy::none().admission(gate(1_000.0)));
        assert_eq!(wide.completed, 10);
        assert_eq!(wide.abandoned, 0);
        assert_eq!(wide.dropped, 0);
        assert_eq!(open.calls, wide.calls, "a gate that never binds is inert");
        assert_eq!(open.energy_wh.to_bits(), wide.energy_wh.to_bits());
    }

    #[test]
    fn tight_gate_still_completes_every_turn() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 2.0, 12)
            .pools(1, 1)
            .seed(5);
        let r = gated(cfg, OverloadPolicy::none().admission(gate(1.0)));
        assert_eq!(r.completed, 12);
        assert_eq!(r.abandoned, 0);
        for c in &r.calls {
            assert_eq!(c.span().total(), c.e2e(), "gated spans still telescope");
        }
    }

    #[test]
    fn op_wider_than_the_gate_runs_alone() {
        // Best-of-N submits all N samples as one op; a 1-call gate must
        // admit it via the head-of-line exception, not deadlock.
        let workload = Workload::Agent {
            kind: AgentKind::BestOfN,
            benchmark: agentsim_workloads::Benchmark::HotpotQa,
            config: AgentConfig::default(),
        };
        let cfg = FleetConfig::new(workload, 1.0, 6).pools(1, 1).seed(3);
        let r = gated(cfg, OverloadPolicy::none().admission(gate(1.0)));
        assert_eq!(r.completed, 6);
        assert!(
            r.calls.len() > 6,
            "Best-of-N turns carry several calls each"
        );
    }

    fn shedding() -> OverloadPolicy {
        OverloadPolicy::none()
            .deadline(SimDuration::from_secs(6))
            .admission(gate(1.0))
            .discipline(QueueDiscipline::DeadlineDrop)
    }

    #[test]
    fn deadline_drop_sheds_under_pressure() {
        // A burst of chatbot turns at t=0 queues behind a 1-call gate at
        // the prefill replica; DeadlineDrop sheds the ops still queued
        // when their client gives up, before they cost any GPU work.
        let burst = ClientModel::TraceReplay {
            gaps: vec![SimDuration::ZERO; 300],
        };
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 1)
            .pools(1, 1)
            .seed(5)
            .client(burst);
        let r = gated(cfg, shedding());
        assert!(r.dropped > 0, "a 1-call gate under a burst must shed work");
        assert_eq!(r.completed + r.abandoned, 300, "every turn resolves once");
        assert!(r.completed > 0, "early arrivals still beat the deadline");
        assert_eq!(
            r.calls.len() as u64 + r.dropped,
            300,
            "shed turns never reached a replica"
        );
        assert!(r.to_json().contains("\"abandoned\":"));
    }

    #[test]
    fn gated_run_is_deterministic_across_reruns() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 4.0, 20)
            .seed(6)
            .pools(2, 2);
        let a = gated(cfg.clone(), shedding());
        let b = gated(cfg, shedding());
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.energy_wh.to_bits(), b.energy_wh.to_bits());
    }

    #[test]
    fn hysteresis_flips_under_sustained_prefill_pressure() {
        // ReAct traffic is prefill-heavy; with a hair-trigger band the
        // controller should pull a decode replica over.
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 2.0, 24)
            .seed(8)
            .pools(1, 3)
            .flip_cost(FlipCostModel::zero())
            .autoscale(AutoscalePolicy::Hysteresis(HysteresisConfig {
                high: 1.2,
                low: 0.1,
                dwell: SimDuration::ZERO,
                ..HysteresisConfig::default()
            }));
        let r = DisaggSim::new(cfg).run();
        assert_eq!(r.completed, 24);
        assert!(
            r.flips
                .iter()
                .any(|f| f.direction == FlipDirection::DecodeToPrefill),
            "sustained prefill pressure must pull a decode replica over (flips: {:?})",
            r.flips
        );
    }

    #[test]
    #[should_panic(expected = "agent_fraction 1.5")]
    fn invalid_workload_is_rejected_at_build() {
        let workload = Workload::Mixed {
            agent_fraction: 1.5,
            kind: AgentKind::React,
            benchmark: agentsim_workloads::Benchmark::HotpotQa,
            config: AgentConfig::default(),
        };
        DisaggSim::new(FleetConfig::new(workload, 1.0, 4).pools(1, 1));
    }
}
