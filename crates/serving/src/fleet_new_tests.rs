//! Tests of [`FleetConfig::new`](crate::FleetConfig::new): the paper's
//! §IV-C shared replica, a one-replica fleet.

mod tests {
    use crate::{ClientModel, FleetConfig, FleetReport, FleetSim, Routing, Workload};
    use agentsim_agents::{AgentConfig, AgentKind};
    use agentsim_llm::EngineConfig;
    use agentsim_simkit::SimDuration;
    use agentsim_workloads::Benchmark;

    fn chatbot(qps: f64, n: u64) -> FleetReport {
        FleetSim::new(FleetConfig::new(Workload::Chatbot, qps, n).seed(1)).run()
    }

    fn react(qps: f64, n: u64) -> FleetReport {
        FleetSim::new(FleetConfig::new(Workload::react_hotpotqa(), qps, n).seed(1)).run()
    }

    #[test]
    fn chatbot_completes_all_requests() {
        let r = chatbot(1.0, 30);
        assert_eq!(r.completed, 30);
        assert!(r.p50_s > 1.0, "p50 {}", r.p50_s);
        assert!(r.p95_s >= r.p50_s);
        assert!(r.utilization[0] > 0.0);
    }

    #[test]
    fn chatbot_latency_band_matches_fig7() {
        // Paper Fig. 7: most ShareGPT responses complete in 3-7 s at low
        // load on the A100/8B stack.
        let mut r = chatbot(0.2, 40);
        let p50 = r.latencies.median();
        assert!((2.0..9.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn react_serving_completes_and_is_slower() {
        let agent = react(0.2, 15);
        let bot = chatbot(0.2, 15);
        assert_eq!(agent.completed, 15);
        assert!(
            agent.p50_s > bot.p50_s,
            "agent {} vs chatbot {}",
            agent.p50_s,
            bot.p50_s
        );
    }

    #[test]
    fn agent_latency_spread_exceeds_chatbot() {
        // Fig. 7: agents show a much broader, heavier-tailed distribution
        // (ShareGPT clusters in 3-7 s; ReAct spans tens of seconds).
        let agent = react(0.1, 25);
        let bot = chatbot(0.1, 25);
        let spread = |r: &FleetReport| r.p95_s - r.p50_s;
        assert!(
            spread(&agent) > 1.2 * spread(&bot),
            "agent spread {} vs chatbot {}",
            spread(&agent),
            spread(&bot)
        );
        assert!(
            agent.p95_s > 1.4 * bot.p95_s,
            "agent tail {} vs chatbot tail {}",
            agent.p95_s,
            bot.p95_s
        );
    }

    #[test]
    fn higher_load_raises_tail_latency() {
        // Past the knee (~2.6 qps on this stack, matching the paper),
        // queueing inflates the tail. Needs enough requests for a
        // backlog to form.
        let low = react(0.1, 30);
        let high = react(6.0, 60);
        assert!(
            high.p50_s > low.p50_s + 3.0,
            "p50 at 6 qps {} vs 0.1 qps {} (queueing delay)",
            high.p50_s,
            low.p50_s
        );
        assert!(high.p95_s > high.p50_s, "tail above median");
    }

    #[test]
    fn concurrency_beats_sequential_execution() {
        // §IV-C: concurrent execution yields large throughput gains
        // because tool waits are overlapped with other requests.
        let concurrent = react(1.0, 20);
        // Sequential lower bound: sum of single-request latencies.
        let single = crate::single::SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
            .seed(1)
            .run_batch(20);
        let sequential_time: f64 = single.iter().map(|o| o.trace.e2e().as_secs_f64()).sum();
        let seq_tput = 20.0 / sequential_time;
        assert!(
            concurrent.throughput > 2.0 * seq_tput,
            "concurrent {} vs sequential {}",
            concurrent.throughput,
            seq_tput
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = react(0.5, 10);
        let b = react(0.5, 10);
        assert_eq!(a.p95_s, b.p95_s);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn mixed_workload_serves_both_classes() {
        let workload = Workload::Mixed {
            agent_fraction: 0.4,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        };
        let r = FleetSim::new(FleetConfig::new(workload, 0.5, 30).seed(2)).run();
        assert_eq!(r.completed, 30);
        assert!(!r.agent_latencies.is_empty(), "some agents arrived");
        assert!(
            !r.chatbot_latencies.is_empty(),
            "some chatbot requests arrived"
        );
        assert_eq!(
            r.agent_latencies.len() + r.chatbot_latencies.len(),
            30,
            "every request is classified exactly once"
        );
        // Agent requests are much slower than chatbot ones even coexisting.
        let agent_mean = r.agent_latencies.summary().mean();
        let chat_mean = r.chatbot_latencies.summary().mean();
        assert!(
            agent_mean > chat_mean,
            "agent {agent_mean} vs chatbot {chat_mean}"
        );
    }

    #[test]
    fn prefix_caching_raises_hit_rate_in_serving() {
        let with = react(0.5, 15);
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 0.5, 15)
            .seed(1)
            .engine(EngineConfig::a100_llama8b().with_prefix_caching(false));
        let without = FleetSim::new(cfg).run();
        assert!(with.kv_hit_rate > 0.3, "hit rate {}", with.kv_hit_rate);
        assert_eq!(without.kv_hit_rate, 0.0);
    }

    #[test]
    fn closed_loop_completes_exact_turn_budget() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 1.0, 24)
            .seed(3)
            .client(ClientModel::ClosedLoop {
                concurrency: 4,
                think_time: SimDuration::from_secs(2),
            });
        let r = FleetSim::new(cfg).run();
        assert_eq!(r.completed, 24);
        assert!(r.p50_s > 0.0);
    }

    #[test]
    fn closed_loop_deterministic_given_seed() {
        let run = || {
            let cfg = FleetConfig::new(Workload::react_hotpotqa(), 1.0, 16)
                .seed(5)
                .client(ClientModel::ClosedLoop {
                    concurrency: 3,
                    think_time: SimDuration::from_secs(1),
                });
            FleetSim::new(cfg).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.solved, b.solved);
    }

    #[test]
    fn trace_replay_follows_recorded_gaps() {
        let gaps: Vec<SimDuration> = (0..12).map(|_| SimDuration::from_millis(500)).collect();
        let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 1)
            .seed(1)
            .client(ClientModel::TraceReplay { gaps });
        let r = FleetSim::new(cfg).run();
        assert_eq!(r.completed, 12, "trace length overrides num_requests");
    }

    /// `new` fixes one routing policy: a one-member routing tier gets the
    /// same replica under every policy, so the report cannot tell them
    /// apart.
    #[test]
    fn one_replica_report_is_the_same_under_every_routing() {
        let run = |routing| {
            let mut cfg = FleetConfig::new(Workload::react_hotpotqa(), 2.0, 12).seed(4);
            cfg.routing = routing;
            FleetSim::new(cfg).run()
        };
        // Every field, floats in shortest round-trip form.
        let base = format!("{:?}", run(Routing::RoundRobin));
        assert!(base.contains("completed: 12"), "{base}");
        for routing in [Routing::SessionAffinity, Routing::LeastLoaded] {
            assert_eq!(format!("{:?}", run(routing)), base, "{routing}");
        }
    }
}
