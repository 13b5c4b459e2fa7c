//! Differential test: the disaggregated driver, collapsed to its
//! degenerate configuration (colocated single replica, zero-cost link,
//! autoscaling disabled), must reproduce the single-replica `FleetSim`
//! golden fingerprints **bit for bit** — the same constants pinned in
//! `crates/serving/tests/golden_determinism.rs`.
//!
//! This is the strongest statement that the two-pool driver adds a
//! topology, not a behaviour: same arrivals, same per-session RNG forks,
//! same scheduler decisions, same KV hits, same preemptions, down to the
//! last float bit. Any drift here means the disagg event loop diverged
//! from the serving one.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_gpu::LinkSpec;
use agentsim_llm::{EngineConfig, SchedulerPolicy};
use agentsim_serving::{AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, Workload};
use agentsim_workloads::Benchmark;

/// Same shape as the serving golden fingerprint.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: u64,
    solved: u64,
    p50_bits: u64,
    p95_bits: u64,
    kv_hit_bits: u64,
    preemptions: u64,
}

impl Fingerprint {
    fn of(r: &DisaggReport) -> Self {
        Fingerprint {
            completed: r.completed,
            solved: r.solved,
            p50_bits: r.p50_s.to_bits(),
            p95_bits: r.p95_s.to_bits(),
            kv_hit_bits: r.kv_hit_rate.to_bits(),
            preemptions: r.preemptions,
        }
    }
}

fn workload(name: &str) -> Workload {
    match name {
        "chatbot" => Workload::Chatbot,
        "agent" => Workload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        },
        "mixed" => Workload::Mixed {
            agent_fraction: 0.5,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        },
        other => panic!("unknown workload {other}"),
    }
}

/// The exact configuration of the serving golden runs, expressed through
/// the disagg driver's degenerate path.
fn run(name: &str, scheduler: SchedulerPolicy) -> Fingerprint {
    let engine = EngineConfig::a100_llama8b()
        .with_scheduler(scheduler)
        .with_kv_fraction(0.04);
    let cfg = DisaggConfig::colocated(workload(name), 1, 8.0, 40)
        .seed(0xD5EED)
        .engine(engine)
        .link(LinkSpec::zero_cost());
    assert!(matches!(cfg.autoscale, AutoscalePolicy::Disabled));
    let report = DisaggSim::new(cfg).run();
    assert_eq!(report.migrated_calls, 0, "colocated mode never migrates");
    assert_eq!(report.transferred_bytes, 0);
    Fingerprint::of(&report)
}

macro_rules! differential {
    ($test:ident, $name:literal, $sched:expr, $completed:literal, $solved:literal,
     $p50:literal, $p95:literal, $hit:literal, $preempt:literal) => {
        #[test]
        fn $test() {
            let got = run($name, $sched);
            let want = Fingerprint {
                completed: $completed,
                solved: $solved,
                p50_bits: $p50,
                p95_bits: $p95,
                kv_hit_bits: $hit,
                preemptions: $preempt,
            };
            assert_eq!(
                got, want,
                "{} diverged from the single-replica FleetSim golden — the \
                 disagg driver no longer degenerates to the serving one",
                $name
            );
        }
    };
}

// The constants below are the *serving* goldens from
// crates/serving/tests/golden_determinism.rs, verbatim.
differential!(
    chatbot_fcfs_matches_serving_golden,
    "chatbot",
    SchedulerPolicy::Fcfs,
    40,
    0,
    0x401c9deca25529fe,
    0x40244d996744b2b7,
    0x3fbec4bf9c20d966,
    38
);
differential!(
    chatbot_deepest_matches_serving_golden,
    "chatbot",
    SchedulerPolicy::DeepestFirst,
    40,
    0,
    0x401c9deca25529fe,
    0x402463c7f77af640,
    0x3fbeac2154dbf68a,
    40
);
differential!(
    agent_fcfs_matches_serving_golden,
    "agent",
    SchedulerPolicy::Fcfs,
    40,
    12,
    0x4048e57403dddb12,
    0x405469a400fba882,
    0x3fe1583517fc19a0,
    27
);
differential!(
    agent_deepest_matches_serving_golden,
    "agent",
    SchedulerPolicy::DeepestFirst,
    40,
    12,
    0x40481763f572de44,
    0x40539bfc5cdd50a9,
    0x3fe27cb834d0b8e0,
    29
);
differential!(
    mixed_fcfs_matches_serving_golden,
    "mixed",
    SchedulerPolicy::Fcfs,
    40,
    5,
    0x40231e16f86a0989,
    0x40477ebf9830e3ce,
    0x3fdf7a590117ac40,
    29
);
differential!(
    mixed_deepest_matches_serving_golden,
    "mixed",
    SchedulerPolicy::DeepestFirst,
    40,
    5,
    0x403710f345069a4e,
    0x4047394855da2728,
    0x3fe0033284ef4253,
    18
);
