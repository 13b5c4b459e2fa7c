//! Golden determinism tests: pinned single-replica `FleetReport` fingerprints.
//!
//! These constants were captured from the straightforward (pre-optimized)
//! implementations of the engine step loop and the KV prefix hasher. The
//! optimized incremental paths must be *bit-identical* in simulation
//! semantics, so any drift in these fingerprints means an optimization
//! changed behaviour, not just speed.
//!
//! Floats are pinned via `f64::to_bits` — exact equality, no tolerance.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{EngineConfig, SchedulerPolicy};
use agentsim_serving::{FleetReport, FleetSim, ServingConfig, Workload};
use agentsim_workloads::Benchmark;

/// Everything a scheduling or caching change could plausibly disturb.
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
    fn of(r: &FleetReport) -> Self {
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

fn run(name: &str, scheduler: SchedulerPolicy) -> Fingerprint {
    // High offered load so a real queue forms (schedulers diverge) and a
    // small KV pool so preemption fires (recompute paths are covered).
    let engine = EngineConfig::a100_llama8b()
        .with_scheduler(scheduler)
        .with_kv_fraction(0.04);
    let cfg = ServingConfig::new(workload(name), 8.0, 40)
        .seed(0xD5EED)
        .engine(engine);
    Fingerprint::of(&FleetSim::new(cfg).run())
}

macro_rules! golden {
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
                "{} fingerprint drifted — an optimization changed simulation \
                 semantics (run `print_fingerprints` below to see all current \
                 values)",
                $name
            );
        }
    };
}

// Capture helper: `cargo test -p agentsim-serving --test golden_determinism \
// print_fingerprints -- --ignored --nocapture` prints the constants for all
// six combinations in the macro's argument order.
#[test]
#[ignore]
fn print_fingerprints() {
    for name in ["chatbot", "agent", "mixed"] {
        for (label, sched) in [
            ("Fcfs", SchedulerPolicy::Fcfs),
            ("DeepestFirst", SchedulerPolicy::DeepestFirst),
        ] {
            let f = run(name, sched);
            println!(
                "{name} {label}: {}, {}, {:#x}, {:#x}, {:#x}, {}",
                f.completed, f.solved, f.p50_bits, f.p95_bits, f.kv_hit_bits, f.preemptions
            );
        }
    }
}

golden!(
    chatbot_fcfs,
    "chatbot",
    SchedulerPolicy::Fcfs,
    40,
    0,
    0x401c9deca25529fe,
    0x40244d996744b2b7,
    0x3fbec4bf9c20d966,
    38
);
golden!(
    chatbot_deepest,
    "chatbot",
    SchedulerPolicy::DeepestFirst,
    40,
    0,
    0x401c9deca25529fe,
    0x402463c7f77af640,
    0x3fbeac2154dbf68a,
    40
);
golden!(
    agent_fcfs,
    "agent",
    SchedulerPolicy::Fcfs,
    40,
    12,
    0x4048e57403dddb12,
    0x405469a400fba882,
    0x3fe1583517fc19a0,
    27
);
golden!(
    agent_deepest,
    "agent",
    SchedulerPolicy::DeepestFirst,
    40,
    12,
    0x40481763f572de44,
    0x40539bfc5cdd50a9,
    0x3fe27cb834d0b8e0,
    29
);
golden!(
    mixed_fcfs,
    "mixed",
    SchedulerPolicy::Fcfs,
    40,
    5,
    0x40231e16f86a0989,
    0x40477ebf9830e3ce,
    0x3fdf7a590117ac40,
    29
);
golden!(
    mixed_deepest,
    "mixed",
    SchedulerPolicy::DeepestFirst,
    40,
    5,
    0x403710f345069a4e,
    0x4047394855da2728,
    0x3fe0033284ef4253,
    18
);
