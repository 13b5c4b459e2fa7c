//! Extension: iso-dollar heterogeneous cascade vs homogeneous fleets.
//!
//! The paper's §VI prices test-time scaling in homogeneous-fleet terms:
//! every replica runs the same model on the same GPU, so accuracy is
//! bought by upgrading the whole fleet. This extension spends the same
//! hourly budget three ways — all-cheap 8B replicas, all-premium 70B
//! replicas, and a cognition-driven cascade that lands turns on the
//! cheap tier and escalates only the ones the 8B agent cannot solve —
//! and shows the cascade recovering premium-fleet accuracy while
//! keeping most decode traffic on the fast 8B replicas, dominating at
//! least one homogeneous arm on the accuracy/latency/cost front.
//!
//! Dollar prices appear only here (the simulator itself is price-free):
//! $2/h per A100, $4/h per H100, $1/h per L40S — round numbers in the
//! ratio of 2023-era on-demand cloud pricing.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{CascadePolicy, FleetConfig, FleetReport, ReplicaPool, Routing};

use crate::figure::{FigureResult, Scale};

/// On-demand $/GPU-hour by GPU model (experiment-local; the simulator
/// never sees prices).
fn gpu_dollars_per_hour(gpu_name: &str) -> f64 {
    if gpu_name.contains("H100") {
        4.0
    } else if gpu_name.contains("A100") {
        2.0
    } else if gpu_name.contains("L40S") {
        1.0
    } else {
        panic!("no price for {gpu_name}");
    }
}

/// Hourly cost of a fleet: sum over pools of replicas x GPUs x $/GPU-h.
fn fleet_dollars_per_hour(cfg: &FleetConfig) -> f64 {
    cfg.pools
        .iter()
        .map(|p| {
            f64::from(p.replicas)
                * f64::from(p.engine.cluster.gpu_count)
                * gpu_dollars_per_hour(p.engine.cluster.gpu.name)
        })
        .sum()
}

/// One iso-dollar arm.
struct Arm {
    name: &'static str,
    config: FleetConfig,
    /// Homogeneous baselines are dominance candidates; the cascade is not.
    homogeneous: bool,
}

fn arms(qps: f64, num_requests: u64, seed: u64) -> Vec<Arm> {
    let pool = |engine: EngineConfig, replicas: u32| ReplicaPool::new(engine, replicas);
    let fleet = |pools: Vec<ReplicaPool>| {
        FleetConfig::pooled(pools, Routing::SessionAffinity, qps, num_requests).seed(seed)
    };
    vec![
        Arm {
            name: "32x L40S 8B",
            config: fleet(vec![pool(EngineConfig::l40s_llama8b(), 32)]),
            homogeneous: true,
        },
        Arm {
            name: "16x A100 8B",
            config: fleet(vec![pool(EngineConfig::a100_llama8b(), 16)]),
            homogeneous: true,
        },
        Arm {
            name: "2x H100x4 70B",
            config: fleet(vec![pool(EngineConfig::h100x4_llama70b(), 2)]),
            homogeneous: true,
        },
        Arm {
            name: "cascade 8B->70B",
            config: fleet(vec![
                pool(EngineConfig::a100_llama8b(), 8),
                pool(EngineConfig::h100x4_llama70b(), 1),
            ])
            .cascade(CascadePolicy::standard()),
            homogeneous: false,
        },
    ]
}

/// Derived per-arm economics.
struct Outcome {
    name: &'static str,
    homogeneous: bool,
    rate: f64,
    accuracy: f64,
    dollars_per_solved: f64,
    report: FleetReport,
}

fn measure(arm: Arm) -> Outcome {
    let rate = fleet_dollars_per_hour(&arm.config);
    let report = agentsim_serving::FleetSim::new(arm.config).run();
    let finished = report.completed + report.late;
    let duration_h = finished as f64 / report.throughput / 3600.0;
    let accuracy = report.solved as f64 / finished as f64;
    let dollars_per_solved = rate * duration_h / report.solved.max(1) as f64;
    Outcome {
        name: arm.name,
        homogeneous: arm.homogeneous,
        rate,
        accuracy,
        dollars_per_solved,
        report,
    }
}

/// Runs the iso-dollar cascade sweep.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_cascade",
        "Extension: iso-dollar heterogeneous cascade vs homogeneous fleets",
    );
    let qps = 2.0;
    let num_requests = scale.serving_requests * 2;
    let mut table = Table::with_columns(&[
        "Fleet",
        "$/h",
        "accuracy",
        "escalated",
        "p95 s",
        "TPOT p99 ms",
        "$/solved",
    ]);

    let mut outcomes = Vec::new();
    for arm in arms(qps, num_requests, scale.seed) {
        let o = measure(arm);
        table.row(vec![
            o.name.to_string(),
            format!("{:.0}", o.rate),
            format!("{:.2}", o.accuracy),
            format!("{}", o.report.escalated),
            format!("{:.1}", o.report.p95_s),
            format!("{:.1}", o.report.tpot_p99_s * 1e3),
            format!("{:.4}", o.dollars_per_solved),
        ]);
        outcomes.push(o);
    }
    table.row(vec![
        "(budget)".to_string(),
        "32".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    result.table(
        &format!("ReAct/HotpotQA at {qps} QPS, every fleet priced at $32/h"),
        table,
    );

    let budget = outcomes[0].rate;
    result.check(
        "arms-are-iso-dollar",
        outcomes.iter().all(|o| (o.rate - budget).abs() < 1e-9),
        format!(
            "hourly rates: {:?}",
            outcomes.iter().map(|o| o.rate).collect::<Vec<_>>()
        ),
    );

    let cascade = outcomes
        .iter()
        .find(|o| !o.homogeneous)
        .expect("cascade arm");
    let premium = outcomes
        .iter()
        .find(|o| o.name == "2x H100x4 70B")
        .expect("premium arm");
    let cheap = outcomes
        .iter()
        .find(|o| o.name == "16x A100 8B")
        .expect("cheap arm");

    result.check(
        "cheap-fleet-caps-accuracy",
        cheap.accuracy < cascade.accuracy,
        format!(
            "all-8B accuracy {:.2} vs cascade {:.2} — money spent on more cheap \
             replicas cannot buy the answers the 8B agent cannot produce",
            cheap.accuracy, cascade.accuracy
        ),
    );
    result.check(
        "cascade-matches-premium-accuracy",
        cascade.accuracy >= premium.accuracy,
        format!(
            "cascade accuracy {:.2} vs all-70B {:.2} — escalation forwards every \
             turn the cheap tier fails, so no accuracy is left behind",
            cascade.accuracy, premium.accuracy
        ),
    );
    let dominated: Vec<&str> = outcomes
        .iter()
        .filter(|o| {
            o.homogeneous
                && cascade.accuracy >= o.accuracy
                && cascade.report.tpot_p99_s < o.report.tpot_p99_s
                && cascade.dollars_per_solved <= o.dollars_per_solved
        })
        .map(|o| o.name)
        .collect();
    result.check(
        "cascade-dominates-a-homogeneous-fleet",
        !dominated.is_empty(),
        format!(
            "cascade (acc {:.2}, TPOT p99 {:.1}ms, ${:.4}/solved) strictly dominates \
             {:?} on the iso-dollar accuracy/latency/cost front",
            cascade.accuracy,
            cascade.report.tpot_p99_s * 1e3,
            cascade.dollars_per_solved,
            dominated
        ),
    );
    result.check(
        "escalation-is-selective",
        cascade.report.escalated > 0
            && cascade.report.escalated < cascade.report.completed + cascade.report.late,
        format!(
            "{} of {} turns escalated to the 70B pool — the premium tier serves \
             only the hard tail, which is what keeps decode fast at equal spend",
            cascade.report.escalated,
            cascade.report.completed + cascade.report.late
        ),
    );

    // The cascade path re-routes live sessions across tiers mid-run; pin
    // that doing so replays bit-identically.
    let rerun = {
        let arm = arms(qps, num_requests, scale.seed)
            .into_iter()
            .find(|a| !a.homogeneous)
            .expect("cascade arm");
        agentsim_serving::FleetSim::new(arm.config).run()
    };
    result.check(
        "cascade-deterministic-across-sequential-reruns",
        rerun.solved == cascade.report.solved
            && rerun.escalated == cascade.report.escalated
            && rerun.p95_s.to_bits() == cascade.report.p95_s.to_bits()
            && rerun.tpot_p99_s.to_bits() == cascade.report.tpot_p99_s.to_bits(),
        format!(
            "sequential rerun: solved {} vs {}, escalated {} vs {}, p95 {:.6} vs {:.6}",
            rerun.solved,
            cascade.report.solved,
            rerun.escalated,
            cascade.report.escalated,
            rerun.p95_s,
            cascade.report.p95_s
        ),
    );

    result.note(
        "Corollary for the paper's Table III economics: fleet accuracy is not a \
         property of the model you buy but of the routing policy you run. At a \
         fixed hourly budget, reserving a slice for a premium pool and escalating \
         only cognition-hard turns beats spending the whole budget on either tier.",
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 30,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
