//! Extension: agent-aware request scheduling (the paper's Key Takeaway
//! #7 asks for "agent-aware request dispatching"). We compare vLLM's
//! FCFS against a deepest-first policy that admits requests from
//! sessions with the most completed LLM calls first — an SRPT-flavored
//! heuristic: deep sessions are closest to finishing and their contexts
//! have the warmest prefix-cache state.

use agentsim_llm::{EngineConfig, SchedulerPolicy};
use agentsim_metrics::Table;
use agentsim_serving::{FleetSim, ServingConfig, Workload};
use agentsim_workloads::Benchmark;

use crate::figure::{FigureResult, Scale};

/// Compares FCFS vs deepest-first under agent load.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_scheduler",
        "Extension: agent-aware scheduling (deepest-first) vs FCFS",
    );
    let mut table = Table::with_columns(&[
        "Scheduler",
        "QPS",
        "tput",
        "p50 s",
        "p95 s",
        "mean in-flight sessions",
    ]);

    let mut rows = Vec::new();
    for (name, policy) in [
        ("FCFS", SchedulerPolicy::Fcfs),
        ("deepest-first", SchedulerPolicy::DeepestFirst),
    ] {
        for qps in [1.5, 3.0] {
            let workload = Workload::Agent {
                kind: agentsim_agents::AgentKind::React,
                benchmark: Benchmark::HotpotQa,
                config: agentsim_agents::AgentConfig::default_8b(),
            };
            let cfg = ServingConfig::new(workload, qps, scale.serving_requests)
                .seed(scale.seed)
                .engine(EngineConfig::a100_llama8b().with_scheduler(policy));
            let report = FleetSim::new(cfg).run();
            let in_flight = report.latencies.summary().mean() * report.throughput;
            table.row(vec![
                name.to_string(),
                format!("{qps:.1}"),
                format!("{:.2}", report.throughput),
                format!("{:.1}", report.p50_s),
                format!("{:.1}", report.p95_s),
                format!("{in_flight:.1}"),
            ]);
            rows.push((name, qps, report));
        }
    }
    result.table("ReAct/HotpotQA under the two admission policies", table);

    let get = |name: &str, qps: f64| {
        rows.iter()
            .find(|(n, q, _)| *n == name && *q == qps)
            .map(|(_, _, r)| r)
            .expect("row present")
    };
    let fcfs = get("FCFS", 3.0);
    let deepest = get("deepest-first", 3.0);
    result.check(
        "deepest-first-does-not-lose-throughput",
        deepest.throughput > 0.9 * fcfs.throughput,
        format!(
            "throughput at 3 QPS: deepest-first {:.2} vs FCFS {:.2}",
            deepest.throughput, fcfs.throughput
        ),
    );
    result.check(
        "deepest-first-tames-median-or-tail",
        deepest.p50_s < fcfs.p50_s * 1.05 || deepest.p95_s < fcfs.p95_s * 1.05,
        format!(
            "deepest-first p50 {:.1}s / p95 {:.1}s vs FCFS p50 {:.1}s / p95 {:.1}s \
             (finishing started sessions first drains work-in-progress)",
            deepest.p50_s, deepest.p95_s, fcfs.p50_s, fcfs.p95_s
        ),
    );
    result.note(
        "This policy sketch trades fairness for completion: new sessions can \
         starve under sustained overload, so a production design would bound \
         the priority boost (cf. Autellix's queue-aware scheduling, which the \
         paper cites as related work).",
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 40,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
