//! End-to-end integration tests across the whole workspace, exercised
//! through the public facade exactly as a downstream user would.

use agent_infra_sim::prelude::*;
use agentsim_serving::SingleRequest as RawSingleRequest;

#[test]
fn facade_reexports_the_whole_stack() {
    // Types from every layer are reachable through the prelude.
    let outcome = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
        .seed(1)
        .run();
    assert!(outcome.trace.llm_calls() >= 1);
    let _table: Table = Table::with_columns(&["x"]);
    let _cfg: EngineConfig = EngineConfig::a100_llama8b();
}

#[test]
fn facade_and_raw_crate_agree() {
    let a = SingleRequest::new(AgentKind::React, Benchmark::WebShop)
        .seed(9)
        .run();
    let b = RawSingleRequest::new(AgentKind::React, Benchmark::WebShop)
        .seed(9)
        .run();
    assert_eq!(a.trace.e2e(), b.trace.e2e());
    assert_eq!(a.trace.llm_calls(), b.trace.llm_calls());
}

#[test]
fn trace_token_accounting_is_internally_consistent() {
    for kind in [AgentKind::Cot, AgentKind::React, AgentKind::Lats] {
        let o = SingleRequest::new(kind, Benchmark::HotpotQa).seed(4).run();
        for call in &o.trace.llm {
            // The breakdown the agent reported must match the prompt the
            // engine actually saw.
            assert_eq!(
                call.breakdown.input_total(),
                call.completion.prompt_tokens,
                "{kind}: breakdown disagrees with engine prompt size"
            );
            // Cache hits can never exceed the prompt.
            assert!(call.completion.cached_tokens <= call.completion.prompt_tokens);
            // The reported output is what the breakdown records.
            assert_eq!(call.breakdown.output, call.completion.output_tokens);
        }
    }
}

#[test]
fn energy_latency_utilization_triangle_holds() {
    // energy == integral of power over the window, so it is bounded by
    // idle power x window below and peak power x window above.
    let o = SingleRequest::new(AgentKind::Reflexion, Benchmark::HotpotQa)
        .seed(2)
        .run();
    let window_h = o.trace.e2e().as_secs_f64() / 3600.0;
    let idle_w = 60.0;
    let peak_w = 400.0;
    assert!(o.energy_wh >= idle_w * window_h * 0.99, "below idle floor");
    assert!(
        o.energy_wh <= peak_w * window_h * 1.01,
        "above peak ceiling"
    );
    assert!((0.0..=1.0).contains(&o.utilization));
}

#[test]
fn registry_runs_cheap_experiments_cleanly() {
    let scale = Scale {
        samples: 5,
        serving_requests: 15,
        seed: 7,
    };
    for id in ["table1", "table2", "fig23", "ablation_step"] {
        let e = experiments::experiment_by_id(id).expect("registered");
        let r = e.run(&scale);
        assert!(
            r.all_checks_pass(),
            "{id} failing checks: {:?}",
            r.failing_checks()
        );
        assert!(!r.tables.is_empty(), "{id} must produce a table");
    }
}

#[test]
fn deterministic_across_thread_schedules() {
    // run_batch parallelizes across threads; results must not depend on
    // interleaving.
    let runner = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa).seed(11);
    let a: Vec<f64> = runner
        .run_batch(8)
        .iter()
        .map(|o| o.trace.e2e().as_secs_f64())
        .collect();
    let b: Vec<f64> = runner
        .run_batch(8)
        .iter()
        .map(|o| o.trace.e2e().as_secs_f64())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn serving_and_single_agree_on_workload_character() {
    // The serving simulator at a trickle load should roughly reproduce
    // single-request latencies (no contention).
    let single = SingleRequest::new(AgentKind::React, Benchmark::WebShop)
        .seed(3)
        .run_batch(10);
    let mean_single: f64 = single
        .iter()
        .map(|o| o.trace.e2e().as_secs_f64())
        .sum::<f64>()
        / single.len() as f64;

    let workload = Workload::Agent {
        kind: AgentKind::React,
        benchmark: Benchmark::WebShop,
        config: AgentConfig::default_8b(),
    };
    let report = FleetSim::new(ServingConfig::new(workload, 0.02, 10).seed(3)).run();
    let mean_serving = report.latencies.summary().mean();
    let ratio = mean_serving / mean_single;
    assert!(
        (0.5..2.0).contains(&ratio),
        "trickle serving {mean_serving:.1}s vs single {mean_single:.1}s"
    );
}
