//! Serving capacity: sweep offered load for a conventional chatbot
//! workload vs an agentic one and find each knee — the paper's Fig. 14
//! experiment, plus the prefix-caching ablation of its Fig. 15.
//!
//! ```sh
//! cargo run --release --example serving_capacity
//! ```

use agent_infra_sim::prelude::*;

fn sweep_and_print(
    name: &str,
    engine: &EngineConfig,
    workload: &Workload,
    points: &[f64],
    requests: u64,
) -> f64 {
    let sweep = qps_sweep(engine, workload, points, requests, 11);
    let mut table = Table::with_columns(&["offered QPS", "achieved", "p50 s", "p95 s", "hit %"]);
    for p in &sweep {
        table.row(vec![
            format!("{:.2}", p.qps),
            format!("{:.2}", p.report.throughput),
            format!("{:.1}", p.report.p50_s),
            format!("{:.1}", p.report.p95_s),
            format!("{:.0}", p.report.kv_hit_rate * 100.0),
        ]);
    }
    println!("--- {name}\n{table}");
    let peak = peak_throughput(&sweep);
    println!("peak throughput: {peak:.2} QPS\n");
    peak
}

fn main() {
    let requests = 120;
    let engine = EngineConfig::a100_llama8b();
    let agent = Workload::Agent {
        kind: AgentKind::React,
        benchmark: Benchmark::HotpotQa,
        config: AgentConfig::default_8b(),
    };

    println!("One A100-40GB serving Llama-3.1-8B, {requests} requests per point.\n");

    let chatbot_peak = sweep_and_print(
        "ShareGPT chatbot (single-turn)",
        &engine,
        &Workload::Chatbot,
        &[1.0, 2.0, 4.0, 6.0, 8.0, 12.0],
        requests,
    );
    let agent_peak = sweep_and_print(
        "ReAct agent on HotpotQA",
        &engine,
        &agent,
        &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
        requests,
    );

    println!(
        "The chatbot sustains {:.1}x the request rate of the agent \
         (paper: 6.4 vs 2.6 QPS).\n",
        chatbot_peak / agent_peak
    );

    // The Fig. 15 ablation: how much of the agent's capacity is owed to
    // prefix caching?
    let no_cache = sweep_and_print(
        "ReAct agent on HotpotQA, prefix caching DISABLED",
        &engine.clone().with_prefix_caching(false),
        &agent,
        &[0.5, 1.0, 2.0, 3.0, 4.0],
        requests,
    );
    println!(
        "Prefix caching multiplies agent serving capacity by {:.1}x \
         (paper: 5.62x).",
        agent_peak / no_cache
    );
}
