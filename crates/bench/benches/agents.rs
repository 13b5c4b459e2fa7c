//! Criterion benches for full agent sessions: wall-clock cost of
//! simulating one request per agent framework, and of an open-loop
//! serving run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_serving::{FleetSim, ServingConfig, SingleRequest, Workload};
use agentsim_workloads::Benchmark;

fn bench_single_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("agents/single_request");
    group.sample_size(20);
    for kind in AgentKind::ALL {
        group.bench_function(format!("{kind}"), |b| {
            let runner = SingleRequest::new(kind, Benchmark::HotpotQa).seed(3);
            let mut task = 0u64;
            b.iter(|| {
                task += 1;
                black_box(runner.clone().task_index(task % 16).run())
            })
        });
    }
    group.finish();
}

fn bench_serving_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("agents/open_loop");
    group.sample_size(10);
    group.bench_function("react_hotpotqa_30req", |b| {
        b.iter(|| {
            let cfg = ServingConfig::new(Workload::react_hotpotqa(), 1.0, 30).seed(7);
            black_box(FleetSim::new(cfg).run())
        })
    });
    group.bench_function("chatbot_60req", |b| {
        b.iter(|| {
            let cfg = ServingConfig::new(Workload::Chatbot, 4.0, 60).seed(7);
            black_box(FleetSim::new(cfg).run())
        })
    });
    group.finish();
}

fn bench_lats_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("agents/lats_width");
    group.sample_size(10);
    for children in [2u32, 8] {
        group.bench_function(format!("children_{children}"), |b| {
            let runner = SingleRequest::new(AgentKind::Lats, Benchmark::HotpotQa)
                .seed(3)
                .agent_config(AgentConfig::default_8b().with_lats_children(children));
            b.iter(|| black_box(runner.clone().run()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_sessions,
    bench_serving_run,
    bench_lats_width
);
criterion_main!(benches);
