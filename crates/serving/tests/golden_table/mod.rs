//! The golden table: every pinned simulation cell, digested once.
//!
//! Each cell runs one fixed configuration and seed, and [`digest`]
//! folds every public field of what the run reports: floats by their
//! bits, vectors and per-call records in order, `Samples` by their
//! values. A row of [`GOLDEN`] pins that digest, so any change in
//! simulated behaviour — one float bit anywhere in a report — fails
//! `golden.rs`'s `every_cell_matches_its_golden_digest`, and the named
//! per-cell tests ([`golden_tests!`]) that select single rows.
//!
//! To re-pin after an intentional semantics change, run
//! `cargo test -p agentsim-serving --test golden` and paste the
//! replacement rows the failure prints over the drifted ones. To add a
//! cell, add its builder to [`CELLS`]; the first run prints its row.
//!
//! Each integration test that uses the table includes this module, and
//! none uses all of it.
#![allow(dead_code)]

use agentsim_agents::{AgentConfig, AgentKind, ContextBreakdown, OutputKind, TaskOutcome};
use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::{EngineConfig, LlmCompletion, OffloadConfig, RequestId, SchedulerPolicy};
use agentsim_metrics::Samples;
use agentsim_serving::disagg::LinkStats;
use agentsim_serving::{
    qps_sweep, AdmissionPolicy, AutoscalePolicy, CallRecord, CascadePolicy, ClientModel,
    DisaggConfig, DisaggReport, DisaggSim, FleetConfig, FleetReport, FleetSim, FlipDirection,
    FlipRecord, LlmCallRecord, OverloadPolicy, QueueDiscipline, ReplicaPool, RequestTrace,
    RetryPolicy, Routing, ServingConfig, SingleOutcome, SingleRequest, SweepPoint, Workload,
};
use agentsim_simkit::{SimDuration, SimTime};
use agentsim_tools::{ToolKind, ToolResult};
use agentsim_workloads::Benchmark;

/// `(cell, digest)` for every cell in [`CELLS`].
pub const GOLDEN: &[(&str, u64)] = &[
    ("serving/chatbot-fcfs", 0x2232ba3a0bf04950),
    ("serving/chatbot-deepest", 0xe2845d0d064eccd5),
    ("serving/agent-fcfs", 0x349792df4070c57c),
    ("serving/agent-deepest", 0x57e3f424cc1d015e),
    ("serving/mixed-fcfs", 0x3d20177d4d62bea5),
    ("serving/mixed-deepest", 0xd2b5a33ec80ff01f),
    ("fleet/open-affinity", 0xd5fd6e09421db052),
    ("fleet/open-round-robin", 0x1ebc1e0c75efe279),
    ("fleet/open-least-loaded", 0xa38fd0083d7a1a99),
    ("fleet/closed-affinity", 0xed35bc935634a302),
    ("fleet/closed-round-robin", 0x48e8da8c9ea443f7),
    ("fleet/closed-least-loaded", 0x8f0c2ad02dff9760),
    ("fleet/cascade", 0x884b0188bc13fd48),
    ("disagg/1p1d", 0xebff0543f9eb7abe),
    ("disagg/colocated", 0x03d23e198beaa8d8),
    ("disagg/flip-2p2d", 0xf456759ec3c0f142),
    ("disagg/routing-rr-ll", 0x24f85bd0ae5215c6),
    ("disagg/routing-ll-ll", 0xa9f54b4d6d2ce7bb),
    ("disagg/chatbot-open", 0x2298a35f7a5be21d),
    ("disagg/agent-closed", 0x363d47e0d0120dd6),
    ("disagg/pcie-serial", 0x6393d0bf16c0f22b),
    ("disagg/pcie-chunked", 0x824502773e5e99f9),
    ("kv/no-offload", 0x83b113679b3077b6),
    ("kv/offload-lru", 0x64c9d17fa6614916),
    ("kv/offload-distance", 0xa39ae940790c735d),
    ("kv/zero-capacity", 0x83b113679b3077b6),
    ("overload/accept-all", 0x94246086477b93b1),
    ("overload/adaptive", 0xdffefcde60f92dcd),
    ("overload/retry", 0xe1429512385031be),
    ("perf/react-high-qps", 0x2c63266d902b2971),
    ("perf/lats-single", 0xc3ebe194bb6c06c7),
    ("perf/fig14-sweep", 0x3f0e7167c323cb35),
];

/// Runs one cell and digests its output.
pub type Builder = fn() -> u64;

/// Every cell's builder.
pub const CELLS: &[(&str, Builder)] = &[
    ("serving/chatbot-fcfs", || digest(&serving(chatbot(), FCFS))),
    ("serving/chatbot-deepest", || {
        digest(&serving(chatbot(), DEEPEST))
    }),
    ("serving/agent-fcfs", || digest(&serving(react(), FCFS))),
    ("serving/agent-deepest", || {
        digest(&serving(react(), DEEPEST))
    }),
    ("serving/mixed-fcfs", || digest(&serving(mixed(), FCFS))),
    ("serving/mixed-deepest", || {
        digest(&serving(mixed(), DEEPEST))
    }),
    ("fleet/open-affinity", || digest(&fleet(AFFINITY, OPEN))),
    ("fleet/open-round-robin", || digest(&fleet(RR, OPEN))),
    ("fleet/open-least-loaded", || digest(&fleet(LL, OPEN))),
    ("fleet/closed-affinity", || {
        digest(&fleet(AFFINITY, closed()))
    }),
    ("fleet/closed-round-robin", || digest(&fleet(RR, closed()))),
    ("fleet/closed-least-loaded", || digest(&fleet(LL, closed()))),
    ("fleet/cascade", || digest(&cascade())),
    ("disagg/1p1d", || disagg(split_1p1d())),
    ("disagg/colocated", || {
        disagg(DisaggConfig::colocated(react(), 2, 1.0, 16).seed(0xD15A))
    }),
    ("disagg/flip-2p2d", || disagg(flip_2p2d())),
    ("disagg/routing-rr-ll", || disagg(routing_2p2d(RR))),
    ("disagg/routing-ll-ll", || disagg(routing_2p2d(LL))),
    ("disagg/chatbot-open", || {
        disagg(
            DisaggConfig::new(chatbot(), 2.0, 24)
                .seed(0xD1A6)
                .pools(2, 2),
        )
    }),
    ("disagg/agent-closed", || {
        let think_time = SimDuration::from_secs_f64(0.4);
        let client = ClientModel::ClosedLoop {
            concurrency: 5,
            think_time,
        };
        disagg(
            DisaggConfig::new(react(), 1.2, 20)
                .seed(0xC11E)
                .pools(2, 2)
                .client(client),
        )
    }),
    ("disagg/pcie-serial", || disagg(pcie_1p1d(1))),
    ("disagg/pcie-chunked", || disagg(pcie_1p1d(32))),
    ("kv/no-offload", || digest(&kv_thrash(None))),
    ("kv/offload-lru", || digest(&kv_thrash(Some(kv_tiers(LRU))))),
    ("kv/offload-distance", || {
        digest(&kv_thrash(Some(kv_tiers(DISTANCE))))
    }),
    ("kv/zero-capacity", || {
        digest(&kv_thrash(Some(OffloadConfig::tiers(0, 0))))
    }),
    ("overload/accept-all", || {
        digest(&overload(OverloadPolicy::none().deadline(DEADLINE)))
    }),
    ("overload/adaptive", || digest(&overload(adaptive()))),
    ("overload/retry", || {
        digest(&overload(adaptive().retry(RetryPolicy::standard())))
    }),
    ("perf/react-high-qps", || digest(&perf_serving())),
    ("perf/lats-single", || {
        let runner = SingleRequest::new(AgentKind::Lats, Benchmark::HotpotQa).seed(8);
        digest(&runner.run_batch(1))
    }),
    ("perf/fig14-sweep", || {
        let engine = EngineConfig::a100_llama8b();
        digest(&qps_sweep(&engine, &mixed(), &[0.5], 8, 11))
    }),
];

/// The pinned digest of `cell`, if it has a row.
pub fn golden(cell: &str) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|(name, _)| *name == cell)
        .map(|row| row.1)
}

/// Runs `cells` and fails if any drifted from its golden digest,
/// printing each drifted cell's replacement row ready to paste.
pub fn check(cells: &[&str]) {
    let drifted: Vec<String> = cells
        .iter()
        .filter_map(|&name| {
            let (_, build) = CELLS
                .iter()
                .find(|(cell, _)| *cell == name)
                .unwrap_or_else(|| panic!("no builder for cell {name}"));
            let got = build();
            (golden(name) != Some(got)).then(|| format!("    (\"{name}\", {got:#018x}),"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} cell(s) drifted from their golden digest — a change altered simulated \
         behaviour. If it was intended, paste these rows into GOLDEN:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// One `#[test]` per `name => "cell"` pair, each checking that one row.
#[allow(unused_macros)]
macro_rules! golden_tests {
    ($($(#[$meta:meta])* $test:ident => $cell:literal,)*) => {$(
        $(#[$meta])*
        #[test]
        fn $test() {
            $crate::golden_table::check(&[$cell]);
        }
    )*};
}
#[allow(unused_imports)]
pub(crate) use golden_tests;

// ---- Cell builders ------------------------------------------------------

pub const FCFS: SchedulerPolicy = SchedulerPolicy::Fcfs;
pub const DEEPEST: SchedulerPolicy = SchedulerPolicy::DeepestFirst;
pub const AFFINITY: Routing = Routing::SessionAffinity;
pub const RR: Routing = Routing::RoundRobin;
pub const LL: Routing = Routing::LeastLoaded;
pub const OPEN: ClientModel = ClientModel::OpenLoopPoisson;
pub const LRU: EvictionPolicy = EvictionPolicy::Lru;
pub const DISTANCE: EvictionPolicy = EvictionPolicy::InvocationDistance;
pub const DEADLINE: SimDuration = SimDuration::from_secs(20);

pub fn chatbot() -> Workload {
    Workload::Chatbot
}

pub fn react() -> Workload {
    Workload::react_hotpotqa()
}

pub fn mixed() -> Workload {
    Workload::Mixed {
        agent_fraction: 0.5,
        kind: AgentKind::React,
        benchmark: Benchmark::HotpotQa,
        config: AgentConfig::default_8b(),
    }
}

/// A small KV pool, so preemption fires.
pub fn small_kv_engine(scheduler: SchedulerPolicy) -> EngineConfig {
    EngineConfig::a100_llama8b()
        .with_scheduler(scheduler)
        .with_kv_fraction(0.04)
}

/// One replica at high offered load, so a real queue forms (schedulers
/// diverge).
pub fn serving(workload: Workload, scheduler: SchedulerPolicy) -> FleetReport {
    let cfg = ServingConfig::new(workload, 8.0, 40)
        .seed(0xD5EED)
        .engine(small_kv_engine(scheduler));
    FleetSim::new(cfg).run()
}

/// The same serving cell through the disagg driver's degenerate path:
/// one colocated replica, zero-cost link, no autoscaling.
pub fn serving_as_disagg(workload: Workload, scheduler: SchedulerPolicy) -> DisaggReport {
    let cfg = DisaggConfig::colocated(workload, 1, 8.0, 40)
        .seed(0xD5EED)
        .engine(small_kv_engine(scheduler))
        .link(LinkSpec::zero_cost());
    assert!(matches!(cfg.autoscale, AutoscalePolicy::Disabled));
    DisaggSim::new(cfg).run()
}

pub fn closed() -> ClientModel {
    ClientModel::ClosedLoop {
        concurrency: 4,
        think_time: SimDuration::from_secs(2),
    }
}

/// Three replicas loaded enough that routing interleaves with queueing.
pub fn fleet(routing: Routing, client: ClientModel) -> FleetReport {
    let population = match client {
        ClientModel::ClosedLoop { concurrency, .. } => concurrency as u64,
        _ => u64::MAX,
    };
    let cfg = FleetConfig::react_hotpotqa(3, routing, 4.0, 30)
        .seed(0xF1E7)
        .client(client);
    let r = FleetSim::new(cfg).run();
    assert!(
        r.max_live_sessions <= population,
        "closed loop over its population"
    );
    r
}

/// Two 8B replicas fronting one 4xH100 70B replica, escalating purely on
/// observed failure: arrival tier selection, cross-tier re-issue and
/// per-pool accounting.
pub fn cascade() -> FleetReport {
    let pools = vec![
        ReplicaPool::new(EngineConfig::a100_llama8b(), 2),
        ReplicaPool::new(EngineConfig::h100x4_llama70b(), 1),
    ];
    let cfg = FleetConfig::pooled(pools, Routing::SessionAffinity, 4.0, 30)
        .seed(0xF1E7)
        .cascade(CascadePolicy {
            escalate_on_failure: true,
            aptitude_margin: None,
            max_escalations: u32::MAX,
            escalate_retries: false,
        });
    FleetSim::new(cfg).run()
}

pub fn disagg(cfg: impl Into<FleetConfig>) -> u64 {
    digest(&DisaggSim::new(cfg).run())
}

pub fn split_1p1d() -> DisaggConfig {
    DisaggConfig::new(react(), 1.0, 16).seed(0xD15A)
}

/// A one-flip schedule over a 2P+2D split: at t=8s a prefill replica
/// drains and joins the decode pool.
pub fn flip_2p2d() -> DisaggConfig {
    let at = SimTime::from_secs_f64(8.0);
    split_1p1d()
        .pools(2, 2)
        .flip_cost(FlipCostModel::warm())
        .autoscale(AutoscalePolicy::Schedule(vec![(
            at,
            FlipDirection::PrefillToDecode,
        )]))
}

/// A 2P+2D split with `prefill` routing; decode placement stays
/// least-loaded.
pub fn routing_2p2d(prefill: Routing) -> FleetConfig {
    let mut cfg: FleetConfig = DisaggConfig::new(react(), 1.5, 24)
        .seed(0xD1A6)
        .pools(2, 2)
        .into();
    cfg.routing = prefill;
    cfg
}

/// The one cell with real head-of-line link waiting: 1P+1D over PCIe,
/// each migration shipped as up to `chunks` layer chunks.
pub fn pcie_1p1d(chunks: u32) -> DisaggConfig {
    DisaggConfig::new(react(), 1.0, 20)
        .seed(0x9C1E)
        .pools(1, 1)
        .link(LinkSpec::pcie_gen4())
        .transfer_chunks(chunks)
}

pub fn kv_tiers(policy: EvictionPolicy) -> OffloadConfig {
    OffloadConfig::tiers(2048, 8192).with_policy(policy)
}

/// Closed-loop multi-turn users whose carried contexts overrun a
/// shrunken HBM pool between turns.
pub fn kv_thrash(offload: Option<OffloadConfig>) -> FleetReport {
    let client = ClientModel::ClosedLoop {
        concurrency: 6,
        think_time: SimDuration::from_secs(30),
    };
    let mut cfg = FleetConfig::react_hotpotqa(2, Routing::SessionAffinity, 2.0, 24)
        .seed(5)
        .client(client)
        .with_context_carry()
        .map_engines(|e| e.with_kv_fraction(0.15));
    if let Some(off) = offload {
        cfg = cfg.map_engines(|e| e.with_offload(off.clone()));
    }
    FleetSim::new(cfg).run()
}

pub fn adaptive() -> OverloadPolicy {
    OverloadPolicy::none()
        .deadline(DEADLINE)
        .cancel_on_expiry()
        .admission(AdmissionPolicy::aimd_default())
        .discipline(QueueDiscipline::Lifo)
}

/// Three replicas at 10 qps: deep overload, so every overload mechanism
/// fires.
pub fn overload(policy: OverloadPolicy) -> FleetReport {
    let cfg = FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, 10.0, 160)
        .seed(0x10AD)
        .overload(policy);
    let r = FleetSim::new(cfg).run();
    assert!(r.goodput <= r.throughput, "goodput exceeds throughput");
    assert_eq!(r.completed + r.abandoned, 160, "every turn resolves once");
    r
}

/// One replica at 40 qps: a deep waiting queue and a full running set.
pub fn perf_serving() -> FleetReport {
    let engine = EngineConfig::a100_llama8b();
    FleetSim::new(ServingConfig::new(react(), 40.0, 10).seed(7).engine(engine)).run()
}

// ---- The digest ----------------------------------------------------------

/// A 64-bit fold of a stream of words (each step is a bijection of the
/// running state, so one changed word always changes the digest).
#[derive(Default)]
pub struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

pub trait Fold {
    fn fold(&self, d: &mut Digest);
}

pub fn digest(value: &(impl Fold + ?Sized)) -> u64 {
    let mut d = Digest::default();
    value.fold(&mut d);
    d.0
}

impl Fold for f64 {
    fn fold(&self, d: &mut Digest) {
        d.word(self.to_bits());
    }
}

impl Fold for SimTime {
    fn fold(&self, d: &mut Digest) {
        d.word(self.as_micros());
    }
}

impl Fold for SimDuration {
    fn fold(&self, d: &mut Digest) {
        d.word(self.as_micros());
    }
}

impl Fold for RequestId {
    fn fold(&self, d: &mut Digest) {
        d.word(self.0);
    }
}

/// Order-free: the values as a sorted multiset, whatever state the
/// sample set's lazy sort is in.
impl Fold for Samples {
    fn fold(&self, d: &mut Digest) {
        let mut values = self.values().to_vec();
        values.sort_by(f64::total_cmp);
        values.fold(d);
    }
}

impl<T: Fold> Fold for Option<T> {
    fn fold(&self, d: &mut Digest) {
        d.word(self.is_some() as u64);
        if let Some(v) = self {
            v.fold(d);
        }
    }
}

impl<T: Fold> Fold for [T] {
    fn fold(&self, d: &mut Digest) {
        d.word(self.len() as u64);
        self.iter().for_each(|v| v.fold(d));
    }
}

impl<T: Fold> Fold for Vec<T> {
    fn fold(&self, d: &mut Digest) {
        self.as_slice().fold(d);
    }
}

impl Fold for &dyn Fold {
    fn fold(&self, d: &mut Digest) {
        (**self).fold(d);
    }
}

/// Integers, flags and field-less enums enter as one word each.
macro_rules! fold_as_word {
    ($($ty:ty),*) => {$(
        impl Fold for $ty {
            fn fold(&self, d: &mut Digest) {
                d.word(*self as u64);
            }
        }
    )*};
}

fold_as_word!(
    u64,
    u32,
    bool,
    AgentKind,
    Benchmark,
    OutputKind,
    ToolKind,
    FlipDirection
);

/// Structs enter field by field. The destructuring names every field, so
/// a field added to a report fails to compile here until it is folded.
macro_rules! fold_fields {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Fold for $ty {
            fn fold(&self, d: &mut Digest) {
                let $ty { $($field),* } = self;
                $($field.fold(d);)*
            }
        }
    )*};
}

fold_fields! {
    FleetReport {
        offered_qps, completed, solved, escalated, makespan, latencies, agent_latencies,
        chatbot_latencies, p50_s, p95_s, kv_hit_rate, energy_wh, utilization, preemptions,
        evictions, kv_avg_bytes, kv_max_bytes, throughput, goodput, attempts, retries,
        abandoned, late, cancelled, dropped, wasted_gpu_s, max_live_sessions, ttft_p50_s,
        ttft_p95_s, tpot_p50_s, tpot_p99_s, offload_demoted_blocks, offload_promoted_blocks,
        offload_promoted_tokens, offload_dropped_blocks, offload_host_bytes, offload_nvme_bytes,
        offload_host_busy_s, offload_host_wait_s, offload_nvme_busy_s, offload_nvme_wait_s,
    }
    DisaggReport {
        offered_qps, prefill_replicas, decode_replicas, completed, solved, abandoned, dropped,
        makespan, latencies, p50_s, p95_s, calls, migrated_calls, transferred_bytes,
        transfer_wait, prefill_utilization, decode_utilization, energy_wh, kv_hit_rate,
        offload_demoted_blocks, offload_promoted_blocks, offload_promoted_tokens,
        offload_dropped_blocks, preemptions, flips, links,
    }
    CallRecord {
        session, prefill_replica, decode_replica, arrived, prefill_started, released,
        decode_submitted, decode_started, finished, prompt_tokens, cached_tokens, output_tokens,
        prefill_time, decode_time, transfer_wait, kv_bytes, preemptions,
    }
    FlipRecord { replica, direction, requested, drained, completed }
    LinkStats { replica, transfers, chunks, bytes, busy_s, wait_s, utilization }
    SweepPoint { qps, report }
    SingleOutcome {
        trace, utilization, prefill_busy, decode_busy, idle, energy_wh, kv_peak_bytes,
        kv_avg_bytes, flops, kv_hit_rate,
    }
    RequestTrace {
        agent, benchmark, task_id, started, finished, llm, tools, llm_wall, tool_wall,
        overlap_wall, outcome,
    }
    LlmCallRecord { completion, kind, breakdown }
    LlmCompletion {
        id, arrived, started, finished, prompt_tokens, cached_tokens, output_tokens,
        prefill_time, decode_time, flops, preemptions,
    }
    ContextBreakdown { instruction, fewshot, user, llm_history, tool_history, output }
    ToolResult { kind, latency, response_tokens, failed }
    TaskOutcome { solved, iterations }
}
