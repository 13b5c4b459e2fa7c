//! The four workloads, each a pinned configuration of one public driver,
//! and what the benchmark reads back from each driver's report and hooks.

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_gpu::{LinkSpec, PerfModel};
use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::{EngineConfig, OffloadConfig};
use agentsim_serving::{
    ClientModel, DisaggConfig, DisaggReport, DisaggSim, DisaggWorkload, FleetConfig, FleetReport,
    FleetSim, Routing, ServingConfig, ServingReport, ServingSim, ServingWorkload, SpanRecorder,
};
use agentsim_simkit::SimDuration;
use agentsim_workloads::Benchmark;

use crate::stats::Fingerprint;
use crate::tally::{kind_index, probe, Counts, ProbeResult, TallyObserver};

/// One benchmark workload. Every one runs its driver's sequential path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `FleetSim`: ReAct/HotpotQA over 32 replicas, least-loaded routing,
    /// open-loop Poisson at 30 qps. Many replicas and short contexts make
    /// the driver's per-event work and step churn the main host cost.
    FleetReact,
    /// `ServingSim`: one replica serving LATS/HotpotQA open loop at 0.4
    /// qps — ~40 calls per turn over long shared prefixes, heavy HBM
    /// eviction. One replica, so fleet-driver work is absent.
    ServingLats,
    /// `FleetSim`: 16 KV-constrained replicas with host/NVMe offload
    /// tiers, invocation-distance eviction, carried contexts, session
    /// affinity and closed-loop users. Exercises the KV tier path.
    FleetOffload,
    /// `DisaggSim`: one prefill and one decode replica over PCIe Gen4,
    /// 32-chunk pipelined KV migrations at 1 qps.
    DisaggPcie,
}

/// ReAct/HotpotQA fleet size, rate and length.
const REACT_REPLICAS: u32 = 32;
const REACT_QPS: f64 = 30.0;
const REACT_TURNS: u64 = 4_000;

/// LATS rate and length: at 0.4 qps the single replica keeps up (p95
/// flat in run length); at 0.8 qps its queue grows without bound.
const LATS_QPS: f64 = 0.4;
const LATS_TURNS: u64 = 1_200;

/// The KV-constrained offload cell: 12 users per replica, each carrying
/// 4 turns of context, over `ext_kv_offload`'s HBM share — large enough
/// that any single carried context fits, small enough that concurrent
/// users thrash the pool. At kvstat's smaller share (0.15) some seeds
/// carry a context past the pool and the engine panics (a known defect;
/// see NOTES.md).
const OFFLOAD_REPLICAS: u32 = 16;
const OFFLOAD_USERS_PER_REPLICA: u32 = 12;
const OFFLOAD_TURNS_PER_USER: u64 = 4;
const OFFLOAD_KV_FRACTION: f64 = 0.25;
const OFFLOAD_THINK: SimDuration = SimDuration::from_secs(30);

/// The contended-PCIe disaggregated cell.
const DISAGG_QPS: f64 = 1.0;
const DISAGG_TURNS: u64 = 2_000;
const DISAGG_CHUNKS: u32 = 32;

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 4] = [
        Workload::FleetReact,
        Workload::ServingLats,
        Workload::FleetOffload,
        Workload::DisaggPcie,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetReact => "fleet_react",
            Workload::ServingLats => "serving_lats",
            Workload::FleetOffload => "fleet_offload",
            Workload::DisaggPcie => "disagg_pcie",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Turns one run issues.
    pub fn turns(self) -> u64 {
        match self {
            Workload::FleetReact => REACT_TURNS,
            Workload::ServingLats => LATS_TURNS,
            Workload::FleetOffload => {
                u64::from(OFFLOAD_REPLICAS * OFFLOAD_USERS_PER_REPLICA) * OFFLOAD_TURNS_PER_USER
            }
            Workload::DisaggPcie => DISAGG_TURNS,
        }
    }

    /// Builds the configuration and the driver: the work `setup_s` times.
    pub fn build(self, seed: u64) -> Sim {
        match self {
            Workload::FleetReact => Sim::Fleet(FleetSim::new(
                FleetConfig::react_hotpotqa(
                    REACT_REPLICAS,
                    Routing::LeastLoaded,
                    REACT_QPS,
                    REACT_TURNS,
                )
                .seed(seed)
                .threads(1),
            )),
            Workload::ServingLats => Sim::Serving(ServingSim::new(
                ServingConfig::new(
                    ServingWorkload::Agent {
                        kind: AgentKind::Lats,
                        benchmark: Benchmark::HotpotQa,
                        config: AgentConfig::default_8b(),
                    },
                    LATS_QPS,
                    LATS_TURNS,
                )
                .seed(seed),
            )),
            Workload::FleetOffload => {
                let users = OFFLOAD_REPLICAS * OFFLOAD_USERS_PER_REPLICA;
                let tiers = OffloadConfig::tiers(2048, 8192)
                    .with_policy(EvictionPolicy::InvocationDistance);
                Sim::Fleet(FleetSim::new(
                    // The rate is unused under a closed-loop client.
                    FleetConfig::react_hotpotqa(
                        OFFLOAD_REPLICAS,
                        Routing::SessionAffinity,
                        2.0,
                        self.turns(),
                    )
                    .seed(seed)
                    .client(ClientModel::ClosedLoop {
                        concurrency: users,
                        think_time: OFFLOAD_THINK,
                    })
                    .with_context_carry()
                    .threads(1)
                    .map_engines(|e| {
                        e.with_kv_fraction(OFFLOAD_KV_FRACTION)
                            .with_offload(tiers.clone())
                    }),
                ))
            }
            Workload::DisaggPcie => Sim::Disagg(DisaggSim::new(
                DisaggConfig::new(DisaggWorkload::react_hotpotqa(), DISAGG_QPS, DISAGG_TURNS)
                    .seed(seed)
                    .pools(1, 1)
                    .link(LinkSpec::pcie_gen4())
                    .transfer_chunks(DISAGG_CHUNKS)
                    .threads(1),
            )),
        }
    }

    /// The engine every replica of this workload runs (the pricing probe
    /// rebuilds its [`PerfModel`] from it).
    fn engine(self) -> EngineConfig {
        EngineConfig::a100_llama8b()
    }
}

/// A built driver, ready to run. One exists per run, so the size gap
/// between variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    Fleet(FleetSim),
    Serving(ServingSim),
    Disagg(DisaggSim),
}

/// A finished run's report.
pub enum Report {
    Fleet(FleetReport),
    Serving(ServingReport),
    Disagg(DisaggReport),
}

/// How the traced run observes its engines.
pub enum Tracer {
    /// One span recorder per replica — the only hook `FleetSim` offers.
    Recorders(Vec<SpanRecorder>),
    /// One counting observer per engine.
    Tallies(Vec<TallyObserver>),
}

impl Sim {
    /// Runs to completion.
    pub fn run(self) -> Report {
        match self {
            Sim::Fleet(s) => Report::Fleet(s.run()),
            Sim::Serving(s) => Report::Serving(s.run()),
            Sim::Disagg(s) => Report::Disagg(s.run()),
        }
    }

    /// Attaches the traced run's observers.
    pub fn trace(&mut self) -> Tracer {
        match self {
            Sim::Fleet(s) => Tracer::Recorders(s.attach_recorders()),
            Sim::Serving(s) => {
                let t = TallyObserver::default();
                s.set_observer(Box::new(t.clone()));
                Tracer::Tallies(vec![t])
            }
            Sim::Disagg(s) => {
                let (p, d) = s.pool_sizes();
                let tallies = (0..p + d)
                    .map(|r| {
                        let t = TallyObserver::default();
                        s.set_replica_observer(r, Box::new(t.clone()));
                        t
                    })
                    .collect();
                Tracer::Tallies(tallies)
            }
        }
    }
}

/// The simulated outputs of one run: everything a simulator-only change
/// must leave bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub completed: u64,
    pub solved: u64,
    pub turn_p50_s: f64,
    pub turn_p95_s: f64,
    pub energy_wh: f64,
    /// Fingerprint over the fields above and every other report counter.
    pub fingerprint: u64,
}

impl Report {
    /// Reads the simulated outputs.
    pub fn outcome(&self) -> Outcome {
        let mut fp = Fingerprint::default();
        let (completed, solved, p50, p95, energy) = match self {
            Report::Fleet(r) => {
                fp.word(r.attempts)
                    .word(r.max_live_sessions)
                    .float(r.kv_hit_rate)
                    .float(r.ttft_p95_s)
                    .float(r.tpot_p99_s)
                    .word(r.offload_demoted_blocks)
                    .word(r.offload_promoted_blocks)
                    .word(r.offload_dropped_blocks)
                    .word(r.offload_host_bytes)
                    .word(r.offload_nvme_bytes);
                (r.completed, r.solved, r.p50_s, r.p95_s, r.energy_wh)
            }
            Report::Serving(r) => {
                fp.float(r.kv_hit_rate)
                    .word(r.preemptions)
                    .word(r.evictions)
                    .word(r.kv_max_bytes)
                    .word(r.makespan.as_micros());
                (r.completed, r.solved, r.p50_s, r.p95_s, r.energy_wh)
            }
            Report::Disagg(r) => {
                fp.float(r.kv_hit_rate)
                    .word(r.preemptions)
                    .word(r.migrated_calls)
                    .word(r.transferred_bytes)
                    .word(r.transfer_wait.as_micros())
                    .word(r.calls.len() as u64)
                    .word(r.links.iter().map(|l| l.chunks).sum());
                (r.completed, r.solved, r.p50_s, r.p95_s, r.energy_wh)
            }
        };
        fp.word(completed)
            .word(solved)
            .float(p50)
            .float(p95)
            .float(energy);
        Outcome {
            completed,
            solved,
            turn_p50_s: p50,
            turn_p95_s: p95,
            energy_wh: energy,
            fingerprint: fp.value(),
        }
    }

    /// Preemptions as the report counts them (for cross-checking the
    /// observers), where the report has them.
    fn preemptions(&self) -> Option<u64> {
        match self {
            Report::Fleet(_) => None,
            Report::Serving(r) => Some(r.preemptions),
            Report::Disagg(r) => Some(r.preemptions),
        }
    }
}

/// Marks a per-layer metric the workload's driver does not expose
/// through any public hook (the value is then undefined, not zero).
pub const NOT_EXPOSED: f64 = -1.0;

/// What the traced run measured, with everything needed to judge it.
pub struct Layers {
    /// `(name, value)` for every per-layer metric, in `BENCHMARK.json`
    /// order. [`NOT_EXPOSED`] where the driver offers no way to see it.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fingerprint of the traced counts.
    pub fingerprint: u64,
    /// Failed checks, each described in one line.
    pub problems: Vec<String>,
}

/// Folds one span recorder into the same counters the tally observer
/// keeps, so both hooks feed one set of definitions.
fn recorder_counts(rec: &SpanRecorder) -> Counts {
    let mut c = Counts::default();
    for s in rec.steps() {
        c.steps[kind_index(s.kind)] += 1;
        c.prefill_tokens += u64::from(s.prefill_tokens);
        c.decode_tokens += u64::from(s.decode_seqs);
        c.busy_us += s.duration().as_micros();
        c.last_end_us = c.last_end_us.max(s.ended.as_micros());
    }
    for span in rec.spans() {
        c.submitted += 1;
        c.preemptions += u64::from(span.preemptions);
        c.queue_wait_us += span.queue_time.as_micros();
        c.stall_us += span.stall_time.as_micros() as i64;
        if span.is_complete() && !span.migrated && !span.abandoned {
            c.cached_tokens += u64::from(span.cached_tokens);
        } else if !span.is_complete() {
            c.unfinished += 1;
        }
    }
    let total = rec.kv_total_blocks();
    if total > 0 {
        c.peak_used_frac = rec.kv_used_blocks().max() / total as f64;
    }
    c
}

/// Computes every per-layer metric from the traced run. `run_s` is the
/// median host time of an untraced `run()`, `traced_run_s` the traced one.
pub fn layers(
    w: Workload,
    report: &Report,
    tracer: Tracer,
    run_s: f64,
    traced_run_s: f64,
) -> Layers {
    let mut problems = Vec::new();
    let mut counts = Counts::default();
    let mut probed = None;
    match tracer {
        Tracer::Recorders(recs) => {
            for rec in &recs {
                counts.merge(&recorder_counts(rec));
            }
        }
        Tracer::Tallies(tallies) => {
            let perf = PerfModel::new(w.engine().cluster);
            let mut p = ProbeResult::default();
            for t in tallies {
                let (c, log) = t.finish();
                counts.merge(&c);
                p.merge(&probe(&perf, &log));
            }
            if p.mismatches > 0 {
                problems.push(format!(
                    "pricing probe: {} of {} steps re-priced to different FLOPs",
                    p.mismatches, p.steps
                ));
            }
            if p.steps != counts.total_steps() {
                problems.push("pricing probe did not see every step".into());
            }
            probed = Some(p);
        }
    }
    if counts.unfinished != 0 {
        problems.push(format!(
            "{} engine requests never finished",
            counts.unfinished
        ));
    }
    if counts.live_sequences != 0 {
        problems.push(format!(
            "{} sequences still hold KV blocks at the end",
            counts.live_sequences
        ));
    }
    if counts.stall_us < 0 {
        problems.push("negative stall time: step attribution is inconsistent".into());
    }
    if let Some(p) = report.preemptions() {
        if p != counts.preemptions {
            problems.push(format!(
                "observer saw {} preemptions, report says {p}",
                counts.preemptions
            ));
        }
    }

    let run_us = run_s * 1e6;
    let engines = match report {
        Report::Fleet(r) => r.utilization.len(),
        Report::Serving(_) => 1,
        Report::Disagg(r) => (r.prefill_replicas + r.decode_replicas) as usize,
    } as f64;
    let steps = counts.total_steps();
    let decode_steps = counts.steps[1] + counts.steps[2];
    let outcome = report.outcome();
    let na = NOT_EXPOSED;
    let ratio = |a: f64, b: f64| crate::stats::ratio(a, b).unwrap_or(na);

    // Session-level counts: a disaggregated call is one call even though
    // it runs on two engines.
    let (llm_calls, attempts, max_live) = match report {
        Report::Fleet(r) => (
            counts.submitted,
            r.attempts as f64,
            r.max_live_sessions as f64,
        ),
        // The open-loop driver has no retries: one attempt per turn. It
        // does not report live sessions.
        Report::Serving(r) => (counts.submitted, r.completed as f64, na),
        Report::Disagg(r) => (r.calls.len() as u64, (r.completed + r.abandoned) as f64, na),
    };
    let cached_tokens = match report {
        Report::Disagg(r) => r.calls.iter().map(|c| u64::from(c.cached_tokens)).sum(),
        _ => counts.cached_tokens,
    };
    let kv_hit_rate = match report {
        Report::Fleet(r) => r.kv_hit_rate,
        Report::Serving(r) => r.kv_hit_rate,
        Report::Disagg(r) => r.kv_hit_rate,
    };
    let evictions = match report {
        Report::Serving(r) => r.evictions as f64,
        _ => na,
    };
    // Offload tiers: only the fleet driver reports bytes and link time;
    // the other two workloads configure no tiers, so theirs are zero.
    let offload = match report {
        Report::Fleet(r) => [
            r.offload_demoted_blocks as f64,
            r.offload_promoted_blocks as f64,
            r.offload_dropped_blocks as f64,
            r.offload_host_bytes as f64,
            r.offload_nvme_bytes as f64,
            r.offload_host_busy_s,
            r.offload_host_wait_s,
            r.offload_nvme_busy_s,
            r.offload_nvme_wait_s,
        ],
        _ => [0.0; 9],
    };
    let (link, migrated, transfer_phase_s) = match report {
        Report::Disagg(r) => {
            let mut l = [0.0; 5];
            for s in &r.links {
                l[0] += s.transfers as f64;
                l[1] += s.chunks as f64;
                l[2] += s.bytes as f64;
                l[3] += s.busy_s;
                l[4] += s.wait_s;
            }
            let phase: SimDuration = r.calls.iter().map(|c| c.span().transfer).sum();
            (l, r.migrated_calls as f64, phase.as_secs_f64())
        }
        _ => ([0.0; 5], 0.0, 0.0),
    };
    let (price_ns_per_step, price_share, shape_reuse) = match probed {
        Some(p) => (
            ratio(p.price_s * 1e9, p.steps as f64),
            ratio(p.price_s, run_s),
            ratio(p.repeated_shapes as f64, p.steps as f64),
        ),
        None => (na, na, na),
    };

    let metrics = vec![
        ("serving.host_us_per_step", ratio(run_us, steps as f64)),
        ("serving.host_us_per_call", ratio(run_us, llm_calls as f64)),
        ("serving.max_live_sessions", max_live),
        ("session.llm_calls", llm_calls as f64),
        (
            "session.calls_per_turn",
            ratio(llm_calls as f64, outcome.completed as f64),
        ),
        ("session.attempts", attempts),
        ("llm.steps", steps as f64),
        ("llm.steps.prefill", counts.steps[0] as f64),
        ("llm.steps.decode", counts.steps[1] as f64),
        ("llm.steps.mixed", counts.steps[2] as f64),
        (
            "llm.decode_batch_mean",
            ratio(counts.decode_tokens as f64, decode_steps as f64),
        ),
        ("llm.prefill_tokens", counts.prefill_tokens as f64),
        ("llm.decode_tokens", counts.decode_tokens as f64),
        ("llm.preemptions", counts.preemptions as f64),
        ("llm.queue_wait_s", counts.queue_wait_us as f64 / 1e6),
        ("llm.stall_s", counts.stall_us as f64 / 1e6),
        (
            "llm.busy_frac",
            ratio(counts.busy_us as f64, engines * counts.last_end_us as f64),
        ),
        (
            "llm.host_ns_per_token",
            ratio(
                run_s * 1e9,
                (counts.prefill_tokens + counts.decode_tokens) as f64,
            ),
        ),
        ("kv.hit_rate", kv_hit_rate),
        ("kv.cached_tokens", cached_tokens as f64),
        ("kv.evictions", evictions),
        ("kv.peak_used_frac", counts.peak_used_frac),
        ("kv.demoted_blocks", offload[0]),
        ("kv.promoted_blocks", offload[1]),
        ("kv.dropped_blocks", offload[2]),
        ("kv.host_bytes", offload[3]),
        ("kv.nvme_bytes", offload[4]),
        ("gpu.price_ns_per_step", price_ns_per_step),
        ("gpu.price_share", price_share),
        ("gpu.shape_reuse_frac", shape_reuse),
        ("link.transfers", link[0]),
        ("link.chunks", link[1]),
        ("link.bytes", link[2]),
        ("link.busy_s", link[3]),
        ("link.wait_s", link[4]),
        ("offload.host_busy_s", offload[5]),
        ("offload.host_wait_s", offload[6]),
        ("offload.nvme_busy_s", offload[7]),
        ("offload.nvme_wait_s", offload[8]),
        ("disagg.migrated_calls", migrated),
        ("disagg.transfer_phase_s", transfer_phase_s),
        ("disagg.host_us_per_chunk", ratio(run_us, link[1])),
        ("trace.overhead_frac", traced_run_s / run_s - 1.0),
    ];

    // Pin only simulated quantities: host times and the probe's timing
    // vary run to run.
    let mut fp = Fingerprint::default();
    counts.fingerprint(&mut fp);
    fp.word(llm_calls)
        .word(cached_tokens)
        .float(attempts)
        .float(max_live)
        .float(evictions)
        .float(shape_reuse);
    for x in offload.iter().chain(&link) {
        fp.float(*x);
    }
    fp.float(transfer_phase_s);
    Layers {
        metrics,
        fingerprint: fp.value(),
        problems,
    }
}
