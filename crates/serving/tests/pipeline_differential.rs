//! Differential test: `transfer_chunks(1)` must reproduce the
//! **pre-pipeline** driver bit for bit, across routing × client-model
//! cells, a contended PCIe cell, and an autoscale flip. The routing
//! cells vary the prefill pool's routing; decode placement is always
//! least-loaded.
//!
//! The constants below were captured from the serial driver immediately
//! before the chunked-transfer machinery landed (the whole-footprint
//! `Link::schedule` path, PR 9 tree). The single-chunk plan must price,
//! queue, and account identically — same arrival times, same head-of-
//! line waits, same float bits in every tail statistic — or the chunked
//! scheduler has changed behaviour it promised only to generalize.

use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_serving::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, FleetConfig, FlipDirection, Routing,
    Workload,
};
use agentsim_session::ClientModel;
use agentsim_simkit::{SimDuration, SimTime};

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: u64,
    migrated: u64,
    bytes: u64,
    wait_us: u64,
    p95_bits: u64,
    ttft95_bits: u64,
    tpot99_bits: u64,
    energy_bits: u64,
}

impl Fingerprint {
    fn of(r: &DisaggReport) -> Self {
        let mut ttft = r.ttft();
        let mut tpot = r.tpot();
        Fingerprint {
            completed: r.completed,
            migrated: r.migrated_calls,
            bytes: r.transferred_bytes,
            wait_us: r.transfer_wait.as_micros(),
            p95_bits: r.p95_s.to_bits(),
            ttft95_bits: ttft.p95().to_bits(),
            tpot99_bits: tpot.percentile(99.0).to_bits(),
            energy_bits: r.energy_wh.to_bits(),
        }
    }
}

fn check(cfg: impl Into<FleetConfig>, want: Fingerprint, label: &str) {
    let r = DisaggSim::new(cfg.into().transfer_chunks(1)).run();
    assert_eq!(
        Fingerprint::of(&r),
        want,
        "{label}: transfer_chunks(1) diverged from the pre-pipeline serial driver"
    );
}

fn routing_cell(prefill: Routing) -> FleetConfig {
    let mut cfg: FleetConfig = DisaggConfig::new(Workload::react_hotpotqa(), 1.5, 24)
        .seed(0xD1A6)
        .pools(2, 2)
        .into();
    cfg.routing = prefill;
    cfg
}

#[test]
fn routing_rr_ll_matches_pre_pipeline() {
    check(
        routing_cell(Routing::RoundRobin),
        Fingerprint {
            completed: 24,
            migrated: 140,
            bytes: 33657192448,
            wait_us: 0,
            p95_bits: 0x40328b33226c3b92,
            ttft95_bits: 0x3fc1ed41b75a74c1,
            tpot99_bits: 0x3f90d844d013a92a,
            energy_bits: 0x401665cf1c077290,
        },
        "round-robin/least-loaded",
    );
}

#[test]
fn routing_ll_ll_matches_pre_pipeline() {
    check(
        routing_cell(Routing::LeastLoaded),
        Fingerprint {
            completed: 24,
            migrated: 140,
            bytes: 33957085184,
            wait_us: 0,
            p95_bits: 0x40333b3083558a76,
            ttft95_bits: 0x3fbb9cb6848beb5b,
            tpot99_bits: 0x3f90d73860999dcb,
            energy_bits: 0x4015bfb728ed0df3,
        },
        "least-loaded/least-loaded",
    );
}

#[test]
fn chatbot_open_loop_matches_pre_pipeline() {
    check(
        DisaggConfig::new(Workload::Chatbot, 2.0, 24)
            .seed(0xD1A6)
            .pools(2, 2),
        Fingerprint {
            completed: 24,
            migrated: 24,
            bytes: 1222639616,
            wait_us: 0,
            p95_bits: 0x402191fcf3dc054f,
            ttft95_bits: 0x3fba39c51dabe271,
            tpot99_bits: 0x3f8f47f993d5347a,
            energy_bits: 0x40037f76dcdaf4fa,
        },
        "chatbot open-loop",
    );
}

#[test]
fn agent_closed_loop_matches_pre_pipeline() {
    check(
        DisaggConfig::new(Workload::react_hotpotqa(), 1.2, 20)
            .seed(0xC11E)
            .pools(2, 2)
            .client(ClientModel::ClosedLoop {
                concurrency: 5,
                think_time: SimDuration::from_secs_f64(0.4),
            }),
        Fingerprint {
            completed: 20,
            migrated: 123,
            bytes: 30821842944,
            wait_us: 0,
            p95_bits: 0x40336c5ab3aabcd8,
            ttft95_bits: 0x3fc04f8f8a4c1ebd,
            tpot99_bits: 0x3f8fe7e1fc08fa7b,
            energy_bits: 0x4025c51ea1f0e92d,
        },
        "agent closed-loop",
    );
}

#[test]
fn contended_pcie_cell_matches_pre_pipeline() {
    // The one cell with real head-of-line waiting (26.9 ms of it): a
    // 1P+1D split over PCIe. Queueing arithmetic must survive the
    // chunked generalization untouched.
    check(
        DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 20)
            .seed(0x9C1E)
            .pools(1, 1)
            .link(LinkSpec::pcie_gen4()),
        Fingerprint {
            completed: 20,
            migrated: 91,
            bytes: 18838716416,
            wait_us: 26886,
            p95_bits: 0x4032da21fafc8b00,
            ttft95_bits: 0x3fb878316a055758,
            tpot99_bits: 0x3f90f16f4384ba0f,
            energy_bits: 0x4006edf8dfe8111c,
        },
        "contended pcie",
    );
}

#[test]
fn autoscale_flip_matches_pre_pipeline() {
    check(
        DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 16)
            .seed(0xD15A)
            .pools(2, 2)
            .flip_cost(FlipCostModel::warm())
            .autoscale(AutoscalePolicy::Schedule(vec![(
                SimTime::from_secs_f64(8.0),
                FlipDirection::PrefillToDecode,
            )])),
        Fingerprint {
            completed: 16,
            migrated: 89,
            bytes: 20497563648,
            wait_us: 0,
            p95_bits: 0x403430316a055758,
            ttft95_bits: 0x3fb1b25f633ce63a,
            tpot99_bits: 0x3f8fb69984a0e411,
            energy_bits: 0x4019cc484ab92872,
        },
        "autoscale flip",
    );
}
