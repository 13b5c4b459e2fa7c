//! Golden determinism tests: pinned `DisaggReport` fingerprints for the
//! disaggregated split and the colocated baseline.
//!
//! The disaggregated simulator must stay bit-deterministic for a given
//! configuration and seed: any drift here means an engine, transfer, or
//! routing change altered simulation semantics, not just speed.
//!
//! Floats are pinned via `f64::to_bits` — exact equality, no tolerance.

use agentsim_gpu::FlipCostModel;
use agentsim_serving::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, FlipDirection, Workload,
};
use agentsim_simkit::SimTime;

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: u64,
    migrated: u64,
    transferred_bytes: u64,
    p95_bits: u64,
    ttft_p95_bits: u64,
    tpot_p99_bits: u64,
}

impl Fingerprint {
    fn of(r: &DisaggReport) -> Self {
        let mut ttft = r.ttft();
        let mut tpot = r.tpot();
        Fingerprint {
            completed: r.completed,
            migrated: r.migrated_calls,
            transferred_bytes: r.transferred_bytes,
            p95_bits: r.p95_s.to_bits(),
            ttft_p95_bits: ttft.p95().to_bits(),
            tpot_p99_bits: tpot.percentile(99.0).to_bits(),
        }
    }
}

fn run(cfg: DisaggConfig) -> Fingerprint {
    Fingerprint::of(&DisaggSim::new(cfg).run())
}

fn disagg_cfg() -> DisaggConfig {
    DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 16).seed(0xD15A)
}

fn colocated_cfg() -> DisaggConfig {
    DisaggConfig::colocated(Workload::react_hotpotqa(), 2, 1.0, 16).seed(0xD15A)
}

/// A deterministic one-flip schedule over a 2P+2D split: at t=8s a
/// prefill replica drains and joins the decode pool.
fn flip_cfg() -> DisaggConfig {
    DisaggConfig::new(Workload::react_hotpotqa(), 1.0, 16)
        .seed(0xD15A)
        .pools(2, 2)
        .flip_cost(FlipCostModel::warm())
        .autoscale(AutoscalePolicy::Schedule(vec![(
            SimTime::from_secs_f64(8.0),
            FlipDirection::PrefillToDecode,
        )]))
}

macro_rules! golden {
    ($test:ident, $cfg:expr, $completed:literal, $migrated:literal, $bytes:literal,
     $p95:literal, $ttft:literal, $tpot:literal) => {
        #[test]
        fn $test() {
            let got = run($cfg);
            let want = Fingerprint {
                completed: $completed,
                migrated: $migrated,
                transferred_bytes: $bytes,
                p95_bits: $p95,
                ttft_p95_bits: $ttft,
                tpot_p99_bits: $tpot,
            };
            assert_eq!(
                got, want,
                "disagg fingerprint drifted — an engine, transfer, or routing \
                 change altered simulation semantics (run \
                 `print_disagg_fingerprints` to see current values)"
            );
        }
    };
}

// Capture helper: `cargo test -p agentsim-serving --test golden \
// print_disagg_fingerprints -- --ignored --nocapture` prints the
// constants in the macro's argument order.
golden!(
    disagg_1p1d,
    disagg_cfg(),
    16,
    85,
    18614321152,
    0x4032c7dc486ad2dd,
    0x3fb12c16df3f9618,
    0x3f90baa582dbe7f3
);
golden!(
    colocated_baseline,
    colocated_cfg(),
    16,
    0,
    0,
    0x403261c9f72f76e6,
    0x3fba8f6cefed6345,
    0x3f956fb8f57f737e
);
golden!(
    autoscale_flip_schedule,
    flip_cfg(),
    16,
    89,
    20497563648,
    0x403430316a055758,
    0x3fb1b25f633ce63a,
    0x3f8fb69984a0e411
);

/// The flip-schedule golden really does flip (the fingerprint alone
/// cannot tell a dropped schedule from an executed one).
#[test]
fn autoscale_flip_schedule_executes_exactly_one_flip() {
    let r = DisaggSim::new(flip_cfg()).run();
    assert_eq!(r.flips.len(), 1);
    let f = &r.flips[0];
    assert_eq!(f.direction, FlipDirection::PrefillToDecode);
    assert!(f.requested >= SimTime::from_secs_f64(8.0));
    assert_eq!(
        f.completed.saturating_since(f.drained),
        FlipCostModel::warm().flip_time()
    );
}

/// The four static-split goldens above must also be reproduced when the
/// full controller plumbing runs but never flips: the pinned controller
/// proves autoscaling's observation path is bit-exactly free.
#[test]
fn pinned_controller_reproduces_static_split_goldens() {
    let pinned = run(disagg_cfg().autoscale(AutoscalePolicy::Pinned));
    let golden = run(disagg_cfg());
    assert_eq!(pinned, golden, "pinned controller perturbed the run");

    let report = DisaggSim::new(disagg_cfg().autoscale(AutoscalePolicy::Pinned)).run();
    assert!(report.flips.is_empty(), "pinned controller must never flip");
}

#[test]
#[ignore]
fn print_disagg_fingerprints() {
    for (name, cfg) in [
        ("disagg_1p1d", disagg_cfg()),
        ("colocated", colocated_cfg()),
        ("flip_2p2d", flip_cfg()),
    ] {
        let f = run(cfg);
        println!(
            "{name}: {}, {}, {}, {:#x}, {:#x}, {:#x}",
            f.completed,
            f.migrated,
            f.transferred_bytes,
            f.p95_bits,
            f.ttft_p95_bits,
            f.tpot_p99_bits
        );
    }
}
