//! KV offload smoke driver: runs one KV-constrained closed-loop fleet
//! point under the bare pool, LRU tiers, and invocation-distance tiers,
//! and pins the resulting offload fingerprints.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin kvstat            # print
//! cargo run -p agentsim-bench --release --bin kvstat -- --check # CI smoke
//! ```
//!
//! The default mode prints the fingerprints in the source-constant
//! format (the capture helper for updating the table below after an
//! intentional semantics change). `--check` recomputes every cell and
//! fails loudly on drift: demote cascades, link-priced promotions,
//! hint-driven eviction ranking, and conversation carry must all replay
//! bit-identically for a given seed — including the degenerate
//! zero-capacity tiers, which must reproduce the bare-pool row exactly.

use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::OffloadConfig;
use agentsim_serving::{ClientModel, FleetConfig, FleetReport, FleetSim, Routing};
use agentsim_simkit::SimDuration;

/// A KV-thrashing operating point: closed-loop multi-turn users whose
/// carried contexts overrun the shrunken HBM pool between turns.
const USERS: u32 = 6;
const TURNS: u64 = 24;
const THINK: SimDuration = SimDuration::from_secs(30);
const KV_FRACTION: f64 = 0.15;

fn tiers(policy: EvictionPolicy) -> OffloadConfig {
    OffloadConfig::tiers(2048, 8192).with_policy(policy)
}

/// The pinned cells: `(label, offload)`.
fn matrix() -> Vec<(&'static str, Option<OffloadConfig>)> {
    vec![
        ("no-offload", None),
        ("offload-lru", Some(tiers(EvictionPolicy::Lru))),
        (
            "offload-distance",
            Some(tiers(EvictionPolicy::InvocationDistance)),
        ),
        ("zero-capacity", Some(OffloadConfig::tiers(0, 0))),
    ]
}

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: u64,
    demoted: u64,
    promoted: u64,
    promoted_tokens: u64,
    dropped: u64,
    host_bytes: u64,
    nvme_bytes: u64,
    hit_bits: u64,
    ttft_p95_bits: u64,
}

impl Fingerprint {
    fn of(r: &FleetReport) -> Self {
        Fingerprint {
            completed: r.completed,
            demoted: r.offload_demoted_blocks,
            promoted: r.offload_promoted_blocks,
            promoted_tokens: r.offload_promoted_tokens,
            dropped: r.offload_dropped_blocks,
            host_bytes: r.offload_host_bytes,
            nvme_bytes: r.offload_nvme_bytes,
            hit_bits: r.kv_hit_rate.to_bits(),
            ttft_p95_bits: r.ttft_p95_s.to_bits(),
        }
    }
}

fn run(offload: Option<OffloadConfig>) -> FleetReport {
    let mut cfg = FleetConfig::react_hotpotqa(2, Routing::SessionAffinity, 2.0, TURNS)
        .seed(5)
        .client(ClientModel::ClosedLoop {
            concurrency: USERS,
            think_time: THINK,
        })
        .with_context_carry()
        .map_engines(|e| e.with_kv_fraction(KV_FRACTION));
    if let Some(off) = offload {
        cfg = cfg.map_engines(|e| e.with_offload(off.clone()));
    }
    FleetSim::new(cfg).run()
}

/// `(label, completed, demoted, promoted, promoted_tokens, dropped,
/// host_bytes, nvme_bytes, hit_bits, ttft_p95_bits)` — capture with the
/// default (print) mode after any intentional semantics change.
type GoldenRow = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64);
const GOLDEN: [GoldenRow; 4] = [
    (
        "no-offload",
        24,
        0,
        0,
        0,
        0,
        0,
        0,
        0x3fea1b724442d216,
        0x3ff9a294141e9af6,
    ),
    (
        "offload-lru",
        24,
        7290,
        3363,
        53808,
        0,
        22340960256,
        0,
        0x3fecd7a85a5be494,
        0x3fe72f74cd31769b,
    ),
    (
        "offload-distance",
        24,
        8110,
        6594,
        105504,
        0,
        30836523008,
        0,
        0x3fed66d6f2f9c8ce,
        0x3fe509edbf8b9baa,
    ),
    (
        "zero-capacity",
        24,
        0,
        0,
        0,
        0,
        0,
        0,
        0x3fea1b724442d216,
        0x3ff9a294141e9af6,
    ),
];

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        Some("--check") => true,
        Some(other) => {
            eprintln!("unknown flag {other}; use --check");
            std::process::exit(2);
        }
        None => false,
    };

    let mut fingerprints: Vec<(&'static str, Fingerprint)> = Vec::new();
    for (label, offload) in matrix() {
        let report = run(offload);
        fingerprints.push((label, Fingerprint::of(&report)));
    }

    // Structural expectations that hold regardless of golden drift.
    let by = |label: &str| {
        &fingerprints
            .iter()
            .find(|(l, _)| *l == label)
            .expect("cell present")
            .1
    };
    assert!(
        by("offload-lru").demoted > 0 && by("offload-distance").demoted > 0,
        "the thrash point must actually spill to the tiers"
    );
    assert!(
        by("offload-distance").promoted_tokens > 0,
        "carried conversations must restore context from the tiers"
    );
    assert_eq!(
        by("zero-capacity"),
        by("no-offload"),
        "zero-capacity tiers must reproduce the bare pool bit for bit"
    );

    let mut drifted = 0u32;
    for (label, f) in &fingerprints {
        if check {
            let want = GOLDEN
                .iter()
                .find(|(l, ..)| l == label)
                .expect("golden row present");
            let expected = Fingerprint {
                completed: want.1,
                demoted: want.2,
                promoted: want.3,
                promoted_tokens: want.4,
                dropped: want.5,
                host_bytes: want.6,
                nvme_bytes: want.7,
                hit_bits: want.8,
                ttft_p95_bits: want.9,
            };
            if f != &expected {
                drifted += 1;
                eprintln!("{label} drifted:\n  got  {f:#x?}\n  want {expected:#x?}");
            } else {
                println!("{label}: ok");
            }
        } else {
            println!(
                "(\"{label}\", {}, {}, {}, {}, {}, {}, {}, {:#x}, {:#x}),",
                f.completed,
                f.demoted,
                f.promoted,
                f.promoted_tokens,
                f.dropped,
                f.host_bytes,
                f.nvme_bytes,
                f.hit_bits,
                f.ttft_p95_bits
            );
        }
    }

    if check {
        if drifted > 0 {
            eprintln!(
                "{drifted} offload fingerprint(s) drifted — a demote, promote, \
                 eviction-ranking, or carry change altered simulation semantics \
                 (run kvstat without --check to recapture after an intentional change)"
            );
            std::process::exit(1);
        }
        println!("all offload fingerprints stable");
    }
}
