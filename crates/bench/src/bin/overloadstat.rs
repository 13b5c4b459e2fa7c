//! Overload smoke driver: runs one congestion-collapse point under the
//! accept-all baseline and the adaptive admission stack and pins the
//! resulting `FleetReport` fingerprints.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin overloadstat            # print
//! cargo run -p agentsim-bench --release --bin overloadstat -- --check # CI smoke
//! ```
//!
//! The default mode prints the fingerprints in the source-constant
//! format (the capture helper for updating the table below after an
//! intentional semantics change). `--check` recomputes all three and
//! fails loudly on any drift: deadline timers, server-side cancellation,
//! retry backoff, AIMD admission decisions, and queue sheds must all
//! replay bit-identically for a given seed.

use agentsim_serving::{
    AdmissionPolicy, FleetConfig, FleetReport, FleetSim, OverloadPolicy, QueueDiscipline,
    RetryPolicy, Routing,
};
use agentsim_simkit::SimDuration;

/// Past-the-knee operating point shared by every cell: 3 replicas at
/// 10 qps is deep overload, so every overload mechanism actually fires.
const QPS: f64 = 10.0;
const TURNS: u64 = 160;
const DEADLINE: SimDuration = SimDuration::from_secs(20);

fn adaptive() -> OverloadPolicy {
    OverloadPolicy::none()
        .deadline(DEADLINE)
        .cancel_on_expiry()
        .admission(AdmissionPolicy::aimd_default())
        .discipline(QueueDiscipline::Lifo)
}

/// The three pinned cells: `(label, policy)`.
fn matrix() -> Vec<(&'static str, OverloadPolicy)> {
    vec![
        ("accept-all", OverloadPolicy::none().deadline(DEADLINE)),
        ("adaptive", adaptive()),
        ("retry", adaptive().retry(RetryPolicy::standard())),
    ]
}

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: u64,
    late: u64,
    cancelled: u64,
    dropped: u64,
    abandoned: u64,
    retries: u64,
    goodput_bits: u64,
    wasted_bits: u64,
}

impl Fingerprint {
    fn of(r: &FleetReport) -> Self {
        Fingerprint {
            completed: r.completed,
            late: r.late,
            cancelled: r.cancelled,
            dropped: r.dropped,
            abandoned: r.abandoned,
            retries: r.retries,
            goodput_bits: r.goodput.to_bits(),
            wasted_bits: r.wasted_gpu_s.to_bits(),
        }
    }
}

fn run(policy: OverloadPolicy) -> FleetReport {
    let cfg = FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, QPS, TURNS)
        .seed(0x10AD)
        .overload(policy);
    FleetSim::new(cfg).run()
}

/// `(label, completed, late, cancelled, dropped, abandoned, retries,
/// goodput, wasted)` — capture with the default (print) mode after any
/// intentional semantics change.
type GoldenRow = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64);
const GOLDEN: [GoldenRow; 3] = [
    (
        "accept-all",
        74,
        86,
        0,
        0,
        86,
        0,
        0x3ff7a2a373bae751,
        0x407411ac84f8f8a4,
    ),
    (
        "adaptive",
        67,
        0,
        93,
        29,
        93,
        0,
        0x3ffd3a21849a3a1e,
        0x403f17be121ee675,
    ),
    (
        "retry",
        98,
        0,
        235,
        96,
        62,
        173,
        0x3ff3addb6ee1b460,
        0x404daf652bd3c360,
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

    let mut drifted = 0u32;
    for (label, policy) in matrix() {
        let report = run(policy);
        let f = Fingerprint::of(&report);
        assert!(
            report.goodput <= report.throughput,
            "{label}: goodput {} exceeds throughput {}",
            report.goodput,
            report.throughput
        );
        assert_eq!(
            report.completed + report.abandoned,
            TURNS,
            "{label}: every turn must resolve exactly once"
        );
        if check {
            let want = GOLDEN
                .iter()
                .find(|(l, ..)| *l == label)
                .expect("golden row present");
            let expected = Fingerprint {
                completed: want.1,
                late: want.2,
                cancelled: want.3,
                dropped: want.4,
                abandoned: want.5,
                retries: want.6,
                goodput_bits: want.7,
                wasted_bits: want.8,
            };
            if f != expected {
                drifted += 1;
                eprintln!("{label} drifted:\n  got  {f:#x?}\n  want {expected:#x?}");
            } else {
                println!("{label}: ok");
            }
        } else {
            println!(
                "(\"{label}\", {}, {}, {}, {}, {}, {}, {:#x}, {:#x}),",
                f.completed,
                f.late,
                f.cancelled,
                f.dropped,
                f.abandoned,
                f.retries,
                f.goodput_bits,
                f.wasted_bits
            );
        }
    }

    if check {
        if drifted > 0 {
            eprintln!(
                "{drifted} overload fingerprint(s) drifted — a deadline, cancellation, \
                 retry, or admission change altered simulation semantics (run \
                 overloadstat without flags to print current values)"
            );
            std::process::exit(1);
        }
        println!("overloadstat --check passed");
    }
}
