//! Golden table: every pinned simulation cell, digested once.
//!
//! The table, the cell builders and the digest live in [`golden_table`];
//! this file holds the test that runs every cell, named tests of single
//! disagg rows, and the checks a digest cannot express. To re-pin
//! after an intentional semantics change, run
//! `cargo test -p agentsim-serving --test golden` and paste the
//! replacement rows the failure prints over the drifted ones.

mod golden_table;

use agentsim_gpu::FlipCostModel;
use agentsim_llm::OffloadConfig;
use agentsim_metrics::Samples;
use agentsim_serving::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, FleetReport, FlipDirection,
};
use agentsim_simkit::{SimDuration, SimTime};
use golden_table::{
    check, digest, disagg, flip_2p2d, golden_tests, kv_thrash, kv_tiers, pcie_1p1d, react,
    split_1p1d, CELLS, DISTANCE, GOLDEN, LRU,
};

#[test]
fn every_cell_matches_its_golden_digest() {
    for (name, _) in GOLDEN {
        assert!(
            CELLS.iter().any(|(cell, _)| cell == name),
            "golden row {name} has no builder"
        );
    }
    let cells: Vec<&str> = CELLS.iter().map(|&(name, _)| name).collect();
    check(&cells);
}

golden_tests! {
    /// 1P+1D over the default link.
    disagg_1p1d => "disagg/1p1d",
    /// Two colocated replicas: the baseline the split is measured against.
    colocated_baseline => "disagg/colocated",
    /// The one-flip 2P+2D schedule.
    autoscale_flip_schedule => "disagg/flip-2p2d",
}

/// The full controller plumbing that never flips is bit-exactly free.
#[test]
fn pinned_controller_reproduces_static_split_goldens() {
    let pinned = DisaggSim::new(split_1p1d().autoscale(AutoscalePolicy::Pinned)).run();
    assert!(pinned.flips.is_empty(), "pinned controller must never flip");
    assert_eq!(digest(&pinned), disagg(split_1p1d()));
}

// ---- Structural checks the digests cannot express -----------------------

fn assert_partitioned(r: &DisaggReport) {
    for call in &r.calls {
        let span = call.span();
        assert_eq!(span.total(), call.e2e(), "session {}", call.session);
        assert_eq!(call.migrated(), span.transfer > SimDuration::ZERO);
    }
}

/// The flip cell really flips (a digest cannot tell a dropped schedule
/// from an executed one), and its timestamps telescope.
#[test]
fn autoscale_flip_schedule_executes_exactly_one_flip() {
    let r = DisaggSim::new(flip_2p2d()).run();
    assert_partitioned(&r);
    assert_eq!(r.flips.len(), 1);
    let f = &r.flips[0];
    assert_eq!(f.direction, FlipDirection::PrefillToDecode);
    assert!(f.requested >= SimTime::from_secs_f64(8.0));
    assert!(f.requested <= f.drained && f.drained <= f.completed);
    assert_eq!(f.flip_gap(), FlipCostModel::warm().flip_time());
}

/// Layer-wise chunk trains shrink the contended cell's transfer phase.
#[test]
fn chunked_transfers_shrink_the_transfer_phase() {
    let serial = DisaggSim::new(pcie_1p1d(1)).run();
    let chunked = DisaggSim::new(pcie_1p1d(32)).run();
    assert_partitioned(&serial);
    assert_partitioned(&chunked);
    assert!(serial.links.iter().all(|l| l.chunks == l.transfers));
    assert!(chunked.links.iter().any(|l| l.chunks > l.transfers));
    let (serial_s, chunked_s) = (serial.phase("transfer"), chunked.phase("transfer"));
    assert!(
        chunked_s <= 0.75 * serial_s,
        "chunking must shrink the transfer phase >=25% ({serial_s:.3} s -> {chunked_s:.3} s)"
    );
}

/// The thrash point really spills to the tiers and restores carried
/// context from them, and zero-capacity tiers are the bare pool.
#[test]
fn kv_thrash_point_spills_and_restores() {
    let lru = kv_thrash(Some(kv_tiers(LRU)));
    let distance = kv_thrash(Some(kv_tiers(DISTANCE)));
    assert!(lru.offload_demoted_blocks > 0 && distance.offload_demoted_blocks > 0);
    assert!(distance.offload_promoted_tokens > 0);
    assert_eq!(
        digest(&kv_thrash(Some(OffloadConfig::tiers(0, 0)))),
        digest(&kv_thrash(None)),
        "zero-capacity tiers must reproduce the bare pool bit for bit"
    );
}

#[test]
fn one_ulp_in_one_float_changes_the_digest() {
    let mut r = FleetReport::default();
    let before = digest(&r);
    r.tpot_p99_s = f64::from_bits(r.tpot_p99_s.to_bits() + 1);
    assert_ne!(digest(&r), before);
}

#[test]
fn swapping_two_call_records_changes_the_digest() {
    let mut r = DisaggSim::new(DisaggConfig::new(react(), 1.0, 2).seed(1)).run();
    let before = digest(&r);
    assert_ne!(r.calls[0], r.calls[1]);
    r.calls.swap(0, 1);
    assert_ne!(digest(&r), before);
}

#[test]
fn samples_digest_ignores_the_sort_cache() {
    let unsorted: Samples = [3.0, 1.0, 2.0].into_iter().collect();
    let mut sorted = unsorted.clone();
    sorted.median();
    assert_ne!(sorted.values(), unsorted.values());
    assert_eq!(digest(&sorted), digest(&unsorted));
}
