//! Property-based tests for the chunked KV-transfer layer: random
//! migration storms against random link specs and chunk counts must
//! conserve every byte, keep each link's wire FIFO, and never make a
//! pipelined migration arrive later than the serial transfer would.
//!
//! Each case draws a storm — a sequence of `(destination, kv_bytes,
//! prefill_time, inter-release gap)` migrations — plus a link spec, a
//! chunk count, and a coalescing floor, then replays the identical storm
//! through a serial scheduler and a chunked one and checks:
//!
//! 1. byte conservation: scheduler totals, per-link `bytes_moved`, and
//!    the telescoped chunk pricing all account for exactly the
//!    footprints the storm released;
//! 2. per-link FIFO: chunk wire intervals on one link never overlap, in
//!    schedule order, within and across migrations;
//! 3. monotone arrivals: chunk completion times within a train are
//!    nondecreasing and no migration arrives before it was released;
//! 4. `transfer_chunks(k)` arrival ≤ serial arrival, per migration, for
//!    every k ≥ 1 — pipelining may only help.

use agentsim_gpu::LinkSpec;
use agentsim_kvcache::TokenBuf;
use agentsim_llm::{MigratedRequest, RequestId};
use agentsim_serving::TransferScheduler;
use agentsim_simkit::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Storm {
    /// `(dst replica, kv_bytes, prefill_us, gap_us to next release)`.
    migrations: Vec<(usize, u64, u64, u64)>,
    replicas: usize,
    chunks: u32,
    coalesce_floor: u64,
    /// Index into the link-spec table below.
    link: usize,
}

fn link_spec(i: usize) -> LinkSpec {
    match i {
        0 => LinkSpec::nvlink4(),
        1 => LinkSpec::pcie_gen4(),
        2 => LinkSpec::rdma_400g(),
        _ => LinkSpec {
            name: "slow",
            bandwidth_bytes_per_s: 5e8,
            latency: SimDuration::from_micros(40),
        },
    }
}

fn storm() -> impl Strategy<Value = Storm> {
    (1usize..5, 1usize..25).prop_flat_map(|(replicas, count)| {
        (
            prop::collection::vec(
                (0..replicas, 1u64..64_000_000, 0u64..200_000, 0u64..50_000),
                count..count + 1,
            ),
            2u32..64,
            prop_oneof![Just(0u64), Just(1 << 20), Just(8 << 20)],
            0usize..4,
        )
            .prop_map(move |(migrations, chunks, coalesce_floor, link)| Storm {
                migrations,
                replicas,
                chunks,
                coalesce_floor,
                link,
            })
    })
}

fn migration(id: u64, kv_bytes: u64, prefill_us: u64, released: SimTime) -> MigratedRequest {
    MigratedRequest {
        id: RequestId(id),
        arrived: SimTime::ZERO,
        started: SimTime::ZERO,
        released,
        prompt_tokens: 64,
        cached_tokens: 0,
        priority: 0,
        ctx: TokenBuf::from_segment(1, 65),
        generated: 1,
        target_out: 8,
        gen_seed: 7,
        prefill_time: SimDuration::from_micros(prefill_us),
        flops: 0.0,
        preemptions: 0,
        kv_blocks: (kv_bytes >> 20) as u32,
        kv_bytes,
    }
}

/// Replays the storm, returning per-migration `(transfer id, arrival)`
/// plus the scheduler for counter inspection.
fn replay(s: &Storm, chunks: u32, floor: u64) -> (Vec<(u64, SimTime)>, TransferScheduler) {
    let mut sched = TransferScheduler::new(link_spec(s.link), s.replicas)
        .with_chunks(chunks)
        .with_coalesce_floor(floor);
    let mut now = SimTime::from_micros(1_000);
    let mut out = Vec::with_capacity(s.migrations.len());
    for (i, &(dst, bytes, prefill_us, gap_us)) in s.migrations.iter().enumerate() {
        out.push(sched.schedule(now, dst, migration(i as u64, bytes, prefill_us, now)));
        now += SimDuration::from_micros(gap_us);
    }
    (out, sched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn storms_conserve_bytes_and_stay_fifo_per_link(s in storm()) {
        let (scheduled, mut sched) = replay(&s, s.chunks, s.coalesce_floor);
        let footprint: u64 = s.migrations.iter().map(|&(_, b, _, _)| b).sum();

        // 1. Byte conservation, scheduler- and link-level.
        prop_assert_eq!(sched.total_bytes(), footprint);
        let moved: u64 = sched.links().iter().map(|l| l.bytes_moved()).sum();
        prop_assert_eq!(moved, footprint);

        // Per-link FIFO and per-train monotone arrivals. Completing in
        // schedule order hands back each train's chunk schedule.
        let mut last_end = vec![SimTime::ZERO; s.replicas];
        for &(id, arrival) in &scheduled {
            let pt = sched.complete(id);
            // 1b. The telescoped chunk pricing accounts for exactly the
            // serial wire time of the footprint.
            let spec = link_spec(s.link);
            prop_assert_eq!(
                pt.transfer.duration(),
                spec.transfer_time(pt.migration.kv_bytes)
            );
            prop_assert_eq!(pt.transfer.bytes(), pt.migration.kv_bytes);
            // 2. Non-overlap in schedule order on this link.
            for c in pt.transfer.chunks() {
                prop_assert!(c.start >= last_end[pt.dst]);
                prop_assert!(c.end >= c.start);
                last_end[pt.dst] = c.end;
            }
            // 3. Monotone: the train's last chunk is the arrival, and
            // no migration lands before its release.
            prop_assert_eq!(pt.transfer.end(), arrival);
            prop_assert!(arrival >= pt.migration.released);
        }
        prop_assert_eq!(sched.outstanding(), 0);
    }

    #[test]
    fn chunked_arrivals_never_trail_serial(s in storm()) {
        let (serial, _) = replay(&s, 1, s.coalesce_floor);
        for k in [2u32, 3, s.chunks, 64] {
            let (chunked, _) = replay(&s, k, s.coalesce_floor);
            for (ser, chk) in serial.iter().zip(&chunked) {
                prop_assert!(
                    chk.1 <= ser.1,
                    "k={}: chunked arrival {:?} after serial {:?}",
                    k, chk.1, ser.1
                );
            }
        }
    }

    #[test]
    fn single_chunk_storms_replay_the_serial_schedule_exactly(s in storm()) {
        // chunks(1) must be the serial path bit for bit, including all
        // link counters, whatever the coalescing floor.
        let (a, sa) = replay(&s, 1, s.coalesce_floor);
        let (b, sb) = replay(&s, 1, 0);
        prop_assert_eq!(a, b);
        for (la, lb) in sa.links().iter().zip(sb.links()) {
            prop_assert_eq!(la.transfers(), lb.transfers());
            prop_assert_eq!(la.chunks(), lb.chunks());
            prop_assert_eq!(la.busy_time(), lb.busy_time());
            prop_assert_eq!(la.wait_time(), lb.wait_time());
        }
    }
}
