//! The KV-transfer scheduler: moves migrated sequences' KV blocks from
//! the prefill pool to a decode replica over a modeled interconnect.
//!
//! Each replica owns one ingress [`Link`] (its NVLink/PCIe/RDMA port),
//! keyed by *global* replica index so pool autoscaling can retarget a
//! flipped replica without relabeling links; transfers targeting the
//! same replica serialize FIFO on that link, so a prefill burst shows up
//! as *transfer queueing*, not as a magic infinite-bandwidth hop. Links
//! of replicas that never receive a migration stay idle and contribute
//! nothing. The scheduler hands the driver an arrival time for each
//! migration and keeps conservation totals the tests check against the
//! prefill-side KV footprint.
//!
//! # Layer-wise pipelining
//!
//! With [`TransferScheduler::with_chunks`] above 1, each migration ships
//! as a train of layer chunks instead of one lump: chunk `k` of `n`
//! became shippable `prefill_time * (n-1-k) / n` *before* the release
//! (its layers finished prefilling that much earlier — see
//! [`MigratedRequest::chunk_ready`]), so most of the wire time
//! retroactively overlaps the prefill compute and only the last chunk's
//! residual lands on the TTFT path. Chunk pricing telescopes to exactly
//! the serial wire time ([`Link::schedule_chunked`]), so a chunked
//! arrival is never later than the serial one, and a single-chunk plan
//! is bit-identical to the serial path. Small adjacent chunks coalesce
//! up to a floor ([`TransferScheduler::with_coalesce_floor`]) so a tiny
//! footprint does not fragment into per-chunk latency noise.

use std::collections::HashMap;

use agentsim_gpu::{ChunkedTransfer, Link, LinkSpec};
use agentsim_llm::MigratedRequest;
use agentsim_simkit::{SimDuration, SimTime};

/// Below this many bytes, adjacent layer chunks of one migration merge
/// into a single wire chunk: fragmenting a small footprint buys no
/// overlap worth the per-chunk scheduling noise.
pub const DEFAULT_COALESCE_FLOOR: u64 = 1 << 20;

/// A migration in flight: where it is going and on what schedule.
#[derive(Debug, Clone)]
pub struct PendingTransfer {
    /// Destination replica index (global).
    pub dst: usize,
    /// The migrated request (KV payload + resume state).
    pub migration: MigratedRequest,
    /// The link-level schedule (per-chunk wire times; one chunk when the
    /// scheduler runs serially).
    pub transfer: ChunkedTransfer,
}

/// Schedules KV migrations onto per-replica ingress links.
#[derive(Debug)]
pub struct TransferScheduler {
    links: Vec<Link>,
    chunks: u32,
    coalesce_floor: u64,
    pending: HashMap<u64, PendingTransfer>,
    in_flight: Vec<u32>,
    next_id: u64,
    total_bytes: u64,
    completed: u64,
}

impl TransferScheduler {
    /// One ingress link per replica (global index), all with the same
    /// spec. Serial (single-chunk) transfers by default.
    pub fn new(spec: LinkSpec, replicas: usize) -> Self {
        TransferScheduler {
            links: (0..replicas).map(|_| Link::new(spec.clone())).collect(),
            chunks: 1,
            coalesce_floor: DEFAULT_COALESCE_FLOOR,
            pending: HashMap::new(),
            in_flight: vec![0; replicas],
            next_id: 0,
            total_bytes: 0,
            completed: 0,
        }
    }

    /// Ships each migration as up to `chunks` layer chunks pipelined
    /// against the prefill that produced them. `1` is the serial path.
    pub fn with_chunks(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1, "transfer chunks must be >= 1, got {chunks}");
        self.chunks = chunks;
        self
    }

    /// Overrides the coalescing floor: adjacent chunks merge until a
    /// merged chunk carries at least this many bytes. `0` disables
    /// coalescing.
    pub fn with_coalesce_floor(mut self, bytes: u64) -> Self {
        self.coalesce_floor = bytes;
        self
    }

    /// The chunk count migrations are split into.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// Builds the `(ready, bytes)` chunk plan for one migration
    /// committed at `now`: an exact byte split across the chunk count
    /// (never finer than one byte per chunk), readiness back-dated by
    /// per-layer prefill progress, small adjacent chunks coalesced. The
    /// last chunk is always ready exactly at `now`.
    fn chunk_plan(&self, now: SimTime, migration: &MigratedRequest) -> Vec<(SimTime, u64)> {
        let n = u64::from(self.chunks).min(migration.kv_bytes.max(1)) as u32;
        let base = migration.kv_bytes / u64::from(n);
        let rem = migration.kv_bytes % u64::from(n);
        let mut plan: Vec<(SimTime, u64)> = Vec::with_capacity(n as usize);
        for k in 0..n {
            let bytes = base + u64::from(u64::from(k) < rem);
            let ready = migration.chunk_ready(now, k, n);
            // Coalesce: while the previous chunk is still under the
            // floor, fold this one in. Readiness is nondecreasing in k,
            // so the merged chunk ships at its newest constituent.
            match plan.last_mut() {
                Some(prev) if prev.1 < self.coalesce_floor => {
                    prev.0 = ready;
                    prev.1 += bytes;
                }
                _ => plan.push((ready, bytes)),
            }
        }
        plan
    }

    /// Schedules `migration`'s KV blocks onto `dst`'s ingress link.
    /// Returns the transfer id and the arrival time at the decode
    /// replica (when the driver may resubmit the request there).
    pub fn schedule(
        &mut self,
        now: SimTime,
        dst: usize,
        migration: MigratedRequest,
    ) -> (u64, SimTime) {
        let plan = self.chunk_plan(now, &migration);
        let transfer = self.links[dst].schedule_chunked(&plan);
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight[dst] += 1;
        self.total_bytes += migration.kv_bytes;
        let arrival = transfer.end();
        self.pending.insert(
            id,
            PendingTransfer {
                dst,
                migration,
                transfer,
            },
        );
        (id, arrival)
    }

    /// Completes transfer `id` (at its arrival time), handing back the
    /// migration for decode-side resubmission.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or already-completed id.
    pub fn complete(&mut self, id: u64) -> PendingTransfer {
        let pt = self
            .pending
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown transfer {id}"));
        self.in_flight[pt.dst] -= 1;
        self.completed += 1;
        pt
    }

    /// Transfers currently in the air toward replica `dst` (decode-side
    /// least-loaded routing counts these as imminent work, and a
    /// draining replica may not flip until this reaches zero).
    pub fn in_flight(&self, dst: usize) -> u32 {
        self.in_flight[dst]
    }

    /// The per-replica ingress links (for stats: bytes moved, busy/wait
    /// time, transfer counts).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Total KV bytes accepted for transfer so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Transfers completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Transfers scheduled but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Total time transfers spent queued behind earlier transfers.
    pub fn total_wait(&self) -> SimDuration {
        self.links.iter().map(|l| l.wait_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_kvcache::TokenBuf;
    use agentsim_llm::RequestId;

    fn migration(kv_bytes: u64) -> MigratedRequest {
        MigratedRequest {
            id: RequestId(0),
            arrived: SimTime::ZERO,
            started: SimTime::ZERO,
            released: SimTime::ZERO,
            prompt_tokens: 64,
            cached_tokens: 0,
            priority: 0,
            ctx: TokenBuf::from_segment(1, 65),
            generated: 1,
            target_out: 8,
            gen_seed: 7,
            prefill_time: SimDuration::ZERO,
            flops: 0.0,
            preemptions: 0,
            kv_blocks: (kv_bytes >> 20) as u32,
            kv_bytes,
        }
    }

    fn migration_with_prefill(kv_bytes: u64, prefill_us: u64) -> MigratedRequest {
        MigratedRequest {
            prefill_time: SimDuration::from_micros(prefill_us),
            ..migration(kv_bytes)
        }
    }

    fn test_spec() -> LinkSpec {
        // 1 GB/s link: 1 MB takes 1 ms (+1µs latency).
        LinkSpec {
            name: "test",
            bandwidth_bytes_per_s: 1e9,
            latency: SimDuration::from_micros(1),
        }
    }

    #[test]
    fn transfers_to_one_replica_serialize() {
        let mut sched = TransferScheduler::new(test_spec(), 2);
        let (a, end_a) = sched.schedule(SimTime::ZERO, 0, migration(1_000_000));
        let (b, end_b) = sched.schedule(SimTime::ZERO, 0, migration(1_000_000));
        let (_c, end_c) = sched.schedule(SimTime::ZERO, 1, migration(1_000_000));
        assert!(end_b > end_a, "same-replica transfers queue FIFO");
        assert_eq!(end_c, end_a, "distinct replicas have distinct links");
        assert_eq!(sched.in_flight(0), 2);
        assert_eq!(sched.outstanding(), 3);

        let pt = sched.complete(a);
        assert_eq!(pt.dst, 0);
        assert_eq!(sched.in_flight(0), 1);
        sched.complete(b);
        assert_eq!(sched.in_flight(0), 0);
        assert_eq!(sched.completed(), 2);
        assert_eq!(sched.total_bytes(), 3_000_000);
        assert!(sched.total_wait() > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown transfer")]
    fn double_completion_rejected() {
        let mut sched = TransferScheduler::new(LinkSpec::zero_cost(), 1);
        let (id, _) = sched.schedule(SimTime::ZERO, 0, migration(100));
        sched.complete(id);
        sched.complete(id);
    }

    #[test]
    fn chunked_arrival_beats_serial_when_prefill_overlaps() {
        let now = SimTime::from_secs_f64(1.0);
        // 8 MB over 1 GB/s = 8 ms wire; prefill ran for 6 ms, so most
        // of the train back-fills wire time before `now`.
        let mig = || migration_with_prefill(8_000_000, 6_000);
        let mut serial = TransferScheduler::new(test_spec(), 1);
        let (_, serial_end) = serial.schedule(now, 0, mig());
        let mut chunked = TransferScheduler::new(test_spec(), 1).with_chunks(8);
        let (_, chunked_end) = chunked.schedule(now, 0, mig());
        assert!(chunked_end < serial_end);
        assert!(chunked_end >= now, "arrival may not precede the release");
        assert_eq!(chunked.total_bytes(), serial.total_bytes());
        assert_eq!(
            chunked.links()[0].bytes_moved(),
            serial.links()[0].bytes_moved()
        );
    }

    #[test]
    fn chunk_plan_conserves_bytes_and_ends_ready_now() {
        let now = SimTime::from_secs_f64(2.0);
        let sched = TransferScheduler::new(test_spec(), 1)
            .with_chunks(7)
            .with_coalesce_floor(0);
        let mig = migration_with_prefill(10_000_001, 3_500);
        let plan = sched.chunk_plan(now, &mig);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.iter().map(|&(_, b)| b).sum::<u64>(), 10_000_001);
        assert_eq!(plan.last().unwrap().0, now);
        for w in plan.windows(2) {
            assert!(w[1].0 >= w[0].0, "readiness must be nondecreasing");
        }
    }

    #[test]
    fn small_footprints_coalesce_to_fewer_chunks() {
        let sched = TransferScheduler::new(test_spec(), 1)
            .with_chunks(8)
            .with_coalesce_floor(1 << 20);
        // 2 MB over 8 chunks would be 256 KB each, all under the 1 MB
        // floor — adjacent chunks must fold together.
        let plan = sched.chunk_plan(SimTime::ZERO, &migration_with_prefill(2 << 20, 1_000));
        assert!(plan.len() < 8, "coalescing must reduce the chunk count");
        assert_eq!(plan.iter().map(|&(_, b)| b).sum::<u64>(), 2 << 20);
    }
}
