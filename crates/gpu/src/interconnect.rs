//! Interconnect model for moving KV-cache state between replicas.
//!
//! Disaggregated prefill/decode serving (Splitwise-style) migrates a
//! request's KV blocks from the prefill pool to the decode pool after the
//! first token. The cost of that migration is what this module prices: a
//! [`LinkSpec`] gives a link's effective bandwidth and base latency, and a
//! stateful [`Link`] adds FIFO serialization — transfers on the same link
//! queue behind each other, so a burst of migrations sees head-of-line
//! waiting on top of the wire time.
//!
//! # Example
//!
//! ```
//! use agentsim_gpu::interconnect::{Link, LinkSpec};
//! use agentsim_simkit::SimTime;
//!
//! let mut link = Link::new(LinkSpec::pcie_gen4());
//! let a = link.schedule(SimTime::ZERO, 64 << 20); // 64 MiB
//! let b = link.schedule(SimTime::ZERO, 64 << 20); // queues behind `a`
//! assert_eq!(b.start, a.end);
//! assert!(b.wait > agentsim_simkit::SimDuration::ZERO);
//! ```

use agentsim_simkit::{SimDuration, SimTime};

/// Static description of one interconnect link: effective bandwidth plus a
/// fixed per-transfer latency (setup, descriptor exchange, first-byte
/// latency).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable name, used in reports.
    pub name: &'static str,
    /// Effective (not peak) bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed latency charged to every transfer regardless of size.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// NVLink 4 within a node: ~450 GB/s peak per direction, ~300 GB/s
    /// effective for bulk KV copies, microsecond-scale latency.
    pub fn nvlink4() -> Self {
        LinkSpec {
            name: "nvlink4",
            bandwidth_bytes_per_s: 300e9,
            latency: SimDuration::from_micros(5),
        }
    }

    /// PCIe Gen4 x16 host path: 32 GB/s peak, ~24 GB/s effective.
    pub fn pcie_gen4() -> Self {
        LinkSpec {
            name: "pcie_gen4",
            bandwidth_bytes_per_s: 24e9,
            latency: SimDuration::from_micros(15),
        }
    }

    /// Cross-node RDMA over 400 Gb/s fabric: 50 GB/s line rate, ~40 GB/s
    /// effective, with network round-trip setup latency.
    pub fn rdma_400g() -> Self {
        LinkSpec {
            name: "rdma_400g",
            bandwidth_bytes_per_s: 40e9,
            latency: SimDuration::from_micros(25),
        }
    }

    /// GPU↔host-DRAM DMA path for KV offload: the same PCIe Gen4 x16 wire
    /// as [`LinkSpec::pcie_gen4`], but with a shorter per-transfer setup —
    /// demote/promote copies are driver-initiated DMA, not a cross-replica
    /// descriptor exchange.
    pub fn pcie_host() -> Self {
        LinkSpec {
            name: "pcie_host",
            bandwidth_bytes_per_s: 24e9,
            latency: SimDuration::from_micros(10),
        }
    }

    /// Host↔NVMe tier for cold KV: a striped pair of datacenter Gen4
    /// drives, ~3 GB/s effective for large sequential KV segments, with
    /// flash-read latency per transfer.
    pub fn nvme() -> Self {
        LinkSpec {
            name: "nvme",
            bandwidth_bytes_per_s: 3e9,
            latency: SimDuration::from_micros(100),
        }
    }

    /// An idealized free link: infinite bandwidth, zero latency. Used by
    /// conservation tests to show disaggregation with no transfer cost
    /// reproduces colocated behaviour.
    pub fn zero_cost() -> Self {
        LinkSpec {
            name: "zero_cost",
            bandwidth_bytes_per_s: f64::INFINITY,
            latency: SimDuration::ZERO,
        }
    }

    /// Wire time for `bytes` on an idle link: latency + bytes/bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_s)
    }

    /// Panics if the spec is not physically meaningful.
    pub fn validate(&self) {
        assert!(
            self.bandwidth_bytes_per_s > 0.0,
            "link bandwidth must be positive, got {}",
            self.bandwidth_bytes_per_s
        );
    }
}

/// The outcome of scheduling one transfer on a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the transfer begins moving bytes (>= the request time when the
    /// link is busy).
    pub start: SimTime,
    /// When the last byte arrives.
    pub end: SimTime,
    /// Head-of-line wait before the transfer started.
    pub wait: SimDuration,
    /// Pure wire time (latency + serialization), excluding the wait.
    pub duration: SimDuration,
}

/// A transfer split into FIFO-interleaved layer chunks on one [`Link`].
///
/// Each chunk carries its own [`Transfer`] schedule; the chunks of one
/// migration reserve the link back-to-back (no foreign transfer lands
/// between them), so the train's last `end` is when the full footprint has
/// arrived. Produced by [`Link::schedule_chunked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedTransfer {
    chunks: Vec<Transfer>,
    bytes: u64,
}

impl ChunkedTransfer {
    /// Per-chunk schedules, in shipping order.
    pub fn chunks(&self) -> &[Transfer] {
        &self.chunks
    }

    /// Total payload across all chunks.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// When the first chunk begins moving bytes.
    pub fn start(&self) -> SimTime {
        self.chunks[0].start
    }

    /// When the last byte of the last chunk arrives.
    pub fn end(&self) -> SimTime {
        self.chunks[self.chunks.len() - 1].end
    }

    /// Head-of-line wait before the first chunk started. Later chunks
    /// queue only behind their own predecessors, which is pipeline
    /// occupancy rather than contention, so it is not counted here.
    pub fn wait(&self) -> SimDuration {
        self.chunks[0].wait
    }

    /// Total wire time across all chunks — exactly the serial
    /// [`LinkSpec::transfer_time`] of the whole footprint, by the
    /// cumulative-prefix pricing in [`Link::schedule_chunked`].
    pub fn duration(&self) -> SimDuration {
        self.chunks.iter().map(|c| c.duration).sum()
    }
}

/// A stateful link that serializes transfers FIFO: each transfer starts no
/// earlier than the previous one finished.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    busy_until: SimTime,
    transfers: u64,
    chunks: u64,
    bytes_moved: u64,
    busy_time: SimDuration,
    wait_time: SimDuration,
}

impl Link {
    /// A new idle link.
    pub fn new(spec: LinkSpec) -> Self {
        spec.validate();
        Link {
            spec,
            busy_until: SimTime::ZERO,
            transfers: 0,
            chunks: 0,
            bytes_moved: 0,
            busy_time: SimDuration::ZERO,
            wait_time: SimDuration::ZERO,
        }
    }

    /// The static spec this link was built from.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Schedules a transfer of `bytes` requested at `now`; it starts once
    /// the link is free and occupies it for the full wire time.
    pub fn schedule(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = now.max(self.busy_until);
        let duration = self.spec.transfer_time(bytes);
        let end = start + duration;
        let wait = start.saturating_since(now);
        self.busy_until = end;
        self.transfers += 1;
        self.chunks += 1;
        self.bytes_moved += bytes;
        self.busy_time += duration;
        self.wait_time += wait;
        Transfer {
            start,
            end,
            wait,
            duration,
        }
    }

    /// Schedules one logical transfer as a train of chunks, each a
    /// `(ready, bytes)` pair: the chunk may not start moving before
    /// `ready` (its layer has not finished prefilling yet) and may not
    /// start before the previous chunk — FIFO per link, and the train
    /// reserves the link atomically so no other transfer interleaves.
    ///
    /// Chunk wire time is priced by cumulative prefix: chunk `k` costs
    /// `D(prefix_k) - D(prefix_{k-1})` where `D(b)` is the serialization
    /// time of `b` bytes, with the fixed link latency charged to chunk 0
    /// only. The per-chunk durations therefore telescope to exactly the
    /// serial [`LinkSpec::transfer_time`] of the whole footprint in
    /// integer microseconds — so a chunked train on an idle link never
    /// finishes later than the serial transfer would have, and a
    /// single-chunk plan reproduces [`Link::schedule`] bit for bit.
    ///
    /// Ready times earlier than the caller's clock are legal and are the
    /// whole point: they model layers that finished prefilling before the
    /// migration was committed, retroactively overlapping wire time with
    /// compute. Ready times must be nondecreasing.
    pub fn schedule_chunked(&mut self, plan: &[(SimTime, u64)]) -> ChunkedTransfer {
        assert!(!plan.is_empty(), "a chunked transfer needs >= 1 chunk");
        let mut chunks = Vec::with_capacity(plan.len());
        let mut bytes = 0u64;
        let mut wired = SimDuration::ZERO;
        for (k, &(ready, chunk_bytes)) in plan.iter().enumerate() {
            debug_assert!(
                k == 0 || ready >= plan[k - 1].0,
                "chunk ready times must be nondecreasing"
            );
            bytes += chunk_bytes;
            let cumulative =
                SimDuration::from_secs_f64(bytes as f64 / self.spec.bandwidth_bytes_per_s);
            let mut duration = cumulative - wired;
            wired = cumulative;
            if k == 0 {
                duration = self.spec.latency + duration;
            }
            let start = ready.max(self.busy_until);
            let end = start + duration;
            let wait = start.saturating_since(ready);
            self.busy_until = end;
            self.busy_time += duration;
            // Chunks after the first only ever queue behind their own
            // train, so head-of-line wait is chunk 0's alone.
            if k == 0 {
                self.wait_time += wait;
            }
            chunks.push(Transfer {
                start,
                end,
                wait,
                duration,
            });
        }
        self.transfers += 1;
        self.chunks += plan.len() as u64;
        self.bytes_moved += bytes;
        ChunkedTransfer { chunks, bytes }
    }

    /// Number of transfers scheduled so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Number of chunks scheduled so far (== transfers when every
    /// transfer is serial).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Total bytes moved across all transfers.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total wire time across all transfers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total head-of-line wait across all transfers.
    pub fn wait_time(&self) -> SimDuration {
        self.wait_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_serialization() {
        let spec = LinkSpec {
            name: "test",
            bandwidth_bytes_per_s: 1e9,
            latency: SimDuration::from_micros(10),
        };
        // 1 MB at 1 GB/s = 1 ms, plus 10 us latency.
        assert_eq!(
            spec.transfer_time(1_000_000),
            SimDuration::from_micros(1_010)
        );
    }

    #[test]
    fn presets_are_ordered_by_bandwidth() {
        let nv = LinkSpec::nvlink4();
        let pcie = LinkSpec::pcie_gen4();
        let rdma = LinkSpec::rdma_400g();
        nv.validate();
        pcie.validate();
        rdma.validate();
        assert!(nv.bandwidth_bytes_per_s > rdma.bandwidth_bytes_per_s);
        assert!(rdma.bandwidth_bytes_per_s > pcie.bandwidth_bytes_per_s);
        let bytes = 256 << 20;
        assert!(nv.transfer_time(bytes) < rdma.transfer_time(bytes));
        assert!(rdma.transfer_time(bytes) < pcie.transfer_time(bytes));
    }

    #[test]
    fn offload_presets_sit_below_the_migration_links() {
        let host = LinkSpec::pcie_host();
        let nvme = LinkSpec::nvme();
        host.validate();
        nvme.validate();
        // The offload hierarchy is strictly slower per tier: host DRAM is
        // PCIe-bound, NVMe is an order of magnitude below that.
        assert!(LinkSpec::nvlink4().bandwidth_bytes_per_s > host.bandwidth_bytes_per_s);
        assert!(host.bandwidth_bytes_per_s > nvme.bandwidth_bytes_per_s);
        assert!(host.latency < nvme.latency);
        // A 2 MiB KV block (16 tokens of the 8B preset) promotes from host
        // in well under a millisecond, but an NVMe read is ~0.8 ms — the
        // gap the invocation-distance policy exists to hide.
        let block = 2 << 20;
        assert!(host.transfer_time(block) < SimDuration::from_micros(200));
        assert!(nvme.transfer_time(block) > SimDuration::from_micros(500));
    }

    #[test]
    fn zero_cost_link_is_free() {
        let spec = LinkSpec::zero_cost();
        assert_eq!(spec.transfer_time(u64::MAX), SimDuration::ZERO);
        let mut link = Link::new(spec);
        let t = link.schedule(SimTime::from_micros(42), 1 << 30);
        assert_eq!(t.start, SimTime::from_micros(42));
        assert_eq!(t.end, SimTime::from_micros(42));
        assert_eq!(t.wait, SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_transfers_serialize_fifo() {
        let mut link = Link::new(LinkSpec {
            name: "test",
            bandwidth_bytes_per_s: 1e9,
            latency: SimDuration::ZERO,
        });
        let a = link.schedule(SimTime::ZERO, 1_000_000); // 1 ms
        let b = link.schedule(SimTime::from_micros(400), 1_000_000);
        assert_eq!(a.end, SimTime::from_micros(1_000));
        assert_eq!(b.start, a.end);
        assert_eq!(b.wait, SimDuration::from_micros(600));
        assert_eq!(b.end, SimTime::from_micros(2_000));
        // After the link drains, a later transfer starts immediately.
        let c = link.schedule(SimTime::from_micros(5_000), 500_000);
        assert_eq!(c.start, SimTime::from_micros(5_000));
        assert_eq!(c.wait, SimDuration::ZERO);
        assert_eq!(link.transfers(), 3);
        assert_eq!(link.chunks(), 3);
        assert_eq!(link.bytes_moved(), 2_500_000);
        assert_eq!(link.wait_time(), SimDuration::from_micros(600));
    }

    fn test_spec() -> LinkSpec {
        LinkSpec {
            name: "test",
            bandwidth_bytes_per_s: 1e9,
            latency: SimDuration::from_micros(10),
        }
    }

    #[test]
    fn single_chunk_plan_matches_serial_schedule_bit_for_bit() {
        for bytes in [0u64, 1, 999, 1_000_000, (64 << 20) + 7] {
            for now_us in [0u64, 42, 123_456] {
                let now = SimTime::from_micros(now_us);
                let mut serial = Link::new(test_spec());
                let mut chunked = Link::new(test_spec());
                // Pre-load both links with identical traffic.
                serial.schedule(SimTime::ZERO, 500_000);
                chunked.schedule(SimTime::ZERO, 500_000);
                let a = serial.schedule(now, bytes);
                let b = chunked.schedule_chunked(&[(now, bytes)]);
                assert_eq!(b.chunks(), &[a]);
                assert_eq!(
                    (b.start(), b.end(), b.wait(), b.duration()),
                    (a.start, a.end, a.wait, a.duration)
                );
                assert_eq!(serial.busy_time(), chunked.busy_time());
                assert_eq!(serial.wait_time(), chunked.wait_time());
                assert_eq!(serial.chunks(), chunked.chunks());
            }
        }
    }

    #[test]
    fn chunk_durations_telescope_to_the_serial_wire_time() {
        // Chosen so naive per-chunk rounding would overshoot: 5.6 us per
        // chunk rounds to 6, but the prefix pricing keeps the sum at
        // round(11.2) = 11 plus latency.
        let mut link = Link::new(test_spec());
        let t = link.schedule_chunked(&[(SimTime::ZERO, 5_600), (SimTime::ZERO, 5_600)]);
        assert_eq!(t.duration(), test_spec().transfer_time(11_200));
        assert_eq!(t.end(), SimTime::ZERO + t.duration());
    }

    #[test]
    fn chunked_train_never_finishes_after_the_serial_transfer() {
        for n in [1usize, 2, 3, 7, 32] {
            let bytes = 96_000_007u64;
            let now = SimTime::from_micros(50_000);
            let mut serial = Link::new(test_spec());
            let mut chunked = Link::new(test_spec());
            let a = serial.schedule(now, bytes);
            // Layer k finished prefilling (n-1-k) * 1ms before now.
            let base = bytes / n as u64;
            let rem = (bytes % n as u64) as usize;
            let plan: Vec<(SimTime, u64)> = (0..n)
                .map(|k| {
                    let lead = 1_000 * (n - 1 - k) as u64;
                    let ready = SimTime::from_micros(now.as_micros() - lead);
                    (ready, base + u64::from(k < rem))
                })
                .collect();
            let b = chunked.schedule_chunked(&plan);
            assert_eq!(b.bytes(), bytes);
            assert!(b.end() <= a.end, "n={n}: {:?} > {:?}", b.end(), a.end);
            // FIFO within the train: chunks never overlap on the wire.
            for w in b.chunks().windows(2) {
                assert!(w[1].start >= w[0].end);
            }
        }
    }

    #[test]
    fn early_ready_chunks_overlap_wire_time_with_compute() {
        // 4 chunks of 1 ms each; chunks became ready 3/2/1/0 ms before
        // the migration committed at t=10ms. The train back-fills the
        // idle wire and only the last chunk's tail is exposed.
        let mut link = Link::new(LinkSpec {
            name: "test",
            bandwidth_bytes_per_s: 1e9,
            latency: SimDuration::ZERO,
        });
        let plan: Vec<(SimTime, u64)> = (0..4)
            .map(|k| (SimTime::from_micros(7_000 + 1_000 * k), 1_000_000u64))
            .collect();
        let t = link.schedule_chunked(&plan);
        assert_eq!(t.start(), SimTime::from_micros(7_000));
        assert_eq!(t.end(), SimTime::from_micros(11_000));
        // Serial would have been 10ms + 4ms = 14ms.
        assert_eq!(t.wait(), SimDuration::ZERO);
    }
}
