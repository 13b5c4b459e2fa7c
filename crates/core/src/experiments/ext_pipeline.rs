//! Extension: layer-wise pipelined KV transfers, swept over chunk
//! count and link speed.
//!
//! The disaggregation experiment (`ext_disagg`) prices KV migration as
//! a whole-footprint serial transfer: TTFT pays the full wire trip
//! after prefill finishes. But prefill produces KV layer by layer, so a
//! migration can ship as a train of layer chunks — completed layers on
//! the wire while the remaining layers still compute — and the toll
//! shrinks to the residual that could not be overlapped. This
//! experiment sweeps the chunk count on a contended PCIe cell (where
//! head-of-line waiting is real), then fixes the chunk count and sweeps
//! the link, to show where pipelining pays: the slower the link, the
//! larger the absolute TTFT rebate, while the wire itself stays FIFO
//! and every byte still moves exactly once per migration.

use agentsim_gpu::LinkSpec;
use agentsim_metrics::Table;
use agentsim_serving::{DisaggReport, DisaggSim, FleetConfig, Workload};

use crate::figure::{FigureResult, Scale};

/// Chunk counts swept in panel 1. 32 is full layer-wise for the 8B
/// preset (the driver clamps the knob to the model's layer count).
const CHUNK_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Chunk count pinned for the link-sensitivity panel.
const PIPE_CHUNKS: u32 = 16;

fn ttft_p95(report: &DisaggReport) -> f64 {
    let mut t = report.ttft();
    t.try_p95().unwrap_or(f64::NAN)
}

fn wire_chunks(report: &DisaggReport) -> u64 {
    report.links.iter().map(|l| l.chunks).sum()
}

fn wire_transfers(report: &DisaggReport) -> u64 {
    report.links.iter().map(|l| l.transfers).sum()
}

/// Sweeps transfer chunking on a contended PCIe split, then the link
/// spec at a fixed chunk count.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_pipeline",
        "Extension: layer-wise pipelined KV transfers (chunked-link model)",
    );
    let n = scale.serving_requests;
    let workload = Workload::react_hotpotqa;

    // Panel 1: chunk-count sweep on the contended cell — 1P+1D over
    // PCIe, where serial migrations queue behind each other.
    let cell = |chunks: u32| {
        FleetConfig::new(workload(), 1.0, n)
            .seed(scale.seed)
            .pools(1, 1)
            .link(LinkSpec::pcie_gen4())
            .transfer_chunks(chunks)
    };
    let mut table = Table::with_columns(&[
        "chunks",
        "transfer s",
        "ttft p95 s",
        "wait s",
        "wire chunks",
        "link busy s",
    ]);
    let mut sweep = Vec::new();
    for &chunks in &CHUNK_SWEEP {
        let report = DisaggSim::new(cell(chunks)).run();
        let busy: f64 = report.links.iter().map(|l| l.busy_s).sum();
        table.row(vec![
            format!("{chunks}"),
            format!("{:.3}", report.phase("transfer")),
            format!("{:.4}", ttft_p95(&report)),
            format!("{:.4}", report.transfer_wait.as_secs_f64()),
            format!("{}", wire_chunks(&report)),
            format!("{busy:.3}"),
        ]);
        sweep.push((chunks, report));
    }
    result.table(
        &format!("Chunk-count sweep, 1P+1D over PCIe at 1.0 QPS, {n} requests"),
        table,
    );

    let serial = &sweep[0].1;
    let deepest = &sweep.last().expect("non-empty sweep").1;
    result.check(
        "every-chunking-depth-beats-serial",
        sweep
            .iter()
            .skip(1)
            .all(|(_, r)| r.phase("transfer") < serial.phase("transfer")),
        format!(
            "transfer phase: serial {:.3} s, pipelined {} — per migration a \
             chunked train can never land later than the serial transfer",
            serial.phase("transfer"),
            sweep
                .iter()
                .skip(1)
                .map(|(k, r)| format!("x{k} {:.3}", r.phase("transfer")))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    result.check(
        "full-layer-pipeline-cuts-transfer-25pct",
        deepest.phase("transfer") <= 0.75 * serial.phase("transfer"),
        format!(
            "transfer phase at x{}: {:.3} s vs serial {:.3} s ({:.0}% \
             smaller) — only the last layer's residual is left on TTFT",
            sweep.last().expect("non-empty sweep").0,
            deepest.phase("transfer"),
            serial.phase("transfer"),
            (1.0 - deepest.phase("transfer") / serial.phase("transfer")) * 100.0
        ),
    );
    result.check(
        "wire-stays-accounted-at-every-depth",
        sweep.iter().all(|(k, r)| {
            r.completed == n
                && (*k == 1) == (wire_chunks(r) == wire_transfers(r))
                && r.links
                    .iter()
                    .all(|l| l.busy_s > 0.0 && l.utilization > 0.0)
        }),
        format!(
            "all {} arms complete {n} requests; serial moves 1 chunk per \
             transfer, x32 moves {} chunks over {} transfers",
            sweep.len(),
            wire_chunks(deepest),
            wire_transfers(deepest)
        ),
    );
    let byte_spread = {
        let bytes: Vec<f64> = sweep
            .iter()
            .map(|(_, r)| r.transferred_bytes as f64)
            .collect();
        let lo = bytes.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bytes.iter().cloned().fold(0.0_f64, f64::max);
        (hi - lo) / lo
    };
    result.check(
        "chunking-moves-the-same-footprints",
        byte_spread < 0.10,
        format!(
            "transferred bytes across all depths stay within {:.1}% of each \
             other — chunking reschedules the same KV, it does not grow or \
             shrink it (residual drift is prefix-cache state shifting with \
             arrival times)",
            byte_spread * 100.0
        ),
    );

    // Panel 2: link sensitivity at a fixed chunk count. The rebate is
    // the wire time hidden behind prefill, so it scales with the wire.
    let mut link_table =
        Table::with_columns(&["link", "serial transfer s", "x16 transfer s", "rebate s"]);
    let mut rebates = Vec::new();
    for link in [
        LinkSpec::nvlink4(),
        LinkSpec::rdma_400g(),
        LinkSpec::pcie_gen4(),
    ] {
        let name = link.name;
        let base = |chunks: u32| {
            FleetConfig::new(workload(), 1.0, n)
                .seed(scale.seed)
                .pools(1, 1)
                .link(link.clone())
                .transfer_chunks(chunks)
        };
        let serial = DisaggSim::new(base(1)).run();
        let piped = DisaggSim::new(base(PIPE_CHUNKS)).run();
        let rebate = serial.phase("transfer") - piped.phase("transfer");
        link_table.row(vec![
            name.to_string(),
            format!("{:.4}", serial.phase("transfer")),
            format!("{:.4}", piped.phase("transfer")),
            format!("{rebate:.4}"),
        ]);
        rebates.push((name, rebate));
    }
    result.table(
        &format!("Pipelining rebate by link at x{PIPE_CHUNKS} chunks, 1P+1D, {n} requests"),
        link_table,
    );
    let rebate = |name: &str| {
        rebates
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| *r)
            .expect("link ran")
    };
    result.check(
        "slower-links-earn-bigger-rebates",
        rebate("pcie_gen4") > rebate("nvlink4") && rebate("pcie_gen4") > 0.0,
        format!(
            "transfer-phase rebate: pcie {:.4} s vs nvlink {:.4} s — the \
             pipeline hides wire time, and PCIe has more of it to hide",
            rebate("pcie_gen4"),
            rebate("nvlink4")
        ),
    );

    result.note(format!(
        "Layer-wise chunking converts the KV-migration toll from a serial \
         post-prefill trip into an overlapped train: on the contended PCIe \
         cell the transfer phase drops from {:.3} s to {:.3} s at x32 while \
         every arm completes the same {n} requests and moves the same \
         footprints. The rebate is wire time hidden behind prefill, so \
         NVLink (already ~free) gains {:.4} s where PCIe gains {:.4} s — \
         pipelining matters exactly where the interconnect is the bottleneck.",
        serial.phase("transfer"),
        deepest.phase("transfer"),
        rebate("nvlink4"),
        rebate("pcie_gen4"),
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let scale = Scale {
            serving_requests: 24,
            ..Scale::quick()
        };
        let r = run(&scale);
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
