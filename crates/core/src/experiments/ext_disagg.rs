//! Extension: disaggregated prefill/decode serving as a what-if against
//! the colocated baseline, at iso-GPU count.
//!
//! The paper shows agentic traffic is prefill-heavy — every ReAct
//! iteration re-reads the growing history (its Figs. 9–10) — and that
//! tail latency collapses once prefill bursts share a replica with
//! decode (Fig. 14). Splitwise-style disaggregation is the
//! infrastructure response: dedicate a pool to prefill, migrate each
//! request's KV blocks over an interconnect at its first token, decode
//! on an isolated pool. This experiment prices that trade on the
//! paper's workload: decode-side TPOT p99 improves (prefill
//! interference is gone by construction), TTFT pays a KV-transfer toll
//! that grows as the link slows, and the transfer is an explicit phase
//! that sums exactly into end-to-end latency. A fixed-size pair of runs
//! exports its report and span streams as the checked `DISAGG_*` artifacts.

use agentsim_gpu::LinkSpec;
use agentsim_llm::EngineConfig;
use agentsim_metrics::{json, Table};
use agentsim_serving::{DisaggReport, DisaggSim, FleetConfig, SpanStreamWriter, Workload};
use agentsim_simkit::SimDuration;

use crate::figure::{FigureResult, Scale};

/// TTFT SLO for goodput accounting (seconds).
const TTFT_SLO_S: f64 = 2.0;
/// TPOT SLO for goodput accounting (seconds per token).
const TPOT_SLO_S: f64 = 0.02;

fn row(table: &mut Table, topo: &str, qps: f64, report: &DisaggReport) {
    let mut ttft = report.ttft();
    let mut tpot = report.tpot();
    table.row(vec![
        format!("{qps:.2}"),
        topo.to_string(),
        format!("{:.2}", report.throughput()),
        format!("{:.3}", ttft.try_p95().unwrap_or(f64::NAN)),
        format!("{:.1}", tpot.try_percentile(99.0).unwrap_or(f64::NAN) * 1e3),
        format!("{:.2}", report.goodput(TTFT_SLO_S, TPOT_SLO_S)),
        format!("{:.1}", report.p95_s),
        format!("{}", report.migrated_calls),
    ]);
}

/// The span-stream artifacts, fixed-size at every scale: the colocated
/// 2x and 1P+1D cells at 1 QPS (`DISAGG_report.json`, both run
/// summaries), with each pool of the split streaming its spans as they
/// retire (`DISAGG_prefill_spans.jsonl`, `DISAGG_decode_spans.jsonl`).
fn disagg_artifacts(result: &mut FigureResult, seed: u64) {
    let (qps, requests) = (1.0, 40);
    let colocated = DisaggSim::new(
        FleetConfig::new(Workload::react_hotpotqa(), qps, requests)
            .pools(2, 0)
            .seed(seed),
    )
    .run();
    let mut sim = DisaggSim::new(
        FleetConfig::new(Workload::react_hotpotqa(), qps, requests)
            .pools(1, 1)
            .seed(seed),
    );
    // Replica 0 is the prefill pool, replica 1 the decode pool.
    let streams = [SpanStreamWriter::in_memory(), SpanStreamWriter::in_memory()];
    for (replica, (writer, _)) in streams.iter().enumerate() {
        sim.set_replica_observer(replica, Box::new(writer.clone()));
    }
    let disagg = sim.run();
    let reports = [&colocated, &disagg];

    let calls = || reports.iter().flat_map(|r| &r.calls);
    let off_e2e = calls().filter(|c| c.span().total() != c.e2e()).count();
    result.check(
        "artifact-calls-partition-e2e",
        colocated.completed > 0 && disagg.completed > 0 && off_e2e == 0,
        format!(
            "{off_e2e} of {} calls whose queue+prefill+transfer+decode+stall \
             misses e2e; {} + {} sessions completed",
            calls().count(),
            colocated.completed,
            disagg.completed
        ),
    );
    let mismatched = calls()
        .filter(|c| c.migrated() != (c.span().transfer > SimDuration::ZERO))
        .count();
    result.check(
        "artifact-transfer-iff-migrated",
        mismatched == 0,
        format!(
            "{mismatched} of {} calls whose migrated flag disagrees with a \
             nonzero transfer phase",
            calls().count()
        ),
    );
    let residuals: Vec<f64> = reports
        .iter()
        .map(|r| {
            let phases: f64 = r.phase_totals().iter().map(|(_, s)| s).sum();
            let e2e: f64 = r.calls.iter().map(|c| c.e2e().as_secs_f64()).sum();
            (phases - e2e).abs()
        })
        .collect();
    result.check(
        "artifact-phase-totals-match-e2e",
        residuals.iter().all(|r| *r < 1e-9),
        format!(
            "phase totals minus summed e2e: colocated {:.1e} s, disagg {:.1e} s",
            residuals[0], residuals[1]
        ),
    );
    result.check(
        "artifact-only-disagg-migrates",
        colocated.migrated_calls == 0 && disagg.migrated_calls > 0,
        format!(
            "migrations: colocated {}, disagg {} ({:.1} MB over {})",
            colocated.migrated_calls,
            disagg.migrated_calls,
            disagg.transferred_bytes as f64 / 1e6,
            LinkSpec::nvlink4().name
        ),
    );
    let texts = [streams[0].1.text(), streams[1].1.text()];
    let drained = streams.iter().zip(&texts).all(|((writer, _), text)| {
        writer.io_error().is_none()
            && writer.live() == 0
            && text.lines().count() as u64 == writer.written()
    });
    result.check(
        "artifact-streams-drained",
        drained,
        format!(
            "prefill / decode streams: {} / {} lines, {} / {} spans written, \
             {} / {} left live",
            texts[0].lines().count(),
            texts[1].lines().count(),
            streams[0].0.written(),
            streams[1].0.written(),
            streams[0].0.live(),
            streams[1].0.live()
        ),
    );
    let summaries = [colocated.to_json(), disagg.to_json()];
    let combined = format!(
        "{{\"colocated\":{},\"disagg\":{}}}",
        summaries[0], summaries[1]
    );
    let documents: Vec<&str> = summaries
        .iter()
        .chain([&combined])
        .map(String::as_str)
        .chain(texts.iter().flat_map(|text| text.lines()))
        .collect();
    let invalid = documents
        .iter()
        .filter(|d| json::validate(d).is_err())
        .count();
    result.check(
        "artifact-json-valid",
        invalid == 0,
        format!(
            "{invalid} of {} documents fail to parse: both run summaries, the \
             combined report and every streamed span line",
            documents.len()
        ),
    );
    let [prefill, decode] = texts;
    result.attach_artifacts(vec![
        ("DISAGG_report.json", combined),
        ("DISAGG_prefill_spans.jsonl", prefill),
        ("DISAGG_decode_spans.jsonl", decode),
    ]);
}

/// Compares colocated vs disaggregated serving at iso-GPU count, then
/// prices the interconnect and exercises the 70B tensor-parallel preset.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_disagg",
        "Extension: disaggregated prefill/decode serving vs colocated, iso-GPU",
    );
    let n = scale.serving_requests;
    let workload = Workload::react_hotpotqa;

    // Panel 1: QPS sweep, 2 colocated replicas vs 1 prefill + 1 decode.
    let qps_points = [0.5, 1.0, 2.0, 3.0];
    let mut table = Table::with_columns(&[
        "QPS",
        "topology",
        "tput",
        "ttft p95 s",
        "tpot p99 ms",
        "goodput",
        "p95 s",
        "migrations",
    ]);
    let mut sweep = Vec::new();
    for &qps in &qps_points {
        let colocated = DisaggSim::new(
            FleetConfig::new(workload(), qps, n)
                .pools(2, 0)
                .seed(scale.seed),
        )
        .run();
        let disagg = DisaggSim::new(
            FleetConfig::new(workload(), qps, n)
                .pools(1, 1)
                .seed(scale.seed),
        )
        .run();
        row(&mut table, "colocated 2x", qps, &colocated);
        row(&mut table, "disagg 1P+1D", qps, &disagg);
        sweep.push((qps, colocated, disagg));
    }
    result.table(
        &format!("ReAct/HotpotQA, 2 GPUs either way, {n} requests, NVLink transfers"),
        table,
    );

    // The crossover claim: under prefill-heavy agentic load, the decode
    // pool's isolation shows up as a better inter-token tail.
    let (hi_qps, hi_colocated, hi_disagg) = sweep
        .iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty sweep");
    let colocated_tpot = {
        let mut t = hi_colocated.tpot();
        t.percentile(99.0)
    };
    let disagg_tpot = {
        let mut t = hi_disagg.tpot();
        t.percentile(99.0)
    };
    result.check(
        "disagg-improves-decode-tpot-tail",
        disagg_tpot < colocated_tpot,
        format!(
            "tpot p99 at {hi_qps} QPS: disagg {:.1} ms vs colocated {:.1} ms — \
             prefill bursts no longer stall running decodes",
            disagg_tpot * 1e3,
            colocated_tpot * 1e3
        ),
    );
    result.check(
        "decode-pool-isolation-eliminates-stall",
        hi_disagg.phase("stall") == 0.0 && hi_colocated.phase("stall") > 0.0,
        format!(
            "stall phase at {hi_qps} QPS: disagg {:.2} s vs colocated {:.2} s",
            hi_disagg.phase("stall"),
            hi_colocated.phase("stall")
        ),
    );
    let phases_total: f64 = hi_disagg.phase_totals().iter().map(|(_, s)| s).sum();
    let e2e_total: f64 = hi_disagg.calls.iter().map(|c| c.e2e().as_secs_f64()).sum();
    result.check(
        "transfer-phase-partitions-e2e-exactly",
        hi_disagg.phase("transfer") > 0.0 && (phases_total - e2e_total).abs() < 1e-9,
        format!(
            "queue+prefill+transfer+decode+stall = {phases_total:.6} s vs \
             summed e2e {e2e_total:.6} s (transfer {:.3} s)",
            hi_disagg.phase("transfer")
        ),
    );

    // Panel 2: the interconnect tax. Same load, links from free to slow.
    let link_qps = 1.0;
    let mut links_table =
        Table::with_columns(&["link", "ttft p95 s", "transfer s", "transfer wait s"]);
    let mut by_link = Vec::new();
    for link in [
        LinkSpec::zero_cost(),
        LinkSpec::nvlink4(),
        LinkSpec::rdma_400g(),
        LinkSpec::pcie_gen4(),
    ] {
        let name = link.name;
        let report = DisaggSim::new(
            FleetConfig::new(workload(), link_qps, n)
                .pools(1, 1)
                .seed(scale.seed)
                .link(link),
        )
        .run();
        let mut ttft = report.ttft();
        links_table.row(vec![
            name.to_string(),
            format!("{:.4}", ttft.try_p95().unwrap_or(f64::NAN)),
            format!("{:.3}", report.phase("transfer")),
            format!("{:.3}", report.transfer_wait.as_secs_f64()),
        ]);
        by_link.push((name, report));
    }
    result.table(
        &format!("KV-transfer link sensitivity at {link_qps} QPS (1P+1D)"),
        links_table,
    );
    let ttft_p95 = |name: &str| {
        let report = &by_link
            .iter()
            .find(|(n, _)| *n == name)
            .expect("link ran")
            .1;
        let mut t = report.ttft();
        t.p95()
    };
    result.check(
        "kv-transfer-taxes-ttft",
        ttft_p95("pcie_gen4") > ttft_p95("zero_cost"),
        format!(
            "ttft p95: pcie {:.4} s vs free link {:.4} s — the migration toll \
             lands on time-to-first-token",
            ttft_p95("pcie_gen4"),
            ttft_p95("zero_cost")
        ),
    );
    let transfer_secs = |name: &str| {
        let (_, report) = by_link.iter().find(|(n, _)| *n == name).unwrap();
        report.phase("transfer")
    };
    result.check(
        "slower-links-spend-longer-in-transfer",
        transfer_secs("pcie_gen4") > transfer_secs("nvlink4")
            && transfer_secs("nvlink4") >= transfer_secs("zero_cost"),
        format!(
            "transfer phase: pcie {:.3} s > nvlink {:.3} s >= free {:.3} s",
            transfer_secs("pcie_gen4"),
            transfer_secs("nvlink4"),
            transfer_secs("zero_cost")
        ),
    );

    // Panel 3: layer-wise pipelined transfers. The migration toll priced
    // in panel 2 is not irreducible — prefill produces KV layer by
    // layer, so completed layers can ship while the remaining layers
    // still compute. Crossover load over PCIe (where the toll is
    // visible): whole-footprint serial transfers vs 32-chunk trains.
    let pipe_chunks = 32;
    let pcie_cell = || {
        FleetConfig::new(workload(), *hi_qps, n)
            .pools(1, 1)
            .seed(scale.seed)
            .link(LinkSpec::pcie_gen4())
    };
    let serial = DisaggSim::new(pcie_cell()).run();
    let pipelined = DisaggSim::new(pcie_cell().transfer_chunks(pipe_chunks)).run();
    let mut pipe_table = Table::with_columns(&[
        "arm",
        "transfer s",
        "ttft p95 s",
        "wire chunks",
        "link util",
    ]);
    for (name, report) in [("serial", &serial), ("pipelined x32", &pipelined)] {
        let mut ttft = report.ttft();
        let chunks: u64 = report.links.iter().map(|l| l.chunks).sum();
        let util = report
            .links
            .iter()
            .map(|l| l.utilization)
            .fold(0.0_f64, f64::max);
        pipe_table.row(vec![
            name.to_string(),
            format!("{:.3}", report.phase("transfer")),
            format!("{:.4}", ttft.try_p95().unwrap_or(f64::NAN)),
            format!("{chunks}"),
            format!("{util:.4}"),
        ]);
    }
    result.table(
        &format!("Layer-wise pipelined KV transfers at {hi_qps} QPS over PCIe (1P+1D)"),
        pipe_table,
    );
    result.check(
        "pipelining-shrinks-the-transfer-phase-25pct",
        serial.phase("transfer") > 0.0
            && pipelined.phase("transfer") <= 0.75 * serial.phase("transfer"),
        format!(
            "transfer phase at {hi_qps} QPS over PCIe: pipelined {:.3} s vs \
             serial {:.3} s ({:.0}% smaller) — shipped layers overlap the \
             layers still prefilling, so TTFT pays only the residual",
            pipelined.phase("transfer"),
            serial.phase("transfer"),
            (1.0 - pipelined.phase("transfer") / serial.phase("transfer")) * 100.0
        ),
    );
    let byte_drift = (pipelined.transferred_bytes as f64 - serial.transferred_bytes as f64).abs()
        / serial.transferred_bytes as f64;
    result.check(
        "pipelining-never-loses-a-call",
        pipelined.completed == serial.completed
            && pipelined.migrated_calls > 0
            && byte_drift < 0.10,
        format!(
            "both arms complete {} requests ({} vs {} migrations, {} vs {} \
             bytes, {:.1}% apart) — chunking changes when bytes move, not \
             what finishes; the drift is earlier arrivals shifting \
             prefix-cache state, not lost KV",
            serial.completed,
            serial.migrated_calls,
            pipelined.migrated_calls,
            serial.transferred_bytes,
            pipelined.transferred_bytes,
            byte_drift * 100.0
        ),
    );
    result.check(
        "chunk-trains-actually-ran",
        serial.links.iter().all(|l| l.chunks == l.transfers)
            && pipelined.links.iter().any(|l| l.chunks > l.transfers),
        format!(
            "wire chunks: serial {} over {} transfers, pipelined {} over {}",
            serial.links.iter().map(|l| l.chunks).sum::<u64>(),
            serial.links.iter().map(|l| l.transfers).sum::<u64>(),
            pipelined.links.iter().map(|l| l.chunks).sum::<u64>(),
            pipelined.links.iter().map(|l| l.transfers).sum::<u64>(),
        ),
    );

    // Panel 4: the 70B tensor-parallel preset, end to end. Fewer
    // requests — each 70B call is ~an order of magnitude slower.
    let n70 = (n / 4).max(6);
    let qps70 = 0.2;
    let engine70 = EngineConfig::a100x8_llama70b();
    let colocated70 = DisaggSim::new(
        FleetConfig::new(workload(), qps70, n70)
            .pools(2, 0)
            .seed(scale.seed)
            .engine(engine70.clone()),
    )
    .run();
    let disagg70 = DisaggSim::new(
        FleetConfig::new(workload(), qps70, n70)
            .pools(1, 1)
            .seed(scale.seed)
            .engine(engine70),
    )
    .run();
    let mut table70 = Table::with_columns(&[
        "QPS",
        "topology",
        "tput",
        "ttft p95 s",
        "tpot p99 ms",
        "goodput",
        "p95 s",
        "migrations",
    ]);
    row(&mut table70, "colocated 2x", qps70, &colocated70);
    row(&mut table70, "disagg 1P+1D", qps70, &disagg70);
    result.table(
        &format!("Llama-70B on A100x8 nodes (tensor-parallel), {n70} requests"),
        table70,
    );
    let phases70: f64 = disagg70.phase_totals().iter().map(|(_, s)| s).sum();
    let e2e70: f64 = disagg70.calls.iter().map(|c| c.e2e().as_secs_f64()).sum();
    result.check(
        "llama70b-disagg-serves-end-to-end",
        colocated70.completed == n70
            && disagg70.completed == n70
            && disagg70.migrated_calls > 0
            && (phases70 - e2e70).abs() < 1e-9,
        format!(
            "70B: {} + {} sessions completed, {} migrations, phase partition \
             residual {:.1e}",
            colocated70.completed,
            disagg70.completed,
            disagg70.migrated_calls,
            (phases70 - e2e70).abs()
        ),
    );

    result.note(format!(
        "Iso-GPU crossover on prefill-heavy agentic load: disaggregation buys \
         its decode-tail win (tpot p99 {:.1} -> {:.1} ms at {hi_qps} QPS) by \
         paying for KV migration on TTFT; with NVLink the toll is microseconds, \
         with PCIe it is visible ({:.4} vs {:.4} s p95). Transfer time is a \
         first-class span phase, so the trade is directly auditable per call.",
        colocated_tpot * 1e3,
        disagg_tpot * 1e3,
        ttft_p95("pcie_gen4"),
        ttft_p95("zero_cost"),
    ));
    disagg_artifacts(&mut result, scale.seed);
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
