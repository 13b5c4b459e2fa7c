//! Extension: congestion collapse and adaptive admission control on an
//! agent fleet. The paper's serving sections sweep offered load up to
//! the knee (Fig. 14) but stop where every real incident starts: past
//! it. An accept-all fleet keeps serving every arrival as queues grow,
//! so *throughput* looks healthy while *goodput* — turns finished within
//! their deadline — falls off a cliff, and the GPU time behind every
//! late answer is pure waste. This experiment drives the same fleet
//! through the knee under two policies: naive accept-all FIFO (deadlines
//! observed but nothing acted on), and an adaptive stack (AIMD
//! per-replica admission limits gating new sessions at the door,
//! freshest-first LIFO dispatch so stale arrivals expire in the queue
//! instead of on the GPU, and server-side cancellation that returns KV
//! and batch slots the moment a deadline fires).

use agentsim_metrics::Table;
use agentsim_serving::{
    AdmissionPolicy, FleetConfig, FleetReport, FleetSim, OverloadPolicy, QueueDiscipline, Routing,
};
use agentsim_simkit::SimDuration;

use crate::figure::{FigureResult, Scale};

/// Fleet size: enough parallelism that the knee is a fleet property, not
/// a single-replica artifact.
const REPLICAS: u32 = 3;

/// Per-turn deadline. Binds only past the knee: the p95 turn latency at
/// the lowest sweep point sits well under it.
const DEADLINE: SimDuration = SimDuration::from_secs(25);

/// Offered loads swept through the knee (the fleet saturates near the
/// middle of this range).
const QPS_POINTS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

fn naive_policy() -> OverloadPolicy {
    // Deadlines are *measured* (late turns counted) but nothing acts on
    // them: every arrival admitted, FIFO order, work runs to completion
    // however stale.
    OverloadPolicy::none().deadline(DEADLINE)
}

fn adaptive_policy() -> OverloadPolicy {
    // The AIMD band is sized to the KV-constrained replicas below. The
    // ceiling matters because a limiter that drifts to the library
    // default of 64 in-flight calls pushes the engine into the same KV
    // thrashing it exists to prevent; the floor matters because under
    // sustained overload every expired turn is a timeout signal, and a
    // floor of 1 would starve the fleet down to three concurrent calls.
    let admission = AdmissionPolicy::Aimd {
        initial: 8.0,
        min: 6.0,
        max: 12.0,
        increase: 1.0,
        decrease: 0.5,
    };
    OverloadPolicy::none()
        .deadline(DEADLINE)
        .cancel_on_expiry()
        .admission(admission)
        .discipline(QueueDiscipline::Lifo)
}

/// Seconds of offered load per sweep point, scaled so every point sees
/// the same arrival *window* rather than the same arrival *count*: a
/// fixed count compresses into a shorter burst as qps rises, and the
/// ramp-in and drain edges would then dominate the high-load points.
fn window_s(scale: &Scale) -> f64 {
    2.0 * scale.serving_requests as f64
}

/// Turns offered at `qps` over the fixed window.
fn turns_for(scale: &Scale, qps: f64) -> u64 {
    (qps * window_s(scale)).round() as u64
}

fn run_point(scale: &Scale, qps: f64, policy: OverloadPolicy) -> FleetReport {
    let turns = turns_for(scale, qps);
    let config = FleetConfig::react_hotpotqa(REPLICAS, Routing::LeastLoaded, qps, turns)
        .seed(scale.seed)
        .overload(policy);
    // KV-constrained replicas (as in the serving goldens): past the knee
    // a deep backlog thrashes the KV pool, so per-turn service *slows
    // down* exactly when load rises — the mechanism behind congestion
    // collapse. Admission control defends by keeping the excess queued
    // at the coordinator instead of resident on the engine.
    let config = config.map_engines(|e| e.with_kv_fraction(0.06));
    FleetSim::new(config).run()
}

/// Sweeps offered load through the knee under accept-all and adaptive
/// admission, comparing goodput, lateness, and wasted GPU time.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_overload",
        "Extension: congestion collapse vs adaptive admission control",
    );
    let mut table = Table::with_columns(&[
        "QPS",
        "policy",
        "tput",
        "goodput",
        "on-time",
        "late",
        "shed",
        "wasted GPU s",
    ]);
    let mut naive = Vec::new();
    let mut adaptive = Vec::new();
    for &qps in &QPS_POINTS {
        for (name, policy, out) in [
            ("accept-all", naive_policy(), &mut naive),
            ("adaptive", adaptive_policy(), &mut adaptive),
        ] {
            let report = run_point(scale, qps, policy);
            table.row(vec![
                format!("{qps:.0}"),
                name.to_string(),
                format!("{:.2}", report.throughput),
                format!("{:.2}", report.goodput),
                format!("{}", report.completed),
                format!("{}", report.late),
                format!("{}", report.cancelled + report.dropped),
                format!("{:.1}", report.wasted_gpu_s),
            ]);
            out.push((qps, report));
        }
    }
    result.table(
        &format!(
            "ReAct/HotpotQA on {REPLICAS} replicas, {:.0}s of offered load per \
             point, {}s deadline; goodput counts turns finished on time",
            window_s(scale),
            DEADLINE.as_secs_f64()
        ),
        table,
    );

    let peak = |points: &[(f64, FleetReport)]| {
        points.iter().map(|(_, r)| r.goodput).fold(0.0f64, f64::max)
    };
    let naive_peak = peak(&naive);
    let adaptive_peak = peak(&adaptive);
    let naive_end = &naive.last().expect("non-empty sweep").1;
    let adaptive_end = &adaptive.last().expect("non-empty sweep").1;

    result.check(
        "accept-all-goodput-collapses-past-the-knee",
        naive_end.goodput <= 0.6 * naive_peak,
        format!(
            "accept-all goodput at {} qps: {:.2}/s vs peak {:.2}/s ({:.0}% drop) — \
             every queued turn still runs, almost none on time",
            QPS_POINTS[QPS_POINTS.len() - 1],
            naive_end.goodput,
            naive_peak,
            (1.0 - naive_end.goodput / naive_peak) * 100.0
        ),
    );
    result.check(
        "adaptive-defends-goodput-past-the-knee",
        adaptive_end.goodput >= 0.9 * adaptive_peak,
        format!(
            "adaptive goodput at {} qps: {:.2}/s vs peak {:.2}/s (within {:.0}%) — \
             shedding stale work keeps the fleet serving fresh work",
            QPS_POINTS[QPS_POINTS.len() - 1],
            adaptive_end.goodput,
            adaptive_peak,
            (1.0 - adaptive_end.goodput / adaptive_peak).abs() * 100.0
        ),
    );
    result.check(
        "goodput-never-exceeds-throughput",
        naive
            .iter()
            .chain(adaptive.iter())
            .all(|(_, r)| r.goodput <= r.throughput),
        "goodput counts a subset of the turns throughput counts".to_string(),
    );
    result.check(
        "lateness-is-where-the-naive-gpu-time-goes",
        naive_end.late > 0 && naive_end.wasted_gpu_s > adaptive_end.wasted_gpu_s,
        format!(
            "at {} qps accept-all finished {} turns late, burning {:.1} GPU-s on \
             answers nobody waited for vs {:.1} GPU-s under adaptive shedding",
            QPS_POINTS[QPS_POINTS.len() - 1],
            naive_end.late,
            naive_end.wasted_gpu_s,
            adaptive_end.wasted_gpu_s
        ),
    );
    result.check(
        "adaptive-sheds-rather-than-queues",
        adaptive_end.cancelled + adaptive_end.dropped > 0
            && adaptive_end.completed + adaptive_end.abandoned
                == turns_for(scale, QPS_POINTS[QPS_POINTS.len() - 1]),
        format!(
            "adaptive at {} qps: {} completed + {} shed = every turn resolved exactly once",
            QPS_POINTS[QPS_POINTS.len() - 1],
            adaptive_end.completed,
            adaptive_end.abandoned
        ),
    );

    // Determinism at the collapse point: the adaptive stack (deadline
    // timers, cancellation acks, AIMD decisions, queue sheds) replays
    // bit-identically run over run.
    let collapse_qps = QPS_POINTS[QPS_POINTS.len() - 1];
    let again = run_point(scale, collapse_qps, adaptive_policy());
    result.check(
        "overload-path-is-bit-deterministic-across-sequential-reruns",
        adaptive_end.goodput.to_bits() == again.goodput.to_bits()
            && adaptive_end.wasted_gpu_s.to_bits() == again.wasted_gpu_s.to_bits()
            && adaptive_end.cancelled == again.cancelled
            && adaptive_end.dropped == again.dropped,
        format!(
            "goodput bits {:016x}: a sequential rerun reproduces the collapse-point \
             report exactly",
            adaptive_end.goodput.to_bits()
        ),
    );

    result.note(format!(
        "Past the knee, throughput is a vanity metric: the accept-all fleet still \
         reports {:.2} turns/s at {collapse_qps} qps while goodput sits at {:.2}/s. \
         The adaptive stack holds {:.2}/s by refusing work it cannot finish — AIMD \
         admission bounds in-flight calls per replica, freshest-first dispatch \
         lets stale turns expire in the queue rather than on the GPU, and \
         server-side cancellation stops burning prefill and decode on attempts \
         whose client has already given up.",
        naive_end.throughput, naive_end.goodput, adaptive_end.goodput,
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        let r = run(&Scale::quick());
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
