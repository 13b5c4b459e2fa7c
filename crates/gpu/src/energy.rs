//! Phase-dependent GPU power and per-request energy accounting.
//!
//! The paper's Table III reports GPU energy per query (Wh) and scales it to
//! datacenter power. We model power as phase-dependent: prefill runs the
//! GPU near its TDP, decode is memory-bound and draws less (further reduced
//! per-GPU under tensor parallelism, where collectives stall compute), and
//! idle draws the baseline.

use std::fmt;

use agentsim_simkit::SimDuration;

use crate::cluster::ClusterSpec;

/// Execution phase of the serving replica, for power accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Prompt processing: compute-saturated.
    Prefill,
    /// Token generation: bandwidth-bound.
    Decode,
    /// No kernels resident (e.g. the agent is waiting on a tool).
    Idle,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 3] = [Phase::Prefill, Phase::Decode, Phase::Idle];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Idle => "idle",
        })
    }
}

/// Maps phases to replica-wide power draw (watts across all GPUs).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    prefill_w: f64,
    decode_w: f64,
    idle_w: f64,
    gpu_count: u32,
}

impl EnergyModel {
    /// Activity factor (fraction of the idle→peak power range) during
    /// prefill.
    pub const PREFILL_ACTIVITY: f64 = 0.95;

    /// Creates an energy model for one replica.
    ///
    /// Decode activity shrinks with tensor-parallel degree: collectives and
    /// bandwidth stalls keep each GPU further from its TDP.
    pub fn new(cluster: &ClusterSpec) -> Self {
        let g = &cluster.gpu;
        let n = cluster.gpu_count;
        let decode_activity = 0.60 / (1.0 + 0.10 * (n.saturating_sub(1)) as f64);
        let per = |activity: f64| g.idle_power_w + (g.peak_power_w - g.idle_power_w) * activity;
        EnergyModel {
            prefill_w: per(Self::PREFILL_ACTIVITY) * n as f64,
            decode_w: per(decode_activity) * n as f64,
            idle_w: g.idle_power_w * n as f64,
            gpu_count: n,
        }
    }

    /// Replica-wide power draw in the given phase, in watts.
    pub fn power_w(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Prefill => self.prefill_w,
            Phase::Decode => self.decode_w,
            Phase::Idle => self.idle_w,
        }
    }

    /// Number of GPUs in the replica.
    pub fn gpu_count(&self) -> u32 {
        self.gpu_count
    }
}

/// Accumulates energy over phase-labelled time spans.
///
/// # Example
///
/// ```
/// use agentsim_gpu::{ClusterSpec, EnergyMeter, EnergyModel, Phase};
/// use agentsim_simkit::SimDuration;
///
/// let model = EnergyModel::new(&ClusterSpec::a100_llama8b());
/// let mut meter = EnergyMeter::new(model);
/// meter.add(Phase::Decode, SimDuration::from_secs(10));
/// meter.add(Phase::Idle, SimDuration::from_secs(5));
/// assert!(meter.watt_hours() > 0.0);
/// assert_eq!(meter.duration(Phase::Idle), SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: EnergyModel,
    joules: f64,
    durations: [SimDuration; 3],
}

impl EnergyMeter {
    /// Creates a meter over the given energy model.
    pub fn new(model: EnergyModel) -> Self {
        EnergyMeter {
            model,
            joules: 0.0,
            durations: [SimDuration::ZERO; 3],
        }
    }

    /// Records `duration` spent in `phase`.
    pub fn add(&mut self, phase: Phase, duration: SimDuration) {
        self.joules += self.model.power_w(phase) * duration.as_secs_f64();
        self.durations[Self::slot(phase)] += duration;
    }

    /// Total accumulated energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total accumulated energy in watt-hours (the paper's unit).
    pub fn watt_hours(&self) -> f64 {
        self.joules / 3600.0
    }

    /// Time recorded in a phase.
    pub fn duration(&self, phase: Phase) -> SimDuration {
        self.durations[Self::slot(phase)]
    }

    /// The underlying energy model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Merges another meter's accumulation into this one.
    ///
    /// # Panics
    ///
    /// Panics if the meters were built from different energy models.
    pub fn merge(&mut self, other: &EnergyMeter) {
        assert_eq!(
            self.model, other.model,
            "cannot merge meters over different energy models"
        );
        self.joules += other.joules;
        for (i, d) in other.durations.iter().enumerate() {
            self.durations[i] += *d;
        }
    }

    fn slot(phase: Phase) -> usize {
        match phase {
            Phase::Prefill => 0,
            Phase::Decode => 1,
            Phase::Idle => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_8b() -> EnergyModel {
        EnergyModel::new(&ClusterSpec::a100_llama8b())
    }

    fn model_70b() -> EnergyModel {
        EnergyModel::new(&ClusterSpec::a100x8_llama70b())
    }

    #[test]
    fn phase_power_ordering() {
        let m = model_8b();
        assert!(m.power_w(Phase::Prefill) > m.power_w(Phase::Decode));
        assert!(m.power_w(Phase::Decode) > m.power_w(Phase::Idle));
    }

    #[test]
    fn single_a100_decode_power_is_calibrated() {
        // ~264 W keeps a ShareGPT query (≈4 s of decode) near the paper's
        // 0.32 Wh figure.
        let w = model_8b().power_w(Phase::Decode);
        assert!((240.0..290.0).contains(&w), "decode power {w} W");
    }

    #[test]
    fn tensor_parallel_lowers_per_gpu_decode_power() {
        let per_gpu_8 = model_70b().power_w(Phase::Decode) / 8.0;
        let per_gpu_1 = model_8b().power_w(Phase::Decode);
        assert!(per_gpu_8 < per_gpu_1);
    }

    #[test]
    fn sharegpt_style_query_energy_in_band() {
        // ≈0.2 s prefill + 4 s decode on one A100.
        let mut meter = EnergyMeter::new(model_8b());
        meter.add(Phase::Prefill, SimDuration::from_millis(200));
        meter.add(Phase::Decode, SimDuration::from_secs(4));
        let wh = meter.watt_hours();
        assert!(
            (0.2..0.5).contains(&wh),
            "query energy {wh} Wh (paper: 0.32)"
        );
    }

    #[test]
    fn meter_accumulates_and_merges() {
        let mut a = EnergyMeter::new(model_8b());
        a.add(Phase::Decode, SimDuration::from_secs(1));
        let mut b = EnergyMeter::new(model_8b());
        b.add(Phase::Idle, SimDuration::from_secs(2));
        a.merge(&b);
        assert_eq!(a.duration(Phase::Decode), SimDuration::from_secs(1));
        assert_eq!(a.duration(Phase::Idle), SimDuration::from_secs(2));
        let expected = model_8b().power_w(Phase::Decode) + 2.0 * model_8b().power_w(Phase::Idle);
        assert!((a.joules() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different energy models")]
    fn merge_rejects_mismatched_models() {
        let mut a = EnergyMeter::new(model_8b());
        let b = EnergyMeter::new(model_70b());
        a.merge(&b);
    }

    #[test]
    fn idle_energy_is_nonzero() {
        let mut m = EnergyMeter::new(model_8b());
        m.add(Phase::Idle, SimDuration::from_secs(60));
        assert!((m.joules() - 3600.0).abs() < 1.0, "60 W x 60 s");
    }
}
