//! Wall-clock performance harness for the fleet driver.
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin perfstat                # measure
//! cargo run -p agentsim-bench --release --bin perfstat -- --rebaseline
//! cargo run -p agentsim-bench --release --bin perfstat -- --check     # CI smoke
//! ```
//!
//! The default mode times the small smoke scenario and the 64-replica
//! headline scenario and writes `BENCH_fleet.json` at the repository
//! root, recording each section's `host_cpus` next to its wall time.
//! The headline records only what it measured. The smoke keeps its
//! stored `baseline_s` unless `--rebaseline` is given.
//!
//! `--check` is the CI smoke: it runs the smoke scenario, demands the
//! pinned fingerprint from every repetition, and fails on a >10%
//! wall-clock regression against the smoke baseline in
//! `BENCH_fleet.json`. It writes nothing.
//!
//! Bit-level determinism of simulated outputs is pinned by the golden
//! table in `crates/serving/tests/golden.rs`, not here.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use agentsim_bench::repo_root;
use agentsim_serving::{FleetConfig, FleetSim, Routing};

const OUTPUT: &str = "BENCH_fleet.json";

/// Timed repetitions of the smoke scenario, after one warm-up; the
/// minimum is reported.
const REPS: usize = 3;

/// One fleet load point: ReAct/HotpotQA traffic over least-loaded
/// routing (the policy whose per-decision cost grows with fleet size).
#[derive(Clone, Copy)]
struct FleetScenario {
    name: &'static str,
    replicas: u32,
    qps: f64,
    requests: u64,
    seed: u64,
}

/// The headline scaling scenario: a busy 64-replica fleet serving one
/// million agent turns.
const HEADLINE: FleetScenario = FleetScenario {
    name: "fleet_react_64x1m",
    replicas: 64,
    qps: 60.0,
    requests: 1_000_000,
    seed: 0xBEEF,
};

/// The CI smoke scenario: same shape, small enough to run on every push.
const SMOKE: FleetScenario = FleetScenario {
    name: "fleet_react_16x2k",
    replicas: 16,
    qps: 15.0,
    requests: 2_000,
    seed: 0xBEEF,
};

/// Determinism fingerprint of a fleet run (rounded, not bit-level — the
/// bit-level contract lives in the golden table).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetFingerprint {
    completed: u64,
    max_live_sessions: u64,
    p50_us: u64,
    p95_us: u64,
    kv_hit_ppm: u64,
    energy_mwh: u64,
}

/// The smoke scenario's pinned fingerprint. Drift means a semantic
/// change to the fleet simulation, not just a slowdown.
const SMOKE_FINGERPRINT: FleetFingerprint = FleetFingerprint {
    completed: 2_000,
    max_live_sessions: 291,
    p50_us: 16_249_229,
    p95_us: 27_670_028,
    kv_hit_ppm: 571_750,
    energy_mwh: 203_609,
};

/// Wall-clock regression budget for the CI smoke, as current/baseline.
const SMOKE_BUDGET: f64 = 1.10;

fn run_fleet(s: FleetScenario) -> (f64, FleetFingerprint) {
    let cfg = FleetConfig::react_hotpotqa(s.replicas, Routing::LeastLoaded, s.qps, s.requests)
        .seed(s.seed);
    let t0 = Instant::now();
    let r = FleetSim::new(cfg).run();
    let seconds = t0.elapsed().as_secs_f64();
    let fp = FleetFingerprint {
        completed: r.completed,
        max_live_sessions: r.max_live_sessions,
        p50_us: (r.p50_s * 1e6).round() as u64,
        p95_us: (r.p95_s * 1e6).round() as u64,
        kv_hit_ppm: (r.kv_hit_rate * 1e6).round() as u64,
        energy_mwh: (r.energy_wh * 1e3).round() as u64,
    };
    (seconds, fp)
}

/// Best-of-[`REPS`] wall time of the smoke scenario, after one untimed
/// warm-up repetition (a cold first run reads well above the steady
/// time); every repetition, the warm-up included, must reproduce the
/// pinned fingerprint.
fn time_smoke() -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        let (seconds, fp) = run_fleet(SMOKE);
        assert_eq!(
            fp, SMOKE_FINGERPRINT,
            "fleet smoke fingerprint drifted — a routing or engine change altered \
             simulation semantics; repin SMOKE_FINGERPRINT only alongside an \
             intentional semantic change"
        );
        if rep > 0 {
            best = best.min(seconds);
        }
    }
    best
}

/// The baseline to record next to a fresh `measured` time: the stored
/// one, unless there is none or a rebaseline was asked for. Recording
/// each measurement as its own baseline would let the wall-clock budget
/// ratchet with every re-measure.
fn kept_baseline(stored: Option<f64>, measured: f64, rebaseline: bool) -> f64 {
    match stored {
        Some(baseline) if !rebaseline => baseline,
        _ => measured,
    }
}

/// Pulls the smoke section's `"baseline_s"` out of a previous
/// `BENCH_fleet.json`. The file is our own output (one key per line), so
/// a line scanner is sufficient and avoids a JSON dependency.
fn read_smoke_baseline(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut in_smoke = false;
    for line in text.lines() {
        let line = line.trim();
        in_smoke |= line.starts_with("\"smoke\"");
        if in_smoke {
            if let Some(rest) = line.strip_prefix("\"baseline_s\": ") {
                return rest.trim_end_matches(',').parse::<f64>().ok();
            }
        }
    }
    None
}

/// Writes `BENCH_fleet.json`: the headline's measured wall time, and the
/// smoke's `(baseline_s, current_s)` pair, both measured on this host.
fn write_json(
    path: &Path,
    fingerprint: &FleetFingerprint,
    headline_s: f64,
    smoke: (f64, f64),
) -> std::io::Result<()> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let h = HEADLINE;
    let (smoke_baseline, smoke_current) = smoke;
    let out = format!(
        "{{\n  \"generated_by\": \"perfstat\",\n  \
         \"scenario\": {{\n    \"name\": \"{}\",\n    \
         \"description\": \"ReAct/HotpotQA, least-loaded routing, {} replicas, \
         {} qps x {} requests\",\n    \"replicas\": {},\n    \"qps\": {},\n    \
         \"requests\": {},\n    \"seed\": {}\n  }},\n  \"fingerprint\": {{\n    \
         \"completed\": {},\n    \"p50_us\": {},\n    \"p95_us\": {},\n    \
         \"kv_hit_ppm\": {}\n  }},\n  \"headline\": {{\n    \
         \"host_cpus\": {host_cpus},\n    \"seconds\": {headline_s:.3}\n  }},\n  \
         \"smoke\": {{\n    \"name\": \"{}\",\n    \"replicas\": {},\n    \
         \"qps\": {},\n    \"requests\": {},\n    \"seed\": {},\n    \
         \"host_cpus\": {host_cpus},\n    \"baseline_s\": {smoke_baseline:.3},\n    \
         \"current_s\": {smoke_current:.3}\n  }}\n}}\n",
        h.name,
        h.replicas,
        h.qps,
        h.requests,
        h.replicas,
        h.qps,
        h.requests,
        h.seed,
        fingerprint.completed,
        fingerprint.p50_us,
        fingerprint.p95_us,
        fingerprint.kv_hit_ppm,
        SMOKE.name,
        SMOKE.replicas,
        SMOKE.qps,
        SMOKE.requests,
        SMOKE.seed,
    );
    std::fs::write(path, out)
}

/// `--check`: pinned fingerprint on every repetition, then the
/// wall-clock budget against the stored baseline.
fn check() {
    let out_path = repo_root().join(OUTPUT);
    let best = time_smoke();
    println!("fleet smoke: fingerprint ok, {best:.2}s wall");
    let Some(baseline) = read_smoke_baseline(&out_path) else {
        eprintln!(
            "no smoke baseline in {} — run `perfstat` first",
            out_path.display()
        );
        std::process::exit(2);
    };
    let ratio = best / baseline;
    if ratio > SMOKE_BUDGET {
        eprintln!(
            "fleet smoke regression: {best:.2}s vs baseline {baseline:.2}s \
             ({ratio:.2}x > {SMOKE_BUDGET:.2}x budget)"
        );
        std::process::exit(1);
    }
    println!("fleet smoke wall clock within budget ({ratio:.2}x of baseline)");
}

/// Measures the smoke and headline scenarios and refreshes
/// `BENCH_fleet.json`.
fn measure(rebaseline: bool) {
    let out_path = repo_root().join(OUTPUT);
    // Smoke first: it doubles as the determinism gate for the long run.
    let smoke_s = time_smoke();
    let smoke_baseline = kept_baseline(read_smoke_baseline(&out_path), smoke_s, rebaseline);
    println!("fleet smoke: fingerprint ok ({smoke_s:.2}s, baseline {smoke_baseline:.2}s)");
    print!("{:<22} ", HEADLINE.name);
    std::io::stdout().flush().ok();
    let (seconds, fingerprint) = run_fleet(HEADLINE);
    println!("{seconds:>9.3}s");
    if let Err(e) = write_json(&out_path, &fingerprint, seconds, (smoke_baseline, smoke_s)) {
        eprintln!("could not write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => measure(false),
        Some("--rebaseline") => measure(true),
        Some("--check") => check(),
        Some(other) => {
            eprintln!("unknown flag {other}; use --rebaseline or --check");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kept_baseline;

    #[test]
    fn stored_baseline_survives_a_remeasure() {
        assert_eq!(kept_baseline(Some(1.0), 0.5, false), 1.0);
        assert_eq!(kept_baseline(Some(1.0), 2.0, false), 1.0);
    }

    #[test]
    fn missing_or_rebaselined_baseline_takes_the_measurement() {
        assert_eq!(kept_baseline(None, 0.5, false), 0.5);
        assert_eq!(kept_baseline(Some(1.0), 0.5, true), 0.5);
        assert_eq!(kept_baseline(None, 0.5, true), 0.5);
    }
}
