//! `simbench`: the end-to-end and per-layer benchmark of the simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload fleet_react --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One invocation runs one workload through its public driver on a single
//! thread. `--trace 0` repeats the untraced run for `--seconds` host
//! seconds (after a warm-up run, at least [`MIN_RUNS`] times) and reports
//! the end-to-end metrics: host set-up time, turns per host second, peak
//! memory, and the simulated turn latency, energy and accuracy. `--trace 1`
//! does the same untraced runs, then one traced run, and reports the
//! per-layer metrics.
//! Every metric is printed by name and unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! Correctness: the drivers assert turn conservation themselves; the
//! benchmark additionally requires every repetition to reproduce the first
//! bit for bit, the traced run to reproduce the untraced one, every engine
//! request to finish and release its KV, and the pricing probe to
//! re-derive every step's FLOPs exactly. At [`DEFAULT_SEED`] the simulated
//! outputs and the traced counts must also match [`GOLDEN`]. A run that
//! panics or drifts counts all of its turns as failed.

mod stats;
mod tally;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile};
use workloads::{layers, Outcome, Workload, NOT_EXPOSED};

/// The seed whose outputs are pinned in [`GOLDEN`].
const DEFAULT_SEED: u64 = 1;

/// Fewest timed untraced runs per invocation, however short `--seconds`
/// is (after one untimed warm-up run).
const MIN_RUNS: usize = 3;

/// Set-ups are timed back to back, before any run, until there are at
/// least this many and they took at least [`SETUP_SECONDS`]; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 0.5;

/// `(workload, simulated-output fingerprint, traced-count fingerprint)`
/// at [`DEFAULT_SEED`]. A mismatch prints the new values; re-pin only for
/// an intended change of simulated semantics.
const GOLDEN: [(&str, u64, u64); 4] = [
    ("fleet_react", 0x8e93_1269_b6b9_0bab, 0xf0ce_8a34_ea23_d955),
    ("serving_lats", 0x4bb9_55cd_faec_5733, 0xd38f_a6c8_bff3_f100),
    (
        "fleet_offload",
        0xbcc6_3c92_f437_0426,
        0xf737_90f5_6b9d_c090,
    ),
    ("disagg_pcie", 0x90d0_a874_d175_cc82, 0x6544_1733_b3c2_6c67),
];

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("turns_per_s", "turns/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_turn_p50_s", "s"),
    ("sim_turn_p95_s", "s"),
    ("sim_energy_wh_per_turn", "Wh"),
    ("sim_solved_frac", "ratio"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 43] = [
    ("serving.host_us_per_step", "us"),
    ("serving.host_us_per_call", "us"),
    ("serving.max_live_sessions", "count"),
    ("session.llm_calls", "count"),
    ("session.calls_per_turn", "calls/turn"),
    ("session.attempts", "count"),
    ("llm.steps", "count"),
    ("llm.steps.prefill", "count"),
    ("llm.steps.decode", "count"),
    ("llm.steps.mixed", "count"),
    ("llm.decode_batch_mean", "seqs/step"),
    ("llm.prefill_tokens", "count"),
    ("llm.decode_tokens", "count"),
    ("llm.preemptions", "count"),
    ("llm.queue_wait_s", "s"),
    ("llm.stall_s", "s"),
    ("llm.busy_frac", "ratio"),
    ("llm.host_ns_per_token", "ns"),
    ("kv.hit_rate", "ratio"),
    ("kv.cached_tokens", "count"),
    ("kv.evictions", "count"),
    ("kv.peak_used_frac", "ratio"),
    ("kv.demoted_blocks", "count"),
    ("kv.promoted_blocks", "count"),
    ("kv.dropped_blocks", "count"),
    ("kv.host_bytes", "bytes"),
    ("kv.nvme_bytes", "bytes"),
    ("gpu.price_ns_per_step", "ns"),
    ("gpu.price_share", "ratio"),
    ("gpu.shape_reuse_frac", "ratio"),
    ("link.transfers", "count"),
    ("link.chunks", "count"),
    ("link.bytes", "bytes"),
    ("link.busy_s", "s"),
    ("link.wait_s", "s"),
    ("offload.host_busy_s", "s"),
    ("offload.host_wait_s", "s"),
    ("offload.nvme_busy_s", "s"),
    ("offload.nvme_wait_s", "s"),
    ("disagg.migrated_calls", "count"),
    ("disagg.transfer_phase_s", "s"),
    ("disagg.host_us_per_chunk", "us"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|_| bad("whole seconds"))?;
                seconds = Some(f64::from(s.clamp(1, 3600)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything one invocation measured.
struct Measured {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(name, unit, value, note)` in output order.
    metrics: Vec<(&'static str, &'static str, f64, String)>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} missing from its table"))
}

/// Checks one run's simulated outputs for internal consistency.
fn check_outcome(w: Workload, o: &Outcome, problems: &mut Vec<String>) {
    let sane = o.completed == w.turns()
        && o.solved <= o.completed
        && o.turn_p50_s.is_finite()
        && o.turn_p95_s.is_finite()
        && 0.0 < o.turn_p50_s
        && o.turn_p50_s <= o.turn_p95_s
        && o.energy_wh.is_finite()
        && o.energy_wh > 0.0;
    if !sane {
        problems.push(format!("inconsistent simulated outputs: {o:?}"));
    }
}

fn bench(args: &Args) -> Measured {
    let w = args.workload;
    let golden = GOLDEN
        .iter()
        .find(|g| g.0 == w.name())
        .expect("every workload has a golden row");
    let pinned = args.seed == DEFAULT_SEED;
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };

    let mut setup_s = Vec::new();
    let start = Instant::now();
    while setup_s.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        let sim = w.build(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(sim);
    }

    // Run 0 warms the allocator and caches: it is checked, not timed.
    // Peak memory is read right after it, so it does not depend on how
    // many timed runs fit in the window.
    let mut start = Instant::now();
    let mut rss = None;
    let mut run_s = Vec::new();
    let mut first: Option<Outcome> = None;
    while run_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        m.attempted += w.turns();
        let sim = w.build(args.seed);
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let elapsed = t.elapsed().as_secs_f64();
        let Ok(report) = report else {
            m.failed += w.turns();
            m.problems.push("the run panicked".into());
            return m;
        };
        let o = report.outcome();
        let off_golden = pinned && o.fingerprint != golden.1;
        let off_first = first.as_ref().is_some_and(|f| *f != o);
        if off_golden && first.is_none() {
            m.problems.push(format!(
                "simulated outputs drifted from the pinned fingerprint: {:#018x}, pinned {:#018x}",
                o.fingerprint, golden.1
            ));
        }
        if off_first {
            m.problems
                .push("a repeated run changed its simulated outputs".into());
        }
        check_outcome(w, &o, &mut m.problems);
        m.failed += if off_golden || off_first {
            w.turns()
        } else {
            w.turns().saturating_sub(o.completed)
        };
        if first.is_none() {
            first = Some(o);
            rss = peak_rss_mb();
            start = Instant::now();
        } else {
            run_s.push(elapsed);
        }
    }
    let o = first.expect("at least one run");
    let run_median = median(&run_s).expect("at least one run");
    let n = o.completed;

    if !args.trace {
        let setup = median(&setup_s).expect("at least one set-up");
        let rss = rss.unwrap_or_else(|| {
            m.problems
                .push("cannot read VmHWM from /proc/self/status".into());
            0.0
        });
        let runs = run_s.len();
        let setups = setup_s.len();
        m.metrics = vec![
            ("setup_s", setup, format!("median of {setups} set-ups")),
            (
                "turns_per_s",
                n as f64 / run_median,
                format!(
                    "{n} turns / median run() of {runs} runs ({:.3}..{:.3} s)",
                    quantile(&run_s, 0.0).expect("runs"),
                    quantile(&run_s, 1.0).expect("runs")
                ),
            ),
            ("peak_rss_mb", rss, "VmHWM after the warm-up run".into()),
            ("sim_turn_p50_s", o.turn_p50_s, format!("n={n} turns")),
            ("sim_turn_p95_s", o.turn_p95_s, format!("n={n} turns")),
            (
                "sim_energy_wh_per_turn",
                o.energy_wh / n as f64,
                format!("{:.3} Wh / {n} turns", o.energy_wh),
            ),
            (
                "sim_solved_frac",
                o.solved as f64 / n as f64,
                format!("{} / {n} turns", o.solved),
            ),
        ]
        .into_iter()
        .map(|(name, v, note)| (name, unit_of(&END_TO_END, name), v, note))
        .collect();
        return m;
    }

    let untraced_problems = m.problems.len();
    m.attempted += w.turns();
    let mut sim = w.build(args.seed);
    let tracer = sim.trace();
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| sim.run()));
    let traced_run_s = t.elapsed().as_secs_f64();
    let Ok(report) = report else {
        m.failed += w.turns();
        m.problems.push("the traced run panicked".into());
        return m;
    };
    if report.outcome() != o {
        m.problems
            .push("tracing changed the simulated outputs".into());
    }
    let l = layers(w, &report, tracer, run_median, traced_run_s);
    if pinned && l.fingerprint != golden.2 {
        m.problems.push(format!(
            "traced counts drifted from the pinned fingerprint: {:#018x}, pinned {:#018x}",
            l.fingerprint, golden.2
        ));
    }
    m.problems.extend(l.problems);
    if m.problems.len() > untraced_problems {
        m.failed += w.turns();
    }
    m.metrics = l
        .metrics
        .into_iter()
        .map(|(name, v)| {
            let note = if v == NOT_EXPOSED {
                "not exposed by this driver".to_string()
            } else {
                String::new()
            };
            (name, unit_of(&PER_LAYER, name), v, note)
        })
        .collect();
    m
}

/// The result line: one JSON object.
fn json_line(m: &Measured, correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted, m.failed
    );
    for (i, (name, unit, value, _)) in m.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut m = bench(&args);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "simbench {} seed={} trace={} host_cpus={cpus} threads=1",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, value, note) in &m.metrics {
        println!("  {name:<28} {value:>18.6} {unit:<10} {note}");
    }
    for p in &m.problems {
        println!("  FAILED: {p}");
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let complete = m.metrics.len() == table.len();
    let finite = m.metrics.iter().all(|(_, _, v, _)| v.is_finite());
    let correct = m.problems.is_empty() && m.failed == 0 && complete && finite;
    if !complete || !finite {
        // A run that failed before measuring still reports its failed
        // turns; its metrics read 0 and are not measurements.
        m.metrics = table
            .iter()
            .map(|&(n, u)| (n, u, 0.0, String::new()))
            .collect();
    }
    println!("{}", json_line(&m, correct));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "disagg_pcie",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::DisaggPcie);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fleet_react", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet_react", "--seed"]).is_err());
        assert!(args(&["--workload", "fleet_react", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let m = Measured {
            attempted: 8,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                ("setup_s", "s", 0.25, String::new()),
                ("turns_per_s", "turns/s", 1500.5, String::new()),
            ],
        };
        assert_eq!(
            json_line(&m, true),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"turns_per_s\": {\"value\": 1500.5, \"unit\": \"turns/s\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                spec.matches(&entry).count(),
                1,
                "{name} [{unit}] in BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(spec.contains(&format!("{{\"name\": \"{}\"", w.name())));
            assert!(GOLDEN.iter().any(|g| g.0 == w.name()));
        }
    }
}
