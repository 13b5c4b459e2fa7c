//! Failure injection around role flips: a replica asked to flip while
//! KV is still migrating toward it must drain *gracefully* — refuse new
//! admissions, land the committed in-flight transfer, decode it to
//! completion, and only then change roles.
//!
//! The first test drives the engine + transfer scheduler directly (no
//! driver), injecting the drain at the worst moment: after the KV bytes
//! left the prefill side but before they arrived. The second runs the
//! full driver with a flip scheduled into a storm of slow-link
//! migrations and checks, via the replica's observer stream, that the
//! draining victim kept accepting committed KV imports right up to its
//! role change.

use std::sync::{Arc, Mutex};

use agentsim_disagg::TransferScheduler;
use agentsim_gpu::LinkSpec;
use agentsim_kvcache::TokenBuf;
use agentsim_llm::{Engine, EngineConfig, EngineEvent, EngineObserver, EngineRole};
use agentsim_serving::{AutoscalePolicy, DisaggConfig, DisaggSim, FlipDirection, Workload};
use agentsim_simkit::{SimDuration, SimTime};

/// Runs `engine` until it goes idle, collecting completions.
fn drain_engine(
    engine: &mut Engine,
    mut now: SimTime,
) -> (Vec<agentsim_llm::LlmCompletion>, SimTime) {
    let mut done = Vec::new();
    while let Some(end) = engine.start_step_if_idle(now) {
        now = end;
        done.extend(engine.complete_step(now));
    }
    (done, now)
}

#[test]
fn draining_replica_lands_inflight_kv_then_flips() {
    // A prefill replica produces a migration...
    let mut prefill = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
    prefill.submit(SimTime::ZERO, TokenBuf::from_segment(3, 256), 16, 0xFEED);
    let (_, t_first) = drain_engine(&mut prefill, SimTime::ZERO);
    let migrations = prefill.take_migrations();
    assert_eq!(migrations.len(), 1, "multi-token request must migrate");
    let migration = migrations.into_iter().next().unwrap();

    // ...whose KV is in the air toward decode replica 0 over a slow
    // link when the flip request arrives.
    let slow = LinkSpec {
        name: "slow",
        bandwidth_bytes_per_s: 1e8,
        latency: SimDuration::from_millis(5),
    };
    let mut transfers = TransferScheduler::new(slow, 1);
    let (tid, arrival) = transfers.schedule(t_first, 0, migration);
    assert!(arrival > t_first, "transfer takes real time");

    let mut decode = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Decode));
    decode.begin_drain();
    assert!(decode.is_draining());
    assert!(!decode.admits_new_work(), "draining refuses new admissions");

    // The drain condition is not met while the transfer is in flight —
    // the driver would not flip here.
    assert_eq!(transfers.in_flight(0), 1);

    // The committed transfer lands and the draining replica must accept
    // and finish it.
    let pt = transfers.complete(tid);
    decode.submit_prefilled(arrival, pt.migration);
    let (done, t_done) = drain_engine(&mut decode, arrival);
    assert_eq!(done.len(), 1, "committed KV decodes to completion");
    assert_eq!(done[0].output_tokens, 16);

    // Only now is the flip legal.
    assert_eq!(transfers.in_flight(0), 0);
    assert!(!decode.has_work());
    decode.finish_drain(t_done, EngineRole::Prefill);
    assert!(!decode.is_draining());
    assert!(decode.admits_new_work(), "flipped replica serves again");
}

#[test]
#[should_panic(expected = "refuses new submissions")]
fn draining_replica_panics_on_a_fresh_submission() {
    let mut decode = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Decode));
    decode.begin_drain();
    decode.submit(SimTime::ZERO, TokenBuf::from_segment(1, 64), 4, 0xBAD);
}

/// Observer recording imported (zero-new-token) admissions and role
/// changes with their times.
#[derive(Debug, Default)]
struct FlipLog {
    imports: Vec<SimTime>,
    role_changes: Vec<(SimTime, EngineRole, EngineRole)>,
}

#[derive(Debug, Clone)]
struct FlipLogObserver(Arc<Mutex<FlipLog>>);

impl EngineObserver for FlipLogObserver {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        match *event {
            EngineEvent::Admitted {
                at, new_tokens: 0, ..
            } => {
                self.0.lock().unwrap().imports.push(at);
            }
            EngineEvent::RoleChanged { at, from, to } => {
                self.0.lock().unwrap().role_changes.push((at, from, to));
            }
            _ => {}
        }
    }
}

#[test]
fn flip_scheduled_into_a_migration_storm_completes_cleanly() {
    // Slow link + high load: transfers pile up toward the decode pool,
    // so a decode→prefill flip lands while KV is migrating.
    let slow = LinkSpec {
        name: "slow",
        bandwidth_bytes_per_s: 5e8,
        latency: SimDuration::from_millis(2),
    };
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 2.0, 16)
        .seed(0xF11)
        .pools(1, 2)
        .link(slow)
        .autoscale(AutoscalePolicy::Schedule(vec![(
            SimTime::from_secs_f64(3.0),
            FlipDirection::DecodeToPrefill,
        )]));
    let mut sim = DisaggSim::new(cfg);
    let logs: Vec<Arc<Mutex<FlipLog>>> = (0..3)
        .map(|r| {
            let log = Arc::new(Mutex::new(FlipLog::default()));
            sim.set_replica_observer(r, Box::new(FlipLogObserver(log.clone())));
            log
        })
        .collect();
    let r = sim.run();
    assert_eq!(r.completed, 16, "no request lost to the flip");
    assert_eq!(r.flips.len(), 1, "the scheduled flip executed");
    let flip = &r.flips[0];

    // The victim's observer stream shows the role change at exactly the
    // recorded completion time...
    let log = logs[flip.replica as usize].lock().unwrap();
    assert_eq!(log.role_changes.len(), 1);
    let (at, from, to) = log.role_changes[0];
    assert_eq!(at, flip.completed);
    assert_eq!(from, EngineRole::Decode);
    assert_eq!(to, EngineRole::Prefill);

    // ...and every KV import it accepted precedes the drain's end: the
    // drain waited for committed transfers instead of dropping them.
    assert!(!log.imports.is_empty(), "victim served imported KV");
    assert!(log.imports.iter().all(|&t| t <= flip.drained));
}

#[test]
fn flip_into_partially_shipped_chunked_migrations_lands_every_chunk() {
    // Same storm, but migrations ship as 16-chunk pipelined trains: when
    // the flip is requested, trains are mid-flight — head chunks on the
    // wire, tail chunks still pending behind them. The drain gate counts
    // a migration in flight until its *last* chunk lands, so every
    // committed chunk must arrive before the role change.
    let slow = LinkSpec {
        name: "slow",
        bandwidth_bytes_per_s: 5e8,
        latency: SimDuration::from_millis(2),
    };
    let cfg = DisaggConfig::new(Workload::react_hotpotqa(), 2.0, 16)
        .seed(0xF11)
        .pools(1, 2)
        .link(slow)
        .transfer_chunks(16)
        .autoscale(AutoscalePolicy::Schedule(vec![(
            SimTime::from_secs_f64(3.0),
            FlipDirection::DecodeToPrefill,
        )]));
    let mut sim = DisaggSim::new(cfg);
    let logs: Vec<Arc<Mutex<FlipLog>>> = (0..3)
        .map(|r| {
            let log = Arc::new(Mutex::new(FlipLog::default()));
            sim.set_replica_observer(r, Box::new(FlipLogObserver(log.clone())));
            log
        })
        .collect();
    let r = sim.run();
    assert_eq!(r.completed, 16, "no request lost to the flip");
    assert_eq!(r.flips.len(), 1, "the scheduled flip executed");
    let flip = &r.flips[0];

    // FlipRecord timestamps still telescope around the chunked drain.
    assert!(flip.requested <= flip.drained);
    assert!(flip.drained <= flip.completed);

    let log = logs[flip.replica as usize].lock().unwrap();
    assert_eq!(log.role_changes.len(), 1);
    assert_eq!(log.role_changes[0].0, flip.completed);

    // Every committed chunked migration the victim accepted landed
    // before the drain finished — no train was cut off mid-flight.
    assert!(!log.imports.is_empty(), "victim served imported KV");
    assert!(log.imports.iter().all(|&t| t <= flip.drained));

    // Pipelining moved the same bytes, and chunked trains really ran
    // (more wire chunks than migrations on at least one link).
    assert!(r.transferred_bytes > 0);
    assert!(
        r.links.iter().any(|l| l.chunks > l.transfers),
        "migrations should have shipped as multi-chunk trains"
    );
}
