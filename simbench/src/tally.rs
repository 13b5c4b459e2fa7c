//! The traced run's instruments: a counting [`EngineObserver`] and the
//! step-pricing probe that replays its step shapes through [`PerfModel`].

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use agentsim_gpu::perf::PrefillItem;
use agentsim_gpu::PerfModel;
use agentsim_llm::{EngineEvent, EngineObserver, StepKind};

use crate::stats::{median, Fingerprint};

/// Per-engine counters folded from the engine's event stream. Every field
/// is updated in time proportional to the event's own size (one step's
/// participants), never by walking past events.
#[derive(Debug, Default)]
pub struct Counts {
    /// Steps by kind: prefill, decode, mixed.
    pub steps: [u64; 3],
    /// Prompt tokens computed in prefill chunks.
    pub prefill_tokens: u64,
    /// Decode participations (one token each).
    pub decode_tokens: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Preemptions.
    pub preemptions: u64,
    /// Simulated µs requests waited for admission.
    pub queue_wait_us: u64,
    /// Simulated µs requests were admitted but took no part in a step.
    pub stall_us: i64,
    /// Simulated µs the engine spent in steps.
    pub busy_us: u64,
    /// End of the last step (simulated µs).
    pub last_end_us: u64,
    /// Prompt tokens served from the prefix cache, over completed calls.
    pub cached_tokens: u64,
    /// Peak fraction of the KV pool referenced by live sequences.
    pub peak_used_frac: f64,
    /// Sequences admitted (KV allocated) minus sequences that released
    /// it (completed, migrated, preempted or cancelled): 0 at the end of
    /// a run that freed every block it took.
    pub live_sequences: i64,
    /// Submitted requests that never reached a terminal event.
    pub unfinished: i64,
}

impl Counts {
    /// Adds another engine's counters into this one.
    pub fn merge(&mut self, o: &Counts) {
        for (a, b) in self.steps.iter_mut().zip(o.steps) {
            *a += b;
        }
        self.prefill_tokens += o.prefill_tokens;
        self.decode_tokens += o.decode_tokens;
        self.submitted += o.submitted;
        self.preemptions += o.preemptions;
        self.queue_wait_us += o.queue_wait_us;
        self.stall_us += o.stall_us;
        self.busy_us += o.busy_us;
        self.last_end_us = self.last_end_us.max(o.last_end_us);
        self.cached_tokens += o.cached_tokens;
        self.peak_used_frac = self.peak_used_frac.max(o.peak_used_frac);
        self.live_sequences += o.live_sequences;
        self.unfinished += o.unfinished;
    }

    /// Every step, of any kind.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Fingerprint of every count (floats by their bits).
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        for s in self.steps {
            fp.word(s);
        }
        fp.word(self.prefill_tokens)
            .word(self.decode_tokens)
            .word(self.submitted)
            .word(self.preemptions)
            .word(self.queue_wait_us)
            .word(self.stall_us as u64)
            .word(self.busy_us)
            .word(self.last_end_us)
            .word(self.cached_tokens)
            .float(self.peak_used_frac);
    }
}

/// Index of a step kind in [`Counts::steps`].
pub fn kind_index(kind: StepKind) -> usize {
    match kind {
        StepKind::Prefill => 0,
        StepKind::Decode => 1,
        StepKind::Mixed => 2,
    }
}

/// What the observer tracks per request (indexed by engine request id).
#[derive(Debug, Default, Clone, Copy)]
struct Req {
    /// Start of the current phase: queued since, or admitted at (µs).
    since_us: u64,
    running: bool,
    /// Context length the engine holds for the sequence.
    ctx: u64,
    /// Prompt tokens served from cache at the latest admission.
    cached: u64,
    /// Prompt tokens prefilled since the latest admission.
    prefilled: u64,
}

/// One engine's step shapes, flattened: per step the words
/// `kind, prefill_items, decode_seqs`, then `(new, cached)` per prefill
/// item and one context length per decode sequence, in batch order.
#[derive(Debug, Default)]
pub struct StepLog {
    words: Vec<u64>,
    flops: Vec<f64>,
}

/// One logged step, decoded.
struct Step<'a> {
    /// All of the step's words: its exact shape.
    shape: &'a [u64],
    kind: u64,
    /// `(new, cached)` per prefill item, flattened.
    prefill: &'a [u64],
    /// Context length per decode sequence.
    decode: &'a [u64],
    /// FLOPs the engine reported for the step.
    flops: f64,
}

impl StepLog {
    fn steps(&self) -> impl Iterator<Item = Step<'_>> {
        let mut at = 0;
        self.flops.iter().map(move |&flops| {
            let w = &self.words[at..];
            let (p, d) = (3 + 2 * w[1] as usize, 3 + 2 * w[1] as usize + w[2] as usize);
            at += d;
            Step {
                shape: &w[..d],
                kind: w[0],
                prefill: &w[3..p],
                decode: &w[p..d],
                flops,
            }
        })
    }
}

#[derive(Debug, Default)]
struct Tally {
    counts: Counts,
    reqs: Vec<Req>,
    log: StepLog,
}

impl Tally {
    fn req(&mut self, id: u64) -> &mut Req {
        &mut self.reqs[id as usize]
    }

    /// Ends a running phase at `at_us` (the sequence's KV is released).
    fn release(&mut self, id: u64, at_us: u64) {
        let r = self.req(id);
        assert!(r.running, "req#{id} released while not running");
        let held = at_us - r.since_us;
        r.running = false;
        r.since_us = at_us;
        self.counts.stall_us += held as i64;
        self.counts.live_sequences -= 1;
    }

    fn apply(&mut self, event: &EngineEvent<'_>) {
        match *event {
            EngineEvent::Submitted { id, at, .. } => {
                assert_eq!(id.0 as usize, self.reqs.len(), "ids are dense per engine");
                self.reqs.push(Req {
                    since_us: at.as_micros(),
                    ..Req::default()
                });
                self.counts.submitted += 1;
                self.counts.unfinished += 1;
            }
            EngineEvent::Admitted {
                id,
                at,
                new_tokens,
                cached_tokens,
            } => {
                let at = at.as_micros();
                let r = self.req(id.0);
                let waited = at - r.since_us;
                *r = Req {
                    since_us: at,
                    running: true,
                    ctx: u64::from(new_tokens) + u64::from(cached_tokens),
                    cached: u64::from(cached_tokens),
                    prefilled: 0,
                };
                self.counts.queue_wait_us += waited;
                self.counts.live_sequences += 1;
            }
            EngineEvent::StepCompleted {
                kind,
                started,
                ended,
                flops,
                prefill,
                decode,
                kv_used_blocks,
                kv_total_blocks,
                ..
            } => {
                let dur = ended.saturating_since(started).as_micros();
                let c = &mut self.counts;
                c.steps[kind_index(kind)] += 1;
                c.busy_us += dur;
                c.last_end_us = ended.as_micros();
                c.peak_used_frac = c
                    .peak_used_frac
                    .max(kv_used_blocks as f64 / kv_total_blocks as f64);
                // Time in a step is not stall: stall accrues as held time
                // (added on release) minus the steps the sequence ran in.
                c.stall_us -= (dur * (prefill.len() + decode.len()) as u64) as i64;
                let log = &mut self.log;
                log.words.extend([
                    kind_index(kind) as u64,
                    prefill.len() as u64,
                    decode.len() as u64,
                ]);
                for &(id, chunk) in prefill {
                    let r = &mut self.reqs[id.0 as usize];
                    log.words.extend([u64::from(chunk), r.cached + r.prefilled]);
                    r.prefilled += u64::from(chunk);
                    // The step that finishes the prompt emits the first token.
                    if r.cached + r.prefilled == r.ctx {
                        r.ctx += 1;
                    }
                    self.counts.prefill_tokens += u64::from(chunk);
                }
                for &id in decode {
                    let r = &mut self.reqs[id.0 as usize];
                    log.words.push(r.ctx);
                    r.ctx += 1;
                }
                self.counts.decode_tokens += decode.len() as u64;
                log.flops.push(flops);
            }
            EngineEvent::Preempted { id, at, .. } => {
                self.release(id.0, at.as_micros());
                self.counts.preemptions += 1;
            }
            EngineEvent::Completed { at, completion } => {
                self.release(completion.id.0, at.as_micros());
                self.counts.cached_tokens += u64::from(completion.cached_tokens);
                self.counts.unfinished -= 1;
            }
            EngineEvent::Migrated { id, at, .. } => {
                self.release(id.0, at.as_micros());
                self.counts.unfinished -= 1;
            }
            EngineEvent::Abandoned { id, at, .. } => {
                if self.req(id.0).running {
                    self.release(id.0, at.as_micros());
                }
                self.counts.unfinished -= 1;
            }
            EngineEvent::RoleChanged { .. } => {}
        }
    }
}

/// A counting [`EngineObserver`] for one engine. Clones share state, so
/// the benchmark keeps one handle and gives the engine the other.
#[derive(Debug, Clone, Default)]
pub struct TallyObserver(Arc<Mutex<Tally>>);

impl EngineObserver for TallyObserver {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        self.0
            .lock()
            .expect("tally lock poisoned by a panicking observer")
            .apply(event);
    }
}

impl TallyObserver {
    /// The counters and the step log, once the run is over.
    pub fn finish(self) -> (Counts, StepLog) {
        let mut t = self
            .0
            .lock()
            .expect("tally lock poisoned by a panicking observer");
        (std::mem::take(&mut t.counts), std::mem::take(&mut t.log))
    }
}

/// What re-pricing one engine's steps found.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeResult {
    /// Steps re-priced.
    pub steps: u64,
    /// Steps whose re-priced FLOPs differ in any bit from the engine's.
    pub mismatches: u64,
    /// Host seconds one pass of pricing calls took (median of passes).
    pub price_s: f64,
    /// Steps whose exact shape had already occurred earlier in the run:
    /// the hits a memo table keyed by shape would get.
    pub repeated_shapes: u64,
}

impl ProbeResult {
    /// Adds another engine's probe into this one.
    pub fn merge(&mut self, o: &ProbeResult) {
        self.steps += o.steps;
        self.mismatches += o.mismatches;
        self.price_s += o.price_s;
        self.repeated_shapes += o.repeated_shapes;
    }
}

/// Timed passes over the log; the median pass is reported.
const PROBE_PASSES: usize = 3;

/// Re-prices every logged step through `perf`, checks each step's FLOPs
/// bit for bit against the engine's, and times the pricing calls.
pub fn probe(perf: &PerfModel, log: &StepLog) -> ProbeResult {
    let mut result = ProbeResult {
        steps: log.flops.len() as u64,
        ..ProbeResult::default()
    };
    let mut items: Vec<PrefillItem> = Vec::new();
    let mut passes = Vec::with_capacity(PROBE_PASSES);
    for pass in 0..PROBE_PASSES {
        let t0 = Instant::now();
        for step in log.steps() {
            items.clear();
            items.extend(step.prefill.chunks_exact(2).map(|p| PrefillItem {
                new_tokens: p[0],
                cached_tokens: p[1],
            }));
            let cost = match step.kind {
                0 => perf.prefill(black_box(&items)),
                1 => perf.decode_step(black_box(step.decode)),
                _ => perf.mixed_step(black_box(&items), black_box(step.decode)),
            };
            if pass == 0 && cost.flops.to_bits() != step.flops.to_bits() {
                result.mismatches += 1;
            }
            black_box(cost);
        }
        passes.push(t0.elapsed().as_secs_f64());
    }
    result.price_s = median(&passes).expect("at least one pass");

    let mut seen = HashSet::new();
    for step in log.steps() {
        if !seen.insert(Fingerprint::of(step.shape).value()) {
            result.repeated_shapes += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_kvcache::TokenBuf;
    use agentsim_llm::{Engine, EngineConfig};
    use agentsim_simkit::SimTime;

    /// Drives one engine to idle, completing every step it forms.
    fn drain(engine: &mut Engine, mut now: SimTime) -> SimTime {
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            engine.complete_step(now);
        }
        now
    }

    fn tallied(config: EngineConfig) -> (Engine, TallyObserver) {
        let mut engine = Engine::new(config);
        let tally = TallyObserver::default();
        engine.set_observer(Box::new(tally.clone()));
        (engine, tally)
    }

    #[test]
    fn probe_reprices_classic_steps_bit_for_bit() {
        let config = EngineConfig::a100_llama8b();
        let perf = PerfModel::new(config.cluster.clone());
        let (mut engine, tally) = tallied(config);
        // A shared prefix makes the second wave hit the prefix cache.
        for i in 0..4u64 {
            engine.submit(
                SimTime::ZERO,
                TokenBuf::from_segment(7, 300 + 50 * i as u32),
                9,
                i,
            );
        }
        let now = drain(&mut engine, SimTime::ZERO);
        for i in 0..3u64 {
            engine.submit(now, TokenBuf::from_segment(7, 400), 5, 10 + i);
        }
        drain(&mut engine, now);
        let (counts, log) = tally.finish();
        assert_eq!(counts.submitted, 7);
        assert_eq!(counts.unfinished, 0);
        assert_eq!(counts.live_sequences, 0, "every sequence released its KV");
        assert!(counts.cached_tokens > 0, "second wave reused the prefix");
        assert_eq!(
            counts.decode_tokens + 7,
            4 * 9 + 3 * 5,
            "first tokens come from prefill"
        );
        let r = probe(&perf, &log);
        assert_eq!(r.steps, counts.total_steps());
        assert_eq!(r.mismatches, 0);
        assert!(r.price_s > 0.0);
    }

    #[test]
    fn probe_reprices_chunked_prefill_steps_bit_for_bit() {
        let config = EngineConfig::a100_llama8b()
            .with_chunked_prefill(true)
            .with_kv_fraction(0.1);
        let perf = PerfModel::new(config.cluster.clone());
        let (mut engine, tally) = tallied(config);
        for i in 0..6u64 {
            engine.submit(SimTime::ZERO, TokenBuf::from_segment(i, 3000), 40, i);
        }
        drain(&mut engine, SimTime::ZERO);
        let (counts, log) = tally.finish();
        assert!(counts.steps[2] > 0, "chunked prefill forms mixed steps");
        assert_eq!(counts.unfinished, 0);
        assert_eq!(counts.live_sequences, 0);
        let r = probe(&perf, &log);
        assert_eq!(r.mismatches, 0);
    }

    #[test]
    fn probe_flags_a_perturbed_step() {
        let config = EngineConfig::a100_llama8b();
        let perf = PerfModel::new(config.cluster.clone());
        let (mut engine, tally) = tallied(config);
        engine.submit(SimTime::ZERO, TokenBuf::from_segment(1, 128), 4, 0);
        drain(&mut engine, SimTime::ZERO);
        let (_, mut log) = tally.finish();
        let last = log.flops.len() - 1;
        log.flops[last] = f64::from_bits(log.flops[last].to_bits() ^ 1);
        assert_eq!(probe(&perf, &log).mismatches, 1);
    }

    #[test]
    fn repeated_shapes_count_exact_repeats_only() {
        let mut log = StepLog::default();
        for ctx in [100, 100, 101, 100] {
            log.words.extend([1, 0, 1, ctx]);
            log.flops.push(0.0);
        }
        let perf = PerfModel::new(EngineConfig::a100_llama8b().cluster);
        let r = probe(&perf, &log);
        assert_eq!(r.repeated_shapes, 2);
        assert_eq!(r.mismatches, 4, "zero flops never match a real step");
    }
}
