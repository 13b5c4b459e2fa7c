//! Span recording and trace export over [`agentsim_llm`] engine events.
//!
//! A [`SpanRecorder`] implements [`EngineObserver`] and turns the raw
//! event stream into:
//!
//! * **per-request lifecycle spans** ([`RequestSpan`]) — queue, prefill,
//!   decode, and stall segments whose durations sum *exactly* to the
//!   request's end-to-end latency (the invariant the paper's Fig. 5/10
//!   breakdowns rely on),
//! * **step records** ([`StepRecord`]) — one per engine step, carrying
//!   the batch composition, KV block occupancy and running/waiting depth
//!   at its end; KV occupancy is also an
//!   [`agentsim_metrics::TimeSeries`]
//!   ([`kv_used_blocks`](SpanRecorder::kv_used_blocks)),
//! * **exporters** — Chrome `trace_event` JSON
//!   ([`chrome_trace`](SpanRecorder::chrome_trace), loadable in
//!   `chrome://tracing` or Perfetto, with one counter track per step
//!   series) and a JSONL event log
//!   ([`events_jsonl`](SpanRecorder::events_jsonl)).
//!
//! The recorder is a cheap clonable handle (`Arc<Mutex<..>>`): attach
//! one clone to the engine as its observer and keep another to read the
//! results after the run. [`FleetSim::attach_recorder`] and
//! [`FleetSim::attach_recorders`] do exactly that.
//!
//! [`FleetSim::attach_recorder`]: crate::FleetSim::attach_recorder
//! [`FleetSim::attach_recorders`]: crate::FleetSim::attach_recorders
//!
//! The phase attribution is defined once, in a crate-private span book
//! that hands back each span an event retires. The recorder and the
//! streaming [`SpanStreamWriter`](crate::SpanStreamWriter) are two folds
//! over it: the recorder keeps every span, the writer serializes each
//! retired span and drops it.
//!
//! The book attributes a span only at that request's own events: its
//! admission, each step it takes part in, a preemption, and its
//! retirement. A gap since its last own event is charged as stall at
//! the next one, so a retired span's partition is exact, while an
//! in-flight span is attributed up to its last own event.
//!
//! # Example
//!
//! ```
//! use agentsim_serving::{FleetConfig, FleetSim, Workload};
//!
//! let cfg = FleetConfig::new(Workload::Chatbot, 1.0, 5).seed(1);
//! let mut sim = FleetSim::new(cfg);
//! let recorder = sim.attach_recorder();
//! let report = sim.run();
//!
//! let spans = recorder.spans();
//! assert_eq!(spans.len() as u64, report.completed);
//! for span in &spans {
//!     // Queue + prefill + decode + stall reconstruct e2e exactly.
//!     assert_eq!(span.attributed(), span.e2e().unwrap());
//! }
//! agentsim_metrics::json::validate(&recorder.chrome_trace()).unwrap();
//! ```

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use agentsim_llm::{EngineEvent, EngineObserver, RequestId, StepKind};
use agentsim_metrics::{json, TimeSeries};
use agentsim_simkit::rng::KeyMap;
use agentsim_simkit::{SimDuration, SimTime};

/// What a request was doing during a [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for admission (initial queueing or post-preemption requeue).
    Queue,
    /// Participating in a prefill batch or prefill chunk.
    Prefill,
    /// Participating in a decode iteration.
    Decode,
    /// Admitted but not advancing (mid-prefill stall in chunked mode, or
    /// a decode-ready bystander of a pure prefill step).
    Stall,
}

impl Phase {
    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Stall => "stall",
        }
    }
}

/// A contiguous interval of one request's lifetime in one [`Phase`].
/// Adjacent same-phase intervals are merged as they are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The phase.
    pub phase: Phase,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
}

impl Segment {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Where a span currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanState {
    /// In the waiting queue since the given time.
    Queued(SimTime),
    /// In the running set; attributed up to the given time, its last
    /// own event.
    Running(SimTime),
    /// Completed (or migrated off this engine).
    Done,
}

/// The reconstructed lifecycle of one engine request.
///
/// Invariant (verified by tests): for a finished span,
/// `queue_time + prefill_time + decode_time + stall_time` equals the
/// end-to-end latency exactly (integer microseconds), and the prefill and
/// decode components match the engine's own per-completion attribution.
#[derive(Debug, Clone)]
pub struct RequestSpan {
    /// The engine-assigned request id.
    pub id: RequestId,
    /// Submission time.
    pub submitted: SimTime,
    /// Prompt length at submission.
    pub prompt_tokens: u32,
    /// Requested output tokens.
    pub target_out: u32,
    /// First admission into the running set, if it happened.
    pub first_admitted: Option<SimTime>,
    /// Completion time, if the request finished.
    pub finished: Option<SimTime>,
    /// Total time in the waiting queue (including post-preemption).
    pub queue_time: SimDuration,
    /// Total wall time in prefill steps it participated in.
    pub prefill_time: SimDuration,
    /// Total wall time in decode steps it participated in.
    pub decode_time: SimDuration,
    /// Total admitted-but-not-advancing time.
    pub stall_time: SimDuration,
    /// Times the request was preempted.
    pub preemptions: u32,
    /// Prompt tokens served from the prefix cache (from the completion).
    pub cached_tokens: u32,
    /// Tokens generated (from the completion).
    pub output_tokens: u32,
    /// Whether the span ended by migrating to a decode pool rather than
    /// by completing (prefill-role engines).
    pub migrated: bool,
    /// Whether the span ended by server-side cancellation (the client
    /// abandoned the request and the engine purged it at a step
    /// boundary). `finished` is the purge time.
    pub abandoned: bool,
    /// Phase timeline, merged and in time order.
    pub segments: Vec<Segment>,
    state: SpanState,
}

impl RequestSpan {
    fn new(id: RequestId, at: SimTime, prompt_tokens: u32, target_out: u32) -> Self {
        RequestSpan {
            id,
            submitted: at,
            prompt_tokens,
            target_out,
            first_admitted: None,
            finished: None,
            queue_time: SimDuration::ZERO,
            prefill_time: SimDuration::ZERO,
            decode_time: SimDuration::ZERO,
            stall_time: SimDuration::ZERO,
            preemptions: 0,
            cached_tokens: 0,
            output_tokens: 0,
            migrated: false,
            abandoned: false,
            segments: Vec::new(),
            state: SpanState::Queued(at),
        }
    }

    /// Whether the request ran to completion.
    pub fn is_complete(&self) -> bool {
        self.finished.is_some()
    }

    /// End-to-end latency (`None` until finished).
    pub fn e2e(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.submitted))
    }

    /// Sum of all attributed phase durations. For a finished span this
    /// equals [`RequestSpan::e2e`] exactly; an in-flight span is
    /// attributed up to its last own event (submission, admission, a
    /// step it took part in, or a preemption).
    pub fn attributed(&self) -> SimDuration {
        self.queue_time + self.prefill_time + self.decode_time + self.stall_time
    }

    /// Queue time from submission to first admission only.
    pub fn initial_queue_time(&self) -> SimDuration {
        self.first_admitted
            .map_or(SimDuration::ZERO, |a| a.saturating_since(self.submitted))
    }

    fn push_segment(&mut self, phase: Phase, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let dur = end.saturating_since(start);
        match phase {
            Phase::Queue => self.queue_time += dur,
            Phase::Prefill => self.prefill_time += dur,
            Phase::Decode => self.decode_time += dur,
            Phase::Stall => self.stall_time += dur,
        }
        if let Some(last) = self.segments.last_mut() {
            if last.phase == phase && last.end == start {
                last.end = end;
                return;
            }
        }
        self.segments.push(Segment { phase, start, end });
    }

    /// Attributes `[started, ended]` to `phase`, charging any gap since
    /// the last attribution mark as stall.
    fn mark_phase(&mut self, phase: Phase, started: SimTime, ended: SimTime) {
        let SpanState::Running(mark) = self.state else {
            panic!("{}: {phase:?} attribution while not running", self.id);
        };
        if mark < started {
            self.push_segment(Phase::Stall, mark, started);
        }
        self.push_segment(phase, started.max(mark), ended);
        self.state = SpanState::Running(ended);
    }
}

/// The phase-attribution state machine of one engine: its live spans
/// and the transition each [`EngineEvent`] drives. An event touches only
/// the spans it names. Both span sinks fold over it.
#[derive(Debug, Default)]
pub(crate) struct SpanBook {
    /// Spans submitted and not yet retired, keyed by request id.
    live: KeyMap<RequestSpan>,
}

impl SpanBook {
    /// Spans submitted and not yet retired.
    pub(crate) fn live(&self) -> usize {
        self.live.len()
    }

    fn live_mut(&mut self, id: RequestId) -> &mut RequestSpan {
        self.live
            .get_mut(&id.0)
            .unwrap_or_else(|| panic!("unobserved request {id}"))
    }

    /// Removes `id` at `at`, closing its open phase so the partition
    /// telescopes to end-to-end. Only a purge (`from_queue`) may catch a
    /// request still waiting.
    fn retire(&mut self, id: RequestId, at: SimTime, from_queue: bool) -> RequestSpan {
        let mut span = self
            .live
            .remove(&id.0)
            .unwrap_or_else(|| panic!("unobserved request {id}"));
        match span.state {
            SpanState::Running(mark) => span.push_segment(Phase::Stall, mark, at),
            SpanState::Queued(since) if from_queue => span.push_segment(Phase::Queue, since, at),
            state => panic!("{id}: retired while {state:?}"),
        }
        span.finished = Some(at);
        span.state = SpanState::Done;
        span
    }

    /// Applies one engine event and returns the span it retired, if any.
    pub(crate) fn apply(&mut self, event: &EngineEvent<'_>) -> Option<RequestSpan> {
        match *event {
            EngineEvent::Submitted {
                id,
                at,
                prompt_tokens,
                out_tokens,
                ..
            } => {
                let span = RequestSpan::new(id, at, prompt_tokens, out_tokens);
                let prev = self.live.insert(id.0, span);
                assert!(prev.is_none(), "{id}: submitted twice");
                None
            }
            EngineEvent::Admitted { id, at, .. } => {
                let span = self.live_mut(id);
                let SpanState::Queued(since) = span.state else {
                    panic!("{id}: admitted while not queued");
                };
                span.push_segment(Phase::Queue, since, at);
                span.first_admitted.get_or_insert(at);
                span.state = SpanState::Running(at);
                None
            }
            EngineEvent::StepCompleted {
                started,
                ended,
                prefill,
                decode,
                ..
            } => {
                // A running span the step leaves out is charged the stall
                // at its own next event.
                for &(id, _) in prefill {
                    self.live_mut(id).mark_phase(Phase::Prefill, started, ended);
                }
                for &id in decode {
                    self.live_mut(id).mark_phase(Phase::Decode, started, ended);
                }
                None
            }
            EngineEvent::Preempted { id, at, .. } => {
                let span = self.live_mut(id);
                let SpanState::Running(mark) = span.state else {
                    panic!("{id}: preempted while not running");
                };
                span.push_segment(Phase::Stall, mark, at);
                span.preemptions += 1;
                span.state = SpanState::Queued(at);
                None
            }
            EngineEvent::Completed { at, completion } => {
                let mut span = self.retire(completion.id, at, false);
                span.cached_tokens = completion.cached_tokens;
                span.output_tokens = completion.output_tokens;
                Some(span)
            }
            EngineEvent::Migrated {
                id, at, generated, ..
            } => {
                let mut span = self.retire(id, at, false);
                span.output_tokens = generated;
                span.migrated = true;
                Some(span)
            }
            EngineEvent::Abandoned { id, at, generated } => {
                // The purge can catch the request waiting or admitted.
                let mut span = self.retire(id, at, true);
                span.output_tokens = generated;
                span.abandoned = true;
                Some(span)
            }
            // Role flips carry no per-request span; the engine is empty
            // by contract when one fires.
            EngineEvent::RoleChanged { .. } => None,
        }
    }
}

/// One completed engine step (batch composition and cost).
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// What the step did.
    pub kind: StepKind,
    /// When it started.
    pub started: SimTime,
    /// When it finished.
    pub ended: SimTime,
    /// FLOPs executed.
    pub flops: f64,
    /// Prefill tokens processed across all chunks.
    pub prefill_tokens: u32,
    /// Sequences participating as prefill.
    pub prefill_seqs: u32,
    /// Sequences participating as decode (one token each).
    pub decode_seqs: u32,
    /// KV blocks referenced by live sequences at step end.
    pub kv_used_blocks: u64,
    /// Running sequences at step end (before completions are removed).
    pub running: u32,
    /// Requests waiting for admission at step end.
    pub waiting: u32,
}

impl StepRecord {
    /// Step wall time.
    pub fn duration(&self) -> SimDuration {
        self.ended.saturating_since(self.started)
    }
}

/// Reads one counter off a step.
type StepValue = fn(&StepRecord) -> f64;

/// The engine time-series, each one point per step at its end, under
/// the names the Chrome trace gives their counter tracks.
const STEP_SERIES: [(&str, StepValue); 5] = [
    ("kv_used_blocks", |s| s.kv_used_blocks as f64),
    ("running", |s| s.running as f64),
    ("waiting", |s| s.waiting as f64),
    ("prefill_tokens", |s| s.prefill_tokens as f64),
    ("decode_seqs", |s| s.decode_seqs as f64),
];

#[derive(Debug, Default)]
struct RecorderInner {
    book: SpanBook,
    /// One slot per submitted request, in id order: the span once it
    /// retired, `None` while it is still live in `book`.
    retired: Vec<Option<RequestSpan>>,
    steps: Vec<StepRecord>,
    kv_total_blocks: u64,
    jsonl: String,
}

impl RecorderInner {
    /// Every span in id order, in-flight ones included (attributed up to
    /// their last own event).
    fn spans(&self) -> impl Iterator<Item = &RequestSpan> {
        self.retired.iter().enumerate().map(|(id, span)| {
            span.as_ref()
                .unwrap_or_else(|| &self.book.live[&(id as u64)])
        })
    }

    fn log_line(&mut self, line: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.jsonl, "{line}");
    }

    fn apply(&mut self, event: &EngineEvent<'_>) {
        if let Some(span) = self.book.apply(event) {
            let slot = span.id.0 as usize;
            self.retired[slot] = Some(span);
        }
        match *event {
            EngineEvent::Submitted {
                id,
                at,
                prompt_tokens,
                out_tokens,
                priority,
            } => {
                assert_eq!(
                    self.retired.len(),
                    id.0 as usize,
                    "a SpanRecorder must observe a single engine from its first request"
                );
                self.retired.push(None);
                self.log_line(format_args!(
                    "{{\"event\":\"submit\",\"t_us\":{},\"id\":{},\"prompt_tokens\":{},\
                     \"out_tokens\":{},\"priority\":{}}}",
                    at.as_micros(),
                    id.0,
                    prompt_tokens,
                    out_tokens,
                    priority
                ));
            }
            EngineEvent::Admitted {
                id,
                at,
                new_tokens,
                cached_tokens,
            } => {
                self.log_line(format_args!(
                    "{{\"event\":\"admit\",\"t_us\":{},\"id\":{},\"new_tokens\":{},\
                     \"cached_tokens\":{}}}",
                    at.as_micros(),
                    id.0,
                    new_tokens,
                    cached_tokens
                ));
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
                running,
                waiting,
            } => {
                self.kv_total_blocks = kv_total_blocks;
                let prefill_tokens: u32 = prefill.iter().map(|&(_, chunk)| chunk).sum();
                self.steps.push(StepRecord {
                    kind,
                    started,
                    ended,
                    flops,
                    prefill_tokens,
                    prefill_seqs: prefill.len() as u32,
                    decode_seqs: decode.len() as u32,
                    kv_used_blocks,
                    running,
                    waiting,
                });
                self.log_line(format_args!(
                    "{{\"event\":\"step\",\"kind\":\"{}\",\"t_us\":{},\"dur_us\":{},\
                     \"flops\":{:.3e},\"prefill_tokens\":{},\"prefill_seqs\":{},\
                     \"decode_seqs\":{},\"kv_used_blocks\":{},\"kv_total_blocks\":{},\
                     \"running\":{},\"waiting\":{}}}",
                    kind.name(),
                    ended.as_micros(),
                    ended.saturating_since(started).as_micros(),
                    flops,
                    prefill_tokens,
                    prefill.len(),
                    decode.len(),
                    kv_used_blocks,
                    kv_total_blocks,
                    running,
                    waiting
                ));
            }
            EngineEvent::Preempted { id, at, generated } => {
                self.log_line(format_args!(
                    "{{\"event\":\"preempt\",\"t_us\":{},\"id\":{},\"generated\":{}}}",
                    at.as_micros(),
                    id.0,
                    generated
                ));
            }
            EngineEvent::Completed { at, completion } => {
                self.log_line(format_args!(
                    "{{\"event\":\"complete\",\"t_us\":{},\"id\":{},\"output_tokens\":{},\
                     \"cached_tokens\":{},\"preemptions\":{},\"queue_us\":{},\
                     \"prefill_us\":{},\"decode_us\":{}}}",
                    at.as_micros(),
                    completion.id.0,
                    completion.output_tokens,
                    completion.cached_tokens,
                    completion.preemptions,
                    completion.queue_time().as_micros(),
                    completion.prefill_time.as_micros(),
                    completion.decode_time.as_micros()
                ));
            }
            EngineEvent::Migrated {
                id,
                at,
                generated,
                kv_blocks,
                kv_bytes,
            } => {
                self.log_line(format_args!(
                    "{{\"event\":\"migrate\",\"t_us\":{},\"id\":{},\"generated\":{},\
                     \"kv_blocks\":{},\"kv_bytes\":{}}}",
                    at.as_micros(),
                    id.0,
                    generated,
                    kv_blocks,
                    kv_bytes
                ));
            }
            EngineEvent::Abandoned { id, at, generated } => {
                self.log_line(format_args!(
                    "{{\"event\":\"abandon\",\"t_us\":{},\"id\":{},\"generated\":{}}}",
                    at.as_micros(),
                    id.0,
                    generated
                ));
            }
            EngineEvent::RoleChanged { at, from, to } => {
                // Pool autoscaling flipped this engine's role; the log
                // keeps the role timeline.
                self.log_line(format_args!(
                    "{{\"event\":\"role\",\"t_us\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    at.as_micros(),
                    from.name(),
                    to.name()
                ));
            }
        }
    }
}

/// A clonable [`EngineObserver`] that records request spans
/// ([`RequestSpan`], whose segments partition each request's e2e latency
/// exactly), step records ([`StepRecord`]), and engine time-series, and
/// exports them as a Chrome trace or a JSONL event log. Attach one clone
/// to an engine and read the results from another after the run;
/// [`FleetSim::attach_recorders`](crate::FleetSim::attach_recorders)
/// does both for every replica.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// All observed request spans, in request-id order. A span still in
    /// flight is attributed up to its last own event, so its
    /// [`RequestSpan::attributed`] can trail the current time.
    pub fn spans(&self) -> Vec<RequestSpan> {
        self.inner.lock().unwrap().spans().cloned().collect()
    }

    /// All completed step records, in time order.
    pub fn steps(&self) -> Vec<StepRecord> {
        self.inner.lock().unwrap().steps.clone()
    }

    /// KV block occupancy sampled at every step completion.
    pub fn kv_used_blocks(&self) -> TimeSeries {
        let inner = self.inner.lock().unwrap();
        let mut series = TimeSeries::new();
        series.extend(
            inner
                .steps
                .iter()
                .map(|s| (s.ended, s.kv_used_blocks as f64)),
        );
        series
    }

    /// Total KV pool size in blocks (0 until the first step completes).
    pub fn kv_total_blocks(&self) -> u64 {
        self.inner.lock().unwrap().kv_total_blocks
    }

    /// The JSONL event log: one JSON object per line, in emission order.
    pub fn events_jsonl(&self) -> String {
        self.inner.lock().unwrap().jsonl.clone()
    }

    /// Chrome `trace_event` JSON for this recorder alone (process 0).
    ///
    /// Load the result in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev): one track (`tid`) per
    /// request with its queue/prefill/decode/stall spans, plus counter
    /// tracks for KV occupancy and running/waiting depth.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&[("engine", self)])
    }
}

impl EngineObserver for SpanRecorder {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        self.inner.lock().unwrap().apply(event);
    }
}

/// Chrome `trace_event` JSON combining several recorders, one process
/// (`pid`) per `(label, recorder)` pair — e.g. one per fleet replica.
pub fn chrome_trace(recorders: &[(&str, &SpanRecorder)]) -> String {
    let mut events = Vec::new();
    for (pid, &(label, recorder)) in recorders.iter().enumerate() {
        let inner = recorder.inner.lock().unwrap();
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(label)
        ));
        for span in inner.spans() {
            let tid = span.id.0;
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"req#{tid}\"}}}}"
            ));
            events.extend(span.segments.iter().map(|seg| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                    seg.phase.name(),
                    seg.start.as_micros(),
                    seg.duration().as_micros()
                )
            }));
        }
        for (name, value) in STEP_SERIES {
            events.extend(inner.steps.iter().map(|step| {
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    step.ended.as_micros(),
                    value(step)
                )
            }));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetSim, SpanStreamWriter, Workload};
    use agentsim_kvcache::TokenBuf;
    use agentsim_llm::{Engine, EngineConfig};

    fn drain(engine: &mut Engine, mut now: SimTime) -> SimTime {
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            engine.complete_step(now);
        }
        now
    }

    /// A stall sweep at a step's end over every live span: the
    /// reference charges a skipped running span its stall at each step.
    fn full_sweep(book: &mut SpanBook, ended: SimTime) {
        for span in book.live.values_mut() {
            if let SpanState::Running(mark) = span.state {
                if mark < ended {
                    span.push_segment(Phase::Stall, mark, ended);
                    span.state = SpanState::Running(ended);
                }
            }
        }
    }

    /// The sinks a script feeds: a recorder, a reference recorder that
    /// also sweeps every live span at each step end, and a streaming
    /// writer.
    struct Sinks {
        recorder: RecorderInner,
        reference: RecorderInner,
        writer: SpanStreamWriter,
    }

    impl Sinks {
        fn feed(&mut self, event: EngineEvent<'_>) {
            self.recorder.apply(&event);
            self.reference.apply(&event);
            if let EngineEvent::StepCompleted { ended, .. } = event {
                full_sweep(&mut self.reference.book, ended);
            }
            self.writer.on_event(&event);
            assert_eq!(self.writer.live(), self.reference.book.live());
        }
    }

    /// The line the writer must stream for a retired span.
    fn expected_line(span: &RequestSpan) -> String {
        let segments: Vec<String> = span
            .segments
            .iter()
            .map(|seg| {
                format!(
                    "{{\"phase\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                    seg.phase.name(),
                    seg.start.as_micros(),
                    seg.end.as_micros()
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"migrated\":{},\"submitted_us\":{},\"finished_us\":{},\
             \"prompt_tokens\":{},\"cached_tokens\":{},\"output_tokens\":{},\
             \"queue_us\":{},\"prefill_us\":{},\"decode_us\":{},\
             \"stall_us\":{},\"preemptions\":{},\"abandoned\":{},\"segments\":[{}]}}",
            span.id.0,
            span.migrated,
            span.submitted.as_micros(),
            span.finished.unwrap().as_micros(),
            span.prompt_tokens,
            span.cached_tokens,
            span.output_tokens,
            span.queue_time.as_micros(),
            span.prefill_time.as_micros(),
            span.decode_time.as_micros(),
            span.stall_time.as_micros(),
            span.preemptions,
            span.abandoned,
            segments.join(",")
        )
    }

    /// Feeds a random event script of `events` draws from `seed` to the
    /// sinks and checks that every span they retire, the JSONL log and
    /// every streamed line match the full-sweep reference: charging a
    /// stall only at the request's own next event loses nothing.
    fn check_retired_spans_against_a_full_sweep(seed: u64, events: usize) {
        let (writer, buf) = SpanStreamWriter::in_memory();
        let mut sinks = Sinks {
            recorder: RecorderInner::default(),
            reference: RecorderInner::default(),
            writer,
        };
        let mut state = seed;
        let mut draw = move |n: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut queued, mut running) = (Vec::<RequestId>::new(), Vec::<RequestId>::new());
        let mut now = SimTime::ZERO;
        for _ in 0..events {
            now += SimDuration::from_micros(draw(3) as u64);
            match draw(8) {
                0 | 1 => {
                    let id = RequestId(sinks.recorder.retired.len() as u64);
                    queued.push(id);
                    let submit = EngineEvent::Submitted {
                        id,
                        at: now,
                        prompt_tokens: 64,
                        out_tokens: 8,
                        priority: 0,
                    };
                    sinks.feed(submit);
                }
                2 | 3 if !queued.is_empty() => {
                    let id = queued.swap_remove(draw(queued.len()));
                    running.push(id);
                    let admit = EngineEvent::Admitted {
                        id,
                        at: now,
                        new_tokens: 64,
                        cached_tokens: 0,
                    };
                    sinks.feed(admit);
                }
                4 | 5 => {
                    // Some running spans advance; the rest stall.
                    let prefill: Vec<(RequestId, u32)> = running
                        .iter()
                        .filter(|_| draw(3) == 0)
                        .map(|&id| (id, 16))
                        .collect();
                    let decode: Vec<RequestId> = running
                        .iter()
                        .copied()
                        .filter(|id| draw(2) == 0 && prefill.iter().all(|p| p.0 != *id))
                        .collect();
                    let ended = now + SimDuration::from_micros(10 + draw(40) as u64);
                    let step = EngineEvent::StepCompleted {
                        kind: StepKind::Mixed,
                        started: now,
                        ended,
                        flops: 1.0,
                        prefill: &prefill,
                        decode: &decode,
                        kv_used_blocks: 1,
                        kv_total_blocks: 8,
                        running: running.len() as u32,
                        waiting: queued.len() as u32,
                    };
                    sinks.feed(step);
                    now = ended;
                }
                6 if !running.is_empty() => {
                    let id = running.swap_remove(draw(running.len()));
                    let event = match draw(3) {
                        0 => {
                            queued.push(id);
                            EngineEvent::Preempted {
                                id,
                                at: now,
                                generated: 1,
                            }
                        }
                        1 => EngineEvent::Migrated {
                            id,
                            at: now,
                            generated: 1,
                            kv_blocks: 1,
                            kv_bytes: 64,
                        },
                        _ => EngineEvent::Abandoned {
                            id,
                            at: now,
                            generated: 1,
                        },
                    };
                    sinks.feed(event);
                }
                7 if !running.is_empty() => {
                    let id = running.swap_remove(draw(running.len()));
                    let completion = agentsim_llm::LlmCompletion {
                        id,
                        arrived: now,
                        started: now,
                        finished: now,
                        prompt_tokens: 64,
                        cached_tokens: 0,
                        output_tokens: 8,
                        prefill_time: SimDuration::ZERO,
                        decode_time: SimDuration::ZERO,
                        flops: 0.0,
                        preemptions: 0,
                    };
                    let done = EngineEvent::Completed {
                        at: now,
                        completion: &completion,
                    };
                    sinks.feed(done);
                }
                _ if !queued.is_empty() => {
                    let id = queued.swap_remove(draw(queued.len()));
                    let abandon = EngineEvent::Abandoned {
                        id,
                        at: now,
                        generated: 0,
                    };
                    sinks.feed(abandon);
                }
                _ => {}
            }
        }
        let Sinks {
            recorder,
            reference,
            writer,
        } = sinks;
        // In-flight spans are attributed only up to their last own event,
        // so only retired ones must match the reference.
        let retired = |sink: &RecorderInner| format!("{:?}", sink.retired);
        assert_eq!(retired(&recorder), retired(&reference));
        assert_eq!(recorder.jsonl, reference.jsonl);
        let spans: Vec<&RequestSpan> = reference.spans().collect();
        // The writer streamed each retired span exactly as the reference
        // holds it.
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, writer.written());
        assert_eq!(
            lines.len(),
            spans.iter().filter(|s| s.is_complete()).count()
        );
        for line in lines {
            let id = line["{\"id\":".len()..].split(',').next().unwrap();
            assert_eq!(line, expected_line(spans[id.parse::<usize>().unwrap()]));
        }
        // The script exercised every transition that retires or stalls.
        assert!(spans.iter().any(|s| s.stall_time > SimDuration::ZERO));
        assert!(spans.iter().any(|s| s.preemptions > 0));
        assert!(spans.iter().any(|s| s.migrated));
        assert!(spans.iter().any(|s| s.abandoned));
        assert!(spans
            .iter()
            .any(|s| s.is_complete() && !s.migrated && !s.abandoned));
    }

    #[test]
    fn retired_spans_match_a_full_stall_sweep() {
        check_retired_spans_against_a_full_sweep(0x9E37_79B9_7F4A_7C15, 3_000);
    }

    /// The deep variant: eight scripts of 25,000 events each. Run with
    /// `cargo test --release -p agentsim-serving -- --ignored`.
    #[test]
    #[ignore]
    fn retired_spans_match_a_full_stall_sweep_deep() {
        for seed in 1..=8u64 {
            check_retired_spans_against_a_full_sweep(
                agentsim_simkit::rng::splitmix64(seed),
                25_000,
            );
        }
    }

    #[test]
    fn single_request_span_partitions_latency() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        let recorder = SpanRecorder::new();
        e.set_observer(Box::new(recorder.clone()));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 50, 7);
        drain(&mut e, SimTime::ZERO);

        let spans = recorder.spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.is_complete());
        assert_eq!(s.attributed(), s.e2e().unwrap());
        assert!(s.prefill_time > SimDuration::ZERO);
        assert!(s.decode_time > SimDuration::ZERO);
        // A lone request on an idle engine never queues or stalls.
        assert_eq!(s.queue_time, SimDuration::ZERO);
        assert_eq!(s.stall_time, SimDuration::ZERO);
        // Segments merged: prefill then one contiguous decode span.
        assert_eq!(s.segments.len(), 2);
        assert_eq!(s.segments[0].phase, Phase::Prefill);
        assert_eq!(s.segments[1].phase, Phase::Decode);
    }

    #[test]
    fn concurrent_spans_reconstruct_latency_with_queue_and_stall() {
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        let recorder = SpanRecorder::new();
        e.set_observer(Box::new(recorder.clone()));
        for i in 0..6u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(i, 2000), 40, i);
        }
        drain(&mut e, SimTime::ZERO);

        let spans = recorder.spans();
        assert_eq!(spans.len(), 6);
        let queued: u32 = spans
            .iter()
            .map(|s| (s.queue_time > SimDuration::ZERO) as u32)
            .sum();
        assert!(queued > 0, "later arrivals must queue behind prefills");
        for s in &spans {
            assert_eq!(s.attributed(), s.e2e().unwrap(), "{}", s.id);
        }
        assert!(recorder.kv_used_blocks().max() > 0.0);
        assert!(recorder.kv_total_blocks() > 0);
    }

    #[test]
    fn preempted_span_reconstructs_latency_including_requeue() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_kv_fraction(0.02));
        let recorder = SpanRecorder::new();
        e.set_observer(Box::new(recorder.clone()));
        for i in 0..5u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(10 + i, 700), 300, i);
        }
        drain(&mut e, SimTime::ZERO);

        let spans = recorder.spans();
        let preempted: u32 = spans.iter().map(|s| s.preemptions).sum();
        assert!(preempted > 0, "tiny pool must preempt");
        for s in &spans {
            assert!(s.is_complete());
            assert_eq!(s.attributed(), s.e2e().unwrap(), "{}", s.id);
        }
    }

    #[test]
    fn chunked_prefill_spans_include_stalls() {
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_chunked_prefill(true));
        let recorder = SpanRecorder::new();
        e.set_observer(Box::new(recorder.clone()));
        for i in 0..4u64 {
            e.submit(SimTime::ZERO, TokenBuf::from_segment(10 + i, 3000), 32, i);
        }
        drain(&mut e, SimTime::ZERO);
        for s in recorder.spans() {
            assert_eq!(s.attributed(), s.e2e().unwrap(), "{}", s.id);
        }
        assert!(
            recorder
                .steps()
                .iter()
                .any(|s| s.kind == StepKind::Mixed && s.decode_seqs > 0 && s.prefill_seqs > 0),
            "mixed steps must co-schedule prefill chunks and decodes"
        );
    }

    #[test]
    fn exporters_emit_valid_json() {
        let cfg = FleetConfig::new(Workload::react_hotpotqa(), 1.0, 6).seed(3);
        let mut sim = FleetSim::new(cfg);
        let recorder = sim.attach_recorder();
        let report = sim.run();
        assert_eq!(report.completed, 6);

        let trace = recorder.chrome_trace();
        json::validate(&trace).unwrap();
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("kv_used_blocks"));

        let jsonl = recorder.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // The log covers every lifecycle event class.
        for needle in ["\"submit\"", "\"admit\"", "\"step\"", "\"complete\""] {
            assert!(jsonl.contains(needle), "missing {needle}");
        }

        // Multi-recorder export assigns distinct pids.
        let combined = chrome_trace(&[("replica0", &recorder), ("replica1", &recorder)]);
        json::validate(&combined).unwrap();
        assert!(combined.contains("\"pid\":1"));
    }

    #[test]
    fn migrated_call_partitions_exactly_on_both_sides() {
        use agentsim_llm::EngineRole;
        use agentsim_simkit::SimDuration;

        let mut prefill = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        let p_rec = SpanRecorder::new();
        prefill.set_observer(Box::new(p_rec.clone()));
        prefill.submit(SimTime::ZERO, TokenBuf::from_segment(1, 513), 8, 0);
        drain(&mut prefill, SimTime::ZERO);

        let mut migrations = prefill.take_migrations();
        assert_eq!(migrations.len(), 1);
        let p_span = &p_rec.spans()[0];
        assert!(p_span.migrated);
        assert_eq!(p_span.attributed(), p_span.e2e().unwrap());

        // KV transfer takes 100µs, then the decode pool takes over.
        let migration = migrations.pop().expect("one migration");
        let handoff = migration.released + SimDuration::from_micros(100);
        let mut decode = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Decode));
        let d_rec = SpanRecorder::new();
        decode.set_observer(Box::new(d_rec.clone()));
        decode.submit_prefilled(handoff, migration);
        drain(&mut decode, handoff);

        let d_span = &d_rec.spans()[0];
        assert!(d_span.is_complete() && !d_span.migrated);
        assert_eq!(d_span.prefill_time, SimDuration::ZERO);
        assert_eq!(d_span.attributed(), d_span.e2e().unwrap());
        // The decode side's completion counts the token produced at the
        // prefill release, so it carries the call's total.
        assert_eq!(d_span.output_tokens, 8);
        // The migrate event reached the prefill-side JSONL log.
        assert!(p_rec.events_jsonl().contains("\"migrate\""));
    }
}
