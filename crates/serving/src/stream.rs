//! Streaming span export: constant-memory JSONL emission.
//!
//! [`SpanRecorder`](crate::SpanRecorder) keeps every span and a growing
//! event log in memory — right for post-hoc analysis, wrong for long
//! sweeps where a run retires hundreds of thousands of requests. A
//! [`SpanStreamWriter`] folds over the same span book — one
//! phase-attribution state machine — but keeps nothing it retires: the
//! moment a request retires (completes, migrates off a prefill-role
//! engine, or is purged after its client abandoned it) its finished span
//! is serialized as one JSON line to the underlying writer and dropped.
//! Memory is `O(concurrent requests)` instead of `O(total requests)`.
//!
//! Each emitted line carries the full five-phase partition
//! (`queue/prefill/decode/transfer/stall`, microseconds), how the span
//! ended (`migrated`, `abandoned`), and the merged segment timeline, so
//! downstream tooling can rebuild tail breakdowns without replaying the
//! run.
//!
//! I/O errors never panic the simulation: the first error is captured,
//! subsequent writes are skipped, and [`SpanStreamWriter::io_error`]
//! reports it at the end of the run.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use agentsim_llm::{EngineEvent, EngineObserver};

use crate::observe::{RequestSpan, SpanBook};

struct StreamInner {
    out: Box<dyn Write + Send>,
    book: SpanBook,
    written: u64,
    peak_live: usize,
    io_error: Option<io::Error>,
    line: String,
}

// `Box<dyn Write + Send>` has no Debug; describe the observable state instead.
impl std::fmt::Debug for SpanStreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("SpanStreamWriter")
            .field("live", &inner.book.live())
            .field("written", &inner.written)
            .field("peak_live", &inner.peak_live)
            .field("io_error", &inner.io_error)
            .finish()
    }
}

impl StreamInner {
    fn write_span(&mut self, span: &RequestSpan) {
        self.line.clear();
        let finished = span.finished.expect("retired span always has an end");
        let _ = write!(
            self.line,
            "{{\"id\":{},\"migrated\":{},\"submitted_us\":{},\"finished_us\":{},\
             \"prompt_tokens\":{},\"cached_tokens\":{},\"output_tokens\":{},\
             \"queue_us\":{},\"prefill_us\":{},\"decode_us\":{},\"transfer_us\":{},\
             \"stall_us\":{},\"preemptions\":{},\"abandoned\":{},\"segments\":[",
            span.id.0,
            span.migrated,
            span.submitted.as_micros(),
            finished.as_micros(),
            span.prompt_tokens,
            span.cached_tokens,
            span.output_tokens,
            span.queue_time.as_micros(),
            span.prefill_time.as_micros(),
            span.decode_time.as_micros(),
            span.transfer_time.as_micros(),
            span.stall_time.as_micros(),
            span.preemptions,
            span.abandoned,
        );
        for (i, seg) in span.segments.iter().enumerate() {
            let _ = write!(
                self.line,
                "{}{{\"phase\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                if i == 0 { "" } else { "," },
                seg.phase.name(),
                seg.start.as_micros(),
                seg.end.as_micros(),
            );
        }
        self.line.push_str("]}\n");
        if self.io_error.is_none() {
            if let Err(e) = self.out.write_all(self.line.as_bytes()) {
                self.io_error = Some(e);
            } else {
                self.written += 1;
            }
        }
    }
}

/// A clonable [`EngineObserver`] that streams each retired request span
/// as one JSON line and keeps only live spans in memory. See the
/// [module docs](self).
#[derive(Clone)]
pub struct SpanStreamWriter {
    inner: Arc<Mutex<StreamInner>>,
}

impl SpanStreamWriter {
    /// Wraps an arbitrary byte sink (a `File`, a `BufWriter`, a
    /// `Vec<u8>`, …).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        SpanStreamWriter {
            inner: Arc::new(Mutex::new(StreamInner {
                out,
                book: SpanBook::default(),
                written: 0,
                peak_live: 0,
                io_error: None,
                line: String::new(),
            })),
        }
    }

    /// Streams to a newly created (truncated) file, buffered.
    pub fn to_file(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(SpanStreamWriter::new(Box::new(io::BufWriter::new(file))))
    }

    /// Spans retired (lines successfully written) so far.
    pub fn written(&self) -> u64 {
        self.inner.lock().unwrap().written
    }

    /// Requests currently in flight (spans held in memory).
    pub fn live(&self) -> usize {
        self.inner.lock().unwrap().book.live()
    }

    /// High-water mark of concurrently held spans — the writer's actual
    /// memory footprint, independent of run length.
    pub fn peak_live(&self) -> usize {
        self.inner.lock().unwrap().peak_live
    }

    /// A description of the first write error, if any occurred. Once a
    /// write fails, later spans are dropped rather than retried.
    pub fn io_error(&self) -> Option<String> {
        self.inner
            .lock()
            .unwrap()
            .io_error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Flushes the underlying writer (call at end of run; buffered sinks
    /// may otherwise hold the tail).
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().unwrap().out.flush()
    }
}

impl EngineObserver for SpanStreamWriter {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(span) = inner.book.apply(event) {
            inner.write_span(&span);
        }
        inner.peak_live = inner.peak_live.max(inner.book.live());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::tests::SharedBuf;
    use crate::observe::SpanRecorder;
    use crate::{FleetSim, ServingConfig, Workload};
    use agentsim_kvcache::TokenBuf;
    use agentsim_llm::{Engine, EngineConfig, EngineRole, FanoutObserver};
    use agentsim_metrics::json;
    use agentsim_simkit::SimTime;

    fn drain(engine: &mut Engine, mut now: SimTime) {
        while let Some(end) = engine.start_step_if_idle(now) {
            now = end;
            engine.complete_step(now);
        }
    }

    #[test]
    fn streams_one_valid_line_per_retired_span_and_matches_recorder() {
        let buf = SharedBuf::default();
        let writer = SpanStreamWriter::new(Box::new(buf.clone()));
        let recorder = SpanRecorder::new();

        let cfg = ServingConfig::new(Workload::react_hotpotqa(), 1.0, 4).seed(7);
        let mut sim = FleetSim::new(cfg);
        sim.set_observer(Box::new(
            FanoutObserver::new()
                .with(Box::new(writer.clone()))
                .with(Box::new(recorder.clone())),
        ));
        sim.run();

        assert_eq!(writer.live(), 0, "all spans must retire");
        assert!(writer.peak_live() >= 1);
        assert!(writer.io_error().is_none());

        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        let spans = recorder.spans();
        assert_eq!(lines.len() as u64, writer.written());
        assert_eq!(lines.len(), spans.len());

        for line in &lines {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Streamed phase totals agree with the in-memory recorder.
        for span in &spans {
            let needle = format!(
                "\"id\":{},\"migrated\":false,\"submitted_us\":{}",
                span.id.0,
                span.submitted.as_micros()
            );
            let line = lines
                .iter()
                .find(|l| l.contains(&needle))
                .unwrap_or_else(|| panic!("no streamed line for {}", span.id));
            assert!(line.contains(&format!("\"queue_us\":{}", span.queue_time.as_micros())));
            assert!(line.contains(&format!("\"prefill_us\":{}", span.prefill_time.as_micros())));
            assert!(line.contains(&format!("\"decode_us\":{}", span.decode_time.as_micros())));
            assert!(line.contains(&format!("\"stall_us\":{}", span.stall_time.as_micros())));
            assert!(line.contains("\"abandoned\":false"));
        }
    }

    #[test]
    fn migrated_spans_retire_with_the_migrated_flag() {
        let buf = SharedBuf::default();
        let writer = SpanStreamWriter::new(Box::new(buf.clone()));
        let mut e = Engine::new(EngineConfig::a100_llama8b().with_role(EngineRole::Prefill));
        e.set_observer(Box::new(writer.clone()));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 513), 8, 0);
        drain(&mut e, SimTime::ZERO);

        assert_eq!(writer.written(), 1);
        assert_eq!(writer.live(), 0);
        let text = buf.text();
        assert!(text.contains("\"migrated\":true"));
        assert!(text.contains("\"transfer_us\":0"));
        json::validate(text.trim()).unwrap();
    }

    #[test]
    fn cancelled_spans_retire_with_the_abandoned_flag() {
        let buf = SharedBuf::default();
        let writer = SpanStreamWriter::new(Box::new(buf.clone()));
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.set_observer(Box::new(writer.clone()));
        let id = e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 1000), 400, 0);
        // Prefill and a decode step, then cancel mid-step while running.
        let mut now = SimTime::ZERO;
        for _ in 0..2 {
            now = e.start_step_if_idle(now).expect("step forms");
            e.complete_step(now);
        }
        let end = e.start_step_if_idle(now).expect("step forms");
        e.cancel(now, id);
        e.complete_step(end);

        assert_eq!(writer.written(), 1);
        assert_eq!(writer.live(), 0);
        let text = buf.text();
        assert!(text.contains("\"migrated\":false"));
        assert!(text.contains("\"preemptions\":0,\"abandoned\":true,\"segments\":["));
        json::validate(text.trim()).unwrap();
    }

    #[test]
    fn write_failures_are_captured_not_propagated() {
        #[derive(Debug)]
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let writer = SpanStreamWriter::new(Box::new(Broken));
        let mut e = Engine::new(EngineConfig::a100_llama8b());
        e.set_observer(Box::new(writer.clone()));
        e.submit(SimTime::ZERO, TokenBuf::from_segment(1, 64), 4, 0);
        drain(&mut e, SimTime::ZERO);

        assert_eq!(writer.written(), 0);
        assert_eq!(writer.live(), 0, "spans still retire on I/O failure");
        assert!(writer.io_error().unwrap().contains("disk full"));
    }
}
