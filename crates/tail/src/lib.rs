//! Streaming trace analytics for `busarb-trace/1` exports.
//!
//! The observability layer (`busarb-obs`) can *export* a lossless trace
//! of every simulated bus event; this crate is the other half of that
//! story — a bounded-memory analytics engine that consumes those traces
//! incrementally, in either framing (JSONL or BTRC binary,
//! auto-detected), without ever materializing the event list. Traces
//! from production-scale runs are far larger than RAM; the reader
//! decodes binary records in place from a fixed-size read buffer, and
//! every analyzer here keeps state that is O(agents + histogram
//! buckets), so peak memory is independent of trace length.
//! [`analyze`] decodes on a second thread, a batch of events ahead of
//! the analyzers, with the same report and errors as one thread. The
//! benchmark's `trace-roundtrip` workload times each stage per event
//! (`obs.stream`, `obs.replay` and `tail.*`).
//!
//! A [`Pipeline`] fans each decoded event out to four analyzers:
//!
//! * **replay** (`busarb_obs::ReplayBuilder`) — the simulator's own
//!   measurement window (`busarb_stats::MeasurementWindow`),
//!   reproducing the live run's mean wait, confidence interval, and
//!   utilization bit-for-bit;
//! * **usage** ([`BusUsage`]) — profiler-style time classification into
//!   busy / backpressure / free / idle, plus delay and burst-length
//!   histograms on the shared log-bucket resolution;
//! * **fairness** ([`FairnessTracker`]) — per-agent grant shares and
//!   Jain's index over a sliding window of grants;
//! * **a protocol adapter** ([`adapter_for`]) — the family-specific
//!   quantity: round-robin rotation-step occupancy, FCFS counter lag,
//!   or assured-access bypass counts.
//!
//! `busarb analyze FILE...` drives the pipeline and prints one
//! deterministic report per trace, text or JSON. `repro cell` reads its
//! export through the same [`analyze_path`] and cross-checks the
//! report's replay half against the live run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
mod fairness;
mod usage;

pub use adapters::{
    adapter_for, AdapterMetric, AdapterReport, BypassCounts, FcfsLag, ProtocolAdapter, RrRotation,
};
pub use fairness::{FairnessReport, FairnessTracker, FAIRNESS_STRIDE, FAIRNESS_WINDOW};
pub use usage::{BusUsage, UsageReport};

use std::collections::VecDeque;
use std::io::Read;
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};

use busarb_obs::{ReplayBuilder, StreamError, TraceFormat, TraceHeader, TraceReader};
use busarb_types::{TraceEvent, TraceKind};
use serde::Serialize;

/// Schema tag written into every analysis report.
pub const ANALYSIS_SCHEMA: &str = "busarb-analysis/1";

/// Replay-derived aggregates in serializable form: the fields of
/// `busarb_obs::Replay` that the report exposes.
#[derive(Clone, Debug, Serialize)]
pub struct ReplaySummary {
    /// Batch-means point estimate of the mean wait (absent when the
    /// trace has too few post-warm-up completions to fill every batch).
    pub mean_wait: Option<f64>,
    /// Half-width of the batch-means confidence interval.
    pub halfwidth: Option<f64>,
    /// Measured (post-warm-up, within-budget) completions.
    pub samples: u64,
    /// Bus utilization over the measurement interval.
    pub utilization: f64,
    /// Simulated time spanned by the measurement interval.
    pub measured_time: f64,
    /// Request-line assertions (whole trace).
    pub requests: u64,
    /// Grants (whole trace).
    pub grants: u64,
    /// Transfer starts (whole trace).
    pub transfers: u64,
    /// Completions (whole trace).
    pub completions: u64,
    /// Completions consumed by the warm-up discard.
    pub warmup_consumed: u64,
    /// Measured completions per agent, by roster index.
    pub per_agent_samples: Vec<u64>,
}

impl ReplaySummary {
    fn of(replay: &busarb_obs::Replay) -> Self {
        ReplaySummary {
            mean_wait: replay.mean_wait.as_ref().map(|e| e.mean),
            halfwidth: replay.mean_wait.as_ref().map(|e| e.halfwidth),
            samples: replay.samples(),
            utilization: replay.utilization,
            measured_time: replay.measured_time,
            requests: replay.requests,
            grants: replay.grants,
            transfers: replay.transfers,
            completions: replay.completions,
            warmup_consumed: replay.warmup_consumed,
            per_agent_samples: replay.per_agent_samples.clone(),
        }
    }
}

/// The complete analysis of one trace stream.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisReport {
    /// Schema tag ([`ANALYSIS_SCHEMA`]).
    pub schema: String,
    /// Stream name ([`analyze_path`] uses the trace's file path).
    pub source: String,
    /// On-disk framing the stream used (`jsonl` or `binary`).
    pub format: String,
    /// Protocol slug from the trace header.
    pub protocol: String,
    /// Agents in the roster.
    pub agents: u32,
    /// Trace events consumed.
    pub events: u64,
    /// Replay-derived aggregates (matches the live run bit-for-bit).
    pub replay: ReplaySummary,
    /// Busy/backpressure/free/idle time split and distributions.
    pub usage: UsageReport,
    /// Grant-share fairness over sliding windows.
    pub fairness: FairnessReport,
    /// Protocol-family-specific view.
    pub adapter: AdapterReport,
}

impl AnalysisReport {
    /// Renders the report as compact JSON (one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Renders the report as a deterministic human-readable block.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: protocol={} agents={} format={} events={}",
            self.source, self.protocol, self.agents, self.format, self.events
        );
        match (self.replay.mean_wait, self.replay.halfwidth) {
            (Some(mean), Some(hw)) => {
                let _ = writeln!(
                    out,
                    "  replay   mean_wait={mean:.6} ±{hw:.6} utilization={:.6} samples={}",
                    self.replay.utilization, self.replay.samples
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  replay   mean_wait=n/a (incomplete batches) utilization={:.6} samples={}",
                    self.replay.utilization, self.replay.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "  counts   requests={} grants={} transfers={} completions={}",
            self.replay.requests,
            self.replay.grants,
            self.replay.transfers,
            self.replay.completions
        );
        let span = if self.usage.span > 0.0 {
            self.usage.span
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "  usage    busy={:.1}% backpressure={:.1}% free={:.1}% idle={:.1}% (span {:.1})",
            100.0 * self.usage.busy / span,
            100.0 * self.usage.backpressure / span,
            100.0 * self.usage.free / span,
            100.0 * self.usage.idle / span,
            self.usage.span
        );
        let _ = writeln!(
            out,
            "  delay    mean={:.6} max={:.6} n={}   bursts n={} mean_len={:.2}",
            self.usage.delay.mean(),
            if self.usage.delay.count == 0 {
                0.0
            } else {
                self.usage.delay.max
            },
            self.usage.delay.count,
            self.usage.bursts,
            self.usage.burst_len.mean()
        );
        let _ = writeln!(
            out,
            "  fairness jain_overall={:.4} jain_min={:.4} jain_mean={:.4} windows={} (w={})",
            self.fairness.jain_overall,
            self.fairness.jain_min,
            self.fairness.jain_mean,
            self.fairness.jain_windows,
            self.fairness.window
        );
        let _ = write!(out, "  {:8}", self.adapter.adapter);
        for m in &self.adapter.metrics {
            let _ = write!(out, " {}={:.4}", m.name, m.value);
        }
        let _ = writeln!(out);
        out
    }
}

/// The streaming analysis pipeline: replay + usage + fairness + the
/// protocol adapter, fed one event at a time.
pub struct Pipeline {
    header: TraceHeader,
    replay: ReplayBuilder,
    usage: BusUsage,
    fairness: FairnessTracker,
    adapter: Box<dyn ProtocolAdapter>,
    events: u64,
}

impl Pipeline {
    /// Builds the pipeline for one trace stream from its header.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the header's
    /// batch-means configuration is invalid.
    pub fn new(header: &TraceHeader) -> std::io::Result<Self> {
        Ok(Pipeline {
            header: header.clone(),
            replay: ReplayBuilder::new(header)?,
            usage: BusUsage::new(),
            fairness: FairnessTracker::new(header.agents),
            adapter: adapter_for(&header.protocol, header.agents),
            events: 0,
        })
    }

    /// Folds one event into every analyzer. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the event names
    /// an agent outside the header's roster.
    pub fn push(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        self.replay.push(event)?;
        self.usage.push(event);
        if let TraceKind::ArbitrationStart { winner, .. } = event.kind {
            self.fairness.on_grant(winner.index());
        }
        self.adapter.on_event(event);
        self.events += 1;
        Ok(())
    }

    /// Events consumed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Snapshots the current state into a report without consuming the
    /// pipeline.
    #[must_use]
    pub fn report(&self, source: &str, format: TraceFormat) -> AnalysisReport {
        AnalysisReport {
            schema: ANALYSIS_SCHEMA.to_string(),
            source: source.to_string(),
            format: format.to_string(),
            protocol: self.header.protocol.clone(),
            agents: self.header.agents,
            events: self.events,
            replay: ReplaySummary::of(&self.replay.clone().finish()),
            usage: self.usage.clone().finish(),
            fairness: self.fairness.clone().finish(),
            adapter: self.adapter.report(),
        }
    }
}

/// Drives a [`TraceReader`] to exhaustion through a [`Pipeline`].
///
/// The reader decodes on a second (scoped) thread, a batch of events
/// ahead of the fold on this one; the report and any error are the ones
/// a serial `next_event`/[`Pipeline::push`] loop gives, because batches
/// and the stream's end arrive in stream order.
///
/// # Errors
///
/// Propagates structured stream errors (`busarb_obs::StreamError`,
/// carrying the byte offset of the failure) wrapped in
/// [`std::io::Error`], and `InvalidData` errors from the analyzers.
pub fn analyze<R: Read + Send>(
    source: &str,
    reader: &mut TraceReader<R>,
) -> std::io::Result<AnalysisReport> {
    let mut pipeline = Pipeline::new(reader.header())?;
    let format = reader.format();
    fold_decoded(reader, |event| pipeline.push(event))?;
    Ok(pipeline.report(source, format))
}

/// Events per batch the decode thread hands to the fold.
const BATCH_EVENTS: usize = 1024;
/// Batches circulating between the two threads, allocated up front.
const RING_BATCHES: usize = 3;

/// One batch of decoded events; `end` is set on the stream's last
/// batch: `Ok` at a clean end, or the first decode error.
struct Batch {
    events: Vec<TraceEvent>,
    end: Option<Result<(), StreamError>>,
}

/// The ring between the decode thread and the fold: free batches for
/// the worker, full ones for the fold in stream order, and whether
/// either side has stopped. Unlike `std::sync::mpsc`, whose first
/// blocking wait on a thread can allocate, nothing here allocates
/// after [`Handoff::new`].
struct Handoff {
    ring: Mutex<Ring>,
    changed: Condvar,
}

struct Ring {
    free: Vec<Vec<TraceEvent>>,
    full: VecDeque<Batch>,
    closed: bool,
}

impl Handoff {
    fn new() -> Self {
        Handoff {
            ring: Mutex::new(Ring {
                free: (0..RING_BATCHES)
                    .map(|_| Vec::with_capacity(BATCH_EVENTS))
                    .collect(),
                full: VecDeque::with_capacity(RING_BATCHES),
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Waits until `ready` holds, then applies `take`. Taking a batch
    /// never unblocks the other side, so it wakes no one. A panic while
    /// the lock was held stops that side, which closes the ring, so a
    /// poisoned lock is used as is.
    fn wait_then<T>(&self, ready: impl Fn(&Ring) -> bool, take: impl FnOnce(&mut Ring) -> T) -> T {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ring = self
            .changed
            .wait_while(ring, |r| !ready(r))
            .unwrap_or_else(PoisonError::into_inner);
        take(&mut ring)
    }

    /// Applies `put` and wakes the side that may be waiting for it.
    fn update(&self, put: impl FnOnce(&mut Ring)) {
        put(&mut self.ring.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_all();
    }

    /// The worker's next free batch; `None` once the fold has stopped.
    fn take_free(&self) -> Option<Vec<TraceEvent>> {
        self.wait_then(
            |r| r.closed || !r.free.is_empty(),
            |r| {
                if r.closed {
                    None
                } else {
                    r.free.pop()
                }
            },
        )
    }

    /// The fold's next full batch; `None` once the worker has stopped
    /// and every batch it sent has been taken.
    fn take_full(&self) -> Option<Batch> {
        self.wait_then(|r| r.closed || !r.full.is_empty(), |r| r.full.pop_front())
    }

    fn put_full(&self, batch: Batch) {
        self.update(|r| r.full.push_back(batch));
    }

    fn put_free(&self, events: Vec<TraceEvent>) {
        self.update(|r| r.free.push(events));
    }
}

/// Closes the ring when one side stops, by return, error or panic, so
/// the other side never waits for it.
struct Closes<'a>(&'a Handoff);

impl Drop for Closes<'_> {
    fn drop(&mut self) {
        self.0.update(|r| r.closed = true);
    }
}

/// Feeds every event of `reader` to `fold`, in stream order, stopping
/// at the first error of either side.
///
/// A scoped worker thread runs `next_event` into batches drawn from a
/// ring of [`RING_BATCHES`] buffers allocated before it starts, and
/// hands them back full; this thread folds each batch and returns its
/// buffer. The stream's end or decode error travels after the events
/// decoded before it, so it surfaces only if none of those failed the
/// fold. Whichever side stops first closes the ring, so a worker left
/// decoding ahead of a failed fold stops instead of blocking the join.
fn fold_decoded<R: Read + Send>(
    reader: &mut TraceReader<R>,
    mut fold: impl FnMut(&TraceEvent) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let handoff = Handoff::new();
    std::thread::scope(|scope| {
        scope.spawn(|| decode_batches(reader, &handoff));
        let _closes = Closes(&handoff);
        loop {
            let Some(Batch { events, end }) = handoff.take_full() else {
                // Only a panicking worker stops before sending `end`;
                // the scope re-raises its panic.
                return Err(std::io::Error::other("trace decode thread stopped"));
            };
            for event in &events {
                fold(event)?;
            }
            if let Some(end) = end {
                return end.map_err(Into::into);
            }
            handoff.put_free(events);
        }
    })
}

/// The decode thread: fills free batches from `reader` and hands them
/// over until the stream ends, fails, or the fold stops.
fn decode_batches<R: Read>(reader: &mut TraceReader<R>, handoff: &Handoff) {
    let _closes = Closes(handoff);
    while let Some(mut events) = handoff.take_free() {
        events.clear();
        let mut end = None;
        while end.is_none() && events.len() < BATCH_EVENTS {
            match reader.next_event() {
                Ok(Some(event)) => events.push(event),
                Ok(None) => end = Some(Ok(())),
                Err(e) => end = Some(Err(e)),
            }
        }
        let last = end.is_some();
        handoff.put_full(Batch { events, end });
        if last {
            return;
        }
    }
}

/// Opens a trace file and analyzes it end to end, streaming.
///
/// # Errors
///
/// Propagates open/parse errors; parse failures carry the byte offset
/// (recover it with `busarb_obs::stream_error`).
pub fn analyze_path(path: &Path) -> std::io::Result<AnalysisReport> {
    let mut reader = busarb_obs::open_trace(path)?;
    analyze(&path.display().to_string(), &mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{stream_error, BinarySink, JsonlSink, TraceSink, TRACE_SCHEMA};
    use busarb_types::{AgentId, Time};

    fn header(protocol: &str, agents: u32) -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: protocol.to_string(),
            agents,
            seed: 7,
            warmup_samples: 2,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        }
    }

    /// A saturated alternating two-agent trace with `n` transactions.
    fn synthetic(n: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = i as f64;
            let agent = AgentId::new(1 + (i as u32) % 2).unwrap();
            events.push(TraceEvent {
                at: Time::from(t),
                kind: TraceKind::Request { agent },
            });
            events.push(TraceEvent {
                at: Time::from(t),
                kind: TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.25),
                },
            });
            events.push(TraceEvent {
                at: Time::from(t + 0.25),
                kind: TraceKind::TransferStart { agent },
            });
            events.push(TraceEvent {
                at: Time::from(t + 1.0),
                kind: TraceKind::TransferEnd { agent, wait: 0.75 },
            });
        }
        events
    }

    #[test]
    fn pipeline_matches_whole_file_replay() {
        let h = header("rr", 2);
        let events = synthetic(10);
        let mut builder = ReplayBuilder::new(&h).unwrap();
        for e in &events {
            builder.push(e).unwrap();
        }
        let whole = builder.finish();
        let mut p = Pipeline::new(&h).unwrap();
        for e in &events {
            p.push(e).unwrap();
        }
        let r = p.report("synthetic", TraceFormat::Jsonl);
        assert_eq!(r.replay.samples, whole.samples());
        assert_eq!(r.replay.utilization, whole.utilization);
        assert_eq!(r.replay.completions, whole.completions);
        assert_eq!(r.events, 40);
        assert_eq!(r.adapter.adapter, "rr-rotation");
        assert!(r.fairness.jain_overall > 0.99);
    }

    #[test]
    fn analyze_streams_a_jsonl_trace() {
        let h = header("fcfs-1", 2);
        let mut sink = JsonlSink::new(Vec::new(), &h).unwrap();
        for e in synthetic(5) {
            sink.record(&e).unwrap();
        }
        sink.finish().unwrap();
        let bytes = sink.into_inner();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let r = analyze("mem", &mut reader).unwrap();
        assert_eq!(r.protocol, "fcfs-1");
        assert_eq!(r.format, "jsonl");
        assert_eq!(r.events, 20);
        assert_eq!(r.adapter.adapter, "fcfs-lag");
        let json = r.to_json();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(serde::Value::as_str),
            Some(ANALYSIS_SCHEMA)
        );
        let text = r.render_text();
        assert!(text.contains("fcfs-lag"));
        assert!(text.contains("usage"));
    }

    // -----------------------------------------------------------------
    // The decode thread against a serial fold.
    // -----------------------------------------------------------------

    fn encode(format: TraceFormat, h: &TraceHeader, events: &[TraceEvent]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut sink: Box<dyn TraceSink + '_> = match format {
            TraceFormat::Jsonl => Box::new(JsonlSink::new(&mut bytes, h).unwrap()),
            TraceFormat::Binary => Box::new(BinarySink::new(&mut bytes, h).unwrap()),
        };
        for e in events {
            sink.record(e).unwrap();
        }
        sink.finish().unwrap();
        drop(sink);
        bytes
    }

    /// The oracle: `next_event` and `Pipeline::push` in one loop.
    fn serial(reader: &mut TraceReader<&[u8]>) -> std::io::Result<AnalysisReport> {
        let mut pipeline = Pipeline::new(reader.header())?;
        while let Some(event) = reader.next_event()? {
            pipeline.push(&event)?;
        }
        Ok(pipeline.report("t", reader.format()))
    }

    /// What a caller can see of an analysis: the JSON report, or the
    /// error's kind, text and structured stream error.
    type Seen = Result<String, (std::io::ErrorKind, String, Option<busarb_obs::StreamError>)>;

    fn seen(result: std::io::Result<AnalysisReport>) -> Seen {
        result
            .map(|r| r.to_json())
            .map_err(|e| (e.kind(), e.to_string(), stream_error(&e).cloned()))
    }

    /// Analyzes `bytes` both ways, asserts they agree, and returns it.
    fn matches_serial(bytes: &[u8]) -> Seen {
        let threaded = seen(analyze("t", &mut TraceReader::new(bytes).unwrap()));
        let oracle = seen(serial(&mut TraceReader::new(bytes).unwrap()));
        assert_eq!(threaded, oracle);
        threaded
    }

    /// A completion naming agent 3, outside a two-agent roster.
    fn bad_agent(at: f64) -> TraceEvent {
        TraceEvent {
            at: Time::from(at),
            kind: TraceKind::TransferEnd {
                agent: AgentId::new(3).unwrap(),
                wait: 0.5,
            },
        }
    }

    #[test]
    fn multi_batch_traces_match_the_serial_fold() {
        let h = header("rr", 2);
        let events = synthetic(2 * BATCH_EVENTS + 7);
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let report = matches_serial(&encode(format, &h, &events)).unwrap();
            assert!(report.contains(&format!("\"events\":{}", events.len())));
            let header_only = matches_serial(&encode(format, &h, &[])).unwrap();
            assert!(header_only.contains("\"events\":0"));
        }
    }

    #[test]
    fn a_bad_agent_before_a_truncation_reports_the_agent() {
        let h = header("rr", 2);
        let mut events = synthetic(2 * BATCH_EVENTS);
        events.insert(5 * BATCH_EVENTS / 2, bad_agent(1e6));
        let bytes = encode(TraceFormat::Binary, &h, &events);
        let (_, text, stream) = matches_serial(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(text.contains("agent"), "{text}");
        assert!(stream.is_some());
    }

    #[test]
    fn a_truncation_before_a_bad_agent_reports_the_truncation() {
        let h = header("rr", 2);
        let mut events = synthetic(2 * BATCH_EVENTS);
        events.push(bad_agent(1e6));
        let bytes = encode(TraceFormat::Binary, &h, &events);
        // Keep the last record's tag and five bytes of its timestamp.
        let record = bytes.len() - 21;
        let (_, _, stream) = matches_serial(&bytes[..record + 6]).unwrap_err();
        let stream = stream.expect("structured stream error");
        assert!(stream.message.contains("truncated"), "{stream}");
        assert_eq!(stream.offset, record as u64);
    }

    #[test]
    fn a_fold_error_with_batches_unread_returns() {
        let h = header("rr", 2);
        let bytes = encode(TraceFormat::Binary, &h, &synthetic(20 * BATCH_EVENTS));
        // A one-agent roster fails the fold at agent 2's first
        // completion, the eighth event, with ~80 batches still to come.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fold = |reader: &mut TraceReader<&[u8]>, threaded: bool| {
                let mut pipeline = Pipeline::new(&header("rr", 1)).unwrap();
                let mut folded = 0;
                let mut push = |event: &TraceEvent| {
                    folded += 1;
                    pipeline.push(event)
                };
                let result = if threaded {
                    fold_decoded(reader, push)
                } else {
                    std::iter::from_fn(|| reader.next_event().transpose())
                        .try_for_each(|event| push(&event?))
                };
                (result.map_err(|e| e.to_string()), folded)
            };
            let threaded = fold(&mut TraceReader::new(&bytes[..]).unwrap(), true);
            let oracle = fold(&mut TraceReader::new(&bytes[..]).unwrap(), false);
            let _ = tx.send((threaded, oracle));
        });
        let (threaded, oracle) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the fold returned after its error");
        assert_eq!(threaded, oracle);
        assert_eq!(threaded.1, 8);
        assert!(threaded.0.unwrap_err().contains("roster"));
    }
}
