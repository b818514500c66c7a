//! Observability layer for the bus-arbitration simulator.
//!
//! The paper's entire argument rests on measured quantities — mean wait
//! `W`, σ_W, per-agent throughput ratios, bus utilization — and a
//! production-scale engine needs those quantities *observable*, not just
//! printed once at the end of a run. This crate provides three pieces:
//!
//! * **Metrics** ([`MetricsRegistry`]) — an allocation-bounded registry
//!   of monotonic counters, gauges, fixed-bucket log-scale histograms
//!   (waiting time, queue depth), and windowed rates (events and grants
//!   per unit time). All state is preallocated at construction; the
//!   per-event update methods are `#[inline]` and perform zero heap
//!   allocations, so the simulator can keep them on in its hot loop
//!   (guarded by a counting-allocator regression test and `cargo xtask
//!   lint`). [`MetricsRegistry::snapshot`] freezes the registry into a
//!   serializable [`MetricsSnapshot`]; snapshots from parallel sweep
//!   cells merge deterministically via [`MetricsSnapshot::merge`].
//! * **Trace export** ([`TraceSink`], [`JsonlSink`], [`BinarySink`]) —
//!   structured, lossless export of the simulator's execution trace
//!   (`busarb_types::TraceEvent`) as self-describing JSON Lines or a
//!   compact binary framing, plus the incremental [`TraceReader`] (on a
//!   file, [`open_trace`]), which auto-detects the format, yields one
//!   event at a time from any [`std::io::Read`] in bounded memory and
//!   reports malformed input as a structured [`StreamError`] naming the
//!   byte offset (and line, for JSONL). `busarb-tail` builds its
//!   streaming analyzer — `busarb analyze` — on [`TraceReader`] plus the
//!   incremental [`ReplayBuilder`].
//! * **Replay** ([`ReplayBuilder`]) — recomputes run-level aggregates
//!   (mean wait with its batch-means confidence interval, utilization,
//!   grant and completion counts) from an exported trace alone, through
//!   the simulator's own `busarb_stats::MeasurementWindow`. `busarb
//!   analyze` reports it, and `repro cell` uses it as a cross-check that
//!   the trace carries every completion of the live `RunReport`.
//!
//! # Export formats
//!
//! Both formats begin with a self-describing header carrying everything
//! replay needs ([`TraceHeader`]): schema tag `busarb-trace/1`, protocol
//! name, agent count, seed, warm-up sample count, and the batch-means
//! configuration.
//!
//! **JSONL** — line 1 is the header object; every further line is one
//! event object:
//!
//! ```text
//! {"schema":"busarb-trace/1","protocol":"RR","agents":10,"seed":7,...}
//! {"at":0.52,"ev":"req","agent":3}
//! {"at":0.52,"ev":"arb","winner":3,"completes":1.02}
//! {"at":1.02,"ev":"xfer","agent":3}
//! {"at":2.02,"ev":"end","agent":3,"wait":1.5}
//! ```
//!
//! **Binary** — magic `BTRC`, a version byte, a little-endian `u32`
//! length-prefixed copy of the same JSON header, then fixed-layout
//! records (tag byte, `f64` timestamp, `u32` agent, and for
//! arbitration/completion records one further `f64`), all little-endian.
//! Roughly 4× smaller than JSONL and parses without float formatting.
//!
//! Timestamps and waits round-trip bit-exactly through both formats
//! (JSONL uses Rust's shortest round-trip float formatting), which is
//! what lets [`ReplayBuilder`] reproduce the live run's aggregates to
//! the last bit rather than merely "close".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod registry;
mod replay;
mod snapshot;
mod stream;

pub use export::{open_file_sink, BinarySink, JsonlSink};
pub use metrics::{LogHistogram, WindowedRate, HISTOGRAM_BUCKETS, RATE_WINDOW};
pub use registry::MetricsRegistry;
pub use replay::{Replay, ReplayBuilder};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, RateSnapshot};
pub use stream::{open_trace, stream_error, StreamError, TraceReader, MAX_LINE_BYTES};

use busarb_types::{AgentSet, TraceEvent};

/// The schema tag written into every exported trace header.
pub const TRACE_SCHEMA: &str = "busarb-trace/1";

/// On-disk representation of an exported trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceFormat {
    /// Self-describing JSON Lines (header object, then one event per
    /// line). Grep-able and diff-able; the default.
    #[default]
    Jsonl,
    /// Compact little-endian binary framing with a JSON header.
    Binary,
}

impl core::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceFormat::Jsonl => f.write_str("jsonl"),
            TraceFormat::Binary => f.write_str("binary"),
        }
    }
}

impl core::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" | "json" => Ok(TraceFormat::Jsonl),
            "binary" | "bin" => Ok(TraceFormat::Binary),
            other => Err(format!("unknown trace format `{other}` (jsonl|binary)")),
        }
    }
}

/// The self-describing header of an exported trace: everything
/// [`ReplayBuilder`] needs to recompute run-level aggregates without the
/// original `SystemConfig`.
#[derive(Clone, PartialEq, Debug, serde::Serialize)]
pub struct TraceHeader {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Protocol name as reported by the arbiter.
    pub protocol: String,
    /// Number of agents in the scenario.
    pub agents: u32,
    /// PRNG seed of the run.
    pub seed: u64,
    /// Completions discarded before measurement began.
    pub warmup_samples: u64,
    /// Batch-means batch count.
    pub batches: u64,
    /// Batch-means samples per batch.
    pub samples_per_batch: u64,
    /// Confidence level of the batch-means interval.
    pub confidence: f64,
}

impl TraceHeader {
    /// Parses a header from its JSON [`serde::Value`] form, validating
    /// the schema tag.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::ErrorKind::InvalidData`] error when a field
    /// is missing, mistyped, or the schema tag is unknown, or when the
    /// agent count lies outside `1..=128` (readers size per-agent state
    /// from it, so a corrupt count must not reach an allocation).
    pub fn from_value(value: &serde::Value) -> std::io::Result<Self> {
        fn field<'v, T>(
            value: &'v serde::Value,
            key: &str,
            get: impl FnOnce(&'v serde::Value) -> Option<T>,
        ) -> std::io::Result<T> {
            value.get(key).and_then(get).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("trace header: missing or mistyped field `{key}`"),
                )
            })
        }
        let schema = field(value, "schema", serde::Value::as_str)?;
        if schema != TRACE_SCHEMA {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unsupported trace schema `{schema}` (expected `{TRACE_SCHEMA}`)"),
            ));
        }
        let agents = field(value, "agents", serde::Value::as_u64)?;
        let agents = u32::try_from(agents)
            .ok()
            .filter(|n| (1..=AgentSet::MAX_ID).contains(n))
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "trace header: agent count {agents} outside 1..={}",
                        AgentSet::MAX_ID
                    ),
                )
            })?;
        Ok(TraceHeader {
            schema: schema.to_string(),
            protocol: field(value, "protocol", serde::Value::as_str)?.to_string(),
            agents,
            seed: field(value, "seed", serde::Value::as_u64)?,
            warmup_samples: field(value, "warmup_samples", serde::Value::as_u64)?,
            batches: field(value, "batches", serde::Value::as_u64)?,
            samples_per_batch: field(value, "samples_per_batch", serde::Value::as_u64)?,
            confidence: field(value, "confidence", serde::Value::as_f64)?,
        })
    }
}

/// A destination for exported trace events.
///
/// The simulator drives a sink once per trace event and calls
/// [`TraceSink::finish`] exactly once at the end of the run. The sinks
/// here write to I/O: [`JsonlSink`] writes each line through to its
/// writer, and [`BinarySink`] encodes records into a 64 KiB block of
/// its own that reaches its writer when full and at `finish`. The
/// simulator's bounded in-memory trace is `busarb_sim::Trace`.
pub trait TraceSink {
    /// Records one event.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the writes the record causes (for
    /// [`BinarySink`], the write of a full block).
    fn record(&mut self, event: &TraceEvent) -> std::io::Result<()>;

    /// Writes out anything still buffered and flushes the writer, at
    /// the end of the run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from those writes.
    fn finish(&mut self) -> std::io::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "RR".to_string(),
            agents: 10,
            seed: 7,
            warmup_samples: 500,
            batches: 10,
            samples_per_batch: 100,
            confidence: 0.9,
        }
    }

    #[test]
    fn header_round_trips_through_json() {
        let h = header();
        let json = serde_json::to_string(&h).expect("shim serializer is total");
        let back =
            TraceHeader::from_value(&serde_json::from_str(&json).expect("valid JSON")).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn header_rejects_wrong_schema_and_missing_fields() {
        let mut h = header();
        h.schema = "busarb-trace/999".to_string();
        let v = h.to_value();
        assert!(TraceHeader::from_value(&v).is_err());
        let truncated = serde::Value::Object(vec![(
            "schema".to_string(),
            serde::Value::Str(TRACE_SCHEMA.to_string()),
        )]);
        assert!(TraceHeader::from_value(&truncated).is_err());
    }

    #[test]
    fn trace_format_parses_and_displays() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!("bin".parse::<TraceFormat>().unwrap(), TraceFormat::Binary);
        assert!("xml".parse::<TraceFormat>().is_err());
        assert_eq!(TraceFormat::Jsonl.to_string(), "jsonl");
        assert_eq!(TraceFormat::default(), TraceFormat::Jsonl);
    }
}
