//! Trace export sinks and readers (JSONL and binary framings).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use busarb_types::{CoherenceOp, TraceEvent, TraceKind};

use crate::{TraceFormat, TraceHeader, TraceSink};

/// Magic bytes opening a binary trace.
pub(crate) const MAGIC: &[u8; 4] = b"BTRC";
/// Binary framing version.
pub(crate) const VERSION: u8 = 1;

pub(crate) const TAG_REQUEST: u8 = 0;
pub(crate) const TAG_ARBITRATION: u8 = 1;
pub(crate) const TAG_TRANSFER: u8 = 2;
pub(crate) const TAG_END: u8 = 3;
pub(crate) const TAG_COHERENCE: u8 = 4;

/// Binary wire code for a coherence operation.
pub(crate) fn coherence_op_code(op: CoherenceOp) -> u8 {
    match op {
        CoherenceOp::ReadMiss => 0,
        CoherenceOp::WriteMiss => 1,
        CoherenceOp::Upgrade => 2,
    }
}

/// Inverse of [`coherence_op_code`]; `None` for unknown codes.
pub(crate) fn coherence_op_from_code(code: u8) -> Option<CoherenceOp> {
    Some(match code {
        0 => CoherenceOp::ReadMiss,
        1 => CoherenceOp::WriteMiss,
        2 => CoherenceOp::Upgrade,
        _ => return None,
    })
}

/// JSONL slug → coherence operation (inverse of [`CoherenceOp::slug`]).
pub(crate) fn coherence_op_from_slug(slug: &str) -> Option<CoherenceOp> {
    Some(match slug {
        "read-miss" => CoherenceOp::ReadMiss,
        "write-miss" => CoherenceOp::WriteMiss,
        "upgrade" => CoherenceOp::Upgrade,
        _ => return None,
    })
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A write-through JSON Lines sink: one header line, then one compact
/// JSON object per event. Floats are formatted with Rust's shortest
/// round-trip representation, so a parse reproduces them bit-exactly.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// Creates the sink and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn new(mut writer: W, header: &TraceHeader) -> io::Result<Self> {
        let json = serde_json::to_string(header).map_err(|e| invalid(e.to_string()))?;
        writer.write_all(json.as_bytes())?;
        writer.write_all(b"\n")?;
        Ok(JsonlSink {
            writer,
            line: String::new(),
        })
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.line.clear();
        let at = event.at.as_f64();
        match event.kind {
            TraceKind::Request { agent } => {
                write!(self.line, "{{\"at\":{at},\"ev\":\"req\",\"agent\":{agent}}}")
            }
            TraceKind::ArbitrationStart { winner, completes } => write!(
                self.line,
                "{{\"at\":{at},\"ev\":\"arb\",\"winner\":{winner},\"completes\":{}}}",
                completes.as_f64()
            ),
            TraceKind::TransferStart { agent } => {
                write!(self.line, "{{\"at\":{at},\"ev\":\"xfer\",\"agent\":{agent}}}")
            }
            TraceKind::TransferEnd { agent, wait } => write!(
                self.line,
                "{{\"at\":{at},\"ev\":\"end\",\"agent\":{agent},\"wait\":{wait}}}"
            ),
            TraceKind::Coherence {
                agent,
                op,
                invalidated,
            } => write!(
                self.line,
                "{{\"at\":{at},\"ev\":\"coh\",\"agent\":{agent},\"op\":\"{}\",\"invalidated\":{invalidated}}}",
                op.slug()
            ),
        }
        // Writing to a `String` cannot fail; mapping (instead of
        // unwrapping) keeps the per-event path free of panic branches.
        .map_err(io::Error::other)?;
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A write-through binary sink: `BTRC` magic, version byte, `u32`
/// little-endian length-prefixed JSON header, then fixed-layout
/// little-endian records (tag byte, `f64` timestamp, `u32` agent, then
/// one further `f64` for arbitration/completion records, or an op-code
/// byte plus `u32` invalidation count for coherence records).
#[derive(Debug)]
pub struct BinarySink<W: Write> {
    writer: W,
}

impl<W: Write> BinarySink<W> {
    /// Creates the sink and writes the framing preamble and header.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn new(mut writer: W, header: &TraceHeader) -> io::Result<Self> {
        let json = serde_json::to_string(header).map_err(|e| invalid(e.to_string()))?;
        let len = u32::try_from(json.len()).map_err(|_| invalid("trace header too large"))?;
        writer.write_all(MAGIC)?;
        writer.write_all(&[VERSION])?;
        writer.write_all(&len.to_le_bytes())?;
        writer.write_all(json.as_bytes())?;
        Ok(BinarySink { writer })
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for BinarySink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        // tag + at + agent + extra: at most 21 bytes per record.
        let mut buf = [0u8; 21];
        buf[1..9].copy_from_slice(&event.at.as_f64().to_le_bytes());
        let len = match event.kind {
            TraceKind::Request { agent } => {
                buf[0] = TAG_REQUEST;
                buf[9..13].copy_from_slice(&agent.get().to_le_bytes());
                13
            }
            TraceKind::ArbitrationStart { winner, completes } => {
                buf[0] = TAG_ARBITRATION;
                buf[9..13].copy_from_slice(&winner.get().to_le_bytes());
                buf[13..21].copy_from_slice(&completes.as_f64().to_le_bytes());
                21
            }
            TraceKind::TransferStart { agent } => {
                buf[0] = TAG_TRANSFER;
                buf[9..13].copy_from_slice(&agent.get().to_le_bytes());
                13
            }
            TraceKind::TransferEnd { agent, wait } => {
                buf[0] = TAG_END;
                buf[9..13].copy_from_slice(&agent.get().to_le_bytes());
                buf[13..21].copy_from_slice(&wait.to_le_bytes());
                21
            }
            TraceKind::Coherence {
                agent,
                op,
                invalidated,
            } => {
                // Coherence records have their own body layout: op code
                // byte plus a u32 invalidation count (18 bytes total).
                buf[0] = TAG_COHERENCE;
                buf[9..13].copy_from_slice(&agent.get().to_le_bytes());
                buf[13] = coherence_op_code(op);
                buf[14..18].copy_from_slice(&invalidated.to_le_bytes());
                18
            }
        };
        self.writer.write_all(&buf[..len])
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Opens a write-through file sink of the given format (buffered).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn open_file_sink(
    path: &Path,
    format: TraceFormat,
    header: &TraceHeader,
) -> io::Result<Box<dyn TraceSink>> {
    let writer = io::BufWriter::new(std::fs::File::create(path)?);
    Ok(match format {
        TraceFormat::Jsonl => Box::new(JsonlSink::new(writer, header)?),
        TraceFormat::Binary => Box::new(BinarySink::new(writer, header)?),
    })
}

/// Reads an exported trace from raw bytes, auto-detecting the format by
/// the binary magic.
///
/// Implemented on the incremental [`TraceReader`](crate::TraceReader),
/// collected whole — the streaming reader is the single parsing code
/// path for both framings.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] errors for malformed input,
/// wrapping a [`StreamError`](crate::StreamError) that carries the byte
/// offset of the failure (recover it with
/// [`stream_error`](crate::stream_error)).
pub fn read_trace(bytes: &[u8]) -> io::Result<(TraceHeader, Vec<TraceEvent>)> {
    let mut reader = crate::TraceReader::new(bytes)?;
    let mut events = Vec::new();
    while let Some(event) = reader.next_event()? {
        events.push(event);
    }
    Ok((reader.header().clone(), events))
}

/// Reads an exported trace file, auto-detecting the format.
///
/// # Errors
///
/// Propagates I/O errors and malformed-input errors from [`read_trace`].
pub fn read_trace_file(path: &Path) -> io::Result<(TraceHeader, Vec<TraceEvent>)> {
    read_trace(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRACE_SCHEMA;
    use busarb_types::{AgentId, Time};

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "RR".to_string(),
            agents: 4,
            seed: 42,
            warmup_samples: 10,
            batches: 10,
            samples_per_batch: 5,
            confidence: 0.9,
        }
    }

    /// Events exercising every kind, with floats that do not have short
    /// decimal representations.
    fn events() -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut t = 0.0f64;
        for i in 0..40u32 {
            t += 0.1 + f64::from(i) / 3.0;
            let agent = id(1 + i % 4);
            let kind = match i % 5 {
                0 => TraceKind::Request { agent },
                1 => TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.5),
                },
                2 => TraceKind::TransferStart { agent },
                3 => TraceKind::TransferEnd {
                    agent,
                    wait: t / 7.0,
                },
                _ => TraceKind::Coherence {
                    agent,
                    op: match i % 3 {
                        0 => CoherenceOp::ReadMiss,
                        1 => CoherenceOp::WriteMiss,
                        _ => CoherenceOp::Upgrade,
                    },
                    invalidated: i % 4,
                },
            };
            out.push(TraceEvent {
                at: Time::from(t),
                kind,
            });
        }
        out
    }

    fn record_all(sink: &mut dyn TraceSink, events: &[TraceEvent]) {
        for e in events {
            sink.record(e).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        record_all(&mut sink, &events());
        let bytes = sink.into_inner();
        let (h, evs) = read_trace(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(evs, events());
    }

    #[test]
    fn binary_round_trips_bit_exactly_and_is_smaller() {
        let mut jsonl = JsonlSink::new(Vec::new(), &header()).unwrap();
        record_all(&mut jsonl, &events());
        let mut sink = BinarySink::new(Vec::new(), &header()).unwrap();
        record_all(&mut sink, &events());
        let bytes = sink.into_inner();
        let (h, evs) = read_trace(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(evs, events());
        assert!(bytes.len() < jsonl.into_inner().len());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(read_trace(b"").is_err());
        assert!(read_trace(b"not json\n").is_err());
        // Valid header, garbage event line.
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        sink.finish().unwrap();
        let mut bytes = sink.into_inner();
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"nope\"}\n");
        assert!(read_trace(&bytes).is_err());
        // Agent identity zero is invalid.
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        sink.finish().unwrap();
        let mut bytes = sink.into_inner();
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"req\",\"agent\":0}\n");
        assert!(read_trace(&bytes).is_err());
        // Truncated binary record.
        let mut sink = BinarySink::new(Vec::new(), &header()).unwrap();
        sink.record(&events()[0]).unwrap();
        let bytes = sink.into_inner();
        assert!(read_trace(&bytes[..bytes.len() - 3]).is_err());
        // Wrong binary version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(read_trace(&bad).is_err());
    }

    #[test]
    fn file_sink_writes_both_formats() {
        let dir = std::env::temp_dir().join("busarb-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (format, name) in [
            (TraceFormat::Jsonl, "t.jsonl"),
            (TraceFormat::Binary, "t.bin"),
        ] {
            let path = dir.join(name);
            let mut sink = open_file_sink(&path, format, &header()).unwrap();
            record_all(sink.as_mut(), &events());
            drop(sink);
            let (h, evs) = read_trace_file(&path).unwrap();
            assert_eq!(h, header());
            assert_eq!(evs, events());
            std::fs::remove_file(&path).unwrap();
        }
    }
}
