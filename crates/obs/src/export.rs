//! Trace export sinks (JSONL and binary framings).

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

/// Longest binary record, tag byte included: arbitration-start and
/// transfer-end records carry an `f64` payload after the tag, `at` and
/// agent.
pub(crate) const RECORD_MAX: usize = 21;

/// Bytes [`BinarySink`] encodes in memory between two writes.
const BLOCK_BYTES: usize = 64 << 10;

/// A block-buffered binary sink: `BTRC` magic, version byte, `u32`
/// little-endian length-prefixed JSON header, then fixed-layout
/// little-endian records (tag byte, `f64` timestamp, `u32` agent, then
/// one further `f64` for arbitration/completion records, or an op-code
/// byte plus `u32` invalidation count for coherence records).
///
/// The preamble is written by [`BinarySink::new`]. Records are encoded
/// in place into a 64 KiB block the sink owns, and the block goes to
/// the writer in one `write_all` when the next record might not fit,
/// at [`TraceSink::finish`], at [`BinarySink::into_inner`] and (errors
/// ignored, like `BufWriter`) on drop. So the writer needs no buffer of
/// its own.
#[derive(Debug)]
pub struct BinarySink<W: Write> {
    /// `None` only after [`BinarySink::into_inner`] took it.
    writer: Option<W>,
    block: Box<[u8]>,
    /// Encoded bytes at the front of `block`.
    len: usize,
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
        let mut preamble = Vec::with_capacity(MAGIC.len() + 5 + json.len());
        preamble.extend_from_slice(MAGIC);
        preamble.push(VERSION);
        preamble.extend_from_slice(&len.to_le_bytes());
        preamble.extend_from_slice(json.as_bytes());
        writer.write_all(&preamble)?;
        Ok(BinarySink {
            writer: Some(writer),
            block: vec![0; BLOCK_BYTES].into_boxed_slice(),
            len: 0,
        })
    }

    /// Writes out the pending block and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the write error of the pending block.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.write_block()?;
        self.writer
            .take()
            .ok_or_else(|| io::Error::other("binary sink has no writer"))
    }

    /// Hands the encoded bytes to the writer and empties the block. The
    /// block counts as written even when the write fails, so a retry
    /// (or the drop) never repeats bytes the writer may have taken.
    fn write_block(&mut self) -> io::Result<()> {
        let len = std::mem::take(&mut self.len);
        match (&mut self.writer, self.block.get(..len)) {
            (Some(writer), Some(bytes)) => writer.write_all(bytes),
            _ => Ok(()),
        }
    }
}

impl<W: Write> Drop for BinarySink<W> {
    fn drop(&mut self) {
        // Keeps the tail of a run that panicked before `finish`.
        let _ = self.write_block();
    }
}

/// Encodes one record at the start of `slot` in the DESIGN §5d layout
/// and returns its length (13, 18 or 21 bytes); the rest of `slot` is
/// left as it was.
fn encode_record(event: &TraceEvent, slot: &mut [u8; RECORD_MAX]) -> usize {
    slot[1..9].copy_from_slice(&event.at.as_f64().to_le_bytes());
    match event.kind {
        TraceKind::Request { agent } => {
            slot[0] = TAG_REQUEST;
            slot[9..13].copy_from_slice(&agent.get().to_le_bytes());
            13
        }
        TraceKind::ArbitrationStart { winner, completes } => {
            slot[0] = TAG_ARBITRATION;
            slot[9..13].copy_from_slice(&winner.get().to_le_bytes());
            slot[13..21].copy_from_slice(&completes.as_f64().to_le_bytes());
            21
        }
        TraceKind::TransferStart { agent } => {
            slot[0] = TAG_TRANSFER;
            slot[9..13].copy_from_slice(&agent.get().to_le_bytes());
            13
        }
        TraceKind::TransferEnd { agent, wait } => {
            slot[0] = TAG_END;
            slot[9..13].copy_from_slice(&agent.get().to_le_bytes());
            slot[13..21].copy_from_slice(&wait.to_le_bytes());
            21
        }
        TraceKind::Coherence {
            agent,
            op,
            invalidated,
        } => {
            // Coherence records have their own body layout: op code
            // byte plus a u32 invalidation count (18 bytes total).
            slot[0] = TAG_COHERENCE;
            slot[9..13].copy_from_slice(&agent.get().to_le_bytes());
            slot[13] = coherence_op_code(op);
            slot[14..18].copy_from_slice(&invalidated.to_le_bytes());
            18
        }
    }
}

impl<W: Write> TraceSink for BinarySink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        if self.block.len() - self.len < RECORD_MAX {
            self.write_block()?;
        }
        // After the check above there is always room for a record.
        let Some(slot) = self
            .block
            .get_mut(self.len..)
            .and_then(<[u8]>::first_chunk_mut)
        else {
            return Err(io::Error::other("binary sink block overflow"));
        };
        self.len += encode_record(event, slot);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.write_block()?;
        match &mut self.writer {
            Some(writer) => writer.flush(),
            None => Ok(()),
        }
    }
}

/// Opens a file sink of the given format: JSONL through a `BufWriter`,
/// binary straight onto the file (the sink buffers its own blocks).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn open_file_sink(
    path: &Path,
    format: TraceFormat,
    header: &TraceHeader,
) -> io::Result<Box<dyn TraceSink>> {
    let file = std::fs::File::create(path)?;
    Ok(match format {
        TraceFormat::Jsonl => Box::new(JsonlSink::new(io::BufWriter::new(file), header)?),
        TraceFormat::Binary => Box::new(BinarySink::new(file, header)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{open_trace, StreamError, TraceReader, TRACE_SCHEMA};
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

    /// Reads a whole trace back through the streaming reader.
    fn read_all(
        mut reader: TraceReader<impl io::Read>,
    ) -> Result<(TraceHeader, Vec<TraceEvent>), StreamError> {
        let mut events = Vec::new();
        while let Some(event) = reader.next_event()? {
            events.push(event);
        }
        Ok((reader.header().clone(), events))
    }

    fn read_bytes(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceEvent>), StreamError> {
        read_all(TraceReader::new(bytes)?)
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        record_all(&mut sink, &events());
        let bytes = sink.into_inner();
        let (h, evs) = read_bytes(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(evs, events());
    }

    #[test]
    fn binary_round_trips_bit_exactly_and_is_smaller() {
        let mut jsonl = JsonlSink::new(Vec::new(), &header()).unwrap();
        record_all(&mut jsonl, &events());
        let mut sink = BinarySink::new(Vec::new(), &header()).unwrap();
        record_all(&mut sink, &events());
        let bytes = sink.into_inner().unwrap();
        let (h, evs) = read_bytes(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(evs, events());
        assert!(bytes.len() < jsonl.into_inner().len());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(read_bytes(b"").is_err());
        assert!(read_bytes(b"not json\n").is_err());
        // Valid header, garbage event line.
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        sink.finish().unwrap();
        let mut bytes = sink.into_inner();
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"nope\"}\n");
        assert!(read_bytes(&bytes).is_err());
        // Agent identity zero is invalid.
        let mut sink = JsonlSink::new(Vec::new(), &header()).unwrap();
        sink.finish().unwrap();
        let mut bytes = sink.into_inner();
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"req\",\"agent\":0}\n");
        assert!(read_bytes(&bytes).is_err());
        // Truncated binary record.
        let mut sink = BinarySink::new(Vec::new(), &header()).unwrap();
        sink.record(&events()[0]).unwrap();
        let bytes = sink.into_inner().unwrap();
        assert_eq!(read_bytes(&bytes).unwrap().1, events()[..1]);
        assert!(read_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Wrong binary version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(read_bytes(&bad).is_err());
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
            let (h, evs) = read_all(open_trace(&path).unwrap()).unwrap();
            assert_eq!(h, header());
            assert_eq!(evs, events());
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// The DESIGN §5d layout, written out byte by byte and independent
    /// of the sink's constants: the oracle for [`BinarySink`].
    fn reference_encoding(h: &TraceHeader, events: &[TraceEvent]) -> Vec<u8> {
        let json = serde_json::to_string(h).unwrap();
        let mut out = b"BTRC".to_vec();
        out.push(1);
        out.extend_from_slice(&(json.len() as u32).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        for e in events {
            let (tag, agent) = match e.kind {
                TraceKind::Request { agent } => (0, agent),
                TraceKind::ArbitrationStart { winner, .. } => (1, winner),
                TraceKind::TransferStart { agent } => (2, agent),
                TraceKind::TransferEnd { agent, .. } => (3, agent),
                TraceKind::Coherence { agent, .. } => (4, agent),
            };
            out.push(tag);
            out.extend_from_slice(&e.at.as_f64().to_le_bytes());
            out.extend_from_slice(&agent.get().to_le_bytes());
            match e.kind {
                TraceKind::ArbitrationStart { completes, .. } => {
                    out.extend_from_slice(&completes.as_f64().to_le_bytes());
                }
                TraceKind::TransferEnd { wait, .. } => out.extend_from_slice(&wait.to_le_bytes()),
                TraceKind::Coherence {
                    op, invalidated, ..
                } => {
                    out.push(match op {
                        CoherenceOp::ReadMiss => 0,
                        CoherenceOp::WriteMiss => 1,
                        CoherenceOp::Upgrade => 2,
                    });
                    out.extend_from_slice(&invalidated.to_le_bytes());
                }
                TraceKind::Request { .. } | TraceKind::TransferStart { .. } => {}
            }
        }
        out
    }

    /// Mixed records filling three 64 KiB spans of the file after a
    /// `preamble`-byte preamble, with a coherence record straddling
    /// each 64 KiB edge. Returns the events and the straddle count.
    fn straddling_events(preamble: usize) -> (Vec<TraceEvent>, usize) {
        const EDGE: usize = 64 << 10;
        let mixed = events();
        let (mut out, mut offset, mut straddles) = (Vec::new(), preamble, 0);
        while offset < 3 * EDGE + 100 {
            let to_edge = EDGE - offset % EDGE;
            let at = Time::from(out.len() as f64 * 0.25);
            let kind = if to_edge < 18 {
                straddles += 1;
                TraceKind::Coherence {
                    agent: id(2),
                    op: CoherenceOp::Upgrade,
                    invalidated: 3,
                }
            } else if to_edge < 35 {
                TraceKind::Request { agent: id(3) }
            } else {
                mixed[out.len() % mixed.len()].kind
            };
            offset += match kind {
                TraceKind::Request { .. } | TraceKind::TransferStart { .. } => 13,
                TraceKind::Coherence { .. } => 18,
                _ => 21,
            };
            out.push(TraceEvent { at, kind });
        }
        (out, straddles)
    }

    /// A writer that logs every `write` call and keeps the bytes.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn block_sink_matches_the_documented_layout_across_blocks() {
        let preamble = reference_encoding(&header(), &[]).len();
        let (events, straddles) = straddling_events(preamble);
        assert_eq!(straddles, 3);
        let expected = reference_encoding(&header(), &events);
        let mut sink = BinarySink::new(Recorder::default(), &header()).unwrap();
        for e in &events {
            sink.record(e).unwrap();
        }
        sink.finish().unwrap();
        let recorder = sink.into_inner().unwrap();
        assert!(recorder.bytes == expected, "block sink bytes differ");
        // One preamble write, then whole blocks: every write but the
        // last leaves less than one record of the block unused.
        let (first, blocks) = recorder.writes.split_first().unwrap();
        assert_eq!(*first, preamble);
        assert!(blocks.len() >= 3, "{:?}", recorder.writes);
        for &n in &blocks[..blocks.len() - 1] {
            assert!(n > BLOCK_BYTES - RECORD_MAX && n <= BLOCK_BYTES, "{n}");
        }
    }

    /// A writer whose `fail_on`-th `write` call fails.
    struct FailingWriter {
        fail_on: usize,
        calls: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls == self.fail_on {
                Err(io::Error::other("injected write failure"))
            } else {
                Ok(buf.len())
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_is_reported() {
        let (events, _) = straddling_events(0);
        let export = |fail_on| -> io::Result<()> {
            let writer = FailingWriter { fail_on, calls: 0 };
            let mut sink = BinarySink::new(writer, &header())?;
            for e in &events {
                sink.record(e)?;
            }
            sink.finish()
        };
        // The preamble and every block: fail each write in turn.
        let mut sink = BinarySink::new(Recorder::default(), &header()).unwrap();
        record_all(&mut sink, &events);
        let writes = sink.into_inner().unwrap().writes.len();
        assert!(writes >= 4, "{writes}");
        for fail_on in 1..=writes {
            let err = export(fail_on).expect_err("a failed write must surface");
            assert_eq!(err.to_string(), "injected write failure", "{fail_on}");
        }
        export(usize::MAX).unwrap();
    }

    #[test]
    fn a_dropped_sink_writes_its_pending_block() {
        let mut bytes = Vec::new();
        let mut sink = BinarySink::new(&mut bytes, &header()).unwrap();
        for e in &events() {
            sink.record(e).unwrap();
        }
        drop(sink);
        assert!(bytes == reference_encoding(&header(), &events()));
    }
}
