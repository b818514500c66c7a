//! Incremental trace readers: bounded-memory streaming over both export
//! framings.
//!
//! A trace can run to gigabytes, so it is never loaded whole.
//! [`TraceReader`] auto-detects the framing from the first four
//! bytes, parses the self-describing header up front, and then yields
//! one event at a time from a fixed-size internal buffer. Peak memory is
//! independent of trace length: the JSONL path caps line length at
//! [`MAX_LINE_BYTES`], and the binary path decodes each fixed-layout
//! record in place from the read buffer, copying into a
//! [`RECORD_MAX`]-byte scratch only a record that straddles a refill.
//!
//! Failures are *structured*: every error is a [`StreamError`] carrying
//! the byte offset at which the malformed input was detected (and the
//! 1-based line number for JSONL), so a consumer such as `busarb analyze`
//! can report exactly where a truncated or corrupt trace went wrong
//! instead of panicking or silently treating garbage as end-of-file.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use busarb_types::{AgentId, Time, TraceEvent, TraceKind};

use crate::export::{
    coherence_op_from_code, coherence_op_from_slug, MAGIC, RECORD_MAX, TAG_ARBITRATION,
    TAG_COHERENCE, TAG_END, TAG_REQUEST, TAG_TRANSFER, VERSION,
};
use crate::{TraceFormat, TraceHeader};

/// Upper bound on one JSONL line (header or event). A well-formed event
/// line is under 120 bytes; the cap exists so a corrupt newline-free
/// file cannot force unbounded buffering.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Upper bound on the length-prefixed binary header. Real headers are a
/// few hundred bytes; the cap keeps a corrupt length prefix from
/// provoking a multi-gigabyte allocation.
const MAX_HEADER_BYTES: u32 = 1 << 24;

/// A structured streaming-read failure: what went wrong and *where*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Byte offset into the trace at which the failure was detected.
    pub offset: u64,
    /// 1-based line number (JSONL framing only).
    pub line: Option<u64>,
    /// What was wrong with the input.
    pub message: String,
}

impl StreamError {
    fn new(offset: u64, line: Option<u64>, message: impl Into<String>) -> Self {
        StreamError {
            offset,
            line,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{} (line {line}, byte offset {})",
                self.message, self.offset
            ),
            None => write!(f, "{} (byte offset {})", self.message, self.offset),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<StreamError> for io::Error {
    fn from(e: StreamError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Extracts the [`StreamError`] (with its byte offset) from an
/// [`io::Error`] produced by this module, if there is one.
#[must_use]
pub fn stream_error(e: &io::Error) -> Option<&StreamError> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// An incremental reader over an exported `busarb-trace/1` stream.
///
/// The framing (JSONL or `BTRC` binary) is auto-detected from the first
/// four bytes; the header is parsed eagerly by [`TraceReader::new`], and
/// events are then pulled one at a time — via [`next_event`] or the
/// [`Iterator`] impl — through a fixed-size read buffer (the
/// `BufReader` default, 8 KiB), so memory does not grow with the trace.
///
/// [`next_event`]: TraceReader::next_event
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: BufReader<R>,
    header: TraceHeader,
    format: TraceFormat,
    /// Bytes consumed from the underlying stream so far.
    offset: u64,
    /// Lines consumed so far (JSONL framing; the header is line 1).
    line: u64,
    /// Reusable line buffer (JSONL framing).
    buf: Vec<u8>,
    /// A binary record that straddles a buffer refill, stitched whole.
    scratch: [u8; RECORD_MAX],
    /// Set once end-of-stream or an error has been reached.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte stream, detects the framing, and parses the header.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] locating the first malformed byte when
    /// the stream is empty, the magic/version is unrecognized, or the
    /// header is truncated or invalid.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut input = BufReader::new(reader);
        // Peek the first four bytes to tell `BTRC` from JSONL. A valid
        // JSONL header line is always longer than four bytes, so a
        // shorter stream is malformed either way.
        let mut magic = [0u8; 4];
        let got = read_up_to(&mut input, &mut magic)
            .map_err(|e| StreamError::new(0, None, format!("cannot read trace: {e}")))?;
        if got == 0 {
            return Err(StreamError::new(0, None, "empty trace"));
        }
        if got == 4 && &magic == MAGIC {
            Self::new_binary(input)
        } else {
            Self::new_jsonl(input, &magic[..got])
        }
    }

    fn new_binary(mut input: BufReader<R>) -> Result<Self, StreamError> {
        let mut offset = MAGIC.len() as u64;
        let mut version = [0u8; 1];
        input.read_exact(&mut version).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (no version byte)")
        })?;
        if version[0] != VERSION {
            return Err(StreamError::new(
                offset,
                None,
                format!(
                    "unsupported binary trace version {} (expected {VERSION})",
                    version[0]
                ),
            ));
        }
        offset += 1;
        let mut len_bytes = [0u8; 4];
        input.read_exact(&mut len_bytes).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (no header length)")
        })?;
        offset += 4;
        let header_len = u32::from_le_bytes(len_bytes);
        if header_len > MAX_HEADER_BYTES {
            return Err(StreamError::new(
                offset - 4,
                None,
                format!("implausible header length {header_len} (corrupt length prefix?)"),
            ));
        }
        let mut header_bytes = vec![0u8; header_len as usize];
        input.read_exact(&mut header_bytes).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (header cut short)")
        })?;
        let header_text = core::str::from_utf8(&header_bytes)
            .map_err(|_| StreamError::new(offset, None, "binary trace header is not UTF-8"))?;
        let header = parse_header(header_text, offset, None)?;
        offset += u64::from(header_len);
        Ok(TraceReader {
            input,
            header,
            format: TraceFormat::Binary,
            offset,
            line: 0,
            buf: Vec::new(),
            scratch: [0; RECORD_MAX],
            done: false,
        })
    }

    fn new_jsonl(input: BufReader<R>, prefix: &[u8]) -> Result<Self, StreamError> {
        let mut reader = TraceReader {
            input,
            // Placeholder until the real header line parses.
            header: TraceHeader {
                schema: String::new(),
                protocol: String::new(),
                agents: 0,
                seed: 0,
                warmup_samples: 0,
                batches: 0,
                samples_per_batch: 0,
                confidence: 0.0,
            },
            format: TraceFormat::Jsonl,
            // The four sniffed magic-candidate bytes are part of the
            // header line and already consumed from the stream.
            offset: prefix.len() as u64,
            line: 0,
            buf: prefix.to_vec(),
            scratch: [0; RECORD_MAX],
            done: false,
        };
        let line_start = 0;
        let had_line = reader.fill_line(prefix.len())?;
        if !had_line || reader.buf.iter().all(u8::is_ascii_whitespace) {
            return Err(StreamError::new(line_start, Some(1), "empty trace"));
        }
        let text = core::str::from_utf8(&reader.buf).map_err(|_| {
            StreamError::new(
                line_start,
                Some(1),
                "trace is neither binary (no magic) nor UTF-8 JSONL",
            )
        })?;
        reader.header = parse_header(text, line_start, Some(1))?;
        Ok(reader)
    }

    /// The parsed trace header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The detected framing.
    #[must_use]
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Bytes consumed from the underlying stream so far.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads the rest of one line (after `already` bytes of it are in
    /// `buf`), stripping the trailing newline. Returns `false` on clean
    /// end-of-stream with an empty buffer.
    fn fill_line(&mut self, already: usize) -> Result<bool, StreamError> {
        debug_assert_eq!(self.buf.len(), already);
        let limit = MAX_LINE_BYTES as u64;
        let read = self
            .input
            .by_ref()
            .take(limit)
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| {
                StreamError::new(
                    self.offset + self.buf.len() as u64,
                    Some(self.line + 1),
                    format!("cannot read trace: {e}"),
                )
            })?;
        if already + read == 0 {
            return Ok(false);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
        } else if already + read >= MAX_LINE_BYTES {
            return Err(StreamError::new(
                self.offset,
                Some(self.line + 1),
                format!("line exceeds {MAX_LINE_BYTES} bytes (corrupt trace?)"),
            ));
        }
        self.line += 1;
        self.offset += read as u64;
        Ok(true)
    }

    /// Yields the next event, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] locating the first malformed byte on
    /// truncated or corrupt input. After an error (or a clean end) the
    /// reader stays exhausted: further calls return `Ok(None)`.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        if self.done {
            return Ok(None);
        }
        let result = match self.format {
            TraceFormat::Jsonl => self.next_jsonl(),
            TraceFormat::Binary => self.next_binary(),
        };
        if !matches!(result, Ok(Some(_))) {
            self.done = true;
        }
        result
    }

    fn next_jsonl(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        loop {
            let line_start = self.offset;
            self.buf.clear();
            if !self.fill_line(0)? {
                return Ok(None);
            }
            if self.buf.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let text = core::str::from_utf8(&self.buf).map_err(|_| {
                StreamError::new(line_start, Some(self.line), "event line is not UTF-8")
            })?;
            let value = serde_json::from_str(text).map_err(|e| {
                StreamError::new(line_start, Some(self.line), format!("bad event: {e}"))
            })?;
            let agents = self.header.agents;
            return event_from_value(&value, agents)
                .map(Some)
                .map_err(|msg| StreamError::new(line_start, Some(self.line), msg));
        }
    }

    fn next_binary(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        let record_start = self.offset;
        let agents = self.header.agents;
        let (decoded, len) = if let Some(record) = self.input.buffer().first_chunk() {
            // The common case: the whole record is buffered, so it is
            // decoded where it lies.
            let len = record_len(record[0]).map_err(|e| e.at(record_start))?;
            let decoded = decode_record(record, agents);
            self.input.consume(len);
            (decoded, len)
        } else {
            let Some(len) = self.stitch_record()? else {
                return Ok(None);
            };
            (decode_record(&self.scratch, agents), len)
        };
        let event = decoded.map_err(|e| e.at(record_start))?;
        self.offset = record_start + len as u64;
        Ok(Some(event))
    }

    /// Copies the next binary record into `scratch` across however many
    /// buffer refills it spans, consuming it, and returns its length;
    /// `Ok(None)` at a clean end of stream.
    fn stitch_record(&mut self) -> Result<Option<usize>, StreamError> {
        let record_start = self.offset;
        let mut filled = 0;
        // The tag byte first; once it names the kind, the whole record.
        let mut len = 1;
        while filled < len {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if filled == 0 => {
                    return Err(StreamError::new(
                        record_start,
                        None,
                        format!("cannot read trace: {e}"),
                    ))
                }
                Err(_) => return Err(RecordError::Truncated.at(record_start)),
            };
            if buf.is_empty() {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(RecordError::Truncated.at(record_start))
                };
            }
            let n = buf.len().min(len - filled);
            self.scratch[filled..filled + n].copy_from_slice(&buf[..n]);
            self.input.consume(n);
            if filled == 0 {
                len = record_len(self.scratch[0]).map_err(|e| e.at(record_start))?;
            }
            filled += n;
        }
        Ok(Some(len))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// Opens a trace file for incremental reading (buffered, auto-detected
/// framing).
///
/// # Errors
///
/// Propagates file-open errors; header failures arrive as
/// [`io::ErrorKind::InvalidData`] wrapping a [`StreamError`] (recover it
/// with [`stream_error`] to get the byte offset).
pub fn open_trace(path: &Path) -> io::Result<TraceReader<std::fs::File>> {
    let file = std::fs::File::open(path)?;
    TraceReader::new(file).map_err(Into::into)
}

/// Reads as many bytes as the stream can give, up to `buf.len()`;
/// returns how many. Unlike `read_exact`, a clean end-of-stream is not
/// an error.
fn read_up_to<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn parse_header(text: &str, offset: u64, line: Option<u64>) -> Result<TraceHeader, StreamError> {
    let value = serde_json::from_str(text)
        .map_err(|e| StreamError::new(offset, line, format!("bad header: {e}")))?;
    TraceHeader::from_value(&value)
        .map_err(|e| StreamError::new(offset, line, format!("bad header: {e}")))
}

/// Why one binary record (or one JSONL field) failed validation.
///
/// `Copy` and allocation-free, so the per-record decode formats nothing;
/// the message is rendered once, when a bad trace is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RecordError {
    UnknownTag(u8),
    Truncated,
    NonFiniteOrNegative { what: &'static str, value: f64 },
    BadAgent { raw: u32, agents: u32 },
    UnknownOp(u8),
}

impl RecordError {
    /// The structured error for a binary record starting at `offset`.
    fn at(self, offset: u64) -> StreamError {
        StreamError::new(offset, None, self.to_string())
    }
}

impl core::fmt::Display for RecordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            RecordError::UnknownTag(tag) => write!(f, "unknown binary record tag {tag}"),
            RecordError::Truncated => {
                f.write_str("truncated binary record (stream ends mid-record)")
            }
            RecordError::NonFiniteOrNegative { what, value } => {
                write!(f, "non-finite or negative {what} {value}")
            }
            RecordError::BadAgent { raw, agents } => {
                // The complaint `AgentId::try_from_raw` would make.
                let why = if raw == 0 {
                    busarb_types::Error::ZeroAgentId
                } else {
                    busarb_types::Error::AgentOutOfRange { id: raw, agents }
                };
                write!(f, "bad agent identity: {why}")
            }
            RecordError::UnknownOp(code) => write!(f, "unknown coherence op code {code}"),
        }
    }
}

impl From<RecordError> for String {
    fn from(e: RecordError) -> Self {
        e.to_string()
    }
}

/// Total length of a binary record by tag: `at` + agent for every kind,
/// plus an f64 for arbitration/completion records or an op byte + u32
/// count for coherence records.
fn record_len(tag: u8) -> Result<usize, RecordError> {
    match tag {
        TAG_REQUEST | TAG_TRANSFER => Ok(13),
        TAG_ARBITRATION | TAG_END => Ok(RECORD_MAX),
        TAG_COHERENCE => Ok(18),
        other => Err(RecordError::UnknownTag(other)),
    }
}

/// `N` bytes of `record` starting at `at`.
fn bytes_at<const N: usize>(record: &[u8; RECORD_MAX], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&record[at..at + N]);
    out
}

/// Decodes one binary record from the first [`RECORD_MAX`] bytes at its
/// start (`record[0]` is the tag; bytes past the record's own length are
/// ignored), validating every field against a roster of `agents`.
fn decode_record(record: &[u8; RECORD_MAX], agents: u32) -> Result<TraceEvent, RecordError> {
    let at = finite_time(f64::from_le_bytes(bytes_at(record, 1)), "timestamp")?;
    let raw = u32::from_le_bytes(bytes_at(record, 9));
    let agent =
        AgentId::try_from_raw(raw, agents).map_err(|_| RecordError::BadAgent { raw, agents })?;
    let extra_f64 = || f64::from_le_bytes(bytes_at(record, 13));
    let kind = match record[0] {
        TAG_REQUEST => TraceKind::Request { agent },
        TAG_ARBITRATION => TraceKind::ArbitrationStart {
            winner: agent,
            completes: finite_time(extra_f64(), "completion time")?,
        },
        TAG_TRANSFER => TraceKind::TransferStart { agent },
        TAG_END => TraceKind::TransferEnd {
            agent,
            wait: finite_duration(extra_f64(), "wait")?,
        },
        TAG_COHERENCE => TraceKind::Coherence {
            agent,
            op: coherence_op_from_code(record[13]).ok_or(RecordError::UnknownOp(record[13]))?,
            invalidated: u32::from_le_bytes(bytes_at(record, 14)),
        },
        other => return Err(RecordError::UnknownTag(other)),
    };
    Ok(TraceEvent { at, kind })
}

/// Validates a trace duration: finite and non-negative (negative zero
/// is allowed — it compares equal to zero). Rejecting here turns what
/// would be a release-mode silent saturation (or debug-mode panic)
/// inside [`Time`] into a structured parse error with a byte offset.
fn finite_duration(value: f64, what: &'static str) -> Result<f64, RecordError> {
    if (0.0..f64::INFINITY).contains(&value) {
        Ok(value)
    } else {
        Err(RecordError::NonFiniteOrNegative { what, value })
    }
}

/// Validates and converts a trace timestamp to [`Time`].
fn finite_time(value: f64, what: &'static str) -> Result<Time, RecordError> {
    finite_duration(value, what).map(Time::saturating)
}

/// Parses one JSONL event object, validating agent identities against
/// the `agents` roster declared by the trace header. Returns the
/// complaint (without position information — the caller owns that) on
/// malformed input.
pub(crate) fn event_from_value(v: &serde::Value, agents: u32) -> Result<TraceEvent, String> {
    fn f64_field(v: &serde::Value, key: &str) -> Result<f64, String> {
        v.get(key)
            .and_then(serde::Value::as_f64)
            .ok_or_else(|| format!("missing or mistyped `{key}`"))
    }
    fn u32_field(v: &serde::Value, key: &str) -> Result<u32, String> {
        let raw = v
            .get(key)
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| format!("missing or mistyped `{key}`"))?;
        u32::try_from(raw).map_err(|_| format!("`{key}` exceeds u32"))
    }
    let agent_field = |key: &str| -> Result<AgentId, String> {
        AgentId::try_from_raw(u32_field(v, key)?, agents)
            .map_err(|e| format!("bad agent identity: {e}"))
    };
    let at = finite_time(f64_field(v, "at")?, "timestamp")?;
    let kind = match v.get("ev").and_then(serde::Value::as_str) {
        Some("req") => TraceKind::Request {
            agent: agent_field("agent")?,
        },
        Some("arb") => TraceKind::ArbitrationStart {
            winner: agent_field("winner")?,
            completes: finite_time(f64_field(v, "completes")?, "completion time")?,
        },
        Some("xfer") => TraceKind::TransferStart {
            agent: agent_field("agent")?,
        },
        Some("end") => TraceKind::TransferEnd {
            agent: agent_field("agent")?,
            wait: finite_duration(f64_field(v, "wait")?, "wait")?,
        },
        Some("coh") => {
            let slug = v
                .get("op")
                .and_then(serde::Value::as_str)
                .ok_or_else(|| "missing or mistyped `op`".to_string())?;
            let op = coherence_op_from_slug(slug)
                .ok_or_else(|| format!("unknown coherence op {slug:?}"))?;
            TraceKind::Coherence {
                agent: agent_field("agent")?,
                op,
                invalidated: u32_field(v, "invalidated")?,
            }
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinarySink, JsonlSink, TraceSink, TRACE_SCHEMA};

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "rr".to_string(),
            agents: 4,
            seed: 42,
            warmup_samples: 10,
            batches: 10,
            samples_per_batch: 5,
            confidence: 0.9,
        }
    }

    fn events() -> Vec<TraceEvent> {
        use busarb_types::CoherenceOp;
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

    fn encode(format: TraceFormat) -> Vec<u8> {
        let mut bytes = Vec::new();
        match format {
            TraceFormat::Jsonl => {
                let mut sink = JsonlSink::new(&mut bytes, &header()).unwrap();
                for e in events() {
                    sink.record(&e).unwrap();
                }
                sink.finish().unwrap();
            }
            TraceFormat::Binary => {
                let mut sink = BinarySink::new(&mut bytes, &header()).unwrap();
                for e in events() {
                    sink.record(&e).unwrap();
                }
                sink.finish().unwrap();
            }
        }
        bytes
    }

    #[test]
    fn streaming_reader_round_trips_both_framings() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let bytes = encode(format);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            assert_eq!(reader.format(), format);
            assert_eq!(*reader.header(), header());
            let mut seen = Vec::new();
            while let Some(e) = reader.next_event().unwrap() {
                seen.push(e);
            }
            assert_eq!(seen, events(), "{format}");
            assert_eq!(reader.offset(), bytes.len() as u64, "{format}");
            // Exhausted readers stay exhausted.
            assert_eq!(reader.next_event().unwrap(), None);
        }
    }

    /// Boundary waiting times must survive export → stream **bit
    /// exactly** in both framings (`to_bits`, not `==`, which cannot
    /// see the sign of zero). The JSONL sink writes `Display` forms —
    /// `-0` for negative zero, full decimal expansions for subnormals —
    /// and the serde shim must hand back the identical double; the
    /// binary sink carries the raw bits and the reader must not launder
    /// them through any lossy normalization.
    #[test]
    fn boundary_wait_values_round_trip_bit_exactly() {
        let waits = [
            -0.0,
            0.0,
            5e-324,                  // smallest subnormal
            f64::MIN_POSITIVE / 2.0, // mid-range subnormal
            f64::MIN_POSITIVE,       // smallest normal
            f64::EPSILON,
            0.1,       // classic shortest-form case
            1.0 / 3.0, // needs all 17 significant digits
        ];
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let mut bytes = Vec::new();
            let mut sink: Box<dyn TraceSink> = match format {
                TraceFormat::Jsonl => Box::new(JsonlSink::new(&mut bytes, &header()).unwrap()),
                TraceFormat::Binary => Box::new(BinarySink::new(&mut bytes, &header()).unwrap()),
            };
            for (i, &wait) in waits.iter().enumerate() {
                sink.record(&TraceEvent {
                    at: Time::from(1.0 + i as f64),
                    kind: TraceKind::TransferEnd { agent: id(1), wait },
                })
                .unwrap();
            }
            sink.finish().unwrap();
            drop(sink);

            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            for &wait in &waits {
                let event = reader.next_event().unwrap().expect("event present");
                let TraceKind::TransferEnd { wait: back, .. } = event.kind else {
                    panic!("{format}: wrong kind {event:?}");
                };
                assert_eq!(
                    back.to_bits(),
                    wait.to_bits(),
                    "{format}: {wait:?} came back as {back:?}"
                );
            }
            assert_eq!(reader.next_event().unwrap(), None);
        }
    }

    #[test]
    fn truncated_binary_record_reports_record_offset() {
        let bytes = encode(TraceFormat::Binary);
        let cut = bytes.len() - 3;
        let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation must not read as clean EOF"),
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("truncated"), "{err}");
        // The error points at the start of the final, cut-short record.
        assert_eq!(
            err.offset,
            reader_record_starts(&bytes).last().copied().unwrap()
        );
        assert_eq!(err.line, None);
        // After the error the reader reads as exhausted, not as looping.
        assert_eq!(reader.next_event(), Ok(None));
    }

    /// Byte offsets of every binary record start, computed independently.
    fn reader_record_starts(bytes: &[u8]) -> Vec<u64> {
        let header_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let mut at = 9 + header_len;
        let mut starts = Vec::new();
        while at < bytes.len() {
            starts.push(at as u64);
            let body = match bytes[at] {
                1 | 3 => 20,
                4 => 17,
                _ => 12,
            };
            at += 1 + body;
        }
        starts
    }

    /// One raw binary record: tag, timestamp, agent, then `rest` bytes.
    fn bin_record(tag: u8, at: f64, agent: u32, rest: &[u8]) -> Vec<u8> {
        let mut r = vec![tag];
        r.extend_from_slice(&at.to_le_bytes());
        r.extend_from_slice(&agent.to_le_bytes());
        r.extend_from_slice(rest);
        r
    }

    #[test]
    fn corrupt_binary_records_error_at_the_record_start() {
        let base = encode(TraceFormat::Binary);
        let start = base.len() as u64;
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (bin_record(9, 1.0, 1, &[]), "unknown binary record tag"),
            (
                bin_record(4, 1.0, 1, &[9, 0, 0, 0, 0]),
                "unknown coherence op code",
            ),
            // The header declares a roster of 4 agents; identity 5 and
            // the reserved identity 0 are both out of range.
            (bin_record(0, 1.0, 5, &[]), "bad agent identity"),
            (bin_record(0, 1.0, 0, &[]), "bad agent identity"),
            (
                bin_record(0, f64::NAN, 1, &[]),
                "non-finite or negative timestamp",
            ),
            (
                bin_record(0, -1.0, 1, &[]),
                "non-finite or negative timestamp",
            ),
            (
                bin_record(3, 1.0, 1, &f64::INFINITY.to_le_bytes()),
                "non-finite or negative wait",
            ),
            // A coherence record cut off mid-body.
            (bin_record(4, 1.0, 1, &[0, 0, 0]), "truncated"),
        ];
        for (record, fragment) in cases {
            let mut bytes = base.clone();
            bytes.extend_from_slice(&record);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let err = loop {
                match reader.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("corrupt record must error ({fragment})"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.offset, start, "{fragment}");
            assert_eq!(err.line, None, "{fragment}");
            assert!(err.message.contains(fragment), "{fragment}: {err}");
        }
    }

    #[test]
    fn jsonl_rejects_out_of_roster_agents_and_bad_durations() {
        let base = encode(TraceFormat::Jsonl);
        for (line, fragment) in [
            (r#"{"at":1.0,"ev":"req","agent":5}"#, "bad agent identity"),
            (r#"{"at":1.0,"ev":"req","agent":0}"#, "bad agent identity"),
            (
                r#"{"at":-1.0,"ev":"req","agent":1}"#,
                "non-finite or negative timestamp",
            ),
            (
                r#"{"at":1.0,"ev":"end","agent":1,"wait":-0.5}"#,
                "non-finite or negative wait",
            ),
            (
                r#"{"at":1.0,"ev":"coh","agent":1,"op":"mystery","invalidated":0}"#,
                "unknown coherence op",
            ),
            (
                r#"{"at":1.0,"ev":"coh","agent":1,"op":"upgrade"}"#,
                "missing or mistyped `invalidated`",
            ),
        ] {
            let mut bytes = base.clone();
            let line_start = bytes.len() as u64;
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let err = loop {
                match reader.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("corrupt line must error ({fragment})"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.offset, line_start, "{fragment}");
            assert!(err.message.contains(fragment), "{fragment}: {err}");
        }
    }

    #[test]
    fn corrupt_jsonl_line_reports_line_and_offset() {
        let mut bytes = encode(TraceFormat::Jsonl);
        let line_start = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"nope\"}\n");
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt line must error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.offset, line_start);
        assert_eq!(err.line, Some(42)); // header + 40 events + this one
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn header_failures_locate_the_problem() {
        let empty = TraceReader::new(&b""[..]).unwrap_err();
        assert_eq!(empty.offset, 0);
        assert!(empty.message.contains("empty"), "{empty}");

        let bad_version = {
            let mut bytes = encode(TraceFormat::Binary);
            bytes[4] = 99;
            TraceReader::new(&bytes[..]).unwrap_err()
        };
        assert_eq!(bad_version.offset, 4);
        assert!(bad_version.message.contains("version"), "{bad_version}");

        let cut_header = {
            let bytes = encode(TraceFormat::Binary);
            TraceReader::new(&bytes[..20]).unwrap_err()
        };
        assert!(cut_header.message.contains("header"), "{cut_header}");

        let not_json = TraceReader::new(&b"not json at all\n"[..]).unwrap_err();
        assert_eq!(not_json.line, Some(1));
        assert!(not_json.message.contains("bad header"), "{not_json}");

        let wrong_schema = TraceReader::new(
            &br#"{"schema":"busarb-trace/999","protocol":"rr","agents":1,"seed":0,"warmup_samples":0,"batches":2,"samples_per_batch":1,"confidence":0.9}"#[..],
        )
        .unwrap_err();
        assert!(wrong_schema.message.contains("schema"), "{wrong_schema}");
    }

    #[test]
    fn out_of_range_agent_counts_are_rejected_in_both_framings() {
        // Readers size per-agent state from the header's roster, so a
        // corrupt count must fail at the header instead of reaching an
        // allocation.
        for agents in [0, 129, u32::MAX] {
            let header = TraceHeader { agents, ..header() };
            for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
                let mut bytes = Vec::new();
                match format {
                    TraceFormat::Jsonl => JsonlSink::new(&mut bytes, &header).unwrap().finish(),
                    TraceFormat::Binary => BinarySink::new(&mut bytes, &header).unwrap().finish(),
                }
                .unwrap();
                let err = TraceReader::new(&bytes[..]).unwrap_err();
                assert!(
                    err.message
                        .contains(&format!("agent count {agents} outside 1..=128")),
                    "{agents} ({format}): {err}"
                );
            }
        }
    }

    #[test]
    fn implausible_binary_header_length_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = TraceReader::new(&bytes[..]).unwrap_err();
        assert!(err.message.contains("implausible"), "{err}");
    }

    #[test]
    fn stream_error_converts_to_io_error_and_back() {
        let original = StreamError::new(17, Some(3), "bad event");
        let io_err: io::Error = original.clone().into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(stream_error(&io_err), Some(&original));
        assert!(io_err.to_string().contains("byte offset 17"));
        assert!(stream_error(&io::Error::other("plain")).is_none());
    }

    #[test]
    fn open_trace_streams_a_file() {
        let dir = std::env::temp_dir().join("busarb-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.btrc", std::process::id()));
        std::fs::write(&path, encode(TraceFormat::Binary)).unwrap();
        let reader = open_trace(&path).unwrap();
        let collected: Result<Vec<_>, _> = reader.collect();
        assert_eq!(collected.unwrap(), events());
        std::fs::remove_file(&path).ok();
    }
}
