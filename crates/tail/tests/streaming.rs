//! Streaming-vs-whole-file equivalence and corrupt-input regressions.
//!
//! The contract `busarb analyze` sells is: one bounded-memory pass over
//! a trace produces *exactly* the aggregates an in-memory replay would —
//! on either framing — and malformed input fails with a structured
//! error naming the byte offset, never a panic or a silent truncation of
//! the result. Both halves are pinned here:
//!
//! * a property test drives randomized event sequences through the
//!   JSONL sink, the binary sink, the streaming pipeline, and a
//!   `ReplayBuilder` fold over the event list, and requires bit-exact
//!   agreement everywhere;
//! * a regression suite feeds truncated and corrupt streams (cut binary
//!   records, garbage JSONL lines, bad agent identities) to
//!   `analyze`/`analyze_path` and checks the structured error surface.

use busarb_obs::{
    stream_error, BinarySink, JsonlSink, ReplayBuilder, TraceHeader, TraceReader, TraceSink,
    TRACE_SCHEMA,
};
use busarb_tail::{analyze, analyze_path};
use busarb_types::{AgentId, Time, TraceEvent, TraceKind};
use proptest::prelude::*;

fn header(protocol: &str, agents: u32, warmup: u64) -> TraceHeader {
    TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: protocol.to_string(),
        agents,
        seed: 9,
        warmup_samples: warmup,
        batches: 2,
        samples_per_batch: 4,
        confidence: 0.9,
    }
}

/// Builds a monotone-time event sequence from raw proptest choices.
fn build_events(choices: &[(u8, u32, u32)], agents: u32) -> Vec<TraceEvent> {
    let mut t = 0.0f64;
    choices
        .iter()
        .map(|&(kind, agent, dt)| {
            t += f64::from(dt) / 64.0;
            let agent = AgentId::new(1 + agent % agents).unwrap();
            let kind = match kind % 4 {
                0 => TraceKind::Request { agent },
                1 => TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.25),
                },
                2 => TraceKind::TransferStart { agent },
                _ => TraceKind::TransferEnd {
                    agent,
                    wait: t / 3.0,
                },
            };
            TraceEvent {
                at: Time::from(t),
                kind,
            }
        })
        .collect()
}

fn encode_jsonl(h: &TraceHeader, events: &[TraceEvent]) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new(), h).unwrap();
    for e in events {
        sink.record(e).unwrap();
    }
    sink.finish().unwrap();
    sink.into_inner()
}

fn encode_binary(h: &TraceHeader, events: &[TraceEvent]) -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new(), h).unwrap();
    for e in events {
        sink.record(e).unwrap();
    }
    sink.finish().unwrap();
    sink.into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming analysis over either framing must equal a replay of
    /// the in-memory event list bit-for-bit, and the two framings must agree on the
    /// entire report (all analyzers, not just replay).
    #[test]
    fn streaming_matches_whole_file_replay_on_both_framings(
        choices in proptest::collection::vec((any::<u8>(), any::<u32>(), 1u32..128), 0..200),
        agents in 1u32..6,
        warmup in 0u64..4,
        protocol_index in 0usize..4,
    ) {
        let protocol = ["rr", "fcfs-2", "aap-1", "unknown-proto"][protocol_index];
        let h = header(protocol, agents, warmup);
        let events = build_events(&choices, agents);

        let mut builder = ReplayBuilder::new(&h).unwrap();
        for e in &events {
            builder.push(e).unwrap();
        }
        let whole = builder.finish();

        let jsonl = encode_jsonl(&h, &events);
        let binary = encode_binary(&h, &events);
        let mut reports = Vec::new();
        for bytes in [&jsonl, &binary] {
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            reports.push(analyze("prop", &mut reader).unwrap());
        }

        for r in &reports {
            prop_assert_eq!(r.events, events.len() as u64);
            // Bit-exact, not approximate: the pipeline runs the same
            // accumulation code as the in-memory replay.
            prop_assert_eq!(r.replay.samples, whole.samples());
            prop_assert_eq!(r.replay.utilization, whole.utilization);
            prop_assert_eq!(r.replay.measured_time, whole.measured_time);
            prop_assert_eq!(r.replay.requests, whole.requests);
            prop_assert_eq!(r.replay.grants, whole.grants);
            prop_assert_eq!(r.replay.transfers, whole.transfers);
            prop_assert_eq!(r.replay.completions, whole.completions);
            prop_assert_eq!(r.replay.warmup_consumed, whole.warmup_consumed);
            prop_assert_eq!(&r.replay.per_agent_samples, &whole.per_agent_samples);
            prop_assert_eq!(
                r.replay.mean_wait,
                whole.mean_wait.as_ref().map(|e| e.mean)
            );
        }

        // The two framings must produce the same report everywhere
        // except the recorded format tag. JSON rendering is canonical
        // (field order fixed by declaration), so compare the parses.
        let a = serde_json::from_str(&reports[0].to_json()).unwrap();
        let b = serde_json::from_str(&reports[1].to_json()).unwrap();
        for section in ["replay", "usage", "fairness", "adapter", "protocol", "agents", "events"] {
            prop_assert_eq!(a.get(section), b.get(section), "section {}", section);
        }
    }
}

// ---------------------------------------------------------------------
// Corrupt- and truncated-input regressions.
// ---------------------------------------------------------------------

fn sample_trace(n: usize) -> (TraceHeader, Vec<TraceEvent>) {
    let h = header("rr", 3, 0);
    let choices: Vec<(u8, u32, u32)> = (0..n).map(|i| (i as u8, i as u32, 7)).collect();
    let events = build_events(&choices, 3);
    (h, events)
}

#[test]
fn truncated_binary_trace_errors_with_the_record_offset() {
    let (h, events) = sample_trace(24);
    let bytes = encode_binary(&h, &events);
    // Cut inside the last record.
    let cut = bytes.len() - 5;
    let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
    let err = analyze("cut", &mut reader).unwrap_err();
    let stream = stream_error(&err).expect("structured stream error");
    assert!(stream.message.contains("truncated"), "{stream}");
    assert!(stream.offset < cut as u64);
    // The offset points inside the trace body, at a record boundary the
    // reader had reached before failing.
    assert!(stream.offset > 9, "{}", stream.offset);
}

#[test]
fn corrupt_jsonl_line_errors_with_line_and_offset() {
    let (h, events) = sample_trace(10);
    let mut bytes = encode_jsonl(&h, &events);
    let corrupt_at = bytes.len() as u64;
    bytes.extend_from_slice(b"this is not an event\n");
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let err = analyze("garbage", &mut reader).unwrap_err();
    let stream = stream_error(&err).expect("structured stream error");
    assert_eq!(stream.offset, corrupt_at);
    assert_eq!(stream.line, Some(12)); // header + 10 events + this line
}

#[test]
fn out_of_roster_agent_fails_analysis_not_parsing() {
    let (mut h, mut events) = sample_trace(8);
    h.agents = 2;
    // A completion for agent 3 exceeds the 2-agent roster.
    events.push(TraceEvent {
        at: Time::from(1000.0),
        kind: TraceKind::TransferEnd {
            agent: AgentId::new(3).unwrap(),
            wait: 0.5,
        },
    });
    let bytes = encode_binary(&h, &events);
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let err = analyze("roster", &mut reader).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("agent"), "{err}");
}

#[test]
fn analyze_path_surfaces_offsets_for_corrupt_files() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("busarb-tail-corrupt-{}.btrc", std::process::id()));
    let (h, events) = sample_trace(16);
    let mut bytes = encode_binary(&h, &events);
    // Smash one record's tag byte into an unknown value.
    let header_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let body = 9 + header_len;
    bytes[body] = 200;
    std::fs::write(&path, &bytes).unwrap();
    let err = analyze_path(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    let stream = stream_error(&err).expect("structured stream error");
    assert_eq!(stream.offset, body as u64);
    assert!(
        stream.message.contains("unknown binary record tag"),
        "{stream}"
    );
    // The rendered error names the offset, so CLI users see it too.
    assert!(
        err.to_string().contains(&format!("byte offset {body}")),
        "{err}"
    );
}

#[test]
fn empty_and_headerless_files_error_cleanly() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("busarb-tail-empty-{}.jsonl", std::process::id()));
    std::fs::write(&path, b"").unwrap();
    let err = analyze_path(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    let stream = stream_error(&err).expect("structured stream error");
    assert_eq!(stream.offset, 0);
    assert!(stream.message.contains("empty"), "{stream}");
}

// ---------------------------------------------------------------------
// Records that straddle reader refills.
// ---------------------------------------------------------------------

/// The reader's buffer capacity (`BufReader`'s default).
const READ_BUFFER: usize = 8 * 1024;

/// A `Read` that hands out at most one of `sizes` (cycled) bytes per
/// call, so nearly every record arrives split across buffer refills.
struct Dribble<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    calls: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.calls % self.sizes.len()];
        self.calls += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Every event a reader yields, then the error that stopped it, if any.
fn read_all<R: std::io::Read>(input: R) -> (Vec<TraceEvent>, Option<busarb_obs::StreamError>) {
    let mut reader = TraceReader::new(input).unwrap();
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(e)) => events.push(e),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

/// `len` pseudo-random events of every kind, coherence included, over
/// an `agents`-agent roster.
fn every_kind_events(seed: u64, len: usize, agents: u32) -> Vec<TraceEvent> {
    use busarb_types::CoherenceOp;
    let mut x = seed | 1;
    let mut t = 0.0f64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += (x % 97) as f64 / 16.0;
            let agent = AgentId::new(1 + (x >> 8) as u32 % agents).unwrap();
            let kind = match (x >> 40) % 5 {
                0 => TraceKind::Request { agent },
                1 => TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.5),
                },
                2 => TraceKind::TransferStart { agent },
                3 => TraceKind::TransferEnd {
                    agent,
                    wait: (x >> 20) as f64 / 1e6,
                },
                _ => TraceKind::Coherence {
                    agent,
                    op: [
                        CoherenceOp::ReadMiss,
                        CoherenceOp::WriteMiss,
                        CoherenceOp::Upgrade,
                    ][(x >> 50) as usize % 3],
                    invalidated: (x >> 32) as u32 % 128,
                },
            };
            TraceEvent {
                at: Time::from(t),
                kind,
            }
        })
        .collect()
}

/// Byte offset and length of every binary record, computed from the
/// layout independently of the reader.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let header_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let mut at = 9 + header_len;
    let mut spans = Vec::new();
    while at < bytes.len() {
        let len = match bytes[at] {
            1 | 3 => 21,
            4 => 18,
            _ => 13,
        };
        spans.push((at, len));
        at += len;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reader fed 1..=23 bytes per call yields exactly the events of a
    /// whole-slice read over streams longer than three buffer
    /// capacities; and a record corrupted or cut where the slice
    /// reader's buffer refills fails both reads with the same error.
    #[test]
    fn records_straddling_refills_decode_like_a_whole_slice_read(
        seed in any::<u64>(),
        len in 1700usize..2600,
        agents in 1u32..=128,
        sizes in proptest::collection::vec(1usize..=23, 1..32),
        boundary in 1usize..=3,
        corruption in 0usize..4,
    ) {
        let h = header("fcfs-2", agents, 0);
        let events = every_kind_events(seed, len, agents);
        let bytes = encode_binary(&h, &events);
        prop_assert!(bytes.len() > 3 * READ_BUFFER);

        let (whole, err) = read_all(&bytes[..]);
        prop_assert!(err.is_none(), "{:?}", err);
        prop_assert_eq!(&whole, &events);
        let (dribbled, err) = read_all(Dribble { bytes: &bytes, sizes: &sizes, calls: 0 });
        prop_assert!(err.is_none(), "{:?}", err);
        prop_assert_eq!(&dribbled, &events);

        // The record holding the slice reader's `boundary`-th refill.
        let refill = boundary * READ_BUFFER;
        let spans = record_spans(&bytes);
        let index = spans.iter().position(|&(at, len)| refill < at + len).unwrap();
        let (start, len) = spans[index];
        let mut bad = bytes.clone();
        let fragment = match corruption {
            0 => {
                bad[start] = 9;
                "unknown binary record tag 9"
            }
            1 => {
                bad[start + 9..start + 13].fill(0);
                "bad agent identity"
            }
            2 => {
                bad[start + 1..start + 9].copy_from_slice(&f64::NAN.to_le_bytes());
                "non-finite or negative timestamp"
            }
            _ => {
                bad.truncate(refill.max(start + 1).min(start + len - 1));
                "truncated binary record"
            }
        };
        let (whole, whole_err) = read_all(&bad[..]);
        let (dribbled, dribbled_err) = read_all(Dribble { bytes: &bad, sizes: &sizes, calls: 0 });
        let whole_err = whole_err.expect("the corrupt record fails the slice read");
        prop_assert_eq!(whole_err.offset, start as u64);
        prop_assert!(whole_err.message.contains(fragment), "{}", whole_err);
        prop_assert_eq!(Some(whole_err), dribbled_err);
        prop_assert_eq!(&whole, &events[..index]);
        prop_assert_eq!(&dribbled, &events[..index]);
    }
}
