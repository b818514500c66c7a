//! Synthetic BTRC stream generation — benchmark and test support.
//!
//! [`SyntheticBtrc`] is a [`Read`] that produces a syntactically valid
//! `busarb-trace/1` binary stream of any length *on the fly*: a few
//! dozen bytes of scratch buffer are refilled one transaction at a time,
//! so generating a ten-million-event stream neither touches disk nor
//! materializes anything proportional to its length. The bounded-memory
//! regression test feeds these to the pipeline to prove peak heap is
//! independent of trace length.

use std::io::Read;

use busarb_obs::TraceHeader;

/// An infinite-capable synthetic BTRC byte stream: `transactions`
/// four-event bus transactions (request, arbitration, transfer start,
/// completion) over the header's agent roster, round-robin.
pub struct SyntheticBtrc {
    /// Current chunk being served (the encoded header first, then one
    /// transaction's records at a time).
    chunk: Vec<u8>,
    pos: usize,
    next: u64,
    transactions: u64,
    agents: u32,
}

impl SyntheticBtrc {
    /// Builds the generator. Only the header is encoded up front.
    ///
    /// # Panics
    ///
    /// Panics if the header has zero agents (no roster to rotate over).
    #[must_use]
    pub fn new(header: &TraceHeader, transactions: u64) -> Self {
        assert!(header.agents > 0, "synthetic stream needs agents");
        let header_json = serde_json::to_string(header).expect("header serializes");
        let mut chunk = Vec::with_capacity(96 + header_json.len());
        chunk.extend_from_slice(b"BTRC");
        chunk.push(1);
        chunk.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
        chunk.extend_from_slice(header_json.as_bytes());
        SyntheticBtrc {
            chunk,
            pos: 0,
            next: 0,
            transactions,
            agents: header.agents,
        }
    }

    /// Trace events this stream will yield (four per transaction).
    #[must_use]
    pub fn events(&self) -> u64 {
        4 * self.transactions
    }

    fn push_record(&mut self, tag: u8, at: f64, agent: u32, extra: Option<f64>) {
        self.chunk.push(tag);
        self.chunk.extend_from_slice(&at.to_le_bytes());
        self.chunk.extend_from_slice(&agent.to_le_bytes());
        if let Some(x) = extra {
            self.chunk.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Refills the scratch buffer with the next transaction's records.
    fn refill(&mut self) -> bool {
        if self.next >= self.transactions {
            return false;
        }
        let i = self.next;
        self.next += 1;
        self.chunk.clear();
        self.pos = 0;
        let t = i as f64;
        let agent = 1 + (i as u32) % self.agents;
        self.push_record(0, t, agent, None); // request
        self.push_record(1, t, agent, Some(t + 0.25)); // arbitration
        self.push_record(2, t + 0.25, agent, None); // transfer start
        self.push_record(3, t + 1.0, agent, Some(0.75)); // completion
        true
    }
}

impl Read for SyntheticBtrc {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.chunk.len() && !self.refill() {
            return Ok(0);
        }
        let n = buf.len().min(self.chunk.len() - self.pos);
        buf[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{TraceReader, TRACE_SCHEMA};

    #[test]
    fn synthetic_stream_parses_end_to_end() {
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "rr".to_string(),
            agents: 3,
            seed: 0,
            warmup_samples: 0,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        };
        let stream = SyntheticBtrc::new(&header, 25);
        assert_eq!(stream.events(), 100);
        let mut reader = TraceReader::new(stream).unwrap();
        assert_eq!(reader.header().agents, 3);
        let mut n = 0;
        while let Some(e) = reader.next_event().unwrap() {
            assert!(e.at.as_f64() >= 0.0);
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
