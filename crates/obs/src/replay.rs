//! Trace replay: recomputing run-level aggregates from an exported
//! trace alone.
//!
//! The replay folds the trace's completions through the simulator's
//! own [`MeasurementWindow`] — the same warm-up discard, batch budget
//! and utilization division, fed the same waiting times in the same
//! order — so on a losslessly exported trace the recomputed mean wait
//! and utilization match the live `RunReport` bit-for-bit. `repro cell`
//! leans on this to check that an export carries every completion.

use busarb_stats::{BatchMeansConfig, Estimate, MeasurementWindow, Summary};
use busarb_types::{TraceEvent, TraceKind};

use crate::TraceHeader;

/// Aggregates recomputed from an exported trace.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Protocol name from the trace header.
    pub protocol: String,
    /// Batch-means estimate of the mean waiting time, if the trace
    /// contains enough post-warm-up completions to fill every batch.
    pub mean_wait: Option<Estimate>,
    /// Summary of the measured (post-warm-up, within-budget) waits.
    pub wait_summary: Summary,
    /// Bus utilization over the measurement interval.
    pub utilization: f64,
    /// Simulated time spanned by the measurement interval.
    pub measured_time: f64,
    /// Request-line assertions in the trace (whole run).
    pub requests: u64,
    /// Grants (arbitration-start events) in the trace (whole run).
    pub grants: u64,
    /// Transfer-start events in the trace (whole run).
    pub transfers: u64,
    /// Transfer completions in the trace (whole run).
    pub completions: u64,
    /// Coherence events in the trace (whole run; zero for open-loop
    /// workloads).
    pub coherence_events: u64,
    /// Completions consumed by the warm-up discard.
    pub warmup_consumed: u64,
    /// Measured completions per agent, indexed by `AgentId::index()`.
    pub per_agent_samples: Vec<u64>,
}

impl Replay {
    /// Measured completions (the samples behind [`Replay::mean_wait`]).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.wait_summary.count()
    }
}

/// Incremental trace replay.
///
/// Feed events one at a time with [`push`]; [`finish`] freezes the
/// aggregates into a [`Replay`]. All state is fixed-size (the batch-means
/// accumulator holds one sum per batch, the per-agent tallies one slot
/// per agent), so replaying a trace of any length takes constant memory —
/// this is what lets `busarb analyze` process traces that never fit in
/// RAM while still reproducing the live run's
/// aggregates bit-for-bit.
///
/// [`push`]: ReplayBuilder::push
/// [`finish`]: ReplayBuilder::finish
#[derive(Clone, Debug)]
pub struct ReplayBuilder {
    protocol: String,
    agents: u32,
    window: MeasurementWindow,
    requests: u64,
    grants: u64,
    transfers: u64,
    completions: u64,
    coherence_events: u64,
    per_agent_samples: Vec<u64>,
}

impl ReplayBuilder {
    /// Creates a replay accumulator from a trace header.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the header's
    /// batch-means configuration is invalid.
    pub fn new(header: &TraceHeader) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let config = BatchMeansConfig {
            batches: usize::try_from(header.batches)
                .map_err(|_| invalid("batch count exceeds usize".to_string()))?,
            samples_per_batch: usize::try_from(header.samples_per_batch)
                .map_err(|_| invalid("samples per batch exceeds usize".to_string()))?,
            confidence: header.confidence,
        };
        let window = MeasurementWindow::new(header.warmup_samples, config)
            .map_err(|e| invalid(format!("bad batch config: {e}")))?;
        Ok(ReplayBuilder {
            protocol: header.protocol.clone(),
            agents: header.agents,
            window,
            requests: 0,
            grants: 0,
            transfers: 0,
            completions: 0,
            coherence_events: 0,
            per_agent_samples: vec![0u64; header.agents as usize],
        })
    }

    /// Folds one event into the aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the event names
    /// an agent outside the header's roster.
    pub fn push(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        match event.kind {
            TraceKind::Request { .. } => self.requests += 1,
            TraceKind::ArbitrationStart { .. } => self.grants += 1,
            TraceKind::TransferStart { .. } => self.transfers += 1,
            TraceKind::Coherence { .. } => self.coherence_events += 1,
            TraceKind::TransferEnd { agent, wait } => {
                self.completions += 1;
                if agent.get() > self.agents {
                    // Static message: `push` sits on the per-event trace
                    // path and must not allocate to report bad input.
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "trace event names an agent outside the header's roster",
                    ));
                }
                if self.window.record(event.at, wait) {
                    self.per_agent_samples[agent.index()] += 1;
                }
            }
        }
        Ok(())
    }

    /// Freezes the accumulated state into run-level aggregates.
    #[must_use]
    pub fn finish(self) -> Replay {
        let batches = self.window.batches();
        Replay {
            protocol: self.protocol,
            mean_wait: batches.estimate(),
            wait_summary: *batches.overall(),
            utilization: self.window.utilization(),
            measured_time: self.window.measured_time().as_f64(),
            requests: self.requests,
            grants: self.grants,
            transfers: self.transfers,
            completions: self.completions,
            coherence_events: self.coherence_events,
            warmup_consumed: self.window.warmup_consumed(),
            per_agent_samples: self.per_agent_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRACE_SCHEMA;
    use busarb_types::{AgentId, Time};

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn header(agents: u32, warmup: u64, batches: u64, spb: u64) -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "synthetic".to_string(),
            agents,
            seed: 0,
            warmup_samples: warmup,
            batches,
            samples_per_batch: spb,
            confidence: 0.9,
        }
    }

    /// A synthetic saturated two-agent run: a completion every unit of
    /// time, alternating agents, constant wait 1.5.
    fn completions(n: usize) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent {
                at: Time::from(i as f64 + 1.0),
                kind: TraceKind::TransferEnd {
                    agent: id(1 + (i as u32) % 2),
                    wait: 1.5,
                },
            })
            .collect()
    }

    fn replay(h: &TraceHeader, events: &[TraceEvent]) -> Replay {
        let mut builder = ReplayBuilder::new(h).unwrap();
        for event in events {
            builder.push(event).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn replay_applies_warmup_and_batch_budget() {
        let h = header(2, 4, 2, 3);
        let events = completions(20);
        let r = replay(&h, &events);
        assert_eq!(r.completions, 20);
        assert_eq!(r.warmup_consumed, 4);
        // 2 batches x 3 samples measured; the rest ignored.
        assert_eq!(r.samples(), 6);
        assert_eq!(r.per_agent_samples, vec![3, 3]);
        let est = r.mean_wait.unwrap();
        assert_eq!(est.mean, 1.5);
        // warmup_end at t=4, last counted at t=10: 6 samples / 6 units.
        assert_eq!(r.measured_time, 6.0);
        assert_eq!(r.utilization, 1.0);
    }

    #[test]
    fn incomplete_batches_give_no_estimate() {
        let h = header(2, 0, 10, 100);
        let r = replay(&h, &completions(50));
        assert!(r.mean_wait.is_none());
        assert_eq!(r.samples(), 50);
    }

    #[test]
    fn out_of_roster_agent_is_rejected() {
        let h = header(1, 0, 2, 2);
        let event = TraceEvent {
            at: Time::from(1.0),
            kind: TraceKind::TransferEnd {
                agent: id(2),
                wait: 1.0,
            },
        };
        assert!(ReplayBuilder::new(&h).unwrap().push(&event).is_err());
    }

    #[test]
    fn bad_batch_config_is_rejected() {
        let h = header(1, 0, 1, 2); // fewer than 2 batches
        assert!(ReplayBuilder::new(&h).is_err());
    }
}
