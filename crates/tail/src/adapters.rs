//! Per-protocol trace adapters: protocol-specific views over the shared
//! grant stream.
//!
//! The generic analyzers (usage, fairness, replay) treat every protocol
//! identically; the adapter layer adds the quantity each protocol
//! *family* is actually about, mirroring how a bus profiler ships one
//! small analyzer per bus rather than one monolith:
//!
//! * **round-robin family** ([`RrRotation`]) — the distribution of
//!   rotation steps between consecutive winners. Under the paper's RR
//!   protocol the priority ring rotates to just past the last winner, so
//!   the step distance (winner index minus previous winner, mod N) is
//!   the rotation-position occupancy: heavy mass at small steps means
//!   neighbors of the last winner dominate.
//! * **FCFS family** ([`FcfsLag`]) — counter lag: how far each grant
//!   deviates from true first-come first-served order. A grant's lag is
//!   the number of *older* still-pending requests it overtook; an exact
//!   FCFS protocol shows lag 0 everywhere, while FCFS-1/FCFS-2's
//!   bounded-count approximations admit small nonzero lags.
//! * **assured-access / priority family** ([`BypassCounts`]) — bypass
//!   accounting: how often the protocol's priority or assured-access
//!   path let a younger request jump older ones, and which agents were
//!   jumped. This is the cost side of the AAP latency bound.
//!
//! Every adapter keeps O(agents) state and is allocation-free per event.

use busarb_obs::{HistogramSnapshot, LogHistogram};
use busarb_types::{TraceEvent, TraceKind};
use serde::Serialize;

/// A named scalar in an [`AdapterReport`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AdapterMetric {
    /// Metric name (stable, snake_case).
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// Frozen results of a protocol adapter.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AdapterReport {
    /// Adapter family: `rr-rotation`, `fcfs-lag`, or `assured-bypass`.
    pub adapter: String,
    /// Family-specific scalars, in a fixed documented order.
    pub metrics: Vec<AdapterMetric>,
    /// Meaning of the `counts` vector for this family.
    pub counts_label: String,
    /// Family-specific per-slot counts (see `counts_label`).
    pub counts: Vec<u64>,
    /// Family-specific distribution: rotation steps, FIFO lags, or
    /// requests bypassed per grant.
    pub histogram: HistogramSnapshot,
}

/// A streaming protocol-specific analyzer.
pub trait ProtocolAdapter {
    /// Folds one trace event into the adapter state. Allocation-free.
    fn on_event(&mut self, event: &TraceEvent);

    /// Snapshots the adapter into its report without consuming it.
    fn report(&self) -> AdapterReport;
}

/// Selects the adapter for a protocol slug (the trace header's
/// `protocol` field, as written by `Arbiter::name`). Unknown slugs get
/// the bypass adapter — FIFO-deviation accounting is meaningful for any
/// arbiter.
#[must_use]
pub fn adapter_for(protocol: &str, agents: u32) -> Box<dyn ProtocolAdapter> {
    match protocol {
        "rr" | "central-rr" | "rotating-rr" => Box::new(RrRotation::new(agents)),
        "fcfs-1" | "fcfs-2" | "central-fcfs" | "ticket-fcfs" => Box::new(FcfsLag::new(agents)),
        "aap-1" | "aap-2" | "aap-2m" | "fixed-priority" | "hybrid" | "adaptive" => {
            Box::new(BypassCounts::new(agents))
        }
        _ => Box::new(BypassCounts::new(agents)),
    }
}

/// Rotation-step occupancy for the round-robin family.
#[derive(Clone, Debug)]
pub struct RrRotation {
    agents: u32,
    prev_winner: Option<u32>,
    /// Grants per step distance `(winner - prev_winner) mod N`.
    step_counts: Vec<u64>,
    steps: LogHistogram,
    grants: u64,
    repeat_grants: u64,
    max_step: u64,
}

impl RrRotation {
    /// Creates the adapter for an `agents`-agent ring.
    #[must_use]
    pub fn new(agents: u32) -> Self {
        RrRotation {
            agents,
            prev_winner: None,
            step_counts: vec![0; agents as usize],
            steps: LogHistogram::new(),
            grants: 0,
            repeat_grants: 0,
            max_step: 0,
        }
    }
}

impl ProtocolAdapter for RrRotation {
    fn on_event(&mut self, event: &TraceEvent) {
        let TraceKind::ArbitrationStart { winner, .. } = event.kind else {
            return;
        };
        let cur = winner.index() as u32;
        self.grants += 1;
        if let Some(prev) = self.prev_winner {
            let step = u64::from((cur + self.agents - prev) % self.agents);
            if let Some(slot) = self.step_counts.get_mut(step as usize) {
                *slot += 1;
            }
            self.steps.record(step as f64);
            if step == 0 {
                self.repeat_grants += 1;
            }
            if step > self.max_step {
                self.max_step = step;
            }
        }
        self.prev_winner = Some(cur);
    }

    fn report(&self) -> AdapterReport {
        AdapterReport {
            adapter: "rr-rotation".to_string(),
            metrics: vec![
                AdapterMetric {
                    name: "mean_step".to_string(),
                    value: self.steps.mean(),
                },
                AdapterMetric {
                    name: "max_step".to_string(),
                    value: self.max_step as f64,
                },
                AdapterMetric {
                    name: "repeat_grants".to_string(),
                    value: self.repeat_grants as f64,
                },
            ],
            counts_label: "grants per rotation step distance".to_string(),
            counts: self.step_counts.clone(),
            histogram: HistogramSnapshot::of(&self.steps),
        }
    }
}

/// Arrival sequence number of an agent with no pending request. It is
/// larger than every real sequence number, so "pending and older than
/// `seq`" is the single compare `slot < seq`.
const NOT_PENDING: u64 = u64::MAX;

/// Shared arrival-order bookkeeping for the FIFO-deviation adapters.
///
/// One outstanding request per agent (the bus model guarantees an agent
/// cannot re-request before its transfer completes), so one dense word
/// per agent suffices: its pending request's arrival sequence number, or
/// [`NOT_PENDING`]. O(agents) memory, no allocation, and the per-grant
/// scan is a compare-and-add over contiguous words with no branch per
/// agent, which the compiler can vectorise.
#[derive(Clone, Debug)]
struct ArrivalOrder {
    next_seq: u64,
    pending_seq: Vec<u64>,
}

impl ArrivalOrder {
    fn new(agents: u32) -> Self {
        ArrivalOrder {
            next_seq: 0,
            pending_seq: vec![NOT_PENDING; agents as usize],
        }
    }

    fn on_request(&mut self, agent_index: usize) {
        if let Some(slot) = self.pending_seq.get_mut(agent_index) {
            *slot = self.next_seq;
            self.next_seq += 1;
        }
    }

    /// Retires the winner's pending request and returns its arrival
    /// sequence number, if the trace recorded one.
    fn on_grant(&mut self, agent_index: usize) -> Option<u64> {
        let slot = self.pending_seq.get_mut(agent_index)?;
        let seq = core::mem::replace(slot, NOT_PENDING);
        (seq != NOT_PENDING).then_some(seq)
    }

    /// Number of still-pending requests older than `seq`.
    fn older_than(&self, seq: u64) -> u64 {
        self.pending_seq
            .iter()
            .map(|&other| u64::from(other < seq))
            .sum()
    }
}

/// FIFO counter-lag accounting for the FCFS family.
#[derive(Clone, Debug)]
pub struct FcfsLag {
    order: ArrivalOrder,
    lags: LogHistogram,
    /// Grants to each agent that overtook at least one older request.
    overtaking_by: Vec<u64>,
    grants: u64,
    in_order: u64,
    max_lag: u64,
}

impl FcfsLag {
    /// Creates the adapter for an `agents`-agent roster.
    #[must_use]
    pub fn new(agents: u32) -> Self {
        FcfsLag {
            order: ArrivalOrder::new(agents),
            lags: LogHistogram::new(),
            overtaking_by: vec![0; agents as usize],
            grants: 0,
            in_order: 0,
            max_lag: 0,
        }
    }
}

impl ProtocolAdapter for FcfsLag {
    fn on_event(&mut self, event: &TraceEvent) {
        match event.kind {
            TraceKind::Request { agent } => self.order.on_request(agent.index()),
            TraceKind::ArbitrationStart { winner, .. } => {
                let idx = winner.index();
                self.grants += 1;
                let Some(seq) = self.order.on_grant(idx) else {
                    return;
                };
                let lag = self.order.older_than(seq);
                self.lags.record(lag as f64);
                if lag == 0 {
                    self.in_order += 1;
                } else {
                    if let Some(slot) = self.overtaking_by.get_mut(idx) {
                        *slot += 1;
                    }
                    if lag > self.max_lag {
                        self.max_lag = lag;
                    }
                }
            }
            TraceKind::TransferStart { .. }
            | TraceKind::TransferEnd { .. }
            | TraceKind::Coherence { .. } => {}
        }
    }

    fn report(&self) -> AdapterReport {
        let measured = self.lags.count();
        AdapterReport {
            adapter: "fcfs-lag".to_string(),
            metrics: vec![
                AdapterMetric {
                    name: "in_order_fraction".to_string(),
                    value: if measured == 0 {
                        1.0
                    } else {
                        self.in_order as f64 / measured as f64
                    },
                },
                AdapterMetric {
                    name: "max_lag".to_string(),
                    value: self.max_lag as f64,
                },
                AdapterMetric {
                    name: "mean_lag".to_string(),
                    value: self.lags.mean(),
                },
            ],
            counts_label: "out-of-order grants per agent".to_string(),
            counts: self.overtaking_by.clone(),
            histogram: HistogramSnapshot::of(&self.lags),
        }
    }
}

/// Bypass accounting for the assured-access and priority families.
#[derive(Clone, Debug)]
pub struct BypassCounts {
    order: ArrivalOrder,
    bypassed_per_grant: LogHistogram,
    /// Times each agent's older pending request was bypassed.
    bypassed: Vec<u64>,
    grants: u64,
    bypass_events: u64,
    bypassed_total: u64,
}

impl BypassCounts {
    /// Creates the adapter for an `agents`-agent roster.
    #[must_use]
    pub fn new(agents: u32) -> Self {
        BypassCounts {
            order: ArrivalOrder::new(agents),
            bypassed_per_grant: LogHistogram::new(),
            bypassed: vec![0; agents as usize],
            grants: 0,
            bypass_events: 0,
            bypassed_total: 0,
        }
    }
}

impl ProtocolAdapter for BypassCounts {
    fn on_event(&mut self, event: &TraceEvent) {
        match event.kind {
            TraceKind::Request { agent } => self.order.on_request(agent.index()),
            TraceKind::ArbitrationStart { winner, .. } => {
                self.grants += 1;
                let Some(seq) = self.order.on_grant(winner.index()) else {
                    return;
                };
                let mut bypassed_here = 0u64;
                for (count, &other) in self.bypassed.iter_mut().zip(&self.order.pending_seq) {
                    let older = u64::from(other < seq);
                    *count += older;
                    bypassed_here += older;
                }
                self.bypassed_per_grant.record(bypassed_here as f64);
                if bypassed_here > 0 {
                    self.bypass_events += 1;
                    self.bypassed_total += bypassed_here;
                }
            }
            TraceKind::TransferStart { .. }
            | TraceKind::TransferEnd { .. }
            | TraceKind::Coherence { .. } => {}
        }
    }

    fn report(&self) -> AdapterReport {
        AdapterReport {
            adapter: "assured-bypass".to_string(),
            metrics: vec![
                AdapterMetric {
                    name: "bypass_events".to_string(),
                    value: self.bypass_events as f64,
                },
                AdapterMetric {
                    name: "bypassed_total".to_string(),
                    value: self.bypassed_total as f64,
                },
                AdapterMetric {
                    name: "bypass_fraction".to_string(),
                    value: if self.grants == 0 {
                        0.0
                    } else {
                        self.bypass_events as f64 / self.grants as f64
                    },
                },
            ],
            counts_label: "times each agent was bypassed".to_string(),
            counts: self.bypassed.clone(),
            histogram: HistogramSnapshot::of(&self.bypassed_per_grant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_types::{AgentId, Time};
    use proptest::prelude::*;

    fn req(at: f64, agent: u32) -> TraceEvent {
        TraceEvent {
            at: Time::from(at),
            kind: TraceKind::Request {
                agent: AgentId::new(agent).unwrap(),
            },
        }
    }

    fn grant(at: f64, winner: u32) -> TraceEvent {
        TraceEvent {
            at: Time::from(at),
            kind: TraceKind::ArbitrationStart {
                winner: AgentId::new(winner).unwrap(),
                completes: Time::from(at + 0.5),
            },
        }
    }

    #[test]
    fn rr_rotation_tracks_step_distances() {
        let mut a: Box<dyn ProtocolAdapter> = adapter_for("rr", 4);
        // Winners 1, 2, 3, 1: steps 1, 1, 2.
        for (t, w) in [(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 1)] {
            a.on_event(&grant(t, w));
        }
        let r = a.report();
        assert_eq!(r.adapter, "rr-rotation");
        assert_eq!(r.counts, vec![0, 2, 1, 0]);
        assert_eq!(r.histogram.count, 3);
        let by_name = |n: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| m.value)
                .unwrap()
        };
        assert!((by_name("mean_step") - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(by_name("max_step"), 2.0);
        assert_eq!(by_name("repeat_grants"), 0.0);
    }

    #[test]
    fn fcfs_lag_counts_overtaken_requests() {
        let mut a: Box<dyn ProtocolAdapter> = adapter_for("fcfs-1", 3);
        // Agent 1 arrives first, then 2; agent 2 wins first: lag 1.
        a.on_event(&req(0.0, 1));
        a.on_event(&req(0.1, 2));
        a.on_event(&grant(0.2, 2));
        a.on_event(&grant(0.3, 1));
        let r = a.report();
        assert_eq!(r.adapter, "fcfs-lag");
        assert_eq!(r.histogram.count, 2);
        assert_eq!(r.histogram.max, 1.0);
        assert_eq!(r.counts, vec![0, 1, 0]); // agent 2 (index 1) overtook
        let in_order = r.metrics.iter().find(|m| m.name == "in_order_fraction");
        assert_eq!(in_order.map(|m| m.value), Some(0.5));
    }

    #[test]
    fn bypass_counts_attribute_to_the_jumped_agent() {
        let mut a: Box<dyn ProtocolAdapter> = adapter_for("aap-2", 3);
        a.on_event(&req(0.0, 1));
        a.on_event(&req(0.1, 2));
        a.on_event(&req(0.2, 3));
        // Agent 3 (youngest) wins: bypasses agents 1 and 2.
        a.on_event(&grant(0.3, 3));
        let r = a.report();
        assert_eq!(r.adapter, "assured-bypass");
        assert_eq!(r.counts, vec![1, 1, 0]);
        assert_eq!(r.histogram.max, 2.0);
        let total = r.metrics.iter().find(|m| m.name == "bypassed_total");
        assert_eq!(total.map(|m| m.value), Some(2.0));
    }

    #[test]
    fn every_protocol_slug_selects_an_adapter_family() {
        let families: Vec<(&str, &str)> = [
            ("rr", "rr-rotation"),
            ("central-rr", "rr-rotation"),
            ("rotating-rr", "rr-rotation"),
            ("fcfs-1", "fcfs-lag"),
            ("fcfs-2", "fcfs-lag"),
            ("central-fcfs", "fcfs-lag"),
            ("ticket-fcfs", "fcfs-lag"),
            ("aap-1", "assured-bypass"),
            ("aap-2", "assured-bypass"),
            ("aap-2m", "assured-bypass"),
            ("fixed-priority", "assured-bypass"),
            ("hybrid", "assured-bypass"),
            ("adaptive", "assured-bypass"),
            ("some-future-protocol", "assured-bypass"),
        ]
        .to_vec();
        for (slug, family) in families {
            let r = adapter_for(slug, 2).report();
            assert_eq!(r.adapter, family, "slug {slug}");
        }
    }

    /// Reference model of the arrival-order scan: one `Option` per
    /// agent, `None` when nothing is pending, and a branch per agent.
    struct OptionOrder {
        next_seq: u64,
        pending: Vec<Option<u64>>,
    }

    impl OptionOrder {
        fn request(&mut self, idx: usize) {
            if let Some(slot) = self.pending.get_mut(idx) {
                *slot = Some(self.next_seq);
                self.next_seq += 1;
            }
        }

        /// Retires the winner's request and returns the agents whose
        /// older requests it overtook; `None` when none was recorded.
        fn grant(&mut self, idx: usize) -> Option<Vec<usize>> {
            let seq = self.pending.get_mut(idx)?.take()?;
            let older = |i: &usize| matches!(self.pending[*i], Some(other) if other < seq);
            Some((0..self.pending.len()).filter(older).collect())
        }
    }

    fn metric(name: &str, value: f64) -> AdapterMetric {
        AdapterMetric {
            name: name.to_string(),
            value,
        }
    }

    /// The `fcfs-lag` and `assured-bypass` reports, folded from the
    /// reference model by the metric definitions in the adapters' docs.
    fn model_reports(agents: u32, events: &[TraceEvent]) -> [AdapterReport; 2] {
        let n = agents as usize;
        let mut order = OptionOrder {
            next_seq: 0,
            pending: vec![None; n],
        };
        let mut lags = LogHistogram::new();
        let (mut overtaking_by, mut bypassed) = (vec![0; n], vec![0; n]);
        let (mut grants, mut in_order, mut max_lag, mut bypass_events) = (0u64, 0u64, 0u64, 0u64);
        for event in events {
            match event.kind {
                TraceKind::Request { agent } => order.request(agent.index()),
                TraceKind::ArbitrationStart { winner, .. } => {
                    grants += 1;
                    let Some(older) = order.grant(winner.index()) else {
                        continue;
                    };
                    let lag = older.len() as u64;
                    lags.record(lag as f64);
                    if lag == 0 {
                        in_order += 1;
                    } else {
                        overtaking_by[winner.index()] += 1;
                        max_lag = max_lag.max(lag);
                        bypass_events += 1;
                    }
                    for i in older {
                        bypassed[i] += 1;
                    }
                }
                _ => {}
            }
        }
        let measured = lags.count();
        let histogram = HistogramSnapshot::of(&lags);
        let in_order_fraction = if measured == 0 {
            1.0
        } else {
            in_order as f64 / measured as f64
        };
        let bypass_fraction = if grants == 0 {
            0.0
        } else {
            bypass_events as f64 / grants as f64
        };
        [
            AdapterReport {
                adapter: "fcfs-lag".to_string(),
                metrics: vec![
                    metric("in_order_fraction", in_order_fraction),
                    metric("max_lag", max_lag as f64),
                    metric("mean_lag", lags.mean()),
                ],
                counts_label: "out-of-order grants per agent".to_string(),
                counts: overtaking_by,
                histogram: histogram.clone(),
            },
            AdapterReport {
                adapter: "assured-bypass".to_string(),
                metrics: vec![
                    metric("bypass_events", bypass_events as f64),
                    metric("bypassed_total", bypassed.iter().sum::<u64>() as f64),
                    metric("bypass_fraction", bypass_fraction),
                ],
                counts_label: "times each agent was bypassed".to_string(),
                counts: bypassed,
                histogram,
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dense scan reports exactly what the `Option` model does,
        /// on streams with repeated requests and with grants whose
        /// request the trace never recorded (a trace cut mid-run).
        #[test]
        fn dense_arrival_scan_matches_the_option_model(
            agents in prop::sample::select(vec![1u32, 2, 5, 64, 128]),
            steps in prop::collection::vec((any::<bool>(), any::<u32>()), 0..600),
        ) {
            let events: Vec<TraceEvent> = steps
                .iter()
                .enumerate()
                .map(|(t, &(is_grant, raw))| {
                    let agent = 1 + raw % agents;
                    if is_grant { grant(t as f64, agent) } else { req(t as f64, agent) }
                })
                .collect();
            let mut fcfs = FcfsLag::new(agents);
            let mut bypass = BypassCounts::new(agents);
            for e in &events {
                fcfs.on_event(e);
                bypass.on_event(e);
            }
            let [fcfs_model, bypass_model] = model_reports(agents, &events);
            prop_assert_eq!(fcfs.report(), fcfs_model);
            prop_assert_eq!(bypass.report(), bypass_model);
        }
    }
}
