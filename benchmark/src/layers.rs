//! Traced mode: where the event loop's host time goes, crate by crate.
//!
//! For each traced cell the benchmark
//!
//! 1. times the live run untraced, then once more with the in-memory
//!    trace on (`sim.trace_overhead`);
//! 2. re-drives the loop's decisions through the public API of each layer
//!    — draw engine, calendar, arbiter, coherence caches — checking every
//!    grant and coherence transition against the trace, and records the
//!    call stream each layer received ([`Recording`]);
//! 3. replays each layer's stream alone through that layer's public
//!    functions, timing spans around batches of calls (one clock read
//!    costs about as much as one call), and subtracts an empty pass over
//!    the same stream;
//! 4. proves the replays drove the calls the live loop made: every
//!    replayed grant matches the trace's winner, the replayed
//!    `MetricsRegistry::snapshot()` equals the report's metrics, the
//!    replayed `BatchMeans` estimate equals the report's mean wait bit for
//!    bit, and the replayed MESI transitions equal the trace's coherence
//!    records. A replay that fails any of these is a failed cell, not a
//!    number;
//! 5. exports the trace through the binary sink and streams it back
//!    through the analyzer's stages the same way.
//!
//! A layer's share is its replay time over the live run's time; what no
//! layer accounts for is the runner's own glue (`sim.unattributed.share`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

use busarb_core::{Arbiter, Grant, ProtocolKind};
use busarb_mem::CoherenceSystem;
use busarb_obs::{
    open_file_sink, open_trace, MetricsRegistry, ReplayBuilder, TraceFormat, TraceHeader,
    TRACE_SCHEMA,
};
use busarb_sim::{ArbitrationStartRule, CalendarQueue, Event, RunReport, Simulation, SystemConfig};
use busarb_stats::{BatchMeans, BatchTally, Summary};
use busarb_tail::{adapter_for, BusUsage, FairnessTracker};
use busarb_types::{AgentId, CoherenceOp, Priority, Time, TraceEvent, TraceKind};
use busarb_workload::{DrawEngine, DrawEngineKind, FastEngine, ReferenceEngine};

use crate::cells::{self, CellSpec, Pins};
use crate::{median, ratio, Context, Metric, Options, Outcome, Span, Workload};

/// In-memory trace capacity: far above any traced cell's event count, so
/// nothing is dropped (a dropped event fails the cell).
const TRACE_LIMIT: usize = 1 << 26;
/// Live, traced and `analyze_path` repetitions per cell (median taken).
const LIVE_REPS: usize = 3;
/// Replays per layer and cell, each paired with an empty pass.
const REPLAY_REPS: usize = 5;
/// Calls per timed span.
const BATCH: usize = 256;

#[derive(Clone, Copy, Debug)]
enum DrawOp {
    Think(AgentId),
    Uniform(AgentId),
}

#[derive(Clone, Copy, Debug)]
enum CalOp {
    Arrival(Time, AgentId),
    Completion(Time),
    End(Time),
    Pop,
}

#[derive(Clone, Copy, Debug)]
enum ArbOp {
    Request(Time, AgentId),
    Pending,
    /// An arbitration and the trace's winner for it.
    Arbitrate(Time, AgentId),
}

#[derive(Clone, Copy, Debug)]
enum MetricOp {
    Event(Time),
    Request(u32),
    Grant(Time, u32),
    TransferStart,
    Completion(AgentId, f64),
    Coherence(AgentId, CoherenceOp),
    Invalidation(AgentId),
}

#[derive(Clone, Copy, Debug)]
enum StatsOp {
    Sample(AgentId, f64),
    CloseBatch,
}

#[derive(Clone, Copy, Debug)]
enum MemOp {
    NextMiss(AgentId),
    /// A completed miss and the trace's record of what it did.
    Complete(AgentId, CoherenceOp, u32),
}

/// The call stream one run made into each layer.
#[derive(Debug, Default)]
struct Recording {
    draws: Vec<DrawOp>,
    /// Sum of every drawn value in draw order; a replay must match it bit
    /// for bit.
    draw_sum: f64,
    /// The uniforms the coherence model consumed, in order, so its replay
    /// runs without the draw engine.
    uniforms: Vec<f64>,
    calendar: Vec<CalOp>,
    arbiter: Vec<ArbOp>,
    metrics: Vec<MetricOp>,
    stats: Vec<StatsOp>,
    mem: Vec<MemOp>,
    events: u64,
    grants: u64,
    arbitrations: u64,
    refs: u64,
    end_time: Time,
}

/// What the live run's trace says happened, in order.
struct Facts {
    winners: Vec<AgentId>,
    coherence: Vec<(AgentId, CoherenceOp, u32)>,
}

impl Facts {
    fn of(trace: &[TraceEvent]) -> Self {
        let mut facts = Facts {
            winners: Vec::new(),
            coherence: Vec::new(),
        };
        for e in trace {
            match e.kind {
                TraceKind::ArbitrationStart { winner, .. } => facts.winners.push(winner),
                TraceKind::Coherence {
                    agent,
                    op,
                    invalidated,
                } => facts.coherence.push((agent, op, invalidated)),
                _ => {}
            }
        }
        facts
    }
}

/// Re-drives the event loop's decisions for one cell through the layers'
/// public API, recording every call each layer receives. It follows the
/// simulator's runner for the configurations the benchmark traces (greedy
/// start, fixed overhead, one outstanding request, no urgent traffic, up
/// to 64 agents) and stops at the first decision that disagrees with the
/// trace.
struct Mirror<'a, A, E> {
    config: &'a SystemConfig,
    facts: &'a Facts,
    arbiter: A,
    draws: E,
    queue: CalendarQueue<1>,
    mem: Option<CoherenceSystem>,
    transferring: Option<AgentId>,
    arb_in_flight: Option<Grant>,
    next_master: Option<Grant>,
    arrived: Vec<Option<Time>>,
    warmup_remaining: usize,
    batch_countdown: usize,
    samples: usize,
    coherence_seen: usize,
    rec: Recording,
}

impl<'a, A: Arbiter, E: DrawEngine> Mirror<'a, A, E> {
    fn new(config: &'a SystemConfig, facts: &'a Facts, arbiter: A) -> Self {
        let n = config.scenario.agents();
        Mirror {
            config,
            facts,
            arbiter,
            draws: E::for_scenario(config.seed, &config.scenario),
            queue: CalendarQueue::new(),
            mem: config
                .scenario
                .coherence()
                .map(|c| CoherenceSystem::new(n, *c)),
            transferring: None,
            arb_in_flight: None,
            next_master: None,
            arrived: vec![None; n as usize],
            warmup_remaining: config.warmup_samples,
            batch_countdown: config.batches.samples_per_batch,
            samples: 0,
            coherence_seen: 0,
            rec: Recording::default(),
        }
    }

    fn think(&mut self, agent: AgentId) -> Time {
        self.rec.draws.push(DrawOp::Think(agent));
        let t = self.draws.think_time(agent);
        self.rec.draw_sum += t.as_f64();
        t
    }

    fn uniform(&mut self, agent: AgentId) -> f64 {
        self.rec.draws.push(DrawOp::Uniform(agent));
        let u = self.draws.uniform(agent);
        self.rec.draw_sum += u;
        u
    }

    fn next_miss(&mut self, agent: AgentId) -> Result<Time, String> {
        let mem = self
            .mem
            .as_mut()
            .ok_or("next miss without a coherence model")?;
        let rec = &mut self.rec;
        let draws = &mut self.draws;
        rec.mem.push(MemOp::NextMiss(agent));
        let gap = mem.next_miss(agent, |a| {
            rec.draws.push(DrawOp::Uniform(a));
            let u = draws.uniform(a);
            rec.draw_sum += u;
            rec.uniforms.push(u);
            u
        });
        rec.refs += (gap.as_f64() / mem.config().reference_time).round() as u64;
        Ok(gap)
    }

    fn schedule_arrival(&mut self, at: Time, agent: AgentId) {
        self.rec.calendar.push(CalOp::Arrival(at, agent));
        self.queue.schedule_arrival(at, agent);
    }

    fn run(mut self) -> Result<Recording, String> {
        let n = self.config.scenario.agents();
        for agent in AgentId::all(n) {
            let mut first = if self.mem.is_some() {
                self.next_miss(agent)?
            } else {
                self.think(agent)
            };
            if self.config.initial_stagger {
                first = first * self.uniform(agent);
            }
            self.schedule_arrival(first, agent);
        }
        let total = self.config.batches.total_samples();
        loop {
            self.rec.calendar.push(CalOp::Pop);
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            self.rec.events += 1;
            self.rec.metrics.push(MetricOp::Event(t));
            match event {
                Event::RequestArrival(agent) => self.issue(t, agent)?,
                Event::ArbitrationComplete => {
                    self.next_master = self.arb_in_flight.take();
                    if self.transferring.is_none() {
                        self.start_transfer(t)?;
                    }
                }
                Event::TransactionEnd => self.transaction_end(t)?,
            }
            if self.samples == total {
                break;
            }
        }
        Ok(self.rec)
    }

    fn issue(&mut self, t: Time, agent: AgentId) -> Result<(), String> {
        let slot = &mut self.arrived[agent.index()];
        if slot.is_some() {
            return Err(format!(
                "agent {agent} requested with a request outstanding"
            ));
        }
        *slot = Some(t);
        self.rec.arbiter.push(ArbOp::Request(t, agent));
        self.arbiter.on_request(t, agent, Priority::Ordinary);
        self.rec.arbiter.push(ArbOp::Pending);
        let pending = self.arbiter.pending() as u32;
        self.rec.metrics.push(MetricOp::Request(pending));
        self.try_start(t)
    }

    fn try_start(&mut self, t: Time) -> Result<(), String> {
        if self.arb_in_flight.is_some() || self.next_master.is_some() {
            return Ok(());
        }
        self.rec.arbiter.push(ArbOp::Pending);
        if self.arbiter.pending() == 0 {
            return Ok(());
        }
        let k = self.rec.grants as usize;
        let expected = *self.facts.winners.get(k).ok_or_else(|| {
            format!(
                "grant {k} is beyond the trace's {} grants",
                self.facts.winners.len()
            )
        })?;
        self.rec.arbiter.push(ArbOp::Arbitrate(t, expected));
        let grant = self
            .arbiter
            .arbitrate(t)
            .ok_or_else(|| format!("no grant at {t} with requests pending"))?;
        if grant.agent != expected {
            return Err(format!(
                "grant {k} went to agent {} but the trace's winner is {expected}",
                grant.agent
            ));
        }
        self.rec.grants += 1;
        self.rec.arbitrations += u64::from(grant.arbitrations);
        self.rec
            .metrics
            .push(MetricOp::Grant(t, grant.arbitrations));
        let settles = t + self.config.arbitration_overhead * f64::from(grant.arbitrations);
        self.arb_in_flight = Some(grant);
        self.rec.calendar.push(CalOp::Completion(settles));
        self.queue.schedule(settles, Event::ArbitrationComplete);
        Ok(())
    }

    fn start_transfer(&mut self, t: Time) -> Result<(), String> {
        let grant = self
            .next_master
            .take()
            .ok_or("transfer without an elected master")?;
        self.transferring = Some(grant.agent);
        self.rec.metrics.push(MetricOp::TransferStart);
        let end = t + Time::TRANSACTION;
        self.rec.calendar.push(CalOp::End(end));
        self.queue.schedule(end, Event::TransactionEnd);
        self.try_start(t)
    }

    fn transaction_end(&mut self, t: Time) -> Result<(), String> {
        let agent = self
            .transferring
            .take()
            .ok_or("transaction end without a transfer")?;
        let arrived = self.arrived[agent.index()]
            .take()
            .ok_or_else(|| format!("agent {agent} completed without a request"))?;
        let wait = (t - arrived).as_f64();
        self.rec.metrics.push(MetricOp::Completion(agent, wait));
        self.sample(t, agent, wait);
        if self.mem.is_some() {
            self.complete_coherence(t, agent)?;
        } else {
            let next = self.think(agent);
            self.schedule_arrival(t + next, agent);
        }
        if self.next_master.is_some() {
            self.start_transfer(t)
        } else {
            self.try_start(t)
        }
    }

    fn sample(&mut self, t: Time, agent: AgentId, wait: f64) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            return;
        }
        if self.samples == self.config.batches.total_samples() {
            return;
        }
        self.rec.stats.push(StatsOp::Sample(agent, wait));
        self.samples += 1;
        self.rec.end_time = t;
        self.batch_countdown -= 1;
        if self.batch_countdown == 0 {
            self.rec.stats.push(StatsOp::CloseBatch);
            self.batch_countdown = self.config.batches.samples_per_batch;
        }
    }

    fn complete_coherence(&mut self, t: Time, agent: AgentId) -> Result<(), String> {
        let k = self.coherence_seen;
        let expected = *self
            .facts
            .coherence
            .get(k)
            .ok_or_else(|| format!("coherence completion {k} is beyond the trace"))?;
        self.coherence_seen += 1;
        let mem = self
            .mem
            .as_mut()
            .ok_or("completion without a coherence model")?;
        let metrics = &mut self.rec.metrics;
        let done = mem.complete(agent, |victim| metrics.push(MetricOp::Invalidation(victim)));
        if (agent, done.op, done.invalidated) != expected {
            return Err(format!(
                "coherence completion {k}: agent {agent} {} invalidating {} but the trace has {expected:?}",
                done.op.slug(),
                done.invalidated
            ));
        }
        self.rec
            .mem
            .push(MemOp::Complete(agent, done.op, done.invalidated));
        self.rec.metrics.push(MetricOp::Coherence(agent, done.op));
        let gap = self.next_miss(agent)?;
        self.schedule_arrival(t + gap, agent);
        Ok(())
    }
}

/// Time and calls attributed to one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    /// Replay time minus the empty pass, in ns.
    pub ns: f64,
    /// Calls replayed.
    pub calls: f64,
}

impl Bucket {
    fn add(&mut self, other: Bucket) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    fn ns_per_call(&self) -> f64 {
        ratio(self.ns, self.calls)
    }
}

/// Per-layer sums over the traced cells.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Median untraced run time, ns.
    pub live_ns: f64,
    /// Median traced run time, ns.
    pub traced_ns: f64,
    /// Simulated events.
    pub events: f64,
    /// Grants issued.
    pub grants: f64,
    /// Line arbitrations (RR-3 wraps and fairness releases count twice).
    pub arbitrations: f64,
    /// Draw engine.
    pub draw: Bucket,
    /// Event calendar.
    pub calendar: Bucket,
    /// Arbiter, whole stream.
    pub core: Bucket,
    /// Arbiter `on_request`, timed per call.
    pub on_request: Bucket,
    /// Arbiter `arbitrate`, timed per call.
    pub arbitrate: Bucket,
    /// The two per-call figures for each protocol slug.
    pub per_slug: BTreeMap<&'static str, (Bucket, Bucket)>,
    /// Metrics registry.
    pub metrics: Bucket,
    /// Batch means, tallies and summaries (calls = samples).
    pub stats: Bucket,
    /// Coherence caches (calls = misses).
    pub mem: Bucket,
    /// References executed by the coherence model.
    pub mem_refs: f64,
    /// Binary trace export (calls = records).
    pub export: Bucket,
    /// Bytes the export wrote.
    pub export_bytes: f64,
    /// Whether the live loop itself exported (so export is one of its
    /// layers).
    pub export_in_loop: bool,
    /// Trace decoding (calls = records).
    pub stream: Bucket,
    /// Replay accounting.
    pub replay: Bucket,
    /// Bus-usage classification.
    pub usage: Bucket,
    /// Grant fairness (calls = grants).
    pub fairness: Bucket,
    /// Protocol adapter.
    pub adapters: Bucket,
    /// Median `analyze_path` time, ns.
    pub analyze_ns: f64,
}

impl LayerTotals {
    fn add(&mut self, o: &LayerTotals) {
        self.live_ns += o.live_ns;
        self.traced_ns += o.traced_ns;
        self.events += o.events;
        self.grants += o.grants;
        self.arbitrations += o.arbitrations;
        for (mine, theirs) in [
            (&mut self.draw, o.draw),
            (&mut self.calendar, o.calendar),
            (&mut self.core, o.core),
            (&mut self.on_request, o.on_request),
            (&mut self.arbitrate, o.arbitrate),
            (&mut self.metrics, o.metrics),
            (&mut self.stats, o.stats),
            (&mut self.mem, o.mem),
            (&mut self.export, o.export),
            (&mut self.stream, o.stream),
            (&mut self.replay, o.replay),
            (&mut self.usage, o.usage),
            (&mut self.fairness, o.fairness),
            (&mut self.adapters, o.adapters),
        ] {
            mine.add(theirs);
        }
        for (slug, (req, arb)) in &o.per_slug {
            let entry = self.per_slug.entry(slug).or_default();
            entry.0.add(*req);
            entry.1.add(*arb);
        }
        self.mem_refs += o.mem_refs;
        self.export_bytes += o.export_bytes;
        self.export_in_loop |= o.export_in_loop;
        self.analyze_ns += o.analyze_ns;
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. `stages` holds
    /// the `repro` stage shares and `jobs2_speedup` (zeros for workloads
    /// that run no `repro`).
    #[must_use]
    pub fn metrics(&self, stages: &[(&str, f64)], jobs2_speedup: f64) -> Vec<Metric> {
        let share = |b: &Bucket| ratio(b.ns, self.live_ns);
        let mut in_loop = share(&self.draw)
            + share(&self.calendar)
            + share(&self.core)
            + share(&self.metrics)
            + share(&self.stats)
            + share(&self.mem);
        if self.export_in_loop {
            in_loop += share(&self.export);
        }
        let tail_ns =
            self.stream.ns + self.replay.ns + self.usage.ns + self.fairness.ns + self.adapters.ns;
        let mut out = vec![
            Metric::new("sim.ns_per_event", ratio(self.live_ns, self.events), "ns"),
            Metric::new(
                "sim.trace_overhead",
                ratio(self.traced_ns, self.live_ns),
                "x",
            ),
            Metric::new("sim.unattributed.share", 1.0 - in_loop, "share"),
            Metric::new(
                "workload.draw.calls_per_event",
                ratio(self.draw.calls, self.events),
                "1/event",
            ),
            Metric::new("workload.draw.ns_per_call", self.draw.ns_per_call(), "ns"),
            Metric::new("workload.draw.share", share(&self.draw), "share"),
            Metric::new(
                "sim.calendar.ops_per_event",
                ratio(self.calendar.calls, self.events),
                "1/event",
            ),
            Metric::new("sim.calendar.ns_per_op", self.calendar.ns_per_call(), "ns"),
            Metric::new("sim.calendar.share", share(&self.calendar), "share"),
            Metric::new(
                "core.on_request.ns_per_call",
                self.on_request.ns_per_call(),
                "ns",
            ),
            Metric::new(
                "core.arbitrate.ns_per_call",
                self.arbitrate.ns_per_call(),
                "ns",
            ),
            Metric::new(
                "core.arbitrations_per_grant",
                ratio(self.arbitrations, self.grants),
                "1/grant",
            ),
            Metric::new("core.share", share(&self.core), "share"),
        ];
        for &kind in ProtocolKind::all() {
            let slug = busarb_experiments::protocol_slug(kind);
            let (req, arb) = self.per_slug.get(slug).copied().unwrap_or_default();
            out.push(Metric::new(
                format!("core.arbitrate.ns_per_call.{slug}"),
                arb.ns_per_call(),
                "ns",
            ));
            out.push(Metric::new(
                format!("core.on_request.ns_per_call.{slug}"),
                req.ns_per_call(),
                "ns",
            ));
        }
        out.extend([
            Metric::new(
                "obs.metrics.calls_per_event",
                ratio(self.metrics.calls, self.events),
                "1/event",
            ),
            Metric::new("obs.metrics.ns_per_call", self.metrics.ns_per_call(), "ns"),
            Metric::new("obs.metrics.share", share(&self.metrics), "share"),
            Metric::new("stats.record.ns_per_call", self.stats.ns_per_call(), "ns"),
            Metric::new("stats.share", share(&self.stats), "share"),
            Metric::new(
                "mem.refs_per_miss",
                ratio(self.mem_refs, self.mem.calls),
                "1/miss",
            ),
            Metric::new("mem.share", share(&self.mem), "share"),
            Metric::new("obs.export.ns_per_record", self.export.ns_per_call(), "ns"),
            Metric::new(
                "obs.export.bytes_per_record",
                ratio(self.export_bytes, self.export.calls),
                "B",
            ),
            Metric::new("obs.export.share", share(&self.export), "share"),
            Metric::new("obs.stream.ns_per_event", self.stream.ns_per_call(), "ns"),
            Metric::new("obs.replay.ns_per_event", self.replay.ns_per_call(), "ns"),
            Metric::new("tail.usage.ns_per_event", self.usage.ns_per_call(), "ns"),
            Metric::new(
                "tail.fairness.ns_per_grant",
                self.fairness.ns_per_call(),
                "ns",
            ),
            Metric::new(
                "tail.adapters.ns_per_event",
                self.adapters.ns_per_call(),
                "ns",
            ),
            Metric::new(
                "tail.unattributed.share",
                1.0 - ratio(tail_ns, self.analyze_ns),
                "share",
            ),
        ]);
        for (stage, share) in stages {
            out.push(Metric::new(
                format!("experiments.{stage}.share"),
                *share,
                "share",
            ));
        }
        out.push(Metric::new("experiments.jobs2_speedup", jobs2_speedup, "x"));
        out
    }
}

/// Calls `call` on every op, timing spans of [`BATCH`] calls; returns the
/// summed span time in ns.
fn batched<T: Copy>(ops: &[T], mut call: impl FnMut(T)) -> u64 {
    let mut busy = 0u64;
    for chunk in ops.chunks(BATCH) {
        let start = Instant::now();
        for &op in chunk {
            call(op);
        }
        busy += start.elapsed().as_nanos() as u64;
    }
    busy
}

/// The empty pass: the same stream and spans with no layer call.
fn empty_pass<T: Copy>(ops: &[T]) -> u64 {
    batched(ops, |op| {
        black_box(op);
    })
}

/// Times one cell's layer replays and keeps their spans.
struct Meter<'a> {
    cell: &'a str,
    ctx: &'a Context,
    spans: &'a mut Vec<Span>,
}

impl Meter<'_> {
    /// Replays a layer whose empty pass walks the same `ops`; see
    /// [`Meter::timed`].
    fn layer<T: Copy>(
        &mut self,
        layer: &str,
        ops: &[T],
        calls: usize,
        replay: impl FnMut() -> Result<u64, String>,
    ) -> Result<Bucket, String> {
        self.timed(layer, calls, || empty_pass(ops), replay)
    }

    /// Replays a layer [`REPLAY_REPS`] times, each after an empty pass,
    /// and returns the median replay time minus the median empty time for
    /// `calls` calls. Each replay is recorded as a span.
    fn timed(
        &mut self,
        layer: &str,
        calls: usize,
        mut empty: impl FnMut() -> u64,
        mut replay: impl FnMut() -> Result<u64, String>,
    ) -> Result<Bucket, String> {
        let mut real = Vec::with_capacity(REPLAY_REPS);
        let mut base = Vec::with_capacity(REPLAY_REPS);
        for _ in 0..REPLAY_REPS {
            base.push(empty() as f64);
            let start_ns = self.ctx.now_ns();
            let busy = replay().map_err(|e| format!("{layer} replay: {e}"))?;
            self.spans.push(Span {
                name: format!("layer.{layer}"),
                parent: self.cell.to_string(),
                start_ns,
                end_ns: self.ctx.now_ns(),
                busy_ns: busy,
                calls: calls as u64,
            });
            real.push(busy as f64);
        }
        Ok(Bucket {
            ns: median(&real) - median(&base),
            calls: calls as f64,
        })
    }
}

/// Builds the concrete arbiter for `kind` — the same types
/// `Simulation::run_kind` monomorphizes over — and hands it to `visit`.
trait Visit {
    type Out;
    fn visit<A: Arbiter + Clone>(self, arbiter: A) -> Self::Out;
}

fn dispatch<V: Visit>(kind: ProtocolKind, n: u32, v: V) -> Result<V::Out, String> {
    use busarb_core::{
        AdaptiveArbiter, AssuredAccess, BatchingRule, CentralFcfs, CentralRoundRobin,
        CounterStrategy, DistributedFcfs, DistributedRoundRobin, FixedPriority, HybridRrFcfs,
        RotatingPriority, TicketFcfs,
    };
    let e = |e: busarb_types::Error| e.to_string();
    Ok(match kind {
        ProtocolKind::FixedPriority => v.visit(FixedPriority::new(n).map_err(e)?),
        ProtocolKind::AssuredAccessIdleBatch => {
            v.visit(AssuredAccess::new(n, BatchingRule::IdleBatch).map_err(e)?)
        }
        ProtocolKind::AssuredAccessFairnessRelease => {
            v.visit(AssuredAccess::new(n, BatchingRule::FairnessRelease).map_err(e)?)
        }
        ProtocolKind::AssuredAccessClosedBatch => {
            v.visit(AssuredAccess::new(n, BatchingRule::ClosedBatch).map_err(e)?)
        }
        ProtocolKind::RoundRobin => v.visit(DistributedRoundRobin::new(n).map_err(e)?),
        ProtocolKind::Fcfs1 => {
            v.visit(DistributedFcfs::new(n, CounterStrategy::PerLostArbitration).map_err(e)?)
        }
        ProtocolKind::Fcfs2 => {
            v.visit(DistributedFcfs::new(n, CounterStrategy::PerArrival).map_err(e)?)
        }
        ProtocolKind::CentralRoundRobin => v.visit(CentralRoundRobin::new(n).map_err(e)?),
        ProtocolKind::CentralFcfs => v.visit(CentralFcfs::new(n).map_err(e)?),
        ProtocolKind::Hybrid => v.visit(HybridRrFcfs::new(n).map_err(e)?),
        ProtocolKind::Adaptive => v.visit(AdaptiveArbiter::new(n).map_err(e)?),
        ProtocolKind::RotatingRr => v.visit(RotatingPriority::new(n).map_err(e)?),
        ProtocolKind::TicketFcfs => v.visit(TicketFcfs::new(n).map_err(e)?),
        other => return Err(format!("no concrete arbiter for {other}")),
    })
}

/// Records one cell's call streams and replays the simulator layers.
struct SimLayers<'a, E> {
    cell: &'a CellSpec,
    report: &'a RunReport,
    facts: &'a Facts,
    ctx: &'a Context,
    spans: &'a mut Vec<Span>,
    engine: PhantomData<E>,
}

impl<E: DrawEngine> Visit for SimLayers<'_, E> {
    type Out = Result<LayerTotals, String>;

    fn visit<A: Arbiter + Clone>(self, pristine: A) -> Self::Out {
        let SimLayers {
            cell,
            report,
            facts,
            ctx,
            spans,
            ..
        } = self;
        let config = &cell.config;
        let tag = cell.tag.as_str();
        let rec = Mirror::<A, E>::new(config, facts, pristine.clone()).run()?;
        let consistent = rec.events == report.events
            && rec.grants == report.grants
            && rec.grants as usize == facts.winners.len()
            && rec.arbitrations == report.arbitrations
            && rec.end_time == report.end_time;
        if !consistent {
            return Err(format!(
                "recorded run ({} events, {} grants, end {}) differs from the live one ({} events, {} grants, end {})",
                rec.events, rec.grants, rec.end_time, report.events, report.grants, report.end_time
            ));
        }
        let n = config.scenario.agents();
        let mut meter = Meter {
            cell: tag,
            ctx,
            spans,
        };
        let mut t = LayerTotals {
            events: rec.events as f64,
            grants: rec.grants as f64,
            arbitrations: rec.arbitrations as f64,
            mem_refs: rec.refs as f64,
            ..LayerTotals::default()
        };

        t.draw = meter.layer("draw", &rec.draws, rec.draws.len(), || {
            let mut engine = E::for_scenario(config.seed, &config.scenario);
            let mut sum = 0.0;
            let busy = batched(&rec.draws, |op| match op {
                DrawOp::Think(a) => sum += engine.think_time(a).as_f64(),
                DrawOp::Uniform(a) => sum += engine.uniform(a),
            });
            if sum.to_bits() == rec.draw_sum.to_bits() {
                Ok(busy)
            } else {
                Err(format!(
                    "replayed draws sum to {sum}, the run drew {}",
                    rec.draw_sum
                ))
            }
        })?;

        t.calendar = meter.layer("calendar", &rec.calendar, rec.calendar.len(), || {
            let mut queue = CalendarQueue::<1>::new();
            let mut popped = 0u64;
            let busy = batched(&rec.calendar, |op| match op {
                CalOp::Arrival(at, a) => queue.schedule_arrival(at, a),
                CalOp::Completion(at) => queue.schedule(at, Event::ArbitrationComplete),
                CalOp::End(at) => queue.schedule(at, Event::TransactionEnd),
                CalOp::Pop => popped += u64::from(black_box(queue.pop()).is_some()),
            });
            if popped == rec.events {
                Ok(busy)
            } else {
                Err(format!(
                    "{popped} events popped, the run had {}",
                    rec.events
                ))
            }
        })?;

        t.core = meter.layer("core", &rec.arbiter, rec.arbiter.len(), || {
            let mut arbiter = pristine.clone();
            let mut wrong = 0u64;
            let busy = batched(&rec.arbiter, |op| match op {
                ArbOp::Request(at, a) => arbiter.on_request(at, a, Priority::Ordinary),
                ArbOp::Pending => {
                    black_box(arbiter.pending());
                }
                ArbOp::Arbitrate(at, winner) => {
                    wrong += u64::from(arbiter.arbitrate(at).map(|g| g.agent) != Some(winner));
                }
            });
            if wrong == 0 {
                Ok(busy)
            } else {
                Err(format!(
                    "{wrong} replayed grants differ from the trace's winners"
                ))
            }
        })?;

        let (on_request, arbitrate) = split_arbiter(&pristine, &rec.arbiter);
        t.on_request = on_request;
        t.arbitrate = arbitrate;
        t.per_slug.insert(cell.slug(), (on_request, arbitrate));

        t.metrics = meter.layer("metrics", &rec.metrics, rec.metrics.len(), || {
            let mut registry = MetricsRegistry::new(n);
            let busy = batched(&rec.metrics, |op| match op {
                MetricOp::Event(at) => registry.on_event(at),
                MetricOp::Request(pending) => registry.on_request(pending),
                MetricOp::Grant(at, k) => registry.on_grant(at, k),
                MetricOp::TransferStart => registry.on_transfer_start(),
                MetricOp::Completion(a, wait) => registry.on_completion(a, wait),
                MetricOp::Coherence(a, op) => registry.on_coherence(a, op),
                MetricOp::Invalidation(victim) => registry.on_invalidation(victim),
            });
            if registry.snapshot() == report.metrics {
                Ok(busy)
            } else {
                Err("replayed metrics snapshot differs from the report's".to_string())
            }
        })?;

        let samples = rec
            .stats
            .iter()
            .filter(|op| matches!(op, StatsOp::Sample(..)))
            .count();
        t.stats = meter.layer("stats", &rec.stats, samples, || {
            let mut bm = BatchMeans::new(config.batches).map_err(|e| e.to_string())?;
            let mut tally =
                BatchTally::new(n as usize, config.batches.batches).map_err(|e| e.to_string())?;
            let mut per_agent = vec![Summary::new(); n as usize];
            let mut ordinary = Summary::new();
            let busy = batched(&rec.stats, |op| match op {
                StatsOp::Sample(a, wait) => {
                    bm.record(wait);
                    tally.record(a.index());
                    per_agent[a.index()].record(wait);
                    ordinary.record(wait);
                }
                StatsOp::CloseBatch => tally.close_batch(),
            });
            black_box((&tally, &per_agent, &ordinary));
            let live = (
                report.mean_wait.mean.to_bits(),
                report.mean_wait.halfwidth.to_bits(),
            );
            match bm.estimate() {
                Some(e) if (e.mean.to_bits(), e.halfwidth.to_bits()) == live => Ok(busy),
                other => Err(format!(
                    "replayed estimate {other:?} differs from {}",
                    report.mean_wait
                )),
            }
        })?;

        if let Some(coherence) = config.scenario.coherence() {
            let misses = rec
                .mem
                .iter()
                .filter(|op| matches!(op, MemOp::NextMiss(_)))
                .count();
            t.mem = meter.layer("mem", &rec.mem, misses, || {
                let mut caches = CoherenceSystem::new(n, *coherence);
                let mut uniforms = rec.uniforms.iter().copied();
                let mut wrong = 0u64;
                let busy = batched(&rec.mem, |op| match op {
                    MemOp::NextMiss(a) => {
                        black_box(caches.next_miss(a, |_| uniforms.next().unwrap_or(0.0)));
                    }
                    MemOp::Complete(a, op, invalidated) => {
                        let done = caches.complete(a, |victim| {
                            black_box(victim);
                        });
                        wrong += u64::from(done.op != op || done.invalidated != invalidated);
                    }
                });
                if wrong == 0 {
                    Ok(busy)
                } else {
                    Err(format!(
                        "{wrong} replayed coherence transitions differ from the trace"
                    ))
                }
            })?;
        }
        Ok(t)
    }
}

/// Times `on_request` and `arbitrate` apart. The two alternate call by
/// call, so batches cannot separate them: each call gets its own span,
/// and an empty per-call pass removes the clock's cost.
fn split_arbiter<A: Arbiter + Clone>(pristine: &A, ops: &[ArbOp]) -> (Bucket, Bucket) {
    let pass = |call: bool| {
        let mut arbiter = pristine.clone();
        let (mut req, mut arb) = (0u64, 0u64);
        for &op in ops {
            match op {
                ArbOp::Request(at, a) => {
                    let start = Instant::now();
                    if call {
                        arbiter.on_request(at, a, Priority::Ordinary);
                    }
                    req += start.elapsed().as_nanos() as u64;
                }
                ArbOp::Arbitrate(at, _) => {
                    let start = Instant::now();
                    if call {
                        black_box(arbiter.arbitrate(at));
                    }
                    arb += start.elapsed().as_nanos() as u64;
                }
                ArbOp::Pending => {}
            }
        }
        (req as f64, arb as f64)
    };
    let (mut req, mut arb, mut req0, mut arb0) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAY_REPS {
        let (r, a) = pass(false);
        req0.push(r);
        arb0.push(a);
        let (r, a) = pass(true);
        req.push(r);
        arb.push(a);
    }
    let count = |want: fn(&ArbOp) -> bool| ops.iter().filter(|op| want(op)).count() as f64;
    (
        Bucket {
            ns: median(&req) - median(&req0),
            calls: count(|op| matches!(op, ArbOp::Request(..))),
        },
        Bucket {
            ns: median(&arb) - median(&arb0),
            calls: count(|op| matches!(op, ArbOp::Arbitrate(..))),
        },
    )
}

/// Exports the trace through the binary sink, then streams it back
/// through the analyzer's stages, each replayed alone.
fn trace_layers(
    cell: &CellSpec,
    report: &RunReport,
    path: &Path,
    ctx: &Context,
    spans: &mut Vec<Span>,
    t: &mut LayerTotals,
) -> Result<(), String> {
    let config = &cell.config;
    let mut meter = Meter {
        cell: &cell.tag,
        ctx,
        spans,
    };
    let events = report.trace.events();
    let header = TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: report.protocol.clone(),
        agents: config.scenario.agents(),
        seed: config.seed,
        warmup_samples: config.warmup_samples as u64,
        batches: config.batches.batches as u64,
        samples_per_batch: config.batches.samples_per_batch as u64,
        confidence: config.batches.confidence,
    };
    t.export = meter.layer("export", events, events.len(), || {
        let mut sink =
            open_file_sink(path, TraceFormat::Binary, &header).map_err(|e| e.to_string())?;
        let mut failed = 0u64;
        let busy = batched(events, |e| failed += u64::from(sink.record(&e).is_err()));
        sink.finish().map_err(|e| e.to_string())?;
        if failed == 0 {
            Ok(busy)
        } else {
            Err(format!("{failed} records failed to write"))
        }
    })?;
    t.export_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;

    let mut decoded = Vec::new();
    t.stream = meter.timed(
        "stream",
        events.len(),
        || {
            let mut sink = Vec::with_capacity(events.len());
            batched(events, |e| sink.push(e))
        },
        || {
            let mut reader = open_trace(path).map_err(|e| e.to_string())?;
            decoded = Vec::with_capacity(events.len());
            let mut busy = 0u64;
            loop {
                let start = Instant::now();
                let mut done = false;
                for _ in 0..BATCH {
                    match reader.next_event().map_err(|e| e.to_string())? {
                        Some(e) => decoded.push(e),
                        None => {
                            done = true;
                            break;
                        }
                    }
                }
                busy += start.elapsed().as_nanos() as u64;
                if done {
                    break;
                }
            }
            if decoded.as_slice() == events {
                Ok(busy)
            } else {
                Err("decoded records differ from the exported ones".to_string())
            }
        },
    )?;

    let n = config.scenario.agents();
    t.replay = meter.layer("replay", &decoded, decoded.len(), || {
        let mut builder = ReplayBuilder::new(&header).map_err(|e| e.to_string())?;
        let mut failed = 0u64;
        let busy = batched(&decoded, |e| failed += u64::from(builder.push(&e).is_err()));
        let replayed = builder.finish().mean_wait.map(|e| e.mean.to_bits());
        if failed == 0 && replayed == Some(report.mean_wait.mean.to_bits()) {
            Ok(busy)
        } else {
            Err("replayed mean wait differs from the live one".to_string())
        }
    })?;
    t.usage = meter.layer("usage", &decoded, decoded.len(), || {
        let mut usage = BusUsage::new();
        let busy = batched(&decoded, |e| usage.push(&e));
        black_box(usage.finish());
        Ok(busy)
    })?;
    let grants: Vec<usize> = decoded
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::ArbitrationStart { winner, .. } => Some(winner.index()),
            _ => None,
        })
        .collect();
    t.fairness = meter.layer("fairness", &grants, grants.len(), || {
        let mut fairness = FairnessTracker::new(n);
        let busy = batched(&grants, |g| fairness.on_grant(g));
        black_box(fairness.finish());
        Ok(busy)
    })?;
    t.adapters = meter.layer("adapters", &decoded, decoded.len(), || {
        let mut adapter = adapter_for(&header.protocol, n);
        let busy = batched(&decoded, |e| adapter.on_event(&e));
        black_box(adapter.report());
        Ok(busy)
    })?;

    let mut analyze = Vec::with_capacity(LIVE_REPS);
    for _ in 0..LIVE_REPS {
        let start = Instant::now();
        black_box(busarb_tail::analyze_path(path).map_err(|e| e.to_string())?);
        analyze.push(crate::ns_since(start));
    }
    t.analyze_ns = median(&analyze);
    Ok(())
}

/// Rejects configurations the recorder does not follow.
fn check_supported(config: &SystemConfig) -> Result<(), String> {
    let supported = config.max_outstanding == 1
        && config.urgent_fraction == 0.0
        && config.start_rule == ArbitrationStartRule::Greedy
        && config.overhead_model.is_none()
        && !config.collect_cdf
        && config.scenario.agents() <= 64;
    if supported {
        Ok(())
    } else {
        Err("the recorder follows greedy, fixed-overhead, single-outstanding runs of up to 64 agents".to_string())
    }
}

/// Times one cell live and traced, records and replays every layer, and
/// checks the replay identities. The live run exports a trace when the
/// cell's configuration asks for one.
///
/// # Errors
///
/// Returns a message naming the cell and the first check that failed.
pub fn trace_cell(
    cell: &CellSpec,
    ctx: &Context,
    spans: &mut Vec<Span>,
) -> Result<(LayerTotals, RunReport), String> {
    let tag = cell.tag.as_str();
    let run = |config: SystemConfig| -> Result<(f64, RunReport), String> {
        let sim = Simulation::new(config).map_err(|e| format!("{tag}: {e}"))?;
        let mut times = Vec::with_capacity(LIVE_REPS);
        let mut last = None;
        for _ in 0..LIVE_REPS {
            let start = Instant::now();
            let report =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_kind(cell.kind)))
                    .map_err(|_| format!("{tag}: panicked"))?
                    .map_err(|e| format!("{tag}: {e}"))?;
            times.push(crate::ns_since(start));
            last = Some(report);
        }
        Ok((median(&times), last.ok_or("no run")?))
    };
    let (live_ns, live) = run(cell.config.clone())?;
    let (traced_ns, traced) = run(cell.config.clone().with_trace(TRACE_LIMIT))?;
    if cells::digest(&traced) != cells::digest(&live) {
        return Err(format!("{tag}: tracing changed the run's report"));
    }
    let mut totals = replay_layers(cell, &traced, ctx, spans)?;
    totals.live_ns = live_ns;
    totals.traced_ns = traced_ns;
    Ok((totals, live))
}

/// Records and replays every layer of one traced run and checks the
/// replay identities against `traced`, the run's report with its
/// in-memory trace. The replay-only fields of the totals are filled; the
/// live and traced run times are left at zero.
///
/// # Errors
///
/// Returns a message naming the cell and the first check that failed.
pub fn replay_layers(
    cell: &CellSpec,
    traced: &RunReport,
    ctx: &Context,
    spans: &mut Vec<Span>,
) -> Result<LayerTotals, String> {
    let tag = cell.tag.as_str();
    check_supported(&cell.config).map_err(|e| format!("{tag}: {e}"))?;
    if !traced.trace.is_enabled() || traced.trace.dropped() > 0 {
        return Err(format!("{tag}: the run's trace is off or dropped events"));
    }
    let facts = Facts::of(traced.trace.events());
    let n = cell.config.scenario.agents();
    let visited = match cell.config.draw_engine {
        DrawEngineKind::Reference => dispatch(
            cell.kind,
            n,
            SimLayers::<ReferenceEngine> {
                cell,
                report: traced,
                facts: &facts,
                ctx,
                spans,
                engine: PhantomData,
            },
        ),
        DrawEngineKind::Fast => dispatch(
            cell.kind,
            n,
            SimLayers::<FastEngine> {
                cell,
                report: traced,
                facts: &facts,
                ctx,
                spans,
                engine: PhantomData,
            },
        ),
    };
    let mut totals = visited
        .and_then(|layers| layers)
        .map_err(|e| format!("{tag}: {e}"))?;
    totals.export_in_loop = cell.config.trace_export.is_some();

    let path = ctx
        .tmp
        .join(format!("replay-{}.btrc", tag.replace('/', "_")));
    let result = trace_layers(cell, traced, &path, ctx, spans, &mut totals);
    // The file is scratch either way; a failed removal leaves it in the
    // run's temporary directory, which is removed at exit.
    let _ = std::fs::remove_file(&path);
    if let Some(export) = &cell.config.trace_export {
        let _ = std::fs::remove_file(&export.path);
    }
    result.map_err(|e| format!("{tag}: {e}"))?;
    Ok(totals)
}

/// Traces `cells`, summing their layers. Returns the totals, the number
/// of failed cells, and the spans.
pub fn trace_cells(
    cells: &[CellSpec],
    pins: Option<&Pins>,
    ctx: &Context,
) -> (LayerTotals, u64, Vec<Span>) {
    let mut totals = LayerTotals::default();
    let mut failed = 0u64;
    let mut spans = Vec::new();
    for cell in cells {
        match trace_cell(cell, ctx, &mut spans) {
            Ok((t, live)) => {
                let digest = cells::digest(&live);
                match pins.map(|p| p.get(&cell.tag)) {
                    Some(pin) if pin != Some(&digest) => {
                        eprintln!(
                            "FAILED {}: digest {digest} differs from the pin {}",
                            cell.tag,
                            pin.map_or("(none)", String::as_str)
                        );
                        failed += 1;
                    }
                    _ => totals.add(&t),
                }
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                failed += 1;
            }
        }
    }
    (totals, failed, spans)
}

/// Traced mode for the four simulation workloads.
///
/// The per-protocol arbiter figures (`core.*.ns_per_call.<slug>`) of
/// protocols the workload does not run (`mesi-closed` runs four) come
/// from the `arb-open` cells of those protocols.
///
/// # Errors
///
/// Returns a message when the pins cannot be read.
pub fn run_traced(opts: &Options, ctx: &Context) -> Result<Outcome, String> {
    let mut cells = cells::traced_cells(opts.workload, opts.seed);
    if opts.workload == Workload::TraceRoundtrip {
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.config = cell
                .config
                .clone()
                .with_trace_export(ctx.tmp.join(format!("live-{i}.btrc")), TraceFormat::Binary);
        }
    }
    let pins = cells::committed_pins(ctx, opts.workload, opts.seed)?;
    let (mut totals, mut failed, mut spans) = trace_cells(&cells, pins.as_ref(), ctx);
    let others: Vec<CellSpec> = cells::traced_cells(Workload::ArbOpen, opts.seed)
        .into_iter()
        .filter(|other| cells.iter().all(|c| c.kind != other.kind))
        .collect();
    if !others.is_empty() {
        let (t, f, s) = trace_cells(&others, None, ctx);
        totals.per_slug.extend(t.per_slug);
        failed += f;
        spans.extend(s);
    }
    let stages: Vec<(&str, f64)> = crate::repro::STAGES
        .iter()
        .map(|(s, _)| (*s, 0.0))
        .collect();
    Ok(Outcome {
        attempted: (cells.len() + others.len()) as u64,
        failed,
        metrics: totals.metrics(&stages, 0.0),
        notes: Vec::new(),
        provenance: vec![
            ("engine", cells::engine_name(opts.workload).to_string()),
            ("scale", cells::scale_name(opts.workload).to_string()),
        ],
        spans,
    })
}
