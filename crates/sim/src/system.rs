//! The bus system model.

use busarb_core::{Arbiter, ArbiterVisitor, Grant, ProtocolKind};
use busarb_mem::CoherenceSystem;
use busarb_obs::{open_file_sink, MetricsRegistry, TraceHeader, TraceSink, TRACE_SCHEMA};
use busarb_stats::{BatchMeans, BatchTally, Cdf, Summary};
use busarb_types::{AgentId, AgentSet, Error, Priority, Time, TraceEvent};
use busarb_workload::{DrawEngine, DrawEngineKind, FastEngine, ReferenceEngine};

use crate::config::{ArbitrationStartRule, SystemConfig};
use crate::event::{CalendarQueue, Event};
use crate::report::RunReport;
use crate::trace::{Trace, TraceKind};

/// One outstanding request as the runner records it.
#[derive(Clone, Copy, Debug)]
struct Outstanding {
    arrived: Time,
    class: Priority,
}

/// Per-agent request state: every agent's outstanding requests and the
/// agents blocked at the outstanding limit.
///
/// Agent index `a` owns slots `a * cap` up to `(a + 1) * cap` (`cap =
/// max_outstanding`), its requests packed oldest first: removing one
/// moves the younger ones up a slot, so slot order is arrival order. At
/// `cap = 1` this is a flat array of one request per agent.
#[derive(Debug)]
struct AgentPlanes {
    /// Outstanding-request capacity per agent (`max_outstanding`).
    cap: u32,
    /// The request queues, `cap` slots per agent.
    requests: Box<[Outstanding]>,
    /// Outstanding-request count per agent.
    len: Box<[u32]>,
    /// Agents whose think-time expiry found them at the outstanding limit
    /// and wait for a completion before issuing.
    blocked: AgentSet,
}

impl AgentPlanes {
    fn new(n: u32, cap: u32) -> Self {
        let request = Outstanding {
            arrived: Time::ZERO,
            class: Priority::Ordinary,
        };
        AgentPlanes {
            cap,
            requests: vec![request; n as usize * cap as usize].into_boxed_slice(),
            len: vec![0u32; n as usize].into_boxed_slice(),
            blocked: AgentSet::new(),
        }
    }

    /// Number of requests the agent currently has outstanding.
    #[inline]
    fn outstanding(&self, agent: AgentId) -> u32 {
        self.len[agent.index()]
    }

    /// Appends a request to the agent's queue, which must hold fewer
    /// than `cap`.
    #[inline]
    fn push(&mut self, agent: AgentId, arrived: Time, class: Priority) {
        let a = agent.index();
        self.requests[a * self.cap as usize + self.len[a] as usize] =
            Outstanding { arrived, class };
        self.len[a] += 1;
    }

    /// Removes the agent's oldest outstanding request of class `class`
    /// and returns its arrival time, or `None` if it holds none.
    #[inline]
    fn pop(&mut self, agent: AgentId, class: Priority) -> Option<Time> {
        let a = agent.index();
        let queue = &mut self.requests[a * self.cap as usize..][..self.len[a] as usize];
        let at = queue.iter().position(|q| q.class == class)?;
        let arrived = queue[at].arrived;
        // The younger requests move up one slot (none at `cap = 1`).
        for k in at + 1..queue.len() {
            queue[k - 1] = queue[k];
        }
        self.len[a] -= 1;
        Some(arrived)
    }
}

/// A configured simulation, ready to run an arbiter through the paper's
/// bus model.
///
/// See the [crate docs](crate) for the modeling assumptions and an
/// example.
#[derive(Debug)]
pub struct Simulation {
    config: SystemConfig,
}

impl Simulation {
    /// Creates a simulation from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] for an out-of-range urgent
    /// fraction or a closed-loop (coherence) scenario configured with
    /// more than one outstanding request per agent, and
    /// [`Error::ZeroOutstandingLimit`] for a zero outstanding-request
    /// limit.
    pub fn new(config: SystemConfig) -> Result<Self, Error> {
        if !(0.0..=1.0).contains(&config.urgent_fraction) {
            return Err(Error::InvalidScenario {
                reason: format!("urgent fraction {} outside [0, 1]", config.urgent_fraction),
            });
        }
        if config.max_outstanding == 0 {
            return Err(Error::ZeroOutstandingLimit);
        }
        if config.scenario.coherence().is_some() && config.max_outstanding != 1 {
            // A blocked miss stalls the processor until its fill
            // completes; pipelined request generation has no meaning in
            // the closed loop.
            return Err(Error::InvalidScenario {
                reason: format!(
                    "closed-loop coherence workloads stall on each miss and require \
                     max_outstanding = 1, got {}",
                    config.max_outstanding
                ),
            });
        }
        Ok(Simulation { config })
    }

    /// The configuration this simulation will run with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the model to completion (all batches full) and returns the
    /// measurements.
    ///
    /// The event loop is monomorphized over the arbiter type, so every
    /// `on_request`/`arbitrate`/`pending` call on a concrete protocol is
    /// statically dispatched (and inlinable); a `Box<dyn Arbiter>` runs
    /// the same loop through the blanket `impl Arbiter for Box<A>`. The
    /// loop is further monomorphized over the calendar width (scenarios
    /// of up to 64 agents run the one-occupancy-word fast path `W = 1`,
    /// larger ones the full two-word width) and over the configured
    /// [`DrawEngine`], so engine selection costs nothing inside the loop.
    ///
    /// The run-digest corpus (`tests/run_digests.rs` in the workspace
    /// root) pins the full report of this loop on every path it takes.
    ///
    /// # Panics
    ///
    /// Panics if the arbiter's agent count does not match the scenario, or
    /// if the event loop exceeds its safety budget without filling the
    /// batches (which indicates a deadlocked protocol).
    #[must_use]
    pub fn run<A: Arbiter>(&self, arbiter: A) -> RunReport {
        let narrow = self.config.scenario.agents() <= 64;
        match (narrow, self.config.draw_engine) {
            (true, DrawEngineKind::Reference) => {
                Runner::<A, ReferenceEngine, 1>::new(&self.config, arbiter).run()
            }
            (true, DrawEngineKind::Fast) => {
                Runner::<A, FastEngine, 1>::new(&self.config, arbiter).run()
            }
            (false, DrawEngineKind::Reference) => {
                Runner::<A, ReferenceEngine, 2>::new(&self.config, arbiter).run()
            }
            (false, DrawEngineKind::Fast) => {
                Runner::<A, FastEngine, 2>::new(&self.config, arbiter).run()
            }
        }
    }

    /// Checks that this configuration suits a default-parameter arbiter
    /// of `kind`. [`Simulation::run_kind`] runs the check first; a caller
    /// about to run several kinds can check them all before running any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] when the configuration allows
    /// more than one outstanding request per agent and the kind's default
    /// arbiter admits only one (see
    /// [`ProtocolKind::admits_several_outstanding`]).
    pub fn check_kind(&self, kind: ProtocolKind) -> Result<(), Error> {
        let limit = self.config.max_outstanding;
        if limit > 1 && !kind.admits_several_outstanding() {
            return Err(Error::InvalidScenario {
                reason: format!(
                    "protocol {kind} admits one outstanding request per agent, \
                     got max_outstanding = {limit}"
                ),
            });
        }
        Ok(())
    }

    /// Builds a default-parameter arbiter of `kind` for the scenario's
    /// agent count and runs it through [`Simulation::run`] as its concrete
    /// type — the `ProtocolKind -> static dispatch` bridge used by
    /// experiment sweeps.
    ///
    /// # Errors
    ///
    /// Returns the error of [`Simulation::check_kind`], and propagates
    /// arbiter construction errors (e.g. invalid agent counts).
    pub fn run_kind(&self, kind: ProtocolKind) -> Result<RunReport, Error> {
        self.check_kind(kind)?;
        kind.visit(self.config.scenario.agents(), RunWith(self))
    }
}

/// [`Simulation::run`] as a visitor over [`ProtocolKind::visit`].
struct RunWith<'s>(&'s Simulation);

impl ArbiterVisitor for RunWith<'_> {
    type Output = RunReport;

    fn visit<A: Arbiter + 'static>(self, arbiter: A) -> RunReport {
        self.0.run(arbiter)
    }
}

/// The live state of one run, generic over the arbiter so the event loop
/// monomorphizes (no virtual dispatch inside the hot loop when `A` is a
/// concrete protocol type; a boxed arbiter instantiates `A = Box<dyn
/// Arbiter>`), over the calendar width
/// `W` so queue scans compile down to the exact number of 64-slot words
/// the scenario needs, and over the draw engine `E` so think-time
/// sampling inlines into the loop.
struct Runner<'c, A: Arbiter, E: DrawEngine, const W: usize> {
    config: &'c SystemConfig,
    arbiter: A,
    draws: E,
    queue: CalendarQueue<W>,
    planes: AgentPlanes,
    /// Private MESI caches driving a closed-loop workload, when the
    /// scenario carries a coherence configuration. `None` runs the
    /// paper's open-loop interrequest model.
    mem: Option<CoherenceSystem>,

    /// Grant whose request is transferring, if any: its agent and the
    /// class of the request the arbiter served.
    transferring: Option<Grant>,
    /// Winner chosen by an arbitration still settling on the lines.
    arb_in_flight: Option<Grant>,
    /// Winner of a completed arbitration, waiting for the bus.
    next_master: Option<Grant>,

    bm: BatchMeans,
    tally: BatchTally,
    cdf: Option<Cdf>,
    warmup_remaining: usize,
    warmup_end: Time,
    /// Samples left before the per-agent tally closes its current batch —
    /// a countdown so the batch boundary costs one decrement per sample
    /// instead of a 64-bit remainder.
    batch_countdown: usize,
    last_counted: Time,
    trace: Trace,
    /// `true` when any trace consumer is attached (in-memory trace or
    /// write-through export) — one cached flag so the hot path pays a
    /// single predictable branch per trace site when observability is
    /// off.
    observing: bool,
    /// Write-through structured trace export, when configured.
    export: Option<Box<dyn TraceSink>>,
    /// Always-on engine metrics (allocation-free on the hot path). Its
    /// event, grant and arbitration totals are the report's.
    metrics: MetricsRegistry,
    per_agent_wait: Vec<Summary>,
    /// Waits of ordinary-priority requests. Fed only under urgent
    /// traffic: without it every sample is ordinary, and `finish` copies
    /// `bm.overall()`, which received the same sequence.
    ordinary_wait: Summary,
    urgent_wait: Summary,
}

impl<'c, A: Arbiter, E: DrawEngine, const W: usize> Runner<'c, A, E, W> {
    fn new(config: &'c SystemConfig, arbiter: A) -> Self {
        let n = config.scenario.agents();
        assert_eq!(
            arbiter.agents(),
            n,
            "arbiter sized for {} agents but the scenario has {n}",
            arbiter.agents()
        );
        let bm = BatchMeans::new(config.batches).expect("validated batch config");
        let tally =
            BatchTally::new(n as usize, config.batches.batches).expect("validated batch config");
        let export = config.trace_export.as_ref().map(|ex| {
            let header = TraceHeader {
                schema: TRACE_SCHEMA.to_string(),
                protocol: arbiter.name().to_string(),
                agents: n,
                seed: config.seed,
                warmup_samples: config.warmup_samples as u64,
                batches: config.batches.batches as u64,
                samples_per_batch: config.batches.samples_per_batch as u64,
                confidence: config.batches.confidence,
            };
            match open_file_sink(&ex.path, ex.format, &header) {
                Ok(sink) => sink,
                Err(e) => panic!("cannot open trace export {}: {e}", ex.path.display()),
            }
        });
        Runner {
            config,
            arbiter,
            draws: E::for_scenario(config.seed, &config.scenario),
            queue: CalendarQueue::new(),
            planes: AgentPlanes::new(n, config.max_outstanding),
            mem: config
                .scenario
                .coherence()
                .map(|c| CoherenceSystem::new(n, *c)),
            transferring: None,
            arb_in_flight: None,
            next_master: None,
            bm,
            tally,
            cdf: config.collect_cdf.then(Cdf::new),
            warmup_remaining: config.warmup_samples,
            warmup_end: Time::ZERO,
            batch_countdown: config.batches.samples_per_batch,
            last_counted: Time::ZERO,
            trace: if config.trace_limit > 0 {
                Trace::with_limit(config.trace_limit)
            } else {
                Trace::disabled()
            },
            observing: config.trace_limit > 0 || export.is_some(),
            export,
            metrics: MetricsRegistry::new(n),
            per_agent_wait: vec![Summary::new(); n as usize],
            ordinary_wait: Summary::new(),
            urgent_wait: Summary::new(),
        }
    }

    #[inline]
    fn think_time(&mut self, agent: AgentId) -> Time {
        self.draws.think_time(agent)
    }

    /// Routes one trace event to every attached consumer (bounded
    /// in-memory trace and/or write-through export). Call sites guard on
    /// `self.observing` so the disabled case pays one branch, not a
    /// call.
    #[inline]
    fn emit(&mut self, at: Time, kind: TraceKind) {
        self.trace.record(at, kind);
        if let Some(sink) = &mut self.export {
            let event = TraceEvent { at, kind };
            if let Err(e) = sink.record(&event) {
                panic!("trace export failed: {e}");
            }
        }
    }

    fn run(mut self) -> RunReport {
        // Seed initial request generations: one think time per agent
        // (closed loop: the time to the first coherence miss — caches
        // start cold, so the very first reference misses), optionally
        // phase-staggered so deterministic workloads do not start in
        // lockstep.
        for agent in AgentId::all(self.config.scenario.agents()) {
            let mut first = match &mut self.mem {
                Some(mem) => {
                    let draws = &mut self.draws;
                    mem.next_miss(agent, |a| draws.uniform(a))
                }
                None => self.think_time(agent),
            };
            if self.config.initial_stagger {
                first = first * self.draws.uniform(agent);
            }
            self.queue.schedule_arrival(first, agent);
        }

        // Safety budget: a response needs only a handful of events, so this
        // is far beyond any non-deadlocked run.
        let needed = self.config.warmup_samples + self.config.batches.total_samples();
        let max_events = 200 * needed as u64 + 10_000_000;
        while let Some((t, event)) = self.queue.pop() {
            self.metrics.on_event(t);
            match event {
                Event::RequestArrival(agent) => self.on_generation(t, agent),
                Event::ArbitrationComplete => self.on_arbitration_complete(t),
                Event::TransactionEnd => self.on_transaction_end(t),
            }
            if self.bm.is_complete() {
                break;
            }
            assert!(
                self.metrics.events() < max_events,
                "event budget exceeded: protocol appears deadlocked"
            );
        }
        self.finish()
    }

    /// An agent's think time expires: issue a request (or defer at the
    /// outstanding limit).
    fn on_generation(&mut self, t: Time, agent: AgentId) {
        if self.planes.outstanding(agent) >= self.config.max_outstanding {
            self.planes.blocked.insert(agent);
            return;
        }
        self.issue(t, agent);
        if self.config.max_outstanding > 1 {
            // Pipelined agents keep generating while requests are pending.
            let next = self.think_time(agent);
            self.queue.schedule_arrival(t + next, agent);
        }
    }

    /// Assert the bus-request line for `agent` at time `t`.
    fn issue(&mut self, t: Time, agent: AgentId) {
        let priority = if self.config.urgent_fraction > 0.0
            && self.draws.uniform(agent) < self.config.urgent_fraction
        {
            Priority::Urgent
        } else {
            Priority::Ordinary
        };
        self.planes.push(agent, t, priority);
        self.arbiter.on_request(t, agent, priority);
        self.metrics.on_request(self.arbiter.pending() as u32);
        if self.observing {
            self.emit(t, TraceKind::Request { agent });
        }
        self.try_start_arbitration(t, false);
    }

    /// Starts an arbitration if the protocol and timing rules allow.
    fn try_start_arbitration(&mut self, t: Time, at_transaction_boundary: bool) {
        if self.arb_in_flight.is_some() || self.next_master.is_some() {
            return;
        }
        if self.arbiter.pending() == 0 {
            return;
        }
        if self.config.start_rule == ArbitrationStartRule::TransactionAligned
            && !at_transaction_boundary
            && self.transferring.is_some()
        {
            // Strict rule: mid-transaction arrivals wait for the next
            // transaction boundary.
            return;
        }
        let grant = self
            .arbiter
            .arbitrate(t)
            .expect("pending requests imply a grant");
        self.metrics.on_grant(t, grant.arbitrations);
        let per_arbitration = match self.config.overhead_model {
            Some(model) => model.overhead(self.arbiter.layout().map(|l| l.width())),
            None => self.config.arbitration_overhead,
        };
        let overhead = per_arbitration * f64::from(grant.arbitrations);
        if self.observing {
            self.emit(
                t,
                TraceKind::ArbitrationStart {
                    winner: grant.agent,
                    completes: t + overhead,
                },
            );
        }
        self.arb_in_flight = Some(grant);
        self.queue
            .schedule(t + overhead, Event::ArbitrationComplete);
    }

    fn on_arbitration_complete(&mut self, t: Time) {
        let grant = self
            .arb_in_flight
            .take()
            .expect("completion implies an in-flight arbitration");
        self.next_master = Some(grant);
        if self.transferring.is_none() {
            self.start_transfer(t);
        }
    }

    fn start_transfer(&mut self, t: Time) {
        let grant = self.next_master.take().expect("a master is ready");
        self.transferring = Some(grant);
        self.metrics.on_transfer_start();
        if self.observing {
            self.emit(t, TraceKind::TransferStart { agent: grant.agent });
        }
        self.queue
            .schedule(t + Time::TRANSACTION, Event::TransactionEnd);
        // The beginning of a bus transaction: arbitration for the next
        // master starts now if requests are waiting.
        self.try_start_arbitration(t, true);
    }

    fn on_transaction_end(&mut self, t: Time) {
        let Grant {
            agent, priority, ..
        } = self
            .transferring
            .take()
            .expect("a transfer was in progress");
        let arrived = self
            .planes
            .pop(agent, priority)
            .expect("the master holds a request of the granted class");
        let wait = (t - arrived).as_f64();
        self.metrics.on_completion(agent, wait);
        if self.observing {
            self.emit(t, TraceKind::TransferEnd { agent, wait });
        }
        self.record(t, agent, priority, wait);

        // Think-time scheduling after the completion. Closed-loop
        // workloads apply the MESI transition this transfer performed
        // and run the reference stream forward to the agent's next
        // miss; open-loop workloads draw an interrequest think time.
        if self.mem.is_some() {
            self.complete_coherence(t, agent);
        } else if self.config.max_outstanding == 1 {
            let next = self.think_time(agent);
            self.queue.schedule_arrival(t + next, agent);
        } else if self.planes.blocked.remove(agent) {
            self.issue(t, agent);
            let next = self.think_time(agent);
            self.queue.schedule_arrival(t + next, agent);
        }

        // Hand the bus over / restart arbitration.
        if self.next_master.is_some() {
            self.start_transfer(t);
        } else {
            self.try_start_arbitration(t, true);
        }
    }

    /// Closed-loop epilogue to a completed transfer: commit the MESI
    /// transition the bus transaction performed (invalidating or
    /// downgrading other caches as needed), attribute the coherence
    /// counters, and schedule the agent's next miss.
    fn complete_coherence(&mut self, t: Time, agent: AgentId) {
        let done = {
            let mem = self.mem.as_mut().expect("checked by the caller");
            let metrics = &mut self.metrics;
            mem.complete(agent, |victim| metrics.on_invalidation(victim))
        };
        self.metrics.on_coherence(agent, done.op);
        if self.observing {
            self.emit(
                t,
                TraceKind::Coherence {
                    agent,
                    op: done.op,
                    invalidated: done.invalidated,
                },
            );
        }
        let gap = {
            let mem = self.mem.as_mut().expect("checked by the caller");
            let draws = &mut self.draws;
            mem.next_miss(agent, |a| draws.uniform(a))
        };
        self.queue.schedule_arrival(t + gap, agent);
    }

    fn record(&mut self, t: Time, agent: AgentId, priority: Priority, wait: f64) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            if self.warmup_remaining == 0 {
                self.warmup_end = t;
            }
            return;
        }
        if self.bm.is_complete() {
            return;
        }
        self.bm.record(wait);
        self.tally.record(agent.index());
        self.per_agent_wait[agent.index()].record(wait);
        match priority {
            Priority::Urgent => self.urgent_wait.record(wait),
            Priority::Ordinary if self.config.urgent_fraction > 0.0 => {
                self.ordinary_wait.record(wait);
            }
            Priority::Ordinary => {}
        }
        if let Some(cdf) = &mut self.cdf {
            cdf.record(wait);
        }
        self.last_counted = t;
        self.batch_countdown -= 1;
        if self.batch_countdown == 0 {
            self.tally.close_batch();
            self.batch_countdown = self.config.batches.samples_per_batch;
        }
    }

    fn finish(mut self) -> RunReport {
        if let Some(mut sink) = self.export.take() {
            if let Err(e) = sink.finish() {
                panic!("trace export failed: {e}");
            }
        }
        let mean_wait = self
            .bm
            .estimate()
            .expect("run loop exits only when batches are complete");
        let measured_time = self.last_counted - self.warmup_end;
        let utilization = if measured_time > Time::ZERO {
            self.bm.samples_recorded() as f64 / measured_time.as_f64()
        } else {
            0.0
        };
        let metrics = self.metrics.snapshot();
        RunReport {
            protocol: self.arbiter.name().to_string(),
            mean_wait,
            wait_summary: *self.bm.overall(),
            wait_batch_means: self.bm.batch_means(),
            per_agent_wait: self.per_agent_wait,
            ordinary_wait: if self.config.urgent_fraction > 0.0 {
                self.ordinary_wait
            } else {
                *self.bm.overall()
            },
            urgent_wait: self.urgent_wait,
            tally: self.tally,
            utilization,
            cdf: self.cdf,
            events: metrics.events,
            grants: metrics.grants,
            arbitrations: metrics.arbitrations,
            end_time: self.last_counted,
            measured_time,
            trace: self.trace,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;
    use busarb_core::ProtocolKind;
    use busarb_stats::BatchMeansConfig;
    use busarb_workload::Scenario;

    fn quick_config(n: u32, load: f64, cv: f64, samples: usize) -> SystemConfig {
        SystemConfig::new(Scenario::equal_load(n, load, cv).unwrap())
            .with_batches(BatchMeansConfig::quick(samples))
            .with_warmup(500)
            .with_seed(12345)
    }

    fn run(kind: ProtocolKind, config: SystemConfig) -> RunReport {
        let n = config.scenario.agents();
        Simulation::new(config).unwrap().run(kind.build(n).unwrap())
    }

    #[test]
    fn single_agent_no_contention_wait_is_exactly_1_5() {
        // One agent, idle bus: W = arbitration overhead + transaction.
        let config = quick_config(1, 0.25, 1.0, 100);
        let report = run(ProtocolKind::RoundRobin, config);
        assert!(
            (report.mean_wait.mean - 1.5).abs() < 1e-9,
            "W = {}",
            report.mean_wait.mean
        );
        assert!(report.wait_summary.std_dev() < 1e-9);
    }

    #[test]
    fn saturated_bus_reaches_full_utilization() {
        let config = quick_config(10, 5.0, 1.0, 500);
        let report = run(ProtocolKind::RoundRobin, config);
        assert!(
            report.utilization > 0.99,
            "utilization = {}",
            report.utilization
        );
    }

    #[test]
    fn low_load_utilization_tracks_offered_load() {
        let config = quick_config(10, 0.25, 1.0, 500);
        let report = run(ProtocolKind::Fcfs1, config);
        assert!(
            (report.utilization - 0.25).abs() < 0.02,
            "utilization = {}",
            report.utilization
        );
    }

    #[test]
    fn saturated_wait_matches_closed_form() {
        // At saturation with N agents, each agent cycles once per N units:
        // interrequest + W = N, so W = N - interrequest.
        let n = 10u32;
        let load = 5.0;
        let config = quick_config(n, load, 1.0, 2000);
        let report = run(ProtocolKind::RoundRobin, config);
        let interrequest = 1.0 / (load / f64::from(n)) - 1.0;
        let expected = f64::from(n) - interrequest;
        assert!(
            (report.mean_wait.mean - expected).abs() < 0.1,
            "W = {} expected {expected}",
            report.mean_wait.mean
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let a = run(ProtocolKind::Fcfs2, quick_config(10, 1.5, 1.0, 300));
        let b = run(ProtocolKind::Fcfs2, quick_config(10, 1.5, 1.0, 300));
        assert_eq!(a.mean_wait.mean, b.mean_wait.mean);
        assert_eq!(a.grants, b.grants);
        assert_eq!(a.end_time, b.end_time);
        let c = run(
            ProtocolKind::Fcfs2,
            quick_config(10, 1.5, 1.0, 300).with_seed(999),
        );
        assert_ne!(a.mean_wait.mean, c.mean_wait.mean);
    }

    #[test]
    fn rr_is_perfectly_fair_at_saturation() {
        let config = quick_config(8, 4.0, 1.0, 1000);
        let report = run(ProtocolKind::RoundRobin, config);
        let ratio = report.throughput_ratio(8, 1, 0.90).unwrap();
        assert!(
            (ratio.estimate.mean - 1.0).abs() < 0.05,
            "ratio = {}",
            ratio.estimate.mean
        );
    }

    #[test]
    fn fixed_priority_starves_low_identities_at_overload() {
        let config = quick_config(8, 6.0, 1.0, 1000);
        let report = run(ProtocolKind::FixedPriority, config);
        let hi = report.agent_throughput(8);
        let lo = report.agent_throughput(1);
        assert!(hi > 2.0 * lo, "hi = {hi}, lo = {lo}");
    }

    #[test]
    fn conservation_of_mean_wait_across_protocols() {
        // Work-conserving non-preemptive disciplines with service-time-
        // independent ordering share the same mean wait (paper footnote 4).
        let baseline = run(ProtocolKind::RoundRobin, quick_config(10, 1.5, 1.0, 2000));
        for kind in [
            ProtocolKind::Fcfs1,
            ProtocolKind::Fcfs2,
            ProtocolKind::AssuredAccessIdleBatch,
            ProtocolKind::CentralFcfs,
        ] {
            let report = run(kind, quick_config(10, 1.5, 1.0, 2000));
            let diff = (report.mean_wait.mean - baseline.mean_wait.mean).abs();
            assert!(
                diff < 0.25,
                "{kind}: W = {} vs RR {}",
                report.mean_wait.mean,
                baseline.mean_wait.mean
            );
        }
    }

    #[test]
    fn fcfs_has_lower_wait_variance_than_rr() {
        let rr = run(ProtocolKind::RoundRobin, quick_config(10, 2.0, 1.0, 3000));
        let fcfs = run(ProtocolKind::Fcfs1, quick_config(10, 2.0, 1.0, 3000));
        assert!(
            rr.wait_summary.std_dev() > fcfs.wait_summary.std_dev(),
            "rr sd {} vs fcfs sd {}",
            rr.wait_summary.std_dev(),
            fcfs.wait_summary.std_dev()
        );
    }

    #[test]
    fn cdf_collection_is_optional() {
        let without = run(ProtocolKind::RoundRobin, quick_config(4, 1.0, 1.0, 100));
        assert!(without.cdf.is_none());
        let config = quick_config(4, 1.0, 1.0, 100).with_cdf();
        let with = run(ProtocolKind::RoundRobin, config);
        assert!(with.mean_overlapped_wait(2.0).is_some());
        let cdf = with.cdf.unwrap();
        assert_eq!(cdf.len(), 10 * 100);
    }

    #[test]
    fn mean_overlapped_wait_is_capped() {
        let config = quick_config(6, 3.0, 1.0, 500).with_cdf();
        let report = run(ProtocolKind::Fcfs1, config);
        let capped = report.mean_overlapped_wait(2.0).unwrap();
        assert!(capped <= 2.0 + 1e-12);
        assert!(capped <= report.wait_summary.mean());
        let uncapped = report.mean_overlapped_wait(1e9).unwrap();
        assert!((uncapped - report.wait_summary.mean()).abs() < 1e-9);
    }

    #[test]
    fn urgent_fraction_runs_clean() {
        let config = quick_config(8, 2.0, 1.0, 500).with_urgent_fraction(0.2);
        let report = run(ProtocolKind::Fcfs2, config);
        assert!(report.utilization > 0.9);
    }

    #[test]
    fn multiple_outstanding_requests_increase_throughput_at_fixed_think_time() {
        // Pipelined agents keep the bus busier at the same think time.
        let scenario = Scenario::equal_load(4, 2.0, 1.0).unwrap();
        let single = SystemConfig::new(scenario.clone())
            .with_batches(BatchMeansConfig::quick(500))
            .with_warmup(200)
            .with_seed(5);
        let report1 = Simulation::new(single)
            .unwrap()
            .run(ProtocolKind::CentralFcfs.build(4).unwrap());
        let multi = SystemConfig::new(scenario)
            .with_batches(BatchMeansConfig::quick(500))
            .with_warmup(200)
            .with_seed(5)
            .with_max_outstanding(4);
        let report4 = Simulation::new(multi)
            .unwrap()
            .run(ProtocolKind::CentralFcfs.build(4).unwrap());
        assert!(
            report4.utilization > report1.utilization,
            "single {} multi {}",
            report1.utilization,
            report4.utilization
        );
    }

    #[test]
    fn transaction_aligned_rule_waits_longer_at_low_load() {
        let greedy = run(ProtocolKind::RoundRobin, quick_config(6, 0.5, 1.0, 1000));
        let aligned_cfg = quick_config(6, 0.5, 1.0, 1000)
            .with_start_rule(ArbitrationStartRule::TransactionAligned);
        let aligned = run(ProtocolKind::RoundRobin, aligned_cfg);
        assert!(
            aligned.mean_wait.mean >= greedy.mean_wait.mean,
            "aligned {} < greedy {}",
            aligned.mean_wait.mean,
            greedy.mean_wait.mean
        );
    }

    #[test]
    fn config_validation() {
        let scenario = Scenario::equal_load(4, 1.0, 1.0).unwrap();
        assert!(
            Simulation::new(SystemConfig::new(scenario.clone()).with_urgent_fraction(1.5)).is_err()
        );
        assert!(Simulation::new(SystemConfig::new(scenario).with_max_outstanding(0)).is_err());
    }

    #[test]
    fn check_kind_admits_several_outstanding_only_where_the_kind_does() {
        let single = Simulation::new(quick_config(4, 2.0, 1.0, 100)).unwrap();
        let several =
            Simulation::new(quick_config(4, 2.0, 1.0, 100).with_max_outstanding(3)).unwrap();
        for &kind in ProtocolKind::all() {
            assert!(single.check_kind(kind).is_ok(), "{kind}");
            match several.check_kind(kind) {
                Ok(()) => assert!(kind.admits_several_outstanding(), "{kind}"),
                Err(Error::InvalidScenario { reason }) => {
                    assert!(!kind.admits_several_outstanding(), "{kind}");
                    assert!(
                        reason.contains(kind.slug()) && reason.contains("max_outstanding = 3"),
                        "{kind}: {reason}"
                    );
                }
                Err(other) => panic!("{kind}: expected InvalidScenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_kind_rejects_several_outstanding_unless_the_kind_admits_them() {
        let sim = Simulation::new(quick_config(4, 2.0, 1.0, 100).with_max_outstanding(2)).unwrap();
        for &kind in ProtocolKind::all() {
            let result = sim.run_kind(kind);
            if kind == ProtocolKind::CentralFcfs {
                assert!(result.is_ok(), "{kind}: {result:?}");
                continue;
            }
            match result {
                Err(Error::InvalidScenario { reason }) => assert!(
                    reason.contains(kind.slug()) && reason.contains("max_outstanding = 2"),
                    "{kind}: {reason}"
                ),
                other => panic!("{kind}: expected InvalidScenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_agent_and_per_class_waits_are_consistent() {
        let config = quick_config(6, 2.0, 1.0, 500).with_urgent_fraction(0.3);
        let report = Simulation::new(config)
            .unwrap()
            .run(ProtocolKind::Fcfs2.build(6).unwrap());
        // Per-agent counts sum to the total sample count.
        let agent_total: u64 = (1..=6).map(|a| report.agent_wait(a).count()).sum();
        assert_eq!(agent_total, report.wait_summary.count());
        // Per-class counts likewise.
        assert_eq!(
            report.ordinary_wait.count() + report.urgent_wait.count(),
            report.wait_summary.count()
        );
        // Urgent requests bypass the queue: lower mean wait.
        assert!(report.urgent_wait.mean() < report.ordinary_wait.mean());
        // Delay spread is defined and sane for a homogeneous workload.
        let spread = report.wait_spread().unwrap();
        assert!((1.0..1.5).contains(&spread), "spread {spread}");
    }

    /// Wraps an arbiter that serves each agent's requests of one class
    /// in arrival order, and logs the class and arrival time of the
    /// request behind every grant.
    struct ServedLog<A> {
        inner: A,
        /// Arrival times of each agent's pending requests per class,
        /// oldest first.
        pending: Vec<[VecDeque<Time>; 2]>,
        served: Rc<RefCell<Vec<(Priority, Time)>>>,
    }

    impl<A: Arbiter> Arbiter for ServedLog<A> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn agents(&self) -> u32 {
            self.inner.agents()
        }

        fn on_request(&mut self, now: Time, agent: AgentId, priority: Priority) {
            self.pending[agent.index()][priority.bit() as usize].push_back(now);
            self.inner.on_request(now, agent, priority);
        }

        fn arbitrate(&mut self, now: Time) -> Option<Grant> {
            let grant = self.inner.arbitrate(now)?;
            let arrived = self.pending[grant.agent.index()][grant.priority.bit() as usize]
                .pop_front()
                .expect("a grant serves a pending request");
            self.served.borrow_mut().push((grant.priority, arrived));
            Some(grant)
        }

        fn pending(&self) -> usize {
            self.inner.pending()
        }
    }

    #[test]
    fn completions_record_the_granted_request() {
        // Two outstanding requests per agent and urgent traffic: an urgent
        // grant often serves an agent whose older request is ordinary.
        let config = quick_config(10, 1.5, 1.0, 300)
            .with_warmup(0)
            .with_max_outstanding(2)
            .with_urgent_fraction(0.3)
            .with_trace(usize::MAX);
        let served = Rc::default();
        let arbiter = ServedLog {
            inner: ProtocolKind::CentralFcfs.build(10).unwrap(),
            pending: vec![Default::default(); 10],
            served: Rc::clone(&served),
        };
        let report = Simulation::new(config).unwrap().run(arbiter);
        // Without warm-up every completion is a sample, and transfers end
        // in grant order; the grants past the last one are still in
        // flight.
        assert_eq!(report.trace.dropped(), 0);
        let ends: Vec<(Time, f64)> = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::TransferEnd { wait, .. } => Some((e.at, wait)),
                _ => None,
            })
            .collect();
        let served = served.borrow();
        assert_eq!(ends.len() as u64, report.wait_summary.count());
        assert!(served.len() - ends.len() <= 2, "{} grants", served.len());
        let (mut ordinary, mut urgent) = (Summary::new(), Summary::new());
        for (&(end, wait), &(class, arrived)) in ends.iter().zip(served.iter()) {
            assert_eq!(wait, (end - arrived).as_f64());
            match class {
                Priority::Urgent => urgent.record(wait),
                Priority::Ordinary => ordinary.record(wait),
            }
        }
        assert!(urgent.count() > 0);
        assert_eq!(report.urgent_wait, urgent);
        assert_eq!(report.ordinary_wait, ordinary);
    }

    #[test]
    fn wait_spread_none_when_an_agent_never_completes() {
        // Fixed priority at overload starves agent 1 entirely.
        let config = quick_config(4, 3.6, 1.0, 300);
        let report = Simulation::new(config)
            .unwrap()
            .run(ProtocolKind::FixedPriority.build(4).unwrap());
        if report.agent_wait(1).count() == 0 {
            assert_eq!(report.wait_spread(), None);
        } else {
            // Even if a few leak through during warm-up transients, the
            // spread must be extreme.
            assert!(report.wait_spread().unwrap() > 1.5);
        }
    }

    #[test]
    #[should_panic(expected = "arbiter sized for")]
    fn mismatched_arbiter_size_panics() {
        let config = quick_config(4, 1.0, 1.0, 10);
        let _ = Simulation::new(config)
            .unwrap()
            .run(ProtocolKind::RoundRobin.build(5).unwrap());
    }
}
