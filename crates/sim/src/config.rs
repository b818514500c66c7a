//! Simulation configuration.

use std::path::PathBuf;

use busarb_obs::TraceFormat;
use busarb_stats::BatchMeansConfig;
use busarb_types::Time;
use busarb_workload::{DrawEngineKind, Scenario};

/// Destination and format of a structured trace export to a file.
///
/// Unlike the bounded in-memory trace (`trace_limit`), an export writes
/// **every** event of the run to disk as it happens, in a
/// self-describing format that `busarb_obs::ReplayBuilder` (and `busarb
/// analyze`) can reconstruct run aggregates from.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceExportConfig {
    /// Destination file (created/truncated at run start).
    pub path: PathBuf,
    /// On-disk framing.
    pub format: TraceFormat,
}

/// How the arbitration overhead is computed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum OverheadModel {
    /// A fixed overhead per arbitration — the paper's Section 4.1
    /// assumption (0.5 bus transaction times for every protocol).
    Fixed(Time),
    /// Overhead scaled by the protocol's arbitration-number width,
    /// modeling Taub's bound of k/2 end-to-end propagation delays plus a
    /// fixed logic delay: `base + per_line * width / 2`. This realizes
    /// the paper's §3.3 efficiency comparison — the FCFS protocol's
    /// wider identities make each arbitration slower than the RR
    /// protocol's, unless binary-patterned lines carry the static part.
    WidthScaled {
        /// Fixed logic/settling delay per arbitration.
        base: Time,
        /// One end-to-end bus propagation delay (the k/2 factor applies
        /// on top).
        per_line: Time,
    },
}

impl OverheadModel {
    /// The overhead for one arbitration on a protocol using `width`
    /// arbitration lines (`None` for central arbiters, which pay only
    /// the base cost).
    #[must_use]
    pub fn overhead(&self, width: Option<u32>) -> Time {
        match *self {
            OverheadModel::Fixed(t) => t,
            OverheadModel::WidthScaled { base, per_line } => {
                base + per_line * (f64::from(width.unwrap_or(0)) / 2.0)
            }
        }
    }
}

impl core::fmt::Display for OverheadModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OverheadModel::Fixed(t) => write!(f, "fixed({t})"),
            OverheadModel::WidthScaled { base, per_line } => {
                write!(f, "width-scaled(base {base}, {per_line}/line)")
            }
        }
    }
}

/// When an arbitration may begin.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum ArbitrationStartRule {
    /// An arbitration starts as soon as (a) no arbitration is in flight,
    /// (b) no already-elected next master is waiting to take over, and
    /// (c) at least one request is pending. This maximizes the overlap of
    /// arbitration with bus service — the behavior the paper assumes
    /// ("arbitration is completely overlapped with bus service whenever
    /// requests are waiting").
    #[default]
    Greedy,
    /// An arbitration starts only at the beginning of a bus transaction
    /// (or when a request arrives to a fully idle bus) — the literal
    /// reading of the paper's "arbitration for the next master starts at
    /// the beginning of a bus transaction". A request arriving
    /// mid-transaction to an empty queue then pays the full 0.5 overhead
    /// after the transaction ends. The `ablation.start-rule` experiment
    /// compares the two.
    TransactionAligned,
}

impl core::fmt::Display for ArbitrationStartRule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArbitrationStartRule::Greedy => f.write_str("greedy"),
            ArbitrationStartRule::TransactionAligned => f.write_str("transaction aligned"),
        }
    }
}

/// Full configuration of one simulation run.
///
/// Constructed with [`SystemConfig::new`] and customized through the
/// `with_*` builder methods; defaults follow the paper's Section 4.1.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Per-agent workloads.
    pub scenario: Scenario,
    /// Arbitration overhead (paper: 0.5 bus transaction times).
    pub arbitration_overhead: Time,
    /// Overrides `arbitration_overhead` with a width-dependent model
    /// when set.
    pub overhead_model: Option<OverheadModel>,
    /// When arbitrations may start.
    pub start_rule: ArbitrationStartRule,
    /// PRNG seed; identical seeds replay identical runs.
    pub seed: u64,
    /// Which draw engine supplies workload randomness. `Reference`
    /// (the default) preserves the byte-identical golden-fixture
    /// contract; `Fast` trades bit-compatibility with those goldens for
    /// throughput while staying internally deterministic per
    /// `(seed, agent)`.
    pub draw_engine: DrawEngineKind,
    /// Responses discarded before statistics collection begins.
    pub warmup_samples: usize,
    /// Batch-means configuration (paper: 10 × 8000, 90% CI).
    pub batches: BatchMeansConfig,
    /// Whether to keep every post-warmup waiting-time sample for CDF
    /// plotting (Figure 4.1 / Table 4.3).
    pub collect_cdf: bool,
    /// Probability that a request is urgent (priority-class extension;
    /// the paper's experiments use 0).
    pub urgent_fraction: f64,
    /// Maximum outstanding requests per agent (FCFS extension; the basic
    /// protocols require 1).
    pub max_outstanding: u32,
    /// Scale each agent's *first* think time by an independent U(0,1)
    /// draw so deterministic workloads do not start in lockstep.
    pub initial_stagger: bool,
    /// Maximum execution-trace events retained (0 disables tracing).
    pub trace_limit: usize,
    /// Write-through structured trace export (every event, unbounded),
    /// independent of the bounded in-memory trace.
    pub trace_export: Option<TraceExportConfig>,
}

impl SystemConfig {
    /// Paper-default configuration for a scenario.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        SystemConfig {
            scenario,
            arbitration_overhead: Time::from(0.5),
            overhead_model: None,
            start_rule: ArbitrationStartRule::default(),
            seed: 0x5EED_CAFE,
            draw_engine: DrawEngineKind::default(),
            warmup_samples: 2000,
            batches: BatchMeansConfig::paper(),
            collect_cdf: false,
            urgent_fraction: 0.0,
            max_outstanding: 1,
            initial_stagger: true,
            trace_limit: 0,
            trace_export: None,
        }
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the draw engine (see [`DrawEngineKind`]).
    #[must_use]
    pub fn with_draw_engine(mut self, engine: DrawEngineKind) -> Self {
        self.draw_engine = engine;
        self
    }

    /// Sets the batch-means configuration.
    #[must_use]
    pub fn with_batches(mut self, batches: BatchMeansConfig) -> Self {
        self.batches = batches;
        self
    }

    /// Sets the number of warm-up responses to discard.
    #[must_use]
    pub fn with_warmup(mut self, samples: usize) -> Self {
        self.warmup_samples = samples;
        self
    }

    /// Enables waiting-time CDF collection.
    #[must_use]
    pub fn with_cdf(mut self) -> Self {
        self.collect_cdf = true;
        self
    }

    /// Sets the arbitration overhead.
    #[must_use]
    pub fn with_arbitration_overhead(mut self, overhead: Time) -> Self {
        self.arbitration_overhead = overhead;
        self
    }

    /// Sets the arbitration start rule.
    #[must_use]
    pub fn with_start_rule(mut self, rule: ArbitrationStartRule) -> Self {
        self.start_rule = rule;
        self
    }

    /// Sets the urgent-request probability.
    #[must_use]
    pub fn with_urgent_fraction(mut self, fraction: f64) -> Self {
        self.urgent_fraction = fraction;
        self
    }

    /// Sets the per-agent outstanding-request limit.
    #[must_use]
    pub fn with_max_outstanding(mut self, limit: u32) -> Self {
        self.max_outstanding = limit;
        self
    }

    /// Disables the initial think-time stagger (pure lockstep start for
    /// deterministic workloads).
    #[must_use]
    pub fn without_initial_stagger(mut self) -> Self {
        self.initial_stagger = false;
        self
    }

    /// Enables execution tracing, retaining at most `limit` events.
    #[must_use]
    pub fn with_trace(mut self, limit: usize) -> Self {
        self.trace_limit = limit;
        self
    }

    /// Uses a width-dependent arbitration-overhead model instead of the
    /// fixed overhead.
    #[must_use]
    pub fn with_overhead_model(mut self, model: OverheadModel) -> Self {
        self.overhead_model = Some(model);
        self
    }

    /// Exports every trace event of the run to `path` in `format`
    /// (see [`TraceExportConfig`]).
    #[must_use]
    pub fn with_trace_export(mut self, path: impl Into<PathBuf>, format: TraceFormat) -> Self {
        self.trace_export = Some(TraceExportConfig {
            path: path.into(),
            format,
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_workload::Scenario;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SystemConfig::new(Scenario::equal_load(10, 1.0, 1.0).unwrap());
        assert_eq!(c.arbitration_overhead, Time::from(0.5));
        assert_eq!(c.batches, BatchMeansConfig::paper());
        assert_eq!(c.start_rule, ArbitrationStartRule::Greedy);
        assert_eq!(c.max_outstanding, 1);
        assert_eq!(c.urgent_fraction, 0.0);
        assert!(!c.collect_cdf);
        assert!(c.initial_stagger);
        assert_eq!(c.trace_limit, 0);
        assert!(c.overhead_model.is_none());
        assert!(c.trace_export.is_none());
        assert_eq!(c.draw_engine, DrawEngineKind::Reference);
    }

    #[test]
    fn overhead_models() {
        let fixed = OverheadModel::Fixed(Time::from(0.5));
        assert_eq!(fixed.overhead(Some(10)), Time::from(0.5));
        assert_eq!(fixed.overhead(None), Time::from(0.5));
        let scaled = OverheadModel::WidthScaled {
            base: Time::from(0.1),
            per_line: Time::from(0.05),
        };
        // base + per_line * width / 2
        assert_eq!(scaled.overhead(Some(8)), Time::from(0.1 + 0.05 * 4.0));
        assert_eq!(scaled.overhead(None), Time::from(0.1));
        assert!(scaled.to_string().contains("width-scaled"));
        assert!(fixed.to_string().contains("fixed"));
    }

    #[test]
    fn builders_apply() {
        let c = SystemConfig::new(Scenario::equal_load(4, 1.0, 1.0).unwrap())
            .with_seed(7)
            .with_draw_engine(DrawEngineKind::Fast)
            .with_batches(BatchMeansConfig::quick(10))
            .with_warmup(5)
            .with_cdf()
            .with_arbitration_overhead(Time::from(0.25))
            .with_start_rule(ArbitrationStartRule::TransactionAligned)
            .with_urgent_fraction(0.1)
            .with_max_outstanding(4)
            .without_initial_stagger()
            .with_trace(100)
            .with_trace_export("/tmp/trace.jsonl", TraceFormat::Binary);
        assert_eq!(c.seed, 7);
        assert_eq!(c.draw_engine, DrawEngineKind::Fast);
        assert_eq!(c.batches.samples_per_batch, 10);
        assert_eq!(c.warmup_samples, 5);
        assert!(c.collect_cdf);
        assert_eq!(c.arbitration_overhead, Time::from(0.25));
        assert_eq!(c.start_rule, ArbitrationStartRule::TransactionAligned);
        assert_eq!(c.urgent_fraction, 0.1);
        assert_eq!(c.max_outstanding, 4);
        assert!(!c.initial_stagger);
        assert_eq!(c.trace_limit, 100);
        let export = c.trace_export.expect("export configured");
        assert_eq!(export.path, PathBuf::from("/tmp/trace.jsonl"));
        assert_eq!(export.format, TraceFormat::Binary);
        assert_eq!(
            ArbitrationStartRule::TransactionAligned.to_string(),
            "transaction aligned"
        );
    }
}
