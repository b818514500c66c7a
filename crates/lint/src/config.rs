//! The busarb workspace's lint configuration: hot roots, fast-math
//! roots, runner roots, determinism scope, and dispatch surfaces.
//!
//! This is deliberately *data*, kept in one place: growing the system
//! (a new arbiter, a new analyzer, a new dispatch surface) means adding
//! a row here, and the `root-missing` check guarantees a rename cannot
//! silently disarm a row that already exists.

use crate::checks::{MatchSite, RootSpec, TokenSite};

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Enum whose dispatch must stay exhaustive.
    pub enum_name: String,
    /// Variant names (`FixedPriority`, …).
    pub variants: Vec<String>,
    /// CLI slugs (`fixed-priority`, …).
    pub slugs: Vec<String>,
    /// Path prefixes whose `fn` items are call-graph resolution targets
    /// (the crates the hot loop can actually link against).
    pub graph_paths: Vec<&'static str>,
    /// Hot entry points: allocation/panic/lock-free transitively.
    pub hot_roots: Vec<RootSpec>,
    /// Fast-draw entry points: libm-slow-math-free transitively.
    pub fast_math_roots: Vec<RootSpec>,
    /// Mono-runner entry points: the panic-surface catalog scope.
    pub runner_roots: Vec<RootSpec>,
    /// Path prefixes of crates feeding `RunReport`/sweep merge
    /// aggregation (determinism scope).
    pub determinism_paths: Vec<&'static str>,
    /// Variant-path token-count surfaces.
    pub variant_sites: Vec<TokenSite>,
    /// Slug string-literal token-count surfaces.
    pub slug_sites: Vec<TokenSite>,
    /// Exhaustive match-arm surfaces.
    pub match_sites: Vec<MatchSite>,
}

fn root(file: &'static str, impl_type: Option<&'static str>, name: &'static str) -> RootSpec {
    RootSpec {
        file,
        impl_type,
        name,
    }
}

/// The configuration for this workspace. `variants` and `slugs` come
/// from `busarb_core::ProtocolKind` at the call site (`xtask` and the
/// self-tests) so this crate stays dependency-free.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn busarb_config(variants: Vec<String>, slugs: Vec<String>) -> Config {
    let mut hot_roots = vec![
        // The word-parallel contention settle loop.
        root("crates/bus/src/contention.rs", None, "settle"),
        // The slot-calendar event queue: once per event in the steady
        // state.
        root("crates/sim/src/event.rs", None, "schedule"),
        root("crates/sim/src/event.rs", None, "schedule_arrival"),
        root("crates/sim/src/event.rs", None, "pop"),
        root("crates/sim/src/event.rs", None, "peek_time"),
        // Draw engines: per-event think times and uniforms.
        root(
            "crates/workload/src/engine.rs",
            Some("ReferenceEngine"),
            "think_time",
        ),
        root(
            "crates/workload/src/engine.rs",
            Some("ReferenceEngine"),
            "uniform",
        ),
        root(
            "crates/workload/src/engine.rs",
            Some("FastEngine"),
            "think_time",
        ),
        root(
            "crates/workload/src/engine.rs",
            Some("FastEngine"),
            "uniform",
        ),
        root(
            "crates/workload/src/engine.rs",
            Some("AgentStream"),
            "refill",
        ),
        // Closed-loop MESI model: miss classification on every grant
        // completion, and the reference-stream scan that enqueues the
        // next miss.
        root(
            "crates/mem/src/lib.rs",
            Some("CoherenceSystem"),
            "next_miss",
        ),
        root("crates/mem/src/lib.rs", Some("CoherenceSystem"), "complete"),
        // Always-on metrics registry, updated on every transition.
        root("crates/obs/src/registry.rs", None, "on_event"),
        root("crates/obs/src/registry.rs", None, "on_request"),
        root("crates/obs/src/registry.rs", None, "on_grant"),
        root("crates/obs/src/registry.rs", None, "on_transfer_start"),
        root("crates/obs/src/registry.rs", None, "on_completion"),
        root("crates/obs/src/registry.rs", None, "on_coherence"),
        root("crates/obs/src/registry.rs", None, "on_invalidation"),
        root("crates/obs/src/metrics.rs", None, "record"),
        // Binary trace encoding: once per record a traced run exports.
        root("crates/obs/src/export.rs", Some("BinarySink"), "record"),
        // Binary trace decoding: once per record read back.
        root("crates/obs/src/stream.rs", None, "decode_record"),
        // Streaming analyzers: once per trace event.
        root("crates/tail/src/usage.rs", None, "push"),
        root("crates/tail/src/usage.rs", None, "account"),
        root("crates/tail/src/fairness.rs", None, "on_grant"),
        root("crates/tail/src/adapters.rs", None, "on_event"),
    ];
    // Every scheduling-level arbiter: request intake + winner scan.
    for file in [
        "crates/core/src/fcfs.rs",
        "crates/core/src/hybrid.rs",
        "crates/core/src/adaptive.rs",
        "crates/core/src/central.rs",
        "crates/core/src/ticket.rs",
        "crates/core/src/round_robin.rs",
        "crates/core/src/rotating.rs",
        "crates/core/src/fixed_priority.rs",
        "crates/core/src/assured_access.rs",
    ] {
        hot_roots.push(root(file, None, "arbitrate"));
        hot_roots.push(root(file, None, "on_request"));
    }
    // The arrival-group bookkeeping behind the FCFS planes, hybrid, and
    // adaptive arbiters, rooted directly so its purity does not hinge on
    // by-name method resolution from the arbiters' call sites.
    let arrival = "crates/core/src/arrival.rs";
    for name in [
        "insert",
        "remove",
        "select",
        "pulse",
        "top_class",
        "outstanding",
        "oldest_of",
    ] {
        hot_roots.push(root(arrival, Some("ArrivalGroups"), name));
    }
    // The runner's per-agent request queues, rooted the same way.
    for name in ["push", "pop"] {
        hot_roots.push(root("crates/sim/src/system.rs", Some("AgentPlanes"), name));
    }
    hot_roots.push(root("crates/core/src/arbiter.rs", None, "rr_pick"));
    // Every signal-level register system.
    for file in [
        "crates/bus/src/signal/rr1.rs",
        "crates/bus/src/signal/rr2.rs",
        "crates/bus/src/signal/rr3.rs",
        "crates/bus/src/signal/fcfs1.rs",
        "crates/bus/src/signal/fcfs2.rs",
        "crates/bus/src/signal/aap.rs",
    ] {
        hot_roots.push(root(file, None, "arbitrate"));
    }
    hot_roots.push(root(
        "crates/bus/src/signal/rr3.rs",
        None,
        "arbitrate_below",
    ));

    Config {
        enum_name: "ProtocolKind".to_string(),
        variants,
        slugs,
        graph_paths: vec![
            "crates/types/",
            "crates/bus/",
            "crates/core/",
            "crates/sim/",
            "crates/workload/",
            "crates/mem/",
            "crates/obs/",
            "crates/tail/",
            "crates/stats/",
            // Only the shims the hot loop can actually link against:
            // proptest is test-only, and its `sample`/`from` fns would
            // otherwise soak up method-call resolution from the draw
            // engines.
            "shims/rand/",
            "shims/serde/",
            "shims/serde_json/",
        ],
        hot_roots,
        // The fast engine exists to avoid libm on the draw path; the
        // reference engine deliberately keeps exact `.ln()` and is not
        // in this closure.
        fast_math_roots: vec![
            root(
                "crates/workload/src/engine.rs",
                Some("FastEngine"),
                "think_time",
            ),
            root(
                "crates/workload/src/engine.rs",
                Some("FastEngine"),
                "uniform",
            ),
            root(
                "crates/workload/src/engine.rs",
                Some("AgentStream"),
                "refill",
            ),
            root(
                "crates/workload/src/engine.rs",
                Some("AgentStream"),
                "next_normal",
            ),
            root(
                "crates/workload/src/engine.rs",
                Some("AgentStream"),
                "next_u64",
            ),
        ],
        runner_roots: vec![
            root("crates/sim/src/system.rs", Some("Simulation"), "run"),
            root("crates/sim/src/system.rs", Some("Simulation"), "run_kind"),
        ],
        determinism_paths: vec![
            "crates/sim/",
            "crates/mem/",
            "crates/obs/",
            "crates/tail/",
            "crates/stats/",
            "crates/workload/",
            "crates/experiments/",
            "src/",
        ],
        variant_sites: vec![
            // Enum-adjacent: `visit`, `all`, and `slug`.
            TokenSite {
                file: "crates/core/src/arbiter.rs",
                min_count: 3,
            },
            TokenSite {
                file: "crates/verify/src/model.rs",
                min_count: 1,
            },
            TokenSite {
                file: "crates/verify/src/spec.rs",
                min_count: 1,
            },
        ],
        slug_sites: vec![
            // The streaming analyzers' protocol-family dispatch: every
            // slug must map to an adapter (its wildcard arm is for
            // *future* protocols, not an excuse to skip present ones).
            TokenSite {
                file: "crates/tail/src/adapters.rs",
                min_count: 1,
            },
        ],
        match_sites: vec![
            // The one kind -> constructor table and the one slug table.
            MatchSite {
                file: "crates/core/src/arbiter.rs",
                impl_type: Some("ProtocolKind"),
                fn_name: "visit",
            },
            MatchSite {
                file: "crates/core/src/arbiter.rs",
                impl_type: Some("ProtocolKind"),
                fn_name: "slug",
            },
            MatchSite {
                file: "crates/verify/src/spec.rs",
                impl_type: Some("Spec"),
                fn_name: "for_kind",
            },
            MatchSite {
                file: "crates/verify/src/model.rs",
                impl_type: None,
                fn_name: "build_group",
            },
        ],
    }
}
