//! Draw engines: the two interchangeable sources of workload randomness.
//!
//! Every random draw the simulator makes — interrequest ("think") times,
//! the initial phase stagger, urgent-class coin flips — goes through a
//! [`DrawEngine`]. Two implementations exist with deliberately different
//! contracts:
//!
//! * [`ReferenceEngine`] — the historical path: one shared ChaCha12
//!   [`StdRng`] seeded from the run seed, exact `f64::ln` sampling via
//!   [`InterrequestTime::sample`]. Its draw *order and bit patterns* are
//!   part of the byte-identical-reports contract: the `results/` golden
//!   fixtures reproduce bit-for-bit under this engine and nothing in this
//!   crate may perturb it.
//! * [`FastEngine`] — the throughput path: a counter-based Philox4x32-10
//!   generator with an **independent stream per agent** (keyed by run
//!   seed + agent identity, O(1) skippable by construction), inverse-CDF
//!   exponential sampling and exact Marsaglia–Tsang Erlang sampling
//!   (O(1) per draw in the shape, instead of the reference path's `k`
//!   exponentials) through a division-free table-based polynomial log
//!   ([`fast_ln`]-style reduction, ~1e-13 relative error), and draws
//!   batch-generated [`BATCH`] at a time into a per-agent refill buffer
//!   so the hot loop's draw cost amortizes to a buffer pop. It is **statistically** equivalent to the reference engine
//!   (same distributions, different variates) and *internally* bit-exact:
//!   a given `(seed, agent)` stream replays identically regardless of
//!   how other agents' draws interleave, so sweeps stay deterministic at
//!   any worker count.
//!
//! The engine is selected per run through `SystemConfig::with_draw_engine`
//! ([`DrawEngineKind`]); the simulator's event loop is generic over
//! `E: DrawEngine`, so the choice monomorphizes into it.

use core::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use busarb_types::{AgentId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distribution::InterrequestTime;
use crate::scenario::Scenario;

/// Which draw engine a run uses. Carried by `SystemConfig` and recorded
/// in benchmark headers so every figure names the engine that produced
/// it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum DrawEngineKind {
    /// The golden-fixture engine: shared ChaCha12 `StdRng`, exact
    /// `f64::ln`. Byte-identical to the PR-7 `results/` outputs.
    #[default]
    Reference,
    /// The throughput engine: per-agent Philox4x32-10 counter streams,
    /// batched inverse-CDF sampling with a polynomial log. Statistically
    /// equivalent, internally bit-exact, not byte-compatible with the
    /// reference goldens.
    Fast,
}

impl DrawEngineKind {
    /// Parses an engine name (for the `--engine` CLI flags).
    #[must_use]
    pub fn parse(name: &str) -> Option<DrawEngineKind> {
        match name {
            "reference" => Some(DrawEngineKind::Reference),
            "fast" => Some(DrawEngineKind::Fast),
            _ => None,
        }
    }
}

impl fmt::Display for DrawEngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrawEngineKind::Reference => f.write_str("reference"),
            DrawEngineKind::Fast => f.write_str("fast"),
        }
    }
}

/// A source of workload randomness for one simulation run.
///
/// The runner calls [`DrawEngine::think_time`] for every interrequest
/// draw and [`DrawEngine::uniform`] for the initial phase stagger and the
/// urgent-class coin flip. Both take the drawing agent: the reference
/// engine ignores it (one shared stream, draws interleave in event
/// order), the fast engine routes every call to that agent's private
/// stream.
pub trait DrawEngine {
    /// Which engine this is (for dispatch tables and report headers).
    const KIND: DrawEngineKind;

    /// Builds the engine for a run: `seed` plus the scenario's per-agent
    /// interrequest distributions.
    fn for_scenario(seed: u64, scenario: &Scenario) -> Self;

    /// Draws one interrequest time for `agent` from its configured
    /// distribution.
    fn think_time(&mut self, agent: AgentId) -> Time;

    /// Draws one uniform variate on `[0, 1)` on behalf of `agent`.
    fn uniform(&mut self, agent: AgentId) -> f64;
}

/// The golden-fixture engine: today's ChaCha12 [`StdRng`] and exact
/// `f64::ln` sampling, draw-for-draw identical to the pre-engine runner.
///
/// One shared stream serves every agent, so the draw sequence depends on
/// global event order — exactly the historical behavior the `results/`
/// fixtures pin byte-for-byte.
#[derive(Debug)]
pub struct ReferenceEngine {
    rng: StdRng,
    dists: Box<[InterrequestTime]>,
}

impl DrawEngine for ReferenceEngine {
    const KIND: DrawEngineKind = DrawEngineKind::Reference;

    fn for_scenario(seed: u64, scenario: &Scenario) -> Self {
        let dists = AgentId::all(scenario.agents())
            .map(|a| scenario.workload(a).interrequest.clone())
            .collect();
        ReferenceEngine {
            rng: StdRng::seed_from_u64(seed),
            dists,
        }
    }

    #[inline]
    fn think_time(&mut self, agent: AgentId) -> Time {
        self.dists[agent.index()].sample(&mut self.rng)
    }

    #[inline]
    fn uniform(&mut self, _agent: AgentId) -> f64 {
        self.rng.gen::<f64>()
    }
}

/// Samples per refill batch: one refill amortizes the Philox block
/// generation and the log-reduction polynomial over 64 hot-loop pops.
pub const BATCH: usize = 64;

/// Golden-ratio Weyl increments for the Philox round keys (Salmon et
/// al., SC'11).
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;
/// Philox4x32 round multipliers.
const PHILOX_M0: u64 = 0xD251_1F53;
const PHILOX_M1: u64 = 0xCD9E_8D57;

/// One Philox4x32 S-P round: two 32×32→64 multiplies, then the permuted
/// xor-with-key mix.
#[inline]
fn philox_round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let p0 = u64::from(ctr[0]) * PHILOX_M0;
    let p1 = u64::from(ctr[2]) * PHILOX_M1;
    [
        ((p1 >> 32) as u32) ^ ctr[1] ^ key[0],
        p1 as u32,
        ((p0 >> 32) as u32) ^ ctr[3] ^ key[1],
        p0 as u32,
    ]
}

/// The full 10-round Philox4x32-10 block function: 128-bit counter +
/// 64-bit key → 128 bits of output. Counter-based: block `i` of a stream
/// is a pure function of `(key, i)`, so streams are O(1) skippable and
/// agents' streams never entangle.
#[inline]
fn philox4x32_10(mut ctr: [u32; 4], mut key: [u32; 2]) -> [u32; 4] {
    for _ in 0..10 {
        ctr = philox_round(ctr, key);
        key[0] = key[0].wrapping_add(PHILOX_W0);
        key[1] = key[1].wrapping_add(PHILOX_W1);
    }
    ctr
}

/// `splitmix64` finalizer — used only to derive per-agent Philox keys
/// from `(seed, agent identity)`, never on the draw path.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precomputed table for the division-free log reduction: 128 lanes over
/// the mantissa range `[1, 2)`, each holding `1/r` (rounded) and
/// `ln r = -ln(1/r)` for the lane's center `r`. Built once per process
/// with `f64::ln` (the *only* place the fast path's math touches the
/// libm log), then read-only.
#[derive(Debug)]
struct LnTable {
    inv: [f64; 128],
    ln: [f64; 128],
}

static LN_TABLE: OnceLock<LnTable> = OnceLock::new();

fn ln_table() -> &'static LnTable {
    LN_TABLE.get_or_init(|| {
        let mut inv = [0.0f64; 128];
        let mut ln = [0.0f64; 128];
        for i in 0..128 {
            // Lane center r = 1 + (i + 0.5)/128; store its (rounded)
            // reciprocal and the exact ln of that stored reciprocal, so
            // the identity ln m = -ln(1/r) + ln1p(m/r - 1) holds for the
            // values actually used.
            let r_inv = 1.0 / (1.0 + (i as f64 + 0.5) / 128.0);
            inv[i] = r_inv;
            ln[i] = -r_inv.ln();
        }
        LnTable { inv, ln }
    })
}

/// `ln x` for positive finite normal `x` by table-based range reduction:
/// split `x = 2^e · m` with `m ∈ [1, 2)`, pick the lane from the top 7
/// mantissa bits, form `t = m·(1/r) − 1` with `|t| ≤ 2⁻⁸`, and evaluate
/// `ln(1+t)` by a degree-4 Horner polynomial. Division-free on the hot
/// path (the reciprocals are precomputed) and accurate to ~1e-13
/// absolute on `ln x` — far below the statistical resolution of any
/// experiment cell.
#[inline]
fn fast_ln(tab: &LnTable, x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "fast_ln domain: 0 < x < inf");
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64) - 1023;
    let idx = ((bits >> 45) & 0x7F) as usize;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    let t = m.mul_add(tab.inv[idx], -1.0);
    let ln1p = t * t.mul_add(t.mul_add(t.mul_add(-0.25, 1.0 / 3.0), -0.5), 1.0);
    (e as f64).mul_add(core::f64::consts::LN_2, tab.ln[idx] + ln1p)
}

/// Maps a raw `u64` to a uniform on the **half-open** `[0, 1)` with the
/// same 53-bit construction as the rand shim's `gen::<f64>()`.
#[inline]
fn unit_halfopen(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps a raw `u64` to a uniform on the **left-open** `(0, 1]` — the
/// inverse-CDF domain, so `ln` never sees zero.
#[inline]
fn unit_nonzero(u: u64) -> f64 {
    ((u >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-agent transformed-draw recipe, precomputed from the agent's
/// [`InterrequestTime`] so the refill loop never re-derives parameters.
#[derive(Clone, Debug)]
enum Sampler {
    /// CV = 0: no randomness, no buffer — the stream's counter is never
    /// advanced by think-time draws (matching the reference engine,
    /// which also consumes no variate for deterministic draws).
    Deterministic { value: Time },
    /// CV = 1: `-mean · ln u` per sample, one uniform each.
    Exponential { neg_mean: f64 },
    /// 0 < CV < 1: Erlang-k as Gamma(k, θ) by the Marsaglia–Tsang
    /// squeeze-rejection method — one standard normal and one uniform
    /// per draw (acceptance > 99% at k ≥ 2), **O(1) in the shape**
    /// instead of the reference path's k-exponential sum. `d = k - 1/3`
    /// and `c = 1/√(9d)` are the method's precomputed constants.
    Erlang { theta: f64, d: f64, c: f64 },
    /// Trace resampling: one uniform index per sample (widening
    /// multiply; bias ≤ len·2⁻⁶⁴, unobservable).
    Empirical { samples: Arc<[f64]> },
}

/// One agent's private counter-based stream plus its refill buffer.
#[derive(Debug)]
struct AgentStream {
    key: [u32; 2],
    /// Constant high words of the 128-bit Philox counter (a per-agent
    /// salt; the low 64 bits count blocks).
    salt: [u32; 2],
    /// Next Philox block index.
    ctr: u64,
    /// Second half of the last generated block, if unconsumed — blocks
    /// yield two `u64`s and every draw site pulls whole `u64`s, so
    /// nothing is discarded and the stream position stays a pure
    /// function of the number of draws made.
    carry: u64,
    has_carry: bool,
    /// Second normal of the last polar-method pair, if unconsumed (the
    /// rejection step yields two independent normals per acceptance).
    spare: f64,
    has_spare: bool,
    sampler: Sampler,
    /// Next unread slot of `buf`; `BATCH` means "empty, refill".
    pos: usize,
    /// Batched think-time draws, refilled [`BATCH`] at a time.
    buf: [Time; BATCH],
}

impl AgentStream {
    fn new(seed: u64, agent: AgentId, dist: &InterrequestTime) -> Self {
        // Distinct agents hash to distinct splitmix inputs (odd
        // multiplier ⇒ injective), and distinct Philox keys give
        // independent streams by construction.
        let a = splitmix64(seed ^ u64::from(agent.get()).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = splitmix64(a);
        let sampler = match *dist {
            InterrequestTime::Deterministic { value } => Sampler::Deterministic {
                value: Time::from(value),
            },
            InterrequestTime::Exponential { mean } => Sampler::Exponential { neg_mean: -mean },
            InterrequestTime::Erlang { mean, shape } => {
                let d = f64::from(shape) - 1.0 / 3.0;
                Sampler::Erlang {
                    theta: mean / f64::from(shape),
                    d,
                    c: (9.0 * d).sqrt().recip(),
                }
            }
            InterrequestTime::Empirical { ref samples, .. } => Sampler::Empirical {
                samples: Arc::clone(samples),
            },
        };
        AgentStream {
            key: [a as u32, (a >> 32) as u32],
            salt: [b as u32, (b >> 32) as u32],
            ctr: 0,
            carry: 0,
            has_carry: false,
            spare: 0.0,
            has_spare: false,
            sampler,
            pos: BATCH,
            buf: [Time::ZERO; BATCH],
        }
    }

    /// The next raw `u64` of this agent's stream.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.has_carry {
            self.has_carry = false;
            return self.carry;
        }
        let c = self.ctr;
        self.ctr += 1;
        let b = philox4x32_10(
            [c as u32, (c >> 32) as u32, self.salt[0], self.salt[1]],
            self.key,
        );
        self.carry = (u64::from(b[2]) << 32) | u64::from(b[3]);
        self.has_carry = true;
        (u64::from(b[0]) << 32) | u64::from(b[1])
    }

    /// One standard normal by the Marsaglia polar method. Each accepted
    /// rejection pair yields two independent normals, so every other
    /// call is a cached-spare pop; acceptance is π/4 ≈ 0.785.
    #[inline]
    fn next_normal(&mut self, tab: &LnTable) -> f64 {
        if self.has_spare {
            self.has_spare = false;
            return self.spare;
        }
        loop {
            let a = unit_halfopen(self.next_u64()).mul_add(2.0, -1.0);
            let b = unit_halfopen(self.next_u64()).mul_add(2.0, -1.0);
            let s = a.mul_add(a, b * b);
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * fast_ln(tab, s) / s).sqrt();
                self.spare = b * f;
                self.has_spare = true;
                return a * f;
            }
        }
    }

    /// Regenerates the whole buffer: [`BATCH`] inverse-CDF samples in one
    /// pass, so consecutive Philox blocks pipeline and the polynomial
    /// log's table lines stay hot.
    #[inline(never)]
    fn refill(&mut self, tab: &LnTable) {
        match self.sampler {
            // `think_time` short-circuits deterministic draws before the
            // buffer; filling it anyway keeps refill total (no panic
            // branch on the hot path).
            Sampler::Deterministic { value } => self.buf = [value; BATCH],
            Sampler::Exponential { neg_mean } => {
                for i in 0..BATCH {
                    let u = unit_nonzero(self.next_u64());
                    self.buf[i] = Time::saturating(neg_mean * fast_ln(tab, u));
                }
            }
            Sampler::Erlang { theta, d, c } => {
                for i in 0..BATCH {
                    // Marsaglia–Tsang: x ~ N(0,1), v = (1 + cx)³, accept
                    // d·v as a Gamma(k, 1) variate when the squeeze
                    // `u < 1 − 0.0331 x⁴` holds (the common case) or the
                    // exact log test passes. Rejections re-enter the
                    // per-agent stream, so the draw sequence stays a
                    // pure function of (seed, agent, draw count).
                    let gamma = loop {
                        let x = self.next_normal(tab);
                        let t = c.mul_add(x, 1.0);
                        if t <= 0.0 {
                            continue;
                        }
                        let v = t * t * t;
                        let u = unit_nonzero(self.next_u64());
                        let x2 = x * x;
                        if u < 0.0331f64.mul_add(-(x2 * x2), 1.0) {
                            break d * v;
                        }
                        if fast_ln(tab, u) < 0.5f64.mul_add(x2, d * (1.0 - v + fast_ln(tab, v))) {
                            break d * v;
                        }
                    };
                    self.buf[i] = Time::saturating(theta * gamma);
                }
            }
            Sampler::Empirical { ref samples } => {
                let samples = Arc::clone(samples);
                let len = samples.len() as u128;
                for i in 0..BATCH {
                    let idx = ((u128::from(self.next_u64()) * len) >> 64) as usize;
                    self.buf[i] = Time::saturating(samples[idx]);
                }
            }
        }
        self.pos = 0;
    }
}

/// The throughput engine: an independent Philox4x32-10 counter stream
/// per agent, inverse-CDF sampling through the division-free table log,
/// and [`BATCH`]-deep refill buffers.
///
/// Determinism contract: agent `a`'s draw sequence is a pure function of
/// `(seed, a, number of draws already made by a)` — independent of every
/// other agent and of sweep worker count. See the module docs for what
/// is bit-stable versus only statistically stable.
#[derive(Debug)]
pub struct FastEngine {
    streams: Box<[AgentStream]>,
    tab: &'static LnTable,
}

impl DrawEngine for FastEngine {
    const KIND: DrawEngineKind = DrawEngineKind::Fast;

    fn for_scenario(seed: u64, scenario: &Scenario) -> Self {
        let streams = AgentId::all(scenario.agents())
            .map(|a| AgentStream::new(seed, a, &scenario.workload(a).interrequest))
            .collect();
        FastEngine {
            streams,
            tab: ln_table(),
        }
    }

    #[inline]
    fn think_time(&mut self, agent: AgentId) -> Time {
        let stream = &mut self.streams[agent.index()];
        if let Sampler::Deterministic { value } = stream.sampler {
            return value;
        }
        if stream.pos == BATCH {
            stream.refill(self.tab);
        }
        let t = stream.buf[stream.pos];
        stream.pos += 1;
        t
    }

    #[inline]
    fn uniform(&mut self, agent: AgentId) -> f64 {
        unit_halfopen(self.streams[agent.index()].next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn scenario(n: u32, cv: f64) -> Scenario {
        Scenario::equal_load(n, f64::from(n) * 0.5, cv).expect("valid scenario")
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [DrawEngineKind::Reference, DrawEngineKind::Fast] {
            assert_eq!(DrawEngineKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(DrawEngineKind::parse("bogus"), None);
        assert_eq!(DrawEngineKind::default(), DrawEngineKind::Reference);
    }

    #[test]
    fn reference_engine_matches_the_historical_draw_stream() {
        // Literal bits at seed 99, recorded from the pre-engine sampler
        // and the scalar ChaCha12 kernel: an exponential think time, an
        // Erlang k = 100 think time (100 uniforms, four buffer refills),
        // and the uniform drawn after each.
        let agent = AgentId::new(1).expect("valid identity");
        for (cv, think_bits, uniform_bits) in [
            (1.0, 0x3fef_edcd_9627_f1db_u64, 0x3fe6_526a_3ed8_2ecd_u64),
            (0.1, 0x3ff2_5338_baf1_f0a1, 0x3fd3_05df_29e5_1990),
        ] {
            let mut engine = ReferenceEngine::for_scenario(99, &scenario(4, cv));
            assert_eq!(
                engine.think_time(agent).as_f64().to_bits(),
                think_bits,
                "cv {cv}"
            );
            assert_eq!(engine.uniform(agent).to_bits(), uniform_bits, "cv {cv}");
        }

        // The engine must be a transparent refactor of the old runner
        // code: same StdRng, same sample calls, same interleaving.
        let s = scenario(4, 1.0);
        let mut engine = ReferenceEngine::for_scenario(99, &s);
        let mut rng = StdRng::seed_from_u64(99);
        for agent in AgentId::all(4) {
            assert_eq!(
                engine.think_time(agent),
                s.workload(agent).interrequest.sample(&mut rng)
            );
            assert_eq!(engine.uniform(agent), rng.gen::<f64>());
        }
    }

    #[test]
    fn philox_blocks_differ_by_counter_and_key() {
        let k = [1u32, 2];
        let a = philox4x32_10([0, 0, 0, 0], k);
        let b = philox4x32_10([1, 0, 0, 0], k);
        let c = philox4x32_10([0, 0, 0, 0], [3, 4]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Pure function: same inputs, same block.
        assert_eq!(a, philox4x32_10([0, 0, 0, 0], k));
    }

    #[test]
    fn fast_ln_tracks_libm_ln() {
        let tab = ln_table();
        let mut worst = 0.0f64;
        // Sweep magnitudes from tiny to huge plus the near-1 cancellation
        // zone.
        let mut x = 1e-300;
        while x < 1e300 {
            let got = fast_ln(tab, x);
            let want = x.ln();
            worst = worst.max((got - want).abs() / want.abs().max(1.0));
            x *= 1.9;
        }
        for i in 0..1000 {
            let x = 0.5 + f64::from(i) / 667.0;
            let err = (fast_ln(tab, x) - x.ln()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 1e-12, "worst fast_ln error {worst:e}");
    }

    #[test]
    fn unit_mappings_stay_in_range() {
        for u in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let h = unit_halfopen(u);
            let n = unit_nonzero(u);
            assert!((0.0..1.0).contains(&h), "halfopen({u}) = {h}");
            assert!(n > 0.0 && n <= 1.0, "nonzero({u}) = {n}");
        }
        assert_eq!(unit_halfopen(0), 0.0);
        assert_eq!(unit_nonzero(u64::MAX), 1.0);
    }

    #[test]
    fn fast_streams_are_independent_of_other_agents() {
        let s = scenario(3, 1.0);
        let a2 = AgentId::new(2).expect("valid identity");
        // Draw agent 2's stream alone...
        let mut solo = FastEngine::for_scenario(7, &s);
        let alone: Vec<Time> = (0..200).map(|_| solo.think_time(a2)).collect();
        // ...and interleaved with heavy traffic from agents 1 and 3.
        let mut busy = FastEngine::for_scenario(7, &s);
        let mut interleaved = Vec::new();
        for i in 0..200 {
            for other in [AgentId::new(1), AgentId::new(3)] {
                let o = other.expect("valid identity");
                for _ in 0..(i % 5) {
                    let _ = busy.think_time(o);
                    let _ = busy.uniform(o);
                }
            }
            interleaved.push(busy.think_time(a2));
        }
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn fast_uniform_and_think_draws_share_one_per_agent_position() {
        // Interleaving uniforms into an agent's own stream *does* shift
        // its later think times (one stream per agent), but stays
        // deterministic under replay.
        let s = scenario(2, 1.0);
        let a = AgentId::new(1).expect("valid identity");
        let run = |with_uniform: bool| -> Vec<Time> {
            let mut e = FastEngine::for_scenario(5, &s);
            if with_uniform {
                let _ = e.uniform(a);
            }
            (0..10).map(|_| e.think_time(a)).collect()
        };
        assert_eq!(run(true), run(true));
        assert_eq!(run(false), run(false));
    }

    #[test]
    fn deterministic_family_consumes_no_stream_state() {
        let s = scenario(2, 0.0);
        let a = AgentId::new(1).expect("valid identity");
        let mut e = FastEngine::for_scenario(11, &s);
        let u_before = {
            let mut probe = FastEngine::for_scenario(11, &s);
            probe.uniform(a)
        };
        for _ in 0..50 {
            let t = e.think_time(a);
            assert!(t.as_f64() > 0.0);
        }
        // 50 deterministic draws later the stream is still at position 0.
        assert_eq!(e.uniform(a), u_before);
    }

    #[test]
    fn erlang_sampler_handles_extreme_shapes() {
        // k = 625 (CV = 0.04): samples must stay positive, finite, and
        // tightly concentrated around the mean — the rejection method's
        // cost is O(1) in the shape, so this is no slower than k = 2.
        let d = InterrequestTime::Erlang {
            mean: 10.0,
            shape: 625,
        };
        let workloads = vec![crate::AgentWorkload { interrequest: d }; 3];
        let s = Scenario::from_workloads(workloads, "erlang-625").expect("valid scenario");
        let a = AgentId::new(1).expect("valid identity");
        let mut e = FastEngine::for_scenario(3, &s);
        let mut sum = 0.0;
        let n = 8 * BATCH;
        for _ in 0..n {
            let t = e.think_time(a).as_f64();
            assert!(t.is_finite() && t > 0.0, "sample {t}");
            // Mean 10, sd 0.4: anything past ±10 sd is a broken sampler.
            assert!((6.0..14.0).contains(&t), "sample {t} implausible for k=625");
            sum += t;
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "sample mean {mean}");
    }

    #[test]
    fn erlang_moments_match_the_distribution() {
        // Marsaglia–Tsang must reproduce the Erlang's first two moments:
        // mean θk and CV 1/√k.
        let d = InterrequestTime::Erlang {
            mean: 4.0,
            shape: 100,
        };
        let workloads = vec![crate::AgentWorkload { interrequest: d }; 2];
        let s = Scenario::from_workloads(workloads, "erlang-100").expect("valid scenario");
        let a = AgentId::new(1).expect("valid identity");
        let mut e = FastEngine::for_scenario(17, &s);
        let n = 64 * BATCH;
        let samples: Vec<f64> = (0..n).map(|_| e.think_time(a).as_f64()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean} (want 4.0)");
        assert!((cv - 0.1).abs() < 0.01, "cv {cv} (want 0.1)");
    }
}
