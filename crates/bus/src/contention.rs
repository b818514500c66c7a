//! The distributed maximum-finding settle dynamics.

use core::fmt;

use busarb_types::Error;

use crate::NumberLayout;

/// How the arbitration lines resolve contention.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum LineDiscipline {
    /// Conventional wired-OR lines carrying every bit of every competitor's
    /// number. Settles in multiple propagation rounds; the winning number is
    /// visible to **all** agents at the end — the property the RR and FCFS
    /// protocols depend on.
    #[default]
    FullBroadcast,
    /// Johnson's binary-patterned lines (US patent 4,375,639): resolution
    /// completes in a single end-to-end propagation, but the winner's
    /// identity is known only to the winner itself. Paper footnote 2: the
    /// RR protocol "cannot use binary patterned arbitration lines easily";
    /// the FCFS protocol can use them for the *static* part of its
    /// identity to reclaim the wider-number overhead (Section 3.3).
    BinaryPatterned,
}

impl fmt::Display for LineDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineDiscipline::FullBroadcast => f.write_str("full broadcast"),
            LineDiscipline::BinaryPatterned => f.write_str("binary patterned"),
        }
    }
}

/// Outcome of one arbitration on the shared lines.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Resolution {
    /// The value the lines settled to — the maximum competing number, or 0
    /// if nobody competed.
    pub winner_value: u64,
    /// Synchronous propagation rounds taken to settle (1 for binary
    /// patterned lines).
    pub rounds: u32,
    /// Whether the winning number is visible to every agent on the bus
    /// (`true` for full-broadcast lines). Protocols that need the winner's
    /// identity (all three RR implementations) require this.
    pub winner_broadcast: bool,
}

/// A k-line parallel contention arbiter.
///
/// The settle dynamics are modeled as **synchronous propagation rounds**:
/// in each round every competitor observes the wired-OR of the patterns
/// applied in the previous round and recomputes its applied pattern by the
/// paper's rule — *"if the value carried by line i is 1, but the agent is
/// applying 0 to it, then the agent removes the lower-order bits of its
/// identity [below i]; if line i drops back to 0, the agent reapplies
/// them"*. The iteration reaches a fixpoint carrying the maximum competing
/// number.
///
/// Taub proved a bound of k/2 end-to-end propagation delays for the analog,
/// worst-case-placement formulation; the synchronous model used here
/// settles in at most k + 1 rounds, counting the initial application (the
/// bound `rounds_bounded_by_width` and the `settle_round_bound` property
/// test check). `bench_run`'s `settle_by_width` rows time the settle.
///
/// # Examples
///
/// ```
/// use busarb_bus::ParallelContention;
///
/// let arbiter = ParallelContention::new(4);
/// let r = arbiter.resolve(&[0b0101, 0b1001, 0b0110]);
/// assert_eq!(r.winner_value, 0b1001);
/// assert!(r.rounds <= 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParallelContention {
    width: u32,
    discipline: LineDiscipline,
}

/// The most competitors one resolve can host: every agent of a maximal
/// 128-agent system applying a pattern at once. Keeping the bound static
/// lets `settle` hold the per-competitor applied-pattern plane in a stack
/// array, so a resolve takes neither a heap buffer nor a lock. `settle`
/// runs once per signal-level arbitration; the simulator's event loop
/// uses the scheduling-level arbiters and never calls it.
const MAX_COMPETITORS: usize = 128;

impl ParallelContention {
    /// The most lines one arbiter models: the line mask `(1 << width) - 1`
    /// must fit the `u64` the patterns travel in.
    pub const MAX_WIDTH: u32 = 63;

    /// Creates an arbiter with `width` arbitration lines and full-broadcast
    /// discipline.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`ParallelContention::MAX_WIDTH`].
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            width > 0 && width <= Self::MAX_WIDTH,
            "arbitration width must be in 1..=63"
        );
        ParallelContention {
            width,
            discipline: LineDiscipline::FullBroadcast,
        }
    }

    /// Creates a full-broadcast arbiter with one line per bit of
    /// `layout`, for systems whose layout takes a caller-chosen counter
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LayoutTooWide`] if the layout needs more than
    /// [`ParallelContention::MAX_WIDTH`] lines.
    pub fn for_layout(layout: &NumberLayout) -> Result<Self, Error> {
        let width = layout.width();
        if width > Self::MAX_WIDTH {
            return Err(Error::LayoutTooWide {
                width,
                max: Self::MAX_WIDTH,
            });
        }
        Ok(Self::new(width))
    }

    /// Selects the line discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: LineDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Number of arbitration lines.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The configured line discipline.
    #[must_use]
    pub fn discipline(&self) -> LineDiscipline {
        self.discipline
    }

    /// Mask of valid line bits (consulted only by the debug-build
    /// competitor validation in `resolve_inner`).
    #[cfg(debug_assertions)]
    fn mask(&self) -> u64 {
        (1u64 << self.width) - 1
    }

    /// Runs one arbitration among `competitors` (each entry is the raw
    /// pattern one agent applies).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if any competitor value does not fit in the
    /// configured width. (Patterns are produced by the signal systems'
    /// number layouts, which are width-checked at construction; re-checking
    /// every pattern on every resolve was measurable in the simulation hot
    /// loop, so release builds trust the layout invariant.)
    #[must_use]
    pub fn resolve(&self, competitors: &[u64]) -> Resolution {
        self.resolve_inner(competitors, None)
    }

    /// Like [`Self::resolve`], but also records the wired-OR line state
    /// after every propagation round (for tracing and visualization).
    #[must_use]
    pub fn resolve_traced(&self, competitors: &[u64]) -> (Resolution, Vec<u64>) {
        let mut trace = Vec::new();
        let r = self.resolve_inner(competitors, Some(&mut trace));
        (r, trace)
    }

    fn resolve_inner(&self, competitors: &[u64], mut trace: Option<&mut Vec<u64>>) -> Resolution {
        #[cfg(debug_assertions)]
        for &c in competitors {
            assert!(
                c <= self.mask(),
                "competitor {c:#b} exceeds arbitration width {}",
                self.width
            );
        }
        match self.discipline {
            LineDiscipline::BinaryPatterned => {
                // Architectural model: single-round resolution, winner not
                // broadcast.
                let winner = competitors.iter().copied().max().unwrap_or(0);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(winner);
                }
                Resolution {
                    winner_value: winner,
                    rounds: 1,
                    winner_broadcast: false,
                }
            }
            LineDiscipline::FullBroadcast => self.settle(competitors, trace),
        }
    }

    /// Iterates the withdraw/reapply dynamics to a fixpoint.
    fn settle(&self, competitors: &[u64], mut trace: Option<&mut Vec<u64>>) -> Resolution {
        // With 0 or 1 competitors the lines settle in the initial
        // application round — there is no conflicting bit to withdraw from
        // — so skip the plane and the fixpoint iteration entirely.
        // Uncontended arbitrations dominate low-load cells, which makes
        // this the most common resolve shape in a sweep.
        if competitors.len() <= 1 {
            let winner = competitors.first().copied().unwrap_or(0);
            if let Some(t) = trace.as_deref_mut() {
                t.push(winner);
            }
            return Resolution {
                winner_value: winner,
                rounds: 1,
                winner_broadcast: true,
            };
        }
        assert!(
            competitors.len() <= MAX_COMPETITORS,
            "at most {MAX_COMPETITORS} agents can compete in one arbitration"
        );
        // Round 0: every competitor applies its full pattern into the
        // stack-resident applied plane. Each fixpoint iteration below is a
        // single pass of word ops over the plane — the recomputed pattern,
        // an XOR against the previous round for change detection, and the
        // OR-reduction for the next line state all fuse into one loop.
        let mut plane = [0u64; MAX_COMPETITORS];
        let applied = &mut plane[..competitors.len()];
        applied.copy_from_slice(competitors);
        let mut lines: u64 = applied.iter().fold(0, |acc, &p| acc | p);
        if let Some(t) = trace.as_deref_mut() {
            t.push(lines);
        }
        let mut rounds = 1; // the initial application is one propagation
        loop {
            let mut diff = 0u64;
            let mut next_lines = 0u64;
            for (pattern, slot) in competitors.iter().zip(applied.iter_mut()) {
                let next = Self::apply_rule(*pattern, lines);
                diff |= next ^ *slot;
                *slot = next;
                next_lines |= next;
            }
            if diff == 0 {
                break;
            }
            lines = next_lines;
            if let Some(t) = trace.as_deref_mut() {
                t.push(lines);
            }
            rounds += 1;
            assert!(
                rounds <= 4 * self.width + 4,
                "settle dynamics failed to converge"
            );
        }
        Resolution {
            winner_value: lines,
            rounds,
            winner_broadcast: true,
        }
    }

    /// One agent's combinational monitoring rule: find the highest line
    /// carrying 1 where this agent's pattern has 0, and withdraw all bits
    /// below it.
    fn apply_rule(pattern: u64, lines: u64) -> u64 {
        let conflicts = lines & !pattern;
        if conflicts == 0 {
            pattern
        } else {
            let top = 63 - conflicts.leading_zeros();
            // Keep bits at positions > top (bit `top` itself is 0 in this
            // agent's pattern); withdraw everything below.
            pattern & !((1u64 << (top + 1)) - 1) | (pattern & (1u64 << top))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Section 2.1: agents 1010101 and 0011100.
        let arbiter = ParallelContention::new(7);
        let (r, trace) = arbiter.resolve_traced(&[0b1010101, 0b0011100]);
        assert_eq!(r.winner_value, 0b1010101);
        assert!(r.winner_broadcast);
        // First propagation round: OR of the full patterns.
        assert_eq!(trace[0], 0b1011101);
        // Settled state carries the winner.
        assert_eq!(*trace.last().unwrap(), 0b1010101);
    }

    #[test]
    fn resolves_to_maximum_for_various_sets() {
        let arbiter = ParallelContention::new(7);
        let cases: &[&[u64]] = &[
            &[1],
            &[127],
            &[1, 2, 3, 4, 5],
            &[0b1000000, 0b0111111],
            &[5, 5], // duplicate identities still settle
            &[0b0101010, 0b1010101, 0b0110011],
        ];
        for &set in cases {
            let r = arbiter.resolve(set);
            assert_eq!(r.winner_value, *set.iter().max().unwrap(), "{set:?}");
        }
    }

    #[test]
    fn empty_competition_settles_to_zero() {
        // RR-3 relies on "a winning identity of zero indicates that no
        // agent participated".
        let arbiter = ParallelContention::new(5);
        let r = arbiter.resolve(&[]);
        assert_eq!(r.winner_value, 0);
    }

    #[test]
    fn rounds_bounded_by_width() {
        let width = 7;
        let arbiter = ParallelContention::new(width);
        // Exhaustive pairs over a subrange plus structured worst cases.
        for a in 1..64u64 {
            for b in 1..64u64 {
                let r = arbiter.resolve(&[a, b]);
                assert_eq!(r.winner_value, a.max(b));
                assert!(
                    r.rounds <= width + 1,
                    "a={a:#b} b={b:#b} rounds={}",
                    r.rounds
                );
            }
        }
    }

    #[test]
    fn alternating_patterns_need_multiple_rounds() {
        // Alternating bit patterns are the classic slow case for the
        // withdraw/reapply dynamics.
        let arbiter = ParallelContention::new(8);
        let r = arbiter.resolve(&[0b10101010, 0b01010101]);
        assert_eq!(r.winner_value, 0b10101010);
        assert!(r.rounds >= 2);
    }

    #[test]
    fn single_competitor_settles_immediately() {
        let arbiter = ParallelContention::new(6);
        let r = arbiter.resolve(&[0b101010]);
        assert_eq!(r.winner_value, 0b101010);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn binary_patterned_discipline() {
        let arbiter = ParallelContention::new(6).with_discipline(LineDiscipline::BinaryPatterned);
        let r = arbiter.resolve(&[9, 33, 17]);
        assert_eq!(r.winner_value, 33);
        assert_eq!(r.rounds, 1);
        assert!(!r.winner_broadcast);
        assert_eq!(arbiter.discipline(), LineDiscipline::BinaryPatterned);
    }

    #[test]
    fn full_broadcast_publishes_winner() {
        let arbiter = ParallelContention::new(6);
        assert!(arbiter.resolve(&[1, 2]).winner_broadcast);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds arbitration width")]
    fn oversized_competitor_panics() {
        let arbiter = ParallelContention::new(3);
        let _ = arbiter.resolve(&[8]);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_panics() {
        let _ = ParallelContention::new(0);
    }

    #[test]
    fn discipline_display() {
        assert_eq!(LineDiscipline::FullBroadcast.to_string(), "full broadcast");
        assert_eq!(
            LineDiscipline::BinaryPatterned.to_string(),
            "binary patterned"
        );
    }

    #[test]
    fn trace_is_monotone_towards_winner_value() {
        let arbiter = ParallelContention::new(7);
        let (r, trace) = arbiter.resolve_traced(&[0b1010101, 0b0011100, 0b1000011]);
        assert_eq!(r.winner_value, 0b1010101);
        assert_eq!(trace.len() as u32, r.rounds);
        // Every traced state contains the eventual winner's surviving MSBs.
        assert!(trace.iter().all(|&l| l & 0b1000000 != 0));
    }
}
