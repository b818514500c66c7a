//! Word-parallel membership planes.
//!
//! [`AgentMask`] is the width-parameterized sibling of
//! [`AgentSet`](crate::AgentSet): the same membership-bitmask semantics,
//! but stored as `W` explicit 64-bit words (`W = 1` covers 64 agents,
//! `W = 2` covers the full 128-agent ceiling). Hot loops that
//! monomorphize over the system width use it so that a 30-agent cell
//! pays for exactly one word of scanning, not the fixed `u128` of
//! `AgentSet` — and struct-of-arrays state ("planes") can pair one mask
//! per property (pending, blocked, urgent) with parallel counter or
//! identity arrays, turning per-agent walks into word ops: membership is
//! a single `or`/`and`, the contention winner is `leading_zeros`, and
//! round-robin restriction is mask-and-scan (see
//! [`AgentMask::max_below`]).

use core::fmt;

use crate::agent::{AgentId, AgentSet};

/// A set of agent identities stored as `W` 64-bit membership words.
///
/// Bit `i % 64` of word `i / 64` is set iff identity `i + 1` is a
/// member, matching [`AgentSet`]'s layout word for word; `bits()` /
/// `from_bits` convert losslessly while `W * 64 <= 128`.
///
/// # Examples
///
/// ```
/// use busarb_types::{AgentId, AgentMask};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut mask: AgentMask<1> = AgentMask::new();
/// mask.insert(AgentId::new(3)?);
/// mask.insert(AgentId::new(7)?);
/// assert!(mask.contains(AgentId::new(3)?));
/// assert_eq!(mask.len(), 2);
/// assert_eq!(mask.max(), Some(AgentId::new(7)?));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentMask<const W: usize> {
    words: [u64; W],
}

impl<const W: usize> AgentMask<W> {
    /// Largest identity representable at this width.
    #[must_use]
    pub const fn capacity() -> u32 {
        64 * W as u32
    }

    /// Creates an empty mask.
    #[must_use]
    pub const fn new() -> Self {
        AgentMask { words: [0; W] }
    }

    /// Creates a mask containing all identities `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`AgentMask::capacity`].
    #[must_use]
    pub fn full(n: u32) -> Self {
        assert!(
            n <= Self::capacity(),
            "AgentMask<{W}> supports at most {} agents",
            Self::capacity()
        );
        let mut words = [0u64; W];
        let mut remaining = n as usize;
        for word in &mut words {
            let here = remaining.min(64);
            *word = if here == 64 {
                u64::MAX
            } else {
                (1u64 << here) - 1
            };
            remaining -= here;
        }
        AgentMask { words }
    }

    /// Word and bit position of an identity.
    #[inline]
    fn place(id: AgentId) -> (usize, u64) {
        let idx = id.index();
        assert!(
            idx < 64 * W,
            "AgentMask<{W}> supports at most {} agents",
            Self::capacity()
        );
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Inserts an identity; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`AgentMask::capacity`].
    #[inline]
    pub fn insert(&mut self, id: AgentId) -> bool {
        let (w, bit) = Self::place(id);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes an identity; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: AgentId) -> bool {
        let (w, bit) = Self::place(id);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        present
    }

    /// Tests membership.
    #[inline]
    #[must_use]
    pub fn contains(self, id: AgentId) -> bool {
        let (w, bit) = Self::place(id);
        self.words[w] & bit != 0
    }

    /// Number of identities in the mask.
    #[must_use]
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the mask is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all identities.
    pub fn clear(&mut self) {
        self.words = [0; W];
    }

    /// Highest identity in the mask — the winner of a plain parallel
    /// contention among exactly this set (`leading_zeros` on the top
    /// non-empty word).
    #[inline]
    #[must_use]
    pub fn max(self) -> Option<AgentId> {
        for w in (0..W).rev() {
            let word = self.words[w];
            if word != 0 {
                let top = w as u32 * 64 + (63 - word.leading_zeros());
                return Some(AgentId::from_raw_saturating(top + 1));
            }
        }
        None
    }

    /// Lowest identity in the mask.
    #[inline]
    #[must_use]
    pub fn min(self) -> Option<AgentId> {
        for w in 0..W {
            let word = self.words[w];
            if word != 0 {
                let low = w as u32 * 64 + word.trailing_zeros();
                return Some(AgentId::from_raw_saturating(low + 1));
            }
        }
        None
    }

    /// Highest identity strictly below `bound`, if any — the round-robin
    /// restriction operation: mask off `bound..` and scan for the leading
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `bound` exceeds [`AgentMask::capacity`].
    #[inline]
    #[must_use]
    pub fn max_below(self, bound: AgentId) -> Option<AgentId> {
        let (bw, bit) = Self::place(bound);
        let mut restricted = self;
        restricted.words[bw] &= bit - 1;
        for w in bw + 1..W {
            restricted.words[w] = 0;
        }
        restricted.max()
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a |= b;
        }
        AgentMask { words }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a &= b;
        }
        AgentMask { words }
    }

    /// Set difference (`self` minus `other`).
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a &= !b;
        }
        AgentMask { words }
    }

    /// The raw membership words (bit `i % 64` of word `i / 64` set ⇔
    /// identity `i + 1` present).
    #[must_use]
    pub fn words(self) -> [u64; W] {
        self.words
    }

    /// Iterates over members in increasing identity order.
    pub fn iter(self) -> MaskIter<W> {
        MaskIter {
            words: self.words,
            word: 0,
        }
    }
}

impl AgentMask<1> {
    /// Lossless conversion from an [`AgentSet`].
    ///
    /// # Panics
    ///
    /// Panics if the set holds an identity above 64.
    #[must_use]
    pub fn from_set(set: AgentSet) -> Self {
        let bits = set.bits();
        assert!(bits >> 64 == 0, "AgentMask<1> supports at most 64 agents");
        AgentMask {
            words: [bits as u64],
        }
    }

    /// Lossless conversion to an [`AgentSet`].
    #[must_use]
    pub fn to_set(self) -> AgentSet {
        AgentSet::from_bits(u128::from(self.words[0]))
    }
}

impl AgentMask<2> {
    /// Lossless conversion from an [`AgentSet`].
    #[must_use]
    pub fn from_set(set: AgentSet) -> Self {
        let bits = set.bits();
        AgentMask {
            words: [bits as u64, (bits >> 64) as u64],
        }
    }

    /// Lossless conversion to an [`AgentSet`].
    #[must_use]
    pub fn to_set(self) -> AgentSet {
        AgentSet::from_bits(u128::from(self.words[0]) | (u128::from(self.words[1]) << 64))
    }
}

impl<const W: usize> Default for AgentMask<W> {
    fn default() -> Self {
        AgentMask::new()
    }
}

impl<const W: usize> fmt::Debug for AgentMask<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(AgentId::get))
            .finish()
    }
}

impl<const W: usize> FromIterator<AgentId> for AgentMask<W> {
    fn from_iter<T: IntoIterator<Item = AgentId>>(iter: T) -> Self {
        let mut mask = AgentMask::new();
        for id in iter {
            mask.insert(id);
        }
        mask
    }
}

impl<const W: usize> IntoIterator for AgentMask<W> {
    type Item = AgentId;
    type IntoIter = MaskIter<W>;

    fn into_iter(self) -> MaskIter<W> {
        self.iter()
    }
}

/// Iterator over the members of an [`AgentMask`] in increasing identity
/// order.
#[derive(Clone, Debug)]
pub struct MaskIter<const W: usize> {
    words: [u64; W],
    word: usize,
}

impl<const W: usize> Iterator for MaskIter<W> {
    type Item = AgentId;

    fn next(&mut self) -> Option<AgentId> {
        while self.word < W {
            let bits = self.words[self.word];
            if bits == 0 {
                self.word += 1;
                continue;
            }
            let tz = bits.trailing_zeros();
            self.words[self.word] = bits & (bits - 1);
            let id = self.word as u32 * 64 + tz + 1;
            return Some(AgentId::new(id).expect("id >= 1"));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word.min(W - 1)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for MaskIter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn capacity_scales_with_width() {
        assert_eq!(AgentMask::<1>::capacity(), 64);
        assert_eq!(AgentMask::<2>::capacity(), 128);
    }

    #[test]
    fn insert_remove_contains() {
        let mut m: AgentMask<2> = AgentMask::new();
        assert!(m.is_empty());
        assert!(m.insert(id(65)));
        assert!(!m.insert(id(65)));
        assert!(m.contains(id(65)));
        assert_eq!(m.len(), 1);
        assert!(m.remove(id(65)));
        assert!(!m.remove(id(65)));
        assert!(m.is_empty());
    }

    #[test]
    fn max_min_cross_word_boundaries() {
        let m: AgentMask<2> = [3, 64, 65, 128].into_iter().map(id).collect();
        assert_eq!(m.max(), Some(id(128)));
        assert_eq!(m.min(), Some(id(3)));
        assert_eq!(AgentMask::<2>::new().max(), None);
        assert_eq!(AgentMask::<2>::new().min(), None);
    }

    #[test]
    fn max_below_restricts_across_words() {
        let m: AgentMask<2> = [2, 5, 64, 65, 100].into_iter().map(id).collect();
        assert_eq!(m.max_below(id(100)), Some(id(65)));
        assert_eq!(m.max_below(id(65)), Some(id(64)));
        assert_eq!(m.max_below(id(64)), Some(id(5)));
        assert_eq!(m.max_below(id(2)), None);
    }

    #[test]
    fn full_matches_agent_set() {
        for n in [0u32, 1, 30, 63, 64, 65, 127, 128] {
            let m = AgentMask::<2>::full(n);
            assert_eq!(m.len(), n as usize, "n = {n}");
            assert_eq!(m.to_set(), AgentSet::full(n), "n = {n}");
        }
        assert_eq!(AgentMask::<1>::full(64).len(), 64);
    }

    #[test]
    fn set_algebra_matches_agent_set() {
        let a: AgentMask<2> = [1, 2, 64, 100].into_iter().map(id).collect();
        let b: AgentMask<2> = [2, 64, 128].into_iter().map(id).collect();
        assert_eq!(a.union(b).to_set(), a.to_set().union(b.to_set()));
        assert_eq!(
            a.intersection(b).to_set(),
            a.to_set().intersection(b.to_set())
        );
        assert_eq!(a.difference(b).to_set(), a.to_set().difference(b.to_set()));
    }

    #[test]
    fn iteration_is_ascending_and_sized() {
        let m: AgentMask<2> = [100, 2, 64].into_iter().map(id).collect();
        let ids: Vec<u32> = m.iter().map(AgentId::get).collect();
        assert_eq!(ids, [2, 64, 100]);
        assert_eq!(m.iter().len(), 3);
    }

    #[test]
    fn narrow_width_round_trips_agent_set() {
        let set: AgentSet = [1, 33, 64].into_iter().map(id).collect();
        let m = AgentMask::<1>::from_set(set);
        assert_eq!(m.to_set(), set);
        let wide = AgentMask::<2>::from_set(set);
        assert_eq!(wide.to_set(), set);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn narrow_width_rejects_high_identities() {
        let mut m: AgentMask<1> = AgentMask::new();
        m.insert(id(65));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn narrow_from_set_rejects_high_identities() {
        let set: AgentSet = [65].into_iter().map(id).collect();
        let _ = AgentMask::<1>::from_set(set);
    }

    #[test]
    fn debug_lists_members() {
        let m: AgentMask<1> = [2, 7].into_iter().map(id).collect();
        assert_eq!(format!("{m:?}"), "{2, 7}");
    }
}
