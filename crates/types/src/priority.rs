//! The service class of a bus request.

use core::fmt;

/// Service class of a bus request.
///
/// The parallel contention arbiter integrates priority service with the
/// fairness protocols by adding a most-significant "priority" bit to the
/// arbitration number: agents with urgent requests assert it and ignore the
/// fairness protocol, so every urgent request is served before any ordinary
/// request (Section 2.4 / Section 3 of the paper).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Priority {
    /// A non-priority request, scheduled by the fairness protocol.
    #[default]
    Ordinary,
    /// An urgent request, served before all ordinary requests.
    Urgent,
}

impl Priority {
    /// Value of the priority bit in a composite arbitration number.
    #[must_use]
    pub fn bit(self) -> u32 {
        match self {
            Priority::Ordinary => 0,
            Priority::Urgent => 1,
        }
    }

    /// Returns `true` for [`Priority::Urgent`].
    #[must_use]
    pub fn is_urgent(self) -> bool {
        self == Priority::Urgent
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Ordinary => f.write_str("ordinary"),
            Priority::Urgent => f.write_str("urgent"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_bit_values() {
        assert_eq!(Priority::Ordinary.bit(), 0);
        assert_eq!(Priority::Urgent.bit(), 1);
        assert!(Priority::Urgent > Priority::Ordinary);
        assert!(Priority::Urgent.is_urgent());
        assert!(!Priority::Ordinary.is_urgent());
    }
}
