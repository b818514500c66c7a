//! Composite arbitration numbers.

use core::fmt;

use busarb_types::{AgentId, Error, Priority};

/// Field layout of a composite arbitration number.
///
/// From least to most significant, an arbitration number concatenates:
///
/// 1. the **static identity** (`id_bits` lines — `ceil(log2(N+1))`),
/// 2. an optional **waiting-time counter** (`counter_bits` lines — the
///    dynamic, most-significant part of the FCFS protocol's identity),
/// 3. an optional **round-robin priority bit** (the RR-1 implementation),
/// 4. an optional **priority bit** (urgent requests beat everything).
///
/// The paper's protocols use subsets of these fields:
///
/// | protocol | priority | rr bit | counter | id |
/// |----------|----------|--------|---------|----|
/// | fixed priority | – | – | – | ✓ |
/// | RR-1     | optional | ✓ | – | ✓ |
/// | RR-2 / RR-3 | optional | – | – | ✓ |
/// | FCFS-1 / FCFS-2 | optional | – | ✓ | ✓ |
///
/// # Examples
///
/// ```
/// use busarb_bus::NumberLayout;
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// // Futurebus-sized system: 63 agents, 6 identity lines.
/// let layout = NumberLayout::for_agents(63)?.with_rr_bit();
/// assert_eq!(layout.width(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NumberLayout {
    id_bits: u32,
    counter_bits: u32,
    rr_bit: bool,
    priority_bit: bool,
}

impl NumberLayout {
    /// Layout with just enough identity bits for `n` agents and no dynamic
    /// fields.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn for_agents(n: u32) -> Result<Self, Error> {
        if n == 0 || n > 128 {
            return Err(Error::InvalidAgentCount {
                requested: n,
                max: 128,
            });
        }
        Ok(NumberLayout {
            id_bits: AgentId::lines_required(n),
            counter_bits: 0,
            rr_bit: false,
            priority_bit: false,
        })
    }

    /// Adds a waiting-time counter field of `bits` lines (FCFS protocols).
    #[must_use]
    pub fn with_counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Adds the round-robin priority bit (RR-1).
    #[must_use]
    pub fn with_rr_bit(mut self) -> Self {
        self.rr_bit = true;
        self
    }

    /// Adds the urgent-priority bit.
    #[must_use]
    pub fn with_priority_bit(mut self) -> Self {
        self.priority_bit = true;
        self
    }

    /// Number of identity lines.
    #[must_use]
    pub fn id_bits(&self) -> u32 {
        self.id_bits
    }

    /// Number of counter lines.
    #[must_use]
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Whether the layout has a round-robin bit.
    #[must_use]
    pub fn has_rr_bit(&self) -> bool {
        self.rr_bit
    }

    /// Whether the layout has an urgent-priority bit.
    #[must_use]
    pub fn has_priority_bit(&self) -> bool {
        self.priority_bit
    }

    /// Total bus lines used by the arbitration number — the paper's
    /// hardware-cost metric for each protocol.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.id_bits
            .saturating_add(self.counter_bits)
            .saturating_add(u32::from(self.rr_bit) + u32::from(self.priority_bit))
    }

    /// Checks that the layout fits the `u64` that [`NumberLayout::compose`]
    /// packs it into. Constructors taking a caller-chosen counter width
    /// run it, so every field shift stays below 64.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LayoutTooWide`] if [`NumberLayout::width`] exceeds
    /// 64 lines.
    pub fn checked(self) -> Result<Self, Error> {
        let width = self.width();
        if width > u64::BITS {
            Err(Error::LayoutTooWide {
                width,
                max: u64::BITS,
            })
        } else {
            Ok(self)
        }
    }

    /// Largest storable counter value (all ones for a field of 64 or more
    /// lines, which [`NumberLayout::checked`] rejects).
    #[must_use]
    pub fn counter_max(&self) -> u64 {
        match self.counter_bits {
            0 => 0,
            bits if bits >= u64::BITS => u64::MAX,
            bits => (1u64 << bits) - 1,
        }
    }

    /// Bit position of the counter field.
    fn counter_shift(&self) -> u32 {
        self.id_bits
    }

    /// Bit position of the round-robin bit.
    fn rr_shift(&self) -> u32 {
        self.id_bits + self.counter_bits
    }

    /// Bit position of the priority bit.
    fn priority_shift(&self) -> u32 {
        self.rr_shift() + u32::from(self.rr_bit)
    }

    /// Composes a raw line pattern.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if a field value exceeds its width, if a
    /// counter is supplied without counter bits, or if `rr`/`priority` are
    /// used without the corresponding bit in the layout.
    #[must_use]
    pub fn compose(&self, number: ArbitrationNumber) -> u64 {
        debug_assert!(
            u64::from(number.id.get()) < (1u64 << self.id_bits),
            "identity {} does not fit in {} bits",
            number.id,
            self.id_bits
        );
        debug_assert!(
            number.counter <= self.counter_max(),
            "counter {} exceeds field capacity {}",
            number.counter,
            self.counter_max()
        );
        debug_assert!(self.rr_bit || !number.rr, "layout has no rr bit");
        debug_assert!(
            self.priority_bit || !number.priority.is_urgent(),
            "layout has no priority bit"
        );
        let mut v = u64::from(number.id.get());
        v |= number.counter << self.counter_shift();
        if number.rr {
            v |= 1u64 << self.rr_shift();
        }
        if number.priority.is_urgent() {
            v |= 1u64 << self.priority_shift();
        }
        v
    }

    /// Decodes a raw line pattern back into its fields. Returns `None` if
    /// the identity field is zero (no competitor).
    #[must_use]
    pub fn decode(&self, value: u64) -> Option<ArbitrationNumber> {
        let id_mask = (1u64 << self.id_bits) - 1;
        let id = (value & id_mask) as u32;
        let id = AgentId::new(id).ok()?;
        let counter = (value >> self.counter_shift()) & self.counter_max();
        let rr = self.rr_bit && value & (1u64 << self.rr_shift()) != 0;
        let urgent = self.priority_bit && value & (1u64 << self.priority_shift()) != 0;
        Some(ArbitrationNumber {
            id,
            counter,
            rr,
            priority: if urgent {
                Priority::Urgent
            } else {
                Priority::Ordinary
            },
        })
    }

    /// Extracts just the identity field, ignoring dynamic fields — what an
    /// agent's winner register latches at the end of an arbitration
    /// ("excluding the round-robin priority bit").
    #[must_use]
    pub fn decode_id(&self, value: u64) -> Option<AgentId> {
        let id_mask = (1u64 << self.id_bits) - 1;
        AgentId::new((value & id_mask) as u32).ok()
    }
}

/// The decoded fields of a composite arbitration number.
///
/// # Examples
///
/// ```
/// use busarb_bus::{ArbitrationNumber, NumberLayout};
/// use busarb_types::AgentId;
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let layout = NumberLayout::for_agents(10)?.with_counter_bits(4);
/// let n = ArbitrationNumber::new(AgentId::new(5)?).with_counter(3);
/// let raw = layout.compose(n);
/// assert_eq!(layout.decode(raw), Some(n));
/// // Counter is more significant than identity:
/// let m = ArbitrationNumber::new(AgentId::new(9)?).with_counter(2);
/// assert!(raw > layout.compose(m));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArbitrationNumber {
    /// Static identity (least significant field).
    pub id: AgentId,
    /// Waiting-time counter (FCFS protocols).
    pub counter: u64,
    /// Round-robin priority bit (RR-1).
    pub rr: bool,
    /// Urgent-priority bit (most significant field).
    pub priority: Priority,
}

impl ArbitrationNumber {
    /// A plain static-identity number with all dynamic fields clear.
    #[must_use]
    pub fn new(id: AgentId) -> Self {
        ArbitrationNumber {
            id,
            counter: 0,
            rr: false,
            priority: Priority::Ordinary,
        }
    }

    /// Sets the waiting-time counter.
    #[must_use]
    pub fn with_counter(mut self, counter: u64) -> Self {
        self.counter = counter;
        self
    }

    /// Sets the round-robin bit.
    #[must_use]
    pub fn with_rr(mut self, rr: bool) -> Self {
        self.rr = rr;
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

impl fmt::Display for ArbitrationNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}|rr={}|ctr={}|id={}]",
            self.priority,
            u8::from(self.rr),
            self.counter,
            self.id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn layout_width_accounting() {
        let base = NumberLayout::for_agents(10).unwrap();
        assert_eq!(base.width(), 4);
        assert_eq!(base.with_rr_bit().width(), 5);
        assert_eq!(base.with_counter_bits(4).width(), 8);
        assert_eq!(base.with_counter_bits(4).with_priority_bit().width(), 9);
        assert!(base.with_priority_bit().has_priority_bit());
        assert!(!base.has_rr_bit());
        assert_eq!(base.id_bits(), 4);
        assert_eq!(base.with_counter_bits(3).counter_bits(), 3);
    }

    #[test]
    fn fcfs_doubles_identity_size_at_most() {
        // Paper Section 3.2: "at most we need to double the size of the
        // identities" — counter needs ceil(log2 N) bits.
        let n = 64;
        let id_bits = AgentId::lines_required(n);
        let layout = NumberLayout::for_agents(n)
            .unwrap()
            .with_counter_bits(AgentId::lines_required(n));
        assert!(layout.width() <= 2 * id_bits);
    }

    #[test]
    fn layout_validation() {
        assert!(NumberLayout::for_agents(0).is_err());
        assert!(NumberLayout::for_agents(129).is_err());
        assert!(NumberLayout::for_agents(128).is_ok());
    }

    #[test]
    fn compose_decode_roundtrip() {
        let layout = NumberLayout::for_agents(30)
            .unwrap()
            .with_counter_bits(5)
            .with_rr_bit()
            .with_priority_bit();
        for agent in [1u32, 7, 30] {
            for counter in [0u64, 1, 31] {
                for rr in [false, true] {
                    for pri in [Priority::Ordinary, Priority::Urgent] {
                        let n = ArbitrationNumber::new(id(agent))
                            .with_counter(counter)
                            .with_rr(rr)
                            .with_priority(pri);
                        let raw = layout.compose(n);
                        assert_eq!(layout.decode(raw), Some(n));
                        assert_eq!(layout.decode_id(raw), Some(id(agent)));
                    }
                }
            }
        }
    }

    #[test]
    fn decode_of_zero_identity_is_none() {
        let layout = NumberLayout::for_agents(10).unwrap().with_counter_bits(4);
        assert_eq!(layout.decode(0), None);
        // Counter bits set but empty identity: still no competitor.
        assert_eq!(layout.decode(0b0011_0000), None);
        assert_eq!(layout.decode_id(0b0011_0000), None);
    }

    #[test]
    fn field_significance_ordering() {
        let layout = NumberLayout::for_agents(10)
            .unwrap()
            .with_counter_bits(4)
            .with_rr_bit()
            .with_priority_bit();
        let low_id_high_counter = layout.compose(ArbitrationNumber::new(id(1)).with_counter(5));
        let high_id_low_counter = layout.compose(ArbitrationNumber::new(id(10)).with_counter(4));
        assert!(low_id_high_counter > high_id_low_counter);

        let rr_beats_counter = layout.compose(ArbitrationNumber::new(id(1)).with_rr(true));
        let max_counter =
            layout.compose(ArbitrationNumber::new(id(10)).with_counter(layout.counter_max()));
        assert!(rr_beats_counter > max_counter);

        let urgent = layout.compose(ArbitrationNumber::new(id(1)).with_priority(Priority::Urgent));
        let rr_and_counter = layout.compose(
            ArbitrationNumber::new(id(10))
                .with_rr(true)
                .with_counter(layout.counter_max()),
        );
        assert!(urgent > rr_and_counter);
    }

    #[test]
    fn counter_max() {
        let layout = NumberLayout::for_agents(10).unwrap().with_counter_bits(4);
        assert_eq!(layout.counter_max(), 15);
        assert_eq!(NumberLayout::for_agents(10).unwrap().counter_max(), 0);
        let full = NumberLayout::for_agents(10).unwrap().with_counter_bits(64);
        assert_eq!(full.counter_max(), u64::MAX);
    }

    #[test]
    fn checked_rejects_layouts_wider_than_the_composite_word() {
        // 10 agents: 4 identity lines + priority bit leave 59 counter lines.
        let base = NumberLayout::for_agents(10).unwrap().with_priority_bit();
        let widest = base.with_counter_bits(59).checked().unwrap();
        assert_eq!(widest.width(), 64);
        assert_eq!(widest.counter_max(), (1u64 << 59) - 1);
        for bits in [60, 64, u32::MAX] {
            assert_eq!(
                base.with_counter_bits(bits).checked(),
                Err(Error::LayoutTooWide {
                    width: (5u32).saturating_add(bits),
                    max: 64
                }),
                "{bits} counter lines"
            );
        }
    }

    #[test]
    fn ties_in_counter_resolve_by_identity() {
        // Section 3.2: equal counters fall back to static identity order.
        let layout = NumberLayout::for_agents(10).unwrap().with_counter_bits(4);
        let a = layout.compose(ArbitrationNumber::new(id(3)).with_counter(2));
        let b = layout.compose(ArbitrationNumber::new(id(8)).with_counter(2));
        assert!(b > a);
    }

    #[test]
    fn display_shows_fields() {
        let n = ArbitrationNumber::new(id(4)).with_counter(7).with_rr(true);
        let s = format!("{n}");
        assert!(s.contains("id=4"));
        assert!(s.contains("ctr=7"));
        assert!(s.contains("rr=1"));
    }
}
