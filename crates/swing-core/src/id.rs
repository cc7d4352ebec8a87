//! Strongly-typed identifiers shared across the Swing crates.

use std::fmt;

/// Identifier of a deployed function-unit *instance*.
///
/// A logical stage of the application graph (e.g. `recognize`) may be
/// replicated on several devices; each replica gets its own `UnitId`.
/// Upstream routing tables are keyed by these instance ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UnitId(pub u32);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u32> for UnitId {
    fn from(v: u32) -> Self {
        UnitId(v)
    }
}

/// Identifier of a physical device participating in the swarm.
///
/// In the paper's testbed these are the phones `A` through `I`; the
/// [`Display`](fmt::Display) impl uses the same letters for the first 26
/// ids to keep experiment output readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "dev{}", self.0)
        }
    }
}

impl From<u32> for DeviceId {
    fn from(v: u32) -> Self {
        DeviceId(v)
    }
}

/// Monotone per-source sequence number attached to every tuple.
///
/// Used by the sink-side [reordering service](crate::reorder) to restore
/// the order in which tuples were sensed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The sequence number following this one.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for SeqNo {
    fn from(v: u64) -> Self {
        SeqNo(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_display_as_testbed_letters() {
        assert_eq!(DeviceId(0).to_string(), "A");
        assert_eq!(DeviceId(4).to_string(), "E");
        assert_eq!(DeviceId(8).to_string(), "I");
        assert_eq!(DeviceId(30).to_string(), "dev30");
    }

    #[test]
    fn unit_id_display() {
        assert_eq!(UnitId(7).to_string(), "u7");
    }

    #[test]
    fn seqno_next_increments() {
        assert_eq!(SeqNo(0).next(), SeqNo(1));
        assert_eq!(SeqNo(41).next().to_string(), "#42");
    }

    #[test]
    fn ids_order_by_numeric_value() {
        assert!(UnitId(2) < UnitId(10));
        assert!(SeqNo(2) < SeqNo(10));
        assert!(DeviceId(0) < DeviceId(1));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(UnitId::from(3), UnitId(3));
        assert_eq!(DeviceId::from(3), DeviceId(3));
        assert_eq!(SeqNo::from(3), SeqNo(3));
    }
}
