//! Byte addresses and cache-line addresses.

use std::fmt;

/// Size of a cache line in bytes (64 B, matching the paper's Table I system).
pub const LINE_BYTES: u64 = 64;

/// A virtual byte address in the simulated address space.
///
/// # Examples
///
/// ```
/// use ispy_trace::{Addr, Line};
///
/// let a = Addr::new(0x1040);
/// assert_eq!(a.line(), Line::new(0x41));
/// assert_eq!(a.offset_in_line(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Wraps a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    pub const fn line(self) -> Line {
        Line(self.0 / LINE_BYTES)
    }

    /// Byte offset of this address within its cache line.
    pub const fn offset_in_line(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// The address `bytes` past this one.
    pub const fn add(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address (byte address divided by [`LINE_BYTES`]).
///
/// # Examples
///
/// ```
/// use ispy_trace::Line;
///
/// let base = Line::new(100);
/// assert_eq!(base.offset(3), Line::new(103));
/// assert_eq!(Line::new(103).distance_from(base), Some(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Line(u64);

impl Line {
    /// Wraps a raw line number.
    pub const fn new(raw: u64) -> Self {
        Line(raw)
    }

    /// The raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The line `n` lines after this one.
    pub const fn offset(self, n: u64) -> Line {
        Line(self.0 + n)
    }

    /// Forward distance from `base` to this line, or `None` if this line
    /// precedes `base`.
    pub fn distance_from(self, base: Line) -> Option<u64> {
        self.0.checked_sub(base.0)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for Line {
    fn from(raw: u64) -> Self {
        Line(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_mapping() {
        assert_eq!(Addr::new(0).line(), Line::new(0));
        assert_eq!(Addr::new(63).line(), Line::new(0));
        assert_eq!(Addr::new(64).line(), Line::new(1));
        assert_eq!(Addr::new(129).line(), Line::new(2));
    }

    #[test]
    fn offsets() {
        assert_eq!(Addr::new(70).offset_in_line(), 6);
    }

    #[test]
    fn line_distance() {
        assert_eq!(Line::new(10).distance_from(Line::new(4)), Some(6));
        assert_eq!(Line::new(4).distance_from(Line::new(10)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(Line::new(0x40).to_string(), "L0x40");
    }
}
