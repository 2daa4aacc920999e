//! A stable 64-bit content hasher for profile/planner memo keys.
//!
//! The incremental replanner keys its per-line memo entries by a digest of
//! everything a line's plan depends on (miss stats, dynamic CFG, planner
//! config). That digest must be *stable*: independent of `HashMap` iteration
//! order, pointer values, or the std hasher's per-process random seed —
//! otherwise a memo could never be compared across plans. This module
//! provides a plain FNV-1a 64 accumulator with typed `write_*` helpers;
//! callers are responsible for feeding fields in a canonical order (sort
//! map contents before hashing).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 content hasher.
///
/// # Examples
///
/// ```
/// use ispy_profile::digest::ContentHasher;
///
/// let mut a = ContentHasher::new();
/// a.write_u64(42);
/// let mut b = ContentHasher::new();
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// b.write_u64(7);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` via its bit pattern (exact, including -0.0 vs 0.0).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it is a
        // published constant.
        assert_eq!(ContentHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = ContentHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = ContentHasher::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = ContentHasher::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut a = ContentHasher::new();
        a.write_f64(0.0);
        let mut b = ContentHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "digest must distinguish bit patterns");
    }
}
