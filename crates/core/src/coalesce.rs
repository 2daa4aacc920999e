//! Prefetch coalescing (§III-B, Fig. 8).
//!
//! Prefetches injected at the same site under the same context are grouped;
//! spatially-near targets (within the bitmask window) merge into a single
//! `Lprefetch`/`CLprefetch` whose bit-vector selects the extra lines.

use ispy_isa::CoalesceMask;
use ispy_trace::Line;

/// One coalesced group: a base line plus an optional mask of extra lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedGroup {
    /// The base line (always prefetched).
    pub base: Line,
    /// Extra lines within the window, or `None` if the group is a single
    /// line.
    pub mask: Option<CoalesceMask>,
}

impl CoalescedGroup {
    /// Number of lines this group prefetches.
    pub fn line_count(&self) -> u32 {
        1 + self.mask.map_or(0, |m| m.extra_lines())
    }
}

/// Greedily packs `lines` into coalesced groups with a `bits`-wide window.
///
/// Lines are sorted and deduplicated first; each group takes a base line and
/// every remaining line within `bits` lines of it.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 64.
///
/// # Examples
///
/// ```
/// use ispy_core::coalesce::coalesce_lines;
/// use ispy_trace::Line;
///
/// // Paper Fig. 8: targets 0x2, 0x4, 0x7 share a context -> one prefetch
/// // based at 0x2 with bits for 0x4 and 0x7.
/// let groups = coalesce_lines(vec![Line::new(0x4), Line::new(0x2), Line::new(0x7)], 8);
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].base, Line::new(0x2));
/// assert_eq!(groups[0].line_count(), 3);
/// ```
pub fn coalesce_lines(mut lines: Vec<Line>, bits: u8) -> Vec<CoalescedGroup> {
    lines.sort();
    lines.dedup();
    coalesce_sorted(&lines, bits).collect()
}

/// [`coalesce_lines`] over lines already ascending and distinct: each group
/// covers the next [`CoalescedGroup::line_count`] of them.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 64.
pub(crate) fn coalesce_sorted(
    lines: &[Line],
    bits: u8,
) -> impl Iterator<Item = CoalescedGroup> + '_ {
    assert!((1..=64).contains(&bits), "mask width must be 1..=64 bits");
    let mut rest = lines;
    std::iter::from_fn(move || {
        let (&base, tail) = rest.split_first()?;
        let n = tail
            .iter()
            .take_while(|l| l.distance_from(base).is_some_and(|d| d <= u64::from(bits)))
            .count();
        let (extras, after) = tail.split_at(n);
        rest = after;
        let mask = (!extras.is_empty()).then(|| {
            CoalesceMask::from_lines(base, extras.iter().copied(), bits)
                .expect("extras are within the window by construction")
        });
        Some(CoalescedGroup { base, mask })
    })
}

/// Decodes groups back to the full sorted line list (for tests/validation).
pub fn decode_groups(groups: &[CoalescedGroup]) -> Vec<Line> {
    let mut lines = Vec::new();
    for g in groups {
        lines.push(g.base);
        if let Some(m) = g.mask {
            lines.extend(m.decode(g.base));
        }
    }
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> Line {
        Line::new(x)
    }

    #[test]
    fn roundtrip_exactness() {
        let input = vec![l(10), l(11), l(13), l(30), l(31), l(100)];
        let groups = coalesce_lines(input.clone(), 8);
        assert_eq!(decode_groups(&groups), input);
    }

    #[test]
    fn dedup_before_packing() {
        let groups = coalesce_lines(vec![l(5), l(5), l(6)], 8);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].line_count(), 2);
    }

    #[test]
    fn window_boundary() {
        // With 8 bits, base+8 fits but base+9 starts a new group.
        let g = coalesce_lines(vec![l(0), l(8)], 8);
        assert_eq!(g.len(), 1);
        let g = coalesce_lines(vec![l(0), l(9)], 8);
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|x| x.mask.is_none()));
    }

    #[test]
    fn greedy_chains_respect_base() {
        // 0, 8, 16: 8 is within 0's window, 16 is not (distance 16) -> two
        // groups.
        let g = coalesce_lines(vec![l(0), l(8), l(16)], 8);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].base, l(0));
        assert_eq!(g[0].line_count(), 2);
        assert_eq!(g[1].base, l(16));
    }

    #[test]
    fn one_bit_window() {
        let g = coalesce_lines(vec![l(0), l(1), l(2)], 1);
        // 0+1 coalesce; 2 is outside 0's 1-line window.
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].line_count(), 2);
    }

    #[test]
    fn wide_window_swallows_everything() {
        let lines: Vec<Line> = (0..60).map(l).collect();
        let g = coalesce_lines(lines, 64);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].line_count(), 60);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_lines(vec![], 8).is_empty());
    }

    #[test]
    #[should_panic(expected = "mask width")]
    fn zero_bits_panics() {
        let _ = coalesce_lines(vec![l(0)], 0);
    }
}
