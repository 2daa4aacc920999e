//! The Table-I memory hierarchy: the L1I over unified L2/L3.
//!
//! The L1D is not here: whether a data access hits it depends on the trace
//! and the data config alone, so the engine takes each access's L1D outcome
//! from a per-trace record (see `l1d.rs`) and brings only the misses to
//! [`Hierarchy::load_data_miss`].

use crate::cache::{Cache, InsertPriority};
use crate::config::{SimConfig, MACHINE};
use crate::l1d::DATA_LINE_BASE;
use ispy_trace::Line;

/// Outcome of a demand instruction fetch that missed L1I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessOutcome {
    /// Extra stall cycles beyond the L1I hit latency.
    pub(crate) extra_cycles: u32,
    /// The untouched prefetched line evicted from L1I to make room, if any.
    /// Carrying the identity (not just a flag) lets the engine attribute the
    /// wasted prefetch back to the injection that issued it.
    pub(crate) evicted_untouched: Option<Line>,
}

/// The simulated cache hierarchy below the L1D.
///
/// The instruction side has a private L1I and shares L2/L3 with the data
/// side's L1D misses (so useless instruction prefetches pollute the levels
/// data misses are served from, as in a real part). Code lines and data
/// lines live in disjoint address ranges, which the engine guarantees.
#[derive(Debug, Clone)]
pub(crate) struct Hierarchy {
    l1i: Cache,
    l2: Cache,
    l3: Cache,
    prefetch_insert: InsertPriority,
    /// Exact presence bitmap mirroring L1I contents for lines below
    /// `ranges.code_limit`, maintained at the (rare) fill/evict points so the
    /// (frequent) [`Hierarchy::in_l1i`] probes are a bit test instead of a
    /// set scan. Lines at/above the limit fall back to scanning the cache,
    /// so the shadow is never a correctness question — only a fast path.
    l1i_shadow: Vec<u64>,
    /// Same exact-mirror bitmaps for the shared L2/L3, over the code-line
    /// range plus the data-line range, whose words are appended after the
    /// code words. The injected hot path asks "where would this prefetch be
    /// served from?" for every issued line, and every data load asks "which
    /// shared level holds this line?"; with the shadows, known misses skip
    /// the scans over the (large, cache-hostile) L2/L3 slot arrays entirely.
    l2_shadow: Vec<u64>,
    l3_shadow: Vec<u64>,
    ranges: ShadowRanges,
}

/// The line ranges the presence shadows cover and where the shared
/// shadows keep each line's bit. A copy, so eviction callbacks can place
/// bits while a cache is mutably borrowed.
#[derive(Debug, Clone, Copy)]
struct ShadowRanges {
    /// One past the last shadowed code line id.
    code_limit: u64,
    /// One past the last shadowed data line id (the range starts at
    /// [`DATA_LINE_BASE`]).
    data_limit: u64,
    /// Word index where the data range's shadow words start.
    data_words: usize,
}

impl ShadowRanges {
    /// The `(word, bit)` slot of `raw` in the shared L2/L3 shadows, or
    /// `None` for lines outside both shadowed ranges.
    #[inline]
    fn shared_pos(self, raw: u64) -> Option<(usize, u64)> {
        if raw < self.code_limit {
            Some(((raw >> 6) as usize, 1u64 << (raw & 63)))
        } else if (DATA_LINE_BASE..self.data_limit).contains(&raw) {
            let off = raw - DATA_LINE_BASE;
            Some((self.data_words + (off >> 6) as usize, 1u64 << (off & 63)))
        } else {
            None
        }
    }
}

impl Hierarchy {
    /// Builds an empty [`MACHINE`] hierarchy that inserts prefetches at
    /// `cfg`'s priority, with L1I/L2/L3 presence shadows over code lines
    /// `0..code_lines` and L2/L3 shadows over the `data_lines` data lines
    /// from [`DATA_LINE_BASE`] (rounded up to whole shadow words). L1I has
    /// no data shadow: only code lines are ever fetched or prefetched into
    /// it.
    pub(crate) fn new(cfg: &SimConfig, code_lines: u64, data_lines: u64) -> Self {
        debug_assert!(code_lines <= DATA_LINE_BASE, "data range overlaps code range");
        let code_words = (code_lines as usize).div_ceil(64);
        let data_words = (data_lines as usize).div_ceil(64);
        Hierarchy {
            l1i: Cache::new(MACHINE.l1i),
            l2: Cache::new(MACHINE.l2),
            l3: Cache::new(MACHINE.l3),
            prefetch_insert: cfg.prefetch_insert,
            l1i_shadow: vec![0u64; code_words],
            l2_shadow: vec![0u64; code_words + data_words],
            l3_shadow: vec![0u64; code_words + data_words],
            ranges: ShadowRanges {
                code_limit: code_lines,
                // Whole trailing words are covered exactly: any line in them
                // is tracked at the same fill/evict points as the rest.
                data_limit: DATA_LINE_BASE + data_words as u64 * 64,
                data_words: code_words,
            },
        }
    }

    #[inline]
    fn shadow_set(&mut self, line: Line) {
        let raw = line.raw();
        if raw < self.ranges.code_limit {
            self.l1i_shadow[(raw >> 6) as usize] |= 1 << (raw & 63);
        }
    }

    #[inline]
    fn shadow_clear(&mut self, evicted: Option<Line>) {
        if let Some(line) = evicted {
            let raw = line.raw();
            if raw < self.ranges.code_limit {
                self.l1i_shadow[(raw >> 6) as usize] &= !(1 << (raw & 63));
            }
        }
    }

    /// Word `w` of the L1I presence shadow: bit `b` is set iff line
    /// `64 w + b` is resident — what the engine's bit-parallel prefetch
    /// issue reads for an op's target lines. The caller keeps every line
    /// the word covers below the shadow's code-line limit (compiled
    /// injection plans carry `max_line` for exactly this check).
    #[inline]
    pub(crate) fn l1i_shadow_word(&self, w: usize) -> u64 {
        self.l1i_shadow[w]
    }

    /// Whether `line` is resident in the L1 I-cache.
    #[inline]
    pub(crate) fn in_l1i(&self, line: Line) -> bool {
        let raw = line.raw();
        if raw < self.ranges.code_limit {
            self.l1i_shadow[(raw >> 6) as usize] & (1 << (raw & 63)) != 0
        } else {
            self.l1i.contains(line)
        }
    }

    /// L1I demand-fetch fast path: on a hit, promotes the line, clears its
    /// untouched-prefetch flag, and returns `Some(flag's previous value)` —
    /// residency check, usefulness accounting, and recency update in one set
    /// scan. Returns `None` on a miss without touching any state.
    #[inline]
    pub(crate) fn fetch_instr_hit(&mut self, line: Line) -> Option<bool> {
        self.l1i.demand(line)
    }

    /// L1I demand-fetch slow path; the caller has established (via
    /// [`Hierarchy::fetch_instr_hit`]) that `line` is not in L1I.
    pub(crate) fn fetch_instr_miss(&mut self, line: Line) -> AccessOutcome {
        let total_lat = self.lookup_fill_shared(line);
        let fill = self.l1i.fill_absent(line, InsertPriority::Mru, false);
        self.shadow_set(line);
        self.shadow_clear(fill.evicted);
        AccessOutcome {
            extra_cycles: total_lat - MACHINE.lat.l1i,
            evicted_untouched: if fill.evicted_untouched_prefetch { fill.evicted } else { None },
        }
    }

    /// Demand data load of `line`, which the caller has established (from
    /// its L1D record) missed L1D: served by the shared levels. Returns the
    /// stall cycles beyond the L1D hit latency.
    pub(crate) fn load_data_miss(&mut self, line: Line) -> u32 {
        self.lookup_fill_shared(line) - MACHINE.lat.l1d
    }

    /// Completes a prefetch: fills L1I (and L2) at the configured prefetch
    /// priority, marking the line for usefulness accounting. Returns the
    /// untouched prefetched line evicted from L1I to make room, if any.
    ///
    /// Where a presence shadow shows the line absent from a level, that
    /// level's fill skips the scan for an existing copy.
    pub(crate) fn prefetch_fill(&mut self, line: Line) -> Option<Line> {
        let raw = line.raw();
        let l2_absent =
            self.ranges.shared_pos(raw).is_some_and(|(w, b)| self.l2_shadow[w] & b == 0);
        self.fill_l2(line, self.prefetch_insert, true, l2_absent);
        let l1i_absent = raw < self.ranges.code_limit
            && self.l1i_shadow[(raw >> 6) as usize] & (1 << (raw & 63)) == 0;
        let out = if l1i_absent {
            self.l1i.fill_absent(line, self.prefetch_insert, true)
        } else {
            self.l1i.fill(line, self.prefetch_insert, true)
        };
        self.shadow_set(line);
        self.shadow_clear(out.evicted);
        if out.evicted_untouched_prefetch {
            out.evicted
        } else {
            None
        }
    }

    /// Latency (cycles) of a prefetch of `line`, which the caller has
    /// established (via [`Hierarchy::in_l1i`]) to be absent from L1I: the
    /// level of the shared hierarchy holding it, answered from the L2/L3
    /// presence shadows (bit tests) for lines they cover.
    ///
    /// L1D is never consulted. Code lines sit far below the data range, so
    /// a generated plan's targets are never in L1D; a hand-built plan whose
    /// target aliases a data line gets the shared level's latency.
    #[inline]
    pub(crate) fn prefetch_latency_missing_l1i(&self, line: Line) -> u32 {
        let raw = line.raw();
        if raw < self.ranges.code_limit {
            let (word, bit) = ((raw >> 6) as usize, 1u64 << (raw & 63));
            if self.l2_shadow[word] & bit != 0 {
                MACHINE.lat.l2
            } else if self.l3_shadow[word] & bit != 0 {
                MACHINE.lat.l3
            } else {
                MACHINE.lat.mem
            }
        } else if self.l2.contains(line) {
            MACHINE.lat.l2
        } else if self.l3.contains(line) {
            MACHINE.lat.l3
        } else {
            MACHINE.lat.mem
        }
    }

    /// [`Cache::fill`] into L2, keeping its presence shadow exact; a line
    /// `known_absent` skips the scan for an existing copy
    /// ([`Cache::fill_absent`]).
    fn fill_l2(
        &mut self,
        line: Line,
        priority: InsertPriority,
        prefetched: bool,
        known_absent: bool,
    ) {
        let out = if known_absent {
            self.l2.fill_absent(line, priority, prefetched)
        } else {
            self.l2.fill(line, priority, prefetched)
        };
        if let Some((w, b)) = self.ranges.shared_pos(line.raw()) {
            self.l2_shadow[w] |= b;
        }
        if let Some((w, b)) = out.evicted.and_then(|e| self.ranges.shared_pos(e.raw())) {
            self.l2_shadow[w] &= !b;
        }
    }

    /// [`Cache::fill_absent`] into L3 (every L3 fill follows an L3 miss),
    /// keeping its presence shadow exact.
    fn fill_l3_absent(&mut self, line: Line) {
        let out = self.l3.fill_absent(line, InsertPriority::Mru, false);
        if let Some((w, b)) = self.ranges.shared_pos(line.raw()) {
            self.l3_shadow[w] |= b;
        }
        if let Some((w, b)) = out.evicted.and_then(|e| self.ranges.shared_pos(e.raw())) {
            self.l3_shadow[w] &= !b;
        }
    }

    /// Serves a miss from the shared levels, filling them on the way, and
    /// returns the serving level's latency.
    ///
    /// For shadowed lines the presence bits decide which level serves the
    /// access before any set is scanned: a demand [`Cache::access`] mutates
    /// state only when it hits (recency promotion), so skipping it on a
    /// shadow-proven miss is invisible, and the one access that does run is
    /// the one that hits.
    fn lookup_fill_shared(&mut self, line: Line) -> u32 {
        if let Some((w, b)) = self.ranges.shared_pos(line.raw()) {
            return if self.l2_shadow[w] & b != 0 {
                let hit = self.l2.access(line);
                debug_assert!(hit, "L2 shadow bit set for absent line {line:?}");
                MACHINE.lat.l2
            } else if self.l3_shadow[w] & b != 0 {
                let hit = self.l3.access(line);
                debug_assert!(hit, "L3 shadow bit set for absent line {line:?}");
                self.fill_l2(line, InsertPriority::Mru, false, true);
                MACHINE.lat.l3
            } else {
                self.fill_l3_absent(line);
                self.fill_l2(line, InsertPriority::Mru, false, true);
                MACHINE.lat.mem
            };
        }
        if self.l2.access(line) {
            MACHINE.lat.l2
        } else if self.l3.access(line) {
            self.fill_l2(line, InsertPriority::Mru, false, true);
            MACHINE.lat.l3
        } else {
            self.fill_l3_absent(line);
            self.fill_l2(line, InsertPriority::Mru, false, true);
            MACHINE.lat.mem
        }
    }

    /// Applies a tenant context switch: evicts the coldest `l1i_pct` percent
    /// of each L1I set and `l2_pct` percent of each shared-L2 set (100 =
    /// full flush), keeping the presence shadows exact. Each L1I victim that
    /// was an untouched prefetch is reported to `on_l1i_evicted` so the
    /// engine can account the wasted prefetch back to its injection; L2
    /// victims carry no per-injection accounting (matching the `fill_l2`
    /// eviction handling). L3 is deliberately untouched — it is large and
    /// per-socket, so tenant slices on one core barely move it.
    pub(crate) fn context_switch(
        &mut self,
        l1i_pct: u8,
        l2_pct: u8,
        mut on_l1i_evicted: impl FnMut(Line, bool),
    ) {
        let ranges = self.ranges;
        let Hierarchy { l1i, l2, l1i_shadow, l2_shadow, .. } = self;
        l1i.evict_lru_fraction(l1i_pct, |line, untouched| {
            let raw = line.raw();
            if raw < ranges.code_limit {
                l1i_shadow[(raw >> 6) as usize] &= !(1 << (raw & 63));
            }
            on_l1i_evicted(line, untouched);
        });
        l2.evict_lru_fraction(l2_pct, |line, _| {
            if let Some((w, b)) = ranges.shared_pos(line.raw()) {
                l2_shadow[w] &= !b;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    /// A hierarchy without presence shadows: every probe scans the caches.
    fn h() -> Hierarchy {
        shadowed(0, 0)
    }

    fn shadowed(code_lines: u64, data_lines: u64) -> Hierarchy {
        Hierarchy::new(&SimConfig::default(), code_lines, data_lines)
    }

    /// A demand fetch: the engine's hit probe, then its miss path.
    fn fetch(hier: &mut Hierarchy, line: Line) -> AccessOutcome {
        match hier.fetch_instr_hit(line) {
            Some(_) => AccessOutcome { extra_cycles: 0, evicted_untouched: None },
            None => hier.fetch_instr_miss(line),
        }
    }

    /// The prefetch latency of a line absent from L1I by scanning the
    /// shared levels' sets, with no presence shadow involved.
    fn scan_latency(hier: &Hierarchy, line: Line) -> u32 {
        if hier.l2.contains(line) {
            MACHINE.lat.l2
        } else if hier.l3.contains(line) {
            MACHINE.lat.l3
        } else {
            MACHINE.lat.mem
        }
    }

    #[test]
    fn cold_fetch_comes_from_memory() {
        let mut hier = h();
        let out = fetch(&mut hier, Line::new(100));
        assert_eq!(out.extra_cycles, MACHINE.lat.mem - 3);
    }

    #[test]
    fn refetch_hits_l1() {
        let mut hier = h();
        fetch(&mut hier, Line::new(100));
        assert_eq!(hier.fetch_instr_hit(Line::new(100)), Some(false));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut hier = h();
        fetch(&mut hier, Line::new(0));
        // Fill set 0 of the 64-set 8-way L1I with conflicting lines.
        for i in 1..=8u64 {
            fetch(&mut hier, Line::new(i * 64));
        }
        let out = fetch(&mut hier, Line::new(0));
        assert_eq!(out.extra_cycles, MACHINE.lat.l2 - 3);
    }

    #[test]
    fn prefetch_fill_makes_next_fetch_hit() {
        let mut hier = h();
        let l = Line::new(77);
        hier.prefetch_fill(l);
        assert!(hier.l1i.is_untouched_prefetch(l));
        assert_eq!(hier.fetch_instr_hit(l), Some(true), "the first demand uses the prefetch");
        assert!(!hier.l1i.is_untouched_prefetch(l));
        assert_eq!(hier.fetch_instr_hit(l), Some(false));
    }

    #[test]
    fn prefetch_latency_tracks_residency() {
        let mut hier = h();
        let l = Line::new(5);
        assert_eq!(hier.prefetch_latency_missing_l1i(l), 260);
        fetch(&mut hier, l); // now in l1i + l2 + l3
        assert!(hier.in_l1i(l));
        // Evict from L1I only: conflicting fetches.
        for i in 1..=8u64 {
            fetch(&mut hier, Line::new(5 + i * 64));
        }
        assert!(!hier.in_l1i(l));
        assert_eq!(hier.prefetch_latency_missing_l1i(l), 12);
    }

    #[test]
    fn data_and_instruction_l1s_are_split() {
        let mut hier = h();
        let l = Line::new(9);
        hier.load_data_miss(l);
        // Same line fetched as an instruction must miss L1I but hit L2.
        let out = fetch(&mut hier, l);
        assert_eq!(out.extra_cycles, MACHINE.lat.l2 - 3);
    }

    #[test]
    fn prefetch_of_a_data_line_gets_the_shared_level_latency() {
        // A hand-built plan may target a line in the data range. The data
        // side's L1D lives outside the hierarchy, so such a prefetch is
        // priced by the shared level holding the line — L2 right after a
        // data miss brought it in — never at the L1 latency.
        for with_shadows in [false, true] {
            let mut hier = if with_shadows { shadowed(512, 300) } else { h() };
            let data_line = Line::new(DATA_LINE_BASE + 5);
            assert_eq!(hier.prefetch_latency_missing_l1i(data_line), 260);
            hier.load_data_miss(data_line);
            assert_eq!(
                hier.prefetch_latency_missing_l1i(data_line),
                12,
                "shadowed: {with_shadows}"
            );
        }
    }

    #[test]
    fn l1i_shadow_agrees_with_cache_scan() {
        // Drive fills and evictions through both fetch and prefetch paths and
        // check the presence shadow never diverges from the authoritative
        // cache contents, including for lines outside the shadowed range.
        let mut hier = shadowed(512, 0);
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = Line::new(state % 600); // some lines beyond the limit
            match state >> 40 & 3 {
                0 | 1 => {
                    fetch(&mut hier, line);
                }
                2 => {
                    hier.prefetch_fill(line);
                }
                _ => {
                    // Data misses churn L2/L3 (and their shadows) too.
                    hier.load_data_miss(line);
                }
            }
            for probe in [Line::new(state >> 8 & 0x3FF), line] {
                assert_eq!(hier.in_l1i(probe), hier.l1i.contains(probe), "line {probe:?}");
                // The shadow-served latency walk must agree with the scan
                // walk for any line absent from L1I.
                if !hier.l1i.contains(probe) {
                    assert_eq!(
                        hier.prefetch_latency_missing_l1i(probe),
                        scan_latency(&hier, probe),
                        "L2/L3 shadow diverged for line {probe:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shadow_covers_matches_per_line_probes() {
        let mut hier = shadowed(256, 0);
        for l in [3u64, 62, 63, 64, 65, 130] {
            hier.prefetch_fill(Line::new(l));
        }
        // Every bit of every word answers exactly what the per-line probe
        // does, including across the word 0/1 boundary.
        for raw in 0..256u64 {
            let bit = hier.l1i_shadow_word((raw >> 6) as usize) >> (raw & 63) & 1 == 1;
            assert_eq!(bit, hier.in_l1i(Line::new(raw)), "line {raw}");
        }
        assert_eq!(hier.l1i_shadow_word(0) >> 62, 0b11);
        assert_eq!(hier.l1i_shadow_word(1) & 0b11, 0b11);
    }

    #[test]
    fn data_shadow_matches_shadowless_twin() {
        // Drive one shadowed and one shadowless hierarchy through an
        // identical interleaved code/data access sequence; every outcome
        // (latency, eviction identity) must match, or the
        // shadow-guided lookup_fill_shared diverged from the scan path.
        let mut fast = shadowed(512, 300); // data shadow rounds up to whole words
        let mut slow = h();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..30_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state >> 40 & 3 {
                0 => {
                    let line = Line::new(state % 600);
                    assert_eq!(fetch(&mut fast, line), fetch(&mut slow, line));
                }
                1 => {
                    let line = Line::new(state % 600);
                    assert_eq!(fast.prefetch_fill(line), slow.prefetch_fill(line));
                }
                _ => {
                    // Data range churns L2/L3 against the code lines.
                    let line = Line::new(DATA_LINE_BASE + state % 300);
                    assert_eq!(fast.load_data_miss(line), slow.load_data_miss(line));
                }
            }
        }
    }

    #[test]
    fn context_switch_keeps_shadows_exact() {
        let mut hier = shadowed(512, 300);
        for l in 0..200u64 {
            fetch(&mut hier, Line::new(l));
        }
        for l in 0..100u64 {
            hier.load_data_miss(Line::new(DATA_LINE_BASE + l));
        }
        hier.prefetch_fill(Line::new(300));
        let mut evicted = 0usize;
        hier.context_switch(50, 30, |_, _| evicted += 1);
        assert!(evicted > 0, "a half-thrash of a warm L1I must evict something");
        // The L1I and shared-L2 shadows must still agree with the caches.
        for probe in (0..520u64).chain(DATA_LINE_BASE..DATA_LINE_BASE + 320) {
            let line = Line::new(probe);
            assert_eq!(hier.in_l1i(line), hier.l1i.contains(line), "line {line:?}");
            if !hier.l1i.contains(line) {
                assert_eq!(
                    hier.prefetch_latency_missing_l1i(line),
                    scan_latency(&hier, line),
                    "shared shadow diverged for {line:?}"
                );
            }
        }
        // A full flush empties L1I entirely (and the shadow with it).
        hier.context_switch(100, 100, |_, _| {});
        assert_eq!(hier.l1i.occupancy(), 0);
        for probe in 0..520u64 {
            assert!(!hier.in_l1i(Line::new(probe)));
        }
    }

    #[test]
    fn data_load_latency() {
        let mut hier = h();
        assert_eq!(hier.load_data_miss(Line::new(1000)), MACHINE.lat.mem - 4);
        assert_eq!(hier.load_data_miss(Line::new(1000)), MACHINE.lat.l2 - 4);
    }
}
