//! Set-associative caches with priority-aware LRU replacement.
//!
//! I-SPY's prefetch instructions insert prefetched lines at *half* the
//! highest replacement priority instead of MRU (§III-B), so a mispredicted
//! prefetch is evicted sooner than demand-fetched lines. [`InsertPriority`]
//! models that policy knob.

use ispy_trace::Line;

/// Geometry of one cache level. Every line is
/// [`LINE_BYTES`](ispy_trace::LINE_BYTES) long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl CacheParams {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or the capacity is smaller than one set.
    pub const fn new(size_bytes: u64, ways: u32) -> Self {
        let p = CacheParams { size_bytes, ways };
        assert!(p.num_sets() >= 1, "cache must have at least one set");
        p
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> u64 {
        self.num_lines() / self.ways as u64
    }

    /// Number of lines the cache can hold.
    pub const fn num_lines(&self) -> u64 {
        self.size_bytes / ispy_trace::LINE_BYTES
    }
}

/// Where a fill enters a set's LRU recency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertPriority {
    /// Most-recently-used position (demand fills).
    #[default]
    Mru,
    /// Half of the highest priority (I-SPY's policy for prefetched lines).
    Half,
    /// Least-recently-used position (next to evict).
    Lru,
}

/// Outcome of [`Cache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Line evicted to make room, if the set was full.
    pub evicted: Option<Line>,
    /// The evicted line was an untouched prefetch (wasted prefetch).
    pub evicted_untouched_prefetch: bool,
}

/// A set-associative cache over [`Line`] addresses.
///
/// Storage is one flat `sets × ways` array of packed slots plus a per-set
/// occupancy count; each set's occupied prefix is a recency-ordered stack
/// (offset 0 = MRU). A slot packs `line << 1 | untouched_prefetch_flag`, so
/// recency updates are in-place 8-byte slice rotations instead of `Vec`
/// element shifts, and the whole working set of a small cache stays in a few
/// hardware cache lines. The set-index divisor is precomputed once (a mask
/// for the usual power-of-two set counts); associativities here are ≤ 20 so
/// linear scans are fast.
///
/// # Examples
///
/// ```
/// use ispy_sim::{Cache, CacheParams, InsertPriority};
/// use ispy_trace::Line;
///
/// let mut l1 = Cache::new(CacheParams::new(32 * 1024, 8));
/// assert!(!l1.access(Line::new(3)));          // cold miss
/// l1.fill(Line::new(3), InsertPriority::Mru, false);
/// assert!(l1.access(Line::new(3)));           // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    ways: usize,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two (`u64::MAX`
    /// sentinel otherwise, in which case indexing falls back to `%`).
    set_mask: u64,
    /// Packed `line << 1 | untouched` slots, `ways` per set.
    slots: Vec<u64>,
    /// Occupied prefix length of each set.
    occ: Vec<u32>,
}

/// Packs a line and its untouched-prefetch flag into one slot word.
#[inline]
fn pack(line: Line, untouched: bool) -> u64 {
    (line.raw() << 1) | u64::from(untouched)
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(params: CacheParams) -> Self {
        let num_sets = params.num_sets();
        let ways = params.ways as usize;
        let set_mask = if num_sets.is_power_of_two() { num_sets - 1 } else { u64::MAX };
        Cache {
            params,
            ways,
            num_sets,
            set_mask,
            slots: vec![0; num_sets as usize * ways],
            occ: vec![0; num_sets as usize],
        }
    }

    /// The cache's geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    #[inline]
    fn set_index(&self, line: Line) -> usize {
        let raw = line.raw();
        let idx = if self.set_mask != u64::MAX { raw & self.set_mask } else { raw % self.num_sets };
        idx as usize
    }

    /// The occupied prefix of `line`'s set, MRU first.
    #[inline]
    fn set_of(&self, line: Line) -> &[u64] {
        let si = self.set_index(line);
        let base = si * self.ways;
        &self.slots[base..base + self.occ[si] as usize]
    }

    /// Demand access: returns `true` on hit and promotes the line to MRU,
    /// clearing its untouched-prefetch flag. See [`Cache::demand`] for the
    /// variant that reports the cleared flag.
    pub fn access(&mut self, line: Line) -> bool {
        self.demand(line).is_some()
    }

    /// Demand access returning `Some(was_untouched_prefetch)` on hit — the
    /// hit is promoted to MRU and its flag cleared in the same single scan.
    #[inline]
    pub fn demand(&mut self, line: Line) -> Option<bool> {
        let si = self.set_index(line);
        let base = si * self.ways;
        let set = &mut self.slots[base..base + self.occ[si] as usize];
        let raw = line.raw();
        let pos = set.iter().position(|&s| s >> 1 == raw)?;
        let was_untouched = set[pos] & 1 == 1;
        // Shift [0, pos) right one and write the promoted line at MRU. An
        // element loop, not `copy_within`: the dynamic-length copy lowers to
        // a libc memmove call whose overhead dwarfs these ≤ 20-slot moves,
        // and the common MRU re-hit (pos = 0) skips the loop entirely.
        let mut i = pos;
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = raw << 1;
        Some(was_untouched)
    }

    /// Demand access that fills on a miss, as a private cache's demand
    /// load does: returns whether `line` hit. Identical to
    /// [`Cache::access`] followed, on a miss, by an MRU [`Cache::fill`] of
    /// a non-prefetched line, in one set scan.
    #[inline]
    pub(crate) fn demand_fill(&mut self, line: Line) -> bool {
        let si = self.set_index(line);
        let base = si * self.ways;
        let occ = self.occ[si] as usize;
        let set = &mut self.slots[base..base + self.ways];
        let raw = line.raw();
        // The slot the line leaves (a hit) or the LRU victim's (a miss in a
        // full set); the slots before it shift down one.
        let (hit, from) = match set[..occ].iter().position(|&s| s >> 1 == raw) {
            Some(pos) => (true, pos),
            None if occ < self.ways => {
                self.occ[si] += 1;
                (false, occ)
            }
            None => (false, occ - 1),
        };
        let mut i = from;
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = raw << 1;
        hit
    }

    /// Whether the line is resident, without touching recency or flags.
    #[inline]
    pub fn contains(&self, line: Line) -> bool {
        let raw = line.raw();
        self.set_of(line).iter().any(|&s| s >> 1 == raw)
    }

    /// Whether the line is resident as an untouched prefetch.
    pub fn is_untouched_prefetch(&self, line: Line) -> bool {
        let key = pack(line, true);
        self.set_of(line).contains(&key)
    }

    /// Inserts a line at the given priority; `prefetched` marks it for
    /// usefulness accounting. Re-filling a resident line only updates its
    /// position/flag.
    pub fn fill(&mut self, line: Line, priority: InsertPriority, prefetched: bool) -> FillOutcome {
        let si = self.set_index(line);
        let base = si * self.ways;
        let mut occ = self.occ[si] as usize;
        let raw = line.raw();

        // Remove an existing copy (keeping its flag) so the re-fill only
        // moves it.
        let set = &mut self.slots[base..base + occ];
        let entry = match set.iter().position(|&s| s >> 1 == raw) {
            Some(pos) => {
                let entry = set[pos];
                for i in pos..occ - 1 {
                    set[i] = set[i + 1];
                }
                occ -= 1;
                entry
            }
            None => pack(line, prefetched),
        };
        self.insert(si, occ, entry, priority)
    }

    /// [`Cache::fill`] of a line the caller knows is absent — a demand
    /// probe just missed it, or a presence shadow rules it out — skipping
    /// the scan for an existing copy.
    #[inline]
    pub(crate) fn fill_absent(
        &mut self,
        line: Line,
        priority: InsertPriority,
        prefetched: bool,
    ) -> FillOutcome {
        debug_assert!(!self.contains(line), "fill_absent of resident line {line:?}");
        let si = self.set_index(line);
        self.insert(si, self.occ[si] as usize, pack(line, prefetched), priority)
    }

    /// Writes `entry` into set `si`, whose occupied prefix is `occ` slots
    /// long and holds no copy of it, evicting the LRU slot of a full set.
    #[inline]
    fn insert(
        &mut self,
        si: usize,
        mut occ: usize,
        entry: u64,
        priority: InsertPriority,
    ) -> FillOutcome {
        let ways = self.ways;
        let base = si * ways;
        let mut outcome = FillOutcome { evicted: None, evicted_untouched_prefetch: false };
        if occ >= ways {
            let victim = self.slots[base + occ - 1];
            outcome.evicted = Some(Line::new(victim >> 1));
            outcome.evicted_untouched_prefetch = victim & 1 == 1;
            occ -= 1;
        }
        let pos = match priority {
            InsertPriority::Mru => 0,
            InsertPriority::Half => ways / 2,
            InsertPriority::Lru => occ,
        }
        .min(occ);
        // Shift [pos, occ) right one and write the entry — an element loop
        // for the same reason as in `demand`.
        let set = &mut self.slots[base..base + occ + 1];
        let mut i = occ;
        while i > pos {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[pos] = entry;
        self.occ[si] = (occ + 1) as u32;
        outcome
    }

    /// Evicts the coldest `pct` percent of every set (rounded down per set;
    /// `100` empties the cache), reporting each victim to `on_evict` as
    /// `(line, was_untouched_prefetch)` in eviction order (LRU-most first
    /// within each set, sets in index order). This is the context-switch
    /// thrash model: an intervening tenant displaces the LRU tail of each
    /// set, exactly what its own fills would victimize.
    pub fn evict_lru_fraction(&mut self, pct: u8, mut on_evict: impl FnMut(Line, bool)) {
        debug_assert!(pct <= 100, "eviction fraction is a percentage");
        if pct == 0 {
            return;
        }
        for si in 0..self.occ.len() {
            let occ = self.occ[si] as usize;
            let drop = occ * usize::from(pct) / 100;
            if drop == 0 {
                continue;
            }
            let base = si * self.ways;
            for k in 0..drop {
                let victim = self.slots[base + occ - 1 - k];
                on_evict(Line::new(victim >> 1), victim & 1 == 1);
            }
            self.occ[si] = (occ - drop) as u32;
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> u64 {
        self.occ.iter().map(|&n| u64::from(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheParams { size_bytes: 8 * 64, ways: 2 })
    }

    /// Lines that all map to set 0 of the tiny cache.
    fn set0_lines() -> [Line; 3] {
        [Line::new(0), Line::new(4), Line::new(8)]
    }

    #[test]
    fn geometry() {
        let p = CacheParams::new(32 * 1024, 8);
        assert_eq!(p.num_sets(), 64);
        assert_eq!(p.num_lines(), 512);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let l = Line::new(7);
        assert!(!c.access(l));
        c.fill(l, InsertPriority::Mru, false);
        assert!(c.access(l));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        let [a, b, x] = set0_lines();
        c.fill(a, InsertPriority::Mru, false);
        c.fill(b, InsertPriority::Mru, false);
        // `a` is LRU; touching it makes `b` the victim.
        assert!(c.access(a));
        let out = c.fill(x, InsertPriority::Mru, false);
        assert_eq!(out.evicted, Some(b));
        assert!(c.contains(a) && c.contains(x) && !c.contains(b));
    }

    #[test]
    fn half_priority_is_evicted_before_mru_fill() {
        let mut c = tiny();
        let [a, b, x] = set0_lines();
        c.fill(a, InsertPriority::Mru, false);
        // Prefetch fill at half priority lands behind the MRU line.
        c.fill(b, InsertPriority::Half, true);
        // Under pure-MRU insertion the *older* line `a` would be the victim;
        // half-priority insertion makes the prefetched `b` the victim.
        let out = c.fill(x, InsertPriority::Mru, false);
        assert_eq!(out.evicted, Some(b));
        assert!(out.evicted_untouched_prefetch);
    }

    #[test]
    fn demand_access_clears_prefetch_flag() {
        let mut c = tiny();
        let l = Line::new(4);
        c.fill(l, InsertPriority::Half, true);
        assert!(c.is_untouched_prefetch(l));
        assert!(c.access(l));
        assert!(!c.is_untouched_prefetch(l));
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        let l = Line::new(0);
        c.fill(l, InsertPriority::Mru, false);
        c.fill(l, InsertPriority::Mru, false);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn occupancy_caps_at_ways() {
        let mut c = tiny();
        for l in [0u64, 4, 8, 12, 16, 20] {
            c.fill(Line::new(l), InsertPriority::Mru, false);
        }
        // All map to set 0 -> at most 2 resident.
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn lru_insert_priority_is_next_victim() {
        let mut c = tiny();
        let [a, b, x] = set0_lines();
        c.fill(a, InsertPriority::Mru, false);
        c.fill(b, InsertPriority::Lru, false);
        let out = c.fill(x, InsertPriority::Mru, false);
        assert_eq!(out.evicted, Some(b));
    }

    #[test]
    fn evict_lru_fraction_drops_the_coldest_tail() {
        let mut c = tiny();
        let [a, b, _] = set0_lines();
        c.fill(a, InsertPriority::Mru, false);
        c.fill(b, InsertPriority::Half, true); // b sits behind a: the LRU victim
        let mut evicted = Vec::new();
        c.evict_lru_fraction(50, |l, untouched| evicted.push((l, untouched)));
        assert_eq!(evicted, vec![(b, true)]);
        assert!(c.contains(a) && !c.contains(b));
        // 100% empties everything that remains.
        c.evict_lru_fraction(100, |_, _| {});
        assert_eq!(c.occupancy(), 0);
        // 0% is a no-op on an empty (or any) cache.
        c.fill(a, InsertPriority::Mru, false);
        c.evict_lru_fraction(0, |_, _| panic!("nothing should be evicted"));
        assert!(c.contains(a));
    }

    #[test]
    fn demand_reports_and_clears_untouched_flag() {
        let mut c = tiny();
        let l = Line::new(4);
        assert_eq!(c.demand(l), None);
        c.fill(l, InsertPriority::Half, true);
        assert_eq!(c.demand(l), Some(true));
        assert_eq!(c.demand(l), Some(false), "flag cleared by the first demand");
    }

    /// Naive recency-stack model (the pre-rework `Vec<Vec<Entry>>` cache),
    /// kept as the behavioural reference the flat layout must match.
    struct RefCache {
        ways: usize,
        num_sets: u64,
        sets: Vec<Vec<(u64, bool)>>,
    }

    impl RefCache {
        fn new(p: CacheParams) -> Self {
            RefCache {
                ways: p.ways as usize,
                num_sets: p.num_sets(),
                sets: vec![Vec::new(); p.num_sets() as usize],
            }
        }

        fn set(&mut self, line: Line) -> &mut Vec<(u64, bool)> {
            let idx = (line.raw() % self.num_sets) as usize;
            &mut self.sets[idx]
        }

        fn demand(&mut self, line: Line) -> Option<bool> {
            let raw = line.raw();
            let set = self.set(line);
            let pos = set.iter().position(|e| e.0 == raw)?;
            let e = set.remove(pos);
            set.insert(0, (raw, false));
            Some(e.1)
        }

        fn fill(&mut self, line: Line, priority: InsertPriority, prefetched: bool) -> FillOutcome {
            let ways = self.ways;
            let raw = line.raw();
            let set = self.set(line);
            let existing = set.iter().position(|e| e.0 == raw).map(|pos| set.remove(pos));
            let entry = existing.unwrap_or((raw, prefetched));
            let mut outcome = FillOutcome { evicted: None, evicted_untouched_prefetch: false };
            if set.len() >= ways {
                let victim = set.pop().expect("full set has a victim");
                outcome.evicted = Some(Line::new(victim.0));
                outcome.evicted_untouched_prefetch = victim.1;
            }
            let pos = match priority {
                InsertPriority::Mru => 0,
                InsertPriority::Half => ways / 2,
                InsertPriority::Lru => set.len(),
            };
            set.insert(pos.min(set.len()), entry);
            outcome
        }

        fn contains(&mut self, line: Line) -> bool {
            let raw = line.raw();
            self.set(line).iter().any(|e| e.0 == raw)
        }
    }

    #[test]
    fn demand_fill_is_a_demand_then_an_mru_fill() {
        for params in [
            CacheParams { size_bytes: 8 * 64, ways: 2 },
            CacheParams { size_bytes: 24 * 64, ways: 4 }, // 6 sets: not pow2
            CacheParams::new(4 * 1024, 8),
        ] {
            let mut flat = Cache::new(params);
            let mut reference = RefCache::new(params);
            let mut state = 0x9E3779B97F4A7C15u64;
            for step in 0..20_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let line = Line::new(state % 64);
                if state >> 16 & 3 == 0 {
                    // Prefetch fills leave flagged lines for demands to clear.
                    let (a, b) = (
                        flat.fill(line, InsertPriority::Half, true),
                        reference.fill(line, InsertPriority::Half, true),
                    );
                    assert_eq!(a, b, "fill diverged at step {step} ({params:?})");
                    continue;
                }
                let hit = reference.demand(line).is_some();
                if !hit {
                    reference.fill(line, InsertPriority::Mru, false);
                }
                assert_eq!(flat.demand_fill(line), hit, "step {step} ({params:?})");
                // Every set holds the same lines, flags and recency order.
                for (si, want) in reference.sets.iter().enumerate() {
                    let base = si * flat.ways;
                    let got: Vec<(u64, bool)> = flat.slots[base..base + flat.occ[si] as usize]
                        .iter()
                        .map(|&s| (s >> 1, s & 1 == 1))
                        .collect();
                    assert_eq!(&got, want, "set {si} at step {step} ({params:?})");
                }
            }
        }
    }

    #[test]
    fn flat_cache_matches_reference_model() {
        // Drive both implementations with the same pseudo-random op stream
        // (power-of-two and non-power-of-two set counts) and require
        // identical observable behaviour at every step.
        for params in [
            CacheParams { size_bytes: 8 * 64, ways: 2 },
            CacheParams { size_bytes: 24 * 64, ways: 4 }, // 6 sets: not pow2
            CacheParams::new(4 * 1024, 8),
        ] {
            let mut flat = Cache::new(params);
            let mut reference = RefCache::new(params);
            let mut state = 0x2545F4914F6CDD1Du64;
            for step in 0..20_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let line = Line::new(state % 64);
                let prio = match state >> 8 & 3 {
                    0 => InsertPriority::Mru,
                    1 => InsertPriority::Half,
                    _ => InsertPriority::Lru,
                };
                match state >> 16 & 3 {
                    0 => assert_eq!(
                        flat.demand(line),
                        reference.demand(line),
                        "demand diverged at step {step} ({params:?})"
                    ),
                    1 => assert_eq!(
                        flat.fill(line, prio, state >> 24 & 1 == 1),
                        reference.fill(line, prio, state >> 24 & 1 == 1),
                        "fill diverged at step {step} ({params:?})"
                    ),
                    // `fill_absent` only where the reference proves the line
                    // absent; its debug assertion checks the flat cache agrees.
                    2 if !reference.contains(line) => assert_eq!(
                        flat.fill_absent(line, prio, state >> 24 & 1 == 1),
                        reference.fill(line, prio, state >> 24 & 1 == 1),
                        "fill_absent diverged at step {step} ({params:?})"
                    ),
                    _ => {
                        assert_eq!(flat.contains(line), reference.contains(line));
                        assert_eq!(
                            flat.is_untouched_prefetch(line),
                            reference.set(line).iter().any(|e| e.0 == line.raw() && e.1)
                        );
                    }
                }
            }
        }
    }
}
