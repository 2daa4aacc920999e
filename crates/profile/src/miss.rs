//! Per-missing-line statistics (the PEBS side of the profile).

use crate::digest::ContentHasher;
use ispy_sim::FxHashMap;
use ispy_trace::{BlockId, Line};
use std::collections::hash_map::Entry;
use std::sync::OnceLock;

/// Everything the profiler learned about one missing I-cache line.
#[derive(Debug, Clone, Default)]
pub struct LineMissStats {
    /// Sampled miss count.
    pub count: u64,
    /// Blocks that were executing when the line missed, with counts.
    /// (A line can miss from several blocks when blocks share a line.)
    /// In a [`MissProfile`] they sum to `count`, so every line has a
    /// dominant block.
    pub at_blocks: FxHashMap<BlockId, u64>,
    /// For each block, how many sampled misses had it in the 32-deep
    /// history window — the raw material for predictor-block mining.
    pub history_presence: FxHashMap<BlockId, u64>,
    /// Trace positions (block indices) of the sampled misses, ascending.
    pub positions: Vec<u32>,
}

impl LineMissStats {
    /// The block that most often triggers this miss (ties to the lowest
    /// id); `None` only for stats with no miss blocks, which a
    /// [`MissProfile`] never holds.
    pub fn dominant_block(&self) -> Option<BlockId> {
        self.at_blocks.iter().max_by_key(|&(b, &c)| (c, std::cmp::Reverse(b.0))).map(|(&b, _)| b)
    }

    /// A stable content digest of these stats: independent of `HashMap`
    /// iteration order and process hash seeds, equal iff the observable
    /// contents are equal. The incremental replanner keys its per-line memo
    /// on this — two profiles that agree on a line's stats share the line's
    /// plan.
    pub fn content_digest(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_u64(self.count);
        let mut at: Vec<(u32, u64)> = self.at_blocks.iter().map(|(&b, &c)| (b.0, c)).collect();
        at.sort_unstable();
        h.write_usize(at.len());
        for (b, c) in at {
            h.write_u32(b);
            h.write_u64(c);
        }
        let mut hist: Vec<(u32, u64)> =
            self.history_presence.iter().map(|(&b, &c)| (b.0, c)).collect();
        hist.sort_unstable();
        h.write_usize(hist.len());
        for (b, c) in hist {
            h.write_u32(b);
            h.write_u64(c);
        }
        h.write_usize(self.positions.len());
        for &p in &self.positions {
            h.write_u32(p);
        }
        h.finish()
    }
}

/// One line's stats plus a lazily computed
/// [`LineMissStats::content_digest`]. Every mutation of `stats` goes through
/// a [`MissProfile`] method that resets `digest`, so a cached digest always
/// matches the stats beside it.
#[derive(Debug, Clone, Default)]
struct LineEntry {
    stats: LineMissStats,
    digest: OnceLock<u64>,
}

impl LineEntry {
    /// The stats, for mutation: drops the cached digest.
    fn stats_mut(&mut self) -> &mut LineMissStats {
        self.digest.take();
        &mut self.stats
    }

    /// The stats' content digest, computed at most once per mutation.
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.stats.content_digest())
    }
}

/// One missing line as the planners visit it: its stats, its dominant
/// block, and its cached content digest.
#[derive(Debug, Clone, Copy)]
pub struct OrderedLine<'a> {
    /// The missing line.
    pub line: Line,
    /// Its stats.
    pub stats: &'a LineMissStats,
    /// [`LineMissStats::dominant_block`] of `stats`.
    pub dominant: BlockId,
    entry: &'a LineEntry,
}

impl OrderedLine<'_> {
    /// [`MissProfile::line_digest`] of this line, without a second lookup.
    pub fn digest(&self) -> u64 {
        self.entry.digest()
    }
}

/// All missing lines observed by a profiling pass.
#[derive(Debug, Clone, Default)]
pub struct MissProfile {
    by_line: FxHashMap<u64, LineEntry>,
    total: u64,
    /// The lines heaviest first (ties by ascending line), each with its
    /// dominant block: built on first use, dropped by every mutation, so
    /// every plan over an unchanged profile shares one sort.
    order: OnceLock<Vec<(Line, BlockId)>>,
}

impl MissProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs fully-formed stats for `line`, replacing any existing entry
    /// — the exact-reconstruction entry point used by the artifact decoder,
    /// the fleet consensus merge and the profiling pass's collector.
    ///
    /// # Panics
    ///
    /// Panics unless `stats.count` is positive and its `at_blocks` counts
    /// sum to it: every sampled miss was recorded at a block, so a missing
    /// line always has a dominant block.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::{LineMissStats, MissProfile};
    /// use ispy_trace::{BlockId, Line};
    ///
    /// let mut mp = MissProfile::new();
    /// let stats = LineMissStats {
    ///     count: 3,
    ///     at_blocks: [(BlockId(4), 2), (BlockId(7), 1)].into_iter().collect(),
    ///     positions: vec![1, 5, 9],
    ///     ..Default::default()
    /// };
    /// mp.insert_line(Line::new(64), stats);
    /// assert_eq!(mp.total_misses(), 3);
    /// assert_eq!(mp.plan_order(0).next().unwrap().dominant, BlockId(4));
    /// ```
    pub fn insert_line(&mut self, line: Line, stats: LineMissStats) {
        assert!(
            stats.count > 0 && stats.at_blocks.values().sum::<u64>() == stats.count,
            "line {line}: at-block counts must sum to its miss count {}",
            stats.count
        );
        self.total += stats.count;
        self.order.take();
        if let Some(old) =
            self.by_line.insert(line.raw(), LineEntry { stats, digest: OnceLock::new() })
        {
            self.total -= old.stats.count;
        }
    }

    /// Adds every line of `other` into this profile: counts, miss blocks
    /// and history presence as sums, positions merged in sorted order. Two
    /// windows' profiles merge to the profile of both in either order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::{LineMissStats, MissProfile};
    /// use ispy_trace::{BlockId, Line};
    ///
    /// let one = |pos: u32| {
    ///     let mut mp = MissProfile::new();
    ///     let stats = LineMissStats {
    ///         count: 1,
    ///         at_blocks: [(BlockId(2), 1)].into_iter().collect(),
    ///         positions: vec![pos],
    ///         ..Default::default()
    ///     };
    ///     mp.insert_line(Line::new(64), stats);
    ///     mp
    /// };
    /// let mut mp = one(9);
    /// mp.merge(&one(3));
    /// assert_eq!(mp.line(Line::new(64)).unwrap().positions, [3, 9]);
    /// mp.subtract(&one(9));
    /// assert_eq!(mp.total_misses(), 1);
    /// ```
    pub fn merge(&mut self, other: &MissProfile) {
        if other.by_line.is_empty() {
            return;
        }
        self.order.take();
        self.total += other.total;
        for (&line, entry) in &other.by_line {
            let stats = match self.by_line.entry(line) {
                // A new line takes the stats whole, cached digest included.
                Entry::Vacant(slot) => {
                    slot.insert(entry.clone());
                    continue;
                }
                Entry::Occupied(slot) => slot.into_mut().stats_mut(),
            };
            let add = &entry.stats;
            stats.count += add.count;
            for (&b, &n) in &add.at_blocks {
                *stats.at_blocks.entry(b).or_insert(0) += n;
            }
            for (&b, &n) in &add.history_presence {
                *stats.history_presence.entry(b).or_insert(0) += n;
            }
            let in_order = match (stats.positions.last(), add.positions.first()) {
                (Some(last), Some(first)) => last <= first,
                _ => true,
            };
            stats.positions.extend_from_slice(&add.positions);
            if !in_order {
                // Two sorted runs: the stable sort merges them in one pass.
                stats.positions.sort();
            }
        }
    }

    /// Removes every line of `other` from this profile — the exact inverse
    /// of [`MissProfile::merge`]. A line whose count reaches zero is
    /// dropped, and so is a block count that reaches zero, so a profile
    /// with `other` merged in and subtracted out is digest-equal to one
    /// that never saw it.
    ///
    /// # Panics
    ///
    /// Panics if anything in `other` is absent here: an unknown line, a
    /// trace position not present, or a count that would underflow.
    /// Removing phantom misses would silently corrupt the profile.
    pub fn subtract(&mut self, other: &MissProfile) {
        if other.by_line.is_empty() {
            return;
        }
        self.order.take();
        for (&line, entry) in &other.by_line {
            let gone = &entry.stats;
            let line = Line::new(line);
            let stats = self
                .by_line
                .get_mut(&line.raw())
                .unwrap_or_else(|| panic!("subtract of an unknown line {line}"))
                .stats_mut();
            stats.count = stats
                .count
                .checked_sub(gone.count)
                .unwrap_or_else(|| panic!("subtract underflows the miss count of line {line}"));
            subtract_counts(&mut stats.at_blocks, &gone.at_blocks, "miss blocks", line);
            subtract_counts(&mut stats.history_presence, &gone.history_presence, "presence", line);
            // Both sides ascending: one pass removes each of `gone`'s
            // positions once.
            let mut next = gone.positions.iter().peekable();
            stats.positions.retain(|p| next.next_if_eq(&p).is_none());
            assert!(next.next().is_none(), "subtract of a position not in line {line}");
            if stats.count == 0 {
                self.by_line.remove(&line.raw());
            }
        }
        self.total -= other.total;
    }

    /// Stats for `line`, if it ever missed.
    pub fn line(&self, line: Line) -> Option<&LineMissStats> {
        self.by_line.get(&line.raw()).map(|e| &e.stats)
    }

    /// [`LineMissStats::content_digest`] of `line`'s stats, computed at most
    /// once per mutation of the line (the planner's per-line memo key), or
    /// `None` if the line never missed.
    pub fn line_digest(&self, line: Line) -> Option<u64> {
        self.by_line.get(&line.raw()).map(LineEntry::digest)
    }

    /// Total sampled misses.
    pub fn total_misses(&self) -> u64 {
        self.total
    }

    /// Number of distinct missing lines.
    pub fn num_lines(&self) -> usize {
        self.by_line.len()
    }

    /// Missing lines ordered by miss count, heaviest first (ties by
    /// ascending line).
    pub fn lines_by_count(&self) -> Vec<(Line, &LineMissStats)> {
        self.plan_order(0).map(|l| (l.line, l.stats)).collect()
    }

    /// The lines a planner targets, in the order it visits them: every line
    /// with at least `min_count` misses, heaviest first (ties by ascending
    /// line), each with its dominant block. The order is sorted once per
    /// mutation of the profile and shared by every plan in between.
    pub fn plan_order(&self, min_count: u64) -> impl Iterator<Item = OrderedLine<'_>> {
        let order = self.order.get_or_init(|| {
            let mut order: Vec<(u64, Line, BlockId)> = self
                .by_line
                .iter()
                .map(|(&raw, e)| {
                    let dominant = e.stats.dominant_block().expect("a missing line has a block");
                    (e.stats.count, Line::new(raw), dominant)
                })
                .collect();
            order.sort_unstable_by_key(|&(count, line, _)| (std::cmp::Reverse(count), line));
            order.into_iter().map(|(_, line, dominant)| (line, dominant)).collect()
        });
        order
            .iter()
            .map(|&(line, dominant)| {
                let entry = &self.by_line[&line.raw()];
                OrderedLine { line, stats: &entry.stats, dominant, entry }
            })
            .take_while(move |l| l.stats.count >= min_count)
    }

    /// Iterates all `(line, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Line, &LineMissStats)> {
        self.by_line.iter().map(|(&raw, e)| (Line::new(raw), &e.stats))
    }
}

/// Subtracts `gone`'s per-block counts from `from`, dropping the blocks
/// that reach zero; panics on a block absent from `from` or a count that
/// would underflow.
fn subtract_counts(
    from: &mut FxHashMap<BlockId, u64>,
    gone: &FxHashMap<BlockId, u64>,
    what: &str,
    line: Line,
) {
    for (b, &n) in gone {
        let c = from
            .get_mut(b)
            .filter(|c| **c >= n)
            .unwrap_or_else(|| panic!("subtract underflows the {what} of line {line} at {b}"));
        *c -= n;
        if *c == 0 {
            from.remove(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// A profile of one sampled miss of `line` at `block`, trace position
    /// `idx`, with the history window `history`.
    fn one(line: Line, block: BlockId, idx: u32, history: &[BlockId]) -> MissProfile {
        let mut presence = FxHashMap::default();
        for &h in history {
            presence.insert(h, 1);
        }
        let stats = LineMissStats {
            count: 1,
            at_blocks: [(block, 1)].into_iter().collect(),
            history_presence: presence,
            positions: vec![idx],
        };
        let mut mp = MissProfile::new();
        mp.insert_line(line, stats);
        mp
    }

    /// Records one sampled miss into `mp`, as a one-sample merge.
    fn record(mp: &mut MissProfile, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        mp.merge(&one(line, block, idx, history));
    }

    #[test]
    fn record_accumulates() {
        let mut mp = MissProfile::new();
        let l = Line::new(100);
        record(&mut mp, l, b(5), 10, &[b(1), b(2), b(1)]);
        record(&mut mp, l, b(5), 20, &[b(2), b(3)]);
        let s = mp.line(l).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.at_blocks[&b(5)], 2);
        // b(1) appeared twice in one sample -> presence counted once.
        assert_eq!(s.history_presence[&b(1)], 1);
        assert_eq!(s.history_presence[&b(2)], 2);
        assert_eq!(s.positions, vec![10, 20]);
        assert_eq!(mp.total_misses(), 2);
        assert_eq!(mp.num_lines(), 1);
    }

    #[test]
    fn dominant_block() {
        let mut mp = MissProfile::new();
        let l = Line::new(7);
        record(&mut mp, l, b(1), 0, &[]);
        record(&mut mp, l, b(2), 1, &[]);
        record(&mut mp, l, b(2), 2, &[]);
        assert_eq!(mp.line(l).unwrap().dominant_block(), Some(b(2)));
    }

    #[test]
    fn lines_by_count_sorted() {
        let mut mp = MissProfile::new();
        record(&mut mp, Line::new(1), b(0), 0, &[]);
        record(&mut mp, Line::new(2), b(0), 1, &[]);
        record(&mut mp, Line::new(2), b(0), 2, &[]);
        let order: Vec<u64> = mp.lines_by_count().iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn missing_line_lookup_is_none() {
        let mp = MissProfile::new();
        assert!(mp.line(Line::new(42)).is_none());
        assert_eq!(mp.total_misses(), 0);
    }

    #[test]
    fn fold_out_of_order_matches_in_order_record() {
        let (l, m) = (Line::new(100), Line::new(200));
        let samples = [
            (l, b(5), 10u32, vec![b(1), b(2)]),
            (m, b(6), 15, vec![b(1)]),
            (l, b(5), 20, vec![b(2)]),
            (l, b(6), 30, vec![]),
        ];
        let mut in_order = MissProfile::new();
        for (line, blk, idx, hist) in &samples {
            record(&mut in_order, *line, *blk, *idx, hist);
        }
        // Two windows, each spanning both lines' positions, merged late
        // window first.
        let mut windows = [MissProfile::new(), MissProfile::new()];
        for (i, (line, blk, idx, hist)) in samples.iter().enumerate() {
            record(&mut windows[i % 2], *line, *blk, *idx, hist);
        }
        let mut shuffled = windows[1].clone();
        shuffled.merge(&windows[0]);
        for line in [l, m] {
            let (a, s) = (in_order.line(line).unwrap(), shuffled.line(line).unwrap());
            assert_eq!(a.positions, s.positions);
            assert_eq!(a.content_digest(), s.content_digest());
        }
        assert_eq!(shuffled.line(l).unwrap().positions, [10, 20, 30]);
        assert_eq!(in_order.total_misses(), shuffled.total_misses());
    }

    #[test]
    fn subtract_is_exact_inverse_of_merge() {
        let l = Line::new(7);
        let mut mp = one(l, b(1), 5, &[b(9)]);
        record(&mut mp, l, b(1), 12, &[]);
        let before = mp.line(l).unwrap().content_digest();
        let window = one(l, b(2), 9, &[b(9), b(4)]);
        mp.merge(&window);
        assert_eq!(mp.total_misses(), 3);
        assert_eq!(mp.line(l).unwrap().positions, [5, 9, 12]);
        mp.subtract(&window);
        assert_eq!(mp.total_misses(), 2);
        let after = mp.line(l).unwrap();
        assert_eq!(after.content_digest(), before);
        assert_eq!(after.positions, [5, 12]);
        assert!(!after.at_blocks.contains_key(&b(2)), "zeroed block counts are deleted");
        assert!(!after.history_presence.contains_key(&b(4)));
    }

    #[test]
    fn subtracting_a_lines_last_miss_removes_the_line() {
        let (l, m) = (Line::new(64), Line::new(128));
        let mut mp = one(l, b(1), 3, &[b(2)]);
        record(&mut mp, m, b(1), 4, &[]);
        mp.subtract(&one(l, b(1), 3, &[b(2)]));
        assert!(mp.line(l).is_none(), "a line whose last miss is removed must vanish");
        assert_eq!(mp.total_misses(), 1);
        assert_eq!(mp.num_lines(), 1);
        assert!(mp.plan_order(0).all(|o| o.line == m));
    }

    #[test]
    #[should_panic(expected = "position not in line")]
    fn subtracting_an_absent_position_panics() {
        let l = Line::new(64);
        let mut mp = one(l, b(1), 3, &[]);
        mp.subtract(&one(l, b(1), 4, &[]));
    }

    #[test]
    #[should_panic(expected = "unknown line")]
    fn subtracting_an_unknown_line_panics() {
        let mut mp = one(Line::new(64), b(1), 3, &[]);
        mp.subtract(&one(Line::new(128), b(1), 3, &[]));
    }

    #[test]
    #[should_panic(expected = "underflows the miss blocks")]
    fn subtracting_an_absent_miss_block_panics() {
        let l = Line::new(64);
        let mut mp = one(l, b(1), 3, &[]);
        mp.subtract(&one(l, b(2), 3, &[]));
    }

    #[test]
    #[should_panic(expected = "underflows the presence")]
    fn subtracting_absent_history_panics() {
        let l = Line::new(64);
        let mut mp = one(l, b(1), 3, &[b(5)]);
        mp.subtract(&one(l, b(1), 3, &[b(6)]));
    }

    #[test]
    #[should_panic(expected = "underflows the miss count")]
    fn subtracting_more_misses_than_a_line_has_panics() {
        let l = Line::new(64);
        let mut mp = one(l, b(1), 3, &[]);
        let mut twice = one(l, b(1), 3, &[]);
        record(&mut twice, l, b(1), 3, &[]);
        mp.subtract(&twice);
    }

    #[test]
    fn content_digest_ignores_map_insertion_order() {
        let l = Line::new(1);
        let mut a = one(l, b(1), 0, &[b(3), b(4)]);
        record(&mut a, l, b(2), 1, &[b(4)]);
        let mut c = one(l, b(2), 1, &[b(4)]);
        record(&mut c, l, b(1), 0, &[b(3), b(4)]);
        assert_eq!(a.line(l).unwrap().content_digest(), c.line(l).unwrap().content_digest());
        let mut d = one(l, b(1), 0, &[b(3), b(4)]);
        record(&mut d, l, b(2), 2, &[b(4)]);
        assert_ne!(a.line(l).unwrap().content_digest(), d.line(l).unwrap().content_digest());
    }

    #[test]
    fn line_digest_tracks_every_mutation() {
        fn check(mp: &MissProfile, l: Line) {
            let fresh = mp.line(l).unwrap().content_digest();
            // Twice: the first call fills the cache, the second reads it.
            assert_eq!(mp.line_digest(l), Some(fresh));
            assert_eq!(mp.line_digest(l), Some(fresh));
        }
        let l = Line::new(9);
        let mut mp = MissProfile::new();
        assert_eq!(mp.line_digest(l), None);
        record(&mut mp, l, b(1), 4, &[b(2), b(3)]);
        check(&mp, l);
        record(&mut mp, l, b(1), 8, &[b(3)]);
        check(&mp, l);
        record(&mut mp, l, b(4), 6, &[b(2)]);
        check(&mp, l);
        mp.subtract(&one(l, b(1), 4, &[b(2), b(3)]));
        check(&mp, l);
        let copy = mp.clone();
        check(&copy, l);
        record(&mut mp, l, b(5), 12, &[]);
        check(&mp, l);
        check(&copy, l);
        assert_ne!(mp.line_digest(l), copy.line_digest(l));
        let installed = LineMissStats {
            count: 1,
            at_blocks: [(b(7), 1)].into_iter().collect(),
            positions: vec![3],
            ..Default::default()
        };
        mp.insert_line(l, installed);
        check(&mp, l);
        mp.subtract(&one(l, b(7), 3, &[]));
        assert_eq!(mp.line_digest(l), None);
    }

    #[test]
    fn plan_order_tracks_every_mutation() {
        // Fills the cached order, then checks it against a fresh sort of
        // the stats, at every miss-count floor the lines straddle.
        fn check(mp: &MissProfile) {
            let mut fresh: Vec<(u64, Line, BlockId)> =
                mp.iter().map(|(l, s)| (s.count, l, s.dominant_block().unwrap())).collect();
            fresh.sort_by_key(|&(count, line, _)| (std::cmp::Reverse(count), line));
            for min_count in 0..=4 {
                let want: Vec<(Line, BlockId)> = fresh
                    .iter()
                    .filter(|&&(count, ..)| count >= min_count)
                    .map(|&(_, line, dominant)| (line, dominant))
                    .collect();
                let got: Vec<(Line, BlockId)> =
                    mp.plan_order(min_count).map(|l| (l.line, l.dominant)).collect();
                assert_eq!(got, want, "min count {min_count}");
            }
            for l in mp.plan_order(0) {
                assert_eq!(l.stats.count, mp.line(l.line).unwrap().count);
                assert_eq!(Some(l.digest()), mp.line_digest(l.line));
            }
        }
        let (x, y, z) = (Line::new(3), Line::new(9), Line::new(20));
        let mut mp = MissProfile::new();
        check(&mp);
        record(&mut mp, y, b(1), 4, &[b(2)]);
        record(&mut mp, x, b(2), 5, &[]);
        check(&mp);
        // y leads on its tie with x; a second miss puts x first.
        record(&mut mp, x, b(3), 6, &[b(1)]);
        check(&mp);
        // Two misses at b(4) make it y's dominant block.
        record(&mut mp, y, b(4), 2, &[]);
        record(&mut mp, y, b(4), 1, &[]);
        check(&mp);
        let installed = LineMissStats {
            count: 3,
            at_blocks: [(b(7), 2), (b(8), 1)].into_iter().collect(),
            positions: vec![0, 7, 8],
            ..Default::default()
        };
        mp.insert_line(z, installed);
        check(&mp);
        // Replacing a line's stats reorders it too.
        let replaced = LineMissStats {
            count: 1,
            at_blocks: [(b(8), 1)].into_iter().collect(),
            positions: vec![9],
            ..Default::default()
        };
        mp.insert_line(z, replaced);
        check(&mp);
        mp.subtract(&one(y, b(4), 1, &[]));
        check(&mp);
        // Removing a line's last miss removes it from the order.
        mp.subtract(&one(x, b(2), 5, &[]));
        mp.subtract(&one(x, b(3), 6, &[b(1)]));
        check(&mp);
        assert!(mp.plan_order(0).all(|l| l.line != x));
    }
}
