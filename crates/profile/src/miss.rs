//! Per-missing-line statistics (the PEBS side of the profile).

use crate::digest::ContentHasher;
use ispy_sim::FxHashMap;
use ispy_trace::{BlockId, Line};
use std::sync::OnceLock;

/// Everything the profiler learned about one missing I-cache line.
#[derive(Debug, Clone, Default)]
pub struct LineMissStats {
    /// Sampled miss count.
    pub count: u64,
    /// Blocks that were executing when the line missed, with counts.
    /// (A line can miss from several blocks when blocks share a line.)
    pub at_blocks: FxHashMap<BlockId, u64>,
    /// For each block, how many sampled misses had it in the 32-deep
    /// history window — the raw material for predictor-block mining.
    pub history_presence: FxHashMap<BlockId, u64>,
    /// Trace positions (block indices) of the sampled misses, ascending.
    pub positions: Vec<u32>,
}

impl LineMissStats {
    /// The block that most often triggers this miss.
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
    pub dominant: Option<BlockId>,
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
    order: OnceLock<Vec<(Line, Option<BlockId>)>>,
}

impl MissProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sampled miss of `line` at `block`, trace position `idx`,
    /// with the 32-deep history window `history`.
    pub fn record(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        self.add_sample(line, block, history).positions.push(idx);
    }

    /// Counts one sample of `line` at `block` with `history` into the
    /// line's stats (everything but its position) and returns the stats.
    fn add_sample(
        &mut self,
        line: Line,
        block: BlockId,
        history: &[BlockId],
    ) -> &mut LineMissStats {
        self.total += 1;
        self.order.take();
        let stats = self.by_line.entry(line.raw()).or_default().stats_mut();
        stats.count += 1;
        *stats.at_blocks.entry(block).or_insert(0) += 1;
        for h in distinct(history) {
            *stats.history_presence.entry(h).or_insert(0) += 1;
        }
        stats
    }

    /// Installs fully-formed stats for `line`, replacing any existing entry
    /// — the exact-reconstruction entry point used by the artifact decoder,
    /// the fleet consensus merge and the profiling pass's batched collector
    /// (the incremental [`MissProfile::record`] path cannot rebuild
    /// presorted stats verbatim).
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::{LineMissStats, MissProfile};
    /// use ispy_trace::Line;
    ///
    /// let mut mp = MissProfile::new();
    /// let stats = LineMissStats { count: 3, positions: vec![1, 5, 9], ..Default::default() };
    /// mp.insert_line(Line::new(64), stats);
    /// assert_eq!(mp.total_misses(), 3);
    /// ```
    pub fn insert_line(&mut self, line: Line, stats: LineMissStats) {
        self.total += stats.count;
        self.order.take();
        if let Some(old) =
            self.by_line.insert(line.raw(), LineEntry { stats, digest: OnceLock::new() })
        {
            self.total -= old.stats.count;
        }
    }

    /// Folds one delta miss sample into the profile — the same accumulation
    /// as [`MissProfile::record`], except the trace position is inserted in
    /// sorted order so windows may arrive out of order and still reproduce
    /// the profile an in-order recording would have built (positions are
    /// documented ascending, and the planner's byte-equality depends on it).
    pub fn fold_sample(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        let stats = self.add_sample(line, block, history);
        match stats.positions.last() {
            Some(&last) if last > idx => {
                let at = stats.positions.partition_point(|&p| p < idx);
                stats.positions.insert(at, idx);
            }
            _ => stats.positions.push(idx),
        }
    }

    /// Removes one previously-folded (or recorded) sample — the exact
    /// inverse of [`MissProfile::fold_sample`]. Entries whose counts reach
    /// zero are deleted outright, so a profile with a sample removed is
    /// byte-equal (and digest-equal) to one that never saw it.
    ///
    /// # Panics
    ///
    /// Panics if the sample was never in the profile (unknown line, absent
    /// trace position, or underflowing block/history counts) — removing
    /// phantom samples would silently corrupt the profile.
    pub fn unfold_sample(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
        self.order.take();
        let stats =
            self.by_line.get_mut(&line.raw()).expect("unfold of an unknown line").stats_mut();
        let at = stats.positions.partition_point(|&p| p < idx);
        assert!(
            stats.positions.get(at) == Some(&idx),
            "unfold of a sample not in the profile (line {line}, idx {idx})"
        );
        stats.positions.remove(at);
        stats.count -= 1;
        let bc = stats.at_blocks.get_mut(&block).expect("unfold underflows at_blocks");
        *bc -= 1;
        if *bc == 0 {
            stats.at_blocks.remove(&block);
        }
        for h in distinct(history) {
            let hc =
                stats.history_presence.get_mut(&h).expect("unfold underflows history presence");
            *hc -= 1;
            if *hc == 0 {
                stats.history_presence.remove(&h);
            }
        }
        if stats.count == 0 {
            self.by_line.remove(&line.raw());
        }
        self.total -= 1;
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
            let mut order: Vec<(u64, Line, Option<BlockId>)> = self
                .by_line
                .iter()
                .map(|(&raw, e)| (e.stats.count, Line::new(raw), e.stats.dominant_block()))
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

/// The distinct blocks of one sample's `history`, each once: presence, not
/// multiplicity (the Bloom filter tests presence only).
fn distinct(history: &[BlockId]) -> impl Iterator<Item = BlockId> + '_ {
    history.iter().enumerate().filter(|&(i, h)| !history[..i].contains(h)).map(|(_, &h)| h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn record_accumulates() {
        let mut mp = MissProfile::new();
        let l = Line::new(100);
        mp.record(l, b(5), 10, &[b(1), b(2), b(1)]);
        mp.record(l, b(5), 20, &[b(2), b(3)]);
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
        mp.record(l, b(1), 0, &[]);
        mp.record(l, b(2), 1, &[]);
        mp.record(l, b(2), 2, &[]);
        assert_eq!(mp.line(l).unwrap().dominant_block(), Some(b(2)));
    }

    #[test]
    fn lines_by_count_sorted() {
        let mut mp = MissProfile::new();
        mp.record(Line::new(1), b(0), 0, &[]);
        mp.record(Line::new(2), b(0), 1, &[]);
        mp.record(Line::new(2), b(0), 2, &[]);
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
        let l = Line::new(100);
        let samples = [(b(5), 10u32, vec![b(1), b(2)]), (b(5), 20, vec![b(2)]), (b(6), 30, vec![])];
        let mut in_order = MissProfile::new();
        for (blk, idx, hist) in &samples {
            in_order.record(l, *blk, *idx, hist);
        }
        let mut shuffled = MissProfile::new();
        for &i in &[2usize, 0, 1] {
            let (blk, idx, hist) = &samples[i];
            shuffled.fold_sample(l, *blk, *idx, hist);
        }
        let a = in_order.line(l).unwrap();
        let s = shuffled.line(l).unwrap();
        assert_eq!(a.positions, s.positions);
        assert_eq!(a.content_digest(), s.content_digest());
        assert_eq!(in_order.total_misses(), shuffled.total_misses());
    }

    #[test]
    fn unfold_is_exact_inverse_of_fold() {
        let l = Line::new(7);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 5, &[b(9)]);
        let before = mp.line(l).unwrap().content_digest();
        mp.fold_sample(l, b(2), 9, &[b(9), b(4)]);
        assert_eq!(mp.total_misses(), 2);
        mp.unfold_sample(l, b(2), 9, &[b(9), b(4)]);
        assert_eq!(mp.total_misses(), 1);
        let after = mp.line(l).unwrap();
        assert_eq!(after.content_digest(), before);
        assert!(!after.at_blocks.contains_key(&b(2)), "zeroed block counts are deleted");
        assert!(!after.history_presence.contains_key(&b(4)));
    }

    #[test]
    fn unfold_last_sample_removes_the_line() {
        let l = Line::new(64);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 3, &[b(2)]);
        mp.unfold_sample(l, b(1), 3, &[b(2)]);
        assert!(mp.line(l).is_none(), "a line whose last miss is removed must vanish");
        assert_eq!(mp.total_misses(), 0);
        assert_eq!(mp.num_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "not in the profile")]
    fn unfold_phantom_sample_panics() {
        let l = Line::new(64);
        let mut mp = MissProfile::new();
        mp.record(l, b(1), 3, &[]);
        mp.unfold_sample(l, b(1), 4, &[]);
    }

    #[test]
    fn content_digest_ignores_map_insertion_order() {
        let l = Line::new(1);
        let mut a = MissProfile::new();
        a.record(l, b(1), 0, &[b(3), b(4)]);
        a.record(l, b(2), 1, &[b(4)]);
        let mut c = MissProfile::new();
        c.fold_sample(l, b(2), 1, &[b(4)]);
        c.fold_sample(l, b(1), 0, &[b(3), b(4)]);
        assert_eq!(a.line(l).unwrap().content_digest(), c.line(l).unwrap().content_digest());
        let mut d = MissProfile::new();
        d.record(l, b(1), 0, &[b(3), b(4)]);
        d.record(l, b(2), 2, &[b(4)]);
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
        mp.record(l, b(1), 4, &[b(2), b(3)]);
        check(&mp, l);
        mp.record(l, b(1), 8, &[b(3)]);
        check(&mp, l);
        mp.fold_sample(l, b(4), 6, &[b(2)]);
        check(&mp, l);
        mp.unfold_sample(l, b(1), 4, &[b(2), b(3)]);
        check(&mp, l);
        let copy = mp.clone();
        check(&copy, l);
        mp.record(l, b(5), 12, &[]);
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
        mp.unfold_sample(l, b(7), 3, &[]);
        assert_eq!(mp.line_digest(l), None);
    }

    #[test]
    fn plan_order_tracks_every_mutation() {
        // Fills the cached order, then checks it against a fresh sort of
        // the stats, at every miss-count floor the lines straddle.
        fn check(mp: &MissProfile) {
            let mut fresh: Vec<(u64, Line, Option<BlockId>)> =
                mp.iter().map(|(l, s)| (s.count, l, s.dominant_block())).collect();
            fresh.sort_by_key(|&(count, line, _)| (std::cmp::Reverse(count), line));
            for min_count in 0..=4 {
                let want: Vec<(Line, Option<BlockId>)> = fresh
                    .iter()
                    .filter(|&&(count, ..)| count >= min_count)
                    .map(|&(_, line, dominant)| (line, dominant))
                    .collect();
                let got: Vec<(Line, Option<BlockId>)> =
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
        mp.record(y, b(1), 4, &[b(2)]);
        mp.record(x, b(2), 5, &[]);
        check(&mp);
        // y leads on its tie with x; a second miss puts x first.
        mp.record(x, b(3), 6, &[b(1)]);
        check(&mp);
        // Two misses at b(4) make it y's dominant block.
        mp.fold_sample(y, b(4), 2, &[]);
        mp.fold_sample(y, b(4), 1, &[]);
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
        mp.insert_line(z, LineMissStats { count: 1, positions: vec![9], ..Default::default() });
        check(&mp);
        mp.unfold_sample(y, b(4), 1, &[]);
        check(&mp);
        // Removing a line's last miss removes it from the order.
        mp.unfold_sample(x, b(2), 5, &[]);
        mp.unfold_sample(x, b(3), 6, &[b(1)]);
        check(&mp);
        assert!(mp.plan_order(0).all(|l| l.line != x));
    }
}
