//! The weighted dynamic control-flow graph (paper Fig. 2).

use crate::digest::ContentHasher;
use crate::window::{WindowMemo, WindowTable};
use ispy_trace::BlockId;

/// A dynamic CFG: blocks weighted by execution count, edges weighted by
/// taken-branch count, and per-block average cycle costs.
///
/// Built from an LBR-style profiling pass; every quantity is *dynamic*
/// (observed), not static.
#[derive(Debug, Clone, Default)]
pub struct DynCfg {
    exec: Vec<u64>,
    avg_cycles: Vec<f64>,
    succs: Vec<Vec<(BlockId, u64)>>,
    preds: Vec<Vec<(BlockId, u64)>>,
    /// Edge probabilities of every block's `preds`, concatenated in block
    /// order; block `b`'s run is `pred_start[b]..pred_start[b + 1]`. Derived
    /// from `succs`, so the content digest skips them.
    pred_probs: Vec<f64>,
    pred_start: Vec<u32>,
    /// Every timely-window search run on this CFG (see
    /// [`DynCfg::window_table`]).
    windows: WindowMemo,
}

impl DynCfg {
    /// Assembles a CFG from per-block execution counts, average
    /// per-execution cycle costs, and `((from, to), taken count)` edges,
    /// each edge at most once and in any order.
    ///
    /// # Panics
    ///
    /// Panics if `exec` and `avg_cycles` lengths disagree or an edge names a
    /// block out of range.
    pub fn new(
        exec: Vec<u64>,
        avg_cycles: Vec<f64>,
        edges: impl IntoIterator<Item = ((u32, u32), u64)>,
    ) -> Self {
        assert_eq!(exec.len(), avg_cycles.len(), "parallel arrays");
        let n = exec.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for ((from, to), w) in edges {
            assert!((from as usize) < n && (to as usize) < n, "edge out of range");
            succs[from as usize].push((BlockId(to), w));
            preds[to as usize].push((BlockId(from), w));
        }
        for adj in succs.iter_mut().chain(preds.iter_mut()) {
            adj.sort_by_key(|&(b, w)| (std::cmp::Reverse(w), b));
        }
        let out_total: Vec<u64> =
            succs.iter().map(|adj| adj.iter().map(|&(_, w)| w).sum()).collect();
        let mut pred_probs = Vec::with_capacity(preds.iter().map(Vec::len).sum());
        let mut pred_start = Vec::with_capacity(n + 1);
        pred_start.push(0);
        for adj in &preds {
            pred_probs.extend(adj.iter().map(|&(from, w)| match out_total[from.index()] {
                0 => 0.0,
                total => w as f64 / total as f64,
            }));
            pred_start.push(pred_probs.len() as u32);
        }
        DynCfg {
            exec,
            avg_cycles,
            succs,
            preds,
            pred_probs,
            pred_start,
            windows: WindowMemo::default(),
        }
    }

    /// Number of blocks the CFG covers.
    pub fn num_blocks(&self) -> usize {
        self.exec.len()
    }

    /// Dynamic execution count of `b`.
    pub fn exec_count(&self, b: BlockId) -> u64 {
        self.exec[b.index()]
    }

    /// Average cycles one execution of `b` costs (from the profile's cycle
    /// deltas — the paper's replacement for AsmDB's global IPC estimate).
    pub fn avg_cycles(&self, b: BlockId) -> f64 {
        self.avg_cycles[b.index()]
    }

    /// Observed successors of `b` with taken counts, heaviest first.
    pub fn succs(&self, b: BlockId) -> &[(BlockId, u64)] {
        &self.succs[b.index()]
    }

    /// Observed predecessors of `b` with taken counts, heaviest first.
    pub fn preds(&self, b: BlockId) -> &[(BlockId, u64)] {
        &self.preds[b.index()]
    }

    /// Edge probabilities parallel to [`DynCfg::preds`]: entry `i` is the
    /// probability that `preds(b)[i]`, once executed, continues to `b` (its
    /// taken count over the sum of its successors' taken counts; 0 when it
    /// has none). Computed once, when the CFG is built.
    pub fn pred_probs(&self, b: BlockId) -> &[f64] {
        let (start, end) = (self.pred_start[b.index()], self.pred_start[b.index() + 1]);
        &self.pred_probs[start as usize..end as usize]
    }

    /// A stable content digest of the whole CFG: execution counts, average
    /// cycle costs (bit-exact), and the weighted edge set. Two CFGs digest
    /// equal iff every accessor would answer identically, so the planner's
    /// per-line memos can key on this instead of carrying explicit
    /// invalidation hooks.
    pub fn content_digest(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_usize(self.exec.len());
        for &e in &self.exec {
            h.write_u64(e);
        }
        for &c in &self.avg_cycles {
            h.write_f64(c);
        }
        // succs is a canonical form of the edge set (sorted per block);
        // preds is derived from the same edges, so hashing succs suffices.
        for adj in &self.succs {
            h.write_usize(adj.len());
            for &(b, w) in adj {
                h.write_u32(b.0);
                h.write_u64(w);
            }
        }
        h.finish()
    }

    /// The timely-window searches of one window: each target's dynamic
    /// predecessors whose expected distance lies within `[min_cycles,
    /// max_cycles]`, from a search capped at
    /// [`MAX_SEARCH_NODES`](crate::window::MAX_SEARCH_NODES) expansions
    /// ([`WindowSearch::candidates`](crate::window::WindowSearch::candidates)).
    ///
    /// The search reads only this CFG, so its results are memoized here, in
    /// one dense per-block table per `max_cycles`: each (target, max) is
    /// searched once, as `(0, max)`, for as long as the CFG lives, and every
    /// window with that max (I-SPY at any config, AsmDB, the spatial
    /// baselines) reads it through a [`Candidates`](crate::window::Candidates)
    /// view that skips the sites closer than its `min_cycles`. Concurrent
    /// callers wait for a search in flight rather than repeat it.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::DynCfg;
    /// use ispy_trace::BlockId;
    ///
    /// let cfg = DynCfg::new(vec![10, 10, 10], vec![10.0; 3], [((0, 1), 10), ((1, 2), 10)]);
    /// let table = cfg.window_table(15, 100);
    /// let sites = table.candidates(BlockId(2));
    /// assert_eq!(sites.iter().next().unwrap().block, BlockId(0));
    /// // Block 1 is 10 cycles ahead: in the (0, 100) search, not in the view.
    /// assert_eq!(sites.unfiltered().len(), 2);
    /// // The second request, and any other minimum, reads the same search.
    /// let wide = cfg.window_table(0, 100);
    /// let again = wide.candidates(BlockId(2));
    /// assert!(std::ptr::eq(sites.unfiltered(), again.unfiltered()));
    /// assert_eq!(again.iter().count(), 2);
    /// ```
    pub fn window_table(&self, min_cycles: u32, max_cycles: u32) -> WindowTable<'_> {
        self.windows.table(self, min_cycles, max_cycles)
    }

    /// Blocks that were executed at least once.
    #[cfg(test)]
    pub fn live_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.exec.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, _)| BlockId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> DynCfg {
        // 0 -> 1 (30), 0 -> 2 (10), 1 -> 3 (30), 2 -> 3 (10)
        let edges = [((0, 1), 30), ((0, 2), 10), ((1, 3), 30), ((2, 3), 10)];
        DynCfg::new(vec![40, 30, 10, 40], vec![4.0, 5.0, 6.0, 7.0], edges)
    }

    #[test]
    fn adjacency_and_counts() {
        let g = simple();
        assert_eq!(g.exec_count(BlockId(0)), 40);
        assert_eq!(g.succs(BlockId(0)).len(), 2);
        assert_eq!(g.preds(BlockId(3)).len(), 2);
        // Heaviest-first ordering.
        assert_eq!(g.succs(BlockId(0))[0], (BlockId(1), 30));
        assert_eq!(g.preds(BlockId(3))[0], (BlockId(1), 30));
    }

    #[test]
    fn edge_probabilities() {
        let g = simple();
        // Block 0 is the only predecessor of 1 and of 2.
        assert_eq!(g.preds(BlockId(1)), &[(BlockId(0), 30)]);
        assert!((g.pred_probs(BlockId(1))[0] - 0.75).abs() < 1e-12);
        assert!((g.pred_probs(BlockId(2))[0] - 0.25).abs() < 1e-12);
        // 1 and 2 each always continue to 3; 0 has no edge to 3, and
        // nothing leads to 0.
        assert_eq!(g.preds(BlockId(3)), &[(BlockId(1), 30), (BlockId(2), 10)]);
        assert_eq!(g.pred_probs(BlockId(3)), &[1.0, 1.0]);
        assert!(g.pred_probs(BlockId(0)).is_empty());
        // A zero-weight edge out of a block with no taken successors.
        let z = DynCfg::new(vec![1, 1], vec![1.0; 2], [((0, 1), 0)]);
        assert_eq!(z.pred_probs(BlockId(1)), &[0.0]);
        for b in (0..4).map(BlockId) {
            assert_eq!(g.pred_probs(b).len(), g.preds(b).len());
        }
    }

    #[test]
    fn live_blocks_skips_unexecuted() {
        let g = DynCfg::new(vec![1, 0, 2], vec![1.0; 3], []);
        let live: Vec<_> = g.live_blocks().map(|b| b.0).collect();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn bad_edge_panics() {
        let _ = DynCfg::new(vec![1, 1], vec![1.0, 1.0], [((0, 9), 1)]);
    }

    #[test]
    fn content_digest_tracks_observable_state() {
        let g = simple();
        assert_eq!(g.content_digest(), simple().content_digest());
        // One edge weight differs.
        let edges = [((0, 1), 30), ((0, 2), 10), ((1, 3), 30), ((2, 3), 11)];
        let h = DynCfg::new(vec![40, 30, 10, 40], vec![4.0, 5.0, 6.0, 7.0], edges);
        assert_ne!(g.content_digest(), h.content_digest());
    }
}
