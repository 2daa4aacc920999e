//! The weighted dynamic control-flow graph (paper Fig. 2).

use crate::digest::ContentHasher;
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
        DynCfg { exec, avg_cycles, succs, preds }
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

    /// Probability of taking the edge `from -> to` given `from` executed.
    pub fn edge_prob(&self, from: BlockId, to: BlockId) -> f64 {
        let total: u64 = self.succs[from.index()].iter().map(|&(_, w)| w).sum();
        if total == 0 {
            return 0.0;
        }
        let w = self.succs[from.index()].iter().find(|&&(b, _)| b == to).map_or(0, |&(_, w)| w);
        w as f64 / total as f64
    }

    /// A stable content digest of the whole CFG: execution counts, average
    /// cycle costs (bit-exact), and the weighted edge set. Two CFGs digest
    /// equal iff every accessor would answer identically, so the planner's
    /// candidate cache and per-line memos can key on this instead of
    /// carrying explicit invalidation hooks.
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

    /// Blocks that were executed at least once.
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
        assert!((g.edge_prob(BlockId(0), BlockId(1)) - 0.75).abs() < 1e-12);
        assert!((g.edge_prob(BlockId(0), BlockId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(g.edge_prob(BlockId(0), BlockId(3)), 0.0);
        assert_eq!(g.edge_prob(BlockId(3), BlockId(0)), 0.0);
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
