//! Prefetch-window analysis: finding timely injection sites (§II-B, §IV).
//!
//! For each missing block the planners walk the dynamic CFG *backwards*,
//! accumulating expected cycles from per-block profile costs (the LBR cycle
//! information the paper uses instead of AsmDB's global-IPC estimate), and
//! keep predecessors whose distance falls inside the prefetch window.
//! The walk is a bounded Dijkstra on path probability, so each candidate
//! carries the probability that executing it leads to the miss — the
//! complement of the paper's *fan-out*.
//!
//! The search reads nothing but the CFG, so every planner over one profile
//! (I-SPY, AsmDB, the spatial baselines) shares one search per (target,
//! max cycles) through the memo tables [`DynCfg::window_table`] hands out.
//! The minimum only chooses which settled blocks the search outputs, so a
//! `(min, max)` window reads the `(0, max)` search through a
//! [`Candidates`] view that skips the sites closer than `min`. All of them
//! search with the same expansion cap, [`MAX_SEARCH_NODES`].

use crate::dyncfg::DynCfg;
use ispy_trace::BlockId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, OnceLock};

/// Node-expansion cap of every planner's window search (keeps the per-miss
/// analysis bounded, O(n log n)-ish as in the paper).
pub const MAX_SEARCH_NODES: usize = 4096;

/// A candidate injection site for one miss target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteCandidate {
    /// The candidate block.
    pub block: BlockId,
    /// Probability that executing this block leads to the miss block along
    /// the maximum-probability path (`1 - fan-out`).
    pub reach_prob: f64,
    /// Expected cycles from entering this block until the miss block begins
    /// fetching.
    pub cycles: f64,
    /// Path length in blocks (used to convert the window into a trace-scan
    /// horizon).
    pub blocks: u32,
}

impl SiteCandidate {
    /// The paper's fan-out: share of paths from this site that do *not*
    /// lead to the miss.
    pub fn fanout(&self) -> f64 {
        1.0 - self.reach_prob
    }
}

/// Heap node ordered by probability (max-heap via total order on f64 bits).
#[derive(Debug, Clone, Copy)]
struct Node {
    prob: f64,
    cycles: f64,
    blocks: u32,
    block: BlockId,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.prob == other.prob && self.block == other.block
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.block.0.cmp(&other.block.0))
    }
}

/// The timely-window search, with its working state kept for reuse.
///
/// The settled set is dense: a per-block epoch stamp plus the settled
/// probability, valid where the stamp equals the current search's epoch
/// (the idiom of the profiler's per-sample block stamps). Starting a search
/// bumps the epoch instead of clearing anything, so one `WindowSearch`
/// serves every target of a plan at the cost of its first allocation.
/// Edge probabilities come precomputed from [`DynCfg::pred_probs`].
#[derive(Debug, Default)]
pub struct WindowSearch {
    /// Per-block epoch of the search that last settled the block.
    stamps: Vec<u32>,
    /// Per-block settled probability; meaningful where the stamp is current.
    best: Vec<f64>,
    epoch: u32,
    heap: BinaryHeap<Node>,
}

impl WindowSearch {
    /// Creates an empty search state (arrays grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty search state whose epoch counter starts at `epoch`,
    /// so tests can drive the counter across its wrap.
    #[doc(hidden)]
    pub fn with_epoch(epoch: u32) -> Self {
        WindowSearch { epoch, ..Self::default() }
    }

    /// Finds all candidate injection sites for a miss in `target`, i.e.
    /// dynamic predecessors whose expected distance lies within
    /// `[min_cycles, max_cycles]`.
    ///
    /// The search is a bounded Dijkstra on path probability: it settles
    /// each block once (highest-probability first) and stops after
    /// `max_nodes` expansions, keeping the per-miss cost bounded.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_profile::window::WindowSearch;
    /// use ispy_profile::DynCfg;
    /// use ispy_trace::BlockId;
    ///
    /// // Chain 0 -> 1 -> 2, 10 cycles per block: block 0 is ~20 cycles
    /// // ahead of block 2's fetch.
    /// let edges = [((0, 1), 10), ((1, 2), 10)];
    /// let cfg = DynCfg::new(vec![10, 10, 10], vec![10.0, 10.0, 10.0], edges);
    /// let sites = WindowSearch::new().candidates(&cfg, BlockId(2), 15, 100, 64);
    /// assert_eq!(sites.len(), 1);
    /// assert_eq!(sites[0].block, BlockId(0));
    /// ```
    pub fn candidates(
        &mut self,
        cfg: &DynCfg,
        target: BlockId,
        min_cycles: u32,
        max_cycles: u32,
        max_nodes: usize,
    ) -> Vec<SiteCandidate> {
        let n = cfg.num_blocks();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.best.resize(n, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let WindowSearch { stamps, best, heap, .. } = self;
        heap.clear();

        let mut out = Vec::new();
        heap.push(Node { prob: 1.0, cycles: 0.0, blocks: 0, block: target });
        let mut expanded = 0usize;
        let mut rejected_untimely = 0u64;

        while let Some(node) = heap.pop() {
            // Settled check: only the best (first-popped) entry per block
            // counts.
            let i = node.block.index();
            if stamps[i] == epoch && best[i] >= node.prob {
                continue;
            }
            stamps[i] = epoch;
            best[i] = node.prob;
            expanded += 1;
            if expanded > max_nodes {
                break;
            }

            if node.block != target
                && node.cycles >= f64::from(min_cycles)
                && node.cycles <= f64::from(max_cycles)
            {
                out.push(SiteCandidate {
                    block: node.block,
                    reach_prob: node.prob,
                    cycles: node.cycles,
                    blocks: node.blocks,
                });
            } else if node.block != target {
                // Settled predecessor outside the prefetch window: too close
                // to hide the latency, or too far to trust the path estimate.
                rejected_untimely += 1;
            }
            // Expanding beyond max_cycles cannot produce in-window candidates
            // (cycle costs are non-negative along predecessors).
            if node.cycles > f64::from(max_cycles) {
                continue;
            }
            for (&(pred, _), &e) in cfg.preds(node.block).iter().zip(cfg.pred_probs(node.block)) {
                if e <= 0.0 {
                    continue;
                }
                let cand = Node {
                    prob: node.prob * e,
                    cycles: node.cycles + cfg.avg_cycles(pred),
                    blocks: node.blocks + 1,
                    block: pred,
                };
                if cand.prob < 1e-6 {
                    continue;
                }
                let p = pred.index();
                let dominated = stamps[p] == epoch && best[p] >= cand.prob;
                if !dominated {
                    heap.push(cand);
                }
            }
        }

        // Deterministic order: highest reach probability first, then block
        // id.
        out.sort_by(|a, b| {
            b.reach_prob
                .partial_cmp(&a.reach_prob)
                .unwrap_or(Ordering::Equal)
                .then(a.block.0.cmp(&b.block.0))
        });
        // One registry touch per search (not per node) keeps the hot loop
        // clean.
        let tele = ispy_telemetry::global();
        tele.add("core.window.searches", 1);
        tele.add("core.window.nodes_expanded", expanded as u64);
        tele.add("core.window.candidates_found", out.len() as u64);
        tele.add("core.window.rejected_untimely", rejected_untimely);
        out
    }
}

/// One max-cycles bound's memoized `(0, max)` searches: slot `b` holds the
/// candidates of target block `b`, filled on first request and stored at
/// their exact size.
#[derive(Debug, Clone)]
struct Slots {
    max_cycles: u32,
    found: Vec<OnceLock<Arc<[SiteCandidate]>>>,
}

/// A [`DynCfg`]'s window-candidate memo: one dense [`Slots`] table per
/// max-cycles bound its planners asked for, plus the search state misses
/// reuse.
///
/// A slot is filled once: concurrent requests for it wait for the search
/// in flight, and searches of different slots take turns on the one search
/// state, so the `core.window.*` counters count each (target, max) once
/// whatever the schedule. A clone keeps the entries (they are a function of
/// the CFG alone, and a clone's CFG is the same) but starts its own tables
/// and search state.
#[derive(Debug, Default)]
pub(crate) struct WindowMemo {
    search: Mutex<WindowSearch>,
    tables: Mutex<Vec<Arc<Slots>>>,
}

impl WindowMemo {
    /// The `(min_cycles, max_cycles)` window on `cfg`: a view of the
    /// `max_cycles` table, created empty on first request.
    pub(crate) fn table<'a>(
        &'a self,
        cfg: &'a DynCfg,
        min_cycles: u32,
        max_cycles: u32,
    ) -> WindowTable<'a> {
        let mut tables = self.tables.lock().expect("window memo lock");
        let slots = match tables.iter().find(|t| t.max_cycles == max_cycles) {
            Some(t) => Arc::clone(t),
            None => {
                let found = (0..cfg.num_blocks()).map(|_| OnceLock::new()).collect();
                tables.push(Arc::new(Slots { max_cycles, found }));
                Arc::clone(tables.last().expect("just pushed"))
            }
        };
        WindowTable { cfg, memo: self, slots, min_cycles }
    }
}

impl Clone for WindowMemo {
    fn clone(&self) -> Self {
        let tables = self.tables.lock().expect("window memo lock");
        let tables = tables.iter().map(|t| Arc::new(Slots::clone(t))).collect();
        WindowMemo { search: Mutex::default(), tables: Mutex::new(tables) }
    }
}

/// One window's searches on a [`DynCfg`] ([`DynCfg::window_table`]): a
/// planner fetches it once per plan, and each memoized target is then an
/// index into a dense per-block table of `(0, max)` searches.
#[derive(Debug)]
pub struct WindowTable<'a> {
    cfg: &'a DynCfg,
    memo: &'a WindowMemo,
    slots: Arc<Slots>,
    min_cycles: u32,
}

impl WindowTable<'_> {
    /// The timely-window candidates of a miss in `target`: the `(0, max)`
    /// search ([`WindowSearch::candidates`], capped at [`MAX_SEARCH_NODES`]
    /// expansions), run on first request, seen through this window's
    /// minimum.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a block of the CFG.
    pub fn candidates(&self, target: BlockId) -> Candidates<'_> {
        let all = self.slots.found[target.index()].get_or_init(|| {
            let mut search = self.memo.search.lock().expect("window search lock");
            let max_cycles = self.slots.max_cycles;
            search.candidates(self.cfg, target, 0, max_cycles, MAX_SEARCH_NODES).into()
        });
        Candidates::new(all, self.min_cycles)
    }
}

/// One target's `(min, max)` window candidates, read from its `(0, max)`
/// search: the same list, in the same order, without the sites fewer than
/// `min` cycles ahead.
///
/// [`WindowSearch::candidates`] reads its minimum only to choose which
/// settled blocks it outputs, so the view holds exactly what a `(min, max)`
/// search returns, and no filtered copy is made.
///
/// # Examples
///
/// ```
/// use ispy_profile::window::{Candidates, WindowSearch};
/// use ispy_profile::DynCfg;
/// use ispy_trace::BlockId;
///
/// // Chain 0 -> 1 -> 2 -> 3, 10 cycles per block.
/// let edges = [((0, 1), 10), ((1, 2), 10), ((2, 3), 10)];
/// let cfg = DynCfg::new(vec![10; 4], vec![10.0; 4], edges);
/// let all = WindowSearch::new().candidates(&cfg, BlockId(3), 0, 100, 64);
/// let view = Candidates::new(&all, 15);
/// let direct = WindowSearch::new().candidates(&cfg, BlockId(3), 15, 100, 64);
/// assert!(view.iter().eq(&direct));
/// assert_eq!(all.len(), 3);
/// assert_eq!(view.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Candidates<'a> {
    all: &'a [SiteCandidate],
    min_cycles: u32,
}

impl<'a> Candidates<'a> {
    /// The candidates of `all`, one `(0, max)` search's list, that lie at
    /// least `min_cycles` ahead of the target.
    pub fn new(all: &'a [SiteCandidate], min_cycles: u32) -> Self {
        Candidates { all, min_cycles }
    }

    /// The `(0, max)` list the view reads, which [`Candidates::indexed`]'s
    /// indices point into.
    pub fn unfiltered(self) -> &'a [SiteCandidate] {
        self.all
    }

    /// The view's candidates, in the search's order, each with its index
    /// in [`Candidates::unfiltered`].
    pub fn indexed(self) -> impl Iterator<Item = (usize, &'a SiteCandidate)> {
        let min = f64::from(self.min_cycles);
        self.all.iter().enumerate().filter(move |(_, c)| c.cycles >= min)
    }

    /// The view's candidates, in the search's order.
    pub fn iter(self) -> impl Iterator<Item = &'a SiteCandidate> {
        self.indexed().map(|(_, c)| c)
    }

    /// Whether no candidate lies inside the window.
    pub fn is_empty(self) -> bool {
        self.iter().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn search(
        cfg: &DynCfg,
        target: BlockId,
        min_cycles: u32,
        max_cycles: u32,
        max_nodes: usize,
    ) -> Vec<SiteCandidate> {
        WindowSearch::new().candidates(cfg, target, min_cycles, max_cycles, max_nodes)
    }

    fn chain_cfg(n: u32, cycles: f64) -> DynCfg {
        let mut edges = HashMap::new();
        for i in 0..n - 1 {
            edges.insert((i, i + 1), 100);
        }
        DynCfg::new(vec![100; n as usize], vec![cycles; n as usize], edges)
    }

    #[test]
    fn chain_distances() {
        // 10 blocks, 10 cycles each; target = block 9.
        let cfg = chain_cfg(10, 10.0);
        let sites = search(&cfg, BlockId(9), 25, 60, 1024);
        // Blocks at distance 30,40,50,60 cycles: blocks 6,5,4,3.
        let ids: Vec<u32> = sites.iter().map(|s| s.block.0).collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.contains(&6) && ids.contains(&3));
        assert!(!ids.contains(&7)); // 20 cycles: too close
        assert!(!ids.contains(&2)); // 70 cycles: too far
        for s in &sites {
            assert!((s.reach_prob - 1.0).abs() < 1e-9);
            assert_eq!(s.fanout(), 0.0);
        }
    }

    #[test]
    fn branch_probabilities_multiply() {
        // 0 -> 1 (75%), 0 -> 2 (25%); 1 -> 3, 2 -> 3; target 3.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 75);
        edges.insert((0, 2), 25);
        edges.insert((1, 3), 75);
        edges.insert((2, 3), 25);
        let cfg = DynCfg::new(vec![100, 75, 25, 100], vec![20.0; 4], edges);
        let sites = search(&cfg, BlockId(3), 10, 100, 1024);
        let s0 = sites.iter().find(|s| s.block == BlockId(0)).unwrap();
        // Both paths lead to 3, but max-path probability is via block 1.
        assert!((s0.reach_prob - 0.75).abs() < 1e-9);
        let s1 = sites.iter().find(|s| s.block == BlockId(1)).unwrap();
        assert!((s1.reach_prob - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_reflects_divergence() {
        // Site 0 branches to target (10 %) and elsewhere (90 %).
        let mut edges = HashMap::new();
        edges.insert((0, 1), 10);
        edges.insert((0, 2), 90);
        let cfg = DynCfg::new(vec![100, 10, 90], vec![30.0; 3], edges);
        let sites = search(&cfg, BlockId(1), 10, 100, 64);
        let s = sites.iter().find(|s| s.block == BlockId(0)).unwrap();
        assert!((s.fanout() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_when_no_predecessor_in_window() {
        let cfg = chain_cfg(3, 5.0); // total span 10 cycles
        let sites = search(&cfg, BlockId(2), 27, 200, 64);
        assert!(sites.is_empty());
    }

    #[test]
    fn node_cap_bounds_work() {
        let cfg = chain_cfg(200, 10.0);
        let sites = search(&cfg, BlockId(199), 27, 200, 8);
        // Cap of 8 expansions: the target and blocks 198..=192 settle, and
        // of those only 196..=192 (30..=70 cycles) sit in the window.
        let ids: Vec<u32> = sites.iter().map(|s| s.block.0).collect();
        assert_eq!(ids, vec![192, 193, 194, 195, 196]);
    }

    #[test]
    fn stamps_from_before_the_epoch_wrap_are_cleared() {
        let cfg = chain_cfg(10, 10.0);
        let want = search(&cfg, BlockId(9), 25, 60, 1024);
        // Every block carries a stamp from epoch 1 of the previous cycle,
        // settled at probability 1: reading it after the wrap would hide
        // every candidate.
        let mut s = WindowSearch::with_epoch(u32::MAX);
        s.stamps = vec![1; 10];
        s.best = vec![1.0; 10];
        assert_eq!(s.candidates(&cfg, BlockId(9), 25, 60, 1024), want);
        assert_eq!(s.epoch, 1);
        // A smaller CFG after a larger one reuses the longer arrays.
        let small = chain_cfg(4, 10.0);
        assert_eq!(
            s.candidates(&small, BlockId(3), 15, 40, 64),
            search(&small, BlockId(3), 15, 40, 64)
        );
    }

    #[test]
    fn loops_do_not_hang_the_search() {
        // 0 <-> 1 loop feeding 2.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 90);
        edges.insert((1, 0), 80);
        edges.insert((1, 2), 10);
        let cfg = DynCfg::new(vec![90, 90, 10], vec![15.0; 3], edges);
        let sites = search(&cfg, BlockId(2), 10, 200, 4096);
        assert!(!sites.is_empty());
    }

    #[test]
    fn memo_searches_each_key_once() {
        let cfg = chain_cfg(10, 10.0);
        let table = cfg.window_table(25, 60);
        let first = table.candidates(BlockId(9));
        assert!(first.iter().copied().eq(search(&cfg, BlockId(9), 25, 60, MAX_SEARCH_NODES)));
        // The view reads the (0, max) search, stored at its exact size.
        let all = search(&cfg, BlockId(9), 0, 60, MAX_SEARCH_NODES);
        assert_eq!(first.unfiltered(), all.as_slice());
        let same = |a: Candidates, b: Candidates| std::ptr::eq(a.unfiltered(), b.unfiltered());
        assert!(same(first, table.candidates(BlockId(9))));
        // Another minimum reads the same search; another max or target
        // does not.
        let closer = cfg.window_table(15, 60);
        assert!(same(first, closer.candidates(BlockId(9))));
        for (target, min, max) in [(8, 25, 60), (9, 25, 70)] {
            let other = cfg.window_table(min, max);
            let got = other.candidates(BlockId(target));
            assert!(!same(first, got));
            assert!(got.iter().copied().eq(search(
                &cfg,
                BlockId(target),
                min,
                max,
                MAX_SEARCH_NODES
            )));
        }
        // A clone keeps the searches already run, in tables of its own.
        let copy = cfg.clone();
        let copied = copy.window_table(25, 60);
        assert!(same(first, copied.candidates(BlockId(9))));
        let fresh = copied.candidates(BlockId(7));
        assert!(!same(fresh, table.candidates(BlockId(7))));
        assert_eq!(fresh.unfiltered(), table.candidates(BlockId(7)).unfiltered());
    }
}
