//! Prefetch-window analysis: finding timely injection sites (§II-B, §IV).
//!
//! For each missing block the planner walks the dynamic CFG *backwards*,
//! accumulating expected cycles from per-block profile costs (the LBR cycle
//! information the paper uses instead of AsmDB's global-IPC estimate), and
//! keeps predecessors whose distance falls inside the prefetch window.
//! The walk is a bounded Dijkstra on path probability, so each candidate
//! carries the probability that executing it leads to the miss — the
//! complement of the paper's *fan-out*.

use ispy_profile::DynCfg;
use ispy_trace::BlockId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// use ispy_core::window::WindowSearch;
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

/// Picks the planner's injection site: the most-reachable candidate,
/// tie-broken toward more frequently executed blocks (better amortization of
/// the injected instruction).
pub fn select_site(cfg: &DynCfg, candidates: &[SiteCandidate]) -> Option<SiteCandidate> {
    candidates.iter().copied().max_by(|a, b| {
        a.reach_prob
            .partial_cmp(&b.reach_prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| cfg.exec_count(a.block).cmp(&cfg.exec_count(b.block)))
            .then_with(|| b.block.0.cmp(&a.block.0))
    })
}

/// A site chosen by [`select_covering_sites`], with its coverage/precision
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedSite {
    /// The underlying window candidate.
    pub cand: SiteCandidate,
    /// Fraction of the line's sampled misses this site preceded (coverage).
    pub presence_frac: f64,
    /// `P(miss | site executes)` estimate: presence / site executions.
    pub precision: f64,
    /// This site is too imprecise to fire unconditionally; it is only kept
    /// if context discovery finds a strong miss context (§III-A).
    pub needs_ctx: bool,
}

/// Selection floors for [`select_covering_sites`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionPolicy {
    /// Maximum sites per miss line.
    pub max_sites: usize,
    /// Minimum coverage fraction for a site to be worth its footprint.
    pub min_presence: f64,
    /// Precision at or above which a site may fire unconditionally.
    pub min_unconditional_precision: f64,
    /// Precision floor below which a site is useless even with a context
    /// (the injected op would execute far too often relative to the miss).
    pub min_conditional_precision: f64,
    /// Whether conditional (needs-context) sites are allowed at all.
    pub allow_conditional: bool,
}

/// Coverage- and precision-driven multi-site selection (I-SPY's policy).
///
/// Candidates are ranked by how often they actually *preceded* the miss in
/// the profiled LBR histories (`presence`, out of `miss_count` sampled
/// misses) — instance coverage — preferring closer sites on ties. Sites are
/// taken greedily until the summed presence fractions pass 1.3 or
/// `max_sites` is reached. A site whose precision (`presence /
/// exec_count`) is too low to fire unconditionally is marked `needs_ctx`:
/// the planner keeps it only if context discovery succeeds. This is the
/// §II-C trade-off: high-fan-out sites buy coverage but need the run-time
/// condition to stay accurate.
pub fn select_covering_sites(
    candidates: &[SiteCandidate],
    presence: impl Fn(BlockId) -> u64,
    exec_count: impl Fn(BlockId) -> u64,
    miss_count: u64,
    policy: &SelectionPolicy,
) -> Vec<SelectedSite> {
    if miss_count == 0 || policy.max_sites == 0 {
        return Vec::new();
    }
    let frac = |pres: u64| pres as f64 / miss_count as f64;
    // Candidates under the coverage floor can never be chosen (the fraction
    // is monotone in presence, so they would all sort after the last site
    // that passes it): drop them before the sort.
    let mut ranked: Vec<(u64, SiteCandidate)> = candidates
        .iter()
        .map(|&c| (presence(c.block), c))
        .filter(|&(pres, _)| frac(pres).partial_cmp(&policy.min_presence) != Some(Ordering::Less))
        .collect();
    // Highest coverage first; among equals prefer *closer* sites — the
    // prefetched line spends less time exposed to eviction before use.
    ranked.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.cycles.partial_cmp(&b.1.cycles).unwrap_or(Ordering::Equal))
            .then_with(|| a.1.block.0.cmp(&b.1.block.0))
    });
    let mut chosen: Vec<SelectedSite> = Vec::new();
    let mut cum = 0.0;
    for (pres, cand) in ranked {
        let presence_frac = frac(pres);
        let execs = exec_count(cand.block).max(1);
        let precision = (pres as f64 / execs as f64).min(1.0);
        let needs_ctx = precision < policy.min_unconditional_precision;
        if needs_ctx && (!policy.allow_conditional || precision < policy.min_conditional_precision)
        {
            continue;
        }
        chosen.push(SelectedSite { cand, presence_frac, precision, needs_ctx });
        cum += presence_frac;
        if cum >= 1.3 || chosen.len() >= policy.max_sites {
            break;
        }
    }
    chosen
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
    fn select_site_prefers_reach_probability() {
        let a = SiteCandidate { block: BlockId(1), reach_prob: 0.5, cycles: 50.0, blocks: 3 };
        let b = SiteCandidate { block: BlockId(2), reach_prob: 0.9, cycles: 80.0, blocks: 5 };
        let cfg = chain_cfg(4, 10.0);
        assert_eq!(select_site(&cfg, &[a, b]).unwrap().block, BlockId(2));
        assert!(select_site(&cfg, &[]).is_none());
    }

    fn policy() -> SelectionPolicy {
        SelectionPolicy {
            max_sites: 3,
            min_presence: 0.10,
            min_unconditional_precision: 0.25,
            min_conditional_precision: 0.02,
            allow_conditional: true,
        }
    }

    #[test]
    fn covering_sites_rank_by_presence() {
        let mk = |id: u32, cycles: f64| SiteCandidate {
            block: BlockId(id),
            reach_prob: 0.5,
            cycles,
            blocks: 4,
        };
        let cands = [mk(1, 50.0), mk(2, 100.0), mk(3, 40.0)];
        // Presence: block 2 precedes 90 of 100 misses, block 1 precedes 60,
        // block 3 precedes 5 (below the 10 % floor).
        let presence = |b: BlockId| match b.0 {
            1 => 60,
            2 => 90,
            _ => 5,
        };
        let chosen = select_covering_sites(&cands, presence, |_| 300, 100, &policy());
        let ids: Vec<u32> = chosen.iter().map(|c| c.cand.block.0).collect();
        // Block 2 first (highest presence); cumulative 0.9 + 0.6 >= 1.3
        // stops after block 1; block 3 is below the floor anyway.
        assert_eq!(ids, vec![2, 1]);
        // Precision 90/300 = 0.3 clears the 0.25 unconditional floor;
        // 60/300 = 0.2 does not, so block 1 needs a context.
        assert!(!chosen[0].needs_ctx);
        assert!(chosen[1].needs_ctx);
    }

    #[test]
    fn covering_sites_respect_caps() {
        let mk = |id: u32| SiteCandidate {
            block: BlockId(id),
            reach_prob: 0.5,
            cycles: 50.0,
            blocks: 4,
        };
        let cands: Vec<SiteCandidate> = (0..10).map(mk).collect();
        let p = SelectionPolicy { max_sites: 2, ..policy() };
        let chosen = select_covering_sites(&cands, |_| 20, |_| 40, 100, &p);
        assert_eq!(chosen.len(), 2);
        assert!(select_covering_sites(&cands, |_| 20, |_| 40, 0, &p).is_empty());
        assert!(select_covering_sites(&cands, |_| 5, |_| 40, 100, &p).is_empty());
    }

    #[test]
    fn hot_imprecise_sites_are_skipped() {
        let cand = SiteCandidate { block: BlockId(1), reach_prob: 0.5, cycles: 50.0, blocks: 4 };
        // Site precedes all 100 misses but executes 100 000 times: precision
        // 0.001 is below even the conditional floor -> skipped entirely.
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 100_000, 100, &policy());
        assert!(chosen.is_empty());
        // Without conditional sites allowed, a 0.1-precision site also goes.
        let p = SelectionPolicy { allow_conditional: false, ..policy() };
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 1_000, 100, &p);
        assert!(chosen.is_empty());
        // With conditional allowed, the 0.1-precision site is kept but
        // flagged as needing a context.
        let chosen = select_covering_sites(&[cand], |_| 100, |_| 1_000, 100, &policy());
        assert_eq!(chosen.len(), 1);
        assert!(chosen[0].needs_ctx);
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
}
