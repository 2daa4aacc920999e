//! Differential test of the timely-window search.
//!
//! [`WindowSearch`] (dense epoch-stamped settled set, reused heap,
//! precomputed edge probabilities) must return bit-identical candidates to
//! a straightforward reference: the same bounded Dijkstra on path
//! probability with a `HashMap` settled set and an edge probability
//! recomputed from the successor list on every relaxation. Inputs are
//! seeded random dynamic CFGs (loops, self-edges, zero-weight edges, tied
//! probabilities, unreachable targets, small and large expansion caps,
//! windows with `min > max`) and the nine applications' test-scale
//! profiles. One `WindowSearch` is reused across CFGs of different sizes
//! and across the wrap of its epoch counter, so a stale stamp shows up as
//! a divergence.
//!
//! The planners read a `(min, max)` window as a [`Candidates`] view of the
//! `(0, max)` search. Every such view must equal the direct `(min, max)`
//! search, element by element and in order, empty views included: on the
//! random CFGs at random minimums, and through the profile's memo at the
//! nine windows of Fig. 18 on the nine applications.

use ispy_harness::figures::fig18;
use ispy_harness::Scale;
use ispy_profile::window::{Candidates, SiteCandidate, WindowSearch, MAX_SEARCH_NODES};
use ispy_profile::{profile, DynCfg, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::rng::Pcg32;
use ispy_trace::{apps, BlockId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Reference edge probability: `from`'s taken count to `to` over the sum
/// of its successors' taken counts.
fn edge_prob(cfg: &DynCfg, from: BlockId, to: BlockId) -> f64 {
    let succs = cfg.succs(from);
    let total: u64 = succs.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return 0.0;
    }
    let w = succs.iter().find(|&&(b, _)| b == to).map_or(0, |&(_, w)| w);
    w as f64 / total as f64
}

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

/// The reference search.
fn reference(
    cfg: &DynCfg,
    target: BlockId,
    min_cycles: u32,
    max_cycles: u32,
    max_nodes: usize,
) -> Vec<SiteCandidate> {
    let mut best: HashMap<u32, Node> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut out = Vec::new();
    heap.push(Node { prob: 1.0, cycles: 0.0, blocks: 0, block: target });
    let mut expanded = 0usize;
    while let Some(node) = heap.pop() {
        match best.get(&node.block.0) {
            Some(settled) if settled.prob >= node.prob => continue,
            _ => {}
        }
        best.insert(node.block.0, node);
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
        }
        if node.cycles > f64::from(max_cycles) {
            continue;
        }
        for &(pred, _) in cfg.preds(node.block) {
            let e = edge_prob(cfg, pred, node.block);
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
            let dominated = best.get(&pred.0).is_some_and(|s| s.prob >= cand.prob);
            if !dominated {
                heap.push(cand);
            }
        }
    }
    out.sort_by(|a, b| {
        b.reach_prob
            .partial_cmp(&a.reach_prob)
            .unwrap_or(Ordering::Equal)
            .then(a.block.0.cmp(&b.block.0))
    });
    out
}

/// The first difference between two candidate lists (bit-exact on the
/// floating-point fields), or `None` when they are identical.
fn first_difference(got: &[SiteCandidate], want: &[SiteCandidate]) -> Option<String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let field = if g.block != w.block {
            format!("block {} vs {}", g.block.0, w.block.0)
        } else if g.reach_prob.to_bits() != w.reach_prob.to_bits() {
            format!("reach_prob {:e} vs {:e}", g.reach_prob, w.reach_prob)
        } else if g.cycles.to_bits() != w.cycles.to_bits() {
            format!("cycles {:e} vs {:e}", g.cycles, w.cycles)
        } else if g.blocks != w.blocks {
            format!("blocks {} vs {}", g.blocks, w.blocks)
        } else {
            continue;
        };
        return Some(format!("index {i}: {field} (got vs reference)"));
    }
    (got.len() != want.len())
        .then(|| format!("length {} vs {} (got vs reference)", got.len(), want.len()))
}

/// One search through `search` and through the reference; panics with the
/// first difference and the query that produced it.
fn check(
    search: &mut WindowSearch,
    cfg: &DynCfg,
    target: BlockId,
    window: (u32, u32, usize),
    label: &str,
) {
    let (min, max, cap) = window;
    let got = search.candidates(cfg, target, min, max, cap);
    let want = reference(cfg, target, min, max, cap);
    if let Some(diff) = first_difference(&got, &want) {
        panic!("{label}: target {} window ({min}, {max}, cap {cap}): {diff}", target.0);
    }
}

/// Checks every `mins` view of the `(0, max)` search against the direct
/// `(min, max)` search; returns how many views were empty.
fn check_views(
    search: &mut WindowSearch,
    cfg: &DynCfg,
    target: BlockId,
    (max, cap): (u32, usize),
    mins: &[u32],
    label: &str,
) -> usize {
    let all = search.candidates(cfg, target, 0, max, cap);
    let mut empty = 0;
    for &min in mins {
        let view = Candidates::new(&all, min);
        let got: Vec<SiteCandidate> = view.iter().copied().collect();
        let want = search.candidates(cfg, target, min, max, cap);
        if let Some(diff) = first_difference(&got, &want) {
            panic!("{label}: target {} view ({min}, {max}, cap {cap}): {diff}", target.0);
        }
        for (i, c) in view.indexed() {
            assert_eq!(all[i], *c, "{label}: view index {i} does not point at its candidate");
        }
        assert_eq!(view.is_empty(), want.is_empty());
        empty += usize::from(want.is_empty());
    }
    empty
}

/// A random dynamic CFG of `n` blocks. Weights and cycle costs come from
/// small sets so probabilities and distances tie often; edges may be
/// self-loops, back edges or zero-weight, and some blocks get no
/// predecessors at all.
fn random_cfg(rng: &mut Pcg32, n: u32) -> DynCfg {
    const CYCLES: [f64; 7] = [0.0, 1.0, 5.0, 10.0, 13.5, 27.0, 40.0];
    const WEIGHTS: [u64; 6] = [0, 1, 1, 2, 3, 10];
    let exec = (0..n).map(|_| rng.below(4) * rng.below(50)).collect();
    let avg_cycles = (0..n)
        .map(|_| {
            if rng.chance(0.2) {
                rng.f64() * 60.0
            } else {
                CYCLES[rng.below(CYCLES.len() as u64) as usize]
            }
        })
        .collect();
    let mut edges: HashMap<(u32, u32), u64> = HashMap::new();
    let fanout = 1 + rng.below(4) as u32;
    for from in 0..n {
        for _ in 0..rng.below(u64::from(fanout) + 1) {
            let to = if rng.chance(0.6) && from + 1 < n {
                from + 1 + rng.below(u64::from((n - from - 1).min(3))) as u32
            } else {
                rng.below(u64::from(n)) as u32
            };
            let w = if rng.chance(0.1) {
                rng.below(1000)
            } else {
                WEIGHTS[rng.below(WEIGHTS.len() as u64) as usize]
            };
            edges.insert((from, to), w);
        }
    }
    let mut edges: Vec<_> = edges.into_iter().collect();
    edges.sort_unstable();
    DynCfg::new(exec, avg_cycles, edges)
}

/// A random search window: an expansion cap in 1..=4096 (often tiny), and
/// a cycle range that is occasionally empty (`min > max`).
fn random_window(rng: &mut Pcg32) -> (u32, u32, usize) {
    let cap = match rng.below(4) {
        0 => 1 + rng.below(4) as usize,
        1 => 1 + rng.below(64) as usize,
        2 => 4096,
        _ => 1 + rng.below(4096) as usize,
    };
    let a = rng.below(120) as u32;
    let b = rng.below(240) as u32;
    let (min, max) = if rng.chance(0.15) { (a.max(b), a.min(b)) } else { (a.min(b), a.max(b)) };
    (min, max, cap)
}

#[test]
fn random_cfgs_match_the_reference() {
    let mut rng = Pcg32::seed_from_u64(0x5eed_0021);
    let mut search = WindowSearch::new();
    for round in 0..400 {
        // Sizes go up and down, so the reused arrays are both grown and
        // larger than the CFG at hand.
        let n = match round % 4 {
            0 => 1 + rng.below(8) as u32,
            1 => 1 + rng.below(300) as u32,
            2 => 1 + rng.below(40) as u32,
            _ => 1 + rng.below(120) as u32,
        };
        let cfg = random_cfg(&mut rng, n);
        for _ in 0..8 {
            let target = BlockId(rng.below(u64::from(n)) as u32);
            let window = random_window(&mut rng);
            check(&mut search, &cfg, target, window, &format!("random round {round} (n={n})"));
        }
        // Blocks nothing leads to: the search settles only the target.
        if let Some(orphan) = (0..n).map(BlockId).find(|&b| cfg.preds(b).is_empty()) {
            check(&mut search, &cfg, orphan, (0, 200, 4096), &format!("orphan, round {round}"));
        }
    }
}

#[test]
fn reuse_across_the_epoch_wrap_matches_the_reference() {
    let mut rng = Pcg32::seed_from_u64(0xe90c);
    // A few searches before the counter wraps and many after it.
    let mut search = WindowSearch::with_epoch(u32::MAX - 3);
    for round in 0..40 {
        let n = 1 + rng.below(if round % 2 == 0 { 200 } else { 20 }) as u32;
        let cfg = random_cfg(&mut rng, n);
        for _ in 0..3 {
            let target = BlockId(rng.below(u64::from(n)) as u32);
            let window = random_window(&mut rng);
            check(&mut search, &cfg, target, window, &format!("wrap round {round} (n={n})"));
        }
    }
}

#[test]
fn nine_app_profiles_match_the_reference() {
    let scale = Scale::test();
    // One search state across all nine apps' CFGs, which differ in size.
    let mut search = WindowSearch::new();
    for model in apps::all() {
        let model = model.scaled_down(scale.shrink);
        let name = model.name();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), scale.events);
        let p = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let targets: Vec<BlockId> =
            p.misses.lines_by_count().into_iter().filter_map(|(_, s)| s.dominant_block()).collect();
        assert!(!targets.is_empty(), "{name}: no miss targets");
        for &t in &targets {
            // The planners' window, and a narrow one with a small cap.
            check(&mut search, &p.cfg, t, (27, 200, 4096), name);
            check(&mut search, &p.cfg, t, (5, 60, 16), name);
        }
    }
}

#[test]
fn views_of_random_cfgs_match_direct_searches() {
    let mut rng = Pcg32::seed_from_u64(0x0f1e_7e55);
    let mut search = WindowSearch::new();
    let (mut views, mut empty) = (0, 0);
    for round in 0..300 {
        let n = 1 + rng.below(if round % 3 == 0 { 300 } else { 60 }) as u32;
        let cfg = random_cfg(&mut rng, n);
        for _ in 0..6 {
            let target = BlockId(rng.below(u64::from(n)) as u32);
            let (min, max, cap) = random_window(&mut rng);
            // The drawn minimum (sometimes above `max`), zero, one past
            // `max`, and two more at random.
            let mins = [min, 0, max + 1, rng.below(240) as u32, rng.below(60) as u32];
            let label = format!("random round {round} (n={n})");
            empty += check_views(&mut search, &cfg, target, (max, cap), &mins, &label);
            views += mins.len();
        }
    }
    assert!(empty > 0 && empty < views, "{empty} of {views} views empty");
}

#[test]
fn fig18_views_of_nine_app_profiles_match_direct_searches() {
    let scale = Scale::test();
    // Fig. 18's nine windows: each minimum with the default max, and the
    // default minimum with each max.
    let windows: Vec<(u32, u32)> = fig18::MIN_SWEEP
        .iter()
        .map(|&min| (min, 200))
        .chain(fig18::MAX_SWEEP.iter().map(|&max| (27, max)))
        .collect();
    let mut search = WindowSearch::new();
    let (mut views, mut empty) = (0, 0);
    for model in apps::all() {
        let model = model.scaled_down(scale.shrink);
        let name = model.name();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), scale.events);
        let p = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let targets: Vec<BlockId> =
            p.misses.lines_by_count().into_iter().filter_map(|(_, s)| s.dominant_block()).collect();
        for &(min, max) in &windows {
            // Through the profile's memo, as the planners read it.
            let table = p.cfg.window_table(min, max);
            for &t in &targets {
                let got: Vec<SiteCandidate> = table.candidates(t).iter().copied().collect();
                let want = search.candidates(&p.cfg, t, min, max, MAX_SEARCH_NODES);
                if let Some(diff) = first_difference(&got, &want) {
                    panic!("{name}: target {} window ({min}, {max}): {diff}", t.0);
                }
                views += 1;
                empty += usize::from(want.is_empty());
            }
        }
    }
    assert!(empty > 0 && empty < views, "{empty} of {views} views empty");
}
