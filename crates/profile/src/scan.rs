//! Joint context statistics: exact conditional probabilities over a trace.
//!
//! Context discovery (§III-A) needs `P(miss at line m | predictor blocks
//! present in the LBR when the injection site executes)`. The paper
//! estimates this from sampled profiles; since the reproduction has the full
//! recorded trace, it computes the statistic *exactly* in one linear pass:
//! for every occurrence of an injection site, record which candidate
//! predictor blocks sit in the rolling 32-block window (a presence mask) and
//! whether a sampled miss of the target line follows within a horizon.
//!
//! Subset probabilities are recovered by superset aggregation: a candidate
//! subset `S` is "present" at an occurrence whose mask is `M` iff `S ⊆ M`,
//! so `count(S) = Σ_{M ⊇ S} count(M)`.

use ispy_trace::{BlockId, Trace};

/// Maximum number of candidate predictor blocks per query (masks are `u16`
/// indices into dense arrays, so 8 keeps them tiny).
pub const MAX_CANDIDATES: usize = 8;

/// One question: at `site`, over candidate predictor blocks, how often does
/// one of `target_positions` (ascending trace indices — e.g. the sampled
/// misses of a line, or the executions of a block) follow within
/// `horizon_blocks`?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointQuery {
    /// The candidate injection site.
    pub site: BlockId,
    /// Ascending trace positions of the targeted event.
    pub target_positions: Vec<u32>,
    /// Candidate predictor blocks (≤ [`MAX_CANDIDATES`]).
    pub candidates: Vec<BlockId>,
    /// Look-ahead horizon in block events.
    pub horizon_blocks: u32,
}

/// Dense per-mask counts answering a [`JointQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointCounts {
    /// `occurrences[mask]`: site executions whose window presence mask was
    /// exactly `mask`.
    pub occurrences: Vec<u64>,
    /// `hits[mask]`: of those, how many were followed by a miss of the
    /// target line within the horizon.
    pub hits: Vec<u64>,
}

impl JointCounts {
    fn new(n_candidates: usize) -> Self {
        let size = 1usize << n_candidates;
        JointCounts { occurrences: vec![0; size], hits: vec![0; size] }
    }

    /// Total site executions observed.
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences.iter().sum()
    }

    /// Total site executions followed by the miss.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Occurrences whose mask is a superset of `subset` — i.e., executions
    /// where every block of `subset` was present.
    pub fn occurrences_with(&self, subset: u16) -> u64 {
        self.superset_sum(&self.occurrences, subset)
    }

    /// Hits whose mask is a superset of `subset`.
    pub fn hits_with(&self, subset: u16) -> u64 {
        self.superset_sum(&self.hits, subset)
    }

    /// `P(miss | subset present at site)`, or `None` with no support.
    pub fn conditional_probability(&self, subset: u16) -> Option<f64> {
        let occ = self.occurrences_with(subset);
        if occ == 0 {
            None
        } else {
            Some(self.hits_with(subset) as f64 / occ as f64)
        }
    }

    fn superset_sum(&self, arr: &[u64], subset: u16) -> u64 {
        let subset = subset as usize;
        arr.iter().enumerate().filter(|&(mask, _)| mask & subset == subset).map(|(_, &c)| c).sum()
    }
}

/// Answers all `queries` in one linear pass over `trace`.
///
/// Target positions typically come from the profiling pass (sampled miss
/// positions), so "followed by the target" means a *sampled* miss —
/// consistent with what the planner optimizes for. Passing a block's
/// execution positions instead yields path-based reach/fan-out statistics.
///
/// # Panics
///
/// Panics if a query has more than [`MAX_CANDIDATES`] candidates.
pub fn scan_joint(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
    for q in queries {
        assert!(
            q.candidates.len() <= MAX_CANDIDATES,
            "at most {MAX_CANDIDATES} candidates per query"
        );
    }
    let mut results: Vec<JointCounts> =
        queries.iter().map(|q| JointCounts::new(q.candidates.len())).collect();

    // Only sites and candidates are ever looked up, so dense per-block
    // arrays sized by the largest of those ids suffice; trace blocks beyond
    // them are skipped.
    let size = queries
        .iter()
        .flat_map(|q| std::iter::once(q.site).chain(q.candidates.iter().copied()))
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0);
    // Queries by site, for O(1) dispatch per trace event.
    let mut by_site: Vec<Vec<usize>> = vec![Vec::new(); size];
    for (i, q) in queries.iter().enumerate() {
        by_site[q.site.index()].push(i);
    }
    // `last[b]`: 1 + the most recent position of `b` so far (0 = never).
    // `b` is in the LBR window at position `idx` iff it occurred within the
    // last `lbr_depth` events, the current one included.
    let mut last: Vec<usize> = vec![0; size];
    // Per-query cursor into `target_positions`: site occurrences arrive in
    // trace order, so each query's next target only ever moves forward.
    let mut cursor: Vec<usize> = vec![0; queries.len()];

    for (idx, block) in trace.iter().enumerate() {
        let b = block.index();
        if b >= size {
            continue;
        }
        last[b] = idx + 1;
        for &qi in &by_site[b] {
            let q = &queries[qi];
            let mut mask = 0u16;
            for (ci, cand) in q.candidates.iter().enumerate() {
                let seen = last[cand.index()];
                if seen != 0 && idx + 1 - seen < lbr_depth {
                    mask |= 1 << ci;
                }
            }
            results[qi].occurrences[mask as usize] += 1;
            let targets = &q.target_positions;
            let c = &mut cursor[qi];
            while *c < targets.len() && targets[*c] as usize <= idx {
                *c += 1;
            }
            let hit = targets.get(*c).is_some_and(|&pos| pos - idx as u32 <= q.horizon_blocks);
            if hit {
                results[qi].hits[mask as usize] += 1;
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Trace: [1, 2, 9, 3, 9, 1, 9] with site 9; the target (a miss of some
    /// line) occurs at positions 3 and 7.
    fn setup() -> (Trace, Vec<u32>) {
        let trace = Trace::new("t", vec![b(1), b(2), b(9), b(3), b(9), b(1), b(9)]);
        (trace, vec![3, 7])
    }

    #[test]
    fn masks_and_hits() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos,
            candidates: vec![b(1), b(2)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 3, &[q])[0];
        // Site executes at idx 2 (window [1,2,9]: both present -> mask 0b11,
        // miss at 3 within horizon -> hit), idx 4 (window [9,3,9]: neither ->
        // mask 0, next miss at 7, distance 3 > 2 -> no hit), idx 6 (window
        // [9,1,9]: b1 present -> mask 0b01, miss at 7 within 1 -> hit).
        assert_eq!(res.total_occurrences(), 3);
        assert_eq!(res.occurrences[0b11], 1);
        assert_eq!(res.occurrences[0b00], 1);
        assert_eq!(res.occurrences[0b01], 1);
        assert_eq!(res.hits[0b11], 1);
        assert_eq!(res.hits[0b00], 0);
        assert_eq!(res.hits[0b01], 1);
    }

    #[test]
    fn superset_aggregation() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos,
            candidates: vec![b(1), b(2)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 3, &[q])[0];
        // Subset {b1} = bit 0: occurrences with b1 present = masks 01 and 11.
        assert_eq!(res.occurrences_with(0b01), 2);
        assert_eq!(res.hits_with(0b01), 2);
        assert_eq!(res.conditional_probability(0b01), Some(1.0));
        // Empty subset = all occurrences.
        assert_eq!(res.occurrences_with(0), 3);
        let p_uncond = res.conditional_probability(0).unwrap();
        assert!((p_uncond - 2.0 / 3.0).abs() < 1e-12);
        // Conditioning on b1 beats unconditional: the Bayes step the paper
        // describes in Fig. 6.
        assert!(res.conditional_probability(0b01).unwrap() > p_uncond);
    }

    #[test]
    fn window_depth_limits_presence() {
        let trace = Trace::new("t", vec![b(1), b(2), b(3), b(4), b(9)]);
        let q = JointQuery {
            site: b(9),
            target_positions: vec![],
            candidates: vec![b(1)],
            horizon_blocks: 4,
        };
        // Depth 3: window at site = [3,4,9]; b1 out.
        let res = &scan_joint(&trace, 3, std::slice::from_ref(&q))[0];
        assert_eq!(res.occurrences[0b0], 1);
        // Depth 5: b1 still inside.
        let res = &scan_joint(&trace, 5, &[q])[0];
        assert_eq!(res.occurrences[0b1], 1);
    }

    #[test]
    fn no_support_returns_none() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(42), // never executes
            target_positions: pos,
            candidates: vec![b(1)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 4, &[q])[0];
        assert_eq!(res.total_occurrences(), 0);
        assert_eq!(res.conditional_probability(0), None);
    }

    #[test]
    fn multiple_queries_share_the_pass() {
        let (trace, pos) = setup();
        let qs = vec![
            JointQuery {
                site: b(9),
                target_positions: pos.clone(),
                candidates: vec![b(1)],
                horizon_blocks: 2,
            },
            JointQuery { site: b(2), target_positions: pos, candidates: vec![], horizon_blocks: 2 },
        ];
        let res = scan_joint(&trace, 4, &qs);
        assert_eq!(res.len(), 2);
        assert_eq!(res[1].total_occurrences(), 1);
        assert_eq!(res[1].occurrences.len(), 1); // empty candidate set -> one mask
    }

    /// The definition, computed the slow way: the window is a trace slice,
    /// presence a linear search of it, the next target a linear search of
    /// the positions.
    fn naive_scan(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
        let blocks = trace.blocks();
        let mut results: Vec<JointCounts> =
            queries.iter().map(|q| JointCounts::new(q.candidates.len())).collect();
        for (idx, &block) in blocks.iter().enumerate() {
            let window = &blocks[idx + 1 - lbr_depth.min(idx + 1)..=idx];
            for (q, res) in queries.iter().zip(&mut results) {
                if q.site != block {
                    continue;
                }
                let mut mask = 0usize;
                for (ci, cand) in q.candidates.iter().enumerate() {
                    if window.contains(cand) {
                        mask |= 1 << ci;
                    }
                }
                res.occurrences[mask] += 1;
                let next = q.target_positions.iter().find(|&&p| p as usize > idx);
                if next.is_some_and(|&p| p as usize - idx <= q.horizon_blocks as usize) {
                    res.hits[mask] += 1;
                }
            }
        }
        results
    }

    #[test]
    fn dense_scan_matches_naive_reference() {
        use ispy_trace::rng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0x5CA7);
        for round in 0..200 {
            // A small alphabet repeats blocks inside every window.
            let alphabet = 2 + rng.below(10) as u32;
            let len = rng.below(300) as usize;
            let trace =
                Trace::new("t", (0..len).map(|_| b(rng.below(alphabet.into()) as u32)).collect());
            let mut queries = Vec::new();
            for _ in 0..1 + rng.below(6) {
                // Ids at or past `alphabet` never occur in the trace; 1000
                // also lies past every id that does.
                let pick = |rng: &mut Pcg32| match rng.below(8) {
                    0 => b(alphabet + rng.below(3) as u32),
                    1 => b(1000),
                    _ => b(rng.below(alphabet.into()) as u32),
                };
                let site = pick(&mut rng);
                let candidates =
                    (0..rng.below(MAX_CANDIDATES as u64 + 1)).map(|_| pick(&mut rng)).collect();
                let horizon = rng.below(12) as u32;
                let mut targets: Vec<u32> = (0..len as u32).filter(|_| rng.chance(0.1)).collect();
                // Targets exactly at (and one past) the horizon of some site
                // occurrences.
                for (idx, blk) in trace.iter().enumerate() {
                    if blk == site && rng.chance(0.3) {
                        targets.push(idx as u32 + horizon);
                        targets.push(idx as u32 + horizon + 1);
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                queries.push(JointQuery {
                    site,
                    target_positions: targets,
                    candidates,
                    horizon_blocks: horizon,
                });
            }
            for depth in [0usize, 1, 2, 5, 32] {
                assert_eq!(
                    scan_joint(&trace, depth, &queries),
                    naive_scan(&trace, depth, &queries),
                    "round {round}, depth {depth}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_candidates_panics() {
        let (trace, pos) = setup();
        let q = JointQuery {
            site: b(9),
            target_positions: pos,
            candidates: (0..9).map(b).collect(),
            horizon_blocks: 2,
        };
        let _ = scan_joint(&trace, 4, &[q]);
    }
}
