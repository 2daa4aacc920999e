//! Joint context statistics: exact conditional probabilities over a trace.
//!
//! Context discovery (§III-A) needs `P(miss at line m | predictor blocks
//! present in the LBR when the injection site executes)`. The paper
//! estimates this from sampled profiles; since the reproduction has the full
//! recorded trace, it computes the statistic *exactly* in one linear pass:
//! for every occurrence of an injection site, record which candidate
//! predictor blocks sit in the rolling 32-block window (a presence mask) and
//! whether the target block (the line's miss block) executes within a
//! horizon.
//!
//! Subset probabilities are recovered by superset aggregation: a candidate
//! subset `S` is "present" at an occurrence whose mask is `M` iff `S ⊆ M`,
//! so `count(S) = Σ_{M ⊇ S} count(M)`.

use ispy_trace::{BlockId, Trace};
use std::collections::HashMap;

/// Maximum number of candidate predictor blocks per query (a presence mask
/// fits a [`JointCell`]'s `u16`, and a scan fills every answer through one
/// 2^8-cell scratch).
pub const MAX_CANDIDATES: usize = 8;

/// One question: at `site`, over candidate predictor blocks, how often does
/// an execution of `target` follow within `horizon_blocks`?
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JointQuery {
    /// The candidate injection site.
    pub site: BlockId,
    /// The block whose execution counts as reaching the target (the
    /// planner's miss block).
    pub target: BlockId,
    /// Candidate predictor blocks (≤ [`MAX_CANDIDATES`]).
    pub candidates: Vec<BlockId>,
    /// Look-ahead horizon in block events.
    pub horizon_blocks: u32,
}

/// One presence mask's counts in a [`JointCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JointCell {
    /// Bit `i` set: candidate `i` was in the LBR window.
    pub mask: u16,
    /// Site executions whose window presence mask was exactly `mask`.
    pub occurrences: u32,
    /// Of those, how many were followed by an execution of the target
    /// within the horizon.
    pub hits: u32,
}

/// Per-mask counts answering a [`JointQuery`], stored sparse: only the
/// masks some site execution had, ascending. A query has up to
/// 2^[`MAX_CANDIDATES`] masks but its site's executions show only a few of
/// them, and a planner baseline keeps every answer it scans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JointCounts {
    cells: Vec<JointCell>,
}

impl JointCounts {
    /// The counts whose mask `m` saw `occurrences[m]` site executions, of
    /// which `hits[m]` reached the target.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or pass 2^[`MAX_CANDIDATES`]
    /// masks, if a mask has more hits than occurrences, or if a count does
    /// not fit `u32`.
    pub fn from_dense(occurrences: &[u64], hits: &[u64]) -> Self {
        assert_eq!(occurrences.len(), hits.len(), "one hit count per mask");
        assert!(occurrences.len() <= 1 << MAX_CANDIDATES, "masks fit {MAX_CANDIDATES} bits");
        let count = |c: u64| u32::try_from(c).expect("counts fit u32");
        let cells = (0..occurrences.len())
            .filter(|&m| {
                assert!(hits[m] <= occurrences[m], "mask {m}: more hits than occurrences");
                occurrences[m] != 0
            })
            .map(|m| JointCell {
                mask: m as u16,
                occurrences: count(occurrences[m]),
                hits: count(hits[m]),
            })
            .collect();
        JointCounts { cells }
    }

    /// The occupied masks' counts, ascending by mask.
    pub fn cells(&self) -> &[JointCell] {
        &self.cells
    }

    /// Total site executions observed.
    #[cfg(test)]
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences_with(0)
    }

    /// Occurrences whose mask is a superset of `subset` — i.e., executions
    /// where every block of `subset` was present.
    pub fn occurrences_with(&self, subset: u16) -> u64 {
        self.superset_cells(subset).map(|c| u64::from(c.occurrences)).sum()
    }

    /// Hits whose mask is a superset of `subset`.
    pub fn hits_with(&self, subset: u16) -> u64 {
        self.superset_cells(subset).map(|c| u64::from(c.hits)).sum()
    }

    /// `P(target | subset present at site)`, or `None` with no support.
    pub fn conditional_probability(&self, subset: u16) -> Option<f64> {
        let occ = self.occurrences_with(subset);
        if occ == 0 {
            None
        } else {
            Some(self.hits_with(subset) as f64 / occ as f64)
        }
    }

    fn superset_cells(&self, subset: u16) -> impl Iterator<Item = &JointCell> {
        self.cells.iter().filter(move |c| c.mask & subset == subset)
    }
}

/// One query's counts as they are filled, by mask: (occurrences, hits).
/// One scratch serves every query of a scan; [`Scratch::take`] leaves it
/// zeroed.
struct Scratch(Vec<(u32, u32)>);

impl Scratch {
    fn new() -> Self {
        Scratch(vec![(0, 0); 1 << MAX_CANDIDATES])
    }

    /// The occupied masks below `1 << n_candidates`, as sparse counts.
    fn take(&mut self, n_candidates: usize) -> JointCounts {
        let cells = self.0[..1 << n_candidates]
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| c.0 != 0)
            .map(|(mask, c)| {
                let (occurrences, hits) = std::mem::take(c);
                JointCell { mask: mask as u16, occurrences, hits }
            })
            .collect();
        JointCounts { cells }
    }
}

/// Presence bits one union word can carry.
const WORD_BITS: usize = u64::BITS as usize;

/// Queries of one site whose candidates fit one presence word.
#[derive(Default)]
struct Group {
    /// The union of the members' candidates; bit `j` of a word is
    /// `union[j]`'s presence.
    union: Vec<u32>,
    /// One presence word per occurrence of the site.
    words: Vec<u64>,
    /// (query index, the union bit of each of its candidates).
    members: Vec<(usize, Vec<u8>)>,
}

impl Group {
    /// Adds `cands` to the union, recording each new block's bit under
    /// the group's stamp `id`. Returns `false`, with the union as it was,
    /// if they do not all fit one word.
    fn join(&mut self, cands: &[BlockId], id: u32, stamp: &mut [u32], bit: &mut [u8]) -> bool {
        let before = self.union.len();
        for c in cands.iter().map(|c| c.index()) {
            if stamp[c] != id {
                stamp[c] = id;
                bit[c] = self.union.len() as u8;
                self.union.push(c as u32);
            }
        }
        if self.union.len() > WORD_BITS {
            self.union.truncate(before);
            return false;
        }
        true
    }
}

/// One site's occurrences and query groups.
struct Site {
    /// Trace positions at which the site executed.
    occurrences: Vec<u32>,
    groups: Vec<Group>,
}

/// Answers all `queries` in one linear pass over `trace`.
///
/// The pass is site-major: the queries of one site share one presence
/// word per site occurrence, over the union of their candidates (a site
/// whose union passes 64 blocks gets one word per 64-block group), and the
/// same pass records every target's execution positions. Each query's
/// counts are then filled from its group's words in a pass of their own,
/// where a group's queries with one (target, horizon) share each
/// occurrence's hit bit, and exact-duplicate queries are answered once.
///
/// # Panics
///
/// Panics if a query has more than [`MAX_CANDIDATES`] candidates, or if
/// the trace has `u32::MAX` events or more.
pub fn scan_joint(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
    for q in queries {
        assert!(
            q.candidates.len() <= MAX_CANDIDATES,
            "at most {MAX_CANDIDATES} candidates per query"
        );
    }
    assert!(trace.len() < u32::MAX as usize, "trace positions must fit u32");
    if queries.is_empty() {
        return Vec::new();
    }
    // `first[i]`: the earliest query equal to query `i` (itself if unique).
    let mut seen: HashMap<&JointQuery, usize> = HashMap::new();
    let first: Vec<usize> =
        queries.iter().enumerate().map(|(i, q)| *seen.entry(q).or_insert(i)).collect();
    let unique = || (0..queries.len()).filter(|&i| first[i] == i);

    // Only sites, targets and candidates are ever looked up, so dense
    // per-block arrays sized by the largest of those ids suffice; trace
    // blocks beyond them are skipped.
    let size = unique()
        .flat_map(|i| {
            let q = &queries[i];
            [q.site, q.target].into_iter().chain(q.candidates.iter().copied())
        })
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0);

    // `target_slot[b]`: 1 + the index of `b`'s position list (0 = no query
    // targets `b`).
    let mut target_slot = vec![0u32; size];
    let mut positions: Vec<Vec<u32>> = Vec::new();
    let mut by_site: Vec<Vec<usize>> = vec![Vec::new(); size];
    for i in unique() {
        let q = &queries[i];
        by_site[q.site.index()].push(i);
        let t = q.target.index();
        if target_slot[t] == 0 {
            positions.push(Vec::new());
            target_slot[t] = positions.len() as u32;
        }
    }

    // Group each site's queries into presence words. `stamp[b]` names the
    // group whose union holds `b` at bit `bit[b]`; a new group takes a new
    // stamp, so nothing is cleared between groups.
    let mut site_slot = vec![0u32; size];
    let mut sites: Vec<Site> = Vec::new();
    let mut stamp = vec![0u32; size];
    let mut bit = vec![0u8; size];
    let mut group_id = 0u32;
    for (b, members) in by_site.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
        group_id += 1;
        let mut groups = vec![Group::default()];
        for &qi in members {
            let cands = &queries[qi].candidates;
            let mut g = groups.last_mut().expect("a site has a group");
            if !g.join(cands, group_id, &mut stamp, &mut bit) {
                // Over one word: this group is closed (its stamps go stale
                // with its id) and a new one takes the query.
                group_id += 1;
                groups.push(Group::default());
                g = groups.last_mut().expect("just pushed");
                assert!(g.join(cands, group_id, &mut stamp, &mut bit), "a query fits a word");
            }
            g.members.push((qi, cands.iter().map(|c| bit[c.index()]).collect()));
        }
        sites.push(Site { occurrences: Vec::new(), groups });
        site_slot[b] = sites.len() as u32;
    }

    // The pass. `last[b]`: 1 + the most recent position of `b` so far
    // (0 = never). `b` is in the LBR window at position `pos` iff it
    // occurred within the last `lbr_depth` events, the current one
    // included.
    let depth = u32::try_from(lbr_depth).unwrap_or(u32::MAX);
    let mut last = vec![0u32; size];
    for (pos, block) in trace.iter().enumerate() {
        let b = block.index();
        if b >= size {
            continue;
        }
        let pos = pos as u32;
        last[b] = pos + 1;
        if target_slot[b] != 0 {
            positions[target_slot[b] as usize - 1].push(pos);
        }
        if site_slot[b] != 0 {
            let site = &mut sites[site_slot[b] as usize - 1];
            site.occurrences.push(pos);
            for g in &mut site.groups {
                let mut word = 0u64;
                for (j, &c) in g.union.iter().enumerate() {
                    let seen = last[c as usize];
                    if seen != 0 && pos + 1 - seen < depth {
                        word |= 1 << j;
                    }
                }
                g.words.push(word);
            }
        }
    }

    // Each query's counts, from its group's words. The members of a group
    // that ask about one (target, horizon) share its hit bit, computed once
    // per site occurrence; each query then fills the one scratch and leaves
    // with only its occupied masks.
    let mut results: Vec<JointCounts> = vec![JointCounts::default(); queries.len()];
    let mut scratch = Scratch::new();
    let mut hit: Vec<bool> = Vec::new();
    let label = |qi: usize| (queries[qi].target, queries[qi].horizon_blocks);
    for site in &mut sites {
        for g in &mut site.groups {
            g.members.sort_by_key(|&(qi, _)| label(qi));
            for same in g.members.chunk_by(|a, b| label(a.0) == label(b.0)) {
                let (target, horizon) = label(same[0].0);
                let targets = &positions[target_slot[target.index()] as usize - 1];
                // Site occurrences arrive in trace order, so the next
                // target only ever moves forward.
                let mut next = 0usize;
                hit.clear();
                hit.extend(site.occurrences.iter().map(|&pos| {
                    while next < targets.len() && targets[next] <= pos {
                        next += 1;
                    }
                    targets.get(next).is_some_and(|&t| t - pos <= horizon)
                }));
                for (qi, bits) in same {
                    for (&word, &hit) in g.words.iter().zip(&hit) {
                        let mut mask = 0usize;
                        for (ci, &j) in bits.iter().enumerate() {
                            mask |= ((word >> j) as usize & 1) << ci;
                        }
                        let cell = &mut scratch.0[mask];
                        cell.0 += 1;
                        cell.1 += u32::from(hit);
                    }
                    results[*qi] = scratch.take(bits.len());
                }
            }
        }
    }
    for i in 0..queries.len() {
        if first[i] != i {
            results[i] = results[first[i]].clone();
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Trace: [1, 2, 9, 5, 9, 1, 9, 5] with site 9; the target block 5
    /// executes at positions 3 and 7.
    fn setup() -> Trace {
        Trace::new("t", vec![b(1), b(2), b(9), b(5), b(9), b(1), b(9), b(5)])
    }

    #[test]
    fn masks_and_hits() {
        let trace = setup();
        let q = JointQuery {
            site: b(9),
            target: b(5),
            candidates: vec![b(1), b(2)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 3, &[q])[0];
        // Site executes at idx 2 (window [1,2,9]: both present -> mask 0b11,
        // target at 3 within horizon -> hit), idx 4 (window [9,5,9]: neither
        // -> mask 0, next target at 7, distance 3 > 2 -> no hit), idx 6
        // (window [9,1,9]: b1 present -> mask 0b01, target at 7 within 1 ->
        // hit).
        assert_eq!(res.total_occurrences(), 3);
        //                                    00 01 10 11
        assert_eq!(res, &JointCounts::from_dense(&[1, 1, 0, 1], &[0, 1, 0, 1]));
        // Mask 0b10 never occurred, so only three cells are stored.
        let masks: Vec<u16> = res.cells().iter().map(|c| c.mask).collect();
        assert_eq!(masks, vec![0b00, 0b01, 0b11]);
    }

    #[test]
    fn superset_aggregation() {
        let trace = setup();
        let q = JointQuery {
            site: b(9),
            target: b(5),
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
        let q = JointQuery { site: b(9), target: b(7), candidates: vec![b(1)], horizon_blocks: 4 };
        // Depth 3: window at site = [3,4,9]; b1 out.
        let res = &scan_joint(&trace, 3, std::slice::from_ref(&q))[0];
        assert_eq!(res, &JointCounts::from_dense(&[1, 0], &[0, 0]));
        // Depth 5: b1 still inside.
        let res = &scan_joint(&trace, 5, &[q])[0];
        assert_eq!(res, &JointCounts::from_dense(&[0, 1], &[0, 0]));
    }

    #[test]
    fn no_support_returns_none() {
        let trace = setup();
        let q = JointQuery {
            site: b(42), // never executes
            target: b(5),
            candidates: vec![b(1)],
            horizon_blocks: 2,
        };
        let res = &scan_joint(&trace, 4, &[q])[0];
        assert_eq!(res.total_occurrences(), 0);
        assert_eq!(res.conditional_probability(0), None);
    }

    #[test]
    fn multiple_queries_share_the_pass() {
        let trace = setup();
        let qs = vec![
            JointQuery { site: b(9), target: b(5), candidates: vec![b(1)], horizon_blocks: 2 },
            JointQuery { site: b(2), target: b(5), candidates: vec![], horizon_blocks: 2 },
        ];
        let res = scan_joint(&trace, 4, &qs);
        assert_eq!(res.len(), 2);
        // Empty candidate set -> one mask; b2 at 1 reaches b5 at 3.
        assert_eq!(res[1], JointCounts::from_dense(&[1], &[1]));
    }

    /// The definition, computed the slow way: the window is a trace slice,
    /// presence a linear search of it, the next target a linear search of
    /// the trace, and the counts dense arrays.
    fn naive_scan(trace: &Trace, lbr_depth: usize, queries: &[JointQuery]) -> Vec<JointCounts> {
        struct Dense {
            occurrences: Vec<u64>,
            hits: Vec<u64>,
        }
        let blocks = trace.blocks();
        let mut results: Vec<Dense> = queries
            .iter()
            .map(|q| {
                let size = 1 << q.candidates.len();
                Dense { occurrences: vec![0; size], hits: vec![0; size] }
            })
            .collect();
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
                let next = blocks[idx + 1..].iter().position(|&t| t == q.target);
                if next.is_some_and(|d| d < q.horizon_blocks as usize) {
                    res.hits[mask] += 1;
                }
            }
        }
        results.iter().map(|d| JointCounts::from_dense(&d.occurrences, &d.hits)).collect()
    }

    #[test]
    fn sparse_counts_answer_every_subset_as_dense_sums() {
        use ispy_trace::rng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0xC0DE);
        for round in 0..300 {
            let n = rng.below(MAX_CANDIDATES as u64 + 1) as usize;
            // Mostly empty masks, as a site's executions show only a few.
            let occupied = 1 + rng.below(1 << n);
            let mut occurrences = vec![0u64; 1 << n];
            let mut hits = vec![0u64; 1 << n];
            for _ in 0..occupied {
                let m = rng.below(1 << n) as usize;
                occurrences[m] = rng.below(1000);
                hits[m] = rng.below(occurrences[m] + 1);
            }
            let counts = JointCounts::from_dense(&occurrences, &hits);
            let cells = counts.cells();
            assert!(cells.iter().all(|c| c.occurrences > 0), "round {round}: empty cell stored");
            assert!(cells.windows(2).all(|w| w[0].mask < w[1].mask), "round {round}: order");
            let stored = occurrences.iter().filter(|&&o| o > 0).count();
            assert_eq!(cells.len(), stored, "round {round}");
            for subset in 0..1u16 << n {
                let sum = |arr: &[u64]| -> u64 {
                    (0..arr.len()).filter(|&m| m as u16 & subset == subset).map(|m| arr[m]).sum()
                };
                let (occ, hit) = (sum(&occurrences), sum(&hits));
                assert_eq!(counts.occurrences_with(subset), occ, "round {round}, {subset:b}");
                assert_eq!(counts.hits_with(subset), hit, "round {round}, {subset:b}");
                let p = (occ > 0).then(|| hit as f64 / occ as f64);
                assert_eq!(counts.conditional_probability(subset), p, "round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more hits than occurrences")]
    fn from_dense_rejects_hits_without_occurrences() {
        let _ = JointCounts::from_dense(&[3, 0], &[1, 1]);
    }

    #[test]
    fn dense_scan_matches_naive_reference() {
        use ispy_trace::rng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0x5CA7);
        let mut wide_sites = 0;
        let mut shared_labels = 0;
        for round in 0..200 {
            // A small alphabet repeats blocks inside every window. Every
            // fourth round instead piles a dozen or more 8-candidate queries
            // on one site over a wide alphabet, so the site's candidate
            // union passes one 64-bit presence word.
            let wide = round % 4 == 0;
            let alphabet = if wide { 70 + rng.below(40) as u32 } else { 2 + rng.below(10) as u32 };
            let len = rng.below(if wide { 1500 } else { 300 }) as usize;
            let trace =
                Trace::new("t", (0..len).map(|_| b(rng.below(alphabet.into()) as u32)).collect());
            // Ids at or past `alphabet` never occur in the trace; 1000 also
            // lies past every id that does.
            let pick = |rng: &mut Pcg32| match rng.below(8) {
                0 => b(alphabet + rng.below(3) as u32),
                1 => b(1000),
                _ => b(rng.below(alphabet.into()) as u32),
            };
            let wide_site = pick(&mut rng);
            let mut queries: Vec<JointQuery> = Vec::new();
            let n_queries = if wide { 12 + rng.below(8) } else { 1 + rng.below(6) };
            for _ in 0..n_queries {
                let site = if wide { wide_site } else { pick(&mut rng) };
                let n_cands = if wide { MAX_CANDIDATES as u64 } else { rng.below(9) };
                let candidates = (0..n_cands).map(|_| pick(&mut rng)).collect();
                queries.push(JointQuery {
                    site,
                    target: pick(&mut rng),
                    candidates,
                    horizon_blocks: rng.below(12) as u32,
                });
            }
            // Queries of one site asking about one (target, horizon) share
            // each occurrence's hit bit: give a few of them the first
            // query's.
            for i in 1..queries.len() {
                if rng.below(3) == 0 {
                    let (target, horizon) = (queries[0].target, queries[0].horizon_blocks);
                    queries[i] =
                        JointQuery { target, horizon_blocks: horizon, ..queries[i].clone() };
                    shared_labels += usize::from(queries[i].site == queries[0].site);
                }
            }
            // Exact duplicates, answered once but reported per query.
            for _ in 0..rng.below(3) {
                let q = queries[rng.below(queries.len() as u64) as usize].clone();
                queries.push(q);
            }
            if wide {
                let union: HashSet<BlockId> =
                    queries.iter().flat_map(|q| q.candidates.iter().copied()).collect();
                wide_sites += usize::from(union.len() > WORD_BITS);
            }
            for depth in [0usize, 1, 2, 5, 32] {
                assert_eq!(
                    scan_joint(&trace, depth, &queries),
                    naive_scan(&trace, depth, &queries),
                    "round {round}, depth {depth}"
                );
            }
        }
        assert!(wide_sites >= 10, "only {wide_sites} sites passed one presence word");
        assert!(shared_labels >= 100, "only {shared_labels} queries shared a site's label");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_candidates_panics() {
        let trace = setup();
        let q = JointQuery {
            site: b(9),
            target: b(5),
            candidates: (0..9).map(b).collect(),
            horizon_blocks: 2,
        };
        let _ = scan_joint(&trace, 4, &[q]);
    }
}
