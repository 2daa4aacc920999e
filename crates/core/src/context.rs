//! Miss-context discovery (§III-A, Fig. 6).
//!
//! Given the joint statistics for one (injection site, miss) pair — per
//! presence-mask occurrence and hit counts over the candidate predictor
//! blocks — pick combinations of up to `ctx_size` predictor blocks whose
//! presence in the LBR raises the conditional probability of the miss (the
//! paper's Bayes step), each subject to a minimum support and a required
//! improvement over the unconditional probability. [`discover_multi`] is
//! the one search: greedy rounds take the qualifying combination that
//! covers the most target-reaching site executions, then the most probable.

use ispy_profile::JointCounts;
use ispy_trace::BlockId;

/// A context the planner decided to condition a prefetch on.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextChoice {
    /// The predictor blocks (subset of the candidates, 1..=ctx_size).
    pub blocks: Vec<BlockId>,
    /// `P(miss follows | context present at site)`.
    pub probability: f64,
    /// Site executions with the context present (the estimate's support).
    pub support: u64,
    /// `P(miss follows | site executes)` — the unconditional baseline.
    pub baseline: f64,
}

/// What [`discover_multi`] found for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiContext {
    /// The chosen contexts, in the order the greedy rounds took them.
    pub contexts: Vec<ContextChoice>,
    /// The fraction of all target-reaching site executions they jointly
    /// cover.
    pub coverage: f64,
    /// Candidate subsets scored over all greedy rounds: how much subset
    /// space the query explored. Zero when the query had nothing to search
    /// (no candidates, no contexts allowed, no site executions, or no
    /// target-reaching ones); every search scores at least one subset.
    pub subsets_evaluated: u64,
}

impl MultiContext {
    fn none() -> Self {
        MultiContext { contexts: Vec::new(), coverage: 0.0, subsets_evaluated: 0 }
    }
}

/// One plan's `core.context.*` totals over its [`discover_multi`] searches,
/// added to the telemetry registry once per plan rather than once per
/// query.
#[derive(Debug, Default)]
pub(crate) struct ContextTally {
    queries: u64,
    subsets_evaluated: u64,
    contexts_adopted: u64,
}

impl ContextTally {
    /// Counts one query's outcome; a query with nothing to search counts
    /// nowhere.
    pub(crate) fn count(&mut self, found: &MultiContext) {
        if found.subsets_evaluated > 0 {
            self.queries += 1;
            self.subsets_evaluated += found.subsets_evaluated;
            self.contexts_adopted += found.contexts.len() as u64;
        }
    }

    /// Adds the totals to `tele`; a plan that searched nothing adds no
    /// counter at all.
    pub(crate) fn publish(&self, tele: &ispy_telemetry::Telemetry) {
        if self.queries > 0 {
            tele.add("core.context.queries", self.queries);
            tele.add("core.context.subsets_evaluated", self.subsets_evaluated);
            tele.add("core.context.contexts_adopted", self.contexts_adopted);
        }
    }
}

/// Greedy multi-context discovery.
///
/// One context often cannot cover a miss reached from many calling contexts
/// (each caller predicts only its own share of instances). Like the paper's
/// Fig. 8 — several prefetches of the same target grouped by different
/// contexts at one site — this picks up to `max_contexts` subsets by greedy
/// set-cover over the occurrence masks: each round takes the qualifying
/// subset (probability ≥ `max(baseline + gain_margin, min_prob)`, support ≥
/// `min_support`) that covers the most not-yet-covered target-reaching site
/// executions.
///
/// Returns the chosen contexts, the fraction of all target-reaching
/// executions they jointly cover, and the subsets scored on the way. No
/// context qualifies when none beats the unconditional probability by
/// `gain_margin` with `min_support` observations — the §IV case where
/// "conditionally prefetching a line based on the execution context may
/// not improve the prefetch accuracy".
///
/// # Examples
///
/// ```
/// use ispy_core::context::discover_multi;
/// use ispy_profile::JointCounts;
/// use ispy_trace::BlockId;
///
/// // One candidate block: present at 10 site executions, all of which miss;
/// // absent at 30 executions, none of which miss.
/// let counts = JointCounts::from_dense(&[30, 10], &[0, 10]);
/// let found = discover_multi(&counts, &[BlockId(7)], 4, 5, 0.1, 0.0, 1);
/// assert_eq!(found.contexts[0].blocks, vec![BlockId(7)]);
/// assert_eq!(found.contexts[0].probability, 1.0);
/// assert_eq!(found.coverage, 1.0);
/// ```
pub fn discover_multi(
    counts: &JointCounts,
    candidates: &[BlockId],
    ctx_size: usize,
    min_support: u64,
    gain_margin: f64,
    min_prob: f64,
    max_contexts: usize,
) -> MultiContext {
    let n = candidates.len();
    if n == 0 || max_contexts == 0 {
        return MultiContext::none();
    }
    let Some(baseline) = counts.conditional_probability(0) else {
        return MultiContext::none();
    };
    let size = 1usize << n;
    let cells = counts.cells();
    // Superset sums (SOS DP): occ_sup[s] = Σ_{M ⊇ s} occurrences[M].
    let mut occ_sup = vec![0u64; size];
    let mut hit_sup = vec![0u64; size];
    for c in cells {
        occ_sup[usize::from(c.mask)] = u64::from(c.occurrences);
        hit_sup[usize::from(c.mask)] = u64::from(c.hits);
    }
    for bit in 0..n {
        for s in 0..size {
            if s & (1 << bit) == 0 {
                occ_sup[s] += occ_sup[s | (1 << bit)];
                hit_sup[s] += hit_sup[s | (1 << bit)];
            }
        }
    }
    let total_hits = hit_sup[0];
    if total_hits == 0 {
        return MultiContext::none();
    }
    let threshold = (baseline + gain_margin).max(min_prob);
    // The masks that reached the target, each until a chosen context
    // covers it; a subset's new hits are those of its uncovered supersets.
    let mut uncovered: Vec<(usize, u64)> = cells
        .iter()
        .filter(|c| c.hits > 0)
        .map(|c| (usize::from(c.mask), u64::from(c.hits)))
        .collect();
    let mut chosen: Vec<ContextChoice> = Vec::new();
    let mut covered_hits = 0u64;
    let mut subsets_evaluated = 0u64;

    while chosen.len() < max_contexts {
        let mut best: Option<(u64, f64, u64, usize)> = None; // (new, p, support, mask)
        for s in 1..size {
            subsets_evaluated += 1;
            if (s.count_ones() as usize) > ctx_size {
                continue;
            }
            let support = occ_sup[s];
            if support < min_support {
                continue;
            }
            let p = hit_sup[s] as f64 / support as f64;
            if p < threshold {
                continue;
            }
            let new_hits: u64 =
                uncovered.iter().filter(|&&(m, _)| m & s == s).map(|&(_, h)| h).sum();
            if new_hits == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bn, bp, _, bmask)) => {
                    new_hits > bn
                        || (new_hits == bn
                            && (p > bp + 1e-12
                                || ((p - bp).abs() <= 1e-12
                                    && s.count_ones() < bmask.count_ones())))
                }
            };
            if better {
                best = Some((new_hits, p, support, s));
            }
        }
        let Some((new_hits, p, support, mask)) = best else { break };
        uncovered.retain(|&(m, _)| m & mask != mask);
        covered_hits += new_hits;
        let blocks: Vec<BlockId> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| candidates[i]).collect();
        chosen.push(ContextChoice { blocks, probability: p, support, baseline });
    }
    MultiContext {
        contexts: chosen,
        coverage: covered_hits as f64 / total_hits as f64,
        subsets_evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Two candidates; masks indexed 0b00,0b01,0b10,0b11.
    /// Candidate 0 present -> always miss; candidate 1 uncorrelated.
    fn correlated_counts() -> JointCounts {
        //                        00  01  10  11
        JointCounts::from_dense(&[40, 10, 40, 10], &[4, 10, 4, 10])
    }

    /// The single best context `discover_multi` takes under `ctx_size`,
    /// `min_support` and `gain_margin`, with no probability floor.
    fn best(
        c: &JointCounts,
        candidates: &[BlockId],
        ctx_size: usize,
        min_support: u64,
        gain_margin: f64,
    ) -> Option<ContextChoice> {
        discover_multi(c, candidates, ctx_size, min_support, gain_margin, 0.0, 1).contexts.pop()
    }

    #[test]
    fn picks_the_predictive_candidate() {
        let c = correlated_counts();
        let ctx = best(&c, &[b(1), b(2)], 4, 5, 0.1).unwrap();
        assert_eq!(ctx.blocks, vec![b(1)]);
        assert!((ctx.probability - 1.0).abs() < 1e-12);
        assert_eq!(ctx.support, 20);
        assert!((ctx.baseline - 0.28).abs() < 1e-12);
    }

    #[test]
    fn respects_ctx_size_cap() {
        // Only the pair {0,1} is predictive enough: each single reaches
        // 0.55, under the 0.34 baseline plus the 0.25 margin.
        //                                00  01  10  11
        let c = JointCounts::from_dense(&[30, 30, 30, 10], &[0, 12, 12, 10]);
        let pair = best(&c, &[b(1), b(2)], 2, 5, 0.25).unwrap();
        assert_eq!(pair.blocks, vec![b(1), b(2)]);
        assert!((pair.probability - 1.0).abs() < 1e-12);
        assert!(best(&c, &[b(1), b(2)], 1, 5, 0.25).is_none());
    }

    #[test]
    fn insufficient_support_rejected() {
        let c = JointCounts::from_dense(&[100, 2], &[10, 2]);
        // Perfect but only 2 observations; min_support 5 rejects it.
        assert!(best(&c, &[b(1)], 4, 5, 0.1).is_none());
        assert!(best(&c, &[b(1)], 4, 2, 0.1).is_some());
    }

    #[test]
    fn no_gain_over_baseline_rejected() {
        // Candidate present half the time, misses uniform: conditioning
        // gains nothing.
        let c = JointCounts::from_dense(&[50, 50], &[30, 30]);
        assert!(best(&c, &[b(1)], 4, 5, 0.05).is_none());
    }

    #[test]
    fn empty_candidates_yield_none() {
        let c = JointCounts::from_dense(&[10], &[10]);
        assert_eq!(discover_multi(&c, &[], 4, 1, 0.0, 0.0, 1), MultiContext::none());
    }

    #[test]
    fn no_site_occurrences_yield_none() {
        let c = JointCounts::from_dense(&[0, 0], &[0, 0]);
        assert_eq!(discover_multi(&c, &[b(1)], 4, 1, 0.0, 0.0, 1), MultiContext::none());
    }

    #[test]
    fn multi_context_covers_disjoint_callers() {
        // Two callers, each predicting its own half of the reaches:
        // masks 00 (neither), 01 (caller A), 10 (caller B).
        //                                00  01  10  11
        let c = JointCounts::from_dense(&[100, 20, 20, 0], &[2, 18, 16, 0]);
        let found = discover_multi(&c, &[b(1), b(2)], 4, 5, 0.05, 0.3, 4);
        let ctxs = &found.contexts;
        assert_eq!(ctxs.len(), 2, "both callers should become contexts");
        assert_eq!(ctxs[0].blocks, vec![b(1)]); // 18 new hits > 16
        assert_eq!(ctxs[1].blocks, vec![b(2)]);
        // 34 of 36 reaches covered.
        assert!((found.coverage - 34.0 / 36.0).abs() < 1e-9);
        // Three rounds (two picks, then one that finds nothing) of the
        // three non-empty subsets.
        assert_eq!(found.subsets_evaluated, 9);
    }

    #[test]
    fn multi_context_respects_max() {
        let c = JointCounts::from_dense(&[100, 20, 20, 0], &[2, 18, 16, 0]);
        let found = discover_multi(&c, &[b(1), b(2)], 4, 5, 0.05, 0.3, 1);
        assert_eq!(found.contexts.len(), 1);
        assert!(found.coverage < 0.6);
        // One round: the cap stops the search after its first pick.
        assert_eq!(found.subsets_evaluated, 3);
    }

    #[test]
    fn multi_context_empty_when_nothing_qualifies() {
        // Uniform: no subset is better than baseline.
        let c = JointCounts::from_dense(&[50, 50], &[25, 25]);
        let found = discover_multi(&c, &[b(1)], 4, 5, 0.05, 0.9, 4);
        assert!(found.contexts.is_empty());
        assert_eq!(found.coverage, 0.0);
        assert_eq!(found.subsets_evaluated, 1, "one fruitless round still searches");
        // No target-reaching execution at all: nothing to search.
        let c = JointCounts::from_dense(&[50, 50], &[0, 0]);
        assert_eq!(discover_multi(&c, &[b(1)], 4, 5, 0.05, 0.9, 4), MultiContext::none());
    }

    #[test]
    fn multi_context_single_equals_best_cover() {
        // With one candidate perfectly predictive, multi returns it once.
        let c = JointCounts::from_dense(&[30, 10], &[0, 10]);
        let found = discover_multi(&c, &[b(7)], 4, 5, 0.1, 0.3, 4);
        assert_eq!(found.contexts.len(), 1);
        assert_eq!(found.contexts[0].blocks, vec![b(7)]);
        assert!((found.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_fig6_shape() {
        // Fig. 6: six paths through site G, two lead to the miss at K; the
        // combination {B, E} has the highest conditional probability.
        // Candidates: B (bit 0), E (bit 1).
        // Occurrences: B&E together on 2 paths (both miss); B alone 1,
        // E alone 1, neither 2 (none miss).
        //                             00 01(B) 10(E) 11(BE)
        // Every subset covers both reaches; {B, E} wins on probability.
        let c = JointCounts::from_dense(&[2, 1, 1, 2], &[0, 0, 0, 2]);
        let ctx = best(&c, &[b(100), b(200)], 4, 1, 0.05).unwrap();
        assert_eq!(ctx.blocks, vec![b(100), b(200)]);
        assert!((ctx.probability - 1.0).abs() < 1e-12);
        assert!((ctx.baseline - 2.0 / 6.0).abs() < 1e-12);
    }
}
