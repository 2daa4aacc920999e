//! Injection-site selection over a line's timely-window candidates (§II-B,
//! §IV).
//!
//! The window search itself reads only the dynamic CFG and lives with it
//! ([`ispy_profile::window`]); this module picks sites among its
//! candidates: AsmDB's single most-reachable site ([`select_site`]) and
//! I-SPY's coverage- and precision-driven multi-site policy
//! ([`select_covering_sites`]).

use ispy_profile::window::{Candidates, SiteCandidate};
use ispy_profile::DynCfg;
use ispy_trace::BlockId;
use std::cmp::Ordering;

/// Picks the planner's injection site: the most-reachable candidate,
/// tie-broken toward more frequently executed blocks (better amortization of
/// the injected instruction).
pub fn select_site<'a>(
    cfg: &DynCfg,
    candidates: impl IntoIterator<Item = &'a SiteCandidate>,
) -> Option<SiteCandidate> {
    candidates.into_iter().copied().max_by(|a, b| {
        a.reach_prob
            .partial_cmp(&b.reach_prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| cfg.exec_count(a.block).cmp(&cfg.exec_count(b.block)))
            .then_with(|| b.block.0.cmp(&a.block.0))
    })
}

/// A site's coverage and precision for one miss line: the fraction of the
/// line's `miss_count` sampled misses the site preceded (`presence` of
/// them), and `P(miss | site executes)` over its `exec_count` executions.
/// Selection and the planner's later passes derive both from here, so a
/// decision stored without them rebuilds them bit for bit.
pub fn site_estimates(presence: u64, exec_count: u64, miss_count: u64) -> (f64, f64) {
    let presence_frac = presence as f64 / miss_count.max(1) as f64;
    let precision = (presence as f64 / exec_count.max(1) as f64).min(1.0);
    (presence_frac, precision)
}

/// A site chosen by [`select_covering_sites`], with its coverage/precision
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedSite {
    /// The underlying window candidate.
    pub cand: SiteCandidate,
    /// Where `cand` sits in the candidates' unfiltered list
    /// ([`Candidates::unfiltered`]).
    pub index: usize,
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
    candidates: Candidates<'_>,
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
    let mut ranked: Vec<(u64, usize, SiteCandidate)> = candidates
        .indexed()
        .map(|(i, &c)| (presence(c.block), i, c))
        .filter(|&(pres, ..)| frac(pres).partial_cmp(&policy.min_presence) != Some(Ordering::Less))
        .collect();
    // Highest coverage first; among equals prefer *closer* sites — the
    // prefetched line spends less time exposed to eviction before use.
    ranked.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.2.cycles.partial_cmp(&b.2.cycles).unwrap_or(Ordering::Equal))
            .then_with(|| a.2.block.0.cmp(&b.2.block.0))
    });
    let mut chosen: Vec<SelectedSite> = Vec::new();
    let mut cum = 0.0;
    for (pres, index, cand) in ranked {
        let (presence_frac, precision) = site_estimates(pres, exec_count(cand.block), miss_count);
        let needs_ctx = precision < policy.min_unconditional_precision;
        if needs_ctx && (!policy.allow_conditional || precision < policy.min_conditional_precision)
        {
            continue;
        }
        chosen.push(SelectedSite { cand, index, presence_frac, precision, needs_ctx });
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

    fn chain_cfg(n: u32, cycles: f64) -> DynCfg {
        let mut edges = HashMap::new();
        for i in 0..n - 1 {
            edges.insert((i, i + 1), 100);
        }
        DynCfg::new(vec![100; n as usize], vec![cycles; n as usize], edges)
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
        let chosen =
            select_covering_sites(Candidates::new(&cands, 0), presence, |_| 300, 100, &policy());
        let ids: Vec<u32> = chosen.iter().map(|c| c.cand.block.0).collect();
        // Block 2 first (highest presence); cumulative 0.9 + 0.6 >= 1.3
        // stops after block 1; block 3 is below the floor anyway.
        assert_eq!(ids, vec![2, 1]);
        // Indices point into the unfiltered list.
        assert_eq!((chosen[0].index, chosen[1].index), (1, 0));
        // Precision 90/300 = 0.3 clears the 0.25 unconditional floor;
        // 60/300 = 0.2 does not, so block 1 needs a context.
        assert!(!chosen[0].needs_ctx);
        assert!(chosen[1].needs_ctx);
        // A view from 60 cycles up leaves block 2 alone, at its index in
        // the whole list.
        let far =
            select_covering_sites(Candidates::new(&cands, 60), presence, |_| 300, 100, &policy());
        assert_eq!(far.iter().map(|c| (c.cand.block.0, c.index)).collect::<Vec<_>>(), [(2, 1)]);
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
        let chosen = select_covering_sites(Candidates::new(&cands, 0), |_| 20, |_| 40, 100, &p);
        assert_eq!(chosen.len(), 2);
        assert!(select_covering_sites(Candidates::new(&cands, 0), |_| 20, |_| 40, 0, &p).is_empty());
        assert!(
            select_covering_sites(Candidates::new(&cands, 0), |_| 5, |_| 40, 100, &p).is_empty()
        );
    }

    #[test]
    fn hot_imprecise_sites_are_skipped() {
        let cand = SiteCandidate { block: BlockId(1), reach_prob: 0.5, cycles: 50.0, blocks: 4 };
        // Site precedes all 100 misses but executes 100 000 times: precision
        // 0.001 is below even the conditional floor -> skipped entirely.
        let chosen = select_covering_sites(
            Candidates::new(&[cand], 0),
            |_| 100,
            |_| 100_000,
            100,
            &policy(),
        );
        assert!(chosen.is_empty());
        // Without conditional sites allowed, a 0.1-precision site also goes.
        let p = SelectionPolicy { allow_conditional: false, ..policy() };
        let chosen =
            select_covering_sites(Candidates::new(&[cand], 0), |_| 100, |_| 1_000, 100, &p);
        assert!(chosen.is_empty());
        // With conditional allowed, the 0.1-precision site is kept but
        // flagged as needing a context.
        let chosen =
            select_covering_sites(Candidates::new(&[cand], 0), |_| 100, |_| 1_000, 100, &policy());
        assert_eq!(chosen.len(), 1);
        assert!(chosen[0].needs_ctx);
    }
}
