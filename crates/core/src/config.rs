//! Planner configuration (the paper's system parameters, §V).
//!
//! [`IspyConfig`] holds the parameters the paper's sensitivity figures
//! sweep; every other planner threshold is fixed at its design point in
//! [`FIXED`].

use ispy_isa::HashConfig;
use ispy_profile::scan::MAX_CANDIDATES;

/// The paper's minimum prefetch distance in cycles (Fig. 18). AsmDB and the
/// spatial baselines search the same window.
pub const DEFAULT_MIN_PREFETCH_CYCLES: u32 = 27;

/// The paper's maximum prefetch distance in cycles (Fig. 18). AsmDB and the
/// spatial baselines search the same window.
pub const DEFAULT_MAX_PREFETCH_CYCLES: u32 = 200;

/// The planner's fixed thresholds: every value of the offline analysis that
/// no figure sweeps. They live in one constant, [`FIXED`], so keys that must
/// change when any of them does (the artifact cache's) render all of them
/// with `format!("{FIXED:?}")`.
#[derive(Debug)]
pub struct Thresholds {
    /// Minimum sampled misses for a line to be considered at all.
    pub min_miss_count: u64,
    /// Fewest top-ranked predictor candidates context discovery searches
    /// over; a wider context ([`IspyConfig::ctx_size`]) widens the pool up
    /// to `max_ctx_candidates` ([`IspyConfig::ctx_candidates`]).
    pub min_ctx_candidates: usize,
    /// Most predictor candidates one joint scan takes
    /// ([`MAX_CANDIDATES`]).
    pub max_ctx_candidates: usize,
    /// Minimum site executions with the context present for a context to
    /// be trusted (support threshold for the Bayes estimate).
    pub min_ctx_support: u64,
    /// A context is adopted only if it improves the site's unconditional
    /// miss probability by at least this margin — otherwise conditioning
    /// "may not improve the prefetch accuracy" (§IV) and a plain/coalesced
    /// op is used.
    pub ctx_gain_margin: f64,
    /// Sites whose unconditional miss-follow probability is already at
    /// least this high skip context discovery (fan-out ≈ 0 per §IV).
    pub zero_fanout_threshold: f64,
    /// Expansions after which a timely-window search stops
    /// ([`ispy_profile::window::MAX_SEARCH_NODES`], the cap every planner
    /// searches with).
    pub max_search_nodes: usize,
    /// Maximum injection sites per miss line. I-SPY "liberally injects
    /// conditional prefetch instructions to cover each miss" (§III-A): a
    /// miss reached over several paths gets one (conditional) prefetch per
    /// path, because run-time conditioning keeps the extra ops accurate.
    pub max_sites_per_line: usize,
    /// Minimum fraction of a line's sampled misses a site must precede
    /// (LBR-history presence) to be worth injecting at.
    pub min_site_presence: f64,
    /// Sites whose estimated precision (`P(miss | site executes)`) reaches
    /// this floor may fire unconditionally.
    pub min_unconditional_precision: f64,
    /// Sites below this precision are dropped even when conditional — the
    /// op would execute far too often relative to the misses it could
    /// cover.
    pub min_conditional_precision: f64,
    /// A needs-context site survives only if the discovered context's
    /// conditional miss probability reaches this floor.
    pub min_ctx_probability: f64,
    /// Maximum distinct contexts per (site, target): a miss reached from
    /// several calling contexts gets one conditional prefetch per context
    /// (paper Fig. 8 groups same-site prefetches by context).
    pub max_contexts_per_site: usize,
    /// A needs-context site with no usable context is still kept
    /// *unconditionally* if its measured reach probability (fraction of
    /// its executions that lead to the target within the window) is at
    /// least this floor — the firings are mostly useful anyway.
    pub min_unconditional_reach: f64,
}

/// The planner's fixed thresholds at their design points.
pub const FIXED: Thresholds = Thresholds {
    min_miss_count: 1,
    min_ctx_candidates: 6,
    max_ctx_candidates: MAX_CANDIDATES,
    min_ctx_support: 8,
    ctx_gain_margin: 0.08,
    zero_fanout_threshold: 0.95,
    max_search_nodes: ispy_profile::window::MAX_SEARCH_NODES,
    max_sites_per_line: 3,
    min_site_presence: 0.10,
    min_unconditional_precision: 0.25,
    min_conditional_precision: 0.08,
    min_ctx_probability: 0.45,
    max_contexts_per_site: 4,
    min_unconditional_reach: 0.50,
};

/// The swept parameters of the offline analysis. Defaults are the paper's
/// design points; the fixed thresholds are [`FIXED`].
///
/// # Examples
///
/// ```
/// use ispy_core::IspyConfig;
///
/// let cfg = IspyConfig::default();
/// assert_eq!(cfg.min_prefetch_cycles, 27);
/// assert_eq!(cfg.max_prefetch_cycles, 200);
/// assert_eq!(cfg.coalesce_bits, 8);
/// assert_eq!(cfg.ctx_size, 4);
///
/// // Ablations used by Fig. 12:
/// let cond_only = IspyConfig::conditional_only();
/// assert!(cond_only.conditional && !cond_only.coalescing);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IspyConfig {
    /// Minimum prefetch distance in cycles (paper: 27, from Fig. 18).
    pub min_prefetch_cycles: u32,
    /// Maximum prefetch distance in cycles (paper: 200, from Fig. 18).
    pub max_prefetch_cycles: u32,
    /// Coalescing bitmask width in bits (paper: 8, from Fig. 19).
    pub coalesce_bits: u8,
    /// Maximum predictor blocks per context (paper: 4, from Fig. 17).
    pub ctx_size: usize,
    /// Context-hash scheme (paper: 16-bit, FNV-1 + MurmurHash3, Fig. 21).
    pub hash: HashConfig,
    /// Enable conditional prefetching (§III-A). Off = coalescing-only
    /// ablation.
    pub conditional: bool,
    /// Enable prefetch coalescing (§III-B). Off = conditional-only ablation.
    pub coalescing: bool,
}

impl Default for IspyConfig {
    fn default() -> Self {
        IspyConfig {
            min_prefetch_cycles: DEFAULT_MIN_PREFETCH_CYCLES,
            max_prefetch_cycles: DEFAULT_MAX_PREFETCH_CYCLES,
            coalesce_bits: 8,
            ctx_size: 4,
            hash: HashConfig::default(),
            conditional: true,
            coalescing: true,
        }
    }
}

impl IspyConfig {
    /// The Fig. 12 "conditional prefetching only" ablation.
    pub fn conditional_only() -> Self {
        IspyConfig { coalescing: false, ..Self::default() }
    }

    /// The Fig. 12 "prefetch coalescing only" ablation.
    pub fn coalescing_only() -> Self {
        IspyConfig { conditional: false, ..Self::default() }
    }

    /// Neither technique: timely plain prefetches for every miss (used by
    /// sensitivity baselines).
    pub fn plain() -> Self {
        IspyConfig { conditional: false, coalescing: false, ..Self::default() }
    }

    /// How many top-ranked predictor candidates context discovery searches
    /// over: [`FIXED`]'s `min_ctx_candidates`, widened for contexts of more
    /// blocks up to its `max_ctx_candidates`.
    pub fn ctx_candidates(&self) -> usize {
        self.ctx_size.clamp(FIXED.min_ctx_candidates, FIXED.max_ctx_candidates)
    }

    /// Returns the configuration with a different context size (Fig. 17).
    #[must_use]
    pub fn with_ctx_size(mut self, n: usize) -> Self {
        self.ctx_size = n;
        self
    }

    /// Returns the configuration with different prefetch distances (Fig. 18).
    #[must_use]
    pub fn with_distances(mut self, min: u32, max: u32) -> Self {
        self.min_prefetch_cycles = min;
        self.max_prefetch_cycles = max;
        self
    }

    /// Returns the configuration with a different coalescing width (Fig. 19).
    #[must_use]
    pub fn with_coalesce_bits(mut self, bits: u8) -> Self {
        self.coalesce_bits = bits;
        self
    }

    /// Returns the configuration with a different hash scheme (Fig. 21).
    #[must_use]
    pub fn with_hash(mut self, hash: HashConfig) -> Self {
        self.hash = hash;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = IspyConfig::default();
        assert_eq!(c.min_prefetch_cycles, 27);
        assert_eq!(c.max_prefetch_cycles, 200);
        assert_eq!(c.coalesce_bits, 8);
        assert_eq!(c.ctx_size, 4);
        assert_eq!(c.hash.bits(), 16);
        assert!(c.conditional && c.coalescing);
    }

    #[test]
    fn ablations() {
        assert!(!IspyConfig::conditional_only().coalescing);
        assert!(!IspyConfig::coalescing_only().conditional);
        let p = IspyConfig::plain();
        assert!(!p.conditional && !p.coalescing);
    }

    #[test]
    fn builders() {
        let c =
            IspyConfig::default().with_ctx_size(2).with_distances(10, 400).with_coalesce_bits(16);
        assert_eq!(c.ctx_size, 2);
        assert_eq!(c.min_prefetch_cycles, 10);
        assert_eq!(c.max_prefetch_cycles, 400);
        assert_eq!(c.coalesce_bits, 16);
    }

    #[test]
    fn ctx_candidates_grow_with_ctx_size() {
        let c = IspyConfig::default().with_ctx_size(8);
        assert!(c.ctx_candidates() >= 8);
        assert_eq!(IspyConfig::default().ctx_candidates(), FIXED.min_ctx_candidates);
        assert_eq!(IspyConfig::default().with_ctx_size(20).ctx_candidates(), MAX_CANDIDATES);
    }
}
