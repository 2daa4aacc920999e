//! Simulation configuration: the paper's Table I machine, fixed in
//! [`MACHINE`], and the few values a run sets in [`SimConfig`].

use crate::cache::{CacheParams, InsertPriority};
use crate::switch::SwitchSchedule;
use ispy_isa::HashConfig;
use std::sync::Arc;

/// Access latencies in cycles (Table I).
#[derive(Debug)]
pub struct Latencies {
    /// L1 instruction cache hit latency.
    pub l1i: u32,
    /// L1 data cache hit latency.
    pub l1d: u32,
    /// L2 unified cache latency.
    pub l2: u32,
    /// L3 unified cache latency.
    pub l3: u32,
    /// Memory latency.
    pub mem: u32,
}

/// The simulated machine's fixed parameters: every value of the paper's
/// system that no figure varies. They live in one constant, [`MACHINE`], so
/// keys that must change when any of them does (the artifact cache's)
/// render all of them with `format!("{MACHINE:?}")`.
#[derive(Debug)]
pub struct Machine {
    /// L1 instruction cache geometry.
    pub l1i: CacheParams,
    /// L1 data cache geometry.
    pub l1d: CacheParams,
    /// Unified L2 geometry.
    pub l2: CacheParams,
    /// Unified (per-socket share) L3 geometry.
    pub l3: CacheParams,
    /// Access latencies.
    pub lat: Latencies,
    /// Superscalar issue width.
    pub issue_width: u64,
    /// Fraction of a data-miss latency that shows up as backend stall (the
    /// OoO core hides the rest).
    pub d_stall_factor: f64,
    /// Fraction of data accesses that stream through the working set rather
    /// than reusing a block-affine location.
    pub d_stream_frac: f64,
}

/// The paper's simulated system (Table I): 32 KiB 8-way L1I/L1D, 1 MiB
/// 16-way L2, 10 MiB 20-way L3, a 260-cycle memory and a 4-wide core
/// (2.5 GHz all-core turbo; only latency ratios matter here).
pub const MACHINE: Machine = Machine {
    l1i: CacheParams::new(32 * 1024, 8),
    l1d: CacheParams::new(32 * 1024, 8),
    l2: CacheParams::new(1024 * 1024, 16),
    l3: CacheParams::new(10 * 1024 * 1024, 20),
    lat: Latencies { l1i: 3, l1d: 4, l2: 12, l3: 36, mem: 260 },
    issue_width: 4,
    d_stall_factor: 0.3,
    d_stream_frac: 0.25,
};

/// What a simulation run sets on top of the fixed [`MACHINE`].
///
/// Defaults are the paper's design point: a real I-cache, a 32-entry LBR,
/// a 16-bit context hash backed by two hash functions, and prefetched lines
/// inserted at half priority.
///
/// # Examples
///
/// ```
/// use ispy_sim::config::MACHINE;
/// use ispy_sim::SimConfig;
///
/// assert_eq!(MACHINE.l1i.num_lines(), 512);
/// assert!(!SimConfig::default().ideal_icache);
/// assert!(SimConfig::ideal().ideal_icache);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// When set, every instruction fetch hits — the paper's "ideal cache"
    /// upper bound.
    pub ideal_icache: bool,
    /// Context-hash scheme shared by hardware and planner.
    pub hash: HashConfig,
    /// LBR depth (32 on x86-64).
    pub lbr_depth: usize,
    /// Insertion priority for prefetched lines (§III-B: half priority).
    pub prefetch_insert: InsertPriority,
    /// Optional tenant-switch/phase schedule over trace event indices (the
    /// scenario engine's multi-tenant interference model). `None` — the
    /// default, and every pre-scenario configuration — replays exactly as
    /// before: no boundaries, no cache perturbation.
    pub schedule: Option<Arc<SwitchSchedule>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            ideal_icache: false,
            hash: HashConfig::default(),
            lbr_depth: 32,
            prefetch_insert: InsertPriority::Half,
            schedule: None,
        }
    }
}

impl SimConfig {
    /// The ideal-cache configuration (no I-cache misses), used as the upper
    /// bound in Figs. 3, 10, 16–19.
    pub fn ideal() -> Self {
        SimConfig { ideal_icache: true, ..SimConfig::default() }
    }

    /// Returns this configuration with a different context-hash scheme
    /// (Fig. 21 sweeps hash width).
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
    fn table_1_defaults() {
        let m = MACHINE;
        assert_eq!((m.l1i.size_bytes, m.l1i.ways), (32 * 1024, 8));
        assert_eq!((m.l1d.size_bytes, m.l1d.ways), (32 * 1024, 8));
        assert_eq!((m.l2.size_bytes, m.l2.ways), (1024 * 1024, 16));
        assert_eq!((m.l3.size_bytes, m.l3.ways), (10 * 1024 * 1024, 20));
        assert_eq!(m.lat.l1i, 3);
        assert_eq!(m.lat.l1d, 4);
        assert_eq!(m.lat.l2, 12);
        assert_eq!(m.lat.l3, 36);
        assert_eq!(m.lat.mem, 260);
        assert_eq!(m.issue_width, 4);
        assert_eq!((m.d_stall_factor, m.d_stream_frac), (0.3, 0.25));
        let c = SimConfig::default();
        assert_eq!(c.lbr_depth, 32);
        assert_eq!(c.hash.bits(), 16);
    }

    #[test]
    fn ideal_flag() {
        assert!(SimConfig::ideal().ideal_icache);
        assert!(!SimConfig::default().ideal_icache);
    }

    #[test]
    fn with_hash_overrides() {
        let c = SimConfig::default().with_hash(HashConfig::new(32, 2));
        assert_eq!(c.hash.bits(), 32);
    }
}
