//! Context-switch and phase schedules: the simulator's model of co-located
//! tenants and workload phases.
//!
//! Production front ends never see one steady request loop. Tenants share a
//! core (context switches thrash L1I and pollute the shared L2), and each
//! tenant moves through phases (warmup, steady state, GC/compaction storms)
//! that change what it executes. A [`SwitchSchedule`] carries both kinds of
//! boundary as *event indices* into the replayed block stream, so the same
//! schedule applies identically to a materialized trace, a streamed source,
//! and every window of an adaptive run — deterministically, independent of
//! chunking.
//!
//! The engine consumes the schedule through
//! [`SimConfig::schedule`](crate::SimConfig): before executing the block at
//! a boundary index it applies the configured [`SwitchEffect`] to the caches
//! and raises the [`SimObserver`](crate::SimObserver) `phase_boundary` /
//! `tenant_switch` callbacks, which is how per-phase/per-tenant tail metrics
//! are carved out of one replay.

/// What a tenant context switch does to the cache hierarchy.
///
/// # Examples
///
/// ```
/// use ispy_sim::SwitchEffect;
///
/// let gentle = SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 10 };
/// assert_ne!(gentle, SwitchEffect::Flush);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchEffect {
    /// Pure attribution boundary: caches carry over untouched (an idealized
    /// core with per-tenant partitioned front-end state).
    None,
    /// Full flush of L1I and the shared L2 — the pessimistic model where the
    /// incoming tenant finds nothing of its own state.
    Flush,
    /// Partial thrash: evict the given percentage of each set's LRU tail
    /// from L1I and the shared L2. Models an intervening tenant slice that
    /// displaced the coldest fraction of the working set.
    Thrash {
        /// Percentage (0–100) of L1I contents evicted, coldest first.
        l1i_pct: u8,
        /// Percentage (0–100) of shared-L2 contents evicted, coldest first.
        l2_pct: u8,
    },
}

impl SwitchEffect {
    /// The `(l1i_pct, l2_pct)` eviction fractions this effect applies, or
    /// `None` when the caches are untouched.
    pub fn fractions(self) -> Option<(u8, u8)> {
        match self {
            SwitchEffect::None => None,
            SwitchEffect::Flush => Some((100, 100)),
            SwitchEffect::Thrash { l1i_pct, l2_pct } => Some((l1i_pct, l2_pct)),
        }
    }
}

/// A deterministic schedule of tenant switches and phase transitions over
/// trace event indices.
///
/// Both lists are `(event_index, id)` pairs with strictly increasing event
/// indices; a boundary at index `e` takes effect *before* the block at trace
/// position `e` executes. An entry at index 0 fires before the first block —
/// how a run declares its initial tenant/phase to observers.
///
/// # Examples
///
/// ```
/// use ispy_sim::{SwitchEffect, SwitchSchedule};
///
/// let sched = SwitchSchedule::new(
///     vec![(0, 0), (500, 1), (1_000, 0)], // tenants 0 → 1 → 0
///     vec![(0, 0), (800, 1)],             // phases  warmup → steady
///     SwitchEffect::Flush,
/// );
/// assert_eq!(sched.tenant_at(750), 1);
/// assert_eq!(sched.phase_at(750), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSchedule {
    switches: Vec<(u64, u32)>,
    phases: Vec<(u64, u32)>,
    effect: SwitchEffect,
}

impl SwitchSchedule {
    /// Builds a schedule from `(event_index, tenant)` switches and
    /// `(event_index, phase)` transitions.
    ///
    /// # Panics
    ///
    /// Panics if either list's event indices are not strictly increasing, or
    /// a `Thrash` percentage exceeds 100.
    pub fn new(switches: Vec<(u64, u32)>, phases: Vec<(u64, u32)>, effect: SwitchEffect) -> Self {
        assert!(
            switches.windows(2).all(|w| w[0].0 < w[1].0),
            "switch event indices must be strictly increasing"
        );
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase event indices must be strictly increasing"
        );
        if let SwitchEffect::Thrash { l1i_pct, l2_pct } = effect {
            assert!(l1i_pct <= 100 && l2_pct <= 100, "thrash percentages must be <= 100");
        }
        SwitchSchedule { switches, phases, effect }
    }

    /// The tenant switches as `(event_index, tenant)` pairs.
    pub fn switches(&self) -> &[(u64, u32)] {
        &self.switches
    }

    /// The phase transitions as `(event_index, phase)` pairs.
    pub fn phases(&self) -> &[(u64, u32)] {
        &self.phases
    }

    /// The cache effect applied at every tenant switch.
    pub fn effect(&self) -> SwitchEffect {
        self.effect
    }

    /// The tenant owning trace position `event` (0 before any switch entry).
    pub fn tenant_at(&self, event: u64) -> u32 {
        let k = self.switches.partition_point(|&(at, _)| at <= event);
        if k == 0 {
            0
        } else {
            self.switches[k - 1].1
        }
    }

    /// The phase containing trace position `event` (0 before any entry).
    pub fn phase_at(&self, event: u64) -> u32 {
        let k = self.phases.partition_point(|&(at, _)| at <= event);
        if k == 0 {
            0
        } else {
            self.phases[k - 1].1
        }
    }

    /// Whether the schedule carries no boundaries at all.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_pick_the_governing_entry() {
        let s = SwitchSchedule::new(
            vec![(0, 2), (10, 1), (20, 2)],
            vec![(5, 1), (15, 0)],
            SwitchEffect::None,
        );
        assert_eq!(s.tenant_at(0), 2);
        assert_eq!(s.tenant_at(9), 2);
        assert_eq!(s.tenant_at(10), 1);
        assert_eq!(s.tenant_at(25), 2);
        assert_eq!(s.phase_at(0), 0, "before any phase entry");
        assert_eq!(s.phase_at(5), 1);
        assert_eq!(s.phase_at(16), 0);
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = SwitchSchedule::new(Vec::new(), Vec::new(), SwitchEffect::Flush);
        assert!(s.is_empty());
        assert_eq!(s.tenant_at(100), 0);
    }

    #[test]
    fn effect_fractions() {
        assert_eq!(SwitchEffect::None.fractions(), None);
        assert_eq!(SwitchEffect::Flush.fractions(), Some((100, 100)));
        assert_eq!(SwitchEffect::Thrash { l1i_pct: 30, l2_pct: 5 }.fractions(), Some((30, 5)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_switches_panic() {
        let _ = SwitchSchedule::new(vec![(5, 0), (5, 1)], Vec::new(), SwitchEffect::None);
    }

    #[test]
    #[should_panic(expected = "<= 100")]
    fn overlarge_thrash_panics() {
        let _ = SwitchSchedule::new(
            Vec::new(),
            Vec::new(),
            SwitchEffect::Thrash { l1i_pct: 101, l2_pct: 0 },
        );
    }
}
