//! Simulation results and the derived metrics the paper reports.

/// Raw counters plus derived metrics from one simulation run.
///
/// # Examples
///
/// ```
/// use ispy_sim::{run, RunOptions, SimConfig};
/// use ispy_trace::apps;
///
/// let model = apps::kafka().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 10_000);
/// let r = run(&program, &trace, &SimConfig::default(), RunOptions::default());
/// assert!(r.mpki() >= 0.0);
/// assert!(r.frontend_bound() <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions executed, *including* injected prefetch
    /// instructions.
    pub instrs: u64,
    /// Dynamic instructions of the original binary (excluding injections).
    pub base_instrs: u64,
    /// Basic-block events replayed.
    pub blocks: u64,

    /// Demand L1 I-cache line accesses.
    pub i_accesses: u64,
    /// Demand L1 I-cache misses (late prefetches included).
    pub i_misses: u64,
    /// Cycles the front end stalled waiting for instruction lines.
    pub i_stall_cycles: u64,

    /// Demand data accesses.
    pub d_accesses: u64,
    /// Demand data misses (any level beyond L1D).
    pub d_misses: u64,
    /// Backend stall cycles charged to data misses.
    pub d_stall_cycles: u64,

    /// Injected prefetch instructions executed (dynamic code footprint).
    pub pf_ops_executed: u64,
    /// Injected ops whose condition was met (or that were unconditional).
    pub pf_ops_fired: u64,
    /// Injected ops suppressed by a non-matching context.
    pub pf_ops_suppressed: u64,
    /// Prefetch line requests issued to the memory system (non-resident).
    pub pf_lines_issued: u64,
    /// Prefetch line requests whose target was already in L1I.
    pub pf_lines_resident: u64,
    /// Prefetched lines that were demanded before eviction (useful).
    pub pf_useful: u64,
    /// Demanded while still in flight (late but partially useful).
    pub pf_late: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub pf_evicted_unused: u64,
}

impl SimResult {
    /// Counter-wise difference `self − earlier`, where `earlier` is a
    /// snapshot taken earlier in the same run — how
    /// [`run_adaptive`](crate::run_adaptive) reports each window's share of
    /// the counters. Every counter is monotone during replay, so the
    /// difference is exact; callers must uphold that `earlier` really is an
    /// earlier snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &SimResult) -> SimResult {
        // Exhaustive field list (no `..`): adding a counter to SimResult
        // without teaching the per-window deltas about it must not compile.
        SimResult {
            cycles: self.cycles - earlier.cycles,
            instrs: self.instrs - earlier.instrs,
            base_instrs: self.base_instrs - earlier.base_instrs,
            blocks: self.blocks - earlier.blocks,
            i_accesses: self.i_accesses - earlier.i_accesses,
            i_misses: self.i_misses - earlier.i_misses,
            i_stall_cycles: self.i_stall_cycles - earlier.i_stall_cycles,
            d_accesses: self.d_accesses - earlier.d_accesses,
            d_misses: self.d_misses - earlier.d_misses,
            d_stall_cycles: self.d_stall_cycles - earlier.d_stall_cycles,
            pf_ops_executed: self.pf_ops_executed - earlier.pf_ops_executed,
            pf_ops_fired: self.pf_ops_fired - earlier.pf_ops_fired,
            pf_ops_suppressed: self.pf_ops_suppressed - earlier.pf_ops_suppressed,
            pf_lines_issued: self.pf_lines_issued - earlier.pf_lines_issued,
            pf_lines_resident: self.pf_lines_resident - earlier.pf_lines_resident,
            pf_useful: self.pf_useful - earlier.pf_useful,
            pf_late: self.pf_late - earlier.pf_late,
            pf_evicted_unused: self.pf_evicted_unused - earlier.pf_evicted_unused,
        }
    }

    /// Adds every counter of `other` into `self` — summing
    /// [`AdaptiveRun::windows`](crate::AdaptiveRun::windows) this way gives
    /// back the run's total.
    pub fn accumulate(&mut self, other: &SimResult) {
        *self = SimResult {
            cycles: self.cycles + other.cycles,
            instrs: self.instrs + other.instrs,
            base_instrs: self.base_instrs + other.base_instrs,
            blocks: self.blocks + other.blocks,
            i_accesses: self.i_accesses + other.i_accesses,
            i_misses: self.i_misses + other.i_misses,
            i_stall_cycles: self.i_stall_cycles + other.i_stall_cycles,
            d_accesses: self.d_accesses + other.d_accesses,
            d_misses: self.d_misses + other.d_misses,
            d_stall_cycles: self.d_stall_cycles + other.d_stall_cycles,
            pf_ops_executed: self.pf_ops_executed + other.pf_ops_executed,
            pf_ops_fired: self.pf_ops_fired + other.pf_ops_fired,
            pf_ops_suppressed: self.pf_ops_suppressed + other.pf_ops_suppressed,
            pf_lines_issued: self.pf_lines_issued + other.pf_lines_issued,
            pf_lines_resident: self.pf_lines_resident + other.pf_lines_resident,
            pf_useful: self.pf_useful + other.pf_useful,
            pf_late: self.pf_late + other.pf_late,
            pf_evicted_unused: self.pf_evicted_unused + other.pf_evicted_unused,
        };
    }

    /// L1 I-cache misses per kilo-instruction, counted against the original
    /// binary's instructions so configurations are comparable.
    pub fn mpki(&self) -> f64 {
        if self.base_instrs == 0 {
            0.0
        } else {
            self.i_misses as f64 * 1000.0 / self.base_instrs as f64
        }
    }

    /// Fraction of cycles stalled on instruction fetch (paper Fig. 1's
    /// "frontend-bound" share).
    pub fn frontend_bound(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.i_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle (including injected ops).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of an ideal configuration's speedup this run achieved,
    /// relative to a common baseline: `(base - self) / (base - ideal)`
    /// in cycles. 1.0 = ideal, 0.0 = no better than baseline.
    pub fn fraction_of_ideal(&self, baseline: &SimResult, ideal: &SimResult) -> f64 {
        let denom = baseline.cycles.saturating_sub(ideal.cycles) as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        baseline.cycles.saturating_sub(self.cycles) as f64 / denom
    }

    /// Prefetch accuracy: useful prefetches over issued (non-resident)
    /// prefetch lines.
    pub fn accuracy(&self) -> f64 {
        if self.pf_lines_issued == 0 {
            0.0
        } else {
            self.pf_useful as f64 / self.pf_lines_issued as f64
        }
    }

    /// MPKI reduction relative to a baseline (0..1).
    pub fn mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.mpki() <= 0.0 {
            0.0
        } else {
            (1.0 - self.mpki() / baseline.mpki()).max(0.0)
        }
    }

    /// Dynamic code-footprint increase: injected ops executed over the
    /// original dynamic instruction count.
    pub fn dynamic_increase(&self) -> f64 {
        if self.base_instrs == 0 {
            0.0
        } else {
            self.pf_ops_executed as f64 / self.base_instrs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            cycles: 1000,
            instrs: 2100,
            base_instrs: 2000,
            blocks: 100,
            i_accesses: 500,
            i_misses: 50,
            i_stall_cycles: 400,
            pf_ops_executed: 100,
            pf_ops_fired: 80,
            pf_ops_suppressed: 20,
            pf_lines_issued: 90,
            pf_useful: 72,
            pf_evicted_unused: 10,
            ..Default::default()
        }
    }

    #[test]
    fn mpki_math() {
        assert!((sample().mpki() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn frontend_bound_math() {
        assert!((sample().frontend_bound() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn speedup_math() {
        let fast = SimResult { cycles: 500, ..sample() };
        assert!((fast.speedup_over(&sample()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_ideal_bounds() {
        let base = SimResult { cycles: 1000, ..Default::default() };
        let ideal = SimResult { cycles: 600, ..Default::default() };
        let mid = SimResult { cycles: 700, ..Default::default() };
        assert!((mid.fraction_of_ideal(&base, &ideal) - 0.75).abs() < 1e-12);
        assert!((ideal.fraction_of_ideal(&base, &ideal) - 1.0).abs() < 1e-12);
        assert!((base.fraction_of_ideal(&base, &ideal)).abs() < 1e-12);
    }

    #[test]
    fn accuracy_math() {
        assert!((sample().accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn coverage_and_mpki_reduction() {
        let base = SimResult { i_misses: 100, base_instrs: 2000, ..Default::default() };
        let better = SimResult { i_misses: 5, base_instrs: 2000, ..Default::default() };
        assert!((better.mpki_reduction_vs(&base) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn dynamic_increase_math() {
        assert!((sample().dynamic_increase() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn delta_and_accumulate_roundtrip_every_field() {
        // All-distinct, all-nonzero values so a counter dropped from either
        // helper shows up as a mismatch.
        let full = SimResult {
            cycles: 1,
            instrs: 2,
            base_instrs: 3,
            blocks: 4,
            i_accesses: 5,
            i_misses: 6,
            i_stall_cycles: 7,
            d_accesses: 8,
            d_misses: 9,
            d_stall_cycles: 10,
            pf_ops_executed: 11,
            pf_ops_fired: 12,
            pf_ops_suppressed: 13,
            pf_lines_issued: 14,
            pf_lines_resident: 15,
            pf_useful: 16,
            pf_late: 17,
            pf_evicted_unused: 18,
        };
        assert_eq!(full.delta_since(&SimResult::default()), full);
        assert_eq!(full.delta_since(&full), SimResult::default());
        let mut sum = SimResult::default();
        sum.accumulate(&full);
        assert_eq!(sum, full);
        sum.accumulate(&full);
        assert_eq!(sum.delta_since(&full), full);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let z = SimResult::default();
        assert_eq!(z.mpki(), 0.0);
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.accuracy(), 0.0);
        assert_eq!(z.frontend_bound(), 0.0);
        assert_eq!(z.dynamic_increase(), 0.0);
        assert_eq!(z.speedup_over(&z), 0.0);
    }
}
