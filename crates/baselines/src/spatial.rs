//! The Contiguous-8 vs Non-contiguous-8 study (§II-D, Fig. 5).
//!
//! Both prefetchers target a window of eight cache lines after each profiled
//! miss, injected at the same timely sites I-SPY would use:
//!
//! * **Contiguous-8** prefetches the missed line plus *all* eight following
//!   lines (mask `0xFF`).
//! * **Non-contiguous-8** prefetches the missed line plus only those lines
//!   in the window that *themselves miss* in the profile.
//!
//! The paper uses the gap between the two (≈ 7.6 % mean speedup in favour of
//! non-contiguous) to motivate bitmask-based coalescing.

use crate::BASELINE_MIN_MISS_COUNT;
use ispy_core::config::{DEFAULT_MAX_PREFETCH_CYCLES, DEFAULT_MIN_PREFETCH_CYCLES};
use ispy_core::planner::{Plan, PlanStats};
use ispy_core::window::select_site;
use ispy_isa::{CoalesceMask, InjectionMap, PrefetchOp};
use ispy_profile::Profile;
use ispy_trace::{Line, Program};
use std::collections::HashSet;

/// Which window-filling policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialMode {
    /// Prefetch every line in the window after a miss.
    Contiguous,
    /// Prefetch only the window lines that also miss in the profile.
    NonContiguous,
}

/// Lines in the window after each miss (the paper's 8).
const WINDOW_BITS: u8 = 8;

/// Planner for the spatial-window prefetchers.
#[derive(Debug)]
pub struct SpatialPlanner<'a> {
    program: &'a Program,
    profile: &'a Profile,
    mode: SpatialMode,
}

impl<'a> SpatialPlanner<'a> {
    /// Creates a planner with the paper's window of 8 lines and the default
    /// prefetch distances.
    pub fn new(program: &'a Program, profile: &'a Profile, mode: SpatialMode) -> Self {
        SpatialPlanner { program, profile, mode }
    }

    /// Produces the injection plan.
    pub fn plan(&self) -> Plan {
        let mut stats = PlanStats {
            coalesced_distance_hist: vec![0; usize::from(WINDOW_BITS)],
            lines_per_op_hist: vec![0; usize::from(WINDOW_BITS) + 1],
            ..Default::default()
        };
        let mut injections = InjectionMap::new();

        // The set of lines that miss at all (for the non-contiguous filter).
        let missing: HashSet<u64> = self.profile.misses.iter().map(|(l, _)| l.raw()).collect();
        // Lines already covered as part of an earlier op's window.
        let mut covered: HashSet<u64> = HashSet::new();

        let windows =
            self.profile.cfg.window_table(DEFAULT_MIN_PREFETCH_CYCLES, DEFAULT_MAX_PREFETCH_CYCLES);
        for target in self.profile.misses.plan_order(BASELINE_MIN_MISS_COUNT) {
            let line = target.line;
            stats.target_lines += 1;
            if covered.contains(&line.raw()) {
                stats.covered_lines += 1;
                continue;
            }
            let Some(site) =
                select_site(&self.profile.cfg, windows.candidates(target.dominant).iter())
            else {
                stats.uncovered_lines += 1;
                continue;
            };
            stats.covered_lines += 1;

            let extras: Vec<Line> = (1..=u64::from(WINDOW_BITS))
                .map(|d| line.offset(d))
                .filter(|l| match self.mode {
                    SpatialMode::Contiguous => true,
                    SpatialMode::NonContiguous => missing.contains(&l.raw()),
                })
                .collect();
            covered.insert(line.raw());
            for e in &extras {
                covered.insert(e.raw());
            }

            let op = if extras.is_empty() {
                stats.ops_plain += 1;
                stats.lines_per_op_hist[0] += 1;
                PrefetchOp::Plain { target: line }
            } else {
                let mask = CoalesceMask::from_lines(line, extras.iter().copied(), WINDOW_BITS)
                    .expect("extras are within the window by construction");
                stats.ops_coalesced += 1;
                for e in &extras {
                    let d = e.distance_from(line).expect("forward") as usize;
                    stats.coalesced_distance_hist[d - 1] += 1;
                }
                let idx = extras.len().min(stats.lines_per_op_hist.len() - 1);
                stats.lines_per_op_hist[idx] += 1;
                PrefetchOp::Coalesced { base: line, mask }
            };
            injections.push(site.block, op);
        }

        stats.sites = injections.num_sites();
        stats.injected_bytes = injections.injected_bytes();
        stats.static_increase = injections.static_increase(self.program.text_bytes());
        Plan { injections, stats, context_details: Vec::new(), provenance: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::{run, RunOptions, SimConfig};
    use ispy_trace::apps;

    fn setup() -> (Program, ispy_trace::Trace, Profile) {
        let model = apps::verilator().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        (program, trace, prof)
    }

    #[test]
    fn contiguous_issues_more_lines_than_noncontiguous() {
        let (program, trace, prof) = setup();
        let cont = SpatialPlanner::new(&program, &prof, SpatialMode::Contiguous).plan();
        let nonc = SpatialPlanner::new(&program, &prof, SpatialMode::NonContiguous).plan();
        let scfg = SimConfig::default();
        let rc = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&cont.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        let rn = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&nonc.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        assert!(
            rc.pf_lines_issued + rc.pf_lines_resident >= rn.pf_lines_issued + rn.pf_lines_resident
        );
    }

    #[test]
    fn noncontiguous_is_at_least_as_fast_on_scattered_code() {
        // On a *scattered* app the window contains unrelated lines, so
        // contiguous prefetching pollutes.
        let model = apps::wordpress().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let cont = SpatialPlanner::new(&program, &prof, SpatialMode::Contiguous).plan();
        let nonc = SpatialPlanner::new(&program, &prof, SpatialMode::NonContiguous).plan();
        let scfg = SimConfig::default();
        let rc = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&cont.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        let rn = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&nonc.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        assert!(
            rn.cycles <= rc.cycles + rc.cycles / 50,
            "non-contiguous should not lose badly: {} vs {}",
            rn.cycles,
            rc.cycles
        );
    }

    #[test]
    fn both_beat_no_prefetching() {
        let (program, trace, prof) = setup();
        let scfg = SimConfig::default();
        let base = run(&program, &trace, &scfg, RunOptions::default());
        for mode in [SpatialMode::Contiguous, SpatialMode::NonContiguous] {
            let plan = SpatialPlanner::new(&program, &prof, mode).plan();
            let r = run(
                &program,
                &trace,
                &scfg,
                RunOptions {
                    compiled: Some(&plan.injections.compile(program.num_blocks())),
                    ..Default::default()
                },
            );
            assert!(r.cycles < base.cycles, "{mode:?} must help");
        }
    }
}
