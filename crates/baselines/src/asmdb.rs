//! AsmDB prototype (the paper's state-of-the-art software baseline).
//!
//! AsmDB injects one unconditional single-line code prefetch per miss, at a
//! predecessor within the prefetch window whose fan-out does not exceed a
//! threshold (the paper finds real applications need the threshold as high
//! as 99 % for coverage, which is what destroys its accuracy — Fig. 3).
//! It has neither conditional execution nor coalescing.

use crate::BASELINE_MIN_MISS_COUNT;
use ispy_core::config::{DEFAULT_MAX_PREFETCH_CYCLES, DEFAULT_MIN_PREFETCH_CYCLES};
use ispy_core::planner::{Plan, PlanStats};
use ispy_core::window::select_site;
use ispy_isa::{InjectionMap, PrefetchOp};
use ispy_profile::Profile;
use ispy_trace::Program;

/// AsmDB configuration: its one dial. The prefetch window and the miss
/// floor are fixed ([`crate::BASELINE_MIN_MISS_COUNT`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AsmDbConfig {
    /// Maximum tolerated fan-out at the injection site (paper: ≈ 0.99).
    pub fanout_threshold: f64,
}

impl Default for AsmDbConfig {
    fn default() -> Self {
        AsmDbConfig { fanout_threshold: 0.99 }
    }
}

impl AsmDbConfig {
    /// Returns the configuration with a different fan-out threshold
    /// (the Fig. 3 sweep knob).
    #[must_use]
    pub fn with_fanout_threshold(mut self, t: f64) -> Self {
        self.fanout_threshold = t;
        self
    }
}

/// The AsmDB offline pass.
pub struct AsmDbPlanner<'a> {
    program: &'a Program,
    profile: &'a Profile,
    cfg: AsmDbConfig,
}

impl<'a> AsmDbPlanner<'a> {
    /// Creates a planner over one application's profile.
    pub fn new(program: &'a Program, profile: &'a Profile, cfg: AsmDbConfig) -> Self {
        AsmDbPlanner { program, profile, cfg }
    }

    /// Produces the AsmDB injection plan. AsmDB searches the same timely
    /// window as I-SPY, through the profile's memo
    /// ([`ispy_profile::DynCfg::window_table`]), so after either planner
    /// has run on a profile the other finds its targets already searched.
    pub fn plan(&self) -> Plan {
        let mut stats = PlanStats {
            coalesced_distance_hist: vec![0; 8],
            lines_per_op_hist: vec![0; 9],
            ..Default::default()
        };
        let mut injections = InjectionMap::new();
        let windows =
            self.profile.cfg.window_table(DEFAULT_MIN_PREFETCH_CYCLES, DEFAULT_MAX_PREFETCH_CYCLES);
        for target in self.profile.misses.plan_order(BASELINE_MIN_MISS_COUNT) {
            stats.target_lines += 1;
            // The fan-out threshold is AsmDB's coverage/accuracy dial: only
            // sites below it are admissible.
            let admissible = windows
                .candidates(target.dominant)
                .iter()
                .filter(|c| c.fanout() <= self.cfg.fanout_threshold);
            let Some(site) = select_site(&self.profile.cfg, admissible) else {
                stats.uncovered_lines += 1;
                continue;
            };
            stats.covered_lines += 1;
            stats.ops_plain += 1;
            stats.lines_per_op_hist[0] += 1;
            injections.push(site.block, PrefetchOp::Plain { target: target.line });
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
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        (program, trace, prof)
    }

    #[test]
    fn asmdb_injects_only_plain_ops() {
        let (program, _, prof) = setup();
        let plan = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();
        assert!(plan.stats.ops_plain > 0);
        assert_eq!(plan.stats.ops_cond, 0);
        assert_eq!(plan.stats.ops_coalesced, 0);
        assert_eq!(plan.stats.ops_cond_coalesced, 0);
        for (_, ops) in plan.injections.iter() {
            for op in ops {
                assert!(matches!(op, PrefetchOp::Plain { .. }));
            }
        }
    }

    #[test]
    fn asmdb_speeds_up_but_fires_everywhere() {
        let (program, trace, prof) = setup();
        let plan = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();
        let scfg = SimConfig::default();
        let base = run(&program, &trace, &scfg, RunOptions::default());
        let with = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&plan.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        assert!(with.cycles < base.cycles);
        // Unconditional: every executed op fires.
        assert_eq!(with.pf_ops_fired, with.pf_ops_executed);
        assert_eq!(with.pf_ops_suppressed, 0);
    }

    #[test]
    fn lower_threshold_reduces_coverage() {
        let (program, _, prof) = setup();
        let strict =
            AsmDbPlanner::new(&program, &prof, AsmDbConfig::default().with_fanout_threshold(0.05))
                .plan();
        let loose =
            AsmDbPlanner::new(&program, &prof, AsmDbConfig::default().with_fanout_threshold(0.99))
                .plan();
        assert!(strict.stats.covered_lines < loose.stats.covered_lines);
        assert!(strict.stats.planned_coverage() < loose.stats.planned_coverage());
    }

    #[test]
    fn threshold_zero_keeps_only_sure_sites() {
        let (program, _, prof) = setup();
        let plan =
            AsmDbPlanner::new(&program, &prof, AsmDbConfig::default().with_fanout_threshold(0.0))
                .plan();
        // Whatever remains covered was reached with probability 1.
        assert!(plan.stats.covered_lines <= plan.stats.target_lines);
    }

    #[test]
    fn shared_baseline_plans_match_fresh_plans() {
        use ispy_core::config::IspyConfig;
        use ispy_core::planner::Planner;
        use ispy_profile::artifact::{profile_from_bytes, profile_to_bytes};
        let (program, trace, prof) = setup();
        // A decoded copy's CFG carries no window searches yet.
        let bytes = profile_to_bytes("cassandra", &prof);
        let fresh = || profile_from_bytes(&bytes).expect("round trip").1;
        let asmdb = |p: &Profile| AsmDbPlanner::new(&program, p, AsmDbConfig::default()).plan();
        let ispy = |p: &Profile| Planner::new(&program, &trace, p, IspyConfig::default()).plan();
        let (fresh_asmdb, fresh_ispy) = (asmdb(&fresh()), ispy(&fresh()));
        // I-SPY first: AsmDB finds its windows already searched.
        let shared = fresh();
        assert_eq!(ispy(&shared), fresh_ispy);
        assert_eq!(asmdb(&shared), fresh_asmdb);
        // AsmDB first: I-SPY finds them instead.
        let shared = fresh();
        assert_eq!(asmdb(&shared), fresh_asmdb);
        assert_eq!(ispy(&shared), fresh_ispy);
    }

    #[test]
    fn deterministic() {
        let (program, _, prof) = setup();
        let a = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();
        let b = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();
        assert_eq!(a.injections, b.injections);
    }
}
