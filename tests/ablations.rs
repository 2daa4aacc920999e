//! Ablations: each of I-SPY's techniques pays for itself (paper Fig. 12 and
//! the sensitivity studies).

use ispy_core::IspyConfig;
use ispy_harness::{Scale, Session};
use ispy_trace::apps;

fn session() -> Session {
    Session::with_apps(Scale::test(), vec![apps::cassandra(), apps::verilator(), apps::wordpress()])
}

/// Both single-technique variants beat the no-prefetch baseline.
#[test]
fn each_technique_beats_baseline() {
    let s = session();
    for i in 0..s.apps().len() {
        let name = s.apps()[i].name();
        let c = s.comparison(i);
        let (_, cond) = s.run_ispy_variant(i, IspyConfig::conditional_only());
        let (_, coal) = s.run_ispy_variant(i, IspyConfig::coalescing_only());
        assert!(cond.cycles < c.baseline.cycles, "{name}: conditional-only must help");
        assert!(coal.cycles < c.baseline.cycles, "{name}: coalescing-only must help");
    }
}

/// Coalescing shrinks the static footprint relative to the plain variant
/// (the §III-B claim).
#[test]
fn coalescing_reduces_static_footprint() {
    let s = session();
    let i = s.apps().iter().position(|a| a.name() == "verilator").expect("present");
    let (coal, _) = s.run_ispy_variant(i, IspyConfig::coalescing_only());
    let (plain, _) = s.run_ispy_variant(i, IspyConfig::plain());
    assert!(
        coal.stats.injected_bytes < plain.stats.injected_bytes,
        "coalescing must shrink bytes: {} vs {}",
        coal.stats.injected_bytes,
        plain.stats.injected_bytes
    );
}

/// Conditional prefetching suppresses some op firings at run time (that is
/// its entire mechanism), while the plain variant never suppresses.
#[test]
fn conditional_ops_actually_suppress() {
    let s = session();
    let i = s.apps().iter().position(|a| a.name() == "wordpress").expect("present");
    let (_, cond) = s.run_ispy_variant(i, IspyConfig::conditional_only());
    let (_, plain) = s.run_ispy_variant(i, IspyConfig::plain());
    assert!(cond.pf_ops_suppressed > 0, "contexts must suppress some firings");
    assert_eq!(plain.pf_ops_suppressed, 0);
}

/// The prefetch-distance window matters: a degenerate window (max < typical
/// fetch distances) covers less than the paper's 27..200 default.
#[test]
fn degenerate_window_hurts_coverage() {
    let s = session();
    let i = 0;
    let c = s.comparison(i);
    let (narrow_plan, narrow) = s.run_ispy_variant(i, IspyConfig::default().with_distances(1, 8));
    let default_red = c.ispy.mpki_reduction_vs(&c.baseline);
    let narrow_red = narrow.mpki_reduction_vs(&c.baseline);
    assert!(
        narrow_red < default_red,
        "a 1..8-cycle window should underperform 27..200: {narrow_red} vs {default_red}"
    );
    assert!(narrow_plan.stats.covered_lines <= c.ispy_plan.stats.covered_lines);
}

/// PEBS-style sampling degrades gracefully: a 10x-sampled profile still
/// produces a useful plan (ablation beyond the paper).
#[test]
fn sampled_profiles_still_work() {
    use ispy_core::Planner;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::SimConfig;

    let s = session();
    let ctx = &s.apps()[0];
    let c = s.comparison(0);
    let sampled = profile(&ctx.program, &ctx.trace, &SimConfig::default(), SampleRate::every(10));
    let plan = Planner::new(&ctx.program, &ctx.trace, &sampled, IspyConfig::default()).plan();
    let compiled = plan.injections.compile(ctx.program.num_blocks());
    let r = ctx.simulate(&SimConfig::default(), Some(&compiled));
    assert!(r.cycles < c.baseline.cycles, "sampled plan must still help");
}
