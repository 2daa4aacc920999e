//! Property tests for the incremental replanner: `replan_delta` must be
//! byte-identical to a from-scratch `plan()` over the updated profile, for
//! every app, every config variant, and every delta shape (adds, removals
//! of a line's last miss and of part of a line's misses, empty deltas,
//! out-of-order window arrival). Deltas are window-granular: a profile is
//! the fold of independent windows, and a delta is one window's misses.

use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_profile::{
    window_delta, MissProfile, Profile, ProfileAccumulator, ProfileDelta, SampleRate,
};
use ispy_sim::SimConfig;
use ispy_trace::{apps, AppModel, Program, Trace};

/// Windows each prepared trace is profiled in.
const WINDOWS: usize = 4;

fn config_variants() -> Vec<IspyConfig> {
    vec![
        IspyConfig::default(),
        IspyConfig::conditional_only(),
        IspyConfig::coalescing_only(),
        IspyConfig::plain(),
        IspyConfig::default().with_ctx_size(2),
        IspyConfig::default().with_ctx_size(8),
        IspyConfig::default().with_distances(15, 200),
        IspyConfig::default().with_distances(27, 120),
        IspyConfig::default().with_coalesce_bits(4),
    ]
}

fn assert_plans_equal(a: &Plan, b: &Plan, what: &str) {
    assert_eq!(a.injections, b.injections, "{what}: injections");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.context_details, b.context_details, "{what}: context details");
    assert_eq!(a.provenance, b.provenance, "{what}: provenance");
}

/// Builds (program, trace, full profile, one window's misses) for one app.
/// The profile is the fold of `WINDOWS` independent (unwarmed) windows.
/// The misses are those of the first window, counting round from `k`,
/// whose removal takes some line's last miss and only part of another
/// line's misses.
fn prepared(model: AppModel, events: usize, k: usize) -> (Program, Trace, Profile, MissProfile) {
    let name = model.name().to_string();
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), events);
    let cfg = SimConfig::default();
    let window = events.div_ceil(WINDOWS);
    let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    let mut windows = Vec::new();
    for (i, chunk) in trace.blocks().chunks(window).enumerate() {
        let delta =
            window_delta(&program, &[], chunk, &cfg, SampleRate::EXACT, (i * window) as u64);
        acc.fold(&delta);
        windows.push(delta.added);
    }
    let profile = acc.profile();
    let left = |line, removed: &ispy_profile::LineMissStats| {
        profile.misses.line(line).expect("a window's line is in the profile").count - removed.count
    };
    let removed = (0..WINDOWS)
        .map(|j| std::mem::take(&mut windows[(k + j) % WINDOWS]))
        .find(|w| {
            w.iter().any(|(line, s)| left(line, s) == 0)
                && w.iter().any(|(line, s)| left(line, s) > 0)
        })
        .unwrap_or_else(|| panic!("{name}: no window removes both a whole line and part of one"));
    (program, trace, profile, removed)
}

#[test]
fn replan_delta_matches_fresh_plan_across_apps_and_configs() {
    let models = [
        apps::cassandra(),
        apps::drupal(),
        apps::finagle_chirper(),
        apps::finagle_http(),
        apps::kafka(),
        apps::mediawiki(),
        apps::tomcat(),
        apps::verilator(),
        apps::wordpress(),
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .into_iter()
            .enumerate()
            .map(|(i, model)| {
                s.spawn(move || {
                    let name = model.name().to_string();
                    let (program, trace, full, removed) =
                        prepared(model.scaled_down(40), 10_000, i % WINDOWS);
                    assert!(full.misses.num_lines() >= 3, "{name}: too few miss lines to test");
                    let add_back = ProfileDelta { added: removed.clone(), ..Default::default() };
                    let remove = ProfileDelta { removed, ..Default::default() };
                    for cfg in config_variants() {
                        // Warm a baseline on the reduced profile, then fold
                        // the delta back in and replan incrementally.
                        let mut reduced = full.clone();
                        reduced.apply_miss_delta(&remove);
                        let baseline = PlannerBaseline::new();
                        let _warm = Planner::new(&program, &trace, &reduced, cfg.clone())
                            .plan_with_baseline(&baseline);
                        reduced.apply_miss_delta(&add_back);
                        let planner = Planner::new(&program, &trace, &reduced, cfg.clone());
                        let replan = planner.replan_delta(&baseline, &add_back);
                        let fresh = planner.plan();
                        assert_plans_equal(&replan, &fresh, &format!("{name} {cfg:?} add"));
                        // An empty delta must replay everything from memo.
                        let noop = planner.replan_delta(&baseline, &ProfileDelta::default());
                        assert_plans_equal(&noop, &fresh, &format!("{name} {cfg:?} empty"));
                    }
                    // Removal direction (default config): warm on the full
                    // profile, remove one window's misses, replan.
                    let mut shrunk = full.clone();
                    let baseline = PlannerBaseline::new();
                    let _warm = Planner::new(&program, &trace, &full, IspyConfig::default())
                        .plan_with_baseline(&baseline);
                    shrunk.apply_miss_delta(&remove);
                    let planner = Planner::new(&program, &trace, &shrunk, IspyConfig::default());
                    let replan = planner.replan_delta(&baseline, &remove);
                    let fresh = planner.plan();
                    assert_plans_equal(&replan, &fresh, &format!("{name} remove"));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("app thread");
        }
    });
}

#[test]
fn out_of_order_window_arrival_plans_identically() {
    let model = apps::kafka().scaled_down(40);
    let program = model.generate();
    let events = 9_000usize;
    let trace = program.record_trace(model.default_input(), events);
    let cfg = SimConfig::default();
    let window = 3_000usize;
    let deltas: Vec<ProfileDelta> = trace
        .blocks()
        .chunks(window)
        .enumerate()
        .map(|(k, chunk)| {
            window_delta(&program, &[], chunk, &cfg, SampleRate::EXACT, (k * window) as u64)
        })
        .collect();
    let mut fwd = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    for d in &deltas {
        fwd.fold(d);
    }
    let mut rev = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    for d in deltas.iter().rev() {
        rev.fold(d);
    }
    let (pf, pr) = (fwd.profile(), rev.profile());
    let plan_f = Planner::new(&program, &trace, &pf, IspyConfig::default()).plan();
    let plan_r = Planner::new(&program, &trace, &pr, IspyConfig::default()).plan();
    assert_plans_equal(&plan_f, &plan_r, "window arrival order");

    // The two arrival orders produce digest-identical profiles, so a memo
    // warmed under one must fully serve a replan under the other.
    let baseline = PlannerBaseline::new();
    let _warm =
        Planner::new(&program, &trace, &pf, IspyConfig::default()).plan_with_baseline(&baseline);
    let replan = Planner::new(&program, &trace, &pr, IspyConfig::default())
        .replan_delta(&baseline, &ProfileDelta::default());
    assert_plans_equal(&replan, &plan_f, "cross-arrival-order memo reuse");
}

#[test]
fn replan_delta_drops_every_configs_memo_slot() {
    // One baseline warmed under two configs with different pass-1 windows
    // holds two memo slots per line. A delta must invalidate both: each
    // config's replan equals its fresh plan over the updated profile.
    let (program, trace, full, removed) = prepared(apps::kafka().scaled_down(40), 10_000, 2);
    let add_back = ProfileDelta { added: removed.clone(), ..Default::default() };
    let remove = ProfileDelta { removed, ..Default::default() };
    let configs = [IspyConfig::default(), IspyConfig::default().with_distances(15, 200)];
    let mut profile = full.clone();
    profile.apply_miss_delta(&remove);
    let baseline = PlannerBaseline::new();
    for cfg in &configs {
        let _warm =
            Planner::new(&program, &trace, &profile, cfg.clone()).plan_with_baseline(&baseline);
    }
    profile.apply_miss_delta(&add_back);
    for cfg in &configs {
        let planner = Planner::new(&program, &trace, &profile, cfg.clone());
        let replan = planner.replan_delta(&baseline, &add_back);
        assert_plans_equal(&replan, &planner.plan(), &format!("{cfg:?} after the delta"));
    }
    // An empty delta invalidates nothing: each config replans from its own
    // slots, re-analyzing only the lines the other config's replan dropped.
    for cfg in &configs {
        let planner = Planner::new(&program, &trace, &profile, cfg.clone());
        let replan = planner.replan_delta(&baseline, &ProfileDelta::default());
        assert_plans_equal(&replan, &planner.plan(), &format!("{cfg:?} from the memo"));
    }
}
