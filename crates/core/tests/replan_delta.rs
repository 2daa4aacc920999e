//! Property tests for the incremental replanner: `replan_delta` must be
//! byte-identical to a from-scratch `plan()` over the updated profile, for
//! every app, every config variant, and every delta shape (adds, removals
//! of a line's last miss, empty deltas, out-of-order window arrival).

use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_profile::{window_delta, MissSample, ProfileAccumulator, ProfileDelta, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::apps;

/// A tiny deterministic PRNG so the removal sets vary per app without any
/// run-to-run flakiness.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

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

/// Builds (program, trace, full profile, that profile's own samples) for one
/// app, with the samples in removable (raw) form.
fn prepared(
    model: ispy_trace::AppModel,
    events: usize,
) -> (ispy_trace::Program, ispy_trace::Trace, ispy_profile::Profile, Vec<MissSample>) {
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), events);
    let cfg = SimConfig::default();
    let delta = window_delta(&program, &[], trace.blocks(), &cfg, SampleRate::EXACT, 0);
    let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    acc.fold(&delta);
    let profile = acc.profile();
    (program, trace, profile, delta.added)
}

/// Picks a removal set: whole lightest lines (so at least one line loses its
/// *last* miss) plus a seeded sprinkle of samples from heavier lines.
fn removal_set(
    profile: &ispy_profile::Profile,
    samples: &[MissSample],
    seed: u64,
) -> Vec<MissSample> {
    let mut rng = XorShift(seed | 1);
    let by_count = profile.misses.lines_by_count();
    // lines_by_count is heaviest-first; take the two lightest lines whole.
    let whole: Vec<u64> = by_count.iter().rev().take(2).map(|(l, _)| l.raw()).collect();
    let mut removed: Vec<MissSample> = Vec::new();
    for s in samples {
        // Short-circuit keeps the RNG stream identical to the original
        // two-branch form: whole-line samples never consume a draw.
        if whole.contains(&s.line.raw()) || rng.next().is_multiple_of(97) {
            removed.push(s.clone());
        }
    }
    removed
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
                    let (program, trace, full, samples) = prepared(model.scaled_down(40), 10_000);
                    assert!(full.misses.num_lines() >= 3, "{name}: too few miss lines to test");
                    let removed = removal_set(&full, &samples, 0x9e37_79b9 + i as u64);
                    assert!(!removed.is_empty(), "{name}: empty removal set");
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
                    // profile, remove a line's last miss, replan.
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
    let (program, trace, full, samples) = prepared(apps::kafka().scaled_down(40), 10_000);
    let removed = removal_set(&full, &samples, 0x5eed);
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
