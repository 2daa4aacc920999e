//! Pins the deterministic planner counters of one test-scale kafka plan:
//! every `core.context.*`, `core.coalesce.*`, `core.plan.*` and
//! `core.window.*` value that a fresh `plan()`, a cold baseline plan and a
//! warm one (every line a memo hit) add to the telemetry registry. The
//! counters are sums over lines, queries and groups, so where in the
//! planner they are added must not change them, and a counter no call
//! touched stays absent rather than reading zero.
//!
//! The counters are read from the process-wide registry, so this file holds
//! a single test: no other test in the binary plans into the registry it
//! swaps in.

use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_telemetry::Telemetry;
use ispy_trace::apps;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The counters under the four planner prefixes.
fn planner_counters(tele: &Telemetry) -> BTreeMap<String, u64> {
    let prefixes = ["core.context.", "core.coalesce.", "core.plan.", "core.window."];
    tele.counters()
        .into_iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .collect()
}

// The only test in this binary, and it must stay so: the test harness runs
// a binary's tests on parallel threads, so a second `#[test]` here would
// race this one on the process-wide telemetry registry and make its pinned
// counts flaky.
#[test]
fn test_scale_kafka_plan_counters_are_pinned() {
    // `Scale::test()`: a 20x shrink, 50k trace events, exact sampling.
    let model = apps::kafka().scaled_down(20);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 50_000);
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let planner = Planner::new(&program, &trace, &prof, IspyConfig::default());

    let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    planner.plan();
    let fresh = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    // Every window search is already memoized on the profile, and every
    // line is analyzed again (a cold baseline).
    let baseline = PlannerBaseline::new();
    planner.plan_with_baseline(&baseline);
    let cold = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    // Every line replays its memoized outcome: no context query runs.
    planner.plan_with_baseline(&baseline);
    let warm = ispy_telemetry::swap_global(previous);

    let got = [planner_counters(&fresh), planner_counters(&cold), planner_counters(&warm)];
    let want: [BTreeMap<String, u64>; 3] = [FRESH, COLD, WARM]
        .map(|pins| pins.iter().map(|&(name, v)| (name.to_string(), v)).collect());
    assert_eq!(got, want);
}

const FRESH: &[(&str, u64)] = &[
    ("core.coalesce.calls", 970),
    ("core.coalesce.groups", 1084),
    ("core.coalesce.lines_merged", 857),
    ("core.context.contexts_adopted", 745),
    ("core.context.queries", 1787),
    ("core.context.subsets_evaluated", 159468),
    ("core.plan.calls", 1),
    ("core.plan.contexts_adopted", 612),
    ("core.plan.covered_lines", 1012),
    ("core.plan.entries_dropped", 366),
    ("core.plan.memo_hits", 0),
    ("core.plan.memo_misses", 0),
    ("core.plan.ops_emitted", 1084),
    ("core.plan.target_lines", 1065),
    ("core.window.candidates_found", 33080),
    ("core.window.nodes_expanded", 49179),
    ("core.window.rejected_untimely", 15158),
    ("core.window.searches", 941),
];

const COLD: &[(&str, u64)] = &[
    ("core.coalesce.calls", 970),
    ("core.coalesce.groups", 1084),
    ("core.coalesce.lines_merged", 857),
    ("core.context.contexts_adopted", 745),
    ("core.context.queries", 1787),
    ("core.context.subsets_evaluated", 159468),
    ("core.plan.calls", 1),
    ("core.plan.contexts_adopted", 612),
    ("core.plan.covered_lines", 1012),
    ("core.plan.entries_dropped", 366),
    ("core.plan.memo_hits", 0),
    ("core.plan.memo_misses", 1065),
    ("core.plan.ops_emitted", 1084),
    ("core.plan.target_lines", 1065),
];

const WARM: &[(&str, u64)] = &[
    ("core.coalesce.calls", 970),
    ("core.coalesce.groups", 1084),
    ("core.coalesce.lines_merged", 857),
    ("core.plan.calls", 1),
    ("core.plan.contexts_adopted", 612),
    ("core.plan.covered_lines", 1012),
    ("core.plan.entries_dropped", 366),
    ("core.plan.memo_hits", 1065),
    ("core.plan.memo_misses", 0),
    ("core.plan.ops_emitted", 1084),
    ("core.plan.target_lines", 1065),
];
