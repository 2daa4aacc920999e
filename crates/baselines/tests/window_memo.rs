//! The window memo a profile's dynamic CFG keeps: AsmDB's and I-SPY's
//! plans over one profile search each distinct (target, max cycles) once
//! between them, whatever their minimums, and copies of the profile plan
//! byte-identically.
//!
//! The search count is read from the process-wide telemetry registry, so
//! this file holds a single test: no other test in the binary plans
//! concurrently into the registry it swaps in.

use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::artifact::plan_to_bytes;
use ispy_core::config::DEFAULT_MAX_PREFETCH_CYCLES;
use ispy_core::{IspyConfig, Plan, Planner};
use ispy_profile::artifact::{profile_from_bytes, profile_to_bytes};
use ispy_profile::{profile, Profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_telemetry::{swap_global, Telemetry};
use ispy_trace::{apps, BlockId};
use std::collections::HashSet;
use std::sync::Arc;

/// The (target, max cycles) keys a planner targeting lines with at least
/// `min_misses` misses in a window of `max_cycles` searches on `prof`: a
/// `(min, max)` window reads the `(0, max)` search.
fn window_keys(prof: &Profile, min_misses: u64, max_cycles: u32) -> HashSet<(BlockId, u32)> {
    prof.misses
        .lines_by_count()
        .into_iter()
        .filter(|(_, s)| s.count >= min_misses)
        .filter_map(|(_, s)| s.dominant_block())
        .map(|t| (t, max_cycles))
        .collect()
}

// The only test in this binary, and it must stay so: the test harness runs
// a binary's tests on parallel threads, so a second `#[test]` here would
// race this one on the process-wide telemetry registry and make its search
// count flaky.
#[test]
fn planners_share_one_search_per_window_key() {
    let model = apps::cassandra().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 30_000);
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let (asmdb_cfg, ispy_cfg) = (AsmDbConfig::default(), IspyConfig::default());
    let asmdb = |p: &Profile| AsmDbPlanner::new(&program, p, asmdb_cfg.clone()).plan();
    let ispy = |p: &Profile| Planner::new(&program, &trace, p, ispy_cfg.clone()).plan();

    let tele = Arc::new(Telemetry::new());
    let previous = swap_global(Arc::clone(&tele));
    let searches = || tele.counter("core.window.searches");

    let asmdb_plan = asmdb(&prof);
    let asmdb_keys =
        window_keys(&prof, ispy_baselines::BASELINE_MIN_MISS_COUNT, DEFAULT_MAX_PREFETCH_CYCLES);
    assert_eq!(searches(), asmdb_keys.len() as u64);
    // I-SPY searches only the keys AsmDB left unsearched.
    let ispy_plan = ispy(&prof);
    let ispy_keys =
        window_keys(&prof, ispy_core::config::FIXED.min_miss_count, ispy_cfg.max_prefetch_cycles);
    let all_keys: HashSet<_> = asmdb_keys.union(&ispy_keys).collect();
    assert_eq!(searches(), all_keys.len() as u64);
    assert!(all_keys.len() < asmdb_keys.len() + ispy_keys.len(), "the planners share no window");
    // Another minimum with the same max reads the same searches.
    let closer = IspyConfig::default().with_distances(5, ispy_cfg.max_prefetch_cycles);
    Planner::new(&program, &trace, &prof, closer).plan();
    assert_eq!(searches(), all_keys.len() as u64);
    // Replanning searches nothing.
    assert_eq!(asmdb(&prof), asmdb_plan);
    assert_eq!(ispy(&prof), ispy_plan);
    assert_eq!(searches(), all_keys.len() as u64);

    // A clone inherits the searches; a copy decoded from the profile's
    // artifact starts without them. Both plan byte-identically.
    let bytes = |plan: &Plan| plan_to_bytes("cassandra", plan);
    let clone = prof.clone();
    assert_eq!(bytes(&ispy(&clone)), bytes(&ispy_plan));
    assert_eq!(bytes(&asmdb(&clone)), bytes(&asmdb_plan));
    assert_eq!(searches(), all_keys.len() as u64);
    let (_, decoded) = profile_from_bytes(&profile_to_bytes("cassandra", &prof)).expect("decodes");
    assert_eq!(bytes(&ispy(&decoded)), bytes(&ispy_plan));
    assert_eq!(bytes(&asmdb(&decoded)), bytes(&asmdb_plan));
    assert_eq!(searches(), 2 * all_keys.len() as u64);

    swap_global(previous);
}
