//! The per-line memo keeps one slot per config: sweep points interleaved
//! against one `PlannerBaseline` must not evict each other, and a point
//! that differs from an earlier one only in pass 3's knobs (coalescing
//! width, hash) re-analyzes no line.
//!
//! Plans of one config that run concurrently analyze each line once, so the
//! counts do not depend on the schedule.
//!
//! The memo's hit and miss counts are read from the process-wide telemetry
//! registry, so this file holds a single test: no other test in the binary
//! plans concurrently into the registry it swaps in.

use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_isa::HashConfig;
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_telemetry::Telemetry;
use ispy_trace::apps;
use std::sync::{Arc, Barrier};

#[test]
fn interleaved_configs_keep_their_own_memo_slots() {
    let model = apps::cassandra().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 20_000);
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let a = IspyConfig::default();
    let b = IspyConfig::default().with_distances(15, 200);
    let steps = [
        ("A", a.clone()),
        ("B", b),
        ("A again", a.clone()),
        ("A, 4-bit coalescing", a.clone().with_coalesce_bits(4)),
        ("A, 8-bit single hash", a.with_hash(HashConfig::new(8, 1))),
    ];
    let baseline = PlannerBaseline::new();
    // (hits, misses) per step, each read from a fresh registry.
    let mut counts: Vec<(u64, u64)> = Vec::new();
    let mut target_lines = 0;
    for (name, cfg) in &steps {
        let planner = Planner::new(&program, &trace, &prof, cfg.clone());
        let fresh = planner.plan();
        let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
        let reused = planner.plan_with_baseline(&baseline);
        let tele = ispy_telemetry::swap_global(previous);
        assert_plans_equal(&reused, &fresh, name);
        counts.push((tele.counter("core.plan.memo_hits"), tele.counter("core.plan.memo_misses")));
        target_lines = fresh.stats.target_lines as u64;
    }
    assert!(target_lines > 10, "too few target lines to test: {target_lines}");
    let all_miss = (0, target_lines);
    let all_hit = (target_lines, 0);
    // A and B each analyze every line; B does not evict A, so A's second
    // plan and its pass-3-only variants re-analyze none.
    assert_eq!(counts, vec![all_miss, all_miss, all_hit, all_hit, all_hit]);

    // Four coalescing widths of one config, released at once on a fresh
    // baseline: one of them analyzes every line, the other three hit.
    let baseline = PlannerBaseline::new();
    let start = Barrier::new(4);
    let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    std::thread::scope(|s| {
        for bits in [1, 2, 4, 8] {
            let (program, trace, prof, baseline, start) =
                (&program, &trace, &prof, &baseline, &start);
            s.spawn(move || {
                let cfg = IspyConfig::coalescing_only().with_coalesce_bits(bits);
                let planner = Planner::new(program, trace, prof, cfg);
                let fresh = planner.plan();
                start.wait();
                let reused = planner.plan_with_baseline(baseline);
                assert_plans_equal(&reused, &fresh, &format!("{bits}-bit, concurrent"));
            });
        }
    });
    let tele = ispy_telemetry::swap_global(previous);
    let concurrent = (tele.counter("core.plan.memo_hits"), tele.counter("core.plan.memo_misses"));
    assert_eq!(concurrent, (3 * target_lines, target_lines));
}

fn assert_plans_equal(a: &Plan, b: &Plan, what: &str) {
    assert_eq!(a.injections, b.injections, "{what}: injections");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.context_details, b.context_details, "{what}: context details");
    assert_eq!(a.provenance, b.provenance, "{what}: provenance");
}
