//! The per-line memo keeps one slot per config: sweep points interleaved
//! against one `PlannerBaseline` must not evict each other, and a point
//! that differs from an earlier one only in pass 3's knobs (coalescing
//! width, hash) re-analyzes no line.
//!
//! Plans of one config that run concurrently analyze each line once, so the
//! counts do not depend on the schedule.
//!
//! A slot stores a line's decisions compactly (site indices into the line's
//! window candidates, two flags, the adopted contexts), and pass 3 rebuilds
//! every estimate from it. At every grid point of Figs. 17, 18 and 19 on
//! two apps, a plan served wholly from the memo must encode to the same
//! bytes as `plan()`, over slots of every kind: no sites with and without
//! window candidates, and dropped, unconditional, retried and
//! multi-context entries.
//!
//! The memo's hit and miss counts are read from the process-wide telemetry
//! registry, so this file holds a single test: no other test in the binary
//! plans concurrently into the registry it swaps in.

use ispy_core::artifact::plan_to_bytes;
use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_isa::HashConfig;
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_telemetry::Telemetry;
use ispy_trace::{apps, BlockId, Line};
use std::collections::{BTreeMap, BTreeSet};
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

    sweep_points_replay_from_the_memo_byte_for_byte();
}

/// Every config point of the Fig. 17 (context size), Fig. 18 (prefetch
/// window) and Fig. 19 (coalescing width) grids, as the harness sweeps
/// them.
fn sweep_grid() -> Vec<IspyConfig> {
    let ctx_sizes = [1, 2, 4, 8, 16, 32];
    let (min_sweep, max_sweep) = ([5, 15, 27, 60, 100], [60, 120, 200, 300]);
    let bits = [1, 2, 4, 8, 16, 32, 64];
    let mut grid: Vec<IspyConfig> =
        ctx_sizes.iter().map(|&n| IspyConfig::conditional_only().with_ctx_size(n)).collect();
    grid.extend(min_sweep.iter().map(|&min| IspyConfig::default().with_distances(min, 200)));
    grid.extend(max_sweep.iter().map(|&max| IspyConfig::default().with_distances(27, max)));
    grid.extend(bits.iter().map(|&b| IspyConfig::coalescing_only().with_coalesce_bits(b)));
    grid
}

/// How often each slot kind occurred across the plans checked.
#[derive(Debug, Default)]
struct Kinds {
    no_candidates: usize,
    no_sites: usize,
    dropped: usize,
    unconditional: usize,
    retried: usize,
    multi_context: usize,
}

impl Kinds {
    /// Adds the kinds `plan` shows: the uncovered-line and dropped-entry
    /// stats, unconditional ops, and (site, line) pairs with several
    /// contexts. `retried` is whether pass 2.5 retried a site.
    fn add(&mut self, plan: &Plan, retried: bool) {
        let s = &plan.stats;
        self.no_candidates += s.lines_no_candidates;
        self.no_sites += s.lines_no_sites;
        self.dropped += s.entries_dropped;
        self.retried += usize::from(retried);
        let mut contexts: BTreeMap<(BlockId, Line), BTreeSet<&[BlockId]>> = BTreeMap::new();
        for rec in &plan.provenance {
            if rec.context_blocks.is_empty() {
                self.unconditional += 1;
                continue;
            }
            for planned in &rec.lines {
                contexts.entry((rec.site, planned.line)).or_default().insert(&rec.context_blocks);
            }
        }
        self.multi_context += contexts.values().filter(|c| c.len() > 1).count();
    }
}

/// Each app's grid points share one baseline, as in a sweep. At each
/// point, a warm plan (every line a memo hit) must encode to the bytes of
/// `plan()`.
fn sweep_points_replay_from_the_memo_byte_for_byte() {
    let mut kinds = Kinds::default();
    for model in [apps::kafka(), apps::wordpress()] {
        let model = model.scaled_down(30);
        let name = model.name().to_string();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let baseline = PlannerBaseline::new();
        for cfg in sweep_grid() {
            let planner = Planner::new(&program, &trace, &prof, cfg.clone());
            let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
            let fresh = planner.plan();
            // Pass 2.5 times its context decisions as a second interval
            // only when it retried a site.
            let retried = ispy_telemetry::global().span_count("core.plan.retry") == 2;
            planner.plan_with_baseline(&baseline);
            let warm_tele = Arc::new(Telemetry::new());
            ispy_telemetry::swap_global(Arc::clone(&warm_tele));
            let warm = planner.plan_with_baseline(&baseline);
            ispy_telemetry::swap_global(previous);
            let lines = fresh.stats.target_lines as u64;
            assert_eq!(warm_tele.counter("core.plan.memo_hits"), lines, "{name} {cfg:?}");
            assert_eq!(warm_tele.counter("core.plan.memo_misses"), 0, "{name} {cfg:?}");
            assert!(
                plan_to_bytes(&name, &warm) == plan_to_bytes(&name, &fresh),
                "{name} {cfg:?}: the memo's plan encodes differently"
            );
            kinds.add(&fresh, retried);
        }
    }
    let Kinds { no_candidates, no_sites, dropped, unconditional, retried, multi_context } = kinds;
    for (kind, n) in [
        ("no window candidates", no_candidates),
        ("no sites", no_sites),
        ("dropped", dropped),
        ("unconditional", unconditional),
        ("retried", retried),
        ("multi-context", multi_context),
    ] {
        assert!(n > 0, "no slot of kind {kind} was replayed");
    }
}

fn assert_plans_equal(a: &Plan, b: &Plan, what: &str) {
    assert_eq!(a.injections, b.injections, "{what}: injections");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.context_details, b.context_details, "{what}: context details");
    assert_eq!(a.provenance, b.provenance, "{what}: provenance");
}
