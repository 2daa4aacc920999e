//! Structural invariants of produced plans, checked across planners.

use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_baselines::spatial::{SpatialMode, SpatialPlanner};
use ispy_core::config::{DEFAULT_MAX_PREFETCH_CYCLES, DEFAULT_MIN_PREFETCH_CYCLES};
use ispy_core::{IspyConfig, Plan, Planner};
use ispy_harness::figures::fig18::{MAX_SWEEP, MIN_SWEEP};
use ispy_harness::{Scale, Session};
use ispy_isa::PrefetchOp;
use ispy_profile::window::{WindowSearch, MAX_SEARCH_NODES};
use ispy_trace::{apps, BlockId, Program};
use std::collections::{HashMap, HashSet};

fn session() -> Session {
    Session::with_apps(Scale::test(), vec![apps::cassandra(), apps::verilator()])
}

/// Every injected op's targets stay within the coalescing window of its
/// base line, and conditional ops carry non-empty context hashes.
#[test]
fn ops_are_well_formed() {
    let s = session();
    for i in 0..s.apps().len() {
        let c = s.comparison(i);
        for (_, ops) in c.ispy_plan.injections.iter() {
            for op in ops {
                let base = op.base_line();
                for t in op.target_lines() {
                    let d = t.distance_from(base).expect("targets at or after base");
                    assert!(d <= 8, "target {d} lines past base exceeds the window");
                }
                if let Some(ctx) = op.condition() {
                    assert!(ctx.bits() != 0, "conditional op with empty context hash");
                    assert_eq!(ctx.width(), 16, "default hash width");
                }
            }
        }
    }
}

/// Every adopted context names 1..=`ctx_size` distinct predictor blocks, none
/// of them the injection site, and the site carries a conditional op whose
/// hash is exactly the context hash of those blocks' start addresses.
fn assert_contexts_fit(program: &Program, plan: &Plan, cfg: &IspyConfig) {
    assert!(!plan.context_details.is_empty(), "plan adopted no contexts");
    for (site, blocks) in &plan.context_details {
        assert!(
            (1..=cfg.ctx_size).contains(&blocks.len()),
            "site {site}: {} predictor blocks, ctx_size {}",
            blocks.len(),
            cfg.ctx_size
        );
        let distinct: HashSet<BlockId> = blocks.iter().copied().collect();
        assert_eq!(distinct.len(), blocks.len(), "site {site}: repeated predictor block");
        assert!(!distinct.contains(site), "site {site} predicts itself");
        let hash = cfg.hash.context_hash(blocks.iter().map(|&b| program.block(b).start()));
        assert!(
            plan.injections.ops_at(*site).iter().any(|op| op.condition() == Some(hash)),
            "site {site} has no conditional op with its context's hash"
        );
    }
}

#[test]
fn contexts_fit_the_context_size() {
    let s = session();
    let default = IspyConfig::default();
    assert_eq!(default.ctx_size, 4, "the paper's context size");
    let narrow = IspyConfig::default().with_ctx_size(2);
    for (i, ctx) in s.apps().iter().enumerate() {
        assert_contexts_fit(&ctx.program, &s.comparison(i).ispy_plan, &default);
        let plan = Planner::new(&ctx.program, &ctx.trace, &ctx.profile, narrow.clone()).plan();
        assert_contexts_fit(&ctx.program, &plan, &narrow);
    }
}

/// The planned lines of `plan` whose expected site-to-fetch distance lies
/// in `[min, max]` cycles; panics on the first one outside.
fn lines_in_window(plan: &Plan, min: u32, max: u32) -> usize {
    let window = f64::from(min)..=f64::from(max);
    let mut lines = 0;
    for rec in &plan.provenance {
        for pl in &rec.lines {
            assert!(
                window.contains(&pl.window_cycles),
                "site {} line {}: {} cycles outside {min}..{max}",
                rec.site,
                pl.line,
                pl.window_cycles
            );
            lines += 1;
        }
    }
    lines
}

/// The paper's prefetch-distance window: every I-SPY planned line is
/// expected to be fetched 27..200 cycles (or the swept window) after its
/// site executes, at the default window and at each of fig18's nine; every
/// AsmDB site is a candidate of a fresh search of the default window, at a
/// distance inside it.
#[test]
fn planned_distances_lie_in_the_window() {
    let s = session();
    let (dmin, dmax) = (DEFAULT_MIN_PREFETCH_CYCLES, DEFAULT_MAX_PREFETCH_CYCLES);
    let windows: Vec<(u32, u32)> = MIN_SWEEP
        .iter()
        .map(|&min| (min, 200))
        .chain(MAX_SWEEP.iter().map(|&max| (27, max)))
        .collect();
    assert_eq!(windows.len(), 9);
    for (i, ctx) in s.apps().iter().enumerate() {
        let c = s.comparison(i);
        assert!(lines_in_window(&c.ispy_plan, dmin, dmax) > 0, "default plan has no lines");
        for &(min, max) in &windows {
            let cfg = IspyConfig::default().with_distances(min, max);
            let plan = Planner::new(&ctx.program, &ctx.trace, &ctx.profile, cfg).plan();
            assert!(lines_in_window(&plan, min, max) > 0, "{min}..{max} plan has no lines");
        }

        let mut search = WindowSearch::new();
        let mut found = HashMap::new();
        let window = f64::from(dmin)..=f64::from(dmax);
        assert!(!c.asmdb_plan.injections.is_empty(), "AsmDB plan is empty");
        for (site, ops) in c.asmdb_plan.injections.iter() {
            for op in ops {
                let target = op.base_line();
                let dominant = ctx
                    .profile
                    .misses
                    .line(target)
                    .and_then(|st| st.dominant_block())
                    .expect("AsmDB targets a profiled miss");
                let sites = found.entry(dominant).or_insert_with(|| {
                    search.candidates(&ctx.profile.cfg, dominant, dmin, dmax, MAX_SEARCH_NODES)
                });
                let cand = sites
                    .iter()
                    .find(|cand| cand.block == site)
                    .unwrap_or_else(|| panic!("AsmDB site {site} for {target} not in the window"));
                assert!(window.contains(&cand.cycles), "AsmDB site {site}: {} cycles", cand.cycles);
            }
        }
    }
}

/// Injection sites must be blocks that actually execute in the profiled
/// trace — injecting into dead code would be useless.
#[test]
fn sites_are_live_blocks() {
    let s = session();
    for i in 0..s.apps().len() {
        let ctx = &s.apps()[i];
        let c = s.comparison(i);
        let live: HashSet<u32> = ctx.trace.iter().map(|b| b.0).collect();
        for (site, _) in c.ispy_plan.injections.iter() {
            assert!(live.contains(&site.0), "site {site} never executes");
        }
        for (site, _) in c.asmdb_plan.injections.iter() {
            assert!(live.contains(&site.0), "AsmDB site {site} never executes");
        }
    }
}

/// The static-footprint accounting matches the op encodings exactly.
#[test]
fn footprint_accounting_is_exact() {
    let s = session();
    for i in 0..s.apps().len() {
        let c = s.comparison(i);
        let by_encoding: u64 = c
            .ispy_plan
            .injections
            .iter()
            .flat_map(|(_, ops)| ops.iter())
            .map(|op| u64::from(op.encoded_bytes()))
            .sum();
        assert_eq!(by_encoding, c.ispy_plan.stats.injected_bytes);
        let expected = by_encoding as f64 / s.apps()[i].program.text_bytes() as f64;
        assert!((c.ispy_plan.stats.static_increase - expected).abs() < 1e-12);
    }
}

/// Op-kind counters in the stats agree with the injected instructions.
#[test]
fn stats_match_injections() {
    let s = session();
    for i in 0..s.apps().len() {
        let c = s.comparison(i);
        let mut plain = 0;
        let mut cond = 0;
        let mut coal = 0;
        let mut cl = 0;
        for (_, ops) in c.ispy_plan.injections.iter() {
            for op in ops {
                match op {
                    PrefetchOp::Plain { .. } => plain += 1,
                    PrefetchOp::Cond { .. } => cond += 1,
                    PrefetchOp::Coalesced { .. } => coal += 1,
                    PrefetchOp::CondCoalesced { .. } => cl += 1,
                }
            }
        }
        let st = &c.ispy_plan.stats;
        assert_eq!(
            (plain, cond, coal, cl),
            (st.ops_plain, st.ops_cond, st.ops_coalesced, st.ops_cond_coalesced)
        );
        assert_eq!(st.ops_total(), c.ispy_plan.injections.num_ops());
    }
}

/// Ablation planners respect their switches (conditional-only has no
/// coalesced ops and vice versa); AsmDB and the spatial planners emit only
/// their op kinds.
#[test]
fn planner_variants_emit_expected_op_kinds() {
    let s = session();
    let ctx = &s.apps()[0];
    let cond =
        Planner::new(&ctx.program, &ctx.trace, &ctx.profile, IspyConfig::conditional_only()).plan();
    assert_eq!(cond.stats.ops_coalesced + cond.stats.ops_cond_coalesced, 0);
    let coal =
        Planner::new(&ctx.program, &ctx.trace, &ctx.profile, IspyConfig::coalescing_only()).plan();
    assert_eq!(coal.stats.ops_cond + coal.stats.ops_cond_coalesced, 0);
    let asmdb = AsmDbPlanner::new(&ctx.program, &ctx.profile, AsmDbConfig::default()).plan();
    assert_eq!(asmdb.stats.ops_total(), asmdb.stats.ops_plain);
    let cont = SpatialPlanner::new(&ctx.program, &ctx.profile, SpatialMode::Contiguous).plan();
    assert_eq!(cont.stats.ops_cond + cont.stats.ops_cond_coalesced, 0);
}

/// The coalescing-size sweep monotonically (weakly) shrinks the op count:
/// wider masks can only fold more prefetches together.
#[test]
fn wider_masks_do_not_increase_ops() {
    let s = session();
    let ctx = &s.apps()[1]; // verilator: spatially local
    let mut prev = usize::MAX;
    for bits in [1u8, 2, 4, 8, 16] {
        let plan = Planner::new(
            &ctx.program,
            &ctx.trace,
            &ctx.profile,
            IspyConfig::coalescing_only().with_coalesce_bits(bits),
        )
        .plan();
        assert!(
            plan.stats.ops_total() <= prev,
            "ops grew from {prev} to {} at {bits} bits",
            plan.stats.ops_total()
        );
        prev = plan.stats.ops_total();
    }
}
