//! Outcome-ledger exactness: attaching an `OutcomeLedger` must never change
//! the replay, and the ledger must account for every prefetch event the
//! aggregate counters see — its totals equal the `pf_*` counters of the
//! `SimResult`, and every injection's executions split exactly into fired
//! and suppressed ones.
//!
//! The plans here are generated from a seeded RNG so the suite explores op
//! kinds, condition masks, coalesce masks, and site placements the
//! hand-built plans never hit, while staying fully reproducible.

use ispy_harness::workload::miss_derived_plan;
use ispy_isa::{CoalesceMask, InjectionMap, PrefetchOp, ProvenanceId};
use ispy_sim::{
    run, InjectionOutcome, OutcomeLedger, RunOptions, SimConfig, SimResult, SwitchEffect,
    SwitchSchedule,
};
use ispy_trace::{apps, BlockId, Line, Program, Trace};
use std::sync::Arc;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A seeded random plan over `program`: random sites, random code-line
/// targets, all four op kinds, conditions hashed from random block addresses
/// (so some fire and some suppress at runtime).
fn random_plan(program: &Program, cfg: &SimConfig, seed: u64, num_ops: u32) -> InjectionMap {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let blocks = program.blocks();
    let n = blocks.len() as u64;
    let max_line = blocks
        .iter()
        .map(|b| b.first_line().raw() + b.line_count() - 1)
        .max()
        .expect("non-empty program");
    let mut map = InjectionMap::new();
    for id in 0..num_ops {
        let site = BlockId((xorshift(&mut state) % n) as u32);
        let target = Line::new(xorshift(&mut state) % (max_line + 1));
        let ctx = cfg.hash.context_hash([blocks[(xorshift(&mut state) % n) as usize].start()]);
        let mask_bits = xorshift(&mut state) & 0xFF;
        let mask = CoalesceMask::from_bits(mask_bits.max(1), 8);
        let op = match xorshift(&mut state) % 4 {
            0 => PrefetchOp::Plain { target },
            1 => PrefetchOp::Cond { target, ctx },
            2 => PrefetchOp::Coalesced { base: target, mask },
            _ => PrefetchOp::CondCoalesced { base: target, mask, ctx },
        };
        map.push_traced(site, op, ProvenanceId(id));
    }
    map
}

/// Runs `plan` with and without a ledger and asserts the ledger is exact.
/// Returns the (ledger-free) result so callers can check the plan did
/// something.
fn assert_ledger_exact(
    program: &Program,
    trace: &Trace,
    cfg: &SimConfig,
    plan: &InjectionMap,
) -> SimResult {
    let plain =
        run(program, trace, cfg, RunOptions { injections: Some(plan), ..Default::default() });
    let mut ledger = OutcomeLedger::default();
    let attributed = run(
        program,
        trace,
        cfg,
        RunOptions { injections: Some(plan), outcomes: Some(&mut ledger), ..Default::default() },
    );
    assert_eq!(plain, attributed, "attaching a ledger changed the SimResult");

    let r = &attributed;
    assert_eq!(ledger.total(|o| o.executed), r.pf_ops_executed, "executed");
    assert_eq!(ledger.total(|o| o.fired), r.pf_ops_fired, "fired");
    assert_eq!(ledger.total(|o| o.suppressed), r.pf_ops_suppressed, "suppressed");
    assert_eq!(ledger.total(|o| o.lines_issued), r.pf_lines_issued, "lines_issued");
    assert_eq!(ledger.total(|o| o.lines_resident), r.pf_lines_resident, "lines_resident");
    assert_eq!(ledger.total(|o| o.useful), r.pf_useful, "useful");
    assert_eq!(ledger.total(|o| o.late), r.pf_late, "late");
    assert_eq!(ledger.total(|o| o.evicted_unused), r.pf_evicted_unused, "evicted_unused");
    // Every op in these plans is tagged, so nothing is untracked.
    assert_eq!(ledger.untracked, InjectionOutcome::default());
    for (id, o) in ledger.per_injection.iter().enumerate() {
        assert_eq!(o.executed, o.fired + o.suppressed, "injection {id}");
    }
    plain
}

#[test]
fn random_plans_keep_the_ledger_exact() {
    let model = apps::cassandra().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 12_000);
    let cfg = SimConfig::default();
    for seed in [1u64, 7, 42, 0xC0FFEE] {
        let plan = random_plan(&program, &cfg, seed, 400);
        let r = assert_ledger_exact(&program, &trace, &cfg, &plan);
        assert!(r.pf_ops_fired > 0 && r.pf_ops_suppressed > 0, "seed {seed}: {r:?}");
    }
}

#[test]
fn random_plans_hold_on_a_second_app_shape() {
    // Different block-size/branchiness profile: verilator's generated
    // program exercises different set-index and shadow-word patterns.
    let model = apps::verilator().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 8_000);
    let cfg = SimConfig::default();
    for seed in [3u64, 0xBEEF] {
        let plan = random_plan(&program, &cfg, seed, 250);
        assert_ledger_exact(&program, &trace, &cfg, &plan);
    }
}

#[test]
fn miss_derived_plan_keeps_the_ledger_exact() {
    // The benchmark's own workload: realistic miss-driven placements with
    // every op kind, so some prefetches are useful.
    let model = apps::cassandra().scaled_down(20);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 20_000);
    let cfg = SimConfig::default();
    let plan = miss_derived_plan(&program, &trace, &cfg);
    assert!(plan.num_ops() > 100, "workload plan unexpectedly small");
    let r = assert_ledger_exact(&program, &trace, &cfg, &plan);
    assert!(r.pf_useful > 0, "{r:?}");
}

#[test]
fn thrash_schedule_keeps_the_ledger_exact() {
    // Tenant switches evict untouched prefetches outside the fetch path;
    // the ledger must charge those evictions too.
    let model = apps::cassandra().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 12_000);
    let n = trace.blocks().len() as u64;
    let cfg = SimConfig {
        schedule: Some(Arc::new(SwitchSchedule::new(
            (1..16).map(|k| (k * n / 16, (k % 3) as u32)).collect(),
            vec![(n / 2, 1)],
            SwitchEffect::Thrash { l1i_pct: 70, l2_pct: 30 },
        ))),
        ..SimConfig::default()
    };
    let plan = miss_derived_plan(&program, &trace, &cfg);
    let r = assert_ledger_exact(&program, &trace, &cfg, &plan);
    assert!(r.pf_evicted_unused > 0, "{r:?}");
}
