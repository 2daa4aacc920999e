//! The runtime-hash record against independent restatements of the LBR,
//! and every replay path against each other.
//!
//! The first reference recomputes each block's runtime hash from scratch:
//! the OR of the signatures ([`HashConfig::block_signature`]) of the last
//! `lbr_depth` retired blocks. It shares no code with [`Lbr`],
//! [`CountingBloom`](super::CountingBloom) or [`HashFilter`]. The second
//! pushes each block into an [`Lbr`] inline, the way replay did before the
//! record existed. A record that differs from either is reported at the
//! first differing block.

use super::{HashFilter, Lbr};
use crate::engine::RecordFilter;
use crate::l1d::oracle::{assert_same, fresh, random_case, schedule, straight_program, Rng};
use crate::{
    run, run_adaptive, run_streaming, InsertPriority, RunOptions, SimConfig, SliceWindows,
    SwitchEffect,
};
use ispy_isa::{CoalesceMask, HashConfig, InjectionMap, PrefetchOp};
use ispy_trace::{apps, Addr, BasicBlock, BlockId, Line, Program, Trace, TraceBlocks};
use std::sync::Arc;

/// The hash configs and LBR depths every check runs under.
const HASHES: [(u8, u8); 3] = [(16, 2), (32, 2), (16, 1)];
const DEPTHS: [usize; 2] = [32, 8];

fn config(bits: u8, k: u8, depth: usize) -> SimConfig {
    SimConfig { lbr_depth: depth, ..SimConfig::default().with_hash(HashConfig::new(bits, k)) }
}

/// Each block's runtime hash, from scratch: the union of the signatures of
/// the blocks in the LBR window that ends at it.
fn reference(program: &Program, blocks: &[BlockId], cfg: &SimConfig) -> Vec<u64> {
    let sigs: Vec<u64> =
        program.blocks().iter().map(|b| cfg.hash.block_signature(b.start())).collect();
    (0..blocks.len())
        .map(|i| {
            let window = &blocks[(i + 1).saturating_sub(cfg.lbr_depth)..=i];
            window.iter().fold(0, |h, b| h | sigs[b.index()])
        })
        .collect()
}

/// Each block's runtime hash from an LBR pushed inline, address by address.
fn inline_lbr(program: &Program, blocks: &[BlockId], cfg: &SimConfig) -> Vec<u64> {
    let mut lbr = Lbr::new(cfg.lbr_depth, cfg.hash);
    blocks
        .iter()
        .map(|&b| {
            lbr.push(program.block(b).start());
            lbr.runtime_hash()
        })
        .collect()
}

/// Fails at the first block whose hash differs.
fn assert_hashes(got: &[u64], want: &[u64], what: &str) {
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!("{what}: block {i} recorded hash {:#x}, the reference has {:#x}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{what}: block count");
}

/// Conditional ops at random trace positions, conditioned on a block a few
/// events earlier (so they often fire) or on a random block (so they are
/// often suppressed); every fourth op is coalesced.
fn cond_plan(program: &Program, blocks: &[BlockId], seed: u64, hash: HashConfig) -> InjectionMap {
    let mut rng = Rng(seed ^ 0xC0DE | 1);
    let lines = program.blocks().last().map_or(1, |b| b.first_line().raw() + b.line_count());
    let mut map = InjectionMap::new();
    for n in 0..60 {
        let i = 4 + rng.below(blocks.len() as u64 - 4) as usize;
        let ctx_block = if n % 3 == 0 {
            BlockId(rng.below(program.num_blocks() as u64) as u32)
        } else {
            blocks[i - 1 - rng.below(3) as usize]
        };
        let ctx = hash.context_hash([program.block(ctx_block).start()]);
        let target = Line::new(rng.below(lines));
        let op = if n % 4 == 0 {
            PrefetchOp::CondCoalesced { base: target, mask: CoalesceMask::from_bits(0b101, 8), ctx }
        } else {
            PrefetchOp::Cond { target, ctx }
        };
        map.push(blocks[i], op);
    }
    map
}

#[test]
fn the_record_matches_an_inline_lbr_for_the_nine_apps() {
    for model in apps::all() {
        let model = model.scaled_down(20);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 10_000);
        for (bits, k) in HASHES {
            for depth in DEPTHS {
                let cfg = config(bits, k, depth);
                let what = format!("{} hash {bits}/{k} depth {depth}", model.name());
                let want = reference(&program, trace.blocks(), &cfg);
                assert_hashes(&inline_lbr(&program, trace.blocks(), &cfg), &want, &what);
                let record = HashFilter::record_of(&program, &trace, &cfg);
                assert_hashes(record.hashes(), &want, &what);
                // Chunked refills carry the LBR across chunks.
                let mut filter = HashFilter::new(&program, &cfg);
                let mut chunk = Default::default();
                for (c, blocks) in trace.blocks().chunks(777).enumerate() {
                    filter.refill(blocks, &mut chunk);
                    let at = c * 777;
                    assert_hashes(
                        chunk.hashes(),
                        &want[at..at + blocks.len()],
                        &format!("{what}: chunk at {at}"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_replay_path_agrees() {
    const EVENTS: usize = 6_000;
    let mut case = 0u64;
    for (bits, k) in HASHES {
        for depth in DEPTHS {
            case += 1;
            let what = format!("hash {bits}/{k} depth {depth}");
            let (program, trace) = random_case(case, 400, EVENTS, 1 << 12);
            let cfg = SimConfig {
                schedule: Some(schedule(
                    EVENTS as u64,
                    SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 25 },
                )),
                ..config(bits, k, depth)
            };
            let plan = cond_plan(&program, trace.blocks(), case, cfg.hash);
            let opts = || RunOptions { injections: Some(&plan), ..Default::default() };
            let miss = run(&program, &trace, &cfg, opts());
            // `trace`'s memo now holds the record: a memo hit.
            let hit = run(&program, &trace, &cfg, opts());
            assert_same(&hit, &miss, &format!("{what}: memo hit"));
            assert!(miss.pf_ops_fired > 0 && miss.pf_ops_suppressed > 0, "{what}: {miss:?}");
            for chunk in (1..=65).chain([EVENTS]) {
                let mut source = TraceBlocks::with_chunk(trace.blocks(), chunk);
                let streamed = run_streaming(&program, &mut source, &cfg, opts()).unwrap();
                assert_same(&streamed, &miss, &format!("{what}: chunk {chunk}"));
            }
            // Windows that split the L1D record's 64-bit words, the last
            // one short; on `trace` (a memo hit) and a fresh copy.
            for (memo, t) in [("hit", &trace), ("miss", &fresh(&trace))] {
                let windows = SliceWindows::of_trace(t);
                for window in [1_000, 777] {
                    let adaptive =
                        run_adaptive(&program, &cfg, &windows, window, &plan, None, |_, _| None);
                    let at = format!("{what}: adaptive {window}, memo {memo}");
                    assert_same(&adaptive.unwrap().total, &miss, &at);
                }
            }
        }
    }
}

/// A trace in two phases over disjoint block sets — `W` events over the
/// first half of `program`'s blocks, then `2 W` over the second — so a plan
/// swapped in at the phase boundary equals one static plan holding both
/// phases' ops.
fn two_phase_trace(program: &Program, seed: u64, w: usize) -> Trace {
    let mut rng = Rng(seed | 1);
    let half = program.num_blocks() as u64 / 2;
    let hot: Vec<u64> = (0..40).map(|_| rng.below(half)).collect();
    let events = (0..3 * w)
        .map(|i| {
            let b = hot[rng.below(hot.len() as u64) as usize];
            BlockId(if i < w { b } else { half + b } as u32)
        })
        .collect();
    Trace::new("two-phase", events)
}

#[test]
fn a_conditional_plan_swapped_in_sees_the_lbr_of_the_whole_run() {
    const W: usize = 2_000;
    for (n, (bits, k)) in HASHES.into_iter().enumerate() {
        let seed = 40 + n as u64;
        let cfg = config(bits, k, 32);
        let what = format!("hash {bits}/{k}");
        let (program, _) = random_case(seed, 400, 1, 1 << 12);
        let trace = two_phase_trace(&program, seed, W);
        let (first, second) = trace.blocks().split_at(W);
        // Phase one runs unconditional prefetches; phase two runs
        // conditional ones, some conditioned on phase-one blocks, which sit
        // in the LBR only for the first blocks after the swap.
        let mut rng = Rng(seed);
        let lines = program.blocks().last().map_or(1, |b| b.first_line().raw() + b.line_count());
        let mut unconditional = InjectionMap::new();
        for _ in 0..30 {
            let site = first[rng.below(W as u64) as usize];
            unconditional.push(site, PrefetchOp::Plain { target: Line::new(rng.below(lines)) });
        }
        let mut conditional = cond_plan(&program, second, seed, cfg.hash);
        for back in 1..=20 {
            let ctx = cfg.hash.context_hash([program.block(first[W - back]).start()]);
            let target = Line::new(rng.below(lines));
            conditional.push(second[back % 4], PrefetchOp::Cond { target, ctx });
        }
        let mut both = unconditional.clone();
        both.merge(conditional.clone());
        let want = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&both), ..Default::default() },
        );
        assert!(want.pf_ops_fired > 0 && want.pf_ops_suppressed > 0, "{what}: {want:?}");
        let windows = SliceWindows::of_trace(&trace);
        // Swap to the conditional plan after window 0, then re-install it
        // after window 1: two swaps, one of them unconditional → conditional.
        let swapped = run_adaptive(&program, &cfg, &windows, W, &unconditional, None, |k, _| {
            (k < 2).then(|| conditional.clone())
        })
        .unwrap();
        assert_eq!(swapped.swaps, 2, "{what}");
        assert_same(&swapped.total, &want, &format!("{what}: unconditional → conditional"));
        // Starting from an empty plan behaves the same for phase two.
        let from_empty =
            run_adaptive(&program, &cfg, &windows, W, &InjectionMap::new(), None, |k, _| {
                (k == 0).then(|| conditional.clone())
            })
            .unwrap();
        let only_second = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&conditional), ..Default::default() },
        );
        assert_same(&from_empty.total, &only_second, &format!("{what}: empty → conditional"));
    }
}

/// `program` with every block moved `by` bytes up.
fn shifted(program: &Program, by: u64) -> Program {
    let blocks = program
        .blocks()
        .iter()
        .map(|b| {
            let start = Addr::new(b.start().raw() + by);
            BasicBlock::new(start, b.bytes(), b.instrs(), b.data_accesses())
        })
        .collect();
    straight_program(blocks, program.data_footprint_lines())
}

#[test]
fn every_key_component_separates_records() {
    let (program, trace) = random_case(7, 300, 4_000, 1 << 12);
    let base = SimConfig::default();
    let plan = cond_plan(&program, trace.blocks(), 7, base.hash);
    let opts = || RunOptions { injections: Some(&plan), ..Default::default() };
    let variants: Vec<(&str, Program, SimConfig)> = vec![
        ("block addresses", shifted(&program, 4_096), base.clone()),
        ("hash width", program.clone(), base.clone().with_hash(HashConfig::new(32, 2))),
        ("hash functions", program.clone(), base.clone().with_hash(HashConfig::new(16, 1))),
        ("LBR depth", program.clone(), SimConfig { lbr_depth: 16, ..base.clone() }),
    ];
    for (what, variant, cfg) in &variants {
        // The variant's record differs from the base's, so a key that
        // confused the two would hand one of them the wrong record.
        assert_ne!(
            reference(variant, trace.blocks(), cfg),
            reference(&program, trace.blocks(), &base),
            "{what}: the variant must change the record"
        );
        let shared = fresh(&trace);
        run(&program, &shared, &base, opts());
        let after_base = run(variant, &shared, cfg, opts());
        let alone = run(variant, &fresh(&trace), cfg, opts());
        assert_same(&after_base, &alone, what);
    }

    // The `SimConfig` fields outside the key — what the LBR never reads —
    // share one record.
    let shared = HashFilter::record_of(&program, &trace, &base);
    let others = [
        SimConfig::ideal(),
        SimConfig { prefetch_insert: InsertPriority::Lru, ..base.clone() },
        SimConfig { schedule: Some(schedule(4_000, SwitchEffect::Flush)), ..base.clone() },
    ];
    for cfg in &others {
        assert!(Arc::ptr_eq(&shared, &HashFilter::record_of(&program, &trace, cfg)), "{cfg:?}");
    }
}

#[test]
fn runs_without_a_conditional_op_build_no_record() {
    let (program, trace) = random_case(5, 300, 3_000, 1 << 12);
    let cfg = SimConfig::default();
    let mut plain = InjectionMap::new();
    plain.push(trace.blocks()[10], PrefetchOp::Plain { target: Line::new(3) });
    for opts in
        [RunOptions::default(), RunOptions { injections: Some(&plain), ..Default::default() }]
    {
        run(&program, &trace, &cfg, opts);
    }
    run(&program, &trace, &SimConfig::ideal(), RunOptions::default());
    let mut built = false;
    trace.derived(HashFilter::key(&program, &cfg), || {
        built = true;
        super::HashRecord::default()
    });
    assert!(built, "an unconditional replay must not build the runtime-hash record");
}
