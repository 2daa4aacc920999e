//! The L1D record against an independent restatement of the inline data
//! side it replaced, and every replay path against each other.
//!
//! The reference below re-derives each data access (its own copy of the
//! address mix and the stream split) and runs it through a naive LRU L1D
//! with one `Vec` per set. It shares no code with [`DataFilter`] or
//! [`Cache`](crate::cache::Cache), so a fault in either shows as a record
//! that differs from it, reported at the first differing access.
//!
//! The random-case builders here are shared with the runtime-hash record's
//! oracle (`lbr::oracle`).

use super::{DataFilter, L1dRecord, DATA_LINE_BASE};
use crate::config::MACHINE;
use crate::engine::RecordFilter;
use crate::{
    run, run_adaptive, run_streaming, InsertPriority, RunOptions, SimConfig, SimResult,
    SliceWindows, SwitchEffect, SwitchSchedule,
};
use ispy_isa::{InjectionMap, PrefetchOp};
use ispy_trace::program::{BlockExit, FuncId, Function};
use ispy_trace::{Addr, BasicBlock, BlockId, Line, Program, Trace, TraceBlocks};
use std::sync::Arc;

/// xorshift64: the tests' only randomness, seeded per case.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One L1D outcome per access: `Some(footprint offset)` on a miss.
type Outcomes = Vec<Option<u32>>;

/// The data side as the engine ran it inline: derive each access's line,
/// then probe and fill a plain LRU L1D (MRU first in each set's `Vec`).
fn reference(program: &Program, blocks: &[BlockId]) -> Outcomes {
    fn mix(a: u64, b: u64) -> u64 {
        let mut z = a
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(0x94D049BB133111EB);
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    let p = MACHINE.l1d;
    let num_sets = p.size_bytes / ispy_trace::LINE_BYTES / u64::from(p.ways);
    let mut sets: Vec<Vec<u64>> = vec![Vec::new(); num_sets as usize];
    let footprint = program.data_footprint_lines();
    let threshold = (MACHINE.d_stream_frac * 100.0) as u64;
    let mut stream = 0u64;
    let mut out = Vec::new();
    for &b in blocks {
        for k in 0..u64::from(program.block(b).data_accesses()) {
            let site = mix(u64::from(b.0), k);
            let offset = if site % 100 < threshold {
                stream += 1;
                stream % footprint
            } else {
                site % footprint
            };
            let line = DATA_LINE_BASE + offset;
            let set = &mut sets[(line % num_sets) as usize];
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    set.insert(0, line);
                    out.push(None);
                }
                None => {
                    set.insert(0, line);
                    set.truncate(p.ways as usize);
                    out.push(Some(offset as u32));
                }
            }
        }
    }
    out
}

/// Unpacks a record into per-access outcomes.
fn outcomes(record: &L1dRecord) -> Outcomes {
    let mut next_miss = 0;
    (0..record.accesses())
        .map(|i| {
            record.missed(i).then(|| {
                let line = record.miss_line(next_miss);
                next_miss += 1;
                (line.raw() - DATA_LINE_BASE) as u32
            })
        })
        .collect()
}

/// Fails at the first access whose outcome differs.
fn assert_outcomes(got: &Outcomes, want: &Outcomes, what: &str) {
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!("{what}: access {i} recorded {:?}, the reference has {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{what}: access count");
}

/// Fails at the first `SimResult` field that differs.
pub(crate) fn assert_same(got: &SimResult, want: &SimResult, what: &str) {
    if got == want {
        return;
    }
    let (g, w) = (format!("{got:?}"), format!("{want:?}"));
    let field = g.split(", ").zip(w.split(", ")).find(|(a, b)| a != b);
    panic!("{what}: first differing field {field:?}\n got  {g}\n want {w}");
}

/// A random program of `n` consecutive blocks — some with no data access,
/// some with more than 64 — and a trace of `events` events over it that
/// mostly revisits a hot subset.
pub(crate) fn random_case(seed: u64, n: u32, events: usize, footprint: u64) -> (Program, Trace) {
    let mut rng = Rng(seed | 1);
    let mut addr = 0u64;
    let mut blocks = Vec::new();
    for _ in 0..n {
        let bytes = 16 + 4 * rng.below(60) as u32;
        let data = match rng.below(10) {
            0 | 1 => 0,
            2 => 65 + rng.below(120) as u8,
            _ => rng.below(6) as u8,
        };
        blocks.push(BasicBlock::new(Addr::new(addr), bytes, (bytes / 4) as u16, data));
        addr += u64::from(bytes);
    }
    let program = straight_program(blocks, footprint);
    let hot: Vec<u32> = (0..n / 5).map(|_| rng.below(u64::from(n)) as u32).collect();
    let events = (0..events)
        .map(|_| {
            if rng.below(5) == 0 {
                BlockId(rng.below(u64::from(n)) as u32)
            } else {
                BlockId(hot[rng.below(hot.len() as u64) as usize])
            }
        })
        .collect();
    (program, Trace::new("random", events))
}

/// One function whose blocks fall through in order.
pub(crate) fn straight_program(blocks: Vec<BasicBlock>, footprint: u64) -> Program {
    let n = blocks.len() as u32;
    let exits = (0..n)
        .map(|i| {
            if i + 1 < n {
                BlockExit::Branch(vec![(BlockId(i + 1), 1.0)])
            } else {
                BlockExit::Return
            }
        })
        .collect();
    let funcs = vec![Function::new(BlockId(0), 0, n)];
    let owner = vec![FuncId(0); n as usize];
    let mut program = Program::new("straight", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
    program.set_data_footprint_lines(footprint);
    program.validate().expect("a well-formed program");
    program
}

/// `program`'s blocks with their data-access counts replaced by `counts`.
fn with_counts(program: &Program, counts: impl Fn(usize, u8) -> u8) -> Program {
    let blocks = program
        .blocks()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            BasicBlock::new(b.start(), b.bytes(), b.instrs(), counts(i, b.data_accesses()))
        })
        .collect();
    straight_program(blocks, program.data_footprint_lines())
}

/// Plain prefetches of random code lines at random sites, so prefetch
/// fills compete with data misses in L2.
fn random_plan(program: &Program, seed: u64) -> InjectionMap {
    let mut rng = Rng(seed ^ 0x5EED);
    let lines = program.blocks().last().map_or(1, |b| b.first_line().raw() + b.line_count());
    let mut map = InjectionMap::new();
    for _ in 0..40 {
        let site = BlockId(rng.below(program.num_blocks() as u64) as u32);
        map.push(site, PrefetchOp::Plain { target: Line::new(rng.below(lines)) });
    }
    map
}

pub(crate) fn schedule(events: u64, effect: SwitchEffect) -> Arc<SwitchSchedule> {
    let switches = (1..8).map(|k| (k * events / 8, (k % 2) as u32)).collect();
    Arc::new(SwitchSchedule::new(switches, vec![], effect))
}

/// A copy of `trace` with an empty memo.
pub(crate) fn fresh(trace: &Trace) -> Trace {
    Trace::new(trace.name(), trace.blocks().to_vec())
}

#[test]
fn the_record_matches_the_reference_and_every_replay_path_agrees() {
    const EVENTS: usize = 6_000;
    let mut case = 0u64;
    for footprint in [1 << 12, 3_000] {
        for effect in [
            None,
            Some(SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 25 }),
            Some(SwitchEffect::Flush),
        ] {
            case += 1;
            let what = format!("footprint {footprint}, {effect:?}");
            let (program, trace) = random_case(case, 400, EVENTS, footprint);
            let cfg = SimConfig {
                schedule: effect.map(|e| schedule(EVENTS as u64, e)),
                ..SimConfig::default()
            };
            let want = reference(&program, trace.blocks());
            let record = DataFilter::record_of(&program, &trace, &cfg);
            assert_outcomes(&outcomes(&record), &want, &what);

            let plan = random_plan(&program, case);
            let opts = || RunOptions { injections: Some(&plan), ..Default::default() };
            // `trace`'s memo now holds the record: a memo hit.
            let hit = run(&program, &trace, &cfg, opts());
            let miss = run(&program, &fresh(&trace), &cfg, opts());
            assert_same(&hit, &miss, &format!("{what}: memo hit"));
            assert_eq!(hit.d_accesses, want.len() as u64, "{what}: accesses");
            let want_misses = want.iter().filter(|o| o.is_some()).count() as u64;
            assert_eq!(hit.d_misses, want_misses, "{what}: every L1D miss stalls");
            for chunk in [1, 63, 64, 65, EVENTS] {
                let mut source = TraceBlocks::with_chunk(trace.blocks(), chunk);
                let streamed = run_streaming(&program, &mut source, &cfg, opts()).unwrap();
                assert_same(&streamed, &miss, &format!("{what}: chunk {chunk}"));
            }
            // Windows that split the record's 64-bit words, the last
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

#[test]
fn record_words_are_counted_exactly_across_word_boundaries() {
    // A block of more than 64 accesses spans three bit words; compare every
    // window's popcount with a per-bit count.
    let (program, trace) = random_case(99, 50, 2_000, 1 << 10);
    let record = DataFilter::record_of(&program, &trace, &SimConfig::default());
    let bits: Vec<bool> = (0..record.accesses()).map(|i| record.missed(i)).collect();
    for start in [0, 1, 63, 64, 65, 127, 200] {
        for n in [1, 2, 63, 64, 65, 128, 129, 200] {
            if start + n <= bits.len() {
                let want = bits[start..start + n].iter().filter(|&&b| b).count();
                assert_eq!(record.misses_in(start, n), want, "start {start}, n {n}");
            }
        }
    }
}

#[test]
fn every_key_component_separates_records() {
    let (program, trace) = random_case(7, 300, 4_000, 1 << 12);
    let base = SimConfig::default();
    let mut other_footprint = program.clone();
    other_footprint.set_data_footprint_lines(3_000);
    let variants = [
        ("data-access counts", with_counts(&program, |_, d| d.saturating_add(1))),
        ("data footprint", other_footprint),
    ];
    for (what, variant) in &variants {
        // The variant's record differs from the base's, so a key that
        // confused the two would hand one of them the wrong record.
        assert_ne!(
            reference(variant, trace.blocks()),
            reference(&program, trace.blocks()),
            "{what}: the variant must change the record"
        );
        let shared = fresh(&trace);
        run(&program, &shared, &base, RunOptions::default());
        let after_base = run(variant, &shared, &base, RunOptions::default());
        let alone = run(variant, &fresh(&trace), &base, RunOptions::default());
        assert_same(&after_base, &alone, what);
    }

    // Eight blocks of counts [0, …, 0, 5] and one block of count 5 digest
    // the same count words; only the block count tells them apart. The
    // padded program's record of the trace is empty, so handing it to the
    // single-block program would show.
    let block = |data| BasicBlock::new(Addr::new(0), 16, 4, data);
    let padded =
        with_counts(&straight_program(vec![block(0); 8], 1 << 12), |i, _| 5 * u8::from(i == 7));
    let single = straight_program(vec![block(5)], 1 << 12);
    let zeros = Trace::new("zeros", vec![BlockId(0); 100]);
    run(&padded, &zeros, &base, RunOptions::default());
    let after_padded = run(&single, &zeros, &base, RunOptions::default());
    let alone = run(&single, &fresh(&zeros), &base, RunOptions::default());
    assert_same(&after_padded, &alone, "block count");

    // Every `SimConfig` field lies outside the key: the data side reads
    // none of them, so all share one record.
    let shared = DataFilter::record_of(&program, &trace, &base);
    let others = [
        SimConfig::ideal(),
        SimConfig { prefetch_insert: InsertPriority::Lru, ..base.clone() },
        SimConfig { schedule: Some(schedule(4_000, SwitchEffect::Flush)), ..base.clone() },
        base.clone().with_hash(ispy_isa::HashConfig::new(32, 2)),
        SimConfig { lbr_depth: 8, ..base.clone() },
    ];
    for cfg in &others {
        assert!(Arc::ptr_eq(&shared, &DataFilter::record_of(&program, &trace, cfg)), "{cfg:?}");
    }
}

#[test]
fn clones_and_decoded_traces_replay_identically() {
    let (program, trace) = random_case(11, 300, 5_000, 3_000);
    let cfg = SimConfig {
        schedule: Some(schedule(5_000, SwitchEffect::Thrash { l1i_pct: 30, l2_pct: 10 })),
        ..SimConfig::default()
    };
    let plan = random_plan(&program, 11);
    let opts = || RunOptions { injections: Some(&plan), ..Default::default() };
    let want = run(&program, &trace, &cfg, opts());

    let clone = trace.clone();
    assert!(Arc::ptr_eq(
        &DataFilter::record_of(&program, &trace, &cfg),
        &DataFilter::record_of(&program, &clone, &cfg)
    ));
    assert_same(&run(&program, &clone, &cfg, opts()), &want, "clone");

    let bytes = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    let (decoded_program, decoded) = ispy_trace::artifact::recording_from_bytes(&bytes).unwrap();
    assert_eq!(decoded, trace);
    let record = DataFilter::record_of(&program, &trace, &cfg);
    let decoded_record = DataFilter::record_of(&decoded_program, &decoded, &cfg);
    assert!(!Arc::ptr_eq(&record, &decoded_record), "a decoded trace starts with an empty memo");
    assert_outcomes(&outcomes(&decoded_record), &outcomes(&record), "decoded record");
    assert_same(&run(&decoded_program, &decoded, &cfg, opts()), &want, "decoded");
}
