//! Property-based tests over the core data structures and invariants.
//!
//! Originally written with `proptest`; the offline build can't fetch it, so
//! the same properties are exercised over deterministic pseudo-random case
//! sets generated by a local SplitMix64. Coverage is equivalent in spirit
//! (each property checks dozens of randomized cases) and fully reproducible.

use ispy_core::coalesce::{coalesce_lines, decode_groups};
use ispy_isa::{CoalesceMask, ContextHash, HashConfig};
use ispy_sim::{Cache, CacheParams, CountingBloom, InsertPriority, Lbr};
use ispy_trace::{Addr, Line};
use std::collections::BTreeSet;

/// Deterministic 64-bit generator (SplitMix64), good enough for case
/// enumeration and dependency-free.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn vec(&mut self, len_lo: u64, len_hi: u64, lo: u64, hi: u64) -> Vec<u64> {
        let len = self.range(len_lo, len_hi);
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

const CASES: usize = 40;

/// A cache never exceeds its capacity and always hits right after fill.
#[test]
fn cache_capacity_and_fill_hit() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let lines = g.vec(1, 300, 0, 4096);
        let ways = g.range(1, 8) as u32;
        let sets = 1u64 << g.range(1, 5);
        let params = CacheParams { size_bytes: sets * u64::from(ways) * 64, ways };
        let mut cache = Cache::new(params);
        for &l in &lines {
            cache.fill(Line::new(l), InsertPriority::Mru, false);
            assert!(cache.access(Line::new(l)), "line just filled must hit");
            assert!(cache.occupancy() <= params.num_lines());
        }
    }
}

/// Half-priority insertion never increases occupancy beyond capacity and
/// the inserted line is still resident immediately afterwards.
#[test]
fn priority_insertion_is_safe() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let lines = g.vec(1, 200, 0, 512);
        let mut cache = Cache::new(CacheParams { size_bytes: 8 * 64 * 4, ways: 4 });
        for &l in &lines {
            cache.fill(Line::new(l), InsertPriority::Half, true);
            assert!(cache.contains(Line::new(l)));
        }
    }
}

/// The counting Bloom filter has no false negatives and returns to the
/// empty state after balanced removals.
#[test]
fn bloom_no_false_negatives() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let addrs = g.vec(1, 64, 0, 100_000);
        let cfg = HashConfig::default();
        let mut bloom = CountingBloom::new(cfg);
        for &a in &addrs {
            bloom.insert(Addr::new(a * 16));
        }
        for &a in &addrs {
            let ctx = cfg.context_hash([Addr::new(a * 16)]);
            assert!(ctx.matches(bloom.runtime_hash()), "inserted block must match");
        }
        for &a in &addrs {
            bloom.remove(Addr::new(a * 16));
        }
        assert_eq!(bloom.runtime_hash(), 0);
    }
}

/// The LBR's incremental runtime hash always equals a from-scratch hash
/// of its current contents (the Fig. 7 "precisely tracks" claim).
#[test]
fn lbr_hash_matches_rebuild() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let addrs = g.vec(1, 200, 0, 10_000);
        let cfg = HashConfig::default();
        let mut lbr = Lbr::new(32, cfg);
        for &a in &addrs {
            lbr.push(Addr::new(a * 16));
            let mut fresh = CountingBloom::new(cfg);
            for e in lbr.entries() {
                fresh.insert(e);
            }
            assert_eq!(lbr.runtime_hash(), fresh.runtime_hash());
        }
    }
}

/// Context-hash matching is monotone: adding bits to the runtime hash
/// never turns a match into a non-match.
#[test]
fn context_match_is_monotone() {
    let mut g = Gen::new(5);
    for _ in 0..1000 {
        let ctx_bits = g.range(0, 0xFFFF);
        let rt = g.range(0, 0xFFFF);
        let extra = g.range(0, 0xFFFF);
        let ctx = ContextHash::from_bits(ctx_bits, 16);
        if ctx.matches(rt) {
            assert!(ctx.matches(rt | extra));
        }
    }
}

/// Coalescing round-trips exactly: decoding the groups yields the input
/// line set, and no group spans more than the window.
#[test]
fn coalescing_roundtrip() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let raw: BTreeSet<u64> = g.vec(1, 80, 0, 5_000).into_iter().collect();
        let bits = g.range(1, 65) as u8;
        let lines: Vec<Line> = raw.iter().map(|&l| Line::new(l)).collect();
        let groups = coalesce_lines(lines.clone(), bits);
        assert_eq!(decode_groups(&groups), lines);
        for grp in &groups {
            if let Some(mask) = grp.mask {
                for extra in mask.decode(grp.base) {
                    let d = extra.distance_from(grp.base).expect("forward");
                    assert!(d >= 1 && d <= u64::from(bits));
                }
            }
        }
    }
}

/// Mask encode/decode agree for arbitrary in-window line subsets.
#[test]
fn mask_roundtrip() {
    let mut g = Gen::new(7);
    for _ in 0..500 {
        let base = g.range(0, 1_000_000);
        let sel = g.range(0, 256);
        let b = Line::new(base);
        let mask = CoalesceMask::from_bits(sel, 8);
        let decoded: Vec<Line> = mask.decode(b).collect();
        let rebuilt = CoalesceMask::from_lines(b, decoded.iter().copied(), 8)
            .expect("decoded lines are in-window");
        assert_eq!(rebuilt.bits(), mask.bits());
    }
}

/// Trace replay determinism for arbitrary seeds (the walker is a pure
/// function of the seed).
#[test]
fn walker_determinism() {
    let mut g = Gen::new(8);
    for _ in 0..8 {
        let seed = g.range(0, 1_000_000);
        let model = ispy_trace::apps::finagle_http().scaled_down(40);
        let program = model.generate();
        let input = model.default_input().with_seed(seed);
        let a = program.record_trace(input.clone(), 2_000);
        let b = program.record_trace(input, 2_000);
        assert_eq!(a, b);
    }
}
