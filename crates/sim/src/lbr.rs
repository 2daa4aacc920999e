//! The Last Branch Record and the counting-Bloom-filter runtime hash.
//!
//! §III-A / Fig. 7: the 32-entry LBR is mirrored into a counting Bloom
//! filter — one 6-bit counter per context-hash bit (96 bits of state for the
//! 16-bit design point). Pushing an LBR entry increments the counters of the
//! new block's hash bits; the entry evicted from the FIFO decrements its
//! counters. The *runtime hash* is the bitmask of non-zero counters, so it
//! exactly reflects the set of blocks currently in the LBR; a conditional
//! prefetch fires iff its context-hash bits are a subset of the runtime hash.
//!
//! The runtime hash depends only on the retired blocks, so replay never
//! pushes an LBR: a `HashFilter` records the hash after every block into a
//! `HashRecord`. Every replay of a materialized trace under a conditional
//! plan ([`run`](crate::run)) and every adaptive run
//! ([`run_adaptive`](crate::run_adaptive)) takes that record from the
//! trace's memo; only [`run_streaming`](crate::run_streaming), which has no
//! materialized trace, refills one record per chunk.

use crate::config::SimConfig;
use crate::engine::RecordFilter;
use ispy_isa::HashConfig;
use ispy_trace::{Addr, BlockId, Program};
use std::hash::Hasher;

#[cfg(test)]
mod oracle;

/// The precomputed Bloom signature of one block address: which filter
/// counters it touches. Pushing an LBR entry hashes the address twice
/// (FNV-1 + MurmurHash3) to find these positions; a trace visits the same
/// few thousand static blocks millions of times, so the runtime-hash record
/// computes each block's signature once up front and pushes hash-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomSig {
    bits: [u8; 2],
    n: u8,
}

impl BloomSig {
    /// Computes the counter positions `addr` touches under `cfg`.
    pub fn of(cfg: HashConfig, addr: Addr) -> Self {
        let [b0, b1] = cfg.bit_positions(addr);
        if cfg.k() == 2 && b1 != b0 {
            BloomSig { bits: [b0, b1], n: 2 }
        } else {
            BloomSig { bits: [b0, 0], n: 1 }
        }
    }
}

/// Counting Bloom filter over block signatures.
///
/// # Examples
///
/// ```
/// use ispy_isa::HashConfig;
/// use ispy_sim::CountingBloom;
/// use ispy_trace::Addr;
///
/// let cfg = HashConfig::default();
/// let mut bloom = CountingBloom::new(cfg);
/// bloom.insert(Addr::new(0x400000));
/// let ctx = cfg.context_hash([Addr::new(0x400000)]);
/// assert!(ctx.matches(bloom.runtime_hash()));
/// bloom.remove(Addr::new(0x400000));
/// assert_eq!(bloom.runtime_hash(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloom {
    cfg: HashConfig,
    counters: Vec<u8>,
    /// Bitmask of non-zero counters, maintained incrementally on every
    /// 0 ↔ 1 counter transition so [`CountingBloom::runtime_hash`] — which
    /// the engine consults on every conditional-prefetch execution — is a
    /// field read instead of a counter scan.
    mask: u64,
}

impl CountingBloom {
    /// Creates an empty filter for the given hash scheme.
    pub fn new(cfg: HashConfig) -> Self {
        CountingBloom { cfg, counters: vec![0; usize::from(cfg.bits())], mask: 0 }
    }

    /// The hash scheme in use.
    pub fn config(&self) -> HashConfig {
        self.cfg
    }

    /// Accounts one occurrence of the block starting at `addr`.
    pub fn insert(&mut self, addr: Addr) {
        self.insert_sig(BloomSig::of(self.cfg, addr));
    }

    /// [`CountingBloom::insert`] with the address's signature precomputed.
    #[inline]
    pub fn insert_sig(&mut self, sig: BloomSig) {
        for &bit in &sig.bits[..usize::from(sig.n)] {
            let c = &mut self.counters[usize::from(bit)];
            // 6-bit counters never overflow with a 32-entry LBR (≤ 64
            // increments per bit even if every entry hashed to one bit).
            debug_assert!(*c < 64, "6-bit Bloom counter overflow");
            *c += 1;
            self.mask |= 1 << bit;
        }
    }

    /// Removes one occurrence of the block starting at `addr`.
    ///
    /// Counters saturate at zero in **every** build profile: removing an
    /// address that was never inserted (unbalanced insert/remove calls)
    /// leaves its counters — and the runtime hash — unchanged. The hardware
    /// analogue is a counting Bloom filter that simply cannot decrement an
    /// empty counter, and keeping one behaviour everywhere means release and
    /// debug simulations can never diverge.
    pub fn remove(&mut self, addr: Addr) {
        self.remove_sig(BloomSig::of(self.cfg, addr));
    }

    /// [`CountingBloom::remove`] with the address's signature precomputed;
    /// saturates at zero exactly like `remove`.
    #[inline]
    pub fn remove_sig(&mut self, sig: BloomSig) {
        for &bit in &sig.bits[..usize::from(sig.n)] {
            let c = &mut self.counters[usize::from(bit)];
            if *c > 0 {
                *c -= 1;
                if *c == 0 {
                    self.mask &= !(1 << bit);
                }
            }
        }
    }

    /// The runtime hash: one bit per non-zero counter.
    #[inline]
    pub fn runtime_hash(&self) -> u64 {
        self.mask
    }

    /// The raw counter values (for white-box tests / the Fig. 7 walkthrough).
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }
}

/// The 32-entry Last Branch Record with its attached Bloom filter.
///
/// Each retired basic block is pushed as one entry (the paper identifies LBR
/// entries by the target basic-block address). The filter is maintained
/// incrementally exactly as Fig. 7 describes.
///
/// # Examples
///
/// ```
/// use ispy_isa::HashConfig;
/// use ispy_sim::Lbr;
/// use ispy_trace::Addr;
///
/// let mut lbr = Lbr::new(32, HashConfig::default());
/// for i in 0..40u64 {
///     lbr.push(Addr::new(0x400000 + i * 64));
/// }
/// assert_eq!(lbr.len(), 32); // FIFO keeps only the last 32
/// ```
#[derive(Debug, Clone)]
pub struct Lbr {
    depth: usize,
    /// The FIFO as a fixed ring of at most `depth` entries. Each entry keeps
    /// its Bloom signature so the eviction can decrement the right counters
    /// without re-hashing the evicted address.
    ring: Vec<(Addr, BloomSig)>,
    /// The oldest entry's slot once the ring is full (`0` until then); the
    /// next push overwrites it.
    head: usize,
    bloom: CountingBloom,
}

impl Lbr {
    /// Creates an empty LBR of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize, hash: HashConfig) -> Self {
        assert!(depth > 0, "LBR depth must be positive");
        Lbr { depth, ring: Vec::with_capacity(depth), head: 0, bloom: CountingBloom::new(hash) }
    }

    /// Records a basic-block entry, evicting the oldest beyond `depth`.
    pub fn push(&mut self, block_start: Addr) {
        self.push_sig(block_start, self.sig_of(block_start));
    }

    /// [`Lbr::push`] with the address's Bloom signature precomputed (see
    /// [`BloomSig`]); the runtime-hash record caches one signature per
    /// static block, making the per-event push hash-free.
    #[inline]
    pub fn push_sig(&mut self, block_start: Addr, sig: BloomSig) {
        self.bloom.insert_sig(sig);
        if self.ring.len() < self.depth {
            self.ring.push((block_start, sig));
        } else {
            let (_, evicted_sig) = std::mem::replace(&mut self.ring[self.head], (block_start, sig));
            self.bloom.remove_sig(evicted_sig);
            self.head = if self.head + 1 == self.depth { 0 } else { self.head + 1 };
        }
    }

    /// The Bloom signature of `addr` under this LBR's hash configuration.
    #[inline]
    pub fn sig_of(&self, addr: Addr) -> BloomSig {
        BloomSig::of(self.bloom.config(), addr)
    }

    /// Number of recorded entries (≤ depth).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no branches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Entries from oldest to newest.
    pub fn entries(&self) -> impl Iterator<Item = Addr> + '_ {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer).map(|&(a, _)| a)
    }

    /// Whether `block_start` is among the recorded entries.
    pub fn contains(&self, block_start: Addr) -> bool {
        self.ring.iter().any(|&(a, _)| a == block_start)
    }

    /// The Bloom-filter runtime hash over the current contents.
    #[inline]
    pub fn runtime_hash(&self) -> u64 {
        self.bloom.runtime_hash()
    }

    /// The underlying Bloom filter.
    pub fn bloom(&self) -> &CountingBloom {
        &self.bloom
    }
}

/// One replay's runtime hashes, in trace order: entry `i` is the LBR's
/// runtime hash right after block event `i` retired — the value every
/// conditional op at that block tests.
#[derive(Debug, Default)]
pub(crate) struct HashRecord(Vec<u64>);

impl HashRecord {
    /// The hashes, one per recorded block event.
    #[inline]
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.0
    }
}

/// Pushes block events into an [`Lbr`] and records the runtime hash after
/// each one.
///
/// The runtime hash depends only on the sequence of retired blocks, their
/// start addresses, the hash config and the LBR depth — no cache state — so
/// the record is built once per trace and kept in the trace's memo
/// ([`Trace::derived`](ispy_trace::Trace::derived)) next to the L1D record.
/// The filter carries its LBR across calls.
pub(crate) struct HashFilter {
    lbr: Lbr,
    /// Start address and Bloom signature per block, indexable by
    /// [`BlockId::index`].
    blocks: Vec<(Addr, BloomSig)>,
}

impl RecordFilter for HashFilter {
    type Record = HashRecord;

    /// A filter over `program`'s block addresses with `cfg`'s hash config
    /// and LBR depth, starting from an empty LBR.
    fn new(program: &Program, cfg: &SimConfig) -> Self {
        let lbr = Lbr::new(cfg.lbr_depth, cfg.hash);
        let blocks = program.blocks().iter().map(|b| (b.start(), lbr.sig_of(b.start()))).collect();
        HashFilter { lbr, blocks }
    }

    /// Digests the block addresses, `cfg`'s hash config and the LBR depth.
    fn key(program: &Program, cfg: &SimConfig) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // A tag keeps this key apart from the L1D record's in the one memo.
        h.write(b"runtime-hash");
        for b in program.blocks() {
            h.write_u64(b.start().raw());
        }
        h.write_u64(program.num_blocks() as u64);
        h.write_u8(cfg.hash.bits());
        h.write_u8(cfg.hash.k());
        h.write_u64(cfg.lbr_depth as u64);
        h.finish()
    }

    /// Records the runtime hash after each of `blocks`.
    fn refill(&mut self, blocks: &[BlockId], out: &mut HashRecord) {
        out.0.clear();
        out.0.extend(blocks.iter().map(|b| {
            let (start, sig) = self.blocks[b.index()];
            self.lbr.push_sig(start, sig);
            self.lbr.runtime_hash()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_isa::HashConfig;

    fn addr(i: u64) -> Addr {
        Addr::new(0x400000 + i * 64)
    }

    #[test]
    fn fifo_depth_enforced() {
        let mut lbr = Lbr::new(4, HashConfig::default());
        for i in 0..10 {
            lbr.push(addr(i));
        }
        assert_eq!(lbr.len(), 4);
        let e: Vec<_> = lbr.entries().collect();
        assert_eq!(e, vec![addr(6), addr(7), addr(8), addr(9)]);
    }

    #[test]
    fn bloom_tracks_contents_exactly() {
        // "The counters never overflow and the runtime-hash precisely tracks
        // the LBR contents" (§III-A).
        let cfg = HashConfig::default();
        let mut lbr = Lbr::new(8, cfg);
        for i in 0..64 {
            lbr.push(addr(i % 16));
            // Recompute the expected hash from scratch.
            let mut fresh = CountingBloom::new(cfg);
            for e in lbr.entries() {
                fresh.insert(e);
            }
            assert_eq!(lbr.runtime_hash(), fresh.runtime_hash());
        }
    }

    #[test]
    fn no_false_negatives() {
        let cfg = HashConfig::default();
        let mut lbr = Lbr::new(32, cfg);
        for i in 0..32 {
            lbr.push(addr(i));
        }
        for i in 0..32 {
            let ctx = cfg.context_hash([addr(i)]);
            assert!(ctx.matches(lbr.runtime_hash()), "entry {i} must match");
        }
    }

    #[test]
    fn removal_returns_counters_to_zero() {
        let cfg = HashConfig::default();
        let mut bloom = CountingBloom::new(cfg);
        let addrs: Vec<_> = (0..20).map(addr).collect();
        for &a in &addrs {
            bloom.insert(a);
        }
        for &a in &addrs {
            bloom.remove(a);
        }
        assert_eq!(bloom.runtime_hash(), 0);
        assert!(bloom.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn duplicate_entries_need_matching_removals() {
        let cfg = HashConfig::default();
        let mut bloom = CountingBloom::new(cfg);
        bloom.insert(addr(1));
        bloom.insert(addr(1));
        bloom.remove(addr(1));
        // Still present once.
        let ctx = cfg.context_hash([addr(1)]);
        assert!(ctx.matches(bloom.runtime_hash()));
        bloom.remove(addr(1));
        assert!(!ctx.matches(bloom.runtime_hash()) || ctx.bits() == 0);
    }

    #[test]
    fn paper_subset_semantics_through_lbr() {
        // Blocks B and E in the LBR -> Cprefetch conditioned on {B, E} fires.
        let cfg = HashConfig::default();
        let mut lbr = Lbr::new(32, cfg);
        let b = addr(100);
        let e = addr(200);
        lbr.push(b);
        lbr.push(addr(5));
        lbr.push(e);
        let ctx = cfg.context_hash([b, e]);
        assert!(ctx.matches(lbr.runtime_hash()));
        // Push 32 other blocks; B and E fall out, prefetch is disabled
        // (unless hash collisions keep the bits set, which default 16-bit
        // config avoids for these addresses).
        for i in 0..32 {
            lbr.push(addr(i));
        }
        assert!(!lbr.contains(b) && !lbr.contains(e));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        let _ = Lbr::new(0, HashConfig::default());
    }

    #[test]
    fn remove_of_absent_address_saturates_in_every_profile() {
        // One behaviour in debug *and* release: decrementing an empty
        // counter is a no-op, never an underflow (and never a panic).
        let cfg = HashConfig::default();
        let mut bloom = CountingBloom::new(cfg);
        bloom.remove(addr(3)); // never inserted
        assert!(bloom.counters().iter().all(|&c| c == 0));
        assert_eq!(bloom.runtime_hash(), 0);
        // Unbalanced removes around a real insert stay consistent too.
        bloom.insert(addr(3));
        bloom.remove(addr(3));
        bloom.remove(addr(3));
        assert!(bloom.counters().iter().all(|&c| c == 0));
        assert_eq!(bloom.runtime_hash(), 0);
        // The filter remains usable afterwards.
        bloom.insert(addr(3));
        assert!(cfg.context_hash([addr(3)]).matches(bloom.runtime_hash()));
    }

    #[test]
    fn precomputed_signature_push_matches_hashing_push() {
        for cfg in [HashConfig::default(), HashConfig::new(32, 2), HashConfig::new(16, 1)] {
            let mut hashed = Lbr::new(8, cfg);
            let mut precomputed = Lbr::new(8, cfg);
            for i in 0..64 {
                let a = addr(i % 13);
                hashed.push(a);
                let sig = precomputed.sig_of(a);
                precomputed.push_sig(a, sig);
                assert_eq!(hashed.runtime_hash(), precomputed.runtime_hash());
                assert_eq!(hashed.bloom().counters(), precomputed.bloom().counters());
                assert_eq!(
                    hashed.entries().collect::<Vec<_>>(),
                    precomputed.entries().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn incremental_mask_equals_counter_scan() {
        // The maintained bitmask must always equal a from-scratch scan of
        // the counters, including through saturating removes.
        let cfg = HashConfig::default();
        let mut bloom = CountingBloom::new(cfg);
        let mut state = 0x9E3779B97F4A7C15u64;
        // Keep every counter under the 6-bit ceiling: a counter never
        // exceeds the total number of live inserts, so cap that at 60.
        let mut live = [0u32; 48];
        let mut total_live = 0u32;
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % 48) as usize;
            let a = addr(i as u64);
            if state >> 20 & 3 == 0 || total_live >= 60 {
                bloom.remove(a); // sometimes of an absent address: saturates
                if live[i] > 0 {
                    live[i] -= 1;
                    total_live -= 1;
                }
            } else {
                bloom.insert(a);
                live[i] += 1;
                total_live += 1;
            }
            let scanned = bloom
                .counters()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .fold(0u64, |m, (i, _)| m | 1 << i);
            assert_eq!(bloom.runtime_hash(), scanned);
        }
    }
}
