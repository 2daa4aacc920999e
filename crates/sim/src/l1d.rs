//! The L1D side of replay, computed once per trace.
//!
//! Whether a data access hits L1D depends only on the trace and the
//! program's data layout (its per-block data-access counts and footprint);
//! the L1D geometry and the streaming fraction are fixed in [`MACHINE`].
//! Neither the plan nor any [`SimConfig`] field (`ideal_icache`, hash, LBR
//! depth, prefetch priority, switch schedule) reaches L1D: switch effects
//! touch only L1I and L2. So a
//! [`DataFilter`] — the only code that derives data addresses ([`mix`] and
//! the stream split) and runs the L1D — writes each access's outcome into
//! an [`L1dRecord`], and the engine's data side only reads that record,
//! sending each miss on to the shared levels.
//!
//! Every replay of a materialized trace ([`run`](crate::run),
//! [`run_adaptive`](crate::run_adaptive)) takes the record from the
//! trace's memo ([`Trace::derived`]), one per program data layout: the
//! first replay builds it and every later one — the other arms, every sweep
//! point, every adaptive run — reuses it. Only
//! [`run_streaming`](crate::run_streaming), which has no materialized
//! trace, filters each chunk into a reused record instead.
//!
//! [`Trace::derived`]: ispy_trace::Trace::derived

use crate::cache::Cache;
use crate::config::{SimConfig, MACHINE};
use crate::engine::RecordFilter;
use ispy_trace::{BlockId, Line, Program};
use std::hash::Hasher;

#[cfg(test)]
pub(crate) mod oracle;

/// Data lines live in a disjoint address range from code lines.
pub(crate) const DATA_LINE_BASE: u64 = 1 << 40;

/// One replay's L1D outcomes, in trace order: a miss bit per data access
/// and, per miss, the line's offset into the data footprint.
#[derive(Debug, Default)]
pub(crate) struct L1dRecord {
    /// Bit `i % 64` of word `i / 64` is set iff access `i` missed L1D.
    miss_bits: Vec<u64>,
    /// Data-footprint offset of each miss, in access order.
    miss_offsets: Vec<u32>,
    /// Accesses recorded.
    accesses: usize,
}

impl L1dRecord {
    /// Accesses recorded.
    pub(crate) fn accesses(&self) -> usize {
        self.accesses
    }

    /// Whether access `i` missed L1D.
    #[cfg(test)]
    pub(crate) fn missed(&self, i: usize) -> bool {
        self.miss_bits[i >> 6] >> (i & 63) & 1 != 0
    }

    /// How many of the `n > 0` accesses from `start` on missed L1D.
    #[inline]
    pub(crate) fn misses_in(&self, start: usize, n: usize) -> usize {
        debug_assert!(n > 0 && start + n <= self.accesses);
        let end = start + n;
        let (first, last) = (start >> 6, (end - 1) >> 6);
        let head = self.miss_bits[first] >> (start & 63);
        if first == last {
            // `n <= 64` here; `n == 64` only from bit 0, where the shift is 0.
            let keep = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            return (head & keep).count_ones() as usize;
        }
        let mut total = head.count_ones();
        for &w in &self.miss_bits[first + 1..last] {
            total += w.count_ones();
        }
        let tail_bits = end - (last << 6);
        let keep = if tail_bits == 64 { u64::MAX } else { (1u64 << tail_bits) - 1 };
        total += (self.miss_bits[last] & keep).count_ones();
        total as usize
    }

    /// The data line of miss `j`.
    #[inline]
    pub(crate) fn miss_line(&self, j: usize) -> Line {
        Line::new(DATA_LINE_BASE + u64::from(self.miss_offsets[j]))
    }
}

/// Turns block events into their data accesses and runs them through L1D.
///
/// Owns the L1D, the stream counter and the footprint reduction, and
/// carries them across calls.
pub(crate) struct DataFilter {
    l1d: Cache,
    /// Data accesses per block, indexable by [`BlockId::index`].
    accesses: Vec<u8>,
    data_lines: u64,
    /// `data_lines − 1` when the data footprint is a power of two (every
    /// bundled app model), letting the filter reduce addresses with an AND
    /// instead of two 64-bit divisions per access; `0` disables it.
    data_mask: u64,
    stream_counter: u64,
}

impl RecordFilter for DataFilter {
    type Record = L1dRecord;

    /// A filter over `program`'s data layout, starting from an empty L1D.
    fn new(program: &Program, _cfg: &SimConfig) -> Self {
        let data_lines = program.data_footprint_lines();
        DataFilter {
            l1d: Cache::new(MACHINE.l1d),
            accesses: program.blocks().iter().map(|b| b.data_accesses()).collect(),
            data_lines,
            data_mask: if data_lines.is_power_of_two() { data_lines - 1 } else { 0 },
            stream_counter: 0,
        }
    }

    /// Digests the data layout.
    fn key(program: &Program, _cfg: &SimConfig) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // Eight per-block counts per word keeps the digest cheap next to a
        // replay even on a memo hit.
        for blocks in program.blocks().chunks(8) {
            let word = blocks.iter().fold(0u64, |w, b| w << 8 | u64::from(b.data_accesses()));
            h.write_u64(word);
        }
        h.write_u64(program.num_blocks() as u64);
        h.write_u64(program.data_footprint_lines());
        h.finish()
    }

    /// Records the L1D outcomes of `blocks`' data accesses.
    fn refill(&mut self, blocks: &[BlockId], out: &mut L1dRecord) {
        out.miss_bits.clear();
        out.miss_offsets.clear();
        // Bits gather in a register and land a word at a time.
        let (mut word, mut bit, mut accesses) = (0u64, 0u32, 0usize);
        for &b in blocks {
            let n = self.accesses[b.index()];
            accesses += usize::from(n);
            for k in 0..n {
                let site = mix(u64::from(b.0), u64::from(k));
                let offset = if site % 100 < STREAM_THRESHOLD {
                    self.stream_counter = self.stream_counter.wrapping_add(1);
                    self.data_index(self.stream_counter)
                } else {
                    self.data_index(site)
                };
                if !self.l1d.demand_fill(Line::new(DATA_LINE_BASE + offset)) {
                    word |= 1 << bit;
                    // Below `data_lines`, which `Program` bounds by
                    // `MAX_DATA_FOOTPRINT_LINES` = `u32::MAX`.
                    out.miss_offsets.push(offset as u32);
                }
                bit += 1;
                if bit == 64 {
                    out.miss_bits.push(word);
                    (word, bit) = (0, 0);
                }
            }
        }
        if bit > 0 {
            out.miss_bits.push(word);
        }
        out.accesses = accesses;
    }
}

impl DataFilter {
    /// Reduces `x` into the data footprint: a mask when the footprint is a
    /// power of two (bit-identical to the modulo), a division otherwise.
    #[inline]
    fn data_index(&self, x: u64) -> u64 {
        if self.data_mask != 0 {
            x & self.data_mask
        } else {
            x % self.data_lines
        }
    }
}

/// The stream split's threshold: an access streams iff its site hash
/// `% 100` is below it.
const STREAM_THRESHOLD: u64 = (MACHINE.d_stream_frac * 100.0) as u64;

/// Cheap 64-bit mix for deterministic pseudo-random data addresses.
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
