//! Injection maps: which prefetch ops run at which basic blocks.
//!
//! An [`InjectionMap`] is the reproduction's equivalent of the paper's
//! rewritten binary: a per-block list of injected code-prefetch instructions
//! that the simulator executes when the block is entered, plus the static
//! footprint accounting the paper reports in Figs. 4/14.

use crate::ops::PrefetchOp;
use ispy_trace::{BlockId, Line};
use std::collections::BTreeMap;

/// Identity of one planned injection, assigned by the planner in emission
/// order and carried through the simulator so every runtime outcome can be
/// attributed back to the decision that caused it.
///
/// The id indexes the planner's provenance table (`Plan::provenance` in
/// `ispy-core`): id `k` is the `k`-th record.
///
/// # Examples
///
/// ```
/// use ispy_isa::ProvenanceId;
///
/// let id = ProvenanceId(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvenanceId(pub u32);

impl ProvenanceId {
    /// The id as a `usize` index into a provenance table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The ops at one site plus their provenance ids, kept index-aligned.
#[derive(Debug, Clone, PartialEq, Default)]
struct SiteOps {
    ops: Vec<PrefetchOp>,
    ids: Vec<Option<ProvenanceId>>,
}

impl SiteOps {
    fn push(&mut self, op: PrefetchOp, id: Option<ProvenanceId>) {
        self.ops.push(op);
        self.ids.push(id);
    }
}

/// A plan of injected prefetch instructions, keyed by injection site.
///
/// Each op optionally carries a [`ProvenanceId`] linking it back to the
/// planner decision that emitted it; maps built by hand (tests, baselines)
/// may leave ids unset via [`InjectionMap::push`].
///
/// # Examples
///
/// ```
/// use ispy_isa::{InjectionMap, PrefetchOp};
/// use ispy_trace::{BlockId, Line};
///
/// let mut map = InjectionMap::new();
/// map.push(BlockId(7), PrefetchOp::Plain { target: Line::new(42) });
/// assert_eq!(map.num_ops(), 1);
/// assert_eq!(map.injected_bytes(), 7);
/// assert_eq!(map.ids_at(ispy_trace::BlockId(7)), &[None]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionMap {
    per_block: BTreeMap<BlockId, SiteOps>,
}

impl InjectionMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an op at `site` with no provenance id.
    pub fn push(&mut self, site: BlockId, op: PrefetchOp) {
        self.per_block.entry(site).or_default().push(op, None);
    }

    /// Adds an op at `site` attributed to the planner decision `id`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_isa::{InjectionMap, PrefetchOp, ProvenanceId};
    /// use ispy_trace::{BlockId, Line};
    ///
    /// let mut map = InjectionMap::new();
    /// map.push_traced(BlockId(1), PrefetchOp::Plain { target: Line::new(9) }, ProvenanceId(0));
    /// assert_eq!(map.ids_at(BlockId(1)), &[Some(ProvenanceId(0))]);
    /// ```
    pub fn push_traced(&mut self, site: BlockId, op: PrefetchOp, id: ProvenanceId) {
        self.per_block.entry(site).or_default().push(op, Some(id));
    }

    /// The ops injected at `site`, if any.
    pub fn ops_at(&self, site: BlockId) -> &[PrefetchOp] {
        self.per_block.get(&site).map_or(&[], |s| s.ops.as_slice())
    }

    /// The provenance ids of the ops at `site`, index-aligned with
    /// [`InjectionMap::ops_at`].
    pub fn ids_at(&self, site: BlockId) -> &[Option<ProvenanceId>] {
        self.per_block.get(&site).map_or(&[], |s| s.ids.as_slice())
    }

    /// Iterates `(site, ops)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[PrefetchOp])> {
        self.per_block.iter().map(|(b, s)| (*b, s.ops.as_slice()))
    }

    /// Number of injection sites.
    pub fn num_sites(&self) -> usize {
        self.per_block.len()
    }

    /// Total number of injected instructions.
    pub fn num_ops(&self) -> usize {
        self.per_block.values().map(|s| s.ops.len()).sum()
    }

    /// Whether the map injects nothing.
    pub fn is_empty(&self) -> bool {
        self.per_block.is_empty()
    }

    /// Total bytes added to the text segment (static code footprint delta).
    pub fn injected_bytes(&self) -> u64 {
        self.per_block.values().flat_map(|s| &s.ops).map(|op| u64::from(op.encoded_bytes())).sum()
    }

    /// Static footprint increase relative to a text segment of `text_bytes`.
    pub fn static_increase(&self, text_bytes: u64) -> f64 {
        if text_bytes == 0 {
            0.0
        } else {
            self.injected_bytes() as f64 / text_bytes as f64
        }
    }

    /// Count of ops by mnemonic, for reporting.
    pub fn op_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist = BTreeMap::new();
        for site in self.per_block.values() {
            for op in &site.ops {
                *hist.entry(op.mnemonic()).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Merges another map into this one, preserving provenance ids.
    pub fn merge(&mut self, other: InjectionMap) {
        for (site, ops) in other.per_block {
            let entry = self.per_block.entry(site).or_default();
            entry.ops.extend(ops.ops);
            entry.ids.extend(ops.ids);
        }
    }

    /// Lowers the map into its dense, replay-ready form; see
    /// [`CompiledInjections`]. `min_blocks` (typically
    /// `Program::num_blocks`) sizes the lookup table so every block the
    /// trace can reference indexes in bounds.
    pub fn compile(&self, min_blocks: usize) -> CompiledInjections {
        CompiledInjections::compile(self, min_blocks)
    }
}

/// The dense, replay-ready lowering of an [`InjectionMap`].
///
/// Block ids are dense indices, so the per-event site lookup the simulator
/// performs on *every* trace event can be one bounds-checked slice index
/// instead of a `BTreeMap` tree walk. All sites' lowered ops (each carrying
/// its provenance id) live in one contiguous array with a prefix-offset
/// table indexed by `BlockId` — the same layout a compiler's
/// row-displacement dispatch table would use.
///
/// Compiling is `O(sites + blocks)`; sweeps that re-simulate one plan over
/// many traces (e.g. the Fig. 16 input-drift grid) compile once and pass the
/// result through [`RunOptions`](../../ispy_sim/struct.RunOptions.html) for
/// every run.
///
/// # Examples
///
/// ```
/// use ispy_isa::{InjectionMap, PrefetchOp};
/// use ispy_trace::{BlockId, Line};
///
/// let mut map = InjectionMap::new();
/// map.push(BlockId(3), PrefetchOp::Plain { target: Line::new(42) });
/// let compiled = map.compile(10);
/// let [op] = compiled.compiled_site(BlockId(3)) else { panic!("one op at B3") };
/// assert_eq!(compiled.op_lines(op), &[Line::new(42)]);
/// assert!(compiled.compiled_site(BlockId(9)).is_empty());
/// assert!(compiled.compiled_site(BlockId(1_000_000)).is_empty()); // out of range
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledInjections {
    /// `starts[b]..starts[b + 1]` is block `b`'s range in `compiled`.
    starts: Vec<u32>,
    /// Branch-free lowering of every op, sites in block order and each
    /// site's ops in map order.
    compiled: Vec<CompiledOp>,
    /// Every op's target lines, flattened base-first; a [`CompiledOp`]
    /// addresses its slice by range so firing never re-decodes a coalesce
    /// mask bit-by-bit.
    lines: Vec<Line>,
}

/// One prefetch op in the form the replay engine's hot loop consumes: the
/// condition as a raw bitmask (`0` for unconditional ops — the subset test
/// `bits & !runtime == 0` then trivially passes, so firing needs no branch
/// on op kind), the target lines pre-flattened, and the L1I presence-shadow
/// words and masks covering those lines so an all-resident firing — the
/// steady state — is two `u64` AND-compares instead of a per-line walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledOp {
    /// Context-hash bit pattern the condition requires; `0` when the op is
    /// unconditional. The op fires iff `ctx_bits & !runtime_hash == 0`.
    pub ctx_bits: u64,
    /// This op's range in [`CompiledInjections::op_lines`]' backing array.
    lines_lo: u32,
    lines_hi: u32,
    /// Presence-shadow word indices covering every target line; meaningful
    /// only when [`CompiledOp::shadow_batchable`] is set. Single-word ops
    /// duplicate the word with an empty second mask.
    pub shadow_words: [u32; 2],
    /// Required bits within [`CompiledOp::shadow_words`].
    pub shadow_masks: [u64; 2],
    /// Highest target line id; the engine only takes the shadow-batched
    /// residency check when this is below the shadow's line limit.
    pub max_line: u64,
    /// Whether the two shadow word/mask pairs cover all target lines (ops
    /// spanning more than two words fall back to the per-line path).
    pub shadow_batchable: bool,
    /// Provenance of the planner decision that emitted the op, if tracked.
    pub id: Option<ProvenanceId>,
}

impl CompiledOp {
    /// Number of lines the op prefetches when it fires.
    #[inline]
    pub fn num_lines(&self) -> u64 {
        u64::from(self.lines_hi - self.lines_lo)
    }
}

/// Lowers one op into its [`CompiledOp`] form, appending its target lines
/// (base first, then coalesced extras in mask order — the exact order the
/// interpreted path issues them) to `lines`.
fn lower_op(op: &PrefetchOp, id: Option<ProvenanceId>, lines: &mut Vec<Line>) -> CompiledOp {
    let ctx_bits = op.condition().map_or(0, |c| c.bits());
    let lo = lines.len();
    lines.push(op.base_line());
    if let PrefetchOp::Coalesced { base, mask } | PrefetchOp::CondCoalesced { base, mask, .. } = op
    {
        lines.extend(mask.decode(*base));
    }
    let mut shadow_words = [0u32; 2];
    let mut shadow_masks = [0u64; 2];
    let mut used = 0usize;
    let mut shadow_batchable = true;
    let mut max_line = 0u64;
    for l in &lines[lo..] {
        let raw = l.raw();
        max_line = max_line.max(raw);
        let word = raw >> 6;
        if word > u64::from(u32::MAX) {
            // Beyond any shadow the engine could enable; the max_line guard
            // would reject the batch anyway, so don't bother encoding it.
            shadow_batchable = false;
            continue;
        }
        let (word, bit) = (word as u32, 1u64 << (raw & 63));
        if let Some(i) = shadow_words[..used].iter().position(|&w| w == word) {
            shadow_masks[i] |= bit;
        } else if used < 2 {
            shadow_words[used] = word;
            shadow_masks[used] = bit;
            used += 1;
        } else {
            shadow_batchable = false;
        }
    }
    if used == 1 {
        // Point the unused pair at the same word with no required bits so
        // the engine's unconditional two-word test stays in bounds.
        shadow_words[1] = shadow_words[0];
        shadow_masks[1] = 0;
    }
    CompiledOp {
        ctx_bits,
        lines_lo: lo as u32,
        lines_hi: lines.len() as u32,
        shadow_words,
        shadow_masks,
        max_line,
        shadow_batchable,
        id,
    }
}

impl CompiledInjections {
    /// Lowers `map` into the dense form; see [`InjectionMap::compile`].
    ///
    /// # Panics
    ///
    /// Panics if the map holds more than `u32::MAX` ops (the offset table is
    /// 32-bit; real plans are orders of magnitude smaller).
    pub fn compile(map: &InjectionMap, min_blocks: usize) -> Self {
        let limit = map.per_block.keys().next_back().map_or(0, |b| b.index() + 1).max(min_blocks);
        let total = map.num_ops();
        assert!(u32::try_from(total).is_ok(), "injection map too large to compile");
        let mut starts = vec![0u32; limit + 1];
        let mut compiled = Vec::with_capacity(total);
        let mut lines = Vec::with_capacity(total);
        let mut next = 0usize;
        for (site, s) in &map.per_block {
            let b = site.index();
            for slot in &mut starts[next..=b] {
                *slot = compiled.len() as u32;
            }
            for (op, id) in s.ops.iter().zip(&s.ids) {
                compiled.push(lower_op(op, *id, &mut lines));
            }
            next = b + 1;
        }
        for slot in &mut starts[next..=limit] {
            *slot = compiled.len() as u32;
        }
        assert!(u32::try_from(lines.len()).is_ok(), "injection map too large to compile");
        CompiledInjections { starts, compiled, lines }
    }

    /// The lowered ops at `site`, in the map's order (empty for sites out
    /// of range).
    #[inline]
    pub fn compiled_site(&self, site: BlockId) -> &[CompiledOp] {
        &self.compiled[self.site_range(site)]
    }

    /// The target lines of one lowered op, base first, in issue order.
    #[inline]
    pub fn op_lines(&self, op: &CompiledOp) -> &[Line] {
        &self.lines[op.lines_lo as usize..op.lines_hi as usize]
    }

    /// `site`'s index range in [`CompiledInjections::compiled_ops`] (empty
    /// for sites out of range). Lets a caller keep side tables parallel to
    /// the compiled op array and address them per site.
    #[inline]
    pub fn site_range(&self, site: BlockId) -> std::ops::Range<usize> {
        let b = site.index();
        if b + 1 >= self.starts.len() {
            return 0..0;
        }
        self.starts[b] as usize..self.starts[b + 1] as usize
    }

    /// Every lowered op across every site, in [`CompiledInjections::site_range`]
    /// order.
    #[inline]
    pub fn compiled_ops(&self) -> &[CompiledOp] {
        &self.compiled
    }

    /// Total number of compiled ops.
    pub fn num_ops(&self) -> usize {
        self.compiled.len()
    }

    /// Whether the compiled plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Shifts every provenance id by `base` and returns the id span this
    /// plan occupies (`max id + 1` before the shift; `0` if no op carries an
    /// id). Mid-run plan hot-swaps rebase each generation's ids into a
    /// disjoint range so one outcome ledger can attribute every in-flight
    /// prefetch — old ids keep draining under the previous generation while
    /// new firings record under the next.
    ///
    /// # Panics
    ///
    /// Panics if a rebased id would overflow the `u32` id space (which the
    /// simulator reserves `u32::MAX` of as its "untagged" sentinel).
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_isa::{InjectionMap, PrefetchOp, ProvenanceId};
    /// use ispy_trace::{BlockId, Line};
    ///
    /// let mut map = InjectionMap::new();
    /// map.push_traced(BlockId(1), PrefetchOp::Plain { target: Line::new(9) }, ProvenanceId(0));
    /// let mut compiled = map.compile(4);
    /// assert_eq!(compiled.rebase_provenance(10), 1);
    /// assert_eq!(compiled.compiled_site(BlockId(1))[0].id, Some(ProvenanceId(10)));
    /// ```
    pub fn rebase_provenance(&mut self, base: u32) -> u32 {
        let mut span = 0u32;
        for id in self.compiled.iter_mut().filter_map(|op| op.id.as_mut()) {
            span = span.max(id.0 + 1);
            id.0 = id.0.checked_add(base).expect("provenance id overflow");
            assert!(id.0 != u32::MAX, "rebased id collides with the untagged sentinel");
        }
        span
    }
}

impl FromIterator<(BlockId, PrefetchOp)> for InjectionMap {
    fn from_iter<I: IntoIterator<Item = (BlockId, PrefetchOp)>>(iter: I) -> Self {
        let mut map = InjectionMap::new();
        for (site, op) in iter {
            map.push(site, op);
        }
        map
    }
}

impl Extend<(BlockId, PrefetchOp)> for InjectionMap {
    fn extend<I: IntoIterator<Item = (BlockId, PrefetchOp)>>(&mut self, iter: I) {
        for (site, op) in iter {
            self.push(site, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::Line;

    fn plain(l: u64) -> PrefetchOp {
        PrefetchOp::Plain { target: Line::new(l) }
    }

    #[test]
    fn push_and_lookup() {
        let mut m = InjectionMap::new();
        m.push(BlockId(1), plain(10));
        m.push(BlockId(1), plain(11));
        m.push(BlockId(2), plain(12));
        assert_eq!(m.ops_at(BlockId(1)).len(), 2);
        assert_eq!(m.ops_at(BlockId(2)).len(), 1);
        assert!(m.ops_at(BlockId(3)).is_empty());
        assert_eq!(m.num_sites(), 2);
        assert_eq!(m.num_ops(), 3);
    }

    #[test]
    fn footprint_accounting() {
        let m: InjectionMap =
            [(BlockId(0), plain(1)), (BlockId(0), plain(2))].into_iter().collect();
        assert_eq!(m.injected_bytes(), 14);
        assert!((m.static_increase(1400) - 0.01).abs() < 1e-12);
        assert_eq!(m.static_increase(0), 0.0);
    }

    #[test]
    fn histogram_counts_mnemonics() {
        let mut m = InjectionMap::new();
        m.push(BlockId(0), plain(1));
        m.push(BlockId(1), plain(2));
        let hist = m.op_histogram();
        assert_eq!(hist.get("prefetch"), Some(&2));
    }

    #[test]
    fn merge_concatenates() {
        let mut a: InjectionMap = [(BlockId(0), plain(1))].into_iter().collect();
        let b: InjectionMap =
            [(BlockId(0), plain(2)), (BlockId(9), plain(3))].into_iter().collect();
        a.merge(b);
        assert_eq!(a.ops_at(BlockId(0)).len(), 2);
        assert_eq!(a.num_sites(), 2);
    }

    #[test]
    fn traced_ids_stay_aligned_with_ops() {
        let mut m = InjectionMap::new();
        m.push_traced(BlockId(1), plain(10), ProvenanceId(0));
        m.push(BlockId(1), plain(11));
        m.push_traced(BlockId(1), plain(12), ProvenanceId(2));
        assert_eq!(m.ids_at(BlockId(1)), &[Some(ProvenanceId(0)), None, Some(ProvenanceId(2))]);
        assert_eq!(m.ops_at(BlockId(1)).len(), m.ids_at(BlockId(1)).len());
        assert!(m.ids_at(BlockId(99)).is_empty());
    }

    #[test]
    fn merge_preserves_ids() {
        let mut a = InjectionMap::new();
        a.push_traced(BlockId(0), plain(1), ProvenanceId(0));
        let mut b = InjectionMap::new();
        b.push_traced(BlockId(0), plain(2), ProvenanceId(1));
        a.merge(b);
        assert_eq!(a.ids_at(BlockId(0)), &[Some(ProvenanceId(0)), Some(ProvenanceId(1))]);
    }

    #[test]
    fn iter_is_in_block_order() {
        let m: InjectionMap =
            [(BlockId(9), plain(1)), (BlockId(3), plain(2))].into_iter().collect();
        let sites: Vec<_> = m.iter().map(|(b, _)| b.0).collect();
        assert_eq!(sites, vec![3, 9]);
    }

    #[test]
    fn empty_map() {
        let m = InjectionMap::new();
        assert!(m.is_empty());
        assert_eq!(m.injected_bytes(), 0);
    }

    /// Each site's lowered ops carry the map's condition bits, target
    /// lines and provenance ids, in the map's order.
    fn assert_lowers(c: &CompiledInjections, m: &InjectionMap, b: u32) {
        let site = BlockId(b);
        let lowered = c.compiled_site(site);
        assert_eq!(lowered.len(), m.ops_at(site).len(), "op count at B{b}");
        for ((cop, op), id) in lowered.iter().zip(m.ops_at(site)).zip(m.ids_at(site)) {
            assert_eq!(cop.ctx_bits, op.condition().map_or(0, |x| x.bits()), "B{b}: {op}");
            assert_eq!(c.op_lines(cop), op.target_lines(), "B{b}: {op}");
            assert_eq!(cop.id, *id, "B{b}: {op}");
        }
    }

    #[test]
    fn compiled_matches_map_at_every_site() {
        use crate::context::HashConfig;
        use crate::ops::CoalesceMask;
        let ctx = HashConfig::default().context_hash([ispy_trace::Addr::new(0x400000)]);
        let mask = CoalesceMask::from_bits(0b101, 8);
        let mut m = InjectionMap::new();
        m.push_traced(BlockId(1), plain(10), ProvenanceId(0));
        m.push(BlockId(1), PrefetchOp::Cond { target: Line::new(11), ctx });
        m.push_traced(
            BlockId(4),
            PrefetchOp::Coalesced { base: Line::new(12), mask },
            ProvenanceId(1),
        );
        m.push(BlockId(9), PrefetchOp::CondCoalesced { base: Line::new(13), mask, ctx });
        let c = m.compile(12);
        for b in 0..16u32 {
            assert_lowers(&c, &m, b);
        }
        assert_eq!(c.num_ops(), m.num_ops());
        assert!(!c.is_empty());
    }

    #[test]
    fn compiled_covers_sites_beyond_min_blocks() {
        let mut m = InjectionMap::new();
        m.push(BlockId(20), plain(1));
        let c = m.compile(4);
        assert_eq!(c.compiled_site(BlockId(20)).len(), 1);
        assert!(c.compiled_site(BlockId(3)).is_empty());
        assert!(c.compiled_site(BlockId(21)).is_empty());
    }

    #[test]
    fn lowered_ops_match_interpreted_semantics() {
        use crate::context::HashConfig;
        use crate::ops::CoalesceMask;
        let hash = HashConfig::default();
        let ctx = hash.context_hash([ispy_trace::Addr::new(0x400000)]);
        let mask = CoalesceMask::from_bits(0b101, 8);
        let ops = [
            PrefetchOp::Plain { target: Line::new(70) },
            PrefetchOp::Cond { target: Line::new(71), ctx },
            PrefetchOp::Coalesced { base: Line::new(100), mask },
            PrefetchOp::CondCoalesced { base: Line::new(200), mask, ctx },
        ];
        let mut m = InjectionMap::new();
        for op in ops {
            m.push(BlockId(5), op);
        }
        let c = m.compile(8);
        let lowered = c.compiled_site(BlockId(5));
        assert_eq!(lowered.len(), ops.len());
        for (cop, op) in lowered.iter().zip(&ops) {
            assert_eq!(cop.ctx_bits, op.condition().map_or(0, |x| x.bits()), "{op}");
            assert_eq!(c.op_lines(cop), op.target_lines(), "{op}");
            assert_eq!(cop.num_lines() as usize, op.target_lines().len());
            assert_eq!(cop.max_line, op.target_lines().iter().map(|l| l.raw()).max().unwrap());
            // The fire test must agree with the interpreted one for any
            // runtime hash.
            for runtime in [0u64, ctx.bits(), u64::MAX, 0b1010101] {
                assert_eq!(cop.ctx_bits & !runtime == 0, op.fires(runtime), "{op} vs {runtime:b}");
            }
        }
    }

    #[test]
    fn shadow_masks_cover_exactly_the_target_lines() {
        use crate::ops::CoalesceMask;
        // Lines 62, 63+1=64.. straddle a word boundary: two words used.
        let mask = CoalesceMask::from_bits(0b11, 8);
        let mut m = InjectionMap::new();
        m.push(BlockId(0), PrefetchOp::Coalesced { base: Line::new(62), mask });
        m.push(BlockId(0), plain(9)); // single-word op
        let c = m.compile(1);
        let [two_words, one_word] = c.compiled_site(BlockId(0)) else { panic!("two ops") };
        for cop in [two_words, one_word] {
            assert!(cop.shadow_batchable);
            let mut covered: Vec<u64> = Vec::new();
            for (w, bits) in cop.shadow_words.iter().zip(cop.shadow_masks) {
                for b in 0..64u64 {
                    if bits >> b & 1 != 0 {
                        covered.push(u64::from(*w) * 64 + b);
                    }
                }
            }
            covered.sort_unstable();
            let mut expect: Vec<u64> = c.op_lines(cop).iter().map(|l| l.raw()).collect();
            expect.sort_unstable();
            assert_eq!(covered, expect);
        }
        assert_eq!(one_word.shadow_masks[1], 0, "single-word op pads with an empty mask");
        assert_eq!(one_word.shadow_words[1], one_word.shadow_words[0]);
    }

    #[test]
    fn absurdly_far_lines_are_not_batchable() {
        // A coalesce window is at most 65 consecutive lines, so an op can
        // never span three shadow words; the only non-batchable case is a
        // line whose shadow word index would overflow the u32 encoding.
        // Such lines also sit far beyond any shadow limit, so nothing is
        // lost — the op just keeps the per-line path.
        let far = 1u64 << 39;
        let mut m = InjectionMap::new();
        m.push(BlockId(0), plain(far));
        let c = m.compile(1);
        let cop = &c.compiled_site(BlockId(0))[0];
        assert!(!cop.shadow_batchable);
        assert_eq!(c.op_lines(cop), &[Line::new(far)]);
        assert_eq!(cop.max_line, far);
    }

    #[test]
    fn rebase_shifts_every_id_and_reports_the_span() {
        let mut m = InjectionMap::new();
        m.push_traced(BlockId(1), plain(10), ProvenanceId(0));
        m.push(BlockId(1), plain(11)); // untagged op stays untagged
        m.push_traced(BlockId(4), plain(12), ProvenanceId(2));
        let mut c = m.compile(8);
        assert_eq!(c.rebase_provenance(100), 3);
        let ids =
            |b: u32| -> Vec<_> { c.compiled_site(BlockId(b)).iter().map(|op| op.id).collect() };
        assert_eq!(ids(1), [Some(ProvenanceId(100)), None]);
        assert_eq!(ids(4), [Some(ProvenanceId(102))]);
        // Rebasing moves ids only: conditions and target lines stay the map's.
        let mut shifted = InjectionMap::new();
        shifted.push_traced(BlockId(1), plain(10), ProvenanceId(100));
        shifted.push(BlockId(1), plain(11));
        shifted.push_traced(BlockId(4), plain(12), ProvenanceId(102));
        for b in 0..8u32 {
            assert_lowers(&c, &shifted, b);
        }
        // An untagged plan occupies no id space.
        let mut untagged = InjectionMap::new();
        untagged.push(BlockId(0), plain(1));
        assert_eq!(untagged.compile(2).rebase_provenance(7), 0);
    }

    #[test]
    fn compiled_empty_map_is_empty_everywhere() {
        let c = InjectionMap::new().compile(8);
        assert!(c.is_empty());
        assert_eq!(c.num_ops(), 0);
        assert!(c.compiled_site(BlockId(0)).is_empty());
        let d = CompiledInjections::default();
        assert!(d.compiled_site(BlockId(0)).is_empty());
        assert!(d.compiled_site(BlockId(7)).is_empty());
    }
}
