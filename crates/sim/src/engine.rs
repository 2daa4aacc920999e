//! The trace-replay engine: executes a block trace against the hierarchy,
//! running injected prefetch instructions with their conditional/coalesced
//! semantics, and charges cycles.
//!
//! ## Timing model
//!
//! Per block event:
//!
//! 1. The block retires into the LBR (updating the Bloom filter); its
//!    runtime hash comes from the trace's runtime-hash record (below).
//! 2. Injected prefetch ops at the block execute: each costs one issued
//!    instruction; conditional ops check the Bloom runtime hash; firing ops
//!    issue line requests that complete after the line's current residency
//!    latency, then fill L1I at the configured (half) priority.
//! 3. Each I-line the block spans is fetched: L1I hit = no stall; miss
//!    stalls for `lat(level) − lat(L1I)`; a line still in flight from a
//!    prefetch stalls only for the remaining time (late prefetch).
//! 4. Data accesses run against L1D/L2/L3 with a fractional stall charge
//!    (the OoO backend hides most data latency). Their L1D outcomes come
//!    from the trace's L1D record (below); each L1D miss is served by the
//!    shared L2/L3, which instruction fetches and prefetches also fill.
//! 5. Issue bandwidth: `ceil(instrs / width)` cycles.
//!
//! Absolute cycle counts are a simplification of the authors' ZSim setup;
//! the harness only interprets *relative* results (speedups, fractions of
//! ideal), which is also how the paper reports its evaluation.
//!
//! ## Hot-path structure
//!
//! Every block takes the same step (`Engine::step`) and every injected op
//! the same loop, which do only the work that depends on cache state (see
//! DESIGN.md "Engine internals"):
//!
//! * **Per-trace records** — two parts of replay depend only on the trace
//!   and the config, never on a plan, arm, ideal I-cache or switch
//!   schedule, so each is computed once per trace and read by every
//!   replay of it. The *L1D record* (`l1d.rs`) holds each data access's
//!   L1D outcome: a miss bit per access and a footprint offset per miss;
//!   the data side pops a block's miss count and sends only the misses on
//!   to L2/L3. The *runtime-hash record* (`lbr.rs`) holds the LBR's
//!   runtime hash after each block event, so a step reads one word instead
//!   of pushing the LBR; static runs whose plan has no conditional op skip
//!   it. Both are built by a `RecordFilter` and memoized on the
//!   [`Trace`], keyed by what each reads; every replay of a materialized
//!   trace ([`run`], [`run_adaptive`](crate::run_adaptive)) reads the memo
//!   at trace positions. Only [`run_streaming`], which has no trace, fills
//!   each chunk into reused records, its filters carrying the L1D and LBR
//!   across chunks.
//! * **Branch-free op execution** — [`CompiledOp`](ispy_isa::CompiledOp)s
//!   carry the condition as a raw bitmask (`bits & !runtime == 0`, `0` for
//!   unconditional ops) and the target lines pre-flattened with
//!   presence-shadow word masks, so an op whose lines fall in two shadow
//!   words issues bit-parallel: `mask & !l1i_shadow & !in_flight` per word
//!   is the set of lines to request, and the steady state (everything
//!   already resident) is two `u64` AND-NOTs instead of a per-line walk.
//! * **Arena in-flight state** — one table indexed by line id holds each
//!   line's in-flight completion and the owner of its latest prefetch, from
//!   issue until the line is settled (demanded or evicted). One line limit,
//!   the code lines plus a shadow word, sizes it, the presence shadows and
//!   the bit-parallel issue, so the steady state never hashes; only lines
//!   beyond the limit fall back to a hash map.
//! * **Fills that skip proven scans** — where a miss or a presence shadow
//!   already shows a line absent from a level, its fill skips the scan
//!   for an existing copy.

use crate::config::{SimConfig, MACHINE};
use crate::fxhash::FxHashMap;
use crate::hierarchy::Hierarchy;
use crate::l1d::DataFilter;
use crate::lbr::HashFilter;
use crate::metrics::SimResult;
use crate::outcome::OutcomeLedger;
use crate::switch::{SwitchEffect, SwitchSchedule};
use ispy_artifact::ArtifactError;
use ispy_isa::{CompiledInjections, InjectionMap, ProvenanceId};
use ispy_trace::{BlockId, BlockSource, Line, Program, Trace};
use std::ops::Deref;
use std::sync::Arc;

/// Callbacks the engine raises during replay; used by the profiler.
pub trait SimObserver {
    /// A block is about to execute at `cycle` (trace position `idx`).
    fn block_entered(&mut self, idx: usize, block: BlockId, cycle: u64) {
        let _ = (idx, block, cycle);
    }

    /// A demand instruction fetch missed L1I.
    fn icache_miss(&mut self, idx: usize, block: BlockId, line: Line, cycle: u64) {
        let _ = (idx, block, line, cycle);
    }

    /// A scenario phase boundary was crossed: `phase` governs from trace
    /// position `idx` onward. Raised before the block at `idx` executes;
    /// only runs whose [`SimConfig::schedule`] carries phase entries see it.
    fn phase_boundary(&mut self, idx: usize, phase: u32, cycle: u64) {
        let _ = (idx, phase, cycle);
    }

    /// A tenant context switch occurred: `tenant` owns the core from trace
    /// position `idx` onward. Raised before the block at `idx` executes
    /// (after the switch's cache effect has been applied); only runs whose
    /// [`SimConfig::schedule`] carries switch entries see it.
    fn tenant_switch(&mut self, idx: usize, tenant: u32, cycle: u64) {
        let _ = (idx, tenant, cycle);
    }
}

/// Optional attachments for a run.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Injected code-prefetch instructions (the rewritten binary).
    pub injections: Option<&'a InjectionMap>,
    /// A pre-lowered injection plan (see [`InjectionMap::compile`]). When
    /// set it takes precedence over `injections`; callers replaying the same
    /// plan across many configurations (the figure sweeps) compile once and
    /// pass it here to skip the per-run lowering.
    pub compiled: Option<&'a CompiledInjections>,
    /// An observer receiving replay events.
    pub observer: Option<&'a mut dyn SimObserver>,
    /// Collects per-injection outcome counts, bucketed by the provenance ids
    /// the injection map carries.
    pub outcomes: Option<&'a mut OutcomeLedger>,
}

/// Vacant-slot sentinel in the in-flight arena. A real completion cycle can
/// never reach it (it would overflow the cycle counter first).
const EMPTY_SLOT: u64 = u64::MAX;

/// No-owner sentinel in the arena's owner column.
const NO_TAG: u32 = u32::MAX;

/// Upper bound on the line ids every line-indexed structure covers densely:
/// the presence shadows, the in-flight arena and the bit-parallel issue
/// (24 MiB of dense state). Generated programs stay far below it; lines
/// beyond it (pathological hand-built plans) take the scan and hash-map
/// paths.
const LINE_CAP: u64 = 1 << 21;

/// Compact the completion queue once it holds at least this many entries and
/// stale ones are the majority. Small enough to bound memory on pathological
/// traces, large enough that compaction is rare in healthy ones.
const INFLIGHT_COMPACT_MIN: usize = 64;

/// In-flight prefetch bookkeeping and prefetch ownership, slab-style: lines
/// below `limit` (all code lines, in practice) live in dense columns indexed
/// by line id — insert, probe, and remove are array reads with no hashing —
/// while far-out lines (hand-built plans prefetching garbage addresses)
/// spill to a hash map.
///
/// The owner column holds the provenance id of the injection that issued a
/// line's latest prefetch, from issue until the line is *settled*: demanded
/// while in flight ([`InflightArena::remove`]), or, once filled, demanded
/// or evicted untouched ([`InflightArena::settle`]). So completions, late
/// demands and the fate of the filled line are all charged to their issuer.
/// Throughput runs carry no provenance, so their arenas skip the column
/// entirely — halving the dense footprint the hot path's scattered probes
/// touch.
///
/// Pending completions are kept in a handful of FIFO *lanes* instead of a
/// binary heap: a completion is `cycle + latency` with latency drawn from
/// the few hierarchy levels, so per latency the completions arrive already
/// sorted. Insert picks the lane whose tail fits (patience-sorting style —
/// lane count converges to the number of distinct latencies) and drain
/// merges the lane heads, grouping ties by completion and ordering them by
/// line id — exactly the `(completion, line)` min-heap pop order, at
/// push-back/pop-front cost.
struct InflightArena {
    limit: u64,
    /// Completion cycle per line id; [`EMPTY_SLOT`] = not in flight.
    completion: Vec<u64>,
    /// Presence bitmap over the dense slots — one bit per line id, set iff
    /// the slot is occupied. The issue path's "already in flight?" probe
    /// touches this (a few KB, cache-resident) instead of the slot array
    /// (hundreds of KB, a guaranteed scattered read per probe).
    present: Vec<u64>,
    /// Owner per line id ([`NO_TAG`] = none), parallel to `completion` —
    /// empty in untagged arenas, which never consult it.
    owners: Vec<u32>,
    /// Lines at/above `limit`: completion ([`EMPTY_SLOT`] once drained) and
    /// owner. An entry lives while its line is in flight or owned.
    far: FxHashMap<u64, (u64, Option<ProvenanceId>)>,
    /// `(completion, line)` FIFOs, nondecreasing completion within each.
    lanes: Vec<std::collections::VecDeque<(u64, u64)>>,
    /// Cached minimum completion across lane heads (`u64::MAX` when no
    /// entries are queued) — the per-block "anything ready?" probe is one
    /// compare.
    next_completion: u64,
    /// Total queued lane entries, live or stale.
    entries: usize,
    /// Same-completion scratch group reused across drains.
    scratch: Vec<(u64, u64)>,
    /// Total lines currently in flight (dense + far); the probes answer
    /// "not in flight" from a zero test on this.
    live: usize,
    /// Lane entries whose line is no longer (or differently) in flight.
    /// Tracked so the lanes can be rebuilt before stale entries dominate:
    /// a demand-heavy run would otherwise grow them without bound.
    stale: usize,
}

impl InflightArena {
    /// `tagged` arenas (attributed runs) keep an owner per dense slot;
    /// untagged ones only track completions.
    fn new(limit: u64, tagged: bool) -> Self {
        InflightArena {
            limit,
            completion: vec![EMPTY_SLOT; limit as usize],
            present: vec![0u64; (limit as usize).div_ceil(64)],
            owners: if tagged { vec![NO_TAG; limit as usize] } else { Vec::new() },
            far: FxHashMap::default(),
            lanes: Vec::new(),
            next_completion: u64::MAX,
            entries: 0,
            scratch: Vec::new(),
            live: 0,
            stale: 0,
        }
    }

    /// Puts `line` in flight until `completion`, owned by `tag` (replacing
    /// any earlier owner).
    fn insert(&mut self, line: Line, completion: u64, tag: Option<ProvenanceId>) {
        debug_assert_ne!(completion, EMPTY_SLOT);
        debug_assert!(tag.is_none_or(|t| t.0 != NO_TAG), "provenance id collides with sentinel");
        let raw = line.raw();
        let replaced = if raw < self.limit {
            debug_assert!(
                tag.is_none() || !self.owners.is_empty(),
                "tag inserted into untagged arena"
            );
            let slot = &mut self.completion[raw as usize];
            let replaced = *slot != EMPTY_SLOT;
            *slot = completion;
            self.present[(raw >> 6) as usize] |= 1 << (raw & 63);
            if !self.owners.is_empty() {
                self.owners[raw as usize] = tag.map_or(NO_TAG, |t| t.0);
            }
            replaced
        } else {
            self.far.insert(raw, (completion, tag)).is_some_and(|(c, _)| c != EMPTY_SLOT)
        };
        self.enqueue(completion, raw);
        if replaced {
            // The replaced entry's lane slot became stale.
            self.note_stale();
        } else {
            self.live += 1;
        }
    }

    /// Appends to the first lane whose tail does not exceed `completion`,
    /// keeping every lane's completion order; opens a new lane otherwise.
    fn enqueue(&mut self, completion: u64, raw: u64) {
        self.next_completion = self.next_completion.min(completion);
        self.entries += 1;
        for lane in &mut self.lanes {
            if lane.back().is_none_or(|&(c, _)| c <= completion) {
                lane.push_back((completion, raw));
                return;
            }
        }
        let mut lane = std::collections::VecDeque::new();
        lane.push_back((completion, raw));
        self.lanes.push(lane);
    }

    /// Word `w` of the presence bitmap: bit `b` is set iff line `64 w + b`
    /// is in flight. The caller keeps `w` below `limit / 64`.
    #[inline]
    fn present_word(&self, w: usize) -> u64 {
        self.present[w]
    }

    /// Whether `line` is in flight — the issue path's probe, answered from
    /// the presence bitmap without touching the slot array.
    #[inline]
    fn contains(&self, line: Line) -> bool {
        if self.live == 0 {
            return false;
        }
        let raw = line.raw();
        if raw < self.limit {
            self.present[(raw >> 6) as usize] & (1 << (raw & 63)) != 0
        } else {
            self.far.get(&raw).is_some_and(|&(c, _)| c != EMPTY_SLOT)
        }
    }

    /// The completion cycle of `line`'s prefetch, if it is in flight.
    #[inline]
    fn get(&self, line: Line) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let raw = line.raw();
        let c = if raw < self.limit {
            self.completion[raw as usize]
        } else {
            self.far.get(&raw).map_or(EMPTY_SLOT, |&(c, _)| c)
        };
        (c != EMPTY_SLOT).then_some(c)
    }

    /// Forgets an in-flight line (demanded before completion) and returns
    /// its owner. The lane entry becomes stale and is skipped when drained.
    /// A line not in flight is left as it is.
    fn remove(&mut self, line: Line) -> Option<ProvenanceId> {
        let raw = line.raw();
        let owner = if raw < self.limit {
            let slot = &mut self.completion[raw as usize];
            if *slot == EMPTY_SLOT {
                return None;
            }
            *slot = EMPTY_SLOT;
            self.present[(raw >> 6) as usize] &= !(1 << (raw & 63));
            self.take_dense_owner(raw)
        } else {
            match self.far.get(&raw) {
                Some(&(c, _)) if c != EMPTY_SLOT => self.far.remove(&raw).and_then(|(_, t)| t),
                _ => return None,
            }
        };
        self.live -= 1;
        self.note_stale();
        owner
    }

    /// The filled prefetch of `line` reached its end state untouched (a
    /// demand hit, or an eviction by a fill or a switch): returns and
    /// forgets its owner.
    #[inline]
    fn settle(&mut self, line: Line) -> Option<ProvenanceId> {
        let raw = line.raw();
        if raw < self.limit {
            return self.take_dense_owner(raw);
        }
        let std::collections::hash_map::Entry::Occupied(mut entry) = self.far.entry(raw) else {
            return None;
        };
        let owner = entry.get_mut().1.take();
        if entry.get().0 == EMPTY_SLOT {
            entry.remove();
        }
        owner
    }

    #[inline]
    fn take_dense_owner(&mut self, raw: u64) -> Option<ProvenanceId> {
        let t = self.owners.get_mut(raw as usize).map_or(NO_TAG, |t| std::mem::replace(t, NO_TAG));
        (t != NO_TAG).then_some(ProvenanceId(t))
    }

    fn note_stale(&mut self) {
        self.stale += 1;
        if self.entries >= INFLIGHT_COMPACT_MIN && self.stale * 2 > self.entries {
            self.compact();
        }
    }

    /// Drops stale lane entries. Retaining in place preserves each lane's
    /// completion order, so drain order is unchanged. O(entries) — never
    /// scans the dense slot array.
    fn compact(&mut self) {
        let mut lanes = std::mem::take(&mut self.lanes);
        for lane in &mut lanes {
            lane.retain(|&(completion, raw)| self.get(Line::new(raw)) == Some(completion));
        }
        lanes.retain(|lane| !lane.is_empty());
        self.lanes = lanes;
        self.entries = self.lanes.iter().map(|l| l.len()).sum();
        self.stale = 0;
        self.refresh_next();
    }

    /// Recomputes the cached minimum completion from the lane heads.
    fn refresh_next(&mut self) {
        self.next_completion =
            self.lanes.iter().filter_map(|l| l.front().map(|&(c, _)| c)).min().unwrap_or(u64::MAX);
    }

    /// Pops lines whose prefetch has completed by `now`, in `(completion,
    /// line)` order, handing each to `f` with the arena; a drained line
    /// keeps its owner until it is settled.
    fn drain_completed(&mut self, now: u64, mut f: impl FnMut(&mut Self, Line)) {
        if self.next_completion > now {
            return;
        }
        let mut group = std::mem::take(&mut self.scratch);
        loop {
            // The earliest pending completion across lane heads.
            let c = match self.lanes.iter().filter_map(|l| l.front().map(|&(c, _)| c)).min() {
                Some(c) if c <= now => c,
                _ => break,
            };
            // Gather the whole completion-tie group (each lane's head run)
            // and order it by line id — the heap's pop order for ties.
            group.clear();
            for lane in &mut self.lanes {
                while lane.front().is_some_and(|&(comp, _)| comp == c) {
                    group.push(lane.pop_front().expect("head just probed"));
                }
            }
            self.entries -= group.len();
            group.sort_unstable();
            for &(completion, raw) in &group {
                // Skip stale entries (line demanded or re-issued meanwhile).
                let fired = if raw < self.limit {
                    let slot = &mut self.completion[raw as usize];
                    let fired = *slot == completion;
                    if fired {
                        *slot = EMPTY_SLOT;
                        self.present[(raw >> 6) as usize] &= !(1 << (raw & 63));
                    }
                    fired
                } else {
                    match self.far.get_mut(&raw) {
                        Some(entry) if entry.0 == completion => {
                            entry.0 = EMPTY_SLOT;
                            if entry.1.is_none() {
                                self.far.remove(&raw);
                            }
                            true
                        }
                        _ => false,
                    }
                };
                if fired {
                    self.live -= 1;
                    f(self, Line::new(raw));
                } else {
                    self.stale = self.stale.saturating_sub(1);
                }
            }
        }
        self.scratch = group;
        self.refresh_next();
    }
}

/// The ledger threaded through a run, if one is attached.
struct Attribution<'a> {
    ledger: Option<&'a mut OutcomeLedger>,
}

impl Attribution<'_> {
    fn enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Records one event against `id`'s bucket (no-op without a ledger).
    #[inline]
    fn note(
        &mut self,
        id: Option<ProvenanceId>,
        f: impl FnOnce(&mut crate::outcome::InjectionOutcome),
    ) {
        if let Some(ledger) = self.ledger.as_deref_mut() {
            f(ledger.outcome_mut(id));
        }
    }
}

/// `words` sentinel in [`HotOp`]: take the per-line path instead of the
/// bit-parallel issue.
const NO_BATCH: u32 = u32::MAX;

/// Run-specialized lowered op, rebuilt per engine from
/// [`CompiledOp`](ispy_isa::CompiledOp)s once the run's line limit is
/// known: exactly 32 bytes (two ops per cache line, half a
/// [`CompiledOp`](ispy_isa::CompiledOp)), with the batchability decision
/// pre-folded into the `words` sentinel so the steady-state execution reads
/// nothing else. Line counts come back out of the masks by popcount; provenance ids
/// and flattened line lists stay in the compiled plan, which only the cold
/// paths consult.
#[derive(Clone, Copy)]
struct HotOp {
    /// Condition mask: fires iff `ctx_bits & !runtime_hash == 0`.
    ctx_bits: u64,
    /// Presence-shadow masks, index-aligned with `words`.
    masks: [u64; 2],
    /// Presence-shadow word indices, or `[NO_BATCH; 2]` when this op cannot
    /// take the bit-parallel issue under this run's limits.
    words: [u32; 2],
}

/// The hot-op table of `injections` for a run whose L1I shadow and
/// in-flight arena cover lines below `batch_limit`: an op whose lines all
/// fall in two shadow words below it takes the bit-parallel issue.
fn hot_ops(injections: &CompiledInjections, batch_limit: u64) -> Vec<HotOp> {
    injections
        .compiled_ops()
        .iter()
        .map(|cop| {
            let batch = cop.shadow_batchable && cop.max_line < batch_limit;
            if batch {
                debug_assert_eq!(
                    u64::from(cop.shadow_masks[0].count_ones() + cop.shadow_masks[1].count_ones()),
                    cop.num_lines(),
                    "shadow masks must cover each target line exactly once"
                );
            }
            HotOp {
                ctx_bits: cop.ctx_bits,
                masks: cop.shadow_masks,
                words: if batch { cop.shadow_words } else { [NO_BATCH; 2] },
            }
        })
        .collect()
}

/// Per-block facts the replay loop consults on every event, precomputed once
/// per run so the hot loop never re-derives line spans from byte addresses.
#[derive(Clone, Copy)]
struct BlockMeta {
    first_line: u64,
    last_line: u64,
    instrs: u64,
    data_accesses: u32,
}

fn block_metas(program: &Program) -> Vec<BlockMeta> {
    program
        .blocks()
        .iter()
        .map(|b| {
            let first_line = b.first_line().raw();
            BlockMeta {
                first_line,
                last_line: first_line + b.line_count() - 1,
                instrs: u64::from(b.instrs()),
                data_accesses: u32::from(b.data_accesses()),
            }
        })
        .collect()
}

/// An engine's installed compiled plan: a static run borrows its caller's,
/// and an adaptive run shares each generation's, so it can install a new
/// one mid-replay ([`Engine::swap_plan`]) while callers of the old one keep
/// their handle. Cloning is a reference copy or a reference-count bump.
#[derive(Clone)]
pub(crate) enum Plan<'o> {
    Borrowed(&'o CompiledInjections),
    Shared(Arc<CompiledInjections>),
}

impl Deref for Plan<'_> {
    type Target = CompiledInjections;

    #[inline]
    fn deref(&self) -> &CompiledInjections {
        match self {
            Plan::Borrowed(plan) => plan,
            Plan::Shared(plan) => plan,
        }
    }
}

/// A pass that derives one per-trace record from the retired blocks alone
/// ([`DataFilter`]: L1D outcomes, [`HashFilter`]: runtime hashes). A filter
/// carries its state across calls, so filtering a trace chunk by chunk
/// records exactly what one call over the whole trace does.
pub(crate) trait RecordFilter: Sized {
    type Record: Default + Send + Sync + 'static;

    /// A filter over `program` under `cfg`, starting from empty state.
    fn new(program: &Program, cfg: &SimConfig) -> Self;

    /// The memo key of the record `program` and `cfg` produce: a digest of
    /// everything the filter reads besides the trace.
    fn key(program: &Program, cfg: &SimConfig) -> u64;

    /// Replaces `out` with the entries of `blocks`, continuing from the
    /// state the previous call left.
    fn refill(&mut self, blocks: &[BlockId], out: &mut Self::Record);

    /// The record of `trace` under `program` and `cfg`, from the trace's
    /// memo ([`Trace::derived`]): built by one filter pass on the first
    /// request for this key, shared by every later one.
    fn record_of(program: &Program, trace: &Trace, cfg: &SimConfig) -> Arc<Self::Record> {
        trace.derived(Self::key(program, cfg), || {
            let mut record = Self::Record::default();
            Self::new(program, cfg).refill(trace.blocks(), &mut record);
            record
        })
    }
}

/// A per-trace record as an engine reads it: the whole trace's, shared from
/// its memo and read at trace positions, or a streamed run's, which the
/// run's own filter refills with each chunk.
struct Records<F: RecordFilter> {
    record: Arc<F::Record>,
    /// `None` when `record` covers the whole trace.
    filter: Option<F>,
}

impl<F: RecordFilter> Records<F> {
    /// The memoized record of `whole`, or a filter when there is no
    /// materialized trace.
    fn new(program: &Program, cfg: &SimConfig, whole: Option<&Trace>) -> Self {
        match whole {
            Some(trace) => Records { record: F::record_of(program, trace, cfg), filter: None },
            None => Records { record: Arc::default(), filter: Some(F::new(program, cfg)) },
        }
    }

    /// Readies the entries of the next replayed `blocks`. Returns whether
    /// the record was refilled to start at `blocks[0]`; the whole trace's
    /// record already holds them at their trace positions.
    fn refill(&mut self, blocks: &[BlockId]) -> bool {
        let Some(filter) = &mut self.filter else {
            return false;
        };
        let record = Arc::get_mut(&mut self.record).expect("a chunk's record is never shared");
        filter.refill(blocks, record);
        true
    }
}

/// The whole simulated machine plus replay bookkeeping, packaged so the
/// loop can be driven over consecutive trace windows — [`run`] replays the
/// full trace in one call; [`run_streaming`] and the adaptive driver
/// ([`run_adaptive`](crate::run_adaptive)) replay it chunk by chunk.
pub(crate) struct Engine<'o> {
    hier: Hierarchy,
    inflight: InflightArena,
    attr: Attribution<'o>,
    m: SimResult,
    cycle: u64,
    /// The L1D outcomes the data side reads.
    l1d: Records<DataFilter>,
    /// The runtime hash after each replayed block; `None` when no installed
    /// or future plan has a conditional op (every op then fires whatever
    /// the hash).
    hashes: Option<Records<HashFilter>>,
    /// Trace position of the next replayed block.
    pos: usize,
    /// The next unread access of the L1D record, and its next unread miss.
    d_next: usize,
    d_next_miss: usize,
    ideal_icache: bool,
    metas: Vec<BlockMeta>,
    hot_ops: Vec<HotOp>,
    /// The installed compiled plan.
    injections: Plan<'o>,
    observer: Option<&'o mut dyn SimObserver>,
    /// The run's tenant-switch/phase schedule, if any.
    sched: Option<Arc<SwitchSchedule>>,
    /// Cursor into the schedule's switch list: next entry to fire.
    next_switch: usize,
    /// Cursor into the schedule's phase list: next entry to fire.
    next_phase: usize,
    /// Event index of the earliest pending boundary (`u64::MAX` when none
    /// remain, which is also the scheduleless steady state — so the hot
    /// loop's boundary test is one always-false compare).
    next_boundary: u64,
}

impl<'o> Engine<'o> {
    /// `adaptive` engines may [swap](Engine::swap_plan) plans mid-run: their
    /// in-flight arena is sized even when the initial plan is empty, and
    /// they track the runtime hash whatever the initial plan. `whole` is
    /// the materialized trace the replay calls walk, whose memo supplies
    /// the per-trace records; without it the engine filters each replayed
    /// chunk itself.
    pub(crate) fn new(
        program: &Program,
        cfg: &SimConfig,
        injections: Plan<'o>,
        observer: Option<&'o mut dyn SimObserver>,
        ledger: Option<&'o mut OutcomeLedger>,
        adaptive: bool,
        whole: Option<&Trace>,
    ) -> Self {
        // One line limit for every dense line-indexed structure: the code
        // lines plus one shadow word of slack past the last block. Lines
        // beyond it take the scan and hash-map paths.
        let max_code_line = program
            .blocks()
            .iter()
            .map(|b| b.first_line().raw() + b.line_count() - 1)
            .max()
            .unwrap_or(0);
        let limit = (max_code_line + 65).min(LINE_CAP);
        let hier = Hierarchy::new(cfg, limit, program.data_footprint_lines().min(LINE_CAP));
        // Prefetches only exist with an injection plan; plain baseline runs
        // skip the arena allocations.
        let want_arena = adaptive || !injections.is_empty();
        let inflight = InflightArena::new(if want_arena { limit } else { 0 }, ledger.is_some());
        let hot_ops = hot_ops(&injections, limit);
        let metas = block_metas(program);
        let needs_hash = adaptive || injections.compiled_ops().iter().any(|op| op.ctx_bits != 0);
        let sched = cfg.schedule.clone();
        let next_boundary = sched.as_deref().map_or(u64::MAX, |s| Self::pending_boundary(s, 0, 0));
        Engine {
            hier,
            inflight,
            attr: Attribution { ledger },
            m: SimResult::default(),
            cycle: 0,
            l1d: Records::new(program, cfg, whole),
            hashes: needs_hash.then(|| Records::new(program, cfg, whole)),
            pos: 0,
            d_next: 0,
            d_next_miss: 0,
            ideal_icache: cfg.ideal_icache,
            metas,
            hot_ops,
            injections,
            observer,
            sched,
            next_switch: 0,
            next_phase: 0,
            next_boundary,
        }
    }

    /// Replays the trace's next `blocks`, continuing from the machine state
    /// and trace position the previous call left (observer callbacks report
    /// trace positions).
    pub(crate) fn replay(&mut self, blocks: &[BlockId]) {
        let start = self.pos;
        self.pos += blocks.len();
        if self.l1d.refill(blocks) {
            self.d_next = 0;
            self.d_next_miss = 0;
        }
        let Some(hashes) = &mut self.hashes else {
            // No conditional op: every op fires whatever the hash.
            for (i, &b) in blocks.iter().enumerate() {
                self.step(start + i, b, 0);
            }
            return;
        };
        let at = if hashes.refill(blocks) { 0 } else { start };
        let record = Arc::clone(&hashes.record);
        let hashes = &record.hashes()[at..at + blocks.len()];
        for (i, (&b, &hash)) in blocks.iter().zip(hashes).enumerate() {
            self.step(start + i, b, hash);
        }
    }

    /// The earliest event index with an unfired schedule entry.
    fn pending_boundary(sched: &SwitchSchedule, next_switch: usize, next_phase: usize) -> u64 {
        let s = sched.switches().get(next_switch).map_or(u64::MAX, |&(at, _)| at);
        let p = sched.phases().get(next_phase).map_or(u64::MAX, |&(at, _)| at);
        s.min(p)
    }

    /// Fires every schedule boundary at or before trace position `idx`:
    /// phase transitions notify the observer; tenant switches apply the
    /// schedule's cache effect, then notify. Cold — runs once per boundary,
    /// not per block.
    #[cold]
    fn cross_boundary(&mut self, idx: usize) {
        let Some(sched) = self.sched.clone() else {
            return;
        };
        let e = idx as u64;
        while self.next_phase < sched.phases().len() && sched.phases()[self.next_phase].0 <= e {
            let phase = sched.phases()[self.next_phase].1;
            self.next_phase += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.phase_boundary(idx, phase, self.cycle);
            }
        }
        while self.next_switch < sched.switches().len() && sched.switches()[self.next_switch].0 <= e
        {
            let tenant = sched.switches()[self.next_switch].1;
            self.next_switch += 1;
            self.apply_switch_effect(sched.effect());
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.tenant_switch(idx, tenant, self.cycle);
            }
        }
        self.next_boundary = Self::pending_boundary(&sched, self.next_switch, self.next_phase);
    }

    /// Applies a context switch's cache perturbation. Untouched prefetches
    /// evicted from L1I are accounted exactly like capacity evictions: the
    /// prefetch was wasted, and its injection (if attributed) is charged.
    /// In-flight prefetches deliberately survive — they were already issued
    /// to the memory system and complete regardless of who owns the core.
    fn apply_switch_effect(&mut self, effect: SwitchEffect) {
        let Some((l1i_pct, l2_pct)) = effect.fractions() else {
            return;
        };
        let Self { hier, m, inflight, attr, .. } = self;
        hier.context_switch(l1i_pct, l2_pct, |line, untouched| {
            if untouched {
                m.pf_evicted_unused += 1;
                let owner = inflight.settle(line);
                attr.note(owner, |o| o.evicted_unused += 1);
            }
        });
    }

    /// The counters so far, with the running cycle count folded in — what
    /// [`run`] returns at the end, and what the adaptive driver snapshots
    /// around each window.
    pub(crate) fn result_so_far(&self) -> SimResult {
        let mut m = self.m;
        m.cycles = self.cycle;
        m
    }

    /// Installs a new compiled plan at a deterministic barrier: the swap
    /// happens *between* [`Engine::replay`] calls, so it takes effect at the
    /// next block boundary and the result depends only on the block index at
    /// which it happened — never on wall-clock timing or chunking (replaying
    /// `[a..b]` then `[b..c]` around a swap equals any other chunking with
    /// the swap at `b`).
    ///
    /// The per-plan derived state (the hot-op table) is rebuilt from the new
    /// plan; everything microarchitectural (caches, LBR, cycle count, in-flight
    /// prefetches) carries over untouched. In particular, prefetches issued
    /// under the *old* plan stay in flight and complete, attribute, and
    /// drain under their old provenance ids — callers that swap between
    /// attributed plans rebase the new plan's ids into a fresh range first
    /// (see [`CompiledInjections::rebase_provenance`]) so the generations'
    /// ledger rows never collide. Only adaptive engines swap, and they
    /// track the runtime hash from the start, so a conditional plan swapped
    /// in after unconditional ones sees the LBR the whole run built.
    pub(crate) fn swap_plan(&mut self, injections: Arc<CompiledInjections>) {
        debug_assert!(self.hashes.is_some(), "only adaptive engines swap plans");
        // An adaptive engine's arena is sized at the run's line limit.
        self.hot_ops = hot_ops(&injections, self.inflight.limit);
        self.injections = Plan::Shared(injections);
    }

    /// One block event at trace position `idx`; `runtime_hash` is the LBR's
    /// runtime hash once the block has retired into it.
    fn step(&mut self, idx: usize, block_id: BlockId, runtime_hash: u64) {
        if idx as u64 >= self.next_boundary {
            self.cross_boundary(idx);
        }
        let meta = self.metas[block_id.index()];
        self.m.blocks += 1;

        if let Some(obs) = self.observer.as_deref_mut() {
            obs.block_entered(idx, block_id, self.cycle);
        }

        // 1. The branch into this block has retired into the LBR: its
        //    runtime hash is `runtime_hash`, read from the record.

        // 2. Drain prefetches that completed before this block.
        self.drain_completed();

        // 3. Execute injected prefetch ops.
        let ops_issued = self.exec_ops(block_id, runtime_hash);

        // 4. Fetch the block's instruction lines.
        if self.ideal_icache {
            self.m.i_accesses += meta.last_line - meta.first_line + 1;
        } else {
            for raw in meta.first_line..=meta.last_line {
                let line = Line::new(raw);
                self.m.i_accesses += 1;
                // Fast path: one L1I set scan resolves residency, promotes
                // the line, and reports whether it was an untouched prefetch.
                if let Some(was_untouched) = self.hier.fetch_instr_hit(line) {
                    if was_untouched {
                        self.m.pf_useful += 1;
                        let owner = self.inflight.settle(line);
                        self.attr.note(owner, |o| o.useful += 1);
                    }
                    continue;
                }
                // Miss path.
                self.m.i_misses += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.icache_miss(idx, block_id, line, self.cycle);
                }
                let stall = if let Some(completion) = self.inflight.get(line) {
                    // Late prefetch: wait only the remaining time.
                    let tag = self.inflight.remove(line);
                    self.m.pf_late += 1;
                    self.m.pf_useful += 1;
                    self.attr.note(tag, |o| {
                        o.late += 1;
                        o.useful += 1;
                    });
                    let remaining = completion.saturating_sub(self.cycle);
                    self.hier.fetch_instr_miss(line); // state update; timing overridden
                    remaining
                } else {
                    let out = self.hier.fetch_instr_miss(line);
                    if let Some(evicted) = out.evicted_untouched {
                        self.m.pf_evicted_unused += 1;
                        let owner = self.inflight.settle(evicted);
                        self.attr.note(owner, |o| o.evicted_unused += 1);
                    }
                    u64::from(out.extra_cycles)
                };
                self.m.i_stall_cycles += stall;
                self.cycle += stall;
            }
        }

        // 5. Data side.
        if meta.data_accesses != 0 {
            self.data_side(meta.data_accesses as usize);
        }

        // 6. Issue bandwidth.
        self.m.base_instrs += meta.instrs;
        self.m.instrs += meta.instrs + ops_issued;
        self.cycle += (meta.instrs + ops_issued).div_ceil(MACHINE.issue_width);
    }

    /// Drains prefetches that completed by the current cycle into L1I.
    fn drain_completed(&mut self) {
        let Self { inflight, hier, m, attr, cycle, .. } = self;
        inflight.drain_completed(*cycle, |inflight, line| {
            if let Some(evicted) = hier.prefetch_fill(line) {
                m.pf_evicted_unused += 1;
                let owner = inflight.settle(evicted);
                attr.note(owner, |o| o.evicted_unused += 1);
            }
        });
    }

    /// Executes the compiled ops at `block_id` under `runtime_hash`; returns
    /// how many there were.
    fn exec_ops(&mut self, block_id: BlockId, runtime_hash: u64) -> u64 {
        let range = self.injections.site_range(block_id);
        if range.is_empty() {
            return 0;
        }
        let n = range.len() as u64;
        // Monomorphize the op loop on ledger presence: the throughput
        // configuration never touches provenance ids or outcome buckets.
        if self.attr.enabled() {
            self.exec_op_range::<true>(range, runtime_hash);
        } else {
            self.exec_op_range::<false>(range, runtime_hash);
        }
        n
    }

    /// The op-execution loop over one site's range of the hot-op table.
    fn exec_op_range<const LEDGER: bool>(
        &mut self,
        range: std::ops::Range<usize>,
        runtime_hash: u64,
    ) {
        self.m.pf_ops_executed += range.len() as u64;
        let not_runtime = !runtime_hash;
        // One plan-handle copy per call so the op loop can read the plan
        // while `issue_prefetch` mutates the rest of the engine.
        let inj = self.injections.clone();
        let (mut fired, mut suppressed, mut resident) = (0u64, 0u64, 0u64);
        for i in range {
            let op = self.hot_ops[i];
            let id = if LEDGER { inj.compiled_ops()[i].id } else { None };
            if LEDGER {
                self.attr.note(id, |o| o.executed += 1);
            }
            // Branch-free condition: unconditional ops lowered to 0 pass
            // trivially; conditional ops pass iff their context bits are a
            // subset of the runtime hash.
            if op.ctx_bits & not_runtime == 0 {
                fired += 1;
                if LEDGER {
                    self.attr.note(id, |o| o.fired += 1);
                }
                if op.words[1] != NO_BATCH {
                    // Bit-parallel issue: a target line needs a request iff
                    // it is neither in L1I nor in flight, and both presence
                    // bitmaps share the shadow's word layout. Identical
                    // accounting to the per-line walk; the issue order
                    // differs from it in nothing the drain can see, since
                    // completions drain in `(completion, line)` order.
                    let missing = [0, 1].map(|k| {
                        let w = op.words[k] as usize;
                        op.masks[k] & !self.hier.l1i_shadow_word(w) & !self.inflight.present_word(w)
                    });
                    let lines = op.masks[0].count_ones() + op.masks[1].count_ones();
                    let held = u64::from(lines - missing[0].count_ones() - missing[1].count_ones());
                    resident += held;
                    if LEDGER && held > 0 {
                        self.attr.note(id, |o| o.lines_resident += held);
                    }
                    for (k, mut bits) in missing.into_iter().enumerate() {
                        while bits != 0 {
                            let raw =
                                u64::from(op.words[k]) << 6 | u64::from(bits.trailing_zeros());
                            self.issue_absent(Line::new(raw), id);
                            bits &= bits - 1;
                        }
                    }
                } else {
                    for &line in inj.op_lines(&inj.compiled_ops()[i]) {
                        self.issue_prefetch(line, id);
                    }
                }
            } else {
                suppressed += 1;
                if LEDGER {
                    self.attr.note(id, |o| o.suppressed += 1);
                }
            }
        }
        self.m.pf_ops_fired += fired;
        self.m.pf_ops_suppressed += suppressed;
        self.m.pf_lines_resident += resident;
    }

    /// Issues one prefetch line request on behalf of injection `tag`.
    #[inline]
    fn issue_prefetch(&mut self, line: Line, tag: Option<ProvenanceId>) {
        if self.hier.in_l1i(line) || self.inflight.contains(line) {
            self.m.pf_lines_resident += 1;
            self.attr.note(tag, |o| o.lines_resident += 1);
            return;
        }
        self.issue_absent(line, tag);
    }

    /// Issues a request for `line`, which is neither in L1I nor in flight.
    #[inline]
    fn issue_absent(&mut self, line: Line, tag: Option<ProvenanceId>) {
        let latency = self.hier.prefetch_latency_missing_l1i(line);
        self.inflight.insert(line, self.cycle + u64::from(latency), tag);
        self.m.pf_lines_issued += 1;
        self.attr.note(tag, |o| o.lines_issued += 1);
    }

    /// Replays a block's `n` data accesses: their L1D outcomes come from
    /// the record, and each L1D miss is served by the shared levels.
    #[inline]
    fn data_side(&mut self, n: usize) {
        let Self { l1d, hier, m, cycle, d_next, d_next_miss, .. } = self;
        m.d_accesses += n as u64;
        let l1d = &l1d.record;
        let misses = l1d.misses_in(*d_next, n);
        *d_next += n;
        for j in *d_next_miss..*d_next_miss + misses {
            let extra_cycles = hier.load_data_miss(l1d.miss_line(j));
            if extra_cycles > 0 {
                m.d_misses += 1;
                let stall = (f64::from(extra_cycles) * MACHINE.d_stall_factor) as u64;
                m.d_stall_cycles += stall;
                *cycle += stall;
            }
        }
        *d_next_miss += misses;
    }
}

/// Replays `trace` through the simulated machine.
///
/// The first run of `trace` under a data layout and data config (L1D
/// geometry, streaming fraction) records every data access's L1D outcome
/// in the trace's memo ([`Trace::derived`]); every later run of the trace
/// under them — any plan, arm, I-cache or switch schedule — reads that
/// record instead of re-running the L1D. Likewise the first run under a
/// conditional plan records the LBR's runtime hash after every block, per
/// block layout, hash config and LBR depth; runs whose plan has no
/// conditional op never need it.
///
/// # Panics
///
/// Panics if the trace references blocks outside `program`.
///
/// # Examples
///
/// ```
/// use ispy_isa::{InjectionMap, PrefetchOp};
/// use ispy_sim::{run, RunOptions, SimConfig};
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let result = run(&program, &trace, &SimConfig::default(), RunOptions::default());
/// assert_eq!(result.blocks, 5_000);
/// ```
pub fn run(program: &Program, trace: &Trace, cfg: &SimConfig, opts: RunOptions<'_>) -> SimResult {
    let mut eng = engine_for(program, cfg, opts, Some(trace));
    eng.replay(trace.blocks());
    debug_assert_eq!(eng.d_next, eng.l1d.record.accesses(), "the replay read the whole record");
    eng.result_so_far()
}

/// Builds the engine a static run replays through, attaching `opts` and,
/// when the run replays `whole` in one call, that trace's per-trace
/// records. A pre-compiled plan is borrowed (sweeps reuse one compiled
/// plan across many runs); otherwise the plan is lowered into its dense
/// compiled form here.
fn engine_for<'o>(
    program: &Program,
    cfg: &SimConfig,
    opts: RunOptions<'o>,
    whole: Option<&Trace>,
) -> Engine<'o> {
    let injections = match opts.compiled {
        Some(c) => Plan::Borrowed(c),
        None => Plan::Shared(Arc::new(match opts.injections {
            Some(map) if !map.is_empty() => map.compile(program.num_blocks()),
            _ => CompiledInjections::default(),
        })),
    };
    Engine::new(program, cfg, injections, opts.observer, opts.outcomes, false, whole)
}

/// Replays a [`BlockSource`] through the simulated machine, chunk by chunk.
///
/// This is [`run`] with the trace decoupled from RAM: the engine's per-block
/// semantics are chunk-agnostic (each internal replay call continues from
/// the machine state the previous one left), so the result is byte-identical
/// to materializing the source into a `Vec` and calling [`run`] — for any
/// source and any chunking. Peak memory is one chunk, its L1D and
/// runtime-hash records, and the fixed machine state, which is what removes
/// the RAM ceiling on trace length.
///
/// # Errors
///
/// Propagates the source's typed [`ArtifactError`]s (a decoding source may
/// fail mid-stream on corrupt or truncated input); no result is returned for
/// a stream that did not complete cleanly.
///
/// # Panics
///
/// Panics if the source yields blocks outside `program`.
///
/// # Examples
///
/// ```
/// use ispy_sim::{run, run_streaming, RunOptions, SimConfig};
/// use ispy_trace::source::TraceBlocks;
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let cfg = SimConfig::default();
/// let direct = run(&program, &trace, &cfg, RunOptions::default());
/// let mut source = TraceBlocks::with_chunk(trace.blocks(), 512);
/// let streamed = run_streaming(&program, &mut source, &cfg, RunOptions::default()).unwrap();
/// assert_eq!(streamed, direct);
/// ```
pub fn run_streaming<S: BlockSource + ?Sized>(
    program: &Program,
    source: &mut S,
    cfg: &SimConfig,
    opts: RunOptions<'_>,
) -> Result<SimResult, ArtifactError> {
    let mut eng = engine_for(program, cfg, opts, None);
    while let Some(chunk) = source.next_chunk()? {
        eng.replay(chunk);
    }
    Ok(eng.result_so_far())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_isa::PrefetchOp;
    use ispy_trace::apps;

    impl InflightArena {
        /// The owner of `line`, without settling it.
        fn owner(&self, line: Line) -> Option<ProvenanceId> {
            let raw = line.raw();
            let t = if raw < self.limit {
                self.owners.get(raw as usize).copied().unwrap_or(NO_TAG)
            } else {
                self.far.get(&raw).and_then(|&(_, tag)| tag).map_or(NO_TAG, |t| t.0)
            };
            (t != NO_TAG).then_some(ProvenanceId(t))
        }
    }

    impl Engine<'_> {
        /// The L1D record and the runtime-hash record the engine reads.
        pub(crate) fn records(
            &self,
        ) -> (&Arc<crate::l1d::L1dRecord>, Option<&Arc<crate::lbr::HashRecord>>) {
            (&self.l1d.record, self.hashes.as_ref().map(|h| &h.record))
        }
    }

    fn small_app() -> (Program, Trace) {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        (program, trace)
    }

    #[test]
    fn deterministic_replay() {
        let (p, t) = small_app();
        let a = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let b = run(&p, &t, &SimConfig::default(), RunOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_is_fastest_and_missless() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let ideal = run(&p, &t, &SimConfig::ideal(), RunOptions::default());
        assert_eq!(ideal.i_misses, 0);
        assert_eq!(ideal.i_stall_cycles, 0);
        assert!(ideal.cycles < base.cycles);
        assert!(base.i_misses > 0, "workload must actually miss");
    }

    #[test]
    fn baseline_workload_is_frontend_bound() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let fb = base.frontend_bound();
        assert!(fb > 0.15, "frontend-bound fraction {fb} too small to study");
    }

    #[test]
    fn observer_sees_all_blocks_and_misses() {
        #[derive(Default)]
        struct Counter {
            blocks: usize,
            misses: usize,
        }
        impl SimObserver for Counter {
            fn block_entered(&mut self, _i: usize, _b: BlockId, _c: u64) {
                self.blocks += 1;
            }
            fn icache_miss(&mut self, _i: usize, _b: BlockId, _l: Line, _c: u64) {
                self.misses += 1;
            }
        }
        let (p, t) = small_app();
        let mut obs = Counter::default();
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { observer: Some(&mut obs), ..Default::default() },
        );
        assert_eq!(obs.blocks as u64, r.blocks);
        assert_eq!(obs.misses as u64, r.i_misses);
    }

    /// A crude miss-driven plan: for each distinct (site, line) miss, a plain
    /// prefetch of the line 8 dynamic blocks earlier. `traced` tags each op
    /// with its own provenance id; otherwise the ops are untagged.
    fn lookahead_plan(p: &Program, t: &Trace, traced: bool) -> (InjectionMap, u32) {
        struct Rec {
            events: Vec<(usize, Line)>,
        }
        impl SimObserver for Rec {
            fn icache_miss(&mut self, idx: usize, _b: BlockId, line: Line, _c: u64) {
                self.events.push((idx, line));
            }
        }
        let mut rec = Rec { events: Vec::new() };
        run(
            p,
            t,
            &SimConfig::default(),
            RunOptions { observer: Some(&mut rec), ..Default::default() },
        );
        let mut map = InjectionMap::new();
        let mut seen = std::collections::HashSet::new();
        let mut next_id = 0u32;
        for (idx, line) in rec.events {
            if idx >= 8 {
                let site = t.blocks()[idx - 8];
                if seen.insert((site, line)) {
                    let op = PrefetchOp::Plain { target: line };
                    if traced {
                        map.push_traced(site, op, ProvenanceId(next_id));
                    } else {
                        map.push(site, op);
                    }
                    next_id += 1;
                }
            }
        }
        (map, next_id)
    }

    #[test]
    fn plain_injection_reduces_misses_on_repeating_pattern() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let (map, _) = lookahead_plan(&p, &t, false);
        let with = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(
            with.i_misses < base.i_misses,
            "prefetching must reduce misses: {} vs {}",
            with.i_misses,
            base.i_misses
        );
        assert!(with.pf_ops_executed > 0);
        assert!(with.pf_useful > 0);
    }

    #[test]
    fn conditional_op_with_impossible_context_never_fires() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        // A context hash demanding every bit set will (essentially) never
        // match a 32-entry LBR under the 16-bit scheme... but could.
        // Use all 64 bits of a 64-bit scheme for certainty.
        let cfg = SimConfig::default().with_hash(ispy_isa::HashConfig::new(64, 2));
        let ctx = ispy_isa::ContextHash::from_bits(u64::MAX, 64);
        map.push(t.blocks()[0], PrefetchOp::Cond { target: Line::new(0x999999), ctx });
        let r = run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        assert!(r.pf_ops_executed > 0);
        assert_eq!(r.pf_ops_fired, 0);
        assert_eq!(r.pf_ops_suppressed, r.pf_ops_executed);
        assert_eq!(r.pf_lines_issued, 0);
    }

    #[test]
    fn injected_ops_count_toward_dynamic_instrs() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        map.push(t.blocks()[0], PrefetchOp::Plain { target: Line::new(1) });
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert_eq!(r.instrs, r.base_instrs + r.pf_ops_executed);
        assert!(r.dynamic_increase() > 0.0);
    }

    #[test]
    fn useless_prefetches_hurt_or_do_not_help() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        // Prefetch garbage lines everywhere: pure pollution.
        let mut map = InjectionMap::new();
        let hot: Vec<BlockId> = t.blocks()[..200].to_vec();
        for (i, b) in hot.into_iter().enumerate() {
            map.push(b, PrefetchOp::Plain { target: Line::new(0xBAD_0000 + i as u64 * 7) });
        }
        let with = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(with.cycles >= base.cycles, "{} < {}", with.cycles, base.cycles);
        assert_eq!(with.pf_useful, 0);
    }

    #[test]
    fn coalesced_op_prefetches_all_targets() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        let mask = ispy_isa::CoalesceMask::from_bits(0xFF, 8);
        map.push(t.blocks()[0], PrefetchOp::Coalesced { base: Line::new(0x700000), mask });
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        // Base + 8 extra lines, issued at least once (the first execution).
        assert!(r.pf_lines_issued >= 9);
    }

    #[test]
    fn timely_prefetch_eliminates_stall_late_prefetch_reduces_it() {
        // Construct a two-block loop: block 0 (hot) and block 1 at a far
        // line. Injecting a prefetch of block 1's line at block 0 hides the
        // latency when the issue-to-use distance is long enough.
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock, Program};
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 64, 64, 0), // 16 issue cycles
            BasicBlock::new(Addr::new(1 << 20), 64, 16, 0),
        ];
        let exits = vec![
            BlockExit::Branch(vec![(BlockId(1), 1.0)]),
            BlockExit::Branch(vec![(BlockId(0), 1.0)]),
        ];
        let funcs = vec![Function::new(BlockId(0), 0, 2)];
        let owner = vec![FuncId(0), FuncId(0)];
        let program = Program::new("loop", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
        let trace = program.record_trace(ispy_trace::InputSpec::uniform(0, 1), 4_000);
        let cfg = SimConfig::default();
        // Thrash block 1's line out of L1I? In this tiny program it stays
        // resident, so instead compare cold-start behaviour over a fresh
        // hierarchy per run: the first access misses either way; with the
        // prefetch the *remaining stall* shrinks because the line is in
        // flight by the time it is fetched.
        let base = run(&program, &trace, &cfg, RunOptions::default());
        let mut map = InjectionMap::new();
        map.push(BlockId(0), PrefetchOp::Plain { target: Line::new((1 << 20) / 64) });
        let with = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(with.i_stall_cycles <= base.i_stall_cycles);
        assert!(with.pf_lines_resident > 0, "steady-state firings find the line resident");
    }

    #[test]
    fn late_prefetch_counts_as_miss_but_shortens_stall() {
        // Issue a prefetch of a memory-resident line in the same block that
        // fetches it next: the prefetch is in flight when the demand
        // arrives (late), the stall is the remaining time, and the event
        // still counts as a miss.
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock, Program};
        let target_line = Line::new((1 << 21) / 64);
        // Block 0: 4 instrs + the injected op = ceil(5/4) = 2 issue cycles,
        // after a 257-cycle cold miss -> block 1 enters at cycle 259, one
        // cycle before the 260-cycle prefetch completes: strictly late.
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 32, 4, 0),
            BasicBlock::new(Addr::new(1 << 21), 32, 8, 0),
        ];
        let exits = vec![BlockExit::Branch(vec![(BlockId(1), 1.0)]), BlockExit::Return];
        let funcs = vec![Function::new(BlockId(0), 0, 2)];
        let owner = vec![FuncId(0), FuncId(0)];
        let program = Program::new("late", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
        let trace = ispy_trace::Trace::new("late", vec![BlockId(0), BlockId(1)]);
        let mut map = InjectionMap::new();
        map.push(BlockId(0), PrefetchOp::Plain { target: target_line });
        let cfg = SimConfig::default();
        let base = run(&program, &trace, &cfg, RunOptions::default());
        let with = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert_eq!(with.pf_late, 1, "demand must catch the prefetch in flight");
        assert_eq!(with.i_misses, base.i_misses, "late prefetch still counts as a miss");
        assert!(
            with.i_stall_cycles < base.i_stall_cycles,
            "but the stall shrinks: {} vs {}",
            with.i_stall_cycles,
            base.i_stall_cycles
        );
    }

    #[test]
    fn ideal_icache_still_runs_data_side_and_issue() {
        let (p, t) = small_app();
        let r = run(&p, &t, &SimConfig::ideal(), RunOptions::default());
        assert!(r.cycles > 0);
        assert!(r.d_accesses > 0);
        assert_eq!(r.i_misses, 0);
        // Accesses are still counted for bookkeeping.
        assert!(r.i_accesses > 0);
    }

    #[test]
    fn outcome_ledger_matches_aggregate_counters() {
        use crate::outcome::OutcomeLedger;
        // Tag every op of the miss-driven plan with a provenance id and check
        // the ledger's totals reconcile exactly with the aggregate SimResult
        // counters.
        let (p, t) = small_app();
        let (map, num_ids) = lookahead_plan(&p, &t, true);
        let mut ledger = OutcomeLedger::with_capacity(num_ids as usize);
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        assert_eq!(ledger.per_injection.len(), num_ids as usize);
        assert_eq!(ledger.total(|o| o.executed), r.pf_ops_executed);
        assert_eq!(ledger.total(|o| o.fired), r.pf_ops_fired);
        assert_eq!(ledger.total(|o| o.suppressed), r.pf_ops_suppressed);
        assert_eq!(ledger.total(|o| o.lines_issued), r.pf_lines_issued);
        assert_eq!(ledger.total(|o| o.lines_resident), r.pf_lines_resident);
        assert_eq!(ledger.total(|o| o.useful), r.pf_useful);
        assert_eq!(ledger.total(|o| o.late), r.pf_late);
        assert_eq!(ledger.total(|o| o.evicted_unused), r.pf_evicted_unused);
        // Plain ops are tagged, so nothing should land in the untracked bucket.
        assert_eq!(ledger.untracked, crate::outcome::InjectionOutcome::default());
        // Per-injection invariant: every execution either fired or was suppressed.
        for o in &ledger.per_injection {
            assert_eq!(o.executed, o.fired + o.suppressed);
        }
    }

    #[test]
    fn ledger_routes_untagged_ops_to_untracked() {
        use crate::outcome::OutcomeLedger;
        let (p, t) = small_app();
        let (map, _) = lookahead_plan(&p, &t, false);
        let mut ledger = OutcomeLedger::default();
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        assert!(ledger.per_injection.is_empty());
        assert!(r.pf_useful > 0, "the plan must prefetch something useful");
        assert_eq!(ledger.untracked.executed, r.pf_ops_executed);
        assert_eq!(ledger.untracked.lines_issued, r.pf_lines_issued);
        assert_eq!(ledger.untracked.useful, r.pf_useful);
    }

    #[test]
    fn attaching_a_ledger_does_not_change_results() {
        use crate::outcome::OutcomeLedger;
        let (p, t) = small_app();
        let plain = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let mut ledger = OutcomeLedger::default();
        let observed = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { outcomes: Some(&mut ledger), ..Default::default() },
        );
        assert_eq!(plain, observed);
    }

    #[test]
    fn inflight_stale_heap_stays_bounded() {
        // A line demanded before its prefetch completes leaves a stale lane
        // entry behind; compaction must keep the queue proportional to the
        // *live* in-flight set, not to the total number of such events.
        let mut inf = InflightArena::new(16, true);
        for i in 0..100_000u64 {
            let line = Line::new(i % 16);
            inf.insert(line, i + 1_000, None);
            inf.remove(line); // demand hit while in flight
        }
        assert_eq!(inf.live, 0);
        assert!(
            inf.entries < 2 * INFLIGHT_COMPACT_MIN,
            "stale entries must be compacted away, lanes hold {}",
            inf.entries
        );
    }

    #[test]
    fn inflight_compaction_preserves_drain_order() {
        // Half the lines in the dense arena, half in the far map, so
        // compaction and drain cross both sides.
        let mut inf = InflightArena::new(100, true);
        for i in 0..200u64 {
            inf.insert(Line::new(i), 1_000 - i, None);
        }
        // Invalidate every other line, forcing at least one compaction.
        for i in (0..200u64).step_by(2) {
            inf.remove(Line::new(i));
        }
        let mut drained = Vec::new();
        inf.drain_completed(u64::MAX, |_, line| drained.push(line.raw()));
        let expected: Vec<u64> = (0..200u64).filter(|i| i % 2 == 1).rev().collect();
        assert_eq!(drained, expected, "completion order must survive compaction");
        assert_eq!(inf.live, 0);
    }

    #[test]
    fn inflight_arena_and_far_sides_agree() {
        // Same operation sequence against a dense-arena instance and a
        // limit-0 (all-far) instance: every probe must answer identically,
        // owners included, while a line is in flight, once it has drained
        // and after it is settled.
        let mut dense = InflightArena::new(64, true);
        let mut far = InflightArena::new(0, true);
        let mut state = 0xDEADBEEFu64;
        for step in 0..5_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = Line::new(state % 48);
            let tag = (state >> 33 & 1 == 0).then_some(ProvenanceId((state >> 34) as u32 & 0xFFFF));
            match state >> 59 & 7 {
                0 | 1 => {
                    if dense.get(line).is_none() {
                        dense.insert(line, step + 3 + state % 100, tag);
                        far.insert(line, step + 3 + state % 100, tag);
                    }
                }
                2 => assert_eq!(dense.remove(line), far.remove(line), "remove at step {step}"),
                3 | 4 => {
                    // Only a line that is not in flight is ever settled.
                    if dense.get(line).is_none() {
                        assert_eq!(dense.settle(line), far.settle(line), "settle at step {step}");
                    }
                }
                _ => {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    dense.drain_completed(step, |inf, l| a.push((l.raw(), inf.owner(l))));
                    far.drain_completed(step, |inf, l| b.push((l.raw(), inf.owner(l))));
                    assert_eq!(a, b, "drain diverged at step {step}");
                    for (raw, _) in a {
                        let l = Line::new(raw);
                        assert_eq!(dense.owner(l), far.owner(l), "drained owner at step {step}");
                    }
                }
            }
            assert_eq!(dense.get(line), far.get(line));
            assert_eq!(dense.owner(line), far.owner(line));
            assert_eq!(dense.live, far.live);
        }
        // Settling every line empties both owner columns.
        for raw in 0..48 {
            let l = Line::new(raw);
            if dense.get(l).is_none() {
                assert_eq!(dense.settle(l), far.settle(l));
                assert_eq!((dense.owner(l), far.owner(l)), (None, None));
            }
        }
        assert!(far.far.values().all(|&(c, _)| c != EMPTY_SLOT), "settled far entries are freed");
    }

    #[test]
    fn prefetch_owner_settles_on_hit_fill_eviction_and_switch() {
        use crate::outcome::{InjectionOutcome, OutcomeLedger};
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock};
        // Block 0 issues three tagged prefetches: id 0 of line 2, which
        // block 2 then demands untouched; id 1 of line 100, which the demand
        // fills of lines 164, 228, ... (its L1I set) evict untouched; id 2 of
        // line 300, which a flush switch evicts untouched. Blocks 1 and the
        // conflict blocks miss to memory, so each prefetch has long landed
        // before the demand, the evictions and the switch.
        let (hit, evicted, switched) = (2u64, 100u64, 300u64);
        let mut lines = vec![0, 1, hit];
        lines.extend((1..=8).map(|k| evicted + 64 * k));
        let blocks: Vec<BasicBlock> =
            lines.iter().map(|&l| BasicBlock::new(Addr::new(l * 64), 64, 4, 0)).collect();
        let n = blocks.len();
        let exits = vec![BlockExit::Return; n];
        let funcs = vec![Function::new(BlockId(0), 0, n as u32)];
        let program =
            Program::new("owners", blocks, exits, funcs, vec![FuncId(0); n], vec![vec![FuncId(0)]]);
        // Every block once, then block 1 again after the switch.
        let mut order: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
        order.push(BlockId(1));
        let trace = Trace::new("owners", order);
        let mut map = InjectionMap::new();
        for (id, target) in [hit, evicted, switched].into_iter().enumerate() {
            let op = PrefetchOp::Plain { target: Line::new(target) };
            map.push_traced(BlockId(0), op, ProvenanceId(id as u32));
        }
        let cfg = SimConfig {
            schedule: Some(Arc::new(SwitchSchedule::new(
                vec![(n as u64, 1)],
                vec![],
                SwitchEffect::Flush,
            ))),
            ..SimConfig::default()
        };
        let mut ledger = OutcomeLedger::default();
        let r = run(
            &program,
            &trace,
            &cfg,
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        assert_eq!((r.pf_lines_issued, r.pf_late), (3, 0));
        assert_eq!((r.pf_useful, r.pf_evicted_unused), (1, 2));
        let row = |id: usize| {
            let o = ledger.per_injection[id];
            (o.lines_issued, o.useful, o.evicted_unused)
        };
        assert_eq!(row(0), (1, 1, 0), "the demand hit settles its issuer");
        assert_eq!(row(1), (1, 0, 1), "the fill eviction settles its issuer");
        assert_eq!(row(2), (1, 0, 1), "the switch eviction settles its issuer");
        assert_eq!(ledger.untracked, InjectionOutcome::default());
    }

    #[test]
    fn precompiled_plan_matches_map_lowering() {
        use crate::outcome::OutcomeLedger;
        use ispy_isa::{CoalesceMask, ProvenanceId};
        // Passing a pre-compiled plan must be byte-identical to handing the
        // engine the raw map, across all four op kinds and the ledger.
        let (p, t) = small_app();
        let hash = SimConfig::default().hash;
        let mut map = InjectionMap::new();
        for (n, idx) in (0..t.blocks().len()).step_by(97).enumerate() {
            let site = t.blocks()[idx];
            let target = Line::new(0x5000 + n as u64 * 3);
            let ctx = hash.context_hash([p.block(site).start()]);
            let mask = CoalesceMask::from_bits(0b1011, 8);
            let op = match n % 4 {
                0 => PrefetchOp::Plain { target },
                1 => PrefetchOp::Cond { target, ctx },
                2 => PrefetchOp::Coalesced { base: target, mask },
                _ => PrefetchOp::CondCoalesced { base: target, mask, ctx },
            };
            map.push_traced(site, op, ProvenanceId(n as u32));
        }
        let mut ledger_map = OutcomeLedger::default();
        let via_map = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger_map),
                ..Default::default()
            },
        );
        let compiled = map.compile(p.num_blocks());
        let mut ledger_pre = OutcomeLedger::default();
        let via_compiled = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                compiled: Some(&compiled),
                outcomes: Some(&mut ledger_pre),
                ..Default::default()
            },
        );
        assert_eq!(via_map, via_compiled);
        assert_eq!(ledger_map, ledger_pre);
        assert!(via_map.pf_ops_executed > 0);
    }

    #[test]
    fn bit_parallel_issue_matches_the_per_line_path() {
        use crate::outcome::OutcomeLedger;
        use ispy_isa::CoalesceMask;
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock};
        // The second block's lines sit past the run's line limit, so an op
        // there has no shadow or arena words and must take the per-line
        // path.
        let far = LINE_CAP + 1_024;
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 64, 16, 0),
            BasicBlock::new(Addr::new((far + 200) * 64), 64, 16, 0),
        ];
        let exits = vec![
            BlockExit::Branch(vec![(BlockId(1), 1.0)]),
            BlockExit::Branch(vec![(BlockId(0), 1.0)]),
        ];
        let funcs = vec![Function::new(BlockId(0), 0, 2)];
        let owner = vec![FuncId(0), FuncId(0)];
        let program = Program::new("straddle", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
        let trace = Trace::new("straddle", vec![BlockId(0)]);
        // Two eight-line ops, each straddling a shadow-word boundary: lines
        // 60..=67 (words 0 and 1) and far-4..=far+3.
        let bases = [60, far - 4];
        let mut map = InjectionMap::new();
        for (n, base) in bases.into_iter().enumerate() {
            let op = PrefetchOp::Coalesced {
                base: Line::new(base),
                mask: CoalesceMask::from_bits(0x7F, 8),
            };
            map.push_traced(BlockId(0), op, ProvenanceId(n as u32));
        }
        let compiled = map.compile(program.num_blocks());
        let cfg = SimConfig::default();

        // Each op's lines +0 and +4 resident, +1 and +5 in flight, the
        // other four absent; then one execution of both ops.
        let exec = |force_per_line: bool| {
            let mut ledger = OutcomeLedger::default();
            let mut eng = Engine::new(
                &program,
                &cfg,
                Plan::Borrowed(&compiled),
                None,
                Some(&mut ledger),
                false,
                Some(&trace),
            );
            assert_ne!(
                eng.hot_ops[0].words[1], NO_BATCH,
                "the near op takes the bit-parallel issue"
            );
            assert_eq!(eng.hot_ops[1].words, [NO_BATCH; 2], "the far op is beyond the limit");
            if force_per_line {
                eng.hot_ops[0].words = [NO_BATCH; 2];
            }
            for base in bases {
                for off in [0, 4] {
                    eng.hier.fetch_instr_miss(Line::new(base + off));
                }
                for off in [1, 5] {
                    eng.inflight.insert(Line::new(base + off), 1_000_000, Some(ProvenanceId(9)));
                }
            }
            assert_eq!(eng.exec_ops(BlockId(0), 0), 2);
            let m = eng.m;
            let mut drained = Vec::new();
            eng.inflight.drain_completed(u64::MAX, |inf, l| drained.push((l.raw(), inf.owner(l))));
            drop(eng);
            (m, drained, ledger)
        };
        let (m, drained, ledger) = exec(false);
        let (want_m, want_drained, want_ledger) = exec(true);
        assert_eq!(m, want_m);
        assert_eq!(drained, want_drained, "the same lines in flight, drained in the same order");
        assert_eq!(ledger, want_ledger);
        assert_eq!((m.pf_lines_issued, m.pf_lines_resident), (8, 8));
        assert_eq!(ledger.total(|o| o.lines_issued), m.pf_lines_issued);
        assert_eq!(ledger.total(|o| o.lines_resident), m.pf_lines_resident);
        assert_eq!(ledger.total(|o| o.fired), m.pf_ops_fired);
    }

    #[test]
    fn data_side_is_exercised() {
        let (p, t) = small_app();
        let r = run(&p, &t, &SimConfig::default(), RunOptions::default());
        assert!(r.d_accesses > 0);
        assert!(r.d_misses > 0);
        assert!(r.d_stall_cycles > 0);
    }

    #[test]
    fn flush_schedule_costs_cycles_and_none_effect_is_free() {
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use std::sync::Arc;
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let switches: Vec<(u64, u32)> =
            (1..10).map(|k| (k * t.blocks().len() as u64 / 10, (k % 2) as u32)).collect();
        let mk = |effect| {
            let cfg = SimConfig {
                schedule: Some(Arc::new(SwitchSchedule::new(switches.clone(), vec![], effect))),
                ..SimConfig::default()
            };
            run(&p, &t, &cfg, RunOptions::default())
        };
        // Tagging boundaries without touching the caches replays exactly.
        assert_eq!(mk(SwitchEffect::None), base);
        // Flushing the L1I/L2 at every switch must cost misses and cycles.
        let flushed = mk(SwitchEffect::Flush);
        assert!(flushed.i_misses > base.i_misses);
        assert!(flushed.cycles > base.cycles);
        // Partial thrash lands strictly between the two.
        let thrashed = mk(SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 25 });
        assert!(thrashed.i_misses > base.i_misses);
        assert!(thrashed.i_misses < flushed.i_misses);
    }

    #[test]
    fn observer_sees_schedule_boundaries_in_order() {
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use std::sync::Arc;
        #[derive(Default)]
        struct Boundaries {
            phases: Vec<(usize, u32)>,
            switches: Vec<(usize, u32)>,
        }
        impl SimObserver for Boundaries {
            fn phase_boundary(&mut self, idx: usize, phase: u32, _c: u64) {
                self.phases.push((idx, phase));
            }
            fn tenant_switch(&mut self, idx: usize, tenant: u32, _c: u64) {
                self.switches.push((idx, tenant));
            }
        }
        let (p, t) = small_app();
        let n = t.blocks().len() as u64;
        let cfg = SimConfig {
            schedule: Some(Arc::new(SwitchSchedule::new(
                vec![(n / 4, 1), (n / 2, 0), (3 * n / 4, 1)],
                vec![(n / 3, 1), (2 * n / 3, 2)],
                SwitchEffect::Flush,
            ))),
            ..SimConfig::default()
        };
        let mut obs = Boundaries::default();
        run(&p, &t, &cfg, RunOptions { observer: Some(&mut obs), ..Default::default() });
        assert_eq!(obs.switches.len(), 3);
        assert_eq!(obs.phases.len(), 2);
        assert_eq!(obs.switches.iter().map(|&(_, t)| t).collect::<Vec<_>>(), vec![1, 0, 1]);
        assert_eq!(obs.phases.iter().map(|&(_, p)| p).collect::<Vec<_>>(), vec![1, 2]);
        // Each boundary fires at exactly its scheduled event index.
        assert_eq!(obs.switches[0].0 as u64, n / 4);
        assert_eq!(obs.phases[0].0 as u64, n / 3);
    }
}
