//! The end-to-end offline analysis (§IV steps 2–3).

use crate::coalesce::{coalesce_sorted, CoalescedGroup};
use crate::config::{IspyConfig, FIXED};
use crate::context::{discover_multi, ContextChoice, ContextTally};
use crate::provenance::{PlannedLine, ProvenanceRecord};
use crate::window::{select_covering_sites, site_estimates, SelectionPolicy};
use ispy_isa::{ContextHash, InjectionMap, PrefetchOp, ProvenanceId};
use ispy_profile::scan::MAX_CANDIDATES;
use ispy_profile::window::{Candidates, WindowTable};
use ispy_profile::{
    scan_joint, ContentHasher, JointCounts, JointQuery, LineMissStats, OrderedLine, Profile,
    ProfileDelta, SiteCandidate,
};
use ispy_trace::{BlockId, Line, Program, Trace};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Aggregate statistics about a produced plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanStats {
    /// Missing lines that met the miss-count threshold.
    pub target_lines: usize,
    /// Lines for which a timely injection site was found.
    pub covered_lines: usize,
    /// Lines with no predecessor inside the prefetch window.
    pub uncovered_lines: usize,
    /// Distinct injection sites used.
    pub sites: usize,
    /// Injected instructions by mnemonic.
    pub ops_plain: usize,
    /// `Cprefetch` count.
    pub ops_cond: usize,
    /// `Lprefetch` count.
    pub ops_coalesced: usize,
    /// `CLprefetch` count.
    pub ops_cond_coalesced: usize,
    /// Bytes added to the text segment.
    pub injected_bytes: u64,
    /// Static code-footprint increase (bytes injected / original text).
    pub static_increase: f64,
    /// (site, line) pairs for which a miss context was adopted.
    pub contexts_adopted: usize,
    /// Total predictor blocks across adopted contexts.
    pub context_blocks_total: usize,
    /// Histogram of coalesced extra-line distances (index = distance − 1).
    pub coalesced_distance_hist: Vec<u64>,
    /// Histogram of lines per injected op (index = lines − 1, saturating).
    pub lines_per_op_hist: Vec<u64>,
    /// Lines with no dynamic predecessor at all inside the prefetch window.
    pub lines_no_candidates: usize,
    /// Lines whose window candidates all failed the coverage/precision
    /// floors.
    pub lines_no_sites: usize,
    /// (site, line) injections dropped in pass 2 for lack of a strong
    /// context.
    pub entries_dropped: usize,
}

impl PlanStats {
    /// Total injected instructions.
    pub fn ops_total(&self) -> usize {
        self.ops_plain + self.ops_cond + self.ops_coalesced + self.ops_cond_coalesced
    }

    /// Miss coverage of the plan at the planning level: covered / targeted.
    pub fn planned_coverage(&self) -> f64 {
        if self.target_lines == 0 {
            0.0
        } else {
            self.covered_lines as f64 / self.target_lines as f64
        }
    }

    /// Fraction of coalesced ops that bring in fewer than `n` lines
    /// (paper Fig. 20 reports < 4 lines for 82.4 % of coalesced prefetches).
    pub fn coalesced_fraction_below(&self, n: usize) -> f64 {
        let multi: u64 = self.lines_per_op_hist.iter().skip(1).sum();
        if multi == 0 {
            return 0.0;
        }
        let below: u64 = self.lines_per_op_hist.iter().take(n.saturating_sub(1)).skip(1).sum();
        below as f64 / multi as f64
    }
}

/// A finished plan: the injection map plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Injected prefetch instructions, by site.
    pub injections: InjectionMap,
    /// Accounting for the evaluation harness.
    pub stats: PlanStats,
    /// The predictor blocks behind each adopted context, per site — kept so
    /// the harness can measure the context hash's false-positive rate
    /// (Fig. 21) against ground truth.
    pub context_details: Vec<(BlockId, Vec<BlockId>)>,
    /// One record per injected op, indexed by the [`ProvenanceId`] the op
    /// carries: the full decision chain behind the injection.
    pub provenance: Vec<ProvenanceRecord>,
}

/// Identity of one line's ranked miss history: the dynamic CFG (by content
/// digest), the trace length and LBR depth that set each block's base
/// rate, and the line's stats digest (which also fixes its dominant
/// block). No config field enters the ranking, so every config point of a
/// sweep shares one entry per line.
type RankKey = (u64, usize, usize, u64);

/// Joint-scan answers by the LBR depth the scan ran at, then by the query
/// verbatim (its target is a block of the fixed trace). The first plan to
/// scan a query moves it in as the key, and every plan reads the query's
/// candidates back from there, so no query is copied to become a key.
type JointCache = HashMap<usize, HashMap<Arc<JointQuery>, Arc<JointCounts>>>;

/// One joint query with its answer.
type Answer = (Arc<JointQuery>, Arc<JointCounts>);

/// Reusable, thread-safe caches for [`Planner::plan`]'s staged
/// intermediates (window candidates are not among them: they live in the
/// profile's [`ispy_profile::DynCfg`], which every planner over it shares):
///
/// * per-line ranked miss history (the predictor pool's lift-ordered
///   tail), keyed by a config-independent line content key (dynamic-CFG
///   digest, trace length, LBR depth, line-stats digest),
/// * joint LBR statistics per (site, target, horizon, LBR depth,
///   candidates) query — the linear trace scans feeding
///   [`crate::context::discover_multi`],
/// * a per-line outcome memo with one table per config, named by the
///   plan's base digest (`Planner::base_digest`: the dynamic CFG, the trace
///   dimensions, and every config field passes 1–2.5 read): one slot per
///   line, checked against the line's miss-stats digest — the engine
///   behind [`Planner::replan_delta`]. A slot holds the line's whole
///   outcome in compact form (covered lines: the pass-2 entries then the
///   retry entries, each an index into the line's `(0, max)` window
///   candidates, the site's presence count and two flags, and the adopted
///   contexts out of line; uncovered lines allocate nothing), and a plan
///   adds a hit to its stats and pass 3 exactly as it adds a line it
///   analyzed fresh. Pass 3's knobs (`coalesce_bits`, `coalescing`,
///   `hash`) are not in the base digest, so config points that differ only
///   in them reuse every line outcome.
///
/// Sensitivity sweeps (Figs. 12/17/18/19 and the ablations) replan the same
/// app under many configs; with a shared baseline each distinct trace scan
/// runs once instead of once per config point, and each line is analyzed
/// once per distinct pass-1–2.5 config. The memo holds one table, and at
/// most one slot per line, for every such config planned against the
/// baseline; every caller plans a fixed config set per baseline (a figure's
/// grid, one algorithm per fleet app, one adaptive config). A baseline is
/// valid for one fixed (program, trace) pair — callers (the harness `Session`) keep one
/// per prepared app. The *profile* may evolve between plans via miss-only
/// deltas ([`ispy_profile::Profile::apply_miss_delta`]): every cached value
/// is either a pure function of (trace, query) or keyed by content digest,
/// so stale entries are unreachable rather than wrong.
///
/// [`Planner::plan_with_baseline`] is bit-identical to [`Planner::plan`]:
/// cached values are exactly what the fresh computation would produce, and
/// concurrent fills compute the same values. Cache misses are computed
/// under the cache lock, so concurrent sweeps of one app serialize their
/// scans instead of duplicating them (plans for *different* apps use
/// different baselines and stay fully parallel). Likewise, a plan holds its
/// config's memo table locked through its line analysis (passes 1–2.5 and
/// the walk that memoizes each fresh outcome while adding every line to
/// the plan), so concurrent plans that share a base digest analyze lines
/// one plan at a time, each (line, config) outcome is computed once and the
/// memo's hit counts do not depend on the schedule; the rest of their pass
/// 3 and plans of other configs stay parallel.
#[derive(Debug, Default)]
pub struct PlannerBaseline {
    ranked: Mutex<HashMap<RankKey, Arc<Vec<BlockId>>>>,
    joint: Mutex<JointCache>,
    /// One line memo per base digest (see the type docs).
    line_memos: Mutex<HashMap<u64, Arc<Mutex<LineMemo>>>>,
}

/// One line's memo slot: its miss-stats digest when it was analyzed, and
/// its outcome.
type MemoSlot = (u64, LineOutcome);

/// One config's line memo: at most one slot per line, kept sorted by line.
/// Sorted vectors hold exactly their slots, where a hash table would keep
/// up to half of its buckets empty; a lookup is a binary search over the
/// dense line column, and each plan merges its fresh slots in at once.
#[derive(Debug, Default)]
struct LineMemo {
    /// The lines with a slot (raw), ascending.
    lines: Vec<u64>,
    /// Each line's slot, parallel to `lines`.
    slots: Vec<MemoSlot>,
}

impl LineMemo {
    /// The index of `line`'s slot in `slots`.
    fn find(&self, line: u64) -> Option<usize> {
        self.lines.binary_search(&line).ok()
    }

    /// Stores `fresh` slots (at most one per line), each replacing the
    /// line's slot if it has one.
    fn store(&mut self, mut fresh: Vec<(u64, MemoSlot)>) {
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable_by_key(|&(line, _)| line);
        let len = self.lines.len() + fresh.len();
        let (mut lines, mut slots) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut old = std::mem::take(&mut self.lines)
            .into_iter()
            .zip(std::mem::take(&mut self.slots))
            .peekable();
        for (line, slot) in fresh {
            while let Some((kept, kept_slot)) = old.next_if(|&(l, _)| l < line) {
                lines.push(kept);
                slots.push(kept_slot);
            }
            old.next_if(|&(l, _)| l == line);
            lines.push(line);
            slots.push(slot);
        }
        for (line, slot) in old {
            lines.push(line);
            slots.push(slot);
        }
        lines.shrink_to_fit();
        slots.shrink_to_fit();
        (self.lines, self.slots) = (lines, slots);
    }

    /// Drops the slots of `lines`.
    fn remove(&mut self, lines: &[Line]) {
        let mut gone = vec![false; self.lines.len()];
        for l in lines {
            if let Some(i) = self.find(l.raw()) {
                gone[i] = true;
            }
        }
        let mut gone_slots = gone.iter();
        self.slots.retain(|_| !gone_slots.next().expect("one slot per line"));
        let mut gone_lines = gone.iter();
        self.lines.retain(|_| !gone_lines.next().expect("one line per slot"));
    }
}

impl PlannerBaseline {
    /// Creates an empty baseline (caches fill lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The line memo of the config `base_digest` names, created empty on
    /// first use.
    fn line_memo(&self, base_digest: u64) -> Arc<Mutex<LineMemo>> {
        let mut memos = self.line_memos.lock().expect("line memos lock");
        Arc::clone(memos.entry(base_digest).or_default())
    }

    /// Drops every memo slot of `lines`, whatever config stored it (the
    /// digest check would reject them anyway; eager removal keeps the
    /// tables from accumulating dead slots).
    fn invalidate_lines(&self, lines: &[Line]) {
        let memos: Vec<Arc<Mutex<LineMemo>>> =
            self.line_memos.lock().expect("line memos lock").values().cloned().collect();
        for memo in memos {
            memo.lock().expect("line memo lock").remove(lines);
        }
    }

    /// Answers `queries` from the joint cache, scanning the trace once for
    /// whatever distinct subset is uncached; those queries move into the
    /// cache, and each answer shares its query with it.
    fn resolve_joint(&self, planner: &Planner, queries: Vec<JointQuery>) -> Vec<Answer> {
        let lbr = planner.profile.lbr_depth;
        let mut cache = self.joint.lock().expect("joint lock");
        let cache = cache.entry(lbr).or_default();
        // Each query's cached answer, or the index of its first occurrence
        // among the uncached ones.
        let mut firsts: HashMap<&JointQuery, usize> = HashMap::new();
        let slots: Vec<Result<Answer, usize>> = queries
            .iter()
            .map(|q| match cache.get_key_value(q) {
                Some((q, counts)) => Ok((Arc::clone(q), Arc::clone(counts))),
                None => {
                    let next = firsts.len();
                    Err(*firsts.entry(q).or_insert(next))
                }
            })
            .collect();
        let mut missing: Vec<JointQuery> = Vec::with_capacity(firsts.len());
        for (q, slot) in queries.into_iter().zip(&slots) {
            if matches!(slot, Err(i) if *i == missing.len()) {
                missing.push(q);
            }
        }
        let counts = scan_joint(planner.trace, lbr, &missing);
        let scanned: Vec<Answer> =
            missing.into_iter().zip(counts).map(|(q, c)| (Arc::new(q), Arc::new(c))).collect();
        for (q, counts) in &scanned {
            cache.insert(Arc::clone(q), Arc::clone(counts));
        }
        slots.into_iter().map(|slot| slot.unwrap_or_else(|i| scanned[i].clone())).collect()
    }
}

/// Direct predecessors of a site that enter its predictor pool.
const SITE_PREDS: usize = 3;

/// Predecessors of the site's top predecessor that enter its predictor
/// pool.
const TOP_PRED_PREDS: usize = 2;

/// The most ranked-history entries [`Planner::predictor_candidates`] can
/// read: it takes at most [`MAX_CANDIDATES`] of them, and it skips only the
/// site itself and the ≤ `SITE_PREDS + TOP_PRED_PREDS` into-site blocks
/// (ranked entries are distinct and never the target). A longer history
/// would change no predictor pool, so [`Planner::ranked_history`] keeps
/// only this many.
const RANKED_HISTORY_LEN: usize = MAX_CANDIDATES + SITE_PREDS + TOP_PRED_PREDS + 1;

/// A context's block ids, ascending: the second half of pass 3's grouping
/// key (none for an unconditional op). Ordered as the id slice it holds;
/// the ids past `len` stay zero, so equality agrees with that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CtxIds {
    len: u8,
    ids: [u32; MAX_CANDIDATES],
}

impl CtxIds {
    /// The sorted ids of `blocks` (a context holds at most
    /// [`MAX_CANDIDATES`] of its query's candidates).
    fn new(blocks: &[BlockId]) -> Self {
        let mut ctx = CtxIds { len: blocks.len() as u8, ids: [0; MAX_CANDIDATES] };
        for (id, b) in ctx.ids.iter_mut().zip(blocks) {
            *id = b.0;
        }
        ctx.ids[..blocks.len()].sort_unstable();
        ctx
    }

    fn ids(&self) -> &[u32] {
        &self.ids[..usize::from(self.len)]
    }
}

impl Ord for CtxIds {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ids().cmp(other.ids())
    }
}

impl PartialOrd for CtxIds {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One (site, context, line) injection awaiting pass 3: `seq` is its place
/// in emission order, and the index of its [`PlannedLine`] in the plan's
/// `planned` table.
#[derive(Clone, Copy)]
struct Emitted {
    site: u32,
    ctx: CtxIds,
    line: Line,
    seq: u32,
}

/// `emitted` in (site, context ids, line, seq) order: a counting sort by
/// site over the program's `num_blocks` blocks, then a sort of each site's
/// few entries.
fn sort_emitted(emitted: Vec<Emitted>, num_blocks: usize) -> Vec<Emitted> {
    // `next[b]`: where site `b`'s next entry goes.
    let mut next = vec![0u32; num_blocks];
    for e in &emitted {
        next[e.site as usize] += 1;
    }
    let mut at = 0;
    for slot in &mut next {
        (*slot, at) = (at, at + *slot);
    }
    let mut sorted = emitted.clone();
    for e in emitted {
        let slot = &mut next[e.site as usize];
        sorted[*slot as usize] = e;
        *slot += 1;
    }
    for site in sorted.chunk_by_mut(|a, b| a.site == b.site) {
        site.sort_unstable_by(|a, b| {
            a.ctx.cmp(&b.ctx).then(a.line.cmp(&b.line)).then(a.seq.cmp(&b.seq))
        });
    }
    sorted
}

/// One (site, line) decision being made: the entry a context round fills
/// in, the contexts it adopts, and the index of its query among the round's
/// joint queries until that round has decided it.
struct Pending {
    entry: MemoEntry,
    ctxs: Vec<ContextChoice>,
    query: Option<usize>,
}

impl Pending {
    /// A decision for the window candidate at `cand` (an index into the
    /// line's unfiltered candidates), which preceded `presence` of the
    /// line's sampled misses, its `query` (if any) appended to the round's
    /// `queries`. A site that needs a context but has no query to find one
    /// in cannot be repaired, so it starts out dropped.
    fn new(
        cand: usize,
        presence: u64,
        needs_ctx: bool,
        query: Option<JointQuery>,
        queries: &mut Vec<JointQuery>,
    ) -> Self {
        let dropped = query.is_none() && needs_ctx;
        let query = query.map(|q| {
            queries.push(q);
            queries.len() - 1
        });
        let cand = u32::try_from(cand).expect("a window search settles at most u32::MAX blocks");
        let presence = u32::try_from(presence).expect("trace positions are u32");
        let entry = MemoEntry { cand, presence, adopted: 0, needs_ctx, dropped };
        Pending { entry, ctxs: Vec::new(), query }
    }
}

/// One covered line being analyzed fresh (not served by the memo): what
/// passes 1–2.5 read of it, and its decisions so far.
struct FreshLine<'w> {
    target: OrderedLine<'w>,
    line_digest: u64,
    rank_key: RankKey,
    target_block: BlockId,
    ranked: OnceCell<Arc<Vec<BlockId>>>,
    /// The line's window candidates; those no entry chose are the spares
    /// pass 2.5 retries.
    candidates: Candidates<'w>,
    /// Pass 1's entries (selection order), then any retry entries pass 2.5
    /// adds (rank order).
    entries: Vec<Pending>,
}

/// One finished (site, line) decision, as stored in the per-line memo and
/// replayed into pass 3. Everything pass 3 emits is derivable from this,
/// the line's window candidates and contexts, and fresh lookups of the
/// line's miss count and the site's execution count ([`site_estimates`]).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// The site: its index in the line's unfiltered (`(0, max)`) window
    /// candidates ([`Candidates::unfiltered`]).
    cand: u32,
    /// How many of the line's sampled misses the site preceded (its
    /// history presence), kept so a replayed entry needs no lookup in the
    /// line's presence map.
    presence: u32,
    /// How many of the line's contexts, the next ones in entry order, the
    /// entry adopted (none = unconditional op).
    adopted: u8,
    /// The site was too imprecise to fire unconditionally.
    needs_ctx: bool,
    /// Dropped by its context round (needs-context site without a strong
    /// context).
    dropped: bool,
}

/// The complete planning outcome for one miss line, memoized under a digest
/// of every input the line's decisions depend on. Passes 1–2.5 have no
/// cross-line coupling, and every line — memo hit or fresh — reaches pass 3
/// as one outcome, so replaying stored outcomes reproduces a fresh plan
/// byte for byte.
#[derive(Debug)]
enum LineOutcome {
    /// Site selection produced nothing: uncovered, with the
    /// no-candidates/no-sites distinction for the stats.
    NoSites { had_candidates: bool },
    /// Covered: one entry per (site, line) decision — pass 2's entries in
    /// selection order, then any pass-2.5 retry entries in rank order —
    /// dropped ones included so pass 3 can count them; and the contexts
    /// the entries adopted, in entry order. Both at their exact size.
    Covered { entries: Box<[MemoEntry]>, ctxs: Box<[ContextChoice]> },
}

/// The I-SPY offline analyzer.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Planner<'a> {
    program: &'a Program,
    trace: &'a Trace,
    profile: &'a Profile,
    cfg: IspyConfig,
}

impl<'a> Planner<'a> {
    /// Creates a planner over one application's profile.
    pub fn new(
        program: &'a Program,
        trace: &'a Trace,
        profile: &'a Profile,
        cfg: IspyConfig,
    ) -> Self {
        Planner { program, trace, profile, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IspyConfig {
        &self.cfg
    }

    /// The miss-history half of a line's predictor pool: the top
    /// [`RANKED_HISTORY_LEN`] blocks present in the line's miss histories,
    /// minus `target_block`, that pass the presence and lift floors, ordered
    /// by lift over their base rate (descending, ties by block id). Depends
    /// on the profile alone, so it is computed once per line and shared by
    /// all of the line's sites.
    fn ranked_history(&self, line_stats: &LineMissStats, target_block: BlockId) -> Vec<BlockId> {
        let trace_len = self.profile.trace_len.max(1) as f64;
        let depth = self.profile.lbr_depth as f64;
        let mut scored: Vec<(f64, BlockId)> = line_stats
            .history_presence
            .iter()
            .filter(|&(&b, _)| b != target_block)
            .filter_map(|(&b, &pres)| {
                let frac = pres as f64 / line_stats.count as f64;
                // Keep even low-presence candidates: each may predict only
                // its own calling context's share of the instances
                // (multi-context discovery covers the rest).
                if frac < 0.05 {
                    return None;
                }
                let expected =
                    (self.profile.cfg.exec_count(b) as f64 * depth / trace_len).clamp(1e-9, 1.0);
                let lift = frac / expected;
                (lift >= 1.2).then_some((lift, b))
            })
            .collect();
        // NaN lifts fail the floor above and blocks are distinct, so this
        // order is total: the top entries are one set, whatever the
        // selection's internal order.
        let by_lift = |a: &(f64, BlockId), b: &(f64, BlockId)| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1 .0.cmp(&b.1 .0))
        };
        if scored.len() > RANKED_HISTORY_LEN {
            scored.select_nth_unstable_by(RANKED_HISTORY_LEN - 1, by_lift);
            scored.truncate(RANKED_HISTORY_LEN);
        }
        scored.sort_unstable_by(by_lift);
        scored.into_iter().map(|(_, b)| b).collect()
    }

    /// Predictor-candidate pool for one (site, target): the site's dynamic
    /// predecessors (Fig. 6's path-into-the-site blocks) plus the line's
    /// `ranked` miss history ([`Planner::ranked_history`]), capped at `cap`
    /// blocks (the planner passes [`IspyConfig::ctx_candidates`]).
    fn predictor_candidates(
        &self,
        ranked: &[BlockId],
        site_block: BlockId,
        target_block: BlockId,
        cap: usize,
    ) -> Vec<BlockId> {
        // Blocks on the paths *into the site* are the strongest
        // discriminators: at run time the LBR provably contains the site's
        // recent predecessors.
        let dyncfg = &self.profile.cfg;
        let site_preds = dyncfg.preds(site_block);
        let into_site = site_preds.iter().take(SITE_PREDS).chain(
            site_preds
                .first()
                .into_iter()
                .flat_map(|&(top, _)| dyncfg.preds(top).iter().take(TOP_PRED_PREDS)),
        );
        let mut predictors: Vec<BlockId> = Vec::with_capacity(cap);
        let mut history = ranked.iter().copied();
        let mut pool = into_site.map(|&(p, _)| p).chain(history.by_ref());
        while predictors.len() < cap {
            let Some(b) = pool.next() else { break };
            if b != site_block && b != target_block && !predictors.contains(&b) {
                predictors.push(b);
            }
        }
        // The history entries read: those taken, plus those skipped for
        // being the site or an into-site block already taken.
        debug_assert!(ranked.len() - history.len() <= RANKED_HISTORY_LEN);
        predictors
    }

    /// Runs the analysis and produces the plan.
    pub fn plan(&self) -> Plan {
        self.plan_impl(None)
    }

    /// Runs the analysis, reusing (and filling) `baseline`'s caches for the
    /// config-independent trace-scan state. Produces a bit-identical plan
    /// to [`Planner::plan`]; the baseline must have been created for this
    /// planner's exact (program, trace, profile).
    pub fn plan_with_baseline(&self, baseline: &PlannerBaseline) -> Plan {
        self.plan_impl(Some(baseline))
    }

    fn plan_impl(&self, baseline: Option<&PlannerBaseline>) -> Plan {
        let tele = ispy_telemetry::global();
        let _plan_span = tele.span("core.plan");
        let mut stats = PlanStats {
            coalesced_distance_hist: vec![0; usize::from(self.cfg.coalesce_bits)],
            lines_per_op_hist: vec![0; usize::from(self.cfg.coalesce_bits) + 1],
            ..Default::default()
        };

        // With a baseline, per-line outcomes are memoized in the table of
        // the plan's config under the line's stats digest, which with the
        // table's base digest covers everything one line's plan depends on;
        // a hit skips the line's site selection and context discovery
        // entirely (the delta-replan fast path). `plan()` runs every line
        // fresh through the same code.
        let dyncfg_digest = baseline.map_or(0, |_| self.profile.cfg.content_digest());
        // Holding the table locked, plans of one config analyze lines one
        // plan at a time, through memoize.
        let memo_table = baseline.map(|b| b.line_memo(self.base_digest(dyncfg_digest)));
        let mut memo = memo_table.as_deref().map(|m| m.lock().expect("line memo lock"));
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;
        let mut contexts = ContextTally::default();
        let allow_conditional = self.cfg.conditional && self.cfg.ctx_size > 0;

        // ---- Pass 1: site selection + joint-query construction. ----------
        let select_span = tele.span("core.plan.select");
        let windows = self
            .profile
            .cfg
            .window_table(self.cfg.min_prefetch_cycles, self.cfg.max_prefetch_cycles);
        // The target lines the memo serves, and every other target line's
        // outcome with the stats digest to memoize it under, in any order.
        // Covered fresh lines join once pass 2.5 has finished them.
        let mut hits: Vec<(OrderedLine, usize)> = Vec::new();
        let mut outcomes: Vec<(OrderedLine, LineOutcome, u64)> = Vec::new();
        let mut fresh: Vec<FreshLine> = Vec::new();
        let mut queries: Vec<JointQuery> = Vec::new();
        for target in self.profile.misses.plan_order(FIXED.min_miss_count) {
            let (line, line_stats) = (target.line, target.stats);
            let mut line_digest = 0;
            if let Some(memo) = &memo {
                line_digest = target.digest();
                if let Some(slot) =
                    memo.find(line.raw()).filter(|&i| memo.slots[i].0 == line_digest)
                {
                    memo_hits += 1;
                    hits.push((target, slot));
                    continue;
                }
                memo_misses += 1;
            }
            let candidates = windows.candidates(target.dominant);
            // Coverage- and precision-driven multi-site selection: a miss
            // reached over several paths gets one prefetch per covering
            // path; imprecise sites are admitted only because the run-time
            // condition will keep them accurate (§III-A).
            let policy = SelectionPolicy {
                max_sites: FIXED.max_sites_per_line,
                min_presence: FIXED.min_site_presence,
                min_unconditional_precision: FIXED.min_unconditional_precision,
                min_conditional_precision: FIXED.min_conditional_precision,
                allow_conditional,
            };
            let presence = |b: BlockId| line_stats.history_presence.get(&b).copied().unwrap_or(0);
            let sites = select_covering_sites(
                candidates,
                presence,
                |b| self.profile.cfg.exec_count(b),
                line_stats.count,
                &policy,
            );
            if sites.is_empty() {
                let outcome = LineOutcome::NoSites { had_candidates: !candidates.is_empty() };
                outcomes.push((target, outcome, line_digest));
                continue;
            }
            let rank_key =
                (dyncfg_digest, self.profile.trace_len, self.profile.lbr_depth, line_digest);
            let mut fl = FreshLine {
                target,
                line_digest,
                rank_key,
                target_block: target.dominant,
                ranked: OnceCell::new(),
                candidates,
                entries: Vec::with_capacity(sites.len()),
            };
            for site in sites {
                let query = if allow_conditional {
                    self.joint_query(&fl, &site.cand, baseline)
                } else {
                    None
                };
                let pres = presence(site.cand.block);
                fl.entries.push(Pending::new(
                    site.index,
                    pres,
                    site.needs_ctx,
                    query,
                    &mut queries,
                ));
            }
            fresh.push(fl);
        }
        drop(select_span);

        // ---- Pass 2: one linear scan answers every context query. --------
        // Fresh lines only — memoized lines already carry their decisions.
        self.context_round(&mut fresh, queries, baseline, &mut contexts, "core.plan.context");

        // ---- Pass 2.5: retry lines whose every injection was dropped. -----
        // A line can lose all its first-choice sites when none of them finds
        // a usable context; its remaining window candidates get one more
        // attempt (always as conditional sites). Fresh lines only: a
        // memoized line carries its retry entries in its stored outcome.
        if allow_conditional {
            let retry_span = tele.span("core.plan.retry");
            let mut queries: Vec<JointQuery> = Vec::new();
            for fl in &mut fresh {
                if fl.entries.iter().any(|e| !e.entry.dropped) {
                    continue;
                }
                // The spares: window candidates no pass-1 site took.
                let mut ranked: Vec<(usize, SiteCandidate)> = fl
                    .candidates
                    .indexed()
                    .filter(|&(i, _)| fl.entries.iter().all(|e| e.entry.cand as usize != i))
                    .map(|(i, &c)| (i, c))
                    .collect();
                let line_stats = fl.target.stats;
                let presence =
                    |b: BlockId| line_stats.history_presence.get(&b).copied().unwrap_or(0);
                ranked.sort_by(|(_, a), (_, b)| {
                    presence(b.block).cmp(&presence(a.block)).then_with(|| {
                        b.cycles
                            .partial_cmp(&a.cycles)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.block.0.cmp(&b.block.0))
                    })
                });
                let mut taken = 0;
                for (index, cand) in ranked {
                    if taken >= 2 {
                        break;
                    }
                    let (pres, execs) =
                        (presence(cand.block), self.profile.cfg.exec_count(cand.block));
                    let (_, precision) = site_estimates(pres, execs, line_stats.count);
                    // Even a conditional op *executes* on every site pass;
                    // the precision floor bounds the dynamic overhead.
                    if precision < FIXED.min_conditional_precision {
                        continue;
                    }
                    let Some(query) = self.joint_query(fl, &cand, baseline) else { continue };
                    taken += 1;
                    fl.entries.push(Pending::new(index, pres, true, Some(query), &mut queries));
                }
            }
            drop(retry_span);
            if !queries.is_empty() {
                self.context_round(&mut fresh, queries, baseline, &mut contexts, "core.plan.retry");
            }
        }

        // ---- Memoize + pass 3: group by (site, context), coalesce, emit. ---
        let emit_span = tele.span("core.plan.emit");
        // Fresh lines' finished outcomes. The memo keeps these as long as
        // the baseline lives, so they are stored at their exact size (the
        // pass vectors grew by pushes and carry spare capacity).
        outcomes.extend(fresh.into_iter().map(|fl| {
            let entries = fl
                .entries
                .iter()
                .map(|p| {
                    let adopted = u8::try_from(p.ctxs.len()).expect("a site adopts few contexts");
                    MemoEntry { adopted, ..p.entry }
                })
                .collect();
            let ctxs = fl.entries.into_iter().flat_map(|p| p.ctxs).collect();
            (fl.target, LineOutcome::Covered { entries, ctxs }, fl.line_digest)
        }));
        let mut emitted: Vec<Emitted> = Vec::new();
        let mut planned: Vec<PlannedLine> = Vec::new();
        let mut add = |target, outcome: &LineOutcome| {
            self.add_line(&mut stats, &mut emitted, &mut planned, &windows, target, outcome);
        };
        if let Some(memo) = &memo {
            for (target, slot) in hits {
                add(target, &memo.slots[slot].1);
            }
        }
        for (target, outcome, _) in &outcomes {
            add(*target, outcome);
        }
        if let Some(memo) = &mut memo {
            memo.store(
                outcomes.into_iter().map(|(t, o, digest)| (t.line.raw(), (digest, o))).collect(),
            );
        }
        drop(memo);
        // Groups in ascending (site, sorted context ids) order; inside one,
        // each line's entries sit together in emission order, so the first
        // of them is the one whose planned line the provenance keeps. Only
        // the order of one line's entries matters, not the order in which
        // the lines were added.
        let emitted = sort_emitted(emitted, self.program.num_blocks());

        let mut injections = InjectionMap::new();
        let mut provenance: Vec<ProvenanceRecord> = Vec::new();
        let mut context_details: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        let (mut coalesce_calls, mut coalesce_groups, mut lines_merged) = (0u64, 0u64, 0u64);
        // Per group, reused: its distinct lines (ascending), the planned
        // line of each, and the ops they pack into.
        let (mut lines, mut firsts, mut packed) = (Vec::new(), Vec::new(), Vec::new());
        for group in emitted.chunk_by(|a, b| a.site == b.site && a.ctx == b.ctx) {
            let site = BlockId(group[0].site);
            let ctx_blocks: Vec<BlockId> = group[0].ctx.ids().iter().map(|&b| BlockId(b)).collect();
            let ctx_hash: Option<ContextHash> = if ctx_blocks.is_empty() {
                None
            } else {
                context_details.push((site, ctx_blocks.clone()));
                Some(
                    self.cfg
                        .hash
                        .context_hash(ctx_blocks.iter().map(|&b| self.program.block(b).start())),
                )
            };
            lines.clear();
            firsts.clear();
            for same in group.chunk_by(|a, b| a.line == b.line) {
                lines.push(same[0].line);
                firsts.push(&planned[same[0].seq as usize]);
            }
            packed.clear();
            if self.cfg.coalescing {
                packed.extend(coalesce_sorted(&lines, self.cfg.coalesce_bits));
                coalesce_calls += 1;
                coalesce_groups += packed.len() as u64;
                lines_merged += (lines.len() - packed.len()) as u64;
            } else {
                packed.extend(lines.iter().map(|&base| CoalescedGroup { base, mask: None }));
            }
            // Each op takes the next run of the group's lines: its base,
            // then every line its mask selects.
            let mut runs = firsts.as_slice();
            for group in &packed {
                let op = match (ctx_hash, group.mask) {
                    (Some(ctx), Some(mask)) => {
                        stats.ops_cond_coalesced += 1;
                        PrefetchOp::CondCoalesced { base: group.base, mask, ctx }
                    }
                    (Some(ctx), None) => {
                        stats.ops_cond += 1;
                        PrefetchOp::Cond { target: group.base, ctx }
                    }
                    (None, Some(mask)) => {
                        stats.ops_coalesced += 1;
                        PrefetchOp::Coalesced { base: group.base, mask }
                    }
                    (None, None) => {
                        stats.ops_plain += 1;
                        PrefetchOp::Plain { target: group.base }
                    }
                };
                let lines_count = group.line_count() as usize;
                let (run, rest) = runs.split_at(lines_count);
                runs = rest;
                for extra in &run[1..] {
                    let d = extra.line.distance_from(group.base).expect("forward") as usize;
                    stats.coalesced_distance_hist[d - 1] += 1;
                }
                let idx = (lines_count - 1).min(stats.lines_per_op_hist.len() - 1);
                stats.lines_per_op_hist[idx] += 1;
                let id = ProvenanceId(provenance.len() as u32);
                provenance.push(ProvenanceRecord {
                    id,
                    site,
                    mnemonic: op.mnemonic(),
                    base_line: group.base,
                    mask: group.mask,
                    context_blocks: ctx_blocks.clone(),
                    lines: run.iter().map(|&p| p.clone()).collect(),
                });
                injections.push_traced(site, op, id);
            }
        }

        stats.sites = injections.num_sites();
        stats.injected_bytes = injections.injected_bytes();
        stats.static_increase = injections.static_increase(self.program.text_bytes());
        drop(emit_span);
        // Each counter is added once per plan, with the totals the per-query
        // and per-group counts sum to (none when no call ran).
        contexts.publish(&tele);
        if coalesce_calls > 0 {
            tele.add("core.coalesce.calls", coalesce_calls);
            tele.add("core.coalesce.groups", coalesce_groups);
            tele.add("core.coalesce.lines_merged", lines_merged);
        }
        tele.add("core.plan.calls", 1);
        tele.add("core.plan.target_lines", stats.target_lines as u64);
        tele.add("core.plan.covered_lines", stats.covered_lines as u64);
        tele.add("core.plan.entries_dropped", stats.entries_dropped as u64);
        tele.add("core.plan.contexts_adopted", stats.contexts_adopted as u64);
        tele.add("core.plan.ops_emitted", provenance.len() as u64);
        tele.add("core.plan.memo_hits", memo_hits);
        tele.add("core.plan.memo_misses", memo_misses);
        Plan { injections, stats, context_details, provenance }
    }

    /// The joint query for one (site, line): the site's predictor pool over
    /// the line's ranked history (ranked on first use), and the label
    /// horizon. None when the pool is empty.
    fn joint_query(
        &self,
        fl: &FreshLine,
        site: &SiteCandidate,
        baseline: Option<&PlannerBaseline>,
    ) -> Option<JointQuery> {
        let history = fl.ranked.get_or_init(|| {
            self.line_ranking(baseline, fl.rank_key, fl.target.stats, fl.target_block)
        });
        let predictors = self.predictor_candidates(
            history,
            site.block,
            fl.target_block,
            self.cfg.ctx_candidates(),
        );
        if predictors.is_empty() {
            return None;
        }
        // The context is scored on *reaching the miss block* (path
        // probability, as in Fig. 6), not on the miss re-occurring: misses
        // are self-erasing once the line is cached, whereas the prefetch
        // should fire whenever the line is about to be needed (a resident
        // prefetch is cheap, §VII). The horizon is how far ahead "reaching
        // the target" still counts: the max prefetch distance expressed in
        // blocks (ideal cycles / avg block cost), with slack for runtime
        // path variance.
        Some(JointQuery {
            site: site.block,
            target: fl.target_block,
            candidates: predictors,
            horizon_blocks: (site.blocks * 3).max(64),
        })
    }

    /// One context round (pass 2, or pass 2.5's retry): answers `queries`
    /// with one joint-LBR scan (through `baseline`'s cache, if any), then,
    /// timed under `span`, decides every entry of `fresh` still waiting on
    /// one of them.
    fn context_round(
        &self,
        fresh: &mut [FreshLine],
        queries: Vec<JointQuery>,
        baseline: Option<&PlannerBaseline>,
        tally: &mut ContextTally,
        span: &str,
    ) {
        let tele = ispy_telemetry::global();
        let answers: Vec<Answer> = if queries.is_empty() {
            Vec::new()
        } else {
            let _scan_span = tele.span("core.plan.scan");
            match baseline {
                None => {
                    let counts = scan_joint(self.trace, self.profile.lbr_depth, &queries);
                    queries
                        .into_iter()
                        .map(Arc::new)
                        .zip(counts.into_iter().map(Arc::new))
                        .collect()
                }
                Some(b) => b.resolve_joint(self, queries),
            }
        };
        let _span = tele.span(span);
        for pending in fresh.iter_mut().flat_map(|fl| &mut fl.entries) {
            let Some(qi) = pending.query.take() else { continue };
            let (query, counts) = &answers[qi];
            // Zero fan-out at run time: the site almost always leads to the
            // miss; no condition needed (§IV).
            let unconditional = counts.conditional_probability(0).unwrap_or(0.0);
            if unconditional >= FIXED.zero_fanout_threshold {
                continue;
            }
            let found = discover_multi(
                counts,
                &query.candidates,
                self.cfg.ctx_size,
                FIXED.min_ctx_support,
                FIXED.ctx_gain_margin,
                FIXED.min_ctx_probability,
                FIXED.max_contexts_per_site,
            );
            tally.count(&found);
            if pending.entry.needs_ctx {
                // An imprecise site (every retry site among them) is kept
                // conditionally when contexts make its firings likely to be
                // useful; failing that it survives unconditionally only if
                // its raw reach is already decent (most firings land on a
                // soon-needed line); otherwise it is dropped.
                if !found.contexts.is_empty() {
                    pending.ctxs = found.contexts;
                } else if unconditional < FIXED.min_unconditional_reach {
                    pending.entry.dropped = true;
                }
            } else if !found.contexts.is_empty() && found.coverage >= 0.8 {
                // A precise site adopts contexts only when they retain
                // (almost) all of its coverage while raising accuracy.
                pending.ctxs = found.contexts;
            }
        }
    }

    /// One line's ranked history, through `baseline`'s cache (one entry
    /// per distinct line content, `key`) if there is one.
    fn line_ranking(
        &self,
        baseline: Option<&PlannerBaseline>,
        key: RankKey,
        line_stats: &LineMissStats,
        target_block: BlockId,
    ) -> Arc<Vec<BlockId>> {
        let rank = || Arc::new(self.ranked_history(line_stats, target_block));
        match baseline {
            Some(b) => {
                Arc::clone(b.ranked.lock().expect("ranked lock").entry(key).or_insert_with(rank))
            }
            None => rank(),
        }
    }

    /// Config+profile-shape digest shared by every line digest of one plan,
    /// and the key of the plan's memo slot on each line: the dynamic CFG,
    /// the trace dimensions, and every [`IspyConfig`] field passes 1–2.5
    /// read. `ctx_size` enters as what those passes use of it: the predictor
    /// pool's size, and the context size capped at that pool (a context is
    /// a subset of the pool, so sizes at or past it admit the same
    /// contexts, and Fig. 17's sizes 8, 16 and 32 share one table). Capping
    /// keeps `ctx_size > 0`, which `allow_conditional` reads: the pool size
    /// is at least [`FIXED`]'s `min_ctx_candidates`. Pass 3's fields
    /// (`coalesce_bits`, `coalescing`, `hash`) are left out: they are read
    /// fresh on every plan, from the memoized entries, so plans that differ
    /// only in them share every line outcome. The fixed thresholds are
    /// constants, the same for every plan a baseline serves.
    fn base_digest(&self, dyncfg_digest: u64) -> u64 {
        let c = &self.cfg;
        let mut h = ContentHasher::new();
        h.write_u64(dyncfg_digest);
        h.write_usize(self.profile.trace_len);
        h.write_usize(self.profile.lbr_depth);
        h.write_u32(c.min_prefetch_cycles);
        h.write_u32(c.max_prefetch_cycles);
        h.write_usize(c.ctx_candidates());
        h.write_usize(c.ctx_size.min(c.ctx_candidates()));
        h.write_u32(u32::from(c.conditional));
        h.finish()
    }

    /// Adds one target line's outcome to the plan: its coverage to `stats`,
    /// and each of its surviving entries to pass 3's `emitted`, with its
    /// planning estimates in `planned`, counting dropped entries and
    /// adopted contexts. An entry's site comes from the line's candidates
    /// in `windows`, and its coverage and precision from the line's stats
    /// ([`site_estimates`], as site selection computed them).
    fn add_line(
        &self,
        stats: &mut PlanStats,
        emitted: &mut Vec<Emitted>,
        planned: &mut Vec<PlannedLine>,
        windows: &WindowTable,
        target: OrderedLine,
        outcome: &LineOutcome,
    ) {
        stats.target_lines += 1;
        let (entries, ctxs) = match outcome {
            LineOutcome::Covered { entries, ctxs } => (entries, ctxs),
            LineOutcome::NoSites { had_candidates } => {
                stats.uncovered_lines += 1;
                if *had_candidates {
                    stats.lines_no_sites += 1;
                } else {
                    stats.lines_no_candidates += 1;
                }
                return;
            }
        };
        stats.covered_lines += 1;
        let (line, line_stats) = (target.line, target.stats);
        let target_block = target.dominant;
        let candidates = windows.candidates(target_block).unfiltered();
        let mut ctxs = &ctxs[..];
        for entry in entries.iter() {
            let adopted;
            (adopted, ctxs) = ctxs.split_at(usize::from(entry.adopted));
            if entry.dropped {
                stats.entries_dropped += 1;
                continue;
            }
            let cand = candidates[entry.cand as usize];
            let execs = self.profile.cfg.exec_count(cand.block);
            let (site_presence, site_precision) =
                site_estimates(u64::from(entry.presence), execs, line_stats.count);
            let mut push = |ctx: CtxIds, adopted: Option<&ContextChoice>| {
                let seq = emitted.len() as u32;
                emitted.push(Emitted { site: cand.block.0, ctx, line, seq });
                planned.push(PlannedLine {
                    line,
                    miss_count: line_stats.count,
                    site_presence,
                    site_precision,
                    reach_prob: cand.reach_prob,
                    window_cycles: cand.cycles,
                    ctx_probability: adopted.map(|c| c.probability),
                    ctx_baseline: adopted.map(|c| c.baseline),
                    ctx_support: adopted.map(|c| c.support),
                });
            };
            if adopted.is_empty() {
                push(CtxIds::new(&[]), None);
                continue;
            }
            for ctx in adopted {
                stats.contexts_adopted += 1;
                stats.context_blocks_total += ctx.blocks.len();
                push(CtxIds::new(&ctx.blocks), Some(ctx));
            }
        }
    }

    /// Replans after `delta` has already been folded into this planner's
    /// profile (via [`ispy_profile::Profile::apply_miss_delta`]), reusing
    /// `baseline`'s staged caches and per-line memo. The result is
    /// byte-identical to a from-scratch [`Planner::plan`] over the updated
    /// profile, but only lines whose miss sets changed are re-analyzed and
    /// only the windows they touch are re-coalesced — O(delta) planning
    /// work instead of O(profile).
    pub fn replan_delta(&self, baseline: &PlannerBaseline, delta: &ProfileDelta) -> Plan {
        // The digest check alone would reject stale slots; eager
        // invalidation also evicts lines the delta removed outright.
        baseline.invalidate_lines(&delta.touched_lines());
        self.plan_with_baseline(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_isa::HashConfig;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::{run, RunOptions, SimConfig};
    use ispy_trace::apps;

    fn planned(
        model: ispy_trace::AppModel,
        events: usize,
        cfg: IspyConfig,
    ) -> (Program, Trace, Plan) {
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), events);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let plan = Planner::new(&program, &trace, &prof, cfg).plan();
        (program, trace, plan)
    }

    #[test]
    fn plan_produces_ops_and_accounting() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 30_000, IspyConfig::default());
        assert!(plan.stats.target_lines > 10);
        assert!(plan.stats.covered_lines > 0);
        assert_eq!(plan.stats.ops_total(), plan.injections.num_ops());
        assert!(plan.stats.injected_bytes > 0);
        assert!(plan.stats.static_increase > 0.0);
    }

    #[test]
    fn plan_speeds_up_execution() {
        let (program, trace, plan) =
            planned(apps::cassandra().scaled_down(30), 40_000, IspyConfig::default());
        let scfg = SimConfig::default();
        let base = run(&program, &trace, &scfg, RunOptions::default());
        let with = run(
            &program,
            &trace,
            &scfg,
            RunOptions {
                compiled: Some(&plan.injections.compile(program.num_blocks())),
                ..Default::default()
            },
        );
        assert!(
            with.cycles < base.cycles,
            "I-SPY must speed up: {} vs {}",
            with.cycles,
            base.cycles
        );
        assert!(with.i_misses < base.i_misses);
        assert!(with.pf_useful > 0);
    }

    #[test]
    fn conditional_only_has_no_coalesced_ops() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 20_000, IspyConfig::conditional_only());
        assert_eq!(plan.stats.ops_coalesced, 0);
        assert_eq!(plan.stats.ops_cond_coalesced, 0);
    }

    #[test]
    fn coalescing_only_has_no_conditional_ops() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 20_000, IspyConfig::coalescing_only());
        assert_eq!(plan.stats.ops_cond, 0);
        assert_eq!(plan.stats.ops_cond_coalesced, 0);
        assert_eq!(plan.stats.contexts_adopted, 0);
    }

    #[test]
    fn coalescing_reduces_op_count() {
        let model = apps::verilator().scaled_down(30);
        let (_, _, with) = planned(model.clone(), 20_000, IspyConfig::coalescing_only());
        let (_, _, without) = planned(model, 20_000, IspyConfig::plain());
        assert!(
            with.stats.ops_total() < without.stats.ops_total(),
            "coalescing must shrink the op count on spatially-local verilator: {} vs {}",
            with.stats.ops_total(),
            without.stats.ops_total()
        );
        assert!(with.stats.injected_bytes < without.stats.injected_bytes);
    }

    #[test]
    fn injections_respect_coalesce_window() {
        let (_, _, plan) =
            planned(apps::verilator().scaled_down(30), 20_000, IspyConfig::default());
        for (_, ops) in plan.injections.iter() {
            for op in ops {
                let targets = op.target_lines();
                let base = op.base_line();
                for t in &targets {
                    let d = t.distance_from(base).expect("targets at/after base");
                    assert!(d <= 8, "distance {d} exceeds the 8-line window");
                }
            }
        }
    }

    #[test]
    fn baseline_replanning_matches_fresh_plans() {
        // One shared baseline across every config variant of one app must
        // reproduce each fresh plan exactly — injections AND stats — even
        // though candidates, positions, ranked histories, and joint counts
        // come from caches warmed by *other* variants. Both orders run on a
        // fresh baseline, so each cache is filled first by a different
        // variant (e.g. the ranked histories by the 8- and by the
        // 6-candidate configs). The last variants differ from another one
        // only in pass 3's knobs (coalescing width, coalescing, hash), so
        // they replay every line outcome from that variant's memo slot, as
        // do context sizes 16 and 32 from size 8's.
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 25_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let variants = vec![
            IspyConfig::default(),
            IspyConfig::conditional_only(),
            IspyConfig::coalescing_only(),
            IspyConfig::plain(),
            IspyConfig::default().with_ctx_size(2),
            IspyConfig::default().with_ctx_size(8),
            IspyConfig::default().with_ctx_size(16),
            IspyConfig::default().with_ctx_size(32),
            IspyConfig::default().with_distances(15, 200),
            IspyConfig::default().with_distances(27, 120),
            IspyConfig::default().with_coalesce_bits(4),
            IspyConfig::default().with_coalesce_bits(1),
            IspyConfig::coalescing_only().with_coalesce_bits(2),
            IspyConfig { coalescing: false, ..IspyConfig::default().with_ctx_size(2) },
            IspyConfig::default().with_hash(HashConfig::new(8, 2)),
            IspyConfig::default().with_hash(HashConfig::new(16, 1)),
            IspyConfig::conditional_only().with_hash(HashConfig::new(4, 1)).with_coalesce_bits(2),
        ];
        let fresh: Vec<Plan> = variants
            .iter()
            .map(|cfg| Planner::new(&program, &trace, &prof, cfg.clone()).plan())
            .collect();
        for reversed in [false, true] {
            let mut order: Vec<(&IspyConfig, &Plan)> = variants.iter().zip(&fresh).collect();
            if reversed {
                order.reverse();
            }
            let baseline = PlannerBaseline::new();
            for (cfg, fresh) in order {
                let planner = Planner::new(&program, &trace, &prof, cfg.clone());
                let reused = planner.plan_with_baseline(&baseline);
                assert_eq!(fresh.injections, reused.injections, "cfg {cfg:?}, reversed {reversed}");
                assert_eq!(fresh.stats, reused.stats, "cfg {cfg:?}, reversed {reversed}");
                assert_eq!(
                    fresh.context_details, reused.context_details,
                    "cfg {cfg:?}, reversed {reversed}"
                );
                assert_eq!(fresh.provenance, reused.provenance, "cfg {cfg:?}, reversed {reversed}");
            }
        }
    }

    #[test]
    fn memo_keeps_one_slot_per_config_and_invalidation_drops_them_all() {
        let model = apps::kafka().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 15_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let baseline = PlannerBaseline::new();
        let slots = |line: u64| {
            let memos = baseline.line_memos.lock().unwrap();
            memos.values().filter(|m| m.lock().unwrap().find(line).is_some()).count()
        };
        let plan = |cfg: IspyConfig| Planner::new(&program, &trace, &prof, cfg);
        let lines: Vec<Line> = prof.misses.lines_by_count().iter().map(|(l, _)| *l).collect();
        let a = plan(IspyConfig::default());
        let b = plan(IspyConfig::default().with_distances(15, 200));
        a.plan_with_baseline(&baseline);
        assert!(lines.iter().all(|l| slots(l.raw()) == 1));
        // Pass-3-only knobs reuse A's slot; a pass-1 knob adds a second.
        plan(IspyConfig::default().with_coalesce_bits(2)).plan_with_baseline(&baseline);
        plan(IspyConfig::default().with_hash(HashConfig::new(8, 1))).plan_with_baseline(&baseline);
        assert!(lines.iter().all(|l| slots(l.raw()) == 1));
        b.plan_with_baseline(&baseline);
        a.plan_with_baseline(&baseline);
        assert!(lines.iter().all(|l| slots(l.raw()) == 2));
        let (touched, kept) = lines.split_at(lines.len() / 2);
        baseline.invalidate_lines(touched);
        assert!(touched.iter().all(|l| slots(l.raw()) == 0));
        assert!(kept.iter().all(|l| slots(l.raw()) == 2));

        // Context sizes past the predictor pool admit the same contexts, so
        // 16 and 32 take size 8's slot; sizes within it each take their own.
        let baseline = PlannerBaseline::new();
        let slots = |line: u64| {
            let memos = baseline.line_memos.lock().unwrap();
            memos.values().filter(|m| m.lock().unwrap().find(line).is_some()).count()
        };
        for n in [8, 16, 32] {
            plan(IspyConfig::default().with_ctx_size(n)).plan_with_baseline(&baseline);
            assert!(lines.iter().all(|l| slots(l.raw()) == 1), "size {n}");
        }
        for (n, expected) in [(4, 2), (2, 3)] {
            plan(IspyConfig::default().with_ctx_size(n)).plan_with_baseline(&baseline);
            assert!(lines.iter().all(|l| slots(l.raw()) == expected), "size {n}");
        }
    }

    #[test]
    fn line_memo_keeps_one_sorted_slot_per_line() {
        let mut memo = LineMemo::default();
        let slot = |digest: u64| (digest, LineOutcome::NoSites { had_candidates: true });
        let digests = |memo: &LineMemo| memo.slots.iter().map(|s| s.0).collect::<Vec<u64>>();
        memo.store(vec![(30, slot(1)), (10, slot(1)), (20, slot(1))]);
        // A fresh slot replaces a stale one of its line.
        memo.store(vec![(20, slot(2)), (25, slot(2)), (5, slot(2))]);
        assert_eq!(memo.lines, [5, 10, 20, 25, 30]);
        assert_eq!(digests(&memo), [2, 1, 2, 2, 1]);
        memo.store(Vec::new());
        assert_eq!(memo.lines, [5, 10, 20, 25, 30]);
        // Lines without a slot are ignored.
        memo.remove(&[Line::new(20), Line::new(99), Line::new(5)]);
        assert_eq!(memo.lines, [10, 25, 30]);
        assert_eq!(digests(&memo), [1, 2, 1]);
        assert_eq!((memo.find(25), memo.find(20)), (Some(1), None));
    }

    /// Every history block of `s` passing the presence and lift floors, in
    /// full lift order (descending, ties by ascending block id) — the
    /// ranking before [`Planner::ranked_history`] keeps its top entries.
    fn full_ranking(prof: &Profile, s: &LineMissStats, target: BlockId) -> Vec<BlockId> {
        let (trace_len, depth) = (prof.trace_len as f64, prof.lbr_depth as f64);
        let lift = |b: BlockId| {
            let frac = s.history_presence[&b] as f64 / s.count as f64;
            let base = prof.cfg.exec_count(b) as f64 * depth / trace_len;
            (frac >= 0.05).then_some(frac / base.clamp(1e-9, 1.0))
        };
        let mut kept: Vec<(f64, BlockId)> = s
            .history_presence
            .keys()
            .filter(|&&b| b != target)
            .filter_map(|&b| lift(b).filter(|&l| l >= 1.2).map(|l| (l, b)))
            .collect();
        kept.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        kept.into_iter().map(|(_, b)| b).collect()
    }

    #[test]
    fn ranked_history_order_and_exclusion() {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let planner = Planner::new(&program, &trace, &prof, IspyConfig::default());
        let (mut ranked_total, mut truncated) = (0, 0);
        for (_, s) in prof.misses.lines_by_count().into_iter().take(60) {
            let target = s.dominant_block().expect("a missed line has a block");
            let ranked = planner.ranked_history(s, target);
            assert!(!ranked.contains(&target), "the miss block is never its own predictor");
            // The top of the full lift order: the history blocks passing
            // the presence and lift floors, by descending lift, ties by
            // ascending block id, cut at the most entries a predictor pool
            // can read.
            let full = full_ranking(&prof, s, target);
            assert_eq!(ranked, full[..full.len().min(RANKED_HISTORY_LEN)]);
            ranked_total += ranked.len();
            truncated += usize::from(full.len() > RANKED_HISTORY_LEN);
        }
        assert!(ranked_total > 0);
        assert!(truncated > 0, "no line's history was long enough to be cut");
    }

    #[test]
    fn truncated_history_gives_full_history_predictor_pools() {
        // Keeping only the top ranked entries must change no predictor
        // pool: every line, every window candidate of it (the selected
        // sites and the retry spares alike), every pool size.
        let mut pools = 0;
        for model in apps::all() {
            let model = model.scaled_down(30);
            let program = model.generate();
            let trace = program.record_trace(model.default_input(), 15_000);
            let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
            let cfg = IspyConfig::default();
            let windows = prof.cfg.window_table(cfg.min_prefetch_cycles, cfg.max_prefetch_cycles);
            let planner = Planner::new(&program, &trace, &prof, cfg);
            for (_, s) in prof.misses.lines_by_count() {
                let Some(target) = s.dominant_block() else { continue };
                let ranked = planner.ranked_history(s, target);
                let full = full_ranking(&prof, s, target);
                for site in windows.candidates(target).iter() {
                    for cap in 1..=MAX_CANDIDATES {
                        assert_eq!(
                            planner.predictor_candidates(&ranked, site.block, target, cap),
                            planner.predictor_candidates(&full, site.block, target, cap),
                            "{}: site {:?}, target {target:?}, {cap} candidates",
                            model.name(),
                            site.block,
                        );
                        pools += 1;
                    }
                }
            }
        }
        assert!(pools > 0);
    }

    #[test]
    fn provenance_records_cover_every_op() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 30_000, IspyConfig::default());
        // One record per emitted op, ids dense in emission order.
        assert_eq!(plan.provenance.len(), plan.injections.num_ops());
        for (i, rec) in plan.provenance.iter().enumerate() {
            assert_eq!(rec.id.index(), i);
            assert_eq!(rec.line_count() as usize, rec.lines.len());
            assert!(!rec.lines.is_empty());
        }
        // Every op's traced id resolves to a record that describes that op.
        let mut seen = vec![false; plan.provenance.len()];
        for (site, ops) in plan.injections.iter() {
            let ids = plan.injections.ids_at(site);
            assert_eq!(ids.len(), ops.len());
            for (op, id) in ops.iter().zip(ids) {
                let id = id.expect("planner-emitted ops carry provenance");
                let rec = &plan.provenance[id.index()];
                assert_eq!(rec.site, site);
                assert_eq!(rec.mnemonic, op.mnemonic());
                assert_eq!(rec.base_line, op.base_line());
                assert_eq!(rec.line_count() as usize, op.target_lines().len());
                assert_eq!(rec.is_conditional(), op.condition().is_some());
                assert!(!seen[id.index()], "duplicate provenance id");
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every record must be referenced by an op");
    }

    #[test]
    fn baseline_is_shareable_across_threads() {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 15_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let baseline = PlannerBaseline::new();
        let serial: Vec<Plan> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                Planner::new(&program, &trace, &prof, IspyConfig::default().with_ctx_size(n)).plan()
            })
            .collect();
        let parallel: Vec<Plan> = std::thread::scope(|s| {
            let handles: Vec<_> = [1usize, 2, 4, 8]
                .iter()
                .map(|&n| {
                    let (program, trace, prof, baseline) = (&program, &trace, &prof, &baseline);
                    s.spawn(move || {
                        Planner::new(program, trace, prof, IspyConfig::default().with_ctx_size(n))
                            .plan_with_baseline(baseline)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.injections, b.injections);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn deterministic_planning() {
        let model = apps::kafka().scaled_down(30);
        let (_, _, a) = planned(model.clone(), 15_000, IspyConfig::default());
        let (_, _, b) = planned(model, 15_000, IspyConfig::default());
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn stats_helpers() {
        let stats = PlanStats {
            contexts_adopted: 2,
            context_blocks_total: 6,
            target_lines: 10,
            covered_lines: 8,
            lines_per_op_hist: vec![5, 3, 2, 0, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        assert!((stats.planned_coverage() - 0.8).abs() < 1e-12);
        // Multi-line ops: 3 two-line + 2 three-line; below 4 lines = all 5.
        assert!((stats.coalesced_fraction_below(4) - 1.0).abs() < 1e-12);
        assert!((stats.coalesced_fraction_below(3) - 0.6).abs() < 1e-12);
    }
}
