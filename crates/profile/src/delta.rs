//! Profile deltas: fold a live trace window into an existing profile in
//! O(delta) instead of re-profiling the whole trace.
//!
//! The paper's deployment story is a continuous profile → plan → inject
//! loop; this module provides its profile half. A [`ProfileDelta`] carries
//! everything one observation window contributes — miss samples with their
//! LBR history snapshots, per-block execution and cycle increments, and
//! dynamic-edge increments — in raw (pre-aggregated) form, so folding it
//! into a [`ProfileAccumulator`] is exact: every quantity is a sum, and the
//! accumulator keeps the raw sums the [`DynCfg`] averages are derived from.
//! Removal is supported too ([`ProfileDelta::removed`]), as the exact
//! inverse of addition: a profile with a window folded in and back out is
//! digest-identical to one that never saw it.
//!
//! Two consumers:
//!
//! * the incremental replanner (`ispy-core`): a miss-only delta against a
//!   fixed trace invalidates exactly the touched lines' planner memos;
//! * the adaptive driver (`repro adapt`): [`window_delta`] profiles one
//!   window of a running trace (bounded memory, same two-replay structure
//!   as the offline [`profile`](crate::profile) pass), and the accumulator
//!   folds window after window into a live profile.

use crate::collect::{avg_cycles, ideal_cycles, EdgeTally, Profile, SampleRate};
use crate::digest::ContentHasher;
use crate::dyncfg::DynCfg;
use crate::miss::MissProfile;
use ispy_sim::{run, RunOptions, SimConfig, SimObserver};
use ispy_trace::{BlockId, Line, Program, Trace};

/// One sampled I-cache miss, carried in raw form so it can be folded into —
/// and removed from — a [`MissProfile`] exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissSample {
    /// The missing line.
    pub line: Line,
    /// The block executing when the line missed.
    pub block: BlockId,
    /// Trace position (block index) of the miss.
    pub idx: u32,
    /// The LBR-depth history window preceding the miss.
    pub history: Vec<BlockId>,
}

/// Everything one observation window contributes to a profile.
///
/// All fields are increments; the delta is associative, so windows can be
/// folded in any order (miss positions are kept sorted by the fold). A
/// *miss-only* delta (see [`ProfileDelta::is_miss_only`]) leaves the
/// dynamic CFG untouched — the shape the incremental replanner consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDelta {
    /// Miss samples to fold in.
    pub added: Vec<MissSample>,
    /// Miss samples to remove (exact inverse of a prior fold/record).
    pub removed: Vec<MissSample>,
    /// Block events observed in the window (extends `trace_len`).
    pub events: u64,
    /// Per-block execution-count increments.
    pub exec: Vec<(BlockId, u64)>,
    /// Dynamic-edge increments `(from, to) -> taken count`.
    pub edges: Vec<((u32, u32), u64)>,
    /// Per-block cycle-sum increments (raw sums, so averages stay exact).
    pub cycles: Vec<(BlockId, u64)>,
}

impl ProfileDelta {
    /// Whether this delta only adds/removes miss samples, leaving the
    /// dynamic CFG and trace length untouched. Such deltas can be applied
    /// directly to a [`Profile`] (see [`Profile::apply_miss_delta`]) and
    /// invalidate only the touched lines in the planner's memo.
    pub fn is_miss_only(&self) -> bool {
        self.events == 0 && self.exec.is_empty() && self.edges.is_empty() && self.cycles.is_empty()
    }

    /// The distinct lines whose miss sets this delta changes, deduplicated.
    pub fn touched_lines(&self) -> Vec<Line> {
        let mut lines: Vec<u64> =
            self.added.iter().chain(&self.removed).map(|s| s.line.raw()).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.into_iter().map(Line::new).collect()
    }
}

impl Profile {
    /// Applies a miss-only delta in O(delta): folds added samples, unfolds
    /// removed ones. The CFG, trace length, and LBR depth are unchanged, so
    /// the profile stays consistent with the same recorded trace — the
    /// contract the planner's `replan_delta` relies on.
    ///
    /// # Panics
    ///
    /// Panics if the delta is not miss-only (fold CFG-bearing deltas through
    /// a [`ProfileAccumulator`] instead), or if a removed sample was never
    /// in the profile.
    pub fn apply_miss_delta(&mut self, delta: &ProfileDelta) {
        assert!(delta.is_miss_only(), "CFG-bearing deltas need a ProfileAccumulator");
        for s in &delta.added {
            self.misses.fold_sample(s.line, s.block, s.idx, &s.history);
        }
        for s in &delta.removed {
            self.misses.unfold_sample(s.line, s.block, s.idx, &s.history);
        }
    }

    /// A digest of the planner-baseline-identifying parts of the profile:
    /// the dynamic CFG contents, trace length, and LBR depth — everything a
    /// `PlannerBaseline`'s trace-keyed caches depend on *except* the
    /// per-line miss sets (those are digest-checked per line). Two profiles
    /// with equal baseline digests can share a warm baseline and replan at
    /// delta speed; the fleet plan service uses this to decide when a new
    /// consensus profile may reuse a retained baseline.
    pub fn baseline_digest(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_u64(self.cfg.content_digest());
        h.write_usize(self.trace_len);
        h.write_usize(self.lbr_depth);
        h.finish()
    }
}

/// A streaming accumulator: fold [`ProfileDelta`]s window by window and
/// materialize a [`Profile`] on demand.
///
/// The accumulator retains *raw* sums (execution counts, cycle sums, edge
/// counts) rather than the derived averages a [`DynCfg`] exposes, so folds
/// are exact and associative; [`ProfileAccumulator::profile`] derives the
/// averages the same way the offline profiler does.
#[derive(Debug, Clone)]
pub struct ProfileAccumulator {
    lbr_depth: usize,
    events: u64,
    exec: Vec<u64>,
    cycles_sum: Vec<u64>,
    edges: EdgeTally,
    misses: MissProfile,
}

impl ProfileAccumulator {
    /// An empty accumulator over a `num_blocks`-block program with the
    /// given LBR history depth.
    pub fn new(num_blocks: usize, lbr_depth: usize) -> Self {
        ProfileAccumulator {
            lbr_depth,
            events: 0,
            exec: vec![0; num_blocks],
            cycles_sum: vec![0; num_blocks],
            edges: EdgeTally::new(num_blocks),
            misses: MissProfile::new(),
        }
    }

    /// Folds one window's delta in, in O(delta).
    pub fn fold(&mut self, delta: &ProfileDelta) {
        for s in &delta.added {
            self.misses.fold_sample(s.line, s.block, s.idx, &s.history);
        }
        for s in &delta.removed {
            self.misses.unfold_sample(s.line, s.block, s.idx, &s.history);
        }
        self.events += delta.events;
        for &(b, n) in &delta.exec {
            self.exec[b.index()] += n;
        }
        for &((from, to), n) in &delta.edges {
            self.edges.add(BlockId(from), BlockId(to), n);
        }
        for &(b, n) in &delta.cycles {
            self.cycles_sum[b.index()] += n;
        }
    }

    /// Total block events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total miss samples folded so far.
    pub fn total_misses(&self) -> u64 {
        self.misses.total_misses()
    }

    /// Materializes the accumulated state as a [`Profile`]: derives per-
    /// block average cycles from the raw sums and builds the weighted CFG.
    /// O(accumulated state), not O(trace) — the trace is never replayed.
    pub fn profile(&self) -> Profile {
        let avg = avg_cycles(&self.exec, &self.cycles_sum);
        Profile {
            cfg: DynCfg::new(self.exec.clone(), avg, self.edges.iter()),
            misses: self.misses.clone(),
            trace_len: self.events as usize,
            lbr_depth: self.lbr_depth,
            replays: None,
        }
    }
}

/// The windowed observer: same splice as the offline `Collector`, but
/// emitting raw delta material instead of aggregating in place. Events with
/// replay index below `skip` are warmup: they feed the LBR history and the
/// edge chain but contribute no counts or samples of their own.
struct DeltaCollector {
    lbr_depth: usize,
    sample_period: u32,
    sample_tick: u32,
    window: std::collections::VecDeque<BlockId>,
    idx0: u64,
    skip: usize,
    exec: Vec<u64>,
    edges: EdgeTally,
    samples: Vec<MissSample>,
    prev: Option<BlockId>,
}

impl SimObserver for DeltaCollector {
    fn block_entered(&mut self, idx: usize, block: BlockId, _cycle: u64) {
        if idx >= self.skip {
            self.exec[block.index()] += 1;
            if let Some(prev) = self.prev {
                // With warmup this includes the warmup→window boundary edge,
                // exactly as a continuous profile would count it.
                self.edges.add(prev, block, 1);
            }
        }
        self.prev = Some(block);
        self.window.push_back(block);
        if self.window.len() > self.lbr_depth {
            self.window.pop_front();
        }
    }

    fn icache_miss(&mut self, idx: usize, block: BlockId, line: Line, _cycle: u64) {
        if idx < self.skip {
            return;
        }
        self.sample_tick += 1;
        if self.sample_tick < self.sample_period {
            return;
        }
        self.sample_tick = 0;
        self.samples.push(MissSample {
            line,
            block,
            idx: (self.idx0 + (idx - self.skip) as u64) as u32,
            history: self.window.iter().copied().collect(),
        });
    }
}

/// Profiles one window of a trace and returns its [`ProfileDelta`].
///
/// Memory is bounded by `warmup.len() + blocks.len()`, never the full
/// trace: warmup then window are replayed twice (observed + ideal-I-cache,
/// the same structure as the offline [`profile`](crate::profile) pass) from
/// a cold simulator, and only the window's events are observed. `warmup`
/// should be the trace slice immediately preceding the window (empty for
/// the first window, or when profiling a whole trace in one call): it warms
/// the caches and the LBR history so the window's samples, edges, and
/// per-block cycles match what a continuous profile of the full trace
/// would record — without it, every window-start replays cold and the
/// inflated cycle averages skew the planner's timeliness windows. `idx0` is
/// the window's starting position in the full trace, so sample positions
/// stay globally meaningful across windows.
///
/// Windowed profiling remains an approximation of continuous profiling at
/// the window boundaries (warmup is finite), which is exactly the
/// live-sampling setting the paper's online phase operates in; within a
/// window the delta is exact.
pub fn window_delta(
    program: &Program,
    warmup: &[BlockId],
    blocks: &[BlockId],
    sim_cfg: &SimConfig,
    rate: SampleRate,
    idx0: u64,
) -> ProfileDelta {
    let mut replayed = Vec::with_capacity(warmup.len() + blocks.len());
    replayed.extend_from_slice(warmup);
    replayed.extend_from_slice(blocks);
    let trace = Trace::new(program.name(), replayed);
    let skip = warmup.len();
    let mut collector = DeltaCollector {
        lbr_depth: sim_cfg.lbr_depth,
        sample_period: rate.period(),
        sample_tick: 0,
        window: std::collections::VecDeque::with_capacity(sim_cfg.lbr_depth + 1),
        idx0,
        skip,
        exec: vec![0; program.num_blocks()],
        edges: EdgeTally::new(program.num_blocks()),
        samples: Vec::new(),
        prev: None,
    };
    run(
        program,
        &trace,
        sim_cfg,
        RunOptions { observer: Some(&mut collector), ..Default::default() },
    );

    let (cycles_sum, _) = ideal_cycles(program, &trace, sim_cfg, skip);

    let mut exec: Vec<(BlockId, u64)> = collector
        .exec
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (BlockId(i as u32), n))
        .collect();
    exec.sort_unstable_by_key(|&(b, _)| b);
    let mut edges: Vec<((u32, u32), u64)> = collector.edges.iter().collect();
    edges.sort_unstable();
    let mut cycle_rows: Vec<(BlockId, u64)> = cycles_sum
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (BlockId(i as u32), n))
        .collect();
    cycle_rows.sort_unstable_by_key(|&(b, _)| b);

    ProfileDelta {
        added: collector.samples,
        removed: Vec::new(),
        events: blocks.len() as u64,
        exec,
        edges,
        cycles: cycle_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use ispy_trace::apps;

    #[test]
    fn miss_only_delta_round_trips_through_a_profile() {
        let model = apps::cassandra().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 8_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let digest0: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> =
                prof.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
            v.sort_unstable();
            v
        };
        // Remove every sample of the lightest line, then fold it back.
        let (line, stats) = prof.misses.lines_by_count().pop().expect("some misses");
        let block = *stats.at_blocks.keys().next().unwrap();
        let positions = stats.positions.clone();
        // The offline profile aggregates histories, so synthesize samples
        // with empty histories on a scratch copy to exercise the paths.
        let mut scratch = prof.clone();
        let removed: Vec<MissSample> = positions
            .iter()
            .map(|&idx| MissSample { line, block, idx, history: Vec::new() })
            .collect();
        // fold synthetic first so unfold has matching samples to remove
        let synth = ProfileDelta { added: removed.clone(), ..Default::default() };
        scratch.apply_miss_delta(&synth);
        let back = ProfileDelta { removed, ..Default::default() };
        scratch.apply_miss_delta(&back);
        let digest1: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> =
                scratch.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(digest0, digest1, "fold+unfold must be digest-identical to never-folded");
        assert_eq!(scratch.baseline_digest(), prof.baseline_digest());
    }

    #[test]
    fn accumulated_windows_match_whole_trace_counts() {
        let model = apps::drupal().scaled_down(40);
        let program = model.generate();
        let events = 12_000usize;
        let trace = program.record_trace(model.default_input(), events);
        let cfg = SimConfig::default();
        let window = 3_000usize;
        let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
        for (k, chunk) in trace.blocks().chunks(window).enumerate() {
            let delta =
                window_delta(&program, &[], chunk, &cfg, SampleRate::EXACT, (k * window) as u64);
            assert!(delta.events == chunk.len() as u64);
            acc.fold(&delta);
        }
        assert_eq!(acc.events(), events as u64);
        let folded = acc.profile();
        assert_eq!(folded.trace_len, events);
        // Execution counts are exact regardless of windowing.
        let counts = trace.exec_counts(program.num_blocks());
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(folded.cfg.exec_count(BlockId(i as u32)), c, "exec count of block {i}");
        }
        // Window-boundary effects only *add* misses (cold caches), never
        // remove them, and each window drops exactly one boundary edge.
        let whole = profile(&program, &trace, &cfg, SampleRate::EXACT);
        assert!(folded.misses.total_misses() >= whole.misses.total_misses());
        let edge_total: u64 = (0..folded.cfg.num_blocks())
            .map(|i| folded.cfg.succs(BlockId(i as u32)).iter().map(|&(_, w)| w).sum::<u64>())
            .sum();
        assert_eq!(edge_total, (events - events.div_ceil(window)) as u64);
    }

    #[test]
    fn out_of_order_window_arrival_is_order_independent() {
        let model = apps::kafka().scaled_down(40);
        let program = model.generate();
        let events = 9_000usize;
        let trace = program.record_trace(model.default_input(), events);
        let cfg = SimConfig::default();
        let window = 3_000usize;
        let deltas: Vec<ProfileDelta> = trace
            .blocks()
            .chunks(window)
            .enumerate()
            .map(|(k, chunk)| {
                window_delta(&program, &[], chunk, &cfg, SampleRate::EXACT, (k * window) as u64)
            })
            .collect();
        let mut fwd = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
        for d in &deltas {
            fwd.fold(d);
        }
        let mut rev = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
        for d in deltas.iter().rev() {
            rev.fold(d);
        }
        let (a, b) = (fwd.profile(), rev.profile());
        assert_eq!(a.baseline_digest(), b.baseline_digest());
        let mut da: Vec<(u64, u64)> =
            a.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
        let mut db: Vec<(u64, u64)> =
            b.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
    }
}
