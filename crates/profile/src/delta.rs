//! Profile deltas: fold a live trace window into an existing profile in
//! O(delta) instead of re-profiling the whole trace.
//!
//! The paper's deployment story is a continuous profile → plan → inject
//! loop; this module provides its profile half. A [`ProfileDelta`] carries
//! everything one observation window contributes — the window's per-line
//! miss stats, per-block execution and cycle increments, and dynamic-edge
//! increments — as raw sums, so folding it into a [`ProfileAccumulator`]
//! is exact: the accumulator keeps the raw sums the [`DynCfg`] averages
//! are derived from. Removal is supported too ([`ProfileDelta::removed`]),
//! as the exact inverse of addition: a profile with a window folded in and
//! back out is digest-identical to one that never saw it.
//!
//! Two consumers:
//!
//! * the incremental replanner (`ispy-core`): a miss-only delta against a
//!   fixed trace invalidates exactly the touched lines' planner memos;
//! * the adaptive driver (`repro adapt`): [`window_delta`] profiles one
//!   window of a running trace with the collector and the two replays of
//!   the offline [`profile`](crate::profile) pass, and the accumulator
//!   folds window after window into a live profile.

use crate::collect::{avg_cycles, ideal_cycles, observe, EdgeTally, Profile, SampleRate};
use crate::dyncfg::DynCfg;
use crate::miss::MissProfile;
use ispy_sim::SimConfig;
use ispy_trace::{BlockId, Line, Program, Trace};

/// Everything one observation window contributes to a profile.
///
/// All fields are increments; the delta is associative, so windows can be
/// folded in any order (miss positions are kept sorted by the fold). A
/// *miss-only* delta (see [`ProfileDelta::is_miss_only`]) leaves the
/// dynamic CFG untouched — the shape the incremental replanner consumes.
#[derive(Debug, Clone, Default)]
pub struct ProfileDelta {
    /// Per-line miss stats to fold in.
    pub added: MissProfile,
    /// Per-line miss stats to remove (the exact inverse of a prior fold).
    pub removed: MissProfile,
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
    /// Whether this delta only adds/removes misses, leaving the dynamic
    /// CFG and trace length untouched. Such deltas can be applied directly
    /// to a [`Profile`] (see [`Profile::apply_miss_delta`]) and invalidate
    /// only the touched lines in the planner's memo.
    pub fn is_miss_only(&self) -> bool {
        self.events == 0 && self.exec.is_empty() && self.edges.is_empty() && self.cycles.is_empty()
    }

    /// The distinct lines whose miss sets this delta changes, ascending.
    pub fn touched_lines(&self) -> Vec<Line> {
        let mut lines: Vec<u64> =
            self.added.iter().chain(self.removed.iter()).map(|(l, _)| l.raw()).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.into_iter().map(Line::new).collect()
    }
}

impl Profile {
    /// Applies a miss-only delta in O(delta): merges the added lines,
    /// subtracts the removed ones. The CFG, trace length, and LBR depth
    /// are unchanged, so the profile stays consistent with the same
    /// recorded trace — the contract the planner's `replan_delta` relies
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if the delta is not miss-only (fold CFG-bearing deltas through
    /// a [`ProfileAccumulator`] instead), or if anything removed was never
    /// in the profile (see [`MissProfile::subtract`]).
    pub fn apply_miss_delta(&mut self, delta: &ProfileDelta) {
        assert!(delta.is_miss_only(), "CFG-bearing deltas need a ProfileAccumulator");
        self.misses.merge(&delta.added);
        self.misses.subtract(&delta.removed);
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
        self.misses.merge(&delta.added);
        self.misses.subtract(&delta.removed);
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

/// Profiles one window of a trace and returns its [`ProfileDelta`].
///
/// Memory is bounded by `warmup.len() + blocks.len()`, never the full
/// trace: warmup then window are replayed twice from a cold simulator,
/// observed and on an ideal I-cache, by the collector of the offline
/// [`profile`](crate::profile) pass (its whole-trace, no-warmup case), and
/// only the window's events are counted. `warmup`
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
    let (_, (exec, edges, misses)) = observe(program, &trace, sim_cfg, rate, skip, idx0);
    let (cycles_sum, _) = ideal_cycles(program, &trace, sim_cfg, skip);
    let mut edges: Vec<((u32, u32), u64)> = edges.iter().collect();
    edges.sort_unstable();
    ProfileDelta {
        added: misses,
        removed: MissProfile::new(),
        events: blocks.len() as u64,
        exec: nonzero(&exec),
        edges,
        cycles: nonzero(&cycles_sum),
    }
}

/// The nonzero entries of a per-block array, by ascending block.
fn nonzero(per_block: &[u64]) -> Vec<(BlockId, u64)> {
    per_block
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (BlockId(i as u32), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use ispy_trace::apps;

    fn line_digests(p: &Profile) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> =
            p.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn miss_only_delta_round_trips_through_a_profile() {
        let model = apps::cassandra().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 8_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let digest0 = line_digests(&prof);
        // Remove the lightest line whole and the first window of the
        // heaviest, then fold both back.
        let lines = prof.misses.lines_by_count();
        let (light, stats) = lines.last().expect("some misses");
        let mut part = MissProfile::new();
        part.insert_line(*light, (*stats).clone());
        let cut = window_delta(
            &program,
            &[],
            &trace.blocks()[..2_000],
            &SimConfig::default(),
            SampleRate::EXACT,
            0,
        );
        let (heavy, _) = lines[0];
        let heavy_part = cut.added.line(heavy).expect("the heaviest line misses early").clone();
        part.insert_line(heavy, heavy_part);
        let mut scratch = prof.clone();
        scratch.apply_miss_delta(&ProfileDelta { removed: part.clone(), ..Default::default() });
        assert!(scratch.misses.line(*light).is_none(), "the lightest line lost its last miss");
        assert!(scratch
            .misses
            .line(heavy)
            .is_some_and(|s| s.count < prof.misses.line(heavy).unwrap().count));
        assert_ne!(line_digests(&scratch), digest0);
        scratch.apply_miss_delta(&ProfileDelta { added: part, ..Default::default() });
        assert_eq!(
            line_digests(&scratch),
            digest0,
            "remove+add must be digest-identical to never-removed"
        );
        assert_eq!(scratch.misses.total_misses(), prof.misses.total_misses());
        assert_eq!(scratch.cfg.content_digest(), prof.cfg.content_digest());
        assert_eq!((scratch.trace_len, scratch.lbr_depth), (prof.trace_len, prof.lbr_depth));
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
        assert_eq!(a.cfg.content_digest(), b.cfg.content_digest());
        assert_eq!((a.trace_len, a.lbr_depth), (b.trace_len, b.lbr_depth));
        let mut da: Vec<(u64, u64)> =
            a.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
        let mut db: Vec<(u64, u64)> =
            b.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
    }
}
