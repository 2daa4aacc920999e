//! The profiling pass: replay under observation, splice LBR + PEBS views.

use crate::dyncfg::DynCfg;
use crate::miss::{LineMissStats, MissProfile};
use ispy_sim::{run, FxHashMap, RunOptions, SimConfig, SimObserver, SimResult};
use ispy_trace::{BlockId, Line, Program, Trace};

/// PEBS-style sampling rate: record every `n`-th miss.
///
/// # Examples
///
/// ```
/// use ispy_profile::SampleRate;
///
/// assert_eq!(SampleRate::EXACT.period(), 1);
/// assert_eq!(SampleRate::every(100).period(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleRate(u32);

impl SampleRate {
    /// Record every miss (exact profile).
    pub const EXACT: SampleRate = SampleRate(1);

    /// Record every `n`-th miss.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn every(n: u32) -> Self {
        assert!(n > 0, "sampling period must be positive");
        SampleRate(n)
    }

    /// The sampling period.
    pub fn period(&self) -> u32 {
        self.0
    }
}

impl Default for SampleRate {
    fn default() -> Self {
        SampleRate::EXACT
    }
}

/// The output of a profiling pass: the paper's miss-annotated dynamic CFG.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The weighted dynamic CFG with per-block cycle costs.
    pub cfg: DynCfg,
    /// Per-line miss statistics.
    pub misses: MissProfile,
    /// Length of the profiled trace in block events.
    pub trace_len: usize,
    /// LBR depth used for history snapshots.
    pub lbr_depth: usize,
    /// The results of the profiling pass's own two replays, so a
    /// comparison over the same trace need not replay them again. Set only
    /// by a fresh [`profile`] call under `SimConfig::default()`; `None` for
    /// a profile decoded from an artifact, merged from a fleet, or
    /// materialized from deltas.
    pub replays: Option<ProfileReplays>,
}

/// The [`SimResult`]s of the profiled trace on the baseline machine
/// (`SimConfig::default()`) and on its ideal-I-cache twin
/// (`SimConfig::ideal()`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileReplays {
    /// No prefetching.
    pub baseline: SimResult,
    /// Ideal I-cache (never misses).
    pub ideal: SimResult,
}

/// Block entries the collector's LBR stream buffers before it aggregates
/// the pending samples (1 MiB of block ids). The bound keeps the
/// profiler's memory flat however long the trace.
const BUFFER_ENTRIES: usize = 1 << 18;

/// Miss samples the collector buffers before it aggregates them.
const BUFFER_SAMPLES: usize = 1 << 16;

/// One buffered miss sample; its LBR window is the `depth` stream entries
/// before `end`.
struct Sample {
    line: u64,
    idx: u32,
    block: BlockId,
    end: u32,
}

/// Dynamic-edge counts in per-predecessor successor lists. A block has few
/// distinct successors, so a short scan replaces a hash per edge.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTally {
    succs: Vec<Vec<(u32, u64)>>,
}

impl EdgeTally {
    pub(crate) fn new(num_blocks: usize) -> Self {
        EdgeTally { succs: vec![Vec::new(); num_blocks] }
    }

    #[inline]
    pub(crate) fn add(&mut self, from: BlockId, to: BlockId, n: u64) {
        let succs = &mut self.succs[from.index()];
        match succs.iter_mut().find(|e| e.0 == to.0) {
            Some(e) => e.1 += n,
            None => succs.push((to.0, n)),
        }
    }

    /// Number of distinct edges.
    pub(crate) fn len(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// `((from, to), count)` for every edge, by ascending `from`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(from, succs)| succs.iter().map(move |&(to, n)| ((from as u32, to), n)))
    }
}

/// Dense per-block counters with a list of the blocks they touched, so one
/// line's samples aggregate without a map update per sample.
struct BlockTally {
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Per-block epoch of the last sample that counted the block.
    stamps: Vec<u32>,
    epoch: u32,
}

impl BlockTally {
    fn new(num_blocks: usize) -> Self {
        BlockTally {
            counts: vec![0; num_blocks],
            touched: Vec::new(),
            stamps: vec![0; num_blocks],
            epoch: 0,
        }
    }

    #[inline]
    fn bump(&mut self, block: BlockId) {
        let c = &mut self.counts[block.index()];
        if *c == 0 {
            self.touched.push(block.0);
        }
        *c += 1;
    }

    /// Counts each distinct block of one sample's `window` once: presence,
    /// not multiplicity (the Bloom filter tests presence only).
    fn bump_distinct(&mut self, window: &[BlockId]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        for &b in window {
            let stamp = &mut self.stamps[b.index()];
            if *stamp != self.epoch {
                *stamp = self.epoch;
                self.bump(b);
            }
        }
    }

    /// Adds the counts into `map` and resets them.
    fn drain_into(&mut self, map: &mut FxHashMap<BlockId, u64>) {
        // A line's first flush sizes its map once; reserving on later
        // flushes would over-allocate, as most blocks are already present.
        if map.is_empty() {
            map.reserve(self.touched.len());
        }
        for b in self.touched.drain(..) {
            let c = std::mem::take(&mut self.counts[b as usize]);
            *map.entry(BlockId(b)).or_insert(0) += u64::from(c);
        }
    }
}

/// The observer of the profiling replay: block counts, edges, and a
/// bounded buffer of miss samples aggregated one line at a time.
///
/// The buffer keeps the stream of blocks entered rather than a copy of
/// each sample's window: misses cluster, so consecutive windows overlap
/// and the stream is a fraction of their total length.
///
/// Blocks entered below replay index `skip` are warmup: they feed the LBR
/// stream and are the predecessor of the first counted edge, but add no
/// counts, edges or samples of their own. A sample at replay index `idx`
/// is recorded at trace position `idx0 + idx - skip`.
struct Collector {
    depth: usize,
    skip: usize,
    idx0: u64,
    sample_period: u32,
    sample_tick: u32,
    exec: Vec<u64>,
    edges: EdgeTally,
    prev: Option<BlockId>,
    /// Blocks entered, oldest first: at least the last `depth`, and every
    /// block a pending sample's window needs.
    stream: Vec<BlockId>,
    samples: Vec<Sample>,
    buffer_entries: usize,
    buffer_samples: usize,
    at: BlockTally,
    presence: BlockTally,
    lines: FxHashMap<u64, LineMissStats>,
}

impl Collector {
    fn new(num_blocks: usize, lbr_depth: usize, rate: SampleRate, skip: usize, idx0: u64) -> Self {
        assert!(BUFFER_ENTRIES > lbr_depth, "the buffer must hold an LBR window");
        Collector {
            depth: lbr_depth,
            skip,
            idx0,
            sample_period: rate.period(),
            sample_tick: 0,
            exec: vec![0; num_blocks],
            edges: EdgeTally::new(num_blocks),
            prev: None,
            stream: Vec::new(),
            samples: Vec::new(),
            buffer_entries: BUFFER_ENTRIES,
            buffer_samples: BUFFER_SAMPLES,
            at: BlockTally::new(num_blocks),
            presence: BlockTally::new(num_blocks),
            lines: FxHashMap::default(),
        }
    }

    /// Aggregates the buffered samples and empties the buffer, keeping the
    /// stream's last `depth` blocks for the samples to come. Samples are
    /// sorted by (line, arrival), and each line's group is folded with one
    /// map update per distinct block.
    fn flush(&mut self) {
        self.samples.sort_unstable_by_key(|s| (s.line, s.idx));
        for group in self.samples.chunk_by(|a, b| a.line == b.line) {
            let stats = self.lines.entry(group[0].line).or_default();
            stats.count += group.len() as u64;
            stats.positions.reserve(group.len());
            for s in group {
                let end = s.end as usize;
                self.at.bump(s.block);
                self.presence.bump_distinct(&self.stream[end.saturating_sub(self.depth)..end]);
                // Arrival order is trace order, so positions stay ascending.
                stats.positions.push(s.idx);
            }
            self.at.drain_into(&mut stats.at_blocks);
            self.presence.drain_into(&mut stats.history_presence);
        }
        self.samples.clear();
        let stale = self.stream.len().saturating_sub(self.depth);
        self.stream.drain(..stale);
    }

    /// Flushes what is buffered and returns the block counts, edges and
    /// miss profile.
    fn finish(mut self) -> (Vec<u64>, EdgeTally, MissProfile) {
        self.flush();
        let mut misses = MissProfile::new();
        for (line, stats) in self.lines {
            misses.insert_line(Line::new(line), stats);
        }
        (self.exec, self.edges, misses)
    }
}

impl SimObserver for Collector {
    fn block_entered(&mut self, idx: usize, block: BlockId, _cycle: u64) {
        if idx >= self.skip {
            self.exec[block.index()] += 1;
            if let Some(prev) = self.prev {
                self.edges.add(prev, block, 1);
            }
        }
        self.prev = Some(block);
        // With no sample pending only the last `depth` blocks are needed,
        // and a flush just trims the stream to them.
        if self.stream.len() == self.buffer_entries
            || (self.samples.is_empty() && self.stream.len() >= 2 * self.depth.max(1))
        {
            self.flush();
        }
        self.stream.push(block);
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
        if self.samples.len() == self.buffer_samples {
            self.flush();
        }
        let end = self.stream.len() as u32;
        let idx = (self.idx0 + (idx - self.skip) as u64) as u32;
        self.samples.push(Sample { line: line.raw(), idx, block, end });
    }
}

/// Replays `trace` on `sim_cfg` under the [`Collector`] and returns the
/// replay's result with the block counts, edges and miss profile of the
/// events from replay index `skip` on, their positions offset by `idx0`.
pub(crate) fn observe(
    program: &Program,
    trace: &Trace,
    sim_cfg: &SimConfig,
    rate: SampleRate,
    skip: usize,
    idx0: u64,
) -> (SimResult, (Vec<u64>, EdgeTally, MissProfile)) {
    let mut collector = Collector::new(program.num_blocks(), sim_cfg.lbr_depth, rate, skip, idx0);
    let result = run(
        program,
        trace,
        sim_cfg,
        RunOptions { observer: Some(&mut collector), ..Default::default() },
    );
    (result, collector.finish())
}

/// Cycle-splice observer for the ideal-I-cache replay: sums the cycles
/// between consecutive block entries, like LBR cycle counts, charging each
/// to the earlier block. Blocks entered below replay index `skip` (warmup)
/// are not charged.
struct CycleCollector {
    cycles_sum: Vec<u64>,
    skip: usize,
    prev: Option<(BlockId, u64, usize)>,
}

impl SimObserver for CycleCollector {
    fn block_entered(&mut self, idx: usize, block: BlockId, cycle: u64) {
        if let Some((prev, prev_cycle, prev_idx)) = self.prev {
            if prev_idx >= self.skip {
                self.cycles_sum[prev.index()] += cycle - prev_cycle;
            }
        }
        self.prev = Some((block, cycle, idx));
    }
}

/// Replays `trace` on the ideal-I-cache twin of `sim_cfg` and returns the
/// per-block cycle sums of the events from replay index `skip` on, with
/// the replay's result.
///
/// Prefetch distances must be measured in the cycles the program takes
/// once its instruction misses are covered — the front-end stalls the
/// prefetches will remove must not count toward the distance, or every
/// window estimate is inflated by exactly the stalls being eliminated
/// (sites end up too close and prefetches arrive late). This mirrors the
/// paper's use of LBR cycle counts from production machines, where the
/// profiled binary already runs with prefetching largely effective.
pub(crate) fn ideal_cycles(
    program: &Program,
    trace: &Trace,
    sim_cfg: &SimConfig,
    skip: usize,
) -> (Vec<u64>, SimResult) {
    let mut cycles = CycleCollector { cycles_sum: vec![0; program.num_blocks()], skip, prev: None };
    let ideal_cfg = SimConfig { ideal_icache: true, ..sim_cfg.clone() };
    let result = run(
        program,
        trace,
        &ideal_cfg,
        RunOptions { observer: Some(&mut cycles), ..Default::default() },
    );
    // Close the last block's cycle interval with the final cycle count.
    if let Some((last, entered, last_idx)) = cycles.prev {
        if last_idx >= skip {
            cycles.cycles_sum[last.index()] += result.cycles.saturating_sub(entered);
        }
    }
    (cycles.cycles_sum, result)
}

/// Per-block average cycles per execution from raw sums.
pub(crate) fn avg_cycles(exec: &[u64], cycles_sum: &[u64]) -> Vec<f64> {
    exec.iter()
        .zip(cycles_sum)
        .map(|(&n, &sum)| if n == 0 { 0.0 } else { sum as f64 / n as f64 })
        .collect()
}

/// Runs the profiling replay and assembles the [`Profile`].
///
/// The replay uses the *baseline* machine (no injections, no prefetcher):
/// profiles are collected on the unmodified binary, exactly as in the
/// paper's usage model. A second replay under an ideal I-cache measures
/// the per-block cycle costs (see the `profile.ideal_replay` span).
///
/// # Examples
///
/// ```
/// use ispy_profile::{profile, SampleRate};
/// use ispy_sim::SimConfig;
/// use ispy_trace::apps;
///
/// let model = apps::verilator().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 10_000);
/// let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
/// assert_eq!(prof.trace_len, 10_000);
/// assert!(prof.replays.is_some());
/// ```
pub fn profile(program: &Program, trace: &Trace, sim_cfg: &SimConfig, rate: SampleRate) -> Profile {
    let tele = ispy_telemetry::global();
    let _profile_span = tele.span("profile.collect");
    let (baseline, (exec, edges, misses)) = {
        let _span = tele.span("profile.observe_replay");
        observe(program, trace, sim_cfg, rate, 0, 0)
    };
    let (cycles_sum, ideal) = {
        let _span = tele.span("profile.ideal_replay");
        ideal_cycles(program, trace, sim_cfg, 0)
    };

    // Miss-attribution and CFG-size accounting for the observability layer.
    tele.add("profile.runs", 1);
    tele.add("profile.misses_recorded", misses.total_misses());
    tele.add("profile.lines_missing", misses.num_lines() as u64);
    tele.add("profile.cfg_edges", edges.len() as u64);

    let _cfg_span = tele.span("profile.cfg_build");
    let avg = avg_cycles(&exec, &cycles_sum);
    Profile {
        cfg: DynCfg::new(exec, avg, edges.iter()),
        misses,
        trace_len: trace.len(),
        lbr_depth: sim_cfg.lbr_depth,
        replays: (*sim_cfg == SimConfig::default()).then_some(ProfileReplays { baseline, ideal }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::apps;

    fn prof() -> (Program, Trace, Profile) {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        let p = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        (program, trace, p)
    }

    #[test]
    fn exec_counts_match_trace() {
        let (program, trace, p) = prof();
        let counts = trace.exec_counts(program.num_blocks());
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(p.cfg.exec_count(BlockId(i as u32)), c);
        }
    }

    #[test]
    fn edges_sum_to_events_minus_one() {
        let (_, trace, p) = prof();
        let edge_total: u64 = (0..p.cfg.num_blocks())
            .map(|i| p.cfg.succs(BlockId(i as u32)).iter().map(|&(_, w)| w).sum::<u64>())
            .sum();
        assert_eq!(edge_total, trace.len() as u64 - 1);
    }

    #[test]
    fn misses_match_simulator() {
        let (program, trace, p) = prof();
        let r = run(&program, &trace, &SimConfig::default(), RunOptions::default());
        assert_eq!(p.misses.total_misses(), r.i_misses);
    }

    #[test]
    fn sampling_reduces_recorded_misses() {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let exact = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let sampled = profile(&program, &trace, &SimConfig::default(), SampleRate::every(10));
        assert!(sampled.misses.total_misses() <= exact.misses.total_misses() / 9);
        assert!(sampled.misses.total_misses() > 0);
    }

    #[test]
    fn avg_cycles_are_positive_for_live_blocks() {
        let (_, _, p) = prof();
        let mut live = 0;
        for b in p.cfg.live_blocks() {
            live += 1;
            assert!(p.cfg.avg_cycles(b) >= 0.0, "avg cycles must be non-negative for {b}");
        }
        assert!(live > 100);
        // At least some blocks have a measurable cost.
        let any_positive = p.cfg.live_blocks().any(|b| p.cfg.avg_cycles(b) > 0.5);
        assert!(any_positive);
    }

    /// The reference collector: every sample's window copied and recorded
    /// one map update per block. Misses below replay index `skip` are
    /// warmup; the rest sit at trace position `idx0 + idx - skip`.
    struct Reference {
        depth: usize,
        period: u32,
        tick: u32,
        skip: usize,
        idx0: u64,
        window: std::collections::VecDeque<BlockId>,
        lines: FxHashMap<u64, LineMissStats>,
    }

    impl Reference {
        /// Records one sampled miss of `line` at `block`, trace position
        /// `idx`, with the LBR-depth history window `history`.
        fn record(&mut self, line: Line, block: BlockId, idx: u32, history: &[BlockId]) {
            let stats = self.lines.entry(line.raw()).or_default();
            stats.count += 1;
            *stats.at_blocks.entry(block).or_insert(0) += 1;
            // Presence, not multiplicity: each distinct block once.
            for (i, h) in history.iter().enumerate() {
                if !history[..i].contains(h) {
                    *stats.history_presence.entry(*h).or_insert(0) += 1;
                }
            }
            stats.positions.push(idx);
        }

        fn misses(self) -> MissProfile {
            let mut misses = MissProfile::new();
            for (line, stats) in self.lines {
                misses.insert_line(Line::new(line), stats);
            }
            misses
        }
    }

    impl SimObserver for Reference {
        fn block_entered(&mut self, _idx: usize, block: BlockId, _cycle: u64) {
            self.window.push_back(block);
            if self.window.len() > self.depth {
                self.window.pop_front();
            }
        }

        fn icache_miss(&mut self, idx: usize, block: BlockId, line: Line, _cycle: u64) {
            if idx < self.skip {
                return;
            }
            self.tick += 1;
            if self.tick < self.period {
                return;
            }
            self.tick = 0;
            let history: Vec<BlockId> = self.window.iter().copied().collect();
            let pos = (self.idx0 + (idx - self.skip) as u64) as u32;
            self.record(line, block, pos, &history);
        }
    }

    #[test]
    fn batched_aggregation_matches_per_sample_record() {
        let model = apps::kafka().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let cfg = SimConfig::default();
        let n = program.num_blocks();
        // (period, buffer entries, buffer samples, skip, idx0): tiny
        // buffers flush hundreds of times, mid-window and mid-line; a skip
        // leaves warmup misses out and shifts the positions.
        for (rate, entries, samples, skip, idx0) in [
            (1, BUFFER_ENTRIES, BUFFER_SAMPLES, 0, 0),
            (1, 100, 7, 0, 0),
            (3, 65, 1, 0, 0),
            (5, 1_000, 64, 0, 0),
            (1, 100, 7, 6_000, 90_000),
            (2, BUFFER_ENTRIES, BUFFER_SAMPLES, 13_331, 7),
        ] {
            let rate = SampleRate::every(rate);
            let mut reference = Reference {
                depth: cfg.lbr_depth,
                period: rate.period(),
                tick: 0,
                skip,
                idx0,
                window: Default::default(),
                lines: FxHashMap::default(),
            };
            run(
                &program,
                &trace,
                &cfg,
                RunOptions { observer: Some(&mut reference), ..Default::default() },
            );
            let mut batched = Collector::new(n, cfg.lbr_depth, rate, skip, idx0);
            assert!(entries > cfg.lbr_depth, "the buffer must hold an LBR window");
            (batched.buffer_entries, batched.buffer_samples) = (entries, samples);
            run(
                &program,
                &trace,
                &cfg,
                RunOptions { observer: Some(&mut batched), ..Default::default() },
            );
            let (_, _, got) = batched.finish();
            let want = reference.misses();
            assert!(want.total_misses() > 100);
            assert_eq!(got.total_misses(), want.total_misses());
            assert_eq!(got.num_lines(), want.num_lines());
            for (line, w) in want.iter() {
                let g = got.line(line).expect("line missing from the batched profile");
                assert_eq!(g.count, w.count, "count of {line}");
                assert_eq!(g.at_blocks, w.at_blocks, "at_blocks of {line}");
                assert_eq!(g.history_presence, w.history_presence, "presence of {line}");
                assert_eq!(g.positions, w.positions, "positions of {line}");
                assert_eq!(got.line_digest(line), want.line_digest(line));
            }
        }
    }

    #[test]
    fn warmup_adds_no_counts_or_edges() {
        let (program, trace, _) = prof();
        let skip = 7_000;
        let (_, (exec, edges, _)) =
            observe(&program, &trace, &SimConfig::default(), SampleRate::EXACT, skip, 0);
        let mut want_exec = vec![0u64; exec.len()];
        for b in &trace.blocks()[skip..] {
            want_exec[b.index()] += 1;
        }
        assert_eq!(exec, want_exec);
        // Every counted event has its edge in, the first one from warmup.
        let mut counts: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for pair in trace.blocks()[skip - 1..].windows(2) {
            *counts.entry((pair[0].0, pair[1].0)).or_insert(0) += 1;
        }
        let mut want_edges: Vec<((u32, u32), u64)> = counts.into_iter().collect();
        let mut got_edges: Vec<((u32, u32), u64)> = edges.iter().collect();
        want_edges.sort_unstable();
        got_edges.sort_unstable();
        assert_eq!(got_edges, want_edges);
    }

    #[test]
    fn history_windows_are_bounded_by_lbr_depth() {
        let (_, _, p) = prof();
        for (_, stats) in p.misses.iter() {
            // Presence counts cannot exceed the sample count.
            for &c in stats.history_presence.values() {
                assert!(c <= stats.count);
            }
        }
    }
}
