//! Scenario compilation: from a declarative [`Scenario`] to the concrete
//! artifacts the simulator consumes.
//!
//! Compiling materializes three things, all deterministic functions of
//! `(scenario, events)`:
//!
//! 1. **A merged [`Program`]** containing every tenant's code at disjoint,
//!    line-aligned address ranges (so tenants genuinely contend for L1I/L2
//!    sets instead of aliasing), with block/function ids rebased and request
//!    paths concatenated. The simulator, profiler, and planners all operate
//!    on this single program.
//! 2. **A [`SwitchSchedule`]** of tenant switches and phase boundaries over
//!    trace-event indices, produced by a weighted round-robin scheduler
//!    whose slice lengths are modulated by the arrival process.
//! 3. **Per-phase per-tenant request-mix tables**, the weights each
//!    tenant's walker swaps in when the stream crosses a phase boundary.

use crate::model::{temper, Arrival, Scenario};
use crate::source::ScenarioSource;
use ispy_sim::SwitchSchedule;
use ispy_trace::program::{BlockExit, FuncId, Function};
use ispy_trace::{Addr, BasicBlock, BlockId, Program, LINE_BYTES};

/// Tenant address ranges start on a 64-line (4 KiB) boundary, page-like
/// separation that keeps every tenant's code line-disjoint.
const TENANT_ALIGN: u64 = 64 * LINE_BYTES;

/// A compiled scenario: the merged program, the materialized schedule, and
/// everything needed to stream or attribute the trace.
///
/// # Examples
///
/// ```
/// use ispy_scenario::Scenario;
/// use ispy_trace::BlockId;
///
/// let c = Scenario::preset("steady").unwrap().scaled_down(20).compile(10_000);
/// // Every block of the merged program belongs to exactly one tenant.
/// let t = c.tenant_of_block(BlockId(0));
/// assert_eq!(t, 0);
/// assert!(c.schedule().switches().len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    spec: Scenario,
    events: u64,
    program: Program,
    tenant_programs: Vec<Program>,
    /// `(first_block, num_blocks)` of each tenant in the merged program.
    tenant_blocks: Vec<(u32, u32)>,
    schedule: SwitchSchedule,
    /// `phase_weights[p][t]` = tenant `t`'s request-mix weights in phase `p`.
    phase_weights: Vec<Vec<Vec<f64>>>,
}

impl Scenario {
    /// Compiles the scenario for a trace of exactly `events` block events.
    ///
    /// Arrival processes declared with `period == 0` default to an eighth
    /// of the trace, so presets shape themselves to any run length.
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::validate`] fails or `events` is zero.
    pub fn compile(&self, events: u64) -> CompiledScenario {
        if let Err(e) = self.validate() {
            panic!("invalid scenario '{}': {e}", self.name);
        }
        assert!(events > 0, "scenario needs a positive event count");

        let tenant_programs: Vec<Program> =
            self.tenants.iter().map(|t| t.model.generate()).collect();
        let (program, tenant_blocks) = merge_programs(&self.name, &tenant_programs);
        let phases = materialize_phases(self, events);
        let switches = materialize_switches(self, events);
        let schedule = SwitchSchedule::new(switches, phases, self.effect);
        let phase_weights = phase_weight_tables(self);

        CompiledScenario {
            spec: self.clone(),
            events,
            program,
            tenant_programs,
            tenant_blocks,
            schedule,
            phase_weights,
        }
    }
}

impl CompiledScenario {
    /// The declarative scenario this was compiled from.
    pub fn spec(&self) -> &Scenario {
        &self.spec
    }

    /// Total trace events the compiled scenario produces.
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// Number of co-located tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenant_programs.len()
    }

    /// Number of phases in the schedule.
    pub fn num_phases(&self) -> usize {
        self.spec.phases.len()
    }

    /// The merged program every simulator run replays.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The individual tenant programs (block/function ids unrebased).
    pub fn tenant_programs(&self) -> &[Program] {
        &self.tenant_programs
    }

    /// The materialized tenant-switch/phase schedule.
    pub fn schedule(&self) -> &SwitchSchedule {
        &self.schedule
    }

    /// Tenant `t`'s request-mix weights during phase `p`.
    pub fn phase_weights(&self, p: usize, t: usize) -> &[f64] {
        &self.phase_weights[p][t]
    }

    /// The tenant owning `block` in the merged program.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range for the merged program.
    pub fn tenant_of_block(&self, block: BlockId) -> u32 {
        let b = block.0;
        let k = self
            .tenant_blocks
            .partition_point(|&(first, _)| first <= b)
            .checked_sub(1)
            .expect("block below first tenant range");
        let (first, n) = self.tenant_blocks[k];
        assert!(b < first + n, "block {b} beyond the merged program");
        k as u32
    }

    /// The tenant scheduled at trace event `e`.
    #[cfg(test)]
    pub fn tenant_of_event(&self, e: u64) -> u32 {
        self.schedule.tenant_at(e)
    }

    /// A fresh streaming source over the whole scenario, positioned at
    /// event 0.
    pub fn source(&self) -> ScenarioSource<'_> {
        ScenarioSource::new(self)
    }

    /// `(first_block, num_blocks)` of each tenant in the merged program.
    pub(crate) fn tenant_block_ranges(&self) -> &[(u32, u32)] {
        &self.tenant_blocks
    }
}

/// Concatenates the tenant programs into one address-disjoint program.
fn merge_programs(name: &str, tenants: &[Program]) -> (Program, Vec<(u32, u32)>) {
    let mut blocks = Vec::new();
    let mut exits = Vec::new();
    let mut funcs = Vec::new();
    let mut owner = Vec::new();
    let mut request_paths = Vec::new();
    let mut ranges = Vec::with_capacity(tenants.len());
    let mut cursor = 0u64;
    let mut data_lines = 0u64;

    for p in tenants {
        let block_off = blocks.len() as u32;
        let func_off = funcs.len() as u32;
        let lo = p.text_base().raw();
        ranges.push((block_off, p.num_blocks() as u32));

        for b in p.blocks() {
            blocks.push(BasicBlock::new(
                Addr::new(b.start().raw() - lo + cursor),
                b.bytes(),
                b.instrs(),
                b.data_accesses(),
            ));
        }
        for i in 0..p.num_blocks() {
            let id = BlockId(i as u32);
            exits.push(match p.exit(id) {
                BlockExit::Branch(targets) => BlockExit::Branch(
                    targets.iter().map(|&(t, w)| (BlockId(t.0 + block_off), w)).collect(),
                ),
                BlockExit::Call { callee, ret } => BlockExit::Call {
                    callee: FuncId(callee.0 + func_off),
                    ret: BlockId(ret.0 + block_off),
                },
                BlockExit::Return => BlockExit::Return,
            });
            owner.push(FuncId(p.owner_of(id).0 + func_off));
        }
        for fi in 0..p.num_funcs() {
            let f = p.func(FuncId(fi as u32));
            funcs.push(Function::new(
                BlockId(f.entry().0 + block_off),
                f.block_range().start + block_off,
                f.block_range().len() as u32,
            ));
        }
        for path in p.request_paths() {
            request_paths.push(path.iter().map(|f| FuncId(f.0 + func_off)).collect());
        }
        data_lines += p.data_footprint_lines();
        cursor = (cursor + p.text_bytes()).next_multiple_of(TENANT_ALIGN);
    }

    let mut merged = Program::new(name, blocks, exits, funcs, owner, request_paths);
    merged.set_data_footprint_lines(data_lines.next_power_of_two());
    (merged, ranges)
}

/// Phase boundaries as `(start_event, phase_index)` entries for phases 1…,
/// cumulative over the declared lengths and clamped to the trace. Every
/// open-ended phase (`events == 0`) takes an even share of whatever the
/// declared lengths leave over, so presets shape themselves to any run
/// length; if the declared lengths exceed the trace, trailing phases simply
/// never start.
fn materialize_phases(sc: &Scenario, events: u64) -> Vec<(u64, u32)> {
    let declared: u64 = sc.phases.iter().map(|p| p.events).sum();
    let open = sc.phases.iter().filter(|q| q.events == 0).count() as u64;
    let open_share = events.saturating_sub(declared) / open.max(1);
    let mut out = Vec::new();
    let mut at = 0u64;
    for (i, p) in sc.phases.iter().enumerate() {
        let len = if p.events == 0 { open_share } else { p.events };
        if i > 0 && at < events {
            out.push((at, i as u32));
        }
        at = at.saturating_add(len);
    }
    out
}

/// Materializes the weighted round-robin tenant schedule as strictly
/// increasing `(event, tenant)` switch entries.
fn materialize_switches(sc: &Scenario, events: u64) -> Vec<(u64, u32)> {
    let n = sc.tenants.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut e = 0u64;
    let mut turn = 0usize;
    let mut prev = 0u32; // schedule-less replay starts as tenant 0
    while e < events {
        let t = turn % n;
        let q = slice_len(sc, t, e, events);
        if t as u32 != prev && e > 0 {
            out.push((e, t as u32));
        }
        // The very first slice must also be announced if it isn't tenant 0.
        if e == 0 && t != 0 {
            out.push((0, t as u32));
        }
        prev = t as u32;
        e += q;
        turn += 1;
    }
    out
}

/// Slice length for tenant `t` starting at event `e`: the base quantum
/// scaled by the tenant's weight and the arrival process's load factor.
fn slice_len(sc: &Scenario, t: usize, e: u64, events: u64) -> u64 {
    let base = sc.quantum * sc.tenants[t].weight as u64;
    let scaled = match sc.arrival {
        Arrival::Steady => base,
        Arrival::Diurnal { period } => {
            let period = if period == 0 { (events / 8).max(1) } else { period };
            let n = sc.tenants.len() as f64;
            let x = e as f64 / period as f64 + t as f64 / n;
            let factor = 1.0 + 0.75 * (std::f64::consts::TAU * x).sin();
            (base as f64 * factor) as u64
        }
        Arrival::Burst { period, duty_pct, boost } => {
            let period = if period == 0 { (events / 8).max(1) } else { period };
            let active = e % period < period * duty_pct as u64 / 100;
            if t == 0 && active {
                base * boost as u64
            } else {
                base
            }
        }
    };
    scaled.max(1)
}

/// Per-phase per-tenant request-mix tables: the tenant's default mix,
/// rotated by the phase's `mix_rotation` and tempered by its `wss_scale`.
fn phase_weight_tables(sc: &Scenario) -> Vec<Vec<Vec<f64>>> {
    sc.phases
        .iter()
        .map(|ph| {
            sc.tenants
                .iter()
                .map(|t| {
                    let mut w = t.model.default_input().weights().to_vec();
                    let n = w.len();
                    w.rotate_right(ph.mix_rotation % n.max(1));
                    temper(&w, ph.wss_scale)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> CompiledScenario {
        Scenario::preset(name).unwrap().scaled_down(20).compile(40_000)
    }

    #[test]
    fn merged_program_is_valid_and_disjoint() {
        let c = small("burst");
        c.program().validate().expect("merged program must validate");
        assert_eq!(
            c.program().num_blocks(),
            c.tenant_programs().iter().map(|p| p.num_blocks()).sum::<usize>()
        );
        // Tenant code ranges must be line-disjoint: walk every block of
        // every tenant and check its lines belong to no other tenant.
        let mut owner_of_line = std::collections::HashMap::new();
        for (i, b) in c.program().blocks().iter().enumerate() {
            let t = c.tenant_of_block(BlockId(i as u32));
            for line in b.lines() {
                let prev = owner_of_line.insert(line.raw(), t);
                assert!(prev.is_none_or(|p| p == t), "line shared across tenants");
            }
        }
    }

    #[test]
    fn tenant_of_block_covers_every_range() {
        let c = small("diurnal");
        let mut expect = 0u32;
        let ranges = c.tenant_block_ranges().to_vec();
        for (k, (first, n)) in ranges.iter().enumerate() {
            assert_eq!(*first, expect, "ranges must be contiguous");
            assert_eq!(c.tenant_of_block(BlockId(*first)), k as u32);
            assert_eq!(c.tenant_of_block(BlockId(first + n - 1)), k as u32);
            expect += n;
        }
    }

    #[test]
    fn schedule_is_strictly_increasing_and_compile_is_deterministic() {
        let a = small("storm");
        let b = small("storm");
        assert_eq!(a.schedule(), b.schedule());
        let sw = a.schedule().switches();
        assert!(!sw.is_empty(), "multi-tenant scenarios must switch");
        for w in sw.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(sw.last().unwrap().0 < a.total_events());
        // Consecutive switch entries never repeat a tenant (else no switch).
        for w in sw.windows(2) {
            assert_ne!(w[0].1, w[1].1);
        }
    }

    #[test]
    fn burst_tenant_hogs_during_duty_window() {
        let mut sc = Scenario::preset("steady").unwrap().scaled_down(20);
        sc.arrival = Arrival::Burst { period: 10_000, duty_pct: 50, boost: 8 };
        sc.quantum = 256; // fine-grained slices so the duty windows resolve
        let c = sc.compile(40_000);
        // Tenant 0's share of events inside duty windows must exceed its
        // share outside them.
        let share = |range: std::ops::Range<u64>| {
            let hits = range.clone().step_by(97).filter(|&e| c.tenant_of_event(e) == 0).count();
            hits as f64 / range.step_by(97).count() as f64
        };
        let inside = share(0..5_000) + share(10_000..15_000);
        let outside = share(5_000..10_000) + share(15_000..20_000);
        assert!(inside > outside, "burst must skew the schedule: {inside} vs {outside}");
    }

    #[test]
    fn phases_split_the_trace_in_declared_order() {
        let c = small("storm"); // four open-ended phases -> even split
        let ph = c.schedule().phases();
        assert_eq!(ph.len(), 3);
        assert_eq!(ph[0].0, c.total_events() / 4);
    }

    #[test]
    fn phase_weights_are_normalized_mixes() {
        let c = small("burst");
        for p in 0..c.num_phases() {
            for t in 0..c.num_tenants() {
                let w = c.phase_weights(p, t);
                assert_eq!(w.len(), c.tenant_programs()[t].request_paths().len());
                assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
        // The compaction phase (rotation 2, wss 2.0) differs from steady.
        assert_ne!(c.phase_weights(1, 0), c.phase_weights(2, 0));
    }
}
