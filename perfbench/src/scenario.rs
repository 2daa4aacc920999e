//! `scenario`: plans meeting unseen inputs under co-location. Set-up
//! compiles the `burst` (thrash switches) and `storm` (flush switches)
//! presets at their training seed, profiles and plans them under their
//! switch schedules (the training half of `run_scenario`), and compiles
//! held-out walker seeds of both. Each op streams one held-out seed through
//! the four arms with `run_streaming`, pairing every request against the
//! ideal arm for its front-end stall.

use crate::op::{
    check_blocks, check_equal, check_ideal, check_ledger, replay, OpOutput, Rng, Workload,
};
use crate::spans::Spans;
use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::{IspyConfig, Planner};
use ispy_isa::CompiledInjections;
use ispy_profile::{profile, SampleRate};
use ispy_scenario::{CompiledScenario, Scenario};
use ispy_sim::{run_streaming, OutcomeLedger, RunOptions, SimConfig, SimObserver, SimResult};
use ispy_trace::{BlockId, BlockSource, Trace};
use std::sync::Arc;

/// Presets replayed: bursty arrivals with thrash switches, and a storm with
/// a full flush on every switch.
const PRESETS: [&str; 2] = ["burst", "storm"];
/// App footprint divisor (the harness's quick sizing).
const SHRINK: u32 = 4;
/// Trace events per compiled scenario.
const EVENTS: u64 = 100_000;
/// Held-out walker seeds per preset.
const HELD_OUT: usize = 2;

/// Cycle stamps at every request-entry block of one replay.
struct Marks<'a> {
    is_boundary: &'a [bool],
    cycles: Vec<u64>,
}

impl SimObserver for Marks<'_> {
    fn block_entered(&mut self, _idx: usize, block: BlockId, cycle: u64) {
        if self.is_boundary[block.0 as usize] {
            self.cycles.push(cycle);
        }
    }
}

/// One compiled scenario with the switch-aware configs that replay it.
struct Compiled {
    sc: CompiledScenario,
    cfg: SimConfig,
    ideal_cfg: SimConfig,
}

impl Compiled {
    fn new(spec: &Scenario, spans: &Spans) -> Self {
        let sc = spans.span("scenario.compile", || spec.compile(EVENTS));
        spans.count("scenario.switches", sc.schedule().switches().len() as u64);
        let schedule = Some(Arc::new(sc.schedule().clone()));
        let cfg = SimConfig { schedule: schedule.clone(), ..SimConfig::default() };
        let ideal_cfg = SimConfig { schedule, ..SimConfig::ideal() };
        Compiled { sc, cfg, ideal_cfg }
    }
}

/// One preset: its training compile, plans, and held-out compiles.
struct Preset {
    spec: Scenario,
    train: Compiled,
    asmdb: CompiledInjections,
    ispy: CompiledInjections,
    ispy_records: usize,
    held_out: Vec<Compiled>,
    is_boundary: Vec<bool>,
}

pub struct ScenarioBench {
    presets: Vec<Preset>,
    /// `(preset, held-out index)` per op of the round.
    ops: Vec<(usize, usize)>,
    /// Preset whose training seed the final check replays.
    fidelity: usize,
}

/// The four streamed arms over `c`, in arm order, plus the I-SPY ledger and
/// every arm's request-boundary cycles.
fn four_arms(
    p: &Preset,
    c: &Compiled,
    spans: &Spans,
) -> ([crate::op::Arm; 4], OutcomeLedger, Vec<Vec<u64>>) {
    let program = c.sc.program();
    let mut marks: Vec<Vec<u64>> = Vec::new();
    let mut ledger = OutcomeLedger::with_capacity(p.ispy_records);
    let mut stream = |cfg: &SimConfig,
                      compiled: Option<&CompiledInjections>,
                      ledger: Option<&mut OutcomeLedger>| {
        let mut obs = Marks { is_boundary: &p.is_boundary, cycles: Vec::new() };
        let opts = RunOptions {
            compiled,
            observer: Some(&mut obs),
            outcomes: ledger,
            ..Default::default()
        };
        let r = run_streaming(program, &mut c.sc.source(), cfg, opts)
            .expect("scenario sources cannot fail");
        marks.push(obs.cycles);
        r
    };
    let base = replay(spans, "baseline", || stream(&c.cfg, None, None));
    let ideal = replay(spans, "ideal", || stream(&c.ideal_cfg, None, None));
    let asmdb = replay(spans, "asmdb", || stream(&c.cfg, Some(&p.asmdb), None));
    let ispy = replay(spans, "ispy", || stream(&c.cfg, Some(&p.ispy), Some(&mut ledger)));
    ([base, ideal, asmdb, ispy], ledger, marks)
}

impl Workload for ScenarioBench {
    fn setup(seed: u64, spans: &Spans) -> Self {
        let mut rng = Rng::new(seed, 3);
        let presets: Vec<Preset> = PRESETS
            .iter()
            .map(|name| {
                let spec = Scenario::preset(name).expect("builtin preset").scaled_down(SHRINK);
                let train = Compiled::new(&spec, spans);
                let program = train.sc.program();
                let trace = spans.span("scenario.materialize", || {
                    let mut src = train.sc.source();
                    let mut blocks = Vec::with_capacity(EVENTS as usize);
                    while let Some(chunk) = src.next_chunk().expect("scenario sources cannot fail")
                    {
                        blocks.extend_from_slice(chunk);
                    }
                    Trace::new(format!("{}-train", spec.name), blocks)
                });
                spans.count("trace.blocks", trace.len() as u64);
                let prof = spans.span("profile.collect", || {
                    profile(program, &trace, &train.cfg, SampleRate::EXACT)
                });
                let asmdb_plan = spans.span("asmdb.plan", || {
                    AsmDbPlanner::new(program, &prof, AsmDbConfig::default()).plan()
                });
                let ispy_plan = spans.span("core.plan", || {
                    Planner::new(program, &trace, &prof, IspyConfig::default()).plan()
                });
                let asmdb = spans
                    .span("isa.compile", || asmdb_plan.injections.compile(program.num_blocks()));
                let ispy = spans
                    .span("isa.compile", || ispy_plan.injections.compile(program.num_blocks()));
                spans.count("isa.ops_lowered", (asmdb.num_ops() + ispy.num_ops()) as u64);
                let held_out = (0..HELD_OUT)
                    .map(|_| Compiled::new(&spec.clone().with_seed(rng.next()), spans))
                    .collect();
                let mut is_boundary = vec![false; program.num_blocks()];
                for path in program.request_paths() {
                    if let Some(&f) = path.first() {
                        is_boundary[program.func(f).entry().0 as usize] = true;
                    }
                }
                Preset {
                    spec,
                    train,
                    asmdb,
                    ispy,
                    ispy_records: ispy_plan.provenance.len(),
                    held_out,
                    is_boundary,
                }
            })
            .collect();
        let mut ops: Vec<(usize, usize)> =
            (0..PRESETS.len()).flat_map(|p| (0..HELD_OUT).map(move |h| (p, h))).collect();
        rng.shuffle(&mut ops);
        let fidelity = rng.below(PRESETS.len());
        ScenarioBench { presets, ops, fidelity }
    }

    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, i: usize, spans: &Spans) -> Result<OpOutput, String> {
        let (p, h) = self.ops[i];
        let preset = &self.presets[p];
        let c = &preset.held_out[h];
        if c.sc.program().blocks() != preset.train.sc.program().blocks() {
            return Err("held-out seed changed the merged program".into());
        }
        let (arms, ledger, marks) = four_arms(preset, c, spans);
        for arm in &arms {
            check_blocks(arm.name, &arm.result, EVENTS)?;
        }
        check_ideal(&arms[1].result)?;
        check_ledger(&arms[3].result, &ledger)?;
        if marks.iter().any(|m| m.len() != marks[1].len()) {
            return Err("request boundaries differ between arms".into());
        }
        // Same trace, same boundaries: a request's latency above its ideal
        // latency is its front-end stall.
        let stalls = marks[3]
            .windows(2)
            .zip(marks[1].windows(2))
            .map(|(r, ideal)| (r[1] - r[0]).saturating_sub(ideal[1] - ideal[0]))
            .collect();
        Ok(OpOutput {
            base: arms[0].result,
            ideal: arms[1].result,
            ispy: arms[3].result,
            arms: arms.to_vec(),
            stalls,
            ..Default::default()
        })
    }

    fn final_checks(&self, _first_round: &[OpOutput]) -> Result<(), String> {
        let p = &self.presets[self.fidelity];
        let (arms, _, _) = four_arms(p, &p.train, &Spans::new());
        let want = ispy_harness::run_scenario(&p.spec, EVENTS);
        let totals: [&SimResult; 4] =
            [&want.base_total, &want.ideal_total, &want.asmdb_total, &want.ispy_total];
        for (arm, want) in arms.iter().zip(totals) {
            check_equal(&format!("fidelity {} {}", p.spec.name, arm.name), &arm.result, want)?;
        }
        Ok(())
    }
}
