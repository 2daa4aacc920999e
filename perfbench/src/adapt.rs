//! `adapt`: online replanning. Each op is one `repro adapt`-shaped run over
//! a prepared app: `run_adaptive` over two epochs of its trace, where each
//! first-epoch window's callback runs `window_delta` → `fold` → plan and
//! the plan is hot-swapped in at the next window; then one `replan_delta`
//! of a ≤1% miss delta against a warm `PlannerBaseline`. Set-up records
//! the traces and computes what the ops are judged against: the
//! no-prefetch and ideal replays, the offline-oracle plan's adaptive
//! replay, and the staged delta-replan inputs.

use crate::op::{check_blocks, check_ideal, digest, replay, OpOutput, Rng, Workload};
use crate::spans::Spans;
use ispy_core::artifact::plan_to_bytes;
use ispy_core::{IspyConfig, Planner};
use ispy_harness::adapt::{replan_workload, ReplanWorkload};
use ispy_isa::InjectionMap;
use ispy_profile::{profile, window_delta, ProfileAccumulator, SampleRate};
use ispy_sim::{run, run_adaptive, AdaptiveRun, RunOptions, SimConfig, SimResult, SliceWindows};
use ispy_trace::{apps, AppModel, Program, Trace};
use std::time::Instant;

/// App footprint divisor.
const SHRINK: u32 = 8;
/// Trace events per epoch.
const EVENTS: usize = 50_000;
/// Epochs replayed: the first adapts, the second runs the converged plan.
const EPOCHS: usize = 2;
/// Adaptation quantum: five windows per epoch, as `repro adapt` defaults.
const WINDOW: usize = EVENTS / 5;
/// Warmup blocks replayed ahead of each profiled window (the harness's
/// `PROFILE_WARMUP`).
const PROFILE_WARMUP: usize = 8_192;

/// The prepared apps: tomcat and kafka (3,200 and 3,400 functions) and
/// drupal (5,500).
fn models() -> [AppModel; 3] {
    [apps::kafka(), apps::tomcat(), apps::drupal()]
}

struct App {
    program: Program,
    trace: Trace,
    /// `trace` repeated `EPOCHS` times.
    rep: Trace,
    base: SimResult,
    ideal: SimResult,
    oracle: AdaptiveRun,
    replan: ReplanWorkload,
}

pub struct Adapt {
    apps: Vec<App>,
    /// App index per op of the round.
    ops: Vec<usize>,
}

impl Workload for Adapt {
    fn setup(seed: u64, spans: &Spans) -> Self {
        let mut rng = Rng::new(seed, 4);
        let cfg = SimConfig::default();
        let apps = models()
            .into_iter()
            .map(|m| {
                let m = m.scaled_down(SHRINK);
                let program = spans.span("trace.generate", || m.generate());
                let input = m.default_input().with_seed(rng.next());
                let trace = spans.span("trace.record", || program.record_trace(input, EVENTS));
                spans.count("trace.blocks", trace.len() as u64);
                let rep = Trace::new(
                    format!("{}-x{EPOCHS}", program.name()),
                    trace.blocks().repeat(EPOCHS),
                );
                let base =
                    replay(spans, "baseline", || run(&program, &rep, &cfg, RunOptions::default()))
                        .result;
                let ideal = replay(spans, "ideal", || {
                    run(&program, &rep, &SimConfig::ideal(), RunOptions::default())
                })
                .result;
                let prof = spans
                    .span("profile.collect", || profile(&program, &trace, &cfg, SampleRate::EXACT));
                let plan = spans.span("core.plan", || {
                    Planner::new(&program, &trace, &prof, IspyConfig::default()).plan()
                });
                let source = SliceWindows::of_trace(&rep);
                let oracle = spans.span("sim.oracle", || {
                    run_adaptive(&program, &cfg, &source, WINDOW, &plan.injections, None, |_, _| {
                        None
                    })
                    .expect("slice-backed windows cannot fail")
                });
                let replan = spans
                    .span("harness.replan_workload", || replan_workload(&program, &trace, &cfg));
                App { program, trace, rep, base, ideal, oracle, replan }
            })
            .collect();
        let mut ops: Vec<usize> = (0..models().len()).collect();
        rng.shuffle(&mut ops);
        Adapt { apps, ops }
    }

    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, i: usize, spans: &Spans) -> Result<OpOutput, String> {
        let app = &self.apps[self.ops[i]];
        let (program, trace, rep) = (&app.program, &app.trace, &app.rep);
        let cfg = SimConfig::default();
        let n = trace.len();
        let source = SliceWindows::of_trace(rep);
        let mut replan_ms = Vec::new();
        let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
        let mut run = None;
        let arm = replay(spans, "adaptive", || {
            let (acc, replan_ms, cfg) = (&mut acc, &mut replan_ms, &cfg);
            let r = run_adaptive(
                program,
                cfg,
                &source,
                WINDOW,
                &InjectionMap::new(),
                None,
                move |k, blocks| {
                    if acc.events() as usize >= n {
                        return None; // converged: one full epoch folded
                    }
                    let t0 = Instant::now();
                    let start = k * WINDOW;
                    let warmup = &rep.blocks()[start.saturating_sub(PROFILE_WARMUP)..start];
                    let delta = spans.span("profile.window_delta", || {
                        window_delta(
                            program,
                            warmup,
                            blocks,
                            cfg,
                            SampleRate::EXACT,
                            (start % n) as u64,
                        )
                    });
                    spans.span("profile.fold", || acc.fold(&delta));
                    let prof = spans.span("profile.snapshot", || acc.profile());
                    let seen = (start + blocks.len()).min(n);
                    let wtrace = Trace::new(
                        format!("{}-w{k}", program.name()),
                        trace.blocks()[..seen].to_vec(),
                    );
                    let plan = spans.span("core.plan", || {
                        Planner::new(program, &wtrace, &prof, IspyConfig::default()).plan()
                    });
                    replan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    Some(plan.injections)
                },
            );
            let r = r.expect("slice-backed windows cannot fail");
            let total = r.total;
            run = Some(r);
            total
        });
        let adaptive = run.expect("adaptive run completed");

        let wl = &app.replan;
        let plan = spans.span("core.replan_delta", || {
            Planner::new(program, trace, &wl.profile, IspyConfig::default())
                .replan_delta(&wl.baseline, &wl.delta)
        });

        check_blocks("adaptive", &adaptive.total, rep.len() as u64)?;
        check_ideal(&app.ideal)?;
        if adaptive.windows.len() != app.oracle.windows.len() {
            return Err("adaptive and oracle runs cut different windows".into());
        }
        let (last, oracle_last) = (
            adaptive.windows.last().ok_or("no windows")?,
            app.oracle.windows.last().ok_or("no oracle windows")?,
        );
        let gap_pct = 100.0 * (last.mpki() - oracle_last.mpki()) / oracle_last.mpki();
        Ok(OpOutput {
            arms: vec![arm],
            base: app.base,
            ideal: app.ideal,
            ispy: adaptive.total,
            replan_ms,
            gap_pct: Some(gap_pct),
            swaps: adaptive.swaps as u64,
            plan_digest: Some(digest(&plan_to_bytes("replan", &plan))),
            ..Default::default()
        })
    }

    /// The delta replan must be byte-identical to a from-scratch plan over
    /// the same profile.
    fn final_checks(&self, first_round: &[OpOutput]) -> Result<(), String> {
        for (&a, out) in self.ops.iter().zip(first_round) {
            let app = &self.apps[a];
            let fresh =
                Planner::new(&app.program, &app.trace, &app.replan.profile, IspyConfig::default())
                    .plan();
            if out.plan_digest != Some(digest(&plan_to_bytes("replan", &fresh))) {
                return Err(format!(
                    "{}: replan_delta plan differs from plan()",
                    app.program.name()
                ));
            }
        }
        Ok(())
    }
}
