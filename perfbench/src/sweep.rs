//! `sweep`: the sensitivity figures' inner loop. Set-up prepares two apps
//! and warms a `PlannerBaseline` for each; each op is one config point of
//! the fig17 (context size), fig18 (distance window) or fig19 (coalesce
//! bits) grid on one of the apps: `plan_with_baseline` → compile → one
//! I-SPY replay. A round is every grid point on both apps, in seeded order,
//! over the apps' profiled inputs.

use crate::op::{check_blocks, replay, OpOutput, Rng, Workload};
use crate::spans::Spans;
use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_harness::figures::{fig17, fig18, fig19};
use ispy_harness::Scale;
use ispy_profile::{profile, Profile, SampleRate};
use ispy_sim::{run, RunOptions, SimConfig, SimResult};
use ispy_trace::{apps, AppModel, Program, Trace};

/// Sizing: the harness's quick footprints with a shorter trace.
pub const SCALE: Scale = Scale { shrink: 4, events: 60_000 };

/// The two swept apps: kafka (3,400 functions) and wordpress (6,500, the
/// largest model).
fn models() -> [AppModel; 2] {
    [apps::kafka(), apps::wordpress()]
}

struct App {
    program: Program,
    trace: Trace,
    profile: Profile,
    base: SimResult,
    ideal: SimResult,
    baseline: PlannerBaseline,
}

pub struct Sweep {
    apps: Vec<App>,
    /// `(app index, config)` per op of the round.
    ops: Vec<(usize, IspyConfig)>,
}

/// Every config point of the three sensitivity grids.
fn grid() -> Vec<IspyConfig> {
    let mut g: Vec<IspyConfig> =
        fig17::CTX_SIZES.iter().map(|&n| IspyConfig::conditional_only().with_ctx_size(n)).collect();
    g.extend(fig18::MIN_SWEEP.iter().map(|&min| IspyConfig::default().with_distances(min, 200)));
    g.extend(fig18::MAX_SWEEP.iter().map(|&max| IspyConfig::default().with_distances(27, max)));
    g.extend(fig19::BITS.iter().map(|&b| IspyConfig::coalescing_only().with_coalesce_bits(b)));
    g
}

/// A baseline warmed the way the harness warms one: by the app's
/// default-config plan.
fn warm(app: &App, spans: &Spans) -> PlannerBaseline {
    let baseline = PlannerBaseline::new();
    spans.span("core.plan", || {
        Planner::new(&app.program, &app.trace, &app.profile, IspyConfig::default())
            .plan_with_baseline(&baseline)
    });
    baseline
}

impl Workload for Sweep {
    fn setup(seed: u64, spans: &Spans) -> Self {
        let mut rng = Rng::new(seed, 2);
        let scfg = SimConfig::default();
        let apps = models()
            .into_iter()
            .map(|m| {
                let m = m.scaled_down(SCALE.shrink);
                let program = spans.span("trace.generate", || m.generate());
                // The profiled input, as the harness's sweeps use: the seed
                // only orders the grid, so every seed does the same work.
                let input = m.default_input();
                let trace =
                    spans.span("trace.record", || program.record_trace(input, SCALE.events));
                spans.count("trace.blocks", trace.len() as u64);
                let profile = spans.span("profile.collect", || {
                    profile(&program, &trace, &scfg, SampleRate::EXACT)
                });
                let base = replay(spans, "baseline", || {
                    run(&program, &trace, &scfg, RunOptions::default())
                })
                .result;
                let ideal = replay(spans, "ideal", || {
                    run(&program, &trace, &SimConfig::ideal(), RunOptions::default())
                })
                .result;
                let mut app =
                    App { program, trace, profile, base, ideal, baseline: PlannerBaseline::new() };
                app.baseline = warm(&app, spans);
                app
            })
            .collect();
        let mut ops: Vec<(usize, IspyConfig)> =
            grid().into_iter().flat_map(|c| [(0, c.clone()), (1, c)]).collect();
        rng.shuffle(&mut ops);
        Sweep { apps, ops }
    }

    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn reset(&mut self, spans: &Spans) {
        for i in 0..self.apps.len() {
            self.apps[i].baseline = warm(&self.apps[i], spans);
        }
    }

    fn run_op(&mut self, i: usize, spans: &Spans) -> Result<OpOutput, String> {
        let (a, cfg) = &self.ops[i];
        let app = &self.apps[*a];
        let plan = spans.span("core.plan", || {
            Planner::new(&app.program, &app.trace, &app.profile, cfg.clone())
                .plan_with_baseline(&app.baseline)
        });
        let compiled =
            spans.span("isa.compile", || plan.injections.compile(app.program.num_blocks()));
        spans.count("isa.ops_lowered", compiled.num_ops() as u64);
        let arm = replay(spans, "ispy", || {
            let opts = RunOptions { compiled: Some(&compiled), ..Default::default() };
            run(&app.program, &app.trace, &SimConfig::default(), opts)
        });
        let ispy = arm.result;
        check_blocks("ispy", &ispy, app.trace.len() as u64)?;
        if ispy.pf_ops_executed != ispy.pf_ops_fired + ispy.pf_ops_suppressed {
            return Err("ispy arm: executed != fired + suppressed".into());
        }
        Ok(OpOutput {
            arms: vec![arm],
            base: app.base,
            ideal: app.ideal,
            ispy,
            ..Default::default()
        })
    }
}
