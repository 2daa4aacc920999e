//! `pipeline`: each op is one cold app, the per-app unit of every
//! comparison figure. generate → record_trace → profile → AsmDB plan →
//! I-SPY plan → compile both → four replay arms (baseline, ideal, AsmDB,
//! I-SPY with ledger). A round is all nine app models in seeded order, each
//! walking its profiled request mix from a seeded walker seed.

use crate::op::{
    check_blocks, check_equal, check_ideal, check_ledger, replay, OpOutput, Rng, Workload,
};
use crate::spans::Spans;
use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::{IspyConfig, Planner};
use ispy_harness::{Scale, Session};
use ispy_profile::{profile, SampleRate};
use ispy_sim::{run, OutcomeLedger, RunOptions, SimConfig, SimResult};
use ispy_trace::{apps, AppModel, InputSpec};

/// Sizing: the harness's quick footprints with a shorter trace.
pub const SCALE: Scale = Scale { shrink: 4, events: 120_000 };

pub struct Pipeline {
    /// `(model, input)` per op of the round.
    ops: Vec<(AppModel, InputSpec)>,
    /// `Session::comparison`'s four results for op 0: baseline, ideal,
    /// AsmDB, I-SPY.
    expected_first: [SimResult; 4],
}

impl Workload for Pipeline {
    fn setup(seed: u64, spans: &Spans) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut models = apps::all();
        rng.shuffle(&mut models);
        // Op 0 replays the profiled input, so the harness's cached
        // comparison for the same app is its expected output. The others
        // walk the profiled request mix from a seeded walker seed.
        let ops: Vec<(AppModel, InputSpec)> = models
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let input = m.default_input();
                let input = if i == 0 { input } else { input.with_seed(rng.next()) };
                (m, input)
            })
            .collect();
        let expected_first = spans.span("harness.session", || {
            let session = Session::with_apps(SCALE, vec![ops[0].0.clone()]);
            let c = session.comparison(0);
            [c.baseline, c.ideal, c.asmdb, c.ispy]
        });
        Pipeline { ops, expected_first }
    }

    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, i: usize, spans: &Spans) -> Result<OpOutput, String> {
        let (model, input) = &self.ops[i];
        let model = model.clone().scaled_down(SCALE.shrink);
        let program = spans.span("trace.generate", || model.generate());
        let trace =
            spans.span("trace.record", || program.record_trace(input.clone(), SCALE.events));
        spans.count("trace.blocks", trace.len() as u64);
        let scfg = SimConfig::default();
        let prof =
            spans.span("profile.collect", || profile(&program, &trace, &scfg, SampleRate::EXACT));
        let asmdb_plan = spans.span("asmdb.plan", || {
            AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan()
        });
        let ispy_plan = spans.span("core.plan", || {
            Planner::new(&program, &trace, &prof, IspyConfig::default()).plan()
        });
        let asmdb_c =
            spans.span("isa.compile", || asmdb_plan.injections.compile(program.num_blocks()));
        let ispy_c =
            spans.span("isa.compile", || ispy_plan.injections.compile(program.num_blocks()));
        spans.count("isa.ops_lowered", (asmdb_c.num_ops() + ispy_c.num_ops()) as u64);

        let base =
            replay(spans, "baseline", || run(&program, &trace, &scfg, RunOptions::default()));
        let ideal = replay(spans, "ideal", || {
            run(&program, &trace, &SimConfig::ideal(), RunOptions::default())
        });
        let asmdb = replay(spans, "asmdb", || {
            run(
                &program,
                &trace,
                &scfg,
                RunOptions { compiled: Some(&asmdb_c), ..Default::default() },
            )
        });
        let mut ledger = OutcomeLedger::with_capacity(ispy_plan.provenance.len());
        let ispy = replay(spans, "ispy", || {
            let opts = RunOptions {
                compiled: Some(&ispy_c),
                outcomes: Some(&mut ledger),
                ..Default::default()
            };
            run(&program, &trace, &scfg, opts)
        });

        let arms = [base, ideal, asmdb, ispy];
        for arm in &arms {
            check_blocks(arm.name, &arm.result, trace.len() as u64)?;
        }
        check_ideal(&arms[1].result)?;
        check_ledger(&arms[3].result, &ledger)?;
        if i == 0 {
            for (arm, want) in arms.iter().zip(&self.expected_first) {
                check_equal(&format!("fidelity {} {}", model.name(), arm.name), &arm.result, want)?;
            }
        }
        Ok(OpOutput {
            base: arms[0].result,
            ideal: arms[1].result,
            ispy: arms[3].result,
            arms: arms.to_vec(),
            ..Default::default()
        })
    }
}
