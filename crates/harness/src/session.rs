//! Prepared applications and cached per-app comparison runs.

use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::planner::Plan;
use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_isa::CompiledInjections;
use ispy_profile::{profile, Profile, SampleRate};
use ispy_sim::{run, OutcomeLedger, RunOptions, SimConfig, SimResult};
use ispy_trace::{apps, AppModel, Program, Trace};
use std::sync::{Arc, OnceLock};

/// How big the experiments are.
///
/// `full` matches the paper-scale defaults (entire app models, 1 M block
/// events ≈ 10⁷ instructions of steady state). `quick` shrinks the
/// footprints and traces for CI-speed runs; shapes are preserved, absolute
/// numbers get noisier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divisor applied to each app's function count.
    pub shrink: u32,
    /// Trace length in block events.
    pub events: usize,
}

impl Scale {
    /// Paper-scale runs (~seconds per app per configuration).
    pub fn full() -> Self {
        Scale { shrink: 1, events: 1_000_000 }
    }

    /// Reduced scale for quick runs.
    pub fn quick() -> Self {
        Scale { shrink: 4, events: 250_000 }
    }

    /// Tiny scale for unit/integration tests.
    pub fn test() -> Self {
        Scale { shrink: 20, events: 50_000 }
    }
}

/// Paper scale.
impl Default for Scale {
    fn default() -> Self {
        Scale::full()
    }
}

/// One prepared application: model, program ("binary"), recorded trace of
/// the profiled input, and its profile.
#[derive(Debug)]
pub struct AppContext {
    /// The application model.
    pub model: AppModel,
    /// The generated program.
    pub program: Program,
    /// Steady-state trace of the profiled (default) input.
    pub trace: Trace,
    /// Miss-annotated dynamic CFG.
    pub profile: Profile,
}

impl AppContext {
    /// Prepares one application at the given scale.
    pub fn prepare(model: AppModel, scale: Scale) -> Self {
        Self::prepare_with(model, scale, None)
    }

    /// [`AppContext::prepare`] with an optional artifact cache: the
    /// recording and profile are loaded from cached `.itrace`/`.iprof`
    /// files when present (and stored after computing otherwise). Because
    /// the codecs are exact, a cache hit is indistinguishable from a fresh
    /// preparation.
    pub fn prepare_with(
        model: AppModel,
        scale: Scale,
        cache: Option<&crate::cache::ArtifactCache>,
    ) -> Self {
        let tele = ispy_telemetry::global();
        let _span = tele.span("session.prepare");
        let model = model.scaled_down(scale.shrink);
        let name = model.name();
        let (program, trace) = match cache.and_then(|c| c.load_recording(name)) {
            Some(pair) => pair,
            None => {
                let program = model.generate();
                let trace = program.record_trace(model.default_input(), scale.events);
                if let Some(c) = cache {
                    c.store_recording(name, &program, &trace);
                }
                (program, trace)
            }
        };
        let profile = match cache.and_then(|c| c.load_profile(name)) {
            Some(profile) => profile,
            None => {
                let profile = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
                if let Some(c) = cache {
                    c.store_profile(name, &profile);
                }
                profile
            }
        };
        AppContext { model, program, trace, profile }
    }

    /// The application name.
    pub fn name(&self) -> &'static str {
        self.model.name()
    }

    /// Runs the prepared trace under `cfg` with an optional injection plan,
    /// lowered beforehand (see [`ispy_isa::InjectionMap::compile`]) so sweeps
    /// that evaluate one plan under many configurations lower it once.
    pub fn simulate(&self, cfg: &SimConfig, plan: Option<&CompiledInjections>) -> SimResult {
        run(&self.program, &self.trace, cfg, RunOptions { compiled: plan, ..Default::default() })
    }
}

/// The four-way comparison behind most of the evaluation figures.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// No prefetching.
    pub baseline: SimResult,
    /// Ideal I-cache (never misses).
    pub ideal: SimResult,
    /// AsmDB result.
    pub asmdb: SimResult,
    /// AsmDB plan.
    pub asmdb_plan: Plan,
    /// AsmDB plan lowered once for replay; sweeps that re-simulate the plan
    /// (drift inputs, policy ablations) share this instead of re-lowering.
    pub asmdb_compiled: CompiledInjections,
    /// I-SPY result (conditional + coalescing).
    pub ispy: SimResult,
    /// I-SPY plan.
    pub ispy_plan: Plan,
    /// I-SPY plan lowered once for replay (see `asmdb_compiled`).
    pub ispy_compiled: CompiledInjections,
    /// Per-injection runtime outcomes for the I-SPY run, indexed by the
    /// provenance ids in [`Plan::provenance`].
    pub ispy_outcomes: OutcomeLedger,
}

/// A prepared set of applications plus result caches.
///
/// Thread-safe: figure drivers fan their (app × config-point) grids out
/// across the [`ispy_parallel`] pool, so every cache here is a per-app
/// [`OnceLock`] slot (comparisons) or an internally-locked
/// [`PlannerBaseline`] (trace-scan reuse for sensitivity sweeps). The
/// expensive four-way [`Comparison`] is computed at most once per app and
/// shared as an [`Arc`] without cloning the multi-megabyte plans.
pub struct Session {
    scale: Scale,
    apps: Vec<AppContext>,
    comparisons: Vec<OnceLock<Arc<Comparison>>>,
    baselines: Vec<PlannerBaseline>,
    cache: Option<crate::cache::ArtifactCache>,
}

impl Session {
    /// Prepares all nine applications at `scale`.
    pub fn new(scale: Scale) -> Self {
        Self::with_apps(scale, apps::all())
    }

    /// Prepares a chosen subset of applications (used by tests, by `repro
    /// --apps`, and by figures that only need some apps). Preparation
    /// (model generation + trace recording + profiling) runs one app per
    /// pool thread.
    pub fn with_apps(scale: Scale, models: Vec<AppModel>) -> Self {
        Self::build(scale, models, None)
    }

    /// [`Session::with_apps`] backed by an on-disk artifact cache:
    /// recordings, profiles, and the comparison plans are loaded from the
    /// cache when present and stored after computing otherwise. Figures
    /// rendered from a warm cache are byte-identical to a cold run.
    pub fn with_cache(
        scale: Scale,
        models: Vec<AppModel>,
        cache: crate::cache::ArtifactCache,
    ) -> Self {
        Self::build(scale, models, Some(cache))
    }

    fn build(
        scale: Scale,
        models: Vec<AppModel>,
        cache: Option<crate::cache::ArtifactCache>,
    ) -> Self {
        let apps = ispy_parallel::par_map_vec(models, |m| {
            AppContext::prepare_with(m, scale, cache.as_ref())
        });
        let n = apps.len();
        Session {
            scale,
            apps,
            comparisons: (0..n).map(|_| OnceLock::new()).collect(),
            baselines: (0..n).map(|_| PlannerBaseline::new()).collect(),
            cache,
        }
    }

    /// The session's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The prepared applications.
    pub fn apps(&self) -> &[AppContext] {
        &self.apps
    }

    /// Finds a prepared app by name.
    pub fn app(&self, name: &str) -> Option<&AppContext> {
        self.apps.iter().find(|a| a.name() == name)
    }

    /// The four-way comparison for app `i`, computed once and cached.
    ///
    /// Returns a shared handle — callers never pay for cloning the
    /// `SimResult`s or multi-megabyte `Plan`s. Concurrent first calls for
    /// the same app block on one computation (the `OnceLock` guarantee).
    pub fn comparison(&self, i: usize) -> Arc<Comparison> {
        Arc::clone(self.comparisons[i].get_or_init(|| Arc::new(self.compute_comparison(i))))
    }

    /// All apps' comparisons, computed in parallel (one app per pool
    /// thread) and returned in app order. Figures that only read cached
    /// comparisons call this once instead of serially faulting each app in.
    pub fn comparisons(&self) -> Vec<Arc<Comparison>> {
        ispy_parallel::par_collect(self.apps.len(), |i| self.comparison(i))
    }

    fn compute_comparison(&self, i: usize) -> Comparison {
        let ctx = &self.apps[i];
        let scfg = SimConfig::default();
        // A fresh profile carries its own baseline and ideal replays of
        // this trace; a cached one does not, so replay them.
        let (baseline, ideal) = match ctx.profile.replays {
            Some(r) => (r.baseline, r.ideal),
            None => (ctx.simulate(&scfg, None), ctx.simulate(&SimConfig::ideal(), None)),
        };
        let asmdb_plan = match self.cache.as_ref().and_then(|c| c.load_plan(ctx.name(), "asmdb")) {
            Some(plan) => plan,
            None => {
                // The window searches land in the profile's memo, so the
                // I-SPY plan below finds every AsmDB target's window already
                // searched.
                let plan =
                    AsmDbPlanner::new(&ctx.program, &ctx.profile, AsmDbConfig::default()).plan();
                if let Some(c) = &self.cache {
                    c.store_plan(ctx.name(), "asmdb", &plan);
                }
                plan
            }
        };
        let asmdb_compiled = asmdb_plan.injections.compile(ctx.program.num_blocks());
        let asmdb = ctx.simulate(&scfg, Some(&asmdb_compiled));
        let ispy_plan = match self.cache.as_ref().and_then(|c| c.load_plan(ctx.name(), "ispy")) {
            Some(plan) => plan,
            None => {
                let plan =
                    Planner::new(&ctx.program, &ctx.trace, &ctx.profile, IspyConfig::default())
                        .plan_with_baseline(&self.baselines[i]);
                if let Some(c) = &self.cache {
                    c.store_plan(ctx.name(), "ispy", &plan);
                }
                plan
            }
        };
        let ispy_compiled = ispy_plan.injections.compile(ctx.program.num_blocks());
        let mut ispy_outcomes = OutcomeLedger::with_capacity(ispy_plan.provenance.len());
        let ispy = run(
            &ctx.program,
            &ctx.trace,
            &scfg,
            RunOptions {
                compiled: Some(&ispy_compiled),
                outcomes: Some(&mut ispy_outcomes),
                ..Default::default()
            },
        );
        Comparison {
            baseline,
            ideal,
            asmdb,
            asmdb_plan,
            asmdb_compiled,
            ispy,
            ispy_plan,
            ispy_compiled,
            ispy_outcomes,
        }
    }

    /// Plans and runs an I-SPY configuration variant for app `i` (used by
    /// the ablation and sensitivity figures). The plan reuses the app's
    /// [`PlannerBaseline`], so a sweep's config points share one set of
    /// trace scans; the simulation itself is per-variant.
    pub fn run_ispy_variant(&self, i: usize, cfg: IspyConfig) -> (Plan, SimResult) {
        let ctx = &self.apps[i];
        let plan = Planner::new(&ctx.program, &ctx.trace, &ctx.profile, cfg)
            .plan_with_baseline(&self.baselines[i]);
        let compiled = plan.injections.compile(ctx.program.num_blocks());
        let result = ctx.simulate(&SimConfig::default(), Some(&compiled));
        (plan, result)
    }

    /// The planner baseline (shared trace-scan caches) for app `i`.
    pub fn planner_baseline(&self, i: usize) -> &PlannerBaseline {
        &self.baselines[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_session() -> Session {
        Session::with_apps(Scale::test(), vec![apps::cassandra()])
    }

    #[test]
    fn prepare_builds_consistent_context() {
        let s = tiny_session();
        let ctx = &s.apps()[0];
        assert_eq!(ctx.trace.len(), Scale::test().events);
        assert!(ctx.profile.misses.total_misses() > 0);
        assert_eq!(ctx.name(), "cassandra");
        assert!(s.app("cassandra").is_some());
        assert!(s.app("nope").is_none());
    }

    #[test]
    fn comparison_is_cached_and_ordered() {
        let s = tiny_session();
        let c1 = s.comparison(0);
        let c2 = s.comparison(0);
        // The cache hands out the same allocation, not a clone.
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(c1.baseline, c2.baseline);
        // Sanity ordering: ideal <= ispy/asmdb <= baseline (cycles).
        assert!(c1.ideal.cycles <= c1.ispy.cycles);
        assert!(c1.ispy.cycles <= c1.baseline.cycles);
        assert!(c1.asmdb.cycles <= c1.baseline.cycles);
    }

    #[test]
    fn variant_simulation_runs() {
        let s = tiny_session();
        let ctx = &s.apps()[0];
        let drift = ctx.program.record_trace(ctx.model.input_variant(1), 10_000);
        let r = run(&ctx.program, &drift, &SimConfig::default(), RunOptions::default());
        assert_eq!(r.blocks, 10_000);
    }

    #[test]
    fn concurrent_comparisons_fill_each_slot_once() {
        let s = Session::with_apps(Scale::test(), vec![apps::cassandra(), apps::kafka()]);
        let all: Vec<Vec<Arc<Comparison>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| s.comparisons())).collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for run in &all {
            assert_eq!(run.len(), 2);
            for (i, c) in run.iter().enumerate() {
                // Every thread observed the single cached allocation.
                assert!(Arc::ptr_eq(c, &all[0][i]));
            }
        }
    }

    #[test]
    fn compiled_plans_replay_identically_to_maps() {
        let s = tiny_session();
        let ctx = &s.apps()[0];
        let c = s.comparison(0);
        let scfg = SimConfig::default();
        // The cached comparison results were produced from the compiled
        // plans; replaying the raw maps must give byte-identical results.
        let via_map = |trace: &Trace, map| {
            run(
                &ctx.program,
                trace,
                &scfg,
                RunOptions { injections: Some(map), ..Default::default() },
            )
        };
        assert_eq!(via_map(&ctx.trace, &c.asmdb_plan.injections), c.asmdb);
        assert_eq!(via_map(&ctx.trace, &c.ispy_plan.injections), c.ispy);
        // And a drift-input replay agrees between the two forms too.
        let drift = ctx.program.record_trace(ctx.model.input_variant(1), 10_000);
        let via_compiled = run(
            &ctx.program,
            &drift,
            &scfg,
            RunOptions { compiled: Some(&c.ispy_compiled), ..Default::default() },
        );
        assert_eq!(via_map(&drift, &c.ispy_plan.injections), via_compiled);
    }

    #[test]
    fn variant_planning_reuses_baseline_deterministically() {
        let s = tiny_session();
        let cfg = IspyConfig::conditional_only().with_ctx_size(2);
        let (p1, r1) = s.run_ispy_variant(0, cfg.clone());
        let (p2, r2) = s.run_ispy_variant(0, cfg);
        assert_eq!(p1.injections, p2.injections);
        assert_eq!(r1, r2);
    }
}
