//! The adaptive-replanning driver behind `repro adapt`, plus the shared
//! delta-replan microbenchmark workload ([`replan_workload`], which the
//! `perfbench` adapt workload also times).
//!
//! The driver stages a production-shaped loop over one app:
//!
//! 1. Record a trace and replay it for `--epochs` rounds (default 2 — the
//!    paper's deployment premise is a steady-state service whose workload
//!    recurs), cut into `--window`-sized windows.
//! 2. Replay adaptively ([`ispy_sim::run_adaptive`]): while window `k`
//!    simulates, a helper thread profiles it ([`window_delta`], warmed by
//!    the preceding trace slice), folds the delta into a
//!    [`ProfileAccumulator`], plans from the accumulated profile, and the
//!    new plan is hot-swapped in at the window `k + 1` boundary. The run
//!    starts plan-less, so the per-window MPKI trajectory *is* the
//!    adaptation curve. Once one full epoch has been folded the
//!    accumulator freezes — every window has been seen once, and folding
//!    repeats would skew relative line weights — so later epochs run under
//!    the converged plan.
//! 3. Replay the same windows once more under the offline oracle — the plan
//!    a full-trace profile produces, installed from block zero — giving the
//!    per-window target the adaptive run should converge to.
//! 4. Run the delta-replan microbenchmark on the full trace: warm a
//!    [`PlannerBaseline`], fold back a delta touching ≤1% of the samples,
//!    and time [`Planner::replan_delta`] against a from-scratch
//!    [`Planner::plan`], asserting the two plans are byte-identical.

use crate::json::Json;
use crate::session::Scale;
use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_isa::InjectionMap;
use ispy_profile::{window_delta, Profile, ProfileAccumulator, ProfileDelta, SampleRate};
use ispy_scenario::{Arrival, PhaseSpec, Scenario, TenantSpec};
use ispy_sim::{run_adaptive, SimConfig, SimResult, SliceWindows, SwitchEffect};
use ispy_trace::{AppModel, BlockSource, Program, Trace};
use std::time::Instant;

/// Warmup blocks replayed (unobserved) ahead of each profiled window, so
/// the window's samples reflect warm caches and a full LBR history — same
/// default as the sharded replayer's `warmup_blocks`.
const PROFILE_WARMUP: usize = 8_192;

/// One window of the adaptive run next to its oracle target.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// MPKI the adaptive run scored over this window.
    pub adaptive_mpki: f64,
    /// MPKI the offline-oracle plan scored over the same window.
    pub oracle_mpki: f64,
    /// Wall-clock milliseconds the window's profile+replan pass took (it
    /// overlaps the window's simulation, so it is *latency*, not added
    /// runtime — unless it exceeds the window's simulation time).
    pub replan_ms: f64,
}

/// Everything `repro adapt` measures for one app.
#[derive(Debug, Clone)]
pub struct AdaptOutcome {
    /// App replayed.
    pub app: String,
    /// Trace events per epoch.
    pub events: usize,
    /// Window size in events.
    pub window: usize,
    /// Rounds the trace was replayed for.
    pub epochs: usize,
    /// Per-window adaptation trajectory.
    pub windows: Vec<WindowReport>,
    /// Plan hot-swaps applied (one per window that produced a plan).
    pub swaps: usize,
    /// Aggregate counters of the adaptive run.
    pub adaptive_total: SimResult,
    /// Aggregate counters of the oracle run.
    pub oracle_total: SimResult,
    /// Best-of-reps milliseconds for a from-scratch `plan()`.
    pub replan_full_ms: f64,
    /// Best-of-reps milliseconds for `replan_delta` on the ≤1% delta.
    pub replan_delta_ms: f64,
    /// Whether the delta replan reproduced the from-scratch plan exactly.
    pub plans_identical: bool,
    /// Samples in the microbenchmark delta.
    pub delta_samples: usize,
    /// Total samples in the full profile.
    pub total_samples: usize,
}

impl AdaptOutcome {
    /// `replan_full_ms / replan_delta_ms` (0 when the delta time is 0).
    pub fn replan_speedup(&self) -> f64 {
        if self.replan_delta_ms > 0.0 {
            self.replan_full_ms / self.replan_delta_ms
        } else {
            0.0
        }
    }

    /// The last window's MPKI gap vs. the oracle, as a fraction of the
    /// oracle MPKI (negative when the adaptive run beats the oracle).
    pub fn converged_gap(&self) -> f64 {
        match self.windows.last() {
            Some(w) if w.oracle_mpki > 0.0 => (w.adaptive_mpki - w.oracle_mpki) / w.oracle_mpki,
            _ => 0.0,
        }
    }

    /// Serializes the outcome for `--json` (the `.adapt.json` artifact).
    pub fn to_json(&self) -> String {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("adaptive_mpki".to_string(), Json::Num(w.adaptive_mpki)),
                    ("oracle_mpki".to_string(), Json::Num(w.oracle_mpki)),
                    ("replan_ms".to_string(), Json::Num(w.replan_ms)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("app".to_string(), Json::Str(self.app.clone())),
            ("events".to_string(), Json::Num(self.events as f64)),
            ("window".to_string(), Json::Num(self.window as f64)),
            ("epochs".to_string(), Json::Num(self.epochs as f64)),
            ("swaps".to_string(), Json::Num(self.swaps as f64)),
            ("windows".to_string(), Json::Arr(windows)),
            ("adaptive_mpki".to_string(), Json::Num(self.adaptive_total.mpki())),
            ("oracle_mpki".to_string(), Json::Num(self.oracle_total.mpki())),
            ("replan_full_ms".to_string(), Json::Num(self.replan_full_ms)),
            ("replan_delta_ms".to_string(), Json::Num(self.replan_delta_ms)),
            ("replan_speedup".to_string(), Json::Num(self.replan_speedup())),
            ("plans_identical".to_string(), Json::Bool(self.plans_identical)),
            ("delta_samples".to_string(), Json::Num(self.delta_samples as f64)),
            ("total_samples".to_string(), Json::Num(self.total_samples as f64)),
        ])
        .to_pretty()
    }
}

/// The staged inputs of the delta-replan microbenchmark: a full profile, a
/// delta covering ≤1% of its samples, and a baseline warmed on the profile
/// *minus* that delta — so `Planner::replan_delta(&baseline, &delta)`
/// against `profile` is exactly the incremental path a live window triggers,
/// while `Planner::plan()` is the from-scratch cost it replaces.
pub struct ReplanWorkload {
    /// The full (post-delta) profile to plan against.
    pub profile: Profile,
    /// The ≤1%-of-samples delta the baseline has not seen.
    pub delta: ProfileDelta,
    /// Baseline warmed on `profile` minus `delta`.
    pub baseline: PlannerBaseline,
    /// Samples in `delta`.
    pub delta_samples: usize,
    /// Samples in the full profile.
    pub total_samples: usize,
}

/// Builds the [`ReplanWorkload`] for `(program, trace)`: profiles the whole
/// trace in removable (sample) form, carves the lightest miss lines into a
/// delta capped at 1% of all samples (falling back to a slice of the
/// lightest line when even one whole line exceeds the cap), and warms a
/// baseline on the reduced profile.
pub fn replan_workload(program: &Program, trace: &Trace, cfg: &SimConfig) -> ReplanWorkload {
    let full = window_delta(program, &[], trace.blocks(), cfg, SampleRate::EXACT, 0);
    let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    acc.fold(&full);
    let mut profile = acc.profile();
    let total_samples = full.added.len();
    let budget = (total_samples / 100).max(1);

    // Whole lightest lines while they fit the budget, so the delta includes
    // the hardest memo case: a line whose *first/last* miss arrives.
    let mut chosen: Vec<u64> = Vec::new();
    let mut taken = 0usize;
    for (line, stats) in profile.misses.lines_by_count().iter().rev() {
        let n = stats.count as usize;
        if taken + n > budget {
            break;
        }
        chosen.push(line.raw());
        taken += n;
    }
    let mut removed: Vec<ispy_profile::MissSample> =
        full.added.iter().filter(|s| chosen.contains(&s.line.raw())).cloned().collect();
    if removed.is_empty() {
        // Even the lightest line is bigger than 1% of the samples: take a
        // budget-sized slice of it instead.
        if let Some((line, _)) = profile.misses.lines_by_count().last().cloned() {
            removed = full.added.iter().filter(|s| s.line == line).take(budget).cloned().collect();
        }
    }
    assert!(!removed.is_empty(), "replan workload needs a non-empty delta");

    let remove = ProfileDelta { removed: removed.clone(), ..Default::default() };
    let delta = ProfileDelta { added: removed, ..Default::default() };
    profile.apply_miss_delta(&remove);
    let baseline = PlannerBaseline::new();
    Planner::new(program, trace, &profile, IspyConfig::default()).plan_with_baseline(&baseline);
    profile.apply_miss_delta(&delta);
    let delta_samples = delta.added.len();
    ReplanWorkload { profile, delta, baseline, delta_samples, total_samples }
}

/// Best-of-`reps` wall-clock milliseconds for `f`, with one extra discarded
/// warmup call (same protocol as the engine bench).
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            best = best.min(ms);
        }
    }
    best
}

/// Times the delta-replan microbenchmark over an already-staged workload
/// and checks plan identity. Returns `(full_ms, delta_ms, identical)`.
pub fn time_replan(
    program: &Program,
    trace: &Trace,
    wl: &ReplanWorkload,
    reps: usize,
) -> (f64, f64, bool) {
    let planner = Planner::new(program, trace, &wl.profile, IspyConfig::default());
    let full_ms = best_ms(reps, || planner.plan());
    let delta_ms = best_ms(reps, || planner.replan_delta(&wl.baseline, &wl.delta));
    let fresh = planner.plan();
    let replan = planner.replan_delta(&wl.baseline, &wl.delta);
    let identical = plans_equal(&fresh, &replan);
    (full_ms, delta_ms, identical)
}

fn plans_equal(a: &Plan, b: &Plan) -> bool {
    a.injections == b.injections
        && a.stats == b.stats
        && a.context_details == b.context_details
        && a.provenance == b.provenance
}

/// Runs the full adaptive experiment for one app at one scale.
///
/// `window` is the adaptation quantum in trace events; `epochs` how many
/// rounds the recorded trace is replayed for (the steady-state recurrence
/// the paper's deployment assumes — epoch 1 adapts, later epochs run under
/// the converged plan); `reps` the best-of count for the microbenchmark
/// timings.
pub fn run_adapt(
    model: AppModel,
    scale: Scale,
    window: usize,
    epochs: usize,
    reps: usize,
) -> AdaptOutcome {
    let model = model.scaled_down(scale.shrink);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), scale.events);
    let app = model.name().to_string();
    adapt_over(app, program, trace, window, epochs, reps)
}

/// The single-tenant phased scenario behind `repro adapt --drift`: the
/// first half of the trace runs the app's default request mix, the second
/// half a rotated and flattened one — a mid-run input drift the adaptive
/// replanner has to chase (and the offline oracle profiles in full, so the
/// convergence target stays fair).
fn drift_scenario(model: AppModel) -> Scenario {
    Scenario {
        name: format!("{}-drift", model.name()),
        seed: model.default_input().seed(),
        arrival: Arrival::Steady,
        phases: vec![
            PhaseSpec::new("steady", 0),
            PhaseSpec::new("drift", 0).with_rotation(2).with_wss_scale(1.5),
        ],
        tenants: vec![TenantSpec::new(model, 1)],
        quantum: 2_048,
        effect: SwitchEffect::None,
    }
}

/// [`run_adapt`] with phase-schedule-driven drift: the replayed trace comes
/// from a two-phase scenario whose request mix swaps mid-trace, so the
/// per-window MPKI trajectory shows the replanner re-adapting instead of
/// merely converging once.
pub fn run_adapt_drift(
    model: AppModel,
    scale: Scale,
    window: usize,
    epochs: usize,
    reps: usize,
) -> AdaptOutcome {
    let spec = drift_scenario(model.scaled_down(scale.shrink));
    let sc = spec.compile(scale.events as u64);
    let mut src = sc.source();
    let mut blocks = Vec::with_capacity(scale.events);
    while let Some(chunk) = src.next_chunk().expect("scenario sources cannot fail") {
        blocks.extend_from_slice(chunk);
    }
    let trace = Trace::new(spec.name.clone(), blocks);
    adapt_over(spec.name, sc.program().clone(), trace, window, epochs, reps)
}

/// Shared driver over an already-materialized `(program, trace)` pair.
fn adapt_over(
    app: String,
    program: Program,
    trace: Trace,
    window: usize,
    epochs: usize,
    reps: usize,
) -> AdaptOutcome {
    assert!(window > 0, "window must be positive");
    assert!(epochs > 0, "epochs must be positive");
    let events = trace.len();
    let cfg = SimConfig::default();
    let n = trace.blocks().len();
    let mut rep_blocks = Vec::with_capacity(n * epochs);
    for _ in 0..epochs {
        rep_blocks.extend_from_slice(trace.blocks());
    }
    let rep = Trace::new(format!("{}-x{epochs}", program.name()), rep_blocks);
    let source = SliceWindows::of_trace(&rep);

    // Offline oracle: the plan a full-trace profile yields, active from
    // block zero. Replayed through the same windowed driver so the
    // per-window counters are carved identically.
    let oracle_profile = ispy_profile::profile(&program, &trace, &cfg, SampleRate::EXACT);
    let oracle_plan = Planner::new(&program, &trace, &oracle_profile, IspyConfig::default()).plan();
    let oracle =
        run_adaptive(&program, &cfg, &source, window, &oracle_plan.injections, None, |_, _| None)
            .expect("slice-backed windows cannot fail");

    // Adaptive run: start plan-less; window k's profile delta folds into
    // the accumulator and the accumulated profile replans for window k+1.
    // The planning trace is the *seen-so-far prefix* — injection sites are
    // mined from the trace, so planning against a lone window would offer
    // the planner different sites than the oracle sees and convergence
    // would stall short of it. Once a whole epoch has been folded the
    // accumulator freezes: every window has contributed exactly once, and
    // folding repeats would over-weight them against the rest.
    let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
    let mut replan_ms: Vec<f64> = Vec::new();
    let adaptive = {
        let program = &program;
        let cfg_ref = &cfg;
        let trace_ref = &trace;
        let rep_ref = &rep;
        let acc = &mut acc;
        let replan_ms = &mut replan_ms;
        run_adaptive(
            program,
            cfg_ref,
            &source,
            window,
            &InjectionMap::new(),
            None,
            move |k, blocks| {
                if acc.events() as usize >= n {
                    return None; // converged: one full epoch folded
                }
                let t0 = Instant::now();
                // Warm the profiling replay with the trace slice preceding
                // the window (the same idiom as the sharded replayer's
                // warmup), so window-start cache and history state matches
                // continuous profiling.
                let start = k * window;
                let warmup = &rep_ref.blocks()[start.saturating_sub(PROFILE_WARMUP)..start];
                let delta = window_delta(
                    program,
                    warmup,
                    blocks,
                    cfg_ref,
                    SampleRate::EXACT,
                    (start % n) as u64,
                );
                acc.fold(&delta);
                let prof = acc.profile();
                let seen = (start + blocks.len()).min(n);
                let wtrace = Trace::new(
                    format!("{}-w{k}", program.name()),
                    trace_ref.blocks()[..seen].to_vec(),
                );
                let plan = Planner::new(program, &wtrace, &prof, IspyConfig::default()).plan();
                replan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Some(plan.injections)
            },
        )
        .expect("slice-backed windows cannot fail")
    };

    let windows = adaptive
        .windows
        .iter()
        .zip(oracle.windows.iter())
        .enumerate()
        .map(|(k, (a, o))| WindowReport {
            adaptive_mpki: a.mpki(),
            oracle_mpki: o.mpki(),
            replan_ms: replan_ms.get(k).copied().unwrap_or(0.0),
        })
        .collect();

    let wl = replan_workload(&program, &trace, &cfg);
    let (replan_full_ms, replan_delta_ms, plans_identical) =
        time_replan(&program, &trace, &wl, reps);

    AdaptOutcome {
        app,
        events,
        window,
        epochs,
        windows,
        swaps: adaptive.swaps,
        adaptive_total: adaptive.total,
        oracle_total: oracle.total,
        replan_full_ms,
        replan_delta_ms,
        plans_identical,
        delta_samples: wl.delta_samples,
        total_samples: wl.total_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::apps;

    #[test]
    fn replan_workload_delta_stays_under_one_percent() {
        let model = apps::kafka().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 10_000);
        let wl = replan_workload(&program, &trace, &SimConfig::default());
        assert!(wl.delta_samples >= 1);
        assert!(
            wl.delta_samples <= (wl.total_samples / 100).max(1),
            "{} of {} samples exceeds the 1% cap",
            wl.delta_samples,
            wl.total_samples
        );
        let (_full, _delta, identical) = time_replan(&program, &trace, &wl, 1);
        assert!(identical, "delta replan must reproduce the from-scratch plan");
    }

    #[test]
    fn adapt_run_converges_toward_the_oracle() {
        let outcome = run_adapt(apps::tomcat(), Scale::test(), 10_000, 2, 1);
        assert_eq!(outcome.windows.len(), 10);
        assert_eq!(outcome.swaps, 5, "every epoch-1 window installs a plan, then frozen");
        let first = &outcome.windows[0];
        let last = outcome.windows.last().unwrap();
        // Window 0 runs plan-less; epoch-2 windows run under the converged
        // plan and should match the oracle.
        assert!(first.adaptive_mpki >= first.oracle_mpki);
        assert!(
            last.adaptive_mpki <= last.oracle_mpki * 1.02,
            "converged window MPKI {} vs oracle {}",
            last.adaptive_mpki,
            last.oracle_mpki
        );
        // Epoch-2 replans are frozen, so their latency column reads zero.
        assert_eq!(last.replan_ms, 0.0);
        assert!(outcome.plans_identical);
    }
}
