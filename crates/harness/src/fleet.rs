//! The fleet plan service: answer "give me a plan for app X" through a
//! three-tier path, cheapest first.
//!
//! Mirrors the multi-layer fetch pipelines of production plan services
//! (ground truth → predictive → on-demand):
//!
//! 1. **Warm** — a plan for this app/scale/config is already in the
//!    [`ArtifactCache`]; load and return it.
//! 2. **Replan** — the fleet directory holds a merged consensus profile
//!    (and a representative `.itrace`); run the planner over the aggregate,
//!    store the plan, return it.
//! 3. **Cold** — nothing aggregated yet; prepare the app from scratch
//!    (generate, record, profile — exactly the single-machine pipeline),
//!    plan, store, return.
//!
//! Every answer from the replan or cold tier is stored in the cache, so
//! the next request for that app is a warm hit; each of those plans goes
//! through a fresh [`PlannerBaseline`].
//!
//! Every tier records a latency span and a hit counter in
//! [`ispy_telemetry`] (`fleet.serve.{warm,replan,cold}`), so a `serve`
//! session's tier mix is observable without reading logs.

use crate::cache::ArtifactCache;
use crate::session::{AppContext, Scale};
use ispy_core::planner::Plan;
use ispy_core::PlannerBaseline;
use ispy_fleet::{store, FleetManifest, CTX_VOTE, LINE_VOTE};
use ispy_trace::apps;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Which tier answered a plan request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTier {
    /// Tier 1: the artifact cache already held the plan.
    Warm,
    /// Tier 2: replanned from the fleet's consensus profile.
    Replan,
    /// Tier 3: planned from a from-scratch single-machine pipeline.
    Cold,
}

impl ServeTier {
    /// The tier's telemetry suffix (`fleet.serve.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            ServeTier::Warm => "warm",
            ServeTier::Replan => "replan",
            ServeTier::Cold => "cold",
        }
    }
}

/// One answered plan request.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The app served.
    pub app: String,
    /// Which tier answered.
    pub tier: ServeTier,
    /// The plan itself.
    pub plan: Plan,
}

/// The three-tier plan service over a fleet directory and an artifact
/// cache. Thread-compatible: the fleet manifest is scanned lazily, once,
/// on the first request that misses tier 1.
pub struct PlanService {
    fleet_dir: PathBuf,
    scale: Scale,
    cache: ArtifactCache,
    manifest: Mutex<Option<Arc<FleetManifest>>>,
}

impl PlanService {
    /// Opens a service over `fleet_dir`, memoizing plans in a cache at
    /// `cache_dir` keyed by `scale` and the default configs.
    pub fn new(fleet_dir: impl Into<PathBuf>, cache_dir: impl AsRef<Path>, scale: Scale) -> Self {
        PlanService {
            fleet_dir: fleet_dir.into(),
            scale,
            cache: ArtifactCache::new(cache_dir.as_ref(), scale),
            manifest: Mutex::new(None),
        }
    }

    /// The plan-cache algorithm tag: folds the consensus thresholds in so a
    /// re-tuned fleet never serves a stale plan as a warm hit.
    fn algo(&self) -> String {
        format!(
            "fleet-lv{:03}-cv{:03}",
            (LINE_VOTE * 100.0).round() as u32,
            (CTX_VOTE * 100.0).round() as u32,
        )
    }

    /// The fleet manifest, scanned once on first use.
    fn manifest(&self) -> Result<Arc<FleetManifest>, String> {
        let mut slot = self.manifest.lock().expect("manifest lock");
        if let Some(m) = slot.as_ref() {
            return Ok(Arc::clone(m));
        }
        let m = Arc::new(
            FleetManifest::scan(&self.fleet_dir)
                .map_err(|e| format!("cannot scan fleet dir {}: {e}", self.fleet_dir.display()))?,
        );
        *slot = Some(Arc::clone(&m));
        Ok(m)
    }

    /// Answers one plan request through the tiers.
    ///
    /// # Errors
    ///
    /// A human-readable message when every tier fails: no cached plan, no
    /// consensus artifacts for `app`, and `app` is not one of the nine
    /// built-in models either.
    pub fn serve(&self, app: &str) -> Result<ServeOutcome, String> {
        let tele = ispy_telemetry::global();

        {
            let _span = tele.span("fleet.serve.warm");
            if let Some(plan) = self.cache.load_plan(app, &self.algo()) {
                tele.incr("fleet.serve.warm");
                return Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Warm, plan });
            }
        }

        if let Some(plan) = self.try_replan(app)? {
            return Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Replan, plan });
        }

        let _span = tele.span("fleet.serve.cold");
        let Some(model) = apps::by_name(app) else {
            return Err(format!(
                "cannot serve `{app}`: no cached plan, no consensus artifacts in {}, and no \
                 built-in model of that name (known: {})",
                self.fleet_dir.display(),
                apps::NAMES.join(",")
            ));
        };
        let ctx = AppContext::prepare_with(model, self.scale, Some(&self.cache));
        let plan = ispy_fleet::plan_consensus(
            &ctx.program,
            &ctx.trace,
            &ctx.profile,
            &PlannerBaseline::new(),
        );
        self.cache.store_plan(app, &self.algo(), &plan);
        tele.incr("fleet.serve.cold");
        Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Cold, plan })
    }

    /// Tier 2: plan from the fleet's merged aggregate, if one exists.
    ///
    /// Needs both the consensus `.iprof` (written by `repro fleet merge`)
    /// and a representative `.itrace` in the fleet directory; returns
    /// `Ok(None)` when either is absent so the caller can fall through to
    /// the cold tier. A *damaged* consensus artifact is an error, not a
    /// fall-through — silently replacing fleet data with a single-machine
    /// plan would be a correctness trap.
    fn try_replan(&self, app: &str) -> Result<Option<Plan>, String> {
        let consensus_path = store::consensus_profile_path(&self.fleet_dir, app);
        if !consensus_path.exists() {
            return Ok(None);
        }
        let tele = ispy_telemetry::global();
        let _span = tele.span("fleet.serve.replan");
        let manifest = self.manifest()?;
        let Some(trace_entry) = manifest.canonical_trace(app) else {
            return Ok(None);
        };
        let (_label, consensus) = ispy_profile::artifact::read_profile(&consensus_path)
            .map_err(|e| format!("damaged consensus profile {}: {e}", consensus_path.display()))?;
        let (program, trace) = ispy_trace::artifact::read_recording(&trace_entry.path)
            .map_err(|e| format!("damaged recording {}: {e}", trace_entry.path.display()))?;
        let plan =
            ispy_fleet::plan_consensus(&program, &trace, &consensus, &PlannerBaseline::new());
        self.cache.store_plan(app, &self.algo(), &plan);
        tele.incr("fleet.serve.replan");
        Ok(Some(plan))
    }
}
