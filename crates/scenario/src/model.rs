//! The declarative scenario model: what a production-shaped workload *is*,
//! before any trace exists.
//!
//! A [`Scenario`] names a seeded arrival process, a phase schedule, and a
//! tenant set. Everything downstream — the merged program, the tenant-switch
//! schedule, the streamed block sequence — is a pure function of this value
//! plus an event count, so two compiles of the same scenario are identical
//! and a scenario is as cheap to ship around as a config struct.

use ispy_sim::SwitchEffect;
use ispy_trace::{apps, AppModel};

/// How load arrives over the scenario's lifetime.
///
/// The arrival process modulates how long each tenant's scheduling slice is
/// at a given point in the trace: more load for a tenant means longer
/// uninterrupted runs of its blocks, less load means it gets context-switched
/// away sooner. All three processes are deterministic functions of the event
/// index, so the materialized switch schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Constant load: every tenant's slice length is its weighted quantum.
    Steady,
    /// A diurnal sinusoid of the given period (in trace events). Tenant `t`
    /// of `n` is phase-shifted by `t/n` of a cycle, so tenants peak at
    /// different "times of day" — the classic anti-correlated co-location.
    Diurnal {
        /// Full sinusoid period in trace events (0 = an eighth of the trace).
        period: u64,
    },
    /// A burst/storm process: tenant 0 (the bursty tenant) runs at `boost`×
    /// its weighted quantum during the duty window of each period and at 1×
    /// outside it. Storms are bursts with a high boost and small duty cycle.
    Burst {
        /// Burst repetition period in trace events (0 = an eighth of the trace).
        period: u64,
        /// Portion of each period (percent, 1..=100) the burst is active.
        duty_pct: u8,
        /// Slice-length multiplier for the bursty tenant while active.
        boost: u32,
    },
}

/// One phase of the scenario: a named span of events with its own request
/// mix and working-set scale.
///
/// Phases model coarse mode changes — warmup, steady serving, a GC or
/// compaction storm — that shift *what* the tenants execute without changing
/// the programs themselves. At a phase boundary every tenant's request mix
/// is rotated by `mix_rotation` (hot request types change identity) and
/// tempered by `wss_scale` (a scale > 1 flattens the mix toward uniform, so
/// more request paths are live at once and the instruction working set
/// grows; < 1 sharpens it).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable phase name, reported per-phase by the harness.
    pub name: String,
    /// Events this phase lasts; `0` means "an even share of whatever the
    /// explicitly-sized phases leave over", so phase schedules mixing fixed
    /// and open-ended phases stretch to any trace length.
    pub events: u64,
    /// Positions to rotate each tenant's request-mix weights by.
    pub mix_rotation: usize,
    /// Working-set scale: each weight `w` becomes `w^(1/scale)`,
    /// renormalized. Must be positive.
    pub wss_scale: f64,
}

impl PhaseSpec {
    /// A phase with the default (unrotated, scale-1) request mix.
    pub fn new(name: impl Into<String>, events: u64) -> Self {
        PhaseSpec { name: name.into(), events, mix_rotation: 0, wss_scale: 1.0 }
    }

    /// Sets the request-mix rotation.
    #[must_use]
    pub fn with_rotation(mut self, k: usize) -> Self {
        self.mix_rotation = k;
        self
    }

    /// Sets the working-set scale.
    #[must_use]
    pub fn with_wss_scale(mut self, s: f64) -> Self {
        self.wss_scale = s;
        self
    }
}

/// One co-located application sharing the simulated core's front end.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The app model this tenant executes.
    pub model: AppModel,
    /// Relative scheduling weight (share of the core), must be positive.
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant running `model` with scheduling weight `weight`.
    pub fn new(model: AppModel, weight: u32) -> Self {
        assert!(weight > 0, "tenant weight must be positive");
        TenantSpec { model, weight }
    }
}

/// A complete declarative scenario: arrival process + phase schedule +
/// tenant set + interference model.
///
/// # Examples
///
/// ```
/// use ispy_scenario::Scenario;
///
/// let sc = Scenario::preset("burst").unwrap().scaled_down(20);
/// let compiled = sc.compile(50_000);
/// assert_eq!(compiled.total_events(), 50_000);
/// assert!(compiled.num_tenants() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports and artifact labels).
    pub name: String,
    /// Seed for the per-tenant walkers (combined with the tenant index).
    pub seed: u64,
    /// The arrival process modulating tenant slice lengths.
    pub arrival: Arrival,
    /// The phase schedule; the last phase may be open-ended (`events == 0`).
    pub phases: Vec<PhaseSpec>,
    /// The co-located tenants, scheduled round-robin by weight.
    pub tenants: Vec<TenantSpec>,
    /// Base scheduling quantum in trace events (per weight unit).
    pub quantum: u64,
    /// What a context switch does to the L1I/L2 (the interference model).
    pub effect: SwitchEffect,
}

impl Scenario {
    /// The builtin scenario presets, resolvable by [`Scenario::preset`].
    pub const PRESETS: [&'static str; 4] = ["steady", "diurnal", "burst", "storm"];

    /// Resolves a named preset scenario, `None` for unknown names.
    ///
    /// All presets co-locate latency-critical serving tenants with noisy
    /// neighbours at full (paper-scale) app size; call
    /// [`Scenario::scaled_down`] to shrink them for tests and smoke runs.
    ///
    /// * `steady` — two tenants, constant load, no phases beyond warmup.
    ///   The control: multi-tenant interference with no temporal structure.
    /// * `diurnal` — three tenants on anti-correlated sinusoidal load.
    /// * `burst` — a bursty front-end tenant (50% duty cycle) over a steady
    ///   background tenant, with warmup → steady → compaction phases.
    /// * `storm` — the adversarial case: a 4× burst at 10% duty cycle over
    ///   three background tenants, full cache flush on every switch.
    pub fn preset(name: &str) -> Option<Scenario> {
        let sc = match name {
            "steady" => Scenario {
                name: "steady".into(),
                seed: 0x5EED_0001,
                arrival: Arrival::Steady,
                phases: vec![PhaseSpec::new("warmup", 0), PhaseSpec::new("steady", 0)],
                tenants: vec![
                    TenantSpec::new(apps::finagle_http(), 2),
                    TenantSpec::new(apps::kafka(), 1),
                ],
                quantum: 2_048,
                effect: SwitchEffect::Thrash { l1i_pct: 60, l2_pct: 25 },
            },
            "diurnal" => Scenario {
                name: "diurnal".into(),
                seed: 0x5EED_0002,
                arrival: Arrival::Diurnal { period: 0 },
                phases: vec![PhaseSpec::new("warmup", 0), PhaseSpec::new("steady", 0)],
                tenants: vec![
                    TenantSpec::new(apps::finagle_http(), 2),
                    TenantSpec::new(apps::cassandra(), 2),
                    TenantSpec::new(apps::mediawiki(), 1),
                ],
                quantum: 2_048,
                effect: SwitchEffect::Thrash { l1i_pct: 60, l2_pct: 25 },
            },
            "burst" => Scenario {
                name: "burst".into(),
                seed: 0x5EED_0003,
                arrival: Arrival::Burst { period: 0, duty_pct: 50, boost: 2 },
                phases: vec![
                    PhaseSpec::new("warmup", 0),
                    PhaseSpec::new("steady", 0),
                    PhaseSpec::new("compaction", 0).with_rotation(2).with_wss_scale(2.0),
                ],
                tenants: vec![
                    TenantSpec::new(apps::finagle_chirper(), 2),
                    TenantSpec::new(apps::cassandra(), 1),
                ],
                quantum: 2_048,
                effect: SwitchEffect::Thrash { l1i_pct: 60, l2_pct: 25 },
            },
            "storm" => Scenario {
                name: "storm".into(),
                seed: 0x5EED_0004,
                arrival: Arrival::Burst { period: 0, duty_pct: 10, boost: 4 },
                phases: vec![
                    PhaseSpec::new("warmup", 0),
                    PhaseSpec::new("steady", 0),
                    PhaseSpec::new("storm", 0).with_rotation(1).with_wss_scale(3.0),
                    PhaseSpec::new("recovery", 0),
                ],
                tenants: vec![
                    TenantSpec::new(apps::tomcat(), 2),
                    TenantSpec::new(apps::wordpress(), 1),
                    TenantSpec::new(apps::drupal(), 1),
                    TenantSpec::new(apps::verilator(), 1),
                ],
                quantum: 1_024,
                effect: SwitchEffect::Flush,
            },
            _ => return None,
        };
        Some(sc)
    }

    /// Shrinks every tenant's app model by `factor` (see
    /// [`AppModel::scaled_down`]) — presets are paper-scale by default.
    #[must_use]
    pub fn scaled_down(mut self, factor: u32) -> Self {
        self.tenants = self
            .tenants
            .into_iter()
            .map(|t| TenantSpec { model: t.model.scaled_down(factor), weight: t.weight })
            .collect();
        self
    }

    /// Replaces the walker seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks structural validity; compile panics on the same conditions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: no tenants, no
    /// phases, a non-positive `wss_scale`, a zero quantum, or a degenerate
    /// arrival process.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".into());
        }
        if self.phases.is_empty() {
            return Err("scenario needs at least one phase".into());
        }
        if self.quantum == 0 {
            return Err("scheduling quantum must be positive".into());
        }
        for p in &self.phases {
            // NaN must fail too, so the comparison is written positively.
            let positive = p.wss_scale.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
            if !positive {
                return Err(format!("phase '{}' has non-positive wss_scale", p.name));
            }
        }
        match self.arrival {
            Arrival::Burst { duty_pct, boost, .. } => {
                if duty_pct == 0 || duty_pct > 100 {
                    return Err("burst duty cycle must be in 1..=100 percent".into());
                }
                if boost == 0 {
                    return Err("burst boost must be positive".into());
                }
            }
            Arrival::Steady | Arrival::Diurnal { .. } => {}
        }
        Ok(())
    }
}

/// Tempers a request mix toward (scale > 1) or away from (scale < 1) the
/// uniform distribution: each weight becomes `w^(1/scale)`, renormalized.
pub(crate) fn temper(weights: &[f64], scale: f64) -> Vec<f64> {
    let mut out: Vec<f64> = weights.iter().map(|w| w.max(1e-12).powf(1.0 / scale)).collect();
    let sum: f64 = out.iter().sum();
    for w in &mut out {
        *w /= sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_validate() {
        for name in Scenario::PRESETS {
            let sc = Scenario::preset(name).expect(name);
            assert_eq!(sc.name, name);
            sc.validate().expect(name);
        }
        assert!(Scenario::preset("nope").is_none());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut sc = Scenario::preset("steady").unwrap();
        sc.tenants.clear();
        assert!(sc.validate().is_err());

        let mut sc = Scenario::preset("steady").unwrap();
        sc.phases[0].wss_scale = 0.0;
        assert!(sc.validate().unwrap_err().contains("wss_scale"));

        let mut sc = Scenario::preset("steady").unwrap();
        sc.quantum = 0;
        assert!(sc.validate().is_err());

        let mut sc = Scenario::preset("steady").unwrap();
        sc.arrival = Arrival::Burst { period: 100, duty_pct: 0, boost: 2 };
        assert!(sc.validate().is_err());
    }

    #[test]
    fn temper_flattens_and_sharpens() {
        let w = [0.7, 0.2, 0.1];
        let flat = temper(&w, 4.0);
        assert!((flat.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(flat[0] < w[0] && flat[2] > w[2], "scale > 1 flattens");
        let sharp = temper(&w, 0.5);
        assert!(sharp[0] > w[0], "scale < 1 sharpens");
        let same = temper(&w, 1.0);
        for (a, b) in same.iter().zip(&w) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
