//! Production-shaped workload scenarios for the I-SPY reproduction.
//!
//! The paper's evaluation replays one application at a time under a steady
//! request mix. Production front-end stalls are shaped by everything that
//! setup omits: load arrives in bursts, services move through phases
//! (warmup, steady serving, GC/compaction storms), and co-located tenants
//! evict each other's code from the shared L1I/L2. This crate adds a
//! declarative scenario engine that models all three — deterministically,
//! from a seed, in bounded memory — so prefetch plans can be judged under
//! the conditions that actually produce tail latency.
//!
//! The pipeline has three stages:
//!
//! 1. [`Scenario`] — the declarative model: a seeded [`Arrival`] process,
//!    a [`PhaseSpec`] schedule, and a [`TenantSpec`] set (see
//!    [`Scenario::preset`] for the builtin shapes).
//! 2. [`CompiledScenario`] — [`Scenario::compile`] merges the tenant
//!    programs into one address-disjoint [`Program`](ispy_trace::Program),
//!    materializes the tenant-switch/phase
//!    [`SwitchSchedule`](ispy_sim::SwitchSchedule), and derives per-phase
//!    request-mix tables.
//! 3. [`ScenarioSource`] — streams the interleaved block trace through the
//!    simulator's [`BlockSource`](ispy_trace::BlockSource) protocol, so
//!    `run_streaming` replays scenarios unchanged, in bounded memory, and
//!    byte-for-byte equal to `run` over the drained trace.
//!
//! # Examples
//!
//! ```
//! use ispy_scenario::Scenario;
//! use ispy_sim::{run_streaming, RunOptions, SimConfig};
//! use std::sync::Arc;
//!
//! let compiled = Scenario::preset("burst").unwrap().scaled_down(20).compile(30_000);
//! let mut cfg = SimConfig::default();
//! cfg.schedule = Some(Arc::new(compiled.schedule().clone()));
//! let mut source = compiled.source();
//! let r = run_streaming(
//!     compiled.program(),
//!     &mut source,
//!     &cfg,
//!     RunOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(r.blocks, 30_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod model;
pub mod source;

pub use compile::CompiledScenario;
pub use model::{Arrival, PhaseSpec, Scenario, TenantSpec};
pub use source::ScenarioSource;
