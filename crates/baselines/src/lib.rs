//! Baseline prefetchers the paper compares I-SPY against.
//!
//! * [`asmdb`] — a prototype of AsmDB (Ayers et al., ISCA 2019), the
//!   state-of-the-art software prefetcher in the paper's evaluation:
//!   link-time injection of *unconditional, single-line* code prefetches at
//!   predecessors whose fan-out is below a threshold (§II-C, Fig. 3).
//! * [`spatial`] — the Contiguous-8 vs Non-contiguous-8 study behind §II-D's
//!   coalescing motivation (Fig. 5).
//! * [`ideal`] — the no-miss ideal cache upper bound.
//!
//! # Examples
//!
//! ```
//! use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
//! use ispy_profile::{profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::cassandra().scaled_down(30);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 30_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//! let plan = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();
//! assert!(plan.injections.num_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asmdb;
pub mod ideal;
pub mod spatial;

/// Misses a line needs before AsmDB or the spatial prefetchers target it.
/// Both search the timely window of I-SPY's default distances
/// ([`ispy_core::config::DEFAULT_MIN_PREFETCH_CYCLES`] to
/// [`ispy_core::config::DEFAULT_MAX_PREFETCH_CYCLES`] cycles).
pub const BASELINE_MIN_MISS_COUNT: u64 = 2;

pub use asmdb::{AsmDbConfig, AsmDbPlanner};
pub use ideal::ideal_result;
pub use spatial::{SpatialMode, SpatialPlanner};
