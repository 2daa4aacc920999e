//! I-SPY's offline analysis — the paper's primary contribution.
//!
//! Given a miss-annotated dynamic CFG (from [`ispy_profile`]) the
//! [`Planner`] decides, for every frequently-missing I-cache line:
//!
//! 1. **When/where** — a *timely* injection site 27–200 cycles before the
//!    miss, found by a bounded highest-probability-path search over the
//!    dynamic CFG ([`ispy_profile::window`]) and chosen by coverage and
//!    precision ([`window`]).
//! 2. **Under which condition** — a miss-inducing *context* of up to four
//!    predictor basic blocks, chosen by exact conditional probability
//!    ([`context`]); encoded as a 16-bit Bloom-style context hash.
//! 3. **Together with what** — spatially-near targets that share a site and
//!    context are *coalesced* into one instruction with an 8-bit line
//!    bitmask ([`coalesce`]).
//!
//! The output is an [`InjectionMap`](ispy_isa::InjectionMap) of `prefetch` /
//! `Cprefetch` / `Lprefetch` / `CLprefetch` instructions (§IV's decision
//! diagram) plus [`PlanStats`] for static-footprint accounting.
//!
//! # Examples
//!
//! ```
//! use ispy_core::{IspyConfig, Planner};
//! use ispy_profile::{profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::cassandra().scaled_down(30);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 30_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//!
//! let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();
//! assert!(plan.injections.num_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod coalesce;
pub mod config;
pub mod context;
pub mod planner;
pub mod provenance;
pub mod window;

pub use config::IspyConfig;
pub use planner::{Plan, PlanStats, Planner, PlannerBaseline};
pub use provenance::{PlannedLine, ProvenanceRecord};
