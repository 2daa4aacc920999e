//! Profiling: miss-annotated dynamic control-flow graphs.
//!
//! The paper's online phase (§IV step 1) samples an application in
//! production with Intel LBR (last 32 branches, with cycle counts) and PEBS
//! (`frontend_retired.l1i_miss`), then splices the two into a dynamic CFG
//! annotated with I-cache misses. This crate reproduces that pipeline
//! against the simulator: a profiling replay observes every block entry and
//! every L1I miss, recording
//!
//! * per-block execution counts and average cycle costs (the LBR cycle
//!   field the paper uses instead of AsmDB's global IPC estimate),
//! * dynamic edges (branch source → target),
//! * per-missing-line statistics: where the miss occurs, how often, and
//!   which blocks were in the 32-deep history before it (the PEBS+LBR
//!   snapshot), and
//! * exact miss positions, which the offline analysis uses to evaluate
//!   candidate contexts' conditional probabilities over the full trace.
//!
//! A [`SampleRate`] knob emulates PEBS sampling; the default records every
//! miss (an exact profile — strictly more information than the paper had,
//! with sampling available for the ablation study).
//!
//! # Examples
//!
//! ```
//! use ispy_profile::{profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::drupal().scaled_down(40);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 20_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//! assert!(prof.misses.total_misses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod collect;
pub mod delta;
pub mod digest;
pub mod dyncfg;
pub mod miss;
pub mod scan;
pub mod window;

pub use collect::{profile, Profile, ProfileReplays, SampleRate};
pub use delta::{window_delta, ProfileAccumulator, ProfileDelta};
pub use digest::ContentHasher;
pub use dyncfg::DynCfg;
pub use miss::{LineMissStats, MissProfile, OrderedLine};
pub use scan::{scan_joint, JointCounts, JointQuery};
pub use window::SiteCandidate;
