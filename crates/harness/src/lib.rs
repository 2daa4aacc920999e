//! Experiment harness: regenerates every table and figure of the I-SPY
//! paper's evaluation (§V–§VI) against the synthetic workload substrate.
//!
//! The entry point is a [`Session`]: it prepares the nine applications at a
//! chosen [`Scale`], caches the expensive per-app artifacts (program, trace,
//! profile, baseline/ideal/AsmDB/I-SPY runs), and each figure driver in
//! [`figures`] renders one paper table/figure as a [`report::Table`].
//!
//! ```no_run
//! use ispy_harness::{figures, Scale, Session};
//!
//! let session = Session::new(Scale::quick());
//! let table = figures::fig10::run(&session); // headline speedup figure
//! println!("{table}");
//! ```
//!
//! The `repro` binary wraps this: `repro fig10`, `repro all --quick`,
//! `repro list`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod cache;
pub mod explain;
pub mod figures;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rss;
pub mod scenario;
pub mod session;
pub mod workload;

pub use adapt::{run_adapt, run_adapt_drift, AdaptOutcome};
pub use cache::ArtifactCache;
pub use explain::explain;
pub use fleet::{PlanService, ServeOutcome, ServeTier};
pub use report::Table;
pub use scenario::{run_scenario, ScenarioOutcome};
pub use session::{Comparison, Scale, Session};
