//! Trace-driven microarchitectural simulator — the reproduction's stand-in
//! for the modified ZSim the paper evaluates with (§V).
//!
//! The simulator replays a recorded block [`Trace`](ispy_trace::Trace)
//! through the Table-I memory hierarchy, models front-end stalls caused by
//! L1 I-cache misses, executes injected code-prefetch instructions
//! (including the conditional/coalesced semantics backed by a simulated LBR
//! plus counting Bloom filter), and reports the metrics the paper's
//! evaluation section is built from: cycles, MPKI, prefetch accuracy, and
//! dynamic instruction overhead.
//!
//! # Examples
//!
//! ```
//! use ispy_sim::{run, RunOptions, SimConfig};
//! use ispy_trace::apps;
//!
//! let model = apps::finagle_http().scaled_down(20);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 20_000);
//!
//! let base = run(&program, &trace, &SimConfig::default(), RunOptions::default());
//! let ideal = run(&program, &trace, &SimConfig::ideal(), RunOptions::default());
//! assert!(ideal.cycles <= base.cycles); // an ideal I-cache never slows you down
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cache;
pub mod config;
pub mod engine;
pub mod fxhash;
mod hierarchy;
mod l1d;
pub mod lbr;
pub mod metrics;
pub mod outcome;
pub mod switch;

pub use adaptive::{run_adaptive, AdaptiveRun, SliceWindows};
pub use cache::{Cache, CacheParams, InsertPriority};
pub use config::SimConfig;
pub use engine::{run, run_streaming, RunOptions, SimObserver};
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use lbr::{BloomSig, CountingBloom, Lbr};
pub use metrics::SimResult;
pub use outcome::{InjectionOutcome, OutcomeLedger};
pub use switch::{SwitchEffect, SwitchSchedule};
