//! Fleet-scale profile aggregation: the paper's deployment model, scaled
//! past one machine.
//!
//! I-SPY's setting (§IV) is a datacenter fleet that continuously profiles
//! production machines and plans prefetch injections *offline* from the
//! aggregated data. The rest of this workspace plans from exactly one
//! profile; this crate closes the gap on top of the artifact layer:
//!
//! 1. **Ingest** — [`FleetManifest::scan`] classifies a directory of
//!    `.iprof`/`.itrace` artifacts by app in bounded memory (one file
//!    resident at a time, traces digested in chunks and opened with the
//!    streaming decoder) and orders members canonically by content digest.
//! 2. **Merge** — [`ConsensusBuilder`] folds member profiles into one
//!    consensus profile per app: weighted sums of every integer statistic,
//!    exec-weighted mean cycle costs, and per-line/per-context *vote
//!    thresholds* ([`LINE_VOTE`], [`CTX_VOTE`]) that drop misses and
//!    predictor blocks only a minority of machines observed. Folding follows
//!    the manifest's canonical order, so the result is invariant to ingest
//!    order — down to the output bytes.
//! 3. **Plan** — [`plan_consensus`] runs the existing planner over the
//!    aggregate through a shared [`ispy_core::PlannerBaseline`], so a serve
//!    path can replan cheaply as new profiles arrive.
//!
//! The harness exposes the pipeline as `repro fleet ingest|merge|plan|serve`
//! (the `serve` tier structure lives there, next to the artifact cache it
//! reuses); `docs/FLEET.md` specifies the merge semantics and walks through
//! the CLI.
//!
//! # Examples
//!
//! Merge two machines' profiles of the same binary and plan from the
//! consensus:
//!
//! ```
//! use ispy_core::PlannerBaseline;
//! use ispy_fleet::{plan_consensus, ConsensusBuilder};
//! use ispy_profile::{profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::drupal().scaled_down(60);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 3_000);
//!
//! let mut builder = ConsensusBuilder::new("drupal");
//! for machine in 0..2 {
//!     let t = program.record_trace(model.input_variant(machine), 3_000);
//!     builder.fold(&profile(&program, &t, &SimConfig::default(), SampleRate::EXACT), 1).unwrap();
//! }
//! let (consensus, stats) = builder.finish().unwrap();
//! assert_eq!(stats.members, 2);
//!
//! let baseline = PlannerBaseline::new();
//! let plan = plan_consensus(&program, &trace, &consensus, &baseline);
//! assert!(plan.stats.ops_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod merge;
pub mod store;

pub use error::FleetError;
pub use merge::{merge_all, merge_app, plan_consensus, ConsensusBuilder, MergeStats};
pub use store::{digest_bytes, Digest, FleetManifest, ProfileEntry, TraceEntry};

/// Fraction of member profiles that must observe a missing line for it to
/// enter the consensus. The vote count it demands clamps to at least one,
/// so a single-member fleet always passes through verbatim.
pub const LINE_VOTE: f64 = 0.5;

/// Fraction of a line's voters that must see a predictor block in their
/// history windows for it to stay in the consensus. Like [`LINE_VOTE`], its
/// vote count clamps to at least one.
pub const CTX_VOTE: f64 = 0.5;
