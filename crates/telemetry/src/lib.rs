//! Observability for the I-SPY reproduction: phase-scoped spans and named
//! counters.
//!
//! The build environment is fully offline (no `tracing`, no `metrics`
//! facade), so this crate is a minimal, dependency-free stand-in following
//! the `ispy-parallel` precedent. It provides exactly what the pipeline
//! needs:
//!
//! * **Spans** ([`Telemetry::span`]) — monotonic wall-clock timers scoped to
//!   a pipeline phase (`"core.plan"`, `"profile.observe_replay"`, …). Spans
//!   nest freely (each guard is independent) and are thread-safe, so they
//!   compose with `ispy-parallel` fan-outs: concurrent guards for the same
//!   name accumulate into one entry.
//! * **Counters** ([`Telemetry::add`]) — named monotonic `u64` counters for
//!   per-phase work accounting (window candidates examined, context subsets
//!   evaluated, coalescing merges, …).
//!
//! The crate is a pure registry: callers read it back through
//! [`Telemetry::counters`] and [`Telemetry::spans`]. Rendering is the
//! harness's job (`repro --metrics` writes both maps as JSON).
//!
//! Registries are explicit values; a process-wide default ([`global`]) exists
//! so deep library code (the planner's window search, the profiler) can
//! record without threading a handle through every signature. The `repro`
//! binary swaps in a fresh registry per figure ([`swap_global`]) and harvests
//! it afterwards.
//!
//! # Examples
//!
//! ```
//! use ispy_telemetry::Telemetry;
//!
//! let tele = Telemetry::new();
//! {
//!     let _phase = tele.span("plan");
//!     tele.add("plan.lines", 3);
//!     let _inner = tele.span("plan.window"); // spans nest
//! }
//! assert_eq!(tele.counter("plan.lines"), 3);
//! assert_eq!(tele.span_count("plan.window"), 1);
//! // Exporters read sorted snapshots of both maps.
//! assert_eq!(tele.counters()["plan.lines"], 3);
//! assert_eq!(tele.spans().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Accumulated statistics for one span name.
///
/// # Examples
///
/// ```
/// use ispy_telemetry::Telemetry;
///
/// let tele = Telemetry::new();
/// drop(tele.span("phase"));
/// drop(tele.span("phase"));
/// let stat = tele.spans()["phase"];
/// assert_eq!(stat.count, 2);
/// assert!(stat.total_ns >= 1); // monotonic clocks can tick coarsely, never backwards
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u128,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// A thread-safe registry of named counters and phase spans.
///
/// Cheap to share (`Arc<Telemetry>`); all mutation goes through interior
/// mutability, so `&Telemetry` suffices everywhere.
///
/// # Examples
///
/// ```
/// use ispy_telemetry::Telemetry;
///
/// let tele = Telemetry::new();
/// tele.add("widgets", 2);
/// tele.incr("widgets");
/// assert_eq!(tele.counter("widgets"), 3);
/// assert_eq!(tele.counter("absent"), 0);
/// ```
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().expect("counter lock");
        match counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// The current value of counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().expect("counter lock").get(name).copied().unwrap_or(0)
    }

    /// Starts a span; the returned guard records its wall time under `name`
    /// when dropped. Guards may nest and may live on different threads.
    pub fn span<'a>(&'a self, name: &str) -> SpanGuard<'a> {
        SpanGuard { telemetry: self, name: name.to_string(), start: Instant::now() }
    }

    /// Number of completed spans recorded under `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.lock().expect("span lock").get(name).map_or(0, |s| s.count)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.lock().expect("counter lock").clone()
    }

    /// Snapshot of all span statistics, sorted by name.
    pub fn spans(&self) -> BTreeMap<String, SpanStat> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Forgets every counter and span.
    pub fn clear(&self) {
        self.counters.lock().expect("counter lock").clear();
        self.spans.lock().expect("span lock").clear();
    }

    fn record_span(&self, name: &str, elapsed_ns: u128) {
        let mut spans = self.spans.lock().expect("span lock");
        let stat = spans.entry(name.to_string()).or_default();
        stat.count += 1;
        // Coarse clocks can report 0 ns for very short spans; count at least
        // one so "this phase ran" is visible in the totals.
        stat.total_ns += elapsed_ns.max(1);
    }
}

/// Records elapsed wall time into its [`Telemetry`] on drop.
///
/// # Examples
///
/// ```
/// use ispy_telemetry::Telemetry;
///
/// let tele = Telemetry::new();
/// {
///     let _guard = tele.span("work");
///     // ... the timed phase ...
/// } // guard drops here, recording the span
/// assert_eq!(tele.span_count("work"), 1);
/// ```
#[derive(Debug)]
pub struct SpanGuard<'a> {
    telemetry: &'a Telemetry,
    name: String,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.record_span(&self.name, self.start.elapsed().as_nanos());
    }
}

/// The process-wide registry slot behind [`global`] / [`swap_global`].
static GLOBAL: OnceLock<Mutex<Arc<Telemetry>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Arc<Telemetry>> {
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(Telemetry::new())))
}

/// The process-wide default registry.
///
/// Library code too deep to take a `&Telemetry` parameter (the planner's
/// window search, the profiler's replay) records here; the `repro` binary
/// swaps in a fresh registry per figure to attribute work per experiment.
///
/// # Examples
///
/// ```
/// ispy_telemetry::global().incr("doc.example");
/// assert!(ispy_telemetry::global().counter("doc.example") >= 1);
/// ```
pub fn global() -> Arc<Telemetry> {
    Arc::clone(&global_slot().lock().expect("global telemetry lock"))
}

/// Installs `tele` as the process-wide registry, returning the previous one.
///
/// In-flight span guards keep recording into the registry they started with
/// (they hold their own handle), so swapping is always safe.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ispy_telemetry::{swap_global, Telemetry};
///
/// let fresh = Arc::new(Telemetry::new());
/// let previous = swap_global(Arc::clone(&fresh));
/// fresh.incr("scoped.work");
/// assert_eq!(ispy_telemetry::global().counter("scoped.work"), 1);
/// swap_global(previous); // restore
/// ```
pub fn swap_global(tele: Arc<Telemetry>) -> Arc<Telemetry> {
    std::mem::replace(&mut *global_slot().lock().expect("global telemetry lock"), tele)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add("a", 5);
        t.incr("a");
        t.add("b", 0);
        assert_eq!(t.counter("a"), 6);
        assert_eq!(t.counter("b"), 0);
        assert_eq!(t.counters().len(), 2);
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            let _inner2 = t.span("inner");
        }
        assert_eq!(t.span_count("outer"), 1);
        assert_eq!(t.span_count("inner"), 2);
        assert!(t.spans()["inner"].total_ns >= 2);
    }

    #[test]
    fn spans_are_thread_safe() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _g = t.span("shared");
                        t.incr("shared.count");
                    }
                });
            }
        });
        assert_eq!(t.span_count("shared"), 400);
        assert_eq!(t.counter("shared.count"), 400);
    }

    #[test]
    fn clear_resets() {
        let t = Telemetry::new();
        t.incr("x");
        drop(t.span("y"));
        t.clear();
        assert_eq!(t.counter("x"), 0);
        assert_eq!(t.span_count("y"), 0);
    }

    #[test]
    fn swap_global_roundtrip() {
        let fresh = Arc::new(Telemetry::new());
        let prev = swap_global(Arc::clone(&fresh));
        global().incr("swap.test");
        assert_eq!(fresh.counter("swap.test"), 1);
        let back = swap_global(prev);
        assert!(Arc::ptr_eq(&back, &fresh));
    }
}
