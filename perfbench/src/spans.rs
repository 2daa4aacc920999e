//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps a span around every call it makes into a layer of
//! the program (`trace.generate`, `core.plan`, `sim.ispy`, ...). Spans are
//! kept in memory and written out once, when the run ends. Each span is
//! tagged with the phase it ran in (set-up or the index of a timed op), so
//! self time can be attributed per op. Spans may come from the replanning
//! helper thread of `run_adaptive`; they still nest inside the main-thread
//! span that spawned the helper, so parents are found by interval
//! containment rather than by a per-thread stack.
//!
//! When recording is off, [`Spans::span`] is a plain call and
//! [`Spans::timed`] costs two clock reads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Phase tag of spans recorded during set-up.
pub const SETUP: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    phase: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self nanoseconds per span name, over every phase.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of the outermost spans' durations inside timed ops.
    pub op_covered_ns: u64,
    /// Sum of the outermost spans' durations inside set-up.
    pub setup_covered_ns: u64,
}

/// The span recorder. Shared by reference; safe to use from the replanning
/// helper thread.
pub struct Spans {
    enabled: AtomicBool,
    origin: Instant,
    phase: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Spans {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Spans {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            phase: AtomicU32::new(SETUP),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Switches recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Tags later spans with `phase` (an op index, or [`SETUP`]).
    pub fn set_phase(&self, phase: u32) {
        self.phase.store(phase, Ordering::Relaxed);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            return f();
        }
        self.timed(name, f).0
    }

    /// Runs `f`, returning its result and its wall time in nanoseconds, and
    /// records a span when recording is on.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.on() {
            let phase = self.phase.load(Ordering::Relaxed);
            self.spans.lock().expect("span lock").push(Span { name, phase, start_ns, end_ns });
        }
        (out, end_ns - start_ns)
    }

    /// Adds `n` to the benchmark-side count `name` while recording is on.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on() {
            *self.counts.lock().expect("count lock").entry(name).or_default() += n;
        }
    }

    /// The recorded counts.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts.lock().expect("count lock").clone()
    }

    /// Self time per span name and the covered time per phase kind.
    ///
    /// A span's self time is its duration minus the time its direct
    /// children cover. Children of one span never overlap each other, so
    /// the self times of a phase's spans sum to the duration of its
    /// outermost spans.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.lock().expect("span lock").clone();
        let mut out = Summary::default();
        for (span, parent, self_ns) in with_parents(&spans) {
            *out.self_ns.entry(span.name).or_default() += self_ns;
            if parent.is_none() {
                let d = span.end_ns - span.start_ns;
                if span.phase == SETUP {
                    out.setup_covered_ns += d;
                } else {
                    out.op_covered_ns += d;
                }
            }
        }
        out
    }

    /// Writes every span as one JSON object per line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span lock").clone();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, parent, self_ns)) in with_parents(&spans).into_iter().enumerate() {
            let phase = match span.phase {
                SETUP => "\"setup\"".to_string(),
                op => op.to_string(),
            };
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"phase\": {phase}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        f.flush()
    }
}

/// Sorts spans by start (outermost first on ties) and pairs each with the
/// index of its innermost enclosing span of the same phase and its self
/// time. Indices refer to the sorted order.
fn with_parents(spans: &[Span]) -> Vec<(Span, Option<usize>, u64)> {
    let mut sorted = spans.to_vec();
    sorted.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut out: Vec<(Span, Option<usize>, u64)> = Vec::with_capacity(sorted.len());
    let mut stack: Vec<usize> = Vec::new();
    for span in sorted {
        while let Some(&top) = stack.last() {
            let t = &out[top].0;
            if t.phase == span.phase && t.end_ns >= span.end_ns {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().copied();
        let d = span.end_ns - span.start_ns;
        if let Some(p) = parent {
            out[p].2 = out[p].2.saturating_sub(d);
        }
        stack.push(out.len());
        out.push((span, parent, d));
    }
    out
}
