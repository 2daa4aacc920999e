//! Recorded execution traces.

use crate::block::BlockId;
use crate::program::Program;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A recorded dynamic execution: the sequence of basic blocks a program
/// visited, in order.
///
/// Traces are recorded once per (application, input) pair and replayed
/// through the simulator under every prefetching configuration, exactly like
/// the paper's trace-driven ZSim methodology — this guarantees all
/// configurations see the identical instruction stream.
///
/// # Examples
///
/// ```
/// use ispy_trace::apps;
///
/// let model = apps::cassandra();
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let stats = trace.stats(&program);
/// assert!(stats.total_instrs > 5_000); // blocks hold multiple instructions
/// ```
#[derive(Clone)]
pub struct Trace {
    name: String,
    blocks: Vec<BlockId>,
    /// Values later stages derive from the events alone; see
    /// [`Trace::derived`]. Shared by clones, which hold the same events.
    derived: Arc<DerivedMemo>,
}

/// A trace's memo of derived values: `(key, value)` pairs in insertion
/// order. Its lock is held while a missing value is built, so concurrent
/// requests for one key build it once.
#[derive(Default)]
struct DerivedMemo(Mutex<Vec<(u64, Arc<dyn Any + Send + Sync>)>>);

/// Two traces are equal when their names and events are; what either has
/// derived so far is not part of its value.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.blocks == other.blocks
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").field("name", &self.name).field("blocks", &self.blocks).finish()
    }
}

/// Aggregate statistics over a trace; see [`Trace::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Number of block events.
    pub events: u64,
    /// Total dynamic instruction count.
    pub total_instrs: u64,
    /// Total dynamic data accesses.
    pub total_data_accesses: u64,
    /// Number of distinct blocks executed.
    pub distinct_blocks: u64,
    /// Number of distinct instruction cache lines touched.
    pub distinct_lines: u64,
}

impl Trace {
    /// Wraps a recorded block sequence.
    pub fn new(name: impl Into<String>, blocks: Vec<BlockId>) -> Self {
        Trace { name: name.into(), blocks, derived: Arc::default() }
    }

    /// Name of the application/input this trace was recorded from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of block events.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block events in execution order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Iterates over block events.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, BlockId>> {
        self.blocks.iter().copied()
    }

    /// Computes dynamic statistics against the program the trace came from.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `program`.
    pub fn stats(&self, program: &Program) -> TraceStats {
        let mut distinct = vec![false; program.num_blocks()];
        let mut lines: HashMap<u64, ()> = HashMap::new();
        let mut stats = TraceStats { events: self.blocks.len() as u64, ..Default::default() };
        for &b in &self.blocks {
            let block = program.block(b);
            stats.total_instrs += u64::from(block.instrs());
            stats.total_data_accesses += u64::from(block.data_accesses());
            if !distinct[b.index()] {
                distinct[b.index()] = true;
                for line in block.lines() {
                    lines.entry(line.raw()).or_insert(());
                }
            }
        }
        stats.distinct_blocks = distinct.iter().filter(|&&d| d).count() as u64;
        stats.distinct_lines = lines.len() as u64;
        stats
    }

    /// The value memoized on this trace under `key`, built by `build` on
    /// first request.
    ///
    /// For values that are a function of the events and of whatever `key`
    /// digests — the simulator keeps each data configuration's L1D record
    /// here, so every replay of the trace after the first reuses it. The
    /// memo starts empty in every new or decoded trace and is shared by
    /// clones. `build` runs under the memo's lock, so it must not ask this
    /// trace's memo for anything.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_trace::{BlockId, Trace};
    ///
    /// let trace = Trace::new("t", vec![BlockId(1), BlockId(2), BlockId(1)]);
    /// let len = trace.derived(7, || trace.len() * 10);
    /// assert_eq!(*len, 30);
    /// // The second request is served from the memo.
    /// assert_eq!(*trace.clone().derived(7, || 0usize), 30);
    /// ```
    pub fn derived<T: Any + Send + Sync>(&self, key: u64, build: impl FnOnce() -> T) -> Arc<T> {
        // A value is stored only once fully built, so a lock poisoned by a
        // panicking `build` still guards a consistent memo.
        let mut memo = self.derived.0.lock().unwrap_or_else(|e| e.into_inner());
        let hit = memo
            .iter()
            .filter(|(k, _)| *k == key)
            .find_map(|(_, v)| Arc::clone(v).downcast::<T>().ok());
        if let Some(value) = hit {
            return value;
        }
        let value = Arc::new(build());
        memo.push((key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>));
        value
    }

    /// Per-block execution counts, indexable by [`BlockId::index`].
    pub fn exec_counts(&self, num_blocks: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_blocks];
        for &b in &self.blocks {
            counts[b.index()] += 1;
        }
        counts
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = BlockId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, BlockId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InputSpec;
    use crate::program::testutil::tiny_program;

    #[test]
    fn stats_add_up() {
        let p = tiny_program();
        let t = p.record_trace(InputSpec::uniform(1, 1), 8);
        let s = t.stats(&p);
        assert_eq!(s.events, 8);
        // Two iterations of b0 b1 b3 b2; each iteration = 8+8+12+8 instrs.
        assert_eq!(s.total_instrs, 2 * 36);
        assert_eq!(s.distinct_blocks, 4);
    }

    #[test]
    fn exec_counts_match() {
        let p = tiny_program();
        let t = p.record_trace(InputSpec::uniform(1, 1), 8);
        let counts = t.exec_counts(p.num_blocks());
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("none", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn derived_values_are_shared_by_clones_and_ignored_by_eq() {
        let t = Trace::new("x", vec![BlockId(3), BlockId(1)]);
        let a = t.derived(1, || 10u32);
        let clone = t.clone();
        assert!(Arc::ptr_eq(&a, &clone.derived(1, || 20u32)), "a clone shares the memo");
        assert_eq!(*t.derived(2, || 20u32), 20, "another key builds its own value");
        assert_eq!(*t.derived(1, || 7u8), 7, "another type under one key is another value");
        let fresh = Trace::new("x", vec![BlockId(3), BlockId(1)]);
        assert_eq!(fresh, t, "the memo is not part of a trace's value");
        assert_eq!(format!("{fresh:?}"), format!("{t:?}"));
        assert_eq!(*fresh.derived(1, || 30u32), 30, "a new trace starts with an empty memo");
    }

    #[test]
    fn iteration_orders_match() {
        let t = Trace::new("x", vec![BlockId(3), BlockId(1)]);
        let via_iter: Vec<_> = t.iter().collect();
        let via_into: Vec<_> = (&t).into_iter().collect();
        assert_eq!(via_iter, via_into);
        assert_eq!(via_iter, vec![BlockId(3), BlockId(1)]);
    }
}
