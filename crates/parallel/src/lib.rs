//! Deterministic parallel fan-out for the experiment harness.
//!
//! This is a minimal, dependency-free stand-in for the slice of rayon the
//! harness needs (`par_iter().map().collect()` over a coarse-grained work
//! grid). The build environment is fully offline, so rayon itself cannot be
//! vendored; the API below mirrors the shape the figure drivers would use
//! with rayon, and could be swapped for it one-for-one when a registry is
//! available.
//!
//! Two properties matter more than raw scheduling cleverness here:
//!
//! 1. **Determinism** — results are collected by item index, so the output
//!    of [`par_collect`]/[`par_map`] is byte-identical regardless of the
//!    thread count (including 1). The harness's serial-vs-parallel equality
//!    tests rely on this.
//! 2. **Coarse tasks** — each work item is an entire plan+simulate cell
//!    (hundreds of milliseconds to seconds), so a shared atomic cursor is a
//!    perfectly good scheduler and per-slot locking is negligible overhead.
//!
//! The pool size is a process-wide setting ([`set_threads`]) so the `repro`
//! CLI's `--jobs N` flag can bound every fan-out in one place; nested
//! [`par_collect`] calls run their inner grid serially to keep the thread
//! count bounded by that setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread budget. 0 = "not set" → all available cores.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside worker threads so nested fan-outs degrade to serial
    /// execution instead of oversubscribing the pool.
    static IN_WORKER: AtomicBool = const { AtomicBool::new(false) };
}

/// Sets the process-wide thread budget for all subsequent fan-outs.
///
/// `0` restores the default (all available cores). Safe to call at any
/// time; in-flight fan-outs keep the budget they started with.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The current thread budget: the value of the last [`set_threads`] call,
/// or the number of available cores (≥ 1) when unset.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Runs `f(0..n)` across the thread pool and returns the results in index
/// order. Deterministic: the output is identical for any thread count.
///
/// Panics in `f` propagate to the caller (after all workers finish).
///
/// # Examples
///
/// ```
/// let squares = ispy_parallel::par_collect(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_collect_with(threads(), n, f)
}

/// [`par_collect`] with an explicit worker count (clamped to the item
/// count; `0` or `1` runs serially).
fn par_collect_with<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    let nested = IN_WORKER.with(|w| w.load(Ordering::Relaxed));
    if workers <= 1 || nested {
        return (0..n).map(f).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.store(true, Ordering::Relaxed));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i);
                        *slots[i].lock().expect("slot lock") = Some(r);
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload resurfaces verbatim
        // (scope's implicit join would replace it with a generic message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every index was produced"))
        .collect()
}

/// Parallel map over a slice, preserving order (the moral equivalent of
/// rayon's `items.par_iter().map(f).collect()`).
///
/// # Examples
///
/// ```
/// let doubled = ispy_parallel::par_map(&[1, 2, 3], |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_collect(items.len(), |i| f(&items[i]))
}

/// Parallel map that consumes a `Vec`, preserving order (the moral
/// equivalent of `items.into_par_iter().map(f).collect()`).
pub fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_collect(slots.len(), |i| {
        let item = slots[i].lock().expect("item lock").take().expect("taken once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_in_order() {
        let v = par_collect(100, |i| i + 1);
        assert_eq!(v, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_collect(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_collect(1, |i| i), vec![0]);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(par_map(&items, |&x| x * 3), (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_vec_consumes() {
        let items: Vec<String> = (0..20).map(|i| i.to_string()).collect();
        let lens = par_map_vec(items, |s| s.len());
        assert_eq!(lens.len(), 20);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[10], 2);
    }

    #[test]
    fn thread_budget_is_respected_and_restorable() {
        set_threads(1);
        assert_eq!(threads(), 1);
        let v = par_collect(10, |i| i);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
        set_threads(3);
        assert_eq!(threads(), 3);
        let v = par_collect(10, |i| i);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn nested_fanout_is_serial_but_correct() {
        set_threads(4);
        let v = par_collect(4, |i| par_collect(4, move |j| i * 4 + j));
        let flat: Vec<usize> = v.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
        set_threads(0);
    }

    #[test]
    fn bounded_matches_unbounded() {
        let a = par_collect(37, |i| i * 7);
        for workers in [1, 2, 4, 8, 64] {
            assert_eq!(par_collect_with(workers, 37, |i| i * 7), a);
        }
        // A zero request degrades to one worker rather than deadlocking.
        assert_eq!(par_collect_with(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        set_threads(2);
        let _ = par_collect(4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
