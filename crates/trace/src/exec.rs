//! Deterministic execution engine: turns a [`Program`] plus an input
//! specification into a dynamic stream of basic blocks.
//!
//! The walker models a data-center server's steady state: an endless loop
//! that draws a request type from a skewed mix and executes that request's
//! code path (a sequence of function calls, each of which may branch, loop,
//! and call further functions).

use crate::block::BlockId;
use crate::program::{BlockExit, FuncId, Program};
use crate::rng::{Pcg32, Zipf};
use crate::trace::Trace;

/// Maximum dynamic call depth; deeper calls are elided (treated as inlined
/// returns) to keep synthetic call graphs from recursing unboundedly.
pub const MAX_CALL_DEPTH: usize = 24;

/// A workload input: which request mix drives the server loop.
///
/// The same [`Program`] (binary) can be run under different inputs — this is
/// how the reproduction models the paper's Fig. 16 input-generalization
/// study: profile under one input, evaluate under others.
///
/// # Examples
///
/// ```
/// use ispy_trace::InputSpec;
///
/// let profiled = InputSpec::zipf(1, 8, 1.2);
/// let drifted = profiled.clone().with_rotation(3).with_seed(99);
/// assert_ne!(profiled, drifted);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    seed: u64,
    weights: Vec<f64>,
}

impl InputSpec {
    /// An input whose request mix follows a Zipf distribution with skew `s`
    /// over `n` request types.
    pub fn zipf(seed: u64, n: usize, s: f64) -> Self {
        let zipf = Zipf::new(n, s);
        // Materialize the pmf so inputs can be rotated/perturbed.
        let mut weights = Vec::with_capacity(n);
        let mut prev = 0.0;
        for k in 1..=n {
            let mut acc = 0.0;
            for j in 1..=k {
                acc += 1.0 / (j as f64).powf(s);
            }
            let mut total = 0.0;
            for j in 1..=n {
                total += 1.0 / (j as f64).powf(s);
            }
            let c = acc / total;
            weights.push(c - prev);
            prev = c;
        }
        let _ = zipf;
        InputSpec { seed, weights }
    }

    /// A uniform request mix over `n` request types.
    pub fn uniform(seed: u64, n: usize) -> Self {
        InputSpec { seed, weights: vec![1.0 / n as f64; n] }
    }

    /// An input with explicit request weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn with_weights(seed: u64, weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one request weight");
        assert!(weights.iter().sum::<f64>() > 0.0, "weights must sum > 0");
        InputSpec { seed, weights }
    }

    /// Rotates the request mix by `k` positions — a cheap model of input
    /// drift (hot request types change, code paths stay the same).
    #[must_use]
    pub fn with_rotation(mut self, k: usize) -> Self {
        let n = self.weights.len();
        self.weights.rotate_right(k % n);
        self
    }

    /// Replaces the RNG seed, yielding a different interleaving of the same
    /// statistical mix.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The request-type weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Call-stack frame: where to resume in the caller, and the caller's mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    ret: BlockId,
    saved_mode: u64,
}

/// Cheap 64-bit mixer for mode propagation and deterministic branch picks.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(0x94D049BB133111EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic random-walk executor over a program.
///
/// Implements [`Iterator`] yielding one [`BlockId`] per executed basic block.
/// The walker is `Clone`, and a clone resumes from exactly the same machine
/// state — cloning at block `n` and continuing yields the same suffix as the
/// original, so a clone checkpoints a generated stream (scenario sources
/// clone their per-tenant walkers) without materializing the trace.
///
/// # Examples
///
/// ```
/// use ispy_trace::{apps, Walker};
///
/// let model = apps::tomcat();
/// let program = model.generate();
/// let blocks: Vec<_> = Walker::new(&program, model.default_input()).take(100).collect();
/// assert_eq!(blocks.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    program: &'p Program,
    rng: Pcg32,
    weights: Vec<f64>,
    /// Remaining top-level calls of the current request with their modes,
    /// in reverse order.
    pending: Vec<(FuncId, u64)>,
    stack: Vec<Frame>,
    /// Block to execute next, if control is inside a function.
    current: Option<BlockId>,
    /// The executing call chain's mode: a deterministic digest of the
    /// request type and call path. Forward branches mostly follow the mode
    /// (real control flow is highly correlated with calling context), so
    /// the path taken through a function is predictable from *how it was
    /// reached* — the property context-driven prefetching exploits.
    mode: u64,
}

impl<'p> Walker<'p> {
    /// Creates a walker over `program` driven by `input`.
    ///
    /// # Panics
    ///
    /// Panics if the input has a different number of request weights than the
    /// program has request paths.
    pub fn new(program: &'p Program, input: InputSpec) -> Self {
        assert_eq!(
            input.weights.len(),
            program.request_paths().len(),
            "input weights must match the program's request types"
        );
        Walker {
            program,
            rng: Pcg32::seed_from_u64(input.seed),
            weights: input.weights,
            pending: Vec::new(),
            stack: Vec::new(),
            current: None,
            mode: 0,
        }
    }

    /// Replaces the request-mix weights mid-walk, leaving the RNG stream and
    /// all control-flow state (stack, pending calls, current block) intact —
    /// how the scenario engine's phase transitions swap a tenant's request
    /// mix without restarting it. The new mix takes effect at the next
    /// request draw; the in-flight request completes under its old type.
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs from the program's request types.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(
            weights.len(),
            self.program.request_paths().len(),
            "input weights must match the program's request types"
        );
        self.weights = weights;
    }

    /// Records the next `len` block events into a [`Trace`].
    pub fn record(self, len: usize) -> Trace {
        let name = self.program.name().to_string();
        Trace::new(name, self.take(len).collect())
    }

    /// Starts the next request: draws a request type and an input-dependent
    /// variant, then queues the type's calls.
    fn begin_request(&mut self) {
        let r = self.rng.weighted_index(&self.weights);
        let nv = u64::from(self.program.request_variants());
        let v = self.rng.below(nv);
        let path = &self.program.request_paths()[r];
        for (k, &f) in path.iter().enumerate().rev() {
            // The variant selects which stretches of the type's code path
            // this request exercises (~3/4 of them), so one request type
            // spans several distinct but individually predictable paths.
            let step_mode = mix(r as u64 + 1, mix(k as u64, v));
            if path.len() > 4 && step_mode.is_multiple_of(4) {
                continue;
            }
            self.pending.push((f, step_mode));
        }
    }

    /// Enters `func`, respecting the depth cap.
    fn enter(&mut self, func: FuncId) {
        self.current = Some(self.program.func(func).entry());
    }

    /// Weighted choice over branch targets given a uniform sample `u`.
    fn pick_weighted(targets: &[(BlockId, f64)], u: f64) -> usize {
        let total: f64 = targets.iter().map(|(_, w)| *w).sum();
        let mut x = u * total;
        for (j, (_, w)) in targets.iter().enumerate() {
            x -= *w;
            if x < 0.0 {
                return j;
            }
        }
        targets.len() - 1
    }

    /// Advances control past the end of `block`.
    fn step_exit(&mut self, block: BlockId) {
        match self.program.exit(block) {
            BlockExit::Branch(targets) => {
                let i = if targets.len() == 1 {
                    0
                } else {
                    let has_back_edge = targets.iter().any(|(t, _)| t.0 <= block.0);
                    let deterministic =
                        !has_back_edge && self.rng.chance(self.program.branch_determinism());
                    if deterministic {
                        // The calling context decides the path: derive the
                        // "random" sample from (mode, block) so the same
                        // call chain always walks the same way.
                        let h = mix(self.mode, u64::from(block.0));
                        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        Self::pick_weighted(targets, u)
                    } else {
                        // Loops and residual noise stay stochastic.
                        let u = self.rng.f64();
                        Self::pick_weighted(targets, u)
                    }
                };
                self.current = Some(targets[i].0);
            }
            BlockExit::Call { callee, ret } => {
                if self.stack.len() >= MAX_CALL_DEPTH {
                    // Depth cap: elide the call.
                    self.current = Some(*ret);
                } else {
                    self.stack.push(Frame { ret: *ret, saved_mode: self.mode });
                    // The callee's mode digests the caller's mode and the
                    // call site: distinct call chains walk callees
                    // differently, predictably.
                    self.mode = mix(self.mode, u64::from(block.0));
                    self.enter(*callee);
                }
            }
            BlockExit::Return => match self.stack.pop() {
                Some(frame) => {
                    self.mode = frame.saved_mode;
                    self.current = Some(frame.ret);
                }
                None => self.current = None,
            },
        }
    }
}

impl Iterator for Walker<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        loop {
            if let Some(block) = self.current {
                self.step_exit(block);
                return Some(block);
            }
            // Between functions at top level.
            match self.pending.pop() {
                Some((func, mode)) => {
                    self.mode = mode;
                    self.enter(func);
                }
                None => self.begin_request(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::testutil::tiny_program;

    fn input1() -> InputSpec {
        InputSpec::uniform(7, 1)
    }

    #[test]
    fn walks_expected_sequence() {
        let p = tiny_program();
        let seq: Vec<_> = Walker::new(&p, input1()).take(8).map(|b| b.0).collect();
        // f0: b0 b1, call f1: b3, return to b2, return; repeat.
        assert_eq!(seq, vec![0, 1, 3, 2, 0, 1, 3, 2]);
    }

    #[test]
    fn deterministic_for_seed() {
        let p = tiny_program();
        let a: Vec<_> = Walker::new(&p, input1()).take(50).collect();
        let b: Vec<_> = Walker::new(&p, input1()).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn record_produces_requested_length() {
        let p = tiny_program();
        let t = p.record_trace(input1(), 123);
        assert_eq!(t.len(), 123);
    }

    #[test]
    #[should_panic(expected = "request types")]
    fn mismatched_weights_panic() {
        let p = tiny_program();
        let _ = Walker::new(&p, InputSpec::uniform(0, 3));
    }

    #[test]
    fn rotation_changes_weights() {
        let i = InputSpec::with_weights(0, vec![0.7, 0.2, 0.1]);
        let r = i.clone().with_rotation(1);
        assert_eq!(r.weights(), &[0.1, 0.7, 0.2]);
    }

    #[test]
    fn branch_determinism_makes_paths_context_correlated() {
        // With full determinism, the same (request type, variant, call
        // chain) always walks the same blocks; with zero determinism the
        // walk is memoryless. Measure path diversity through a generated
        // program under both settings.
        use crate::gen::{generate, GenParams};
        let mk = |det: f64| {
            let mut p =
                generate("d", &GenParams { funcs: 60, request_types: 2, ..GenParams::default() });
            p.set_branch_determinism(det);
            p.record_trace(InputSpec::uniform(3, 2), 20_000)
        };
        let deterministic = mk(1.0);
        let random = mk(0.0);
        // Count distinct 4-grams: the memoryless walk explores more paths.
        let grams = |t: &crate::trace::Trace| {
            let b = t.blocks();
            let mut set = std::collections::HashSet::new();
            for w in b.windows(4) {
                set.insert((w[0], w[1], w[2], w[3]));
            }
            set.len()
        };
        assert!(
            grams(&random) > grams(&deterministic),
            "random {} should out-diversify deterministic {}",
            grams(&random),
            grams(&deterministic)
        );
    }

    #[test]
    fn variants_expand_the_footprint() {
        use crate::gen::{generate, GenParams};
        let base = GenParams { funcs: 80, request_types: 2, ..GenParams::default() };
        let mut single = generate("v", &base);
        single.set_request_variants(1);
        let mut many = generate("v", &base);
        many.set_request_variants(8);
        let input = InputSpec::uniform(5, 2);
        let s1 = single.record_trace(input.clone(), 30_000).stats(&single);
        let s8 = many.record_trace(input, 30_000).stats(&many);
        assert!(
            s8.distinct_blocks >= s1.distinct_blocks,
            "variants should touch at least as much code: {} vs {}",
            s8.distinct_blocks,
            s1.distinct_blocks
        );
    }

    #[test]
    fn depth_cap_prevents_unbounded_stacks() {
        // A pathological program where every block calls deeper: the walker
        // must elide calls past MAX_CALL_DEPTH rather than recurse forever.
        use crate::block::BasicBlock;
        use crate::program::{BlockExit, Function, Program};
        use crate::Addr;
        let n = 64u32;
        let blocks: Vec<BasicBlock> =
            (0..n).map(|i| BasicBlock::new(Addr::new(u64::from(i) * 64), 32, 8, 0)).collect();
        // Function i = single block i; block i calls function (i+1) % n with
        // ret = itself -> infinite call chain without the cap.
        let exits: Vec<BlockExit> = (0..n)
            .map(|i| BlockExit::Call {
                callee: crate::program::FuncId((i + 1) % n),
                ret: BlockId(i),
            })
            .collect();
        let funcs: Vec<Function> = (0..n).map(|i| Function::new(BlockId(i), i, 1)).collect();
        let owner = (0..n).map(crate::program::FuncId).collect();
        let p = Program::new(
            "deep",
            blocks,
            exits,
            funcs,
            owner,
            vec![vec![crate::program::FuncId(0)]],
        );
        // Must terminate and produce events.
        let t = p.record_trace(InputSpec::uniform(1, 1), 1_000);
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn zipf_weights_sum_to_one_and_skew() {
        let i = InputSpec::zipf(0, 10, 1.3);
        let sum: f64 = i.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(i.weights()[0] > i.weights()[9]);
    }
}
