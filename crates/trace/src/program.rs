//! Static program representation: blocks, functions, control-flow edges.

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId};
use crate::exec::{InputSpec, Walker};
use crate::trace::Trace;
use std::fmt;

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// A function: a contiguous range of basic blocks with a single entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    entry: BlockId,
    first_block: u32,
    num_blocks: u32,
}

impl Function {
    /// Creates a function covering blocks `[first_block, first_block + num_blocks)`.
    pub fn new(entry: BlockId, first_block: u32, num_blocks: u32) -> Self {
        Function { entry, first_block, num_blocks }
    }

    /// The entry block executed on call.
    pub const fn entry(&self) -> BlockId {
        self.entry
    }

    /// Ids of all blocks belonging to this function.
    pub fn block_range(&self) -> std::ops::Range<u32> {
        self.first_block..self.first_block + self.num_blocks
    }

    /// Whether `b` belongs to this function.
    pub fn contains(&self, b: BlockId) -> bool {
        self.block_range().contains(&b.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockExit {
    /// Conditional/unconditional branch to one of several intra-function
    /// targets, each with a (static model) probability weight.
    Branch(Vec<(BlockId, f64)>),
    /// Call `callee`, then continue at `ret` (a block in the same function).
    Call {
        /// The function invoked.
        callee: FuncId,
        /// Continuation block after the callee returns.
        ret: BlockId,
    },
    /// Return to the caller (or to the top-level request loop).
    Return,
}

/// Errors produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// A branch/call names a block id outside the program.
    BlockOutOfRange {
        /// Block whose exit is broken.
        from: BlockId,
        /// The out-of-range target.
        target: u32,
    },
    /// A branch target or call return leaves the enclosing function.
    CrossFunctionEdge {
        /// Block whose exit is broken.
        from: BlockId,
        /// The offending target.
        target: BlockId,
    },
    /// A branch has no targets or non-positive total weight.
    DegenerateBranch {
        /// Block whose exit is broken.
        from: BlockId,
    },
    /// A call names a function id outside the program.
    FuncOutOfRange {
        /// Block whose exit is broken.
        from: BlockId,
        /// The out-of-range callee.
        callee: u32,
    },
    /// A request path references a function id outside the program.
    RequestPathFuncOutOfRange {
        /// Index of the request type.
        request: usize,
        /// The out-of-range function.
        callee: u32,
    },
    /// The program has no request paths, so nothing can execute.
    NoRequestPaths,
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::BlockOutOfRange { from, target } => {
                write!(f, "block {from} targets out-of-range block {target}")
            }
            ValidateProgramError::CrossFunctionEdge { from, target } => {
                write!(f, "block {from} has intra-function edge to foreign block {target}")
            }
            ValidateProgramError::DegenerateBranch { from } => {
                write!(f, "block {from} has a branch with no viable targets")
            }
            ValidateProgramError::FuncOutOfRange { from, callee } => {
                write!(f, "block {from} calls out-of-range function {callee}")
            }
            ValidateProgramError::RequestPathFuncOutOfRange { request, callee } => {
                write!(f, "request path {request} calls out-of-range function {callee}")
            }
            ValidateProgramError::NoRequestPaths => write!(f, "program has no request paths"),
        }
    }
}

impl std::error::Error for ValidateProgramError {}

/// The largest data footprint, in cache lines, a [`Program`] may declare:
/// the simulator records a data access's line as a `u32` offset into it.
pub const MAX_DATA_FOOTPRINT_LINES: u64 = u32::MAX as u64;

/// A complete synthetic program: text layout, control flow, and the request
/// code paths its (synthetic) server loop can execute.
///
/// # Examples
///
/// ```
/// use ispy_trace::apps;
///
/// let program = apps::kafka().generate();
/// assert!(program.num_blocks() > 1000);
/// program.validate().expect("generated programs are well-formed");
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    blocks: Vec<BasicBlock>,
    exits: Vec<BlockExit>,
    funcs: Vec<Function>,
    /// Function each block belongs to (parallel to `blocks`).
    owner: Vec<FuncId>,
    request_paths: Vec<Vec<FuncId>>,
    text_bytes: u64,
    data_footprint_lines: u64,
    branch_determinism: f64,
    request_variants: u16,
}

impl Program {
    /// Assembles a program from parts.
    ///
    /// # Panics
    ///
    /// Panics if `blocks`, `exits`, and `owner` lengths disagree.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<BasicBlock>,
        exits: Vec<BlockExit>,
        funcs: Vec<Function>,
        owner: Vec<FuncId>,
        request_paths: Vec<Vec<FuncId>>,
    ) -> Self {
        assert_eq!(blocks.len(), exits.len(), "one exit per block");
        assert_eq!(blocks.len(), owner.len(), "one owner per block");
        let text_bytes = blocks
            .iter()
            .map(|b| b.end().raw())
            .max()
            .unwrap_or(0)
            .saturating_sub(blocks.iter().map(|b| b.start().raw()).min().unwrap_or(0));
        Program {
            name: name.into(),
            blocks,
            exits,
            funcs,
            owner,
            request_paths,
            text_bytes,
            data_footprint_lines: 1 << 14,
            branch_determinism: 0.85,
            request_variants: 4,
        }
    }

    /// Sets the data working-set size in cache lines used by the simulator's
    /// D-side model. Defaults to 16 Ki lines (1 MiB).
    ///
    /// # Panics
    ///
    /// Panics if `lines` exceeds [`MAX_DATA_FOOTPRINT_LINES`]: the simulator
    /// records each data access's line as a `u32` offset into the footprint.
    pub fn set_data_footprint_lines(&mut self, lines: u64) {
        assert!(
            lines <= MAX_DATA_FOOTPRINT_LINES,
            "data footprint of {lines} lines exceeds the {MAX_DATA_FOOTPRINT_LINES}-line limit"
        );
        self.data_footprint_lines = lines.max(1);
    }

    /// Data working-set size in cache lines.
    pub fn data_footprint_lines(&self) -> u64 {
        self.data_footprint_lines
    }

    /// Sets how strongly forward branches correlate with the calling
    /// context (0 = memoryless random walk, 1 = fully determined by the
    /// call-chain mode). Real control flow is highly history-correlated,
    /// which is the signal context-driven prefetching exploits.
    pub fn set_branch_determinism(&mut self, p: f64) {
        self.branch_determinism = p.clamp(0.0, 1.0);
    }

    /// Branch-to-context correlation strength; see
    /// [`set_branch_determinism`](Self::set_branch_determinism).
    pub fn branch_determinism(&self) -> f64 {
        self.branch_determinism
    }

    /// Sets how many input-dependent variants each request type has. Each
    /// incoming request draws a variant; the variant steers the
    /// mode-correlated branches, so one request type exercises several
    /// distinct (but individually predictable) code paths — like real
    /// requests with different parameters.
    pub fn set_request_variants(&mut self, v: u16) {
        self.request_variants = v.max(1);
    }

    /// Input-dependent variants per request type.
    pub fn request_variants(&self) -> u16 {
        self.request_variants
    }

    /// The application name this program models.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All blocks, indexable by [`BlockId::index`].
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Returns how control leaves block `id`.
    pub fn exit(&self, id: BlockId) -> &BlockExit {
        &self.exits[id.index()]
    }

    /// Returns the function with the given id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// The function owning block `id`.
    pub fn owner_of(&self, id: BlockId) -> FuncId {
        self.owner[id.index()]
    }

    /// The static code paths, one per request type.
    pub fn request_paths(&self) -> &[Vec<FuncId>] {
        &self.request_paths
    }

    /// Span of the text segment in bytes (the static code footprint that
    /// injected prefetch instructions inflate).
    pub fn text_bytes(&self) -> u64 {
        self.text_bytes
    }

    /// Lowest block start address (base of text).
    pub fn text_base(&self) -> Addr {
        self.blocks.iter().map(|b| b.start()).min().unwrap_or(Addr::new(0))
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; see [`ValidateProgramError`].
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        let n = self.blocks.len() as u32;
        if self.request_paths.is_empty() {
            return Err(ValidateProgramError::NoRequestPaths);
        }
        for (i, exit) in self.exits.iter().enumerate() {
            let from = BlockId(i as u32);
            let my_func = self.owner[i];
            match exit {
                BlockExit::Branch(targets) => {
                    if targets.is_empty() || targets.iter().map(|(_, w)| w).sum::<f64>() <= 0.0 {
                        return Err(ValidateProgramError::DegenerateBranch { from });
                    }
                    for &(t, _) in targets {
                        if t.0 >= n {
                            return Err(ValidateProgramError::BlockOutOfRange {
                                from,
                                target: t.0,
                            });
                        }
                        if self.owner[t.index()] != my_func {
                            return Err(ValidateProgramError::CrossFunctionEdge {
                                from,
                                target: t,
                            });
                        }
                    }
                }
                BlockExit::Call { callee, ret } => {
                    if callee.0 as usize >= self.funcs.len() {
                        return Err(ValidateProgramError::FuncOutOfRange {
                            from,
                            callee: callee.0,
                        });
                    }
                    if ret.0 >= n {
                        return Err(ValidateProgramError::BlockOutOfRange { from, target: ret.0 });
                    }
                    if self.owner[ret.index()] != my_func {
                        return Err(ValidateProgramError::CrossFunctionEdge { from, target: *ret });
                    }
                }
                BlockExit::Return => {}
            }
        }
        for (r, path) in self.request_paths.iter().enumerate() {
            for &f in path {
                if f.0 as usize >= self.funcs.len() {
                    return Err(ValidateProgramError::RequestPathFuncOutOfRange {
                        request: r,
                        callee: f.0,
                    });
                }
            }
        }
        Ok(())
    }

    /// Records a deterministic execution trace of `len` block events under
    /// the given input.
    pub fn record_trace(&self, input: InputSpec, len: usize) -> Trace {
        Walker::new(self, input).record(len)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A tiny two-function program used by unit tests across the crate:
    /// `f0`: b0 -> b1 -> call f1 -> b2 -> return; `f1`: b3 -> return.
    pub fn tiny_program() -> Program {
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 32, 8, 1),
            BasicBlock::new(Addr::new(32), 32, 8, 0),
            BasicBlock::new(Addr::new(64), 32, 8, 2),
            BasicBlock::new(Addr::new(4096), 48, 12, 1),
        ];
        let exits = vec![
            BlockExit::Branch(vec![(BlockId(1), 1.0)]),
            BlockExit::Call { callee: FuncId(1), ret: BlockId(2) },
            BlockExit::Return,
            BlockExit::Return,
        ];
        let funcs = vec![Function::new(BlockId(0), 0, 3), Function::new(BlockId(3), 3, 1)];
        let owner = vec![FuncId(0), FuncId(0), FuncId(0), FuncId(1)];
        Program::new("tiny", blocks, exits, funcs, owner, vec![vec![FuncId(0)]])
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::tiny_program;
    use super::*;

    #[test]
    fn tiny_program_validates() {
        tiny_program().validate().unwrap();
    }

    #[test]
    fn data_footprint_up_to_the_u32_bound_is_accepted() {
        let mut p = tiny_program();
        p.set_data_footprint_lines(MAX_DATA_FOOTPRINT_LINES);
        assert_eq!(p.data_footprint_lines(), u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "exceeds the 4294967295-line limit")]
    fn data_footprint_beyond_u32_offsets_panics() {
        tiny_program().set_data_footprint_lines(MAX_DATA_FOOTPRINT_LINES + 1);
    }

    #[test]
    fn text_bytes_spans_layout() {
        let p = tiny_program();
        assert_eq!(p.text_bytes(), 4096 + 48);
    }

    #[test]
    fn owner_lookup() {
        let p = tiny_program();
        assert_eq!(p.owner_of(BlockId(2)), FuncId(0));
        assert_eq!(p.owner_of(BlockId(3)), FuncId(1));
    }

    #[test]
    fn invalid_branch_target_detected() {
        let mut p = tiny_program();
        p.exits[0] = BlockExit::Branch(vec![(BlockId(99), 1.0)]);
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::BlockOutOfRange { target: 99, .. })
        ));
    }

    #[test]
    fn cross_function_edge_detected() {
        let mut p = tiny_program();
        p.exits[0] = BlockExit::Branch(vec![(BlockId(3), 1.0)]);
        assert!(matches!(p.validate(), Err(ValidateProgramError::CrossFunctionEdge { .. })));
    }

    #[test]
    fn degenerate_branch_detected() {
        let mut p = tiny_program();
        p.exits[0] = BlockExit::Branch(vec![]);
        assert!(matches!(p.validate(), Err(ValidateProgramError::DegenerateBranch { .. })));
    }

    #[test]
    fn missing_request_paths_detected() {
        let p = tiny_program();
        let p2 = Program::new(
            "empty",
            p.blocks.clone(),
            p.exits.clone(),
            p.funcs.clone(),
            p.owner.clone(),
            vec![],
        );
        assert_eq!(p2.validate(), Err(ValidateProgramError::NoRequestPaths));
    }

    #[test]
    fn bad_call_detected() {
        let mut p = tiny_program();
        p.exits[1] = BlockExit::Call { callee: FuncId(9), ret: BlockId(2) };
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::FuncOutOfRange { callee: 9, .. })
        ));
    }
}
