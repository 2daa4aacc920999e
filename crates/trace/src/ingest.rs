//! External LBR ingest: perf-script branch dumps → program + trace.
//!
//! The paper's profiles come from production machines: `perf record -b`
//! capturing Intel LBR branch stacks, rendered to text by
//! `perf script -F brstack`. This module parses that text shape and lifts
//! it into the reproduction's own [`Program`]/[`Trace`] representation, so
//! real-hardware dumps can enter the pipeline through the same `.itrace`
//! artifact path as the synthetic apps.
//!
//! Accepted input: whitespace-separated brstack entries of the form
//! `0x<from>/0x<to>/...` (any trailing `/`-separated flag fields are
//! ignored), in retirement order. Comment lines (`#`) and tokens that are
//! not branch entries are skipped; a dump with no branch entries at all is
//! an error, as is an entry whose address leaves no room for a 4 KiB block
//! below `u64::MAX`.
//!
//! The lift necessarily reconstructs structure the text does not carry:
//!
//! * **Blocks** start at every branch *target* and extend to the next
//!   branch *source* above them (+4 bytes for the branch instruction
//!   itself), capped at 4 KiB — the classic basic-block inference from
//!   branch traces.
//! * **Instruction counts** are estimated at one per 4 bytes (min 1).
//! * **Edges** become [`BlockExit::Branch`] weights from observed
//!   transition counts; blocks with no observed successor return.
//! * Everything lands in a single synthetic function with a single request
//!   path, since call structure is not recoverable from bare from/to pairs.
//!
//! # Examples
//!
//! ```
//! use ispy_trace::ingest;
//!
//! let dump = "0x400010/0x400100/P/-/-/3 0x400140/0x400010/P/-/-/5\n\
//!             0x400010/0x400100/M/-/-/2\n";
//! let (program, trace) = ingest::parse_perf_script(dump).unwrap();
//! assert_eq!(program.num_blocks(), 2);
//! assert_eq!(trace.len(), 3);
//! program.validate().unwrap();
//! ```

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId};
use crate::program::{BlockExit, FuncId, Function, Program};
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt;

/// Largest block the lift will infer; gaps beyond this are treated as
/// unrelated code (shared-library padding, unmapped regions).
const MAX_BLOCK_BYTES: u64 = 4096;

/// Estimated bytes per instruction when lifting counts from spans.
const BYTES_PER_INSTR: u64 = 4;

/// Highest branch address the lift accepts: a block inferred at or below it
/// (at most [`MAX_BLOCK_BYTES`], plus the branch instruction's bytes) ends
/// without overflowing the address space.
const MAX_ADDR: u64 = u64::MAX - MAX_BLOCK_BYTES - BYTES_PER_INSTR;

/// Why a perf-script dump could not be ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The dump contained no parsable branch entries.
    NoBranches,
    /// A token looked like a branch entry but had an unparsable address, or
    /// one too close to the top of the address space to hold a block.
    BadAddress {
        /// 1-based line number in the input.
        line: usize,
        /// The offending token.
        token: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NoBranches => write!(f, "no LBR branch entries found in input"),
            IngestError::BadAddress { line, token } => {
                write!(f, "line {line}: unparsable branch entry {token:?}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Parses one `0xFROM/0xTO/...` token; `None` if the token is not a branch
/// entry at all (so non-branch perf fields are skipped silently).
fn parse_entry(token: &str) -> Option<Result<(u64, u64), ()>> {
    let mut parts = token.split('/');
    let from = parts.next()?;
    let to = parts.next()?;
    if !from.starts_with("0x") || !to.starts_with("0x") {
        return None;
    }
    let parse = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|_| ());
    Some(parse(from).and_then(|f| parse(to).map(|t| (f, t))))
}

/// Parses a perf-script-style LBR dump into a program and trace.
///
/// # Errors
///
/// [`IngestError::NoBranches`] for an empty dump,
/// [`IngestError::BadAddress`] for a malformed branch entry or one whose
/// addresses leave no room below `u64::MAX` for a maximal block.
pub fn parse_perf_script(input: &str) -> Result<(Program, Trace), IngestError> {
    // Pass 1: collect the raw (from, to) pairs in retirement order.
    let mut branches: Vec<(u64, u64)> = Vec::new();
    for (line_no, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for token in line.split_whitespace() {
            match parse_entry(token) {
                Some(Ok((from, to))) if from.max(to) <= MAX_ADDR => branches.push((from, to)),
                Some(_) => {
                    return Err(IngestError::BadAddress {
                        line: line_no + 1,
                        token: token.to_string(),
                    })
                }
                None => {}
            }
        }
    }
    if branches.is_empty() {
        return Err(IngestError::NoBranches);
    }

    // Pass 2: infer block starts (branch targets) and their extents (up to
    // the next branch source at or above the start, +branch bytes).
    let mut starts: Vec<u64> = branches.iter().map(|&(_, to)| to).collect();
    starts.sort_unstable();
    starts.dedup();
    let mut sources: Vec<u64> = branches.iter().map(|&(from, _)| from).collect();
    sources.sort_unstable();
    sources.dedup();

    let mut blocks = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let next_start = starts.get(i + 1).copied();
        let src_idx = sources.partition_point(|&s| s < start);
        let from_source = sources.get(src_idx).map(|&s| s + BYTES_PER_INSTR - start);
        let mut bytes = from_source.unwrap_or(MAX_BLOCK_BYTES).clamp(1, MAX_BLOCK_BYTES);
        // Never overlap the next inferred block.
        if let Some(next) = next_start {
            bytes = bytes.min(next - start);
        }
        let instrs = (bytes / BYTES_PER_INSTR).max(1);
        blocks.push(BasicBlock::new(
            Addr::new(start),
            bytes as u32,
            instrs.min(u64::from(u16::MAX)) as u16,
            0,
        ));
    }

    let block_of: HashMap<u64, BlockId> =
        starts.iter().enumerate().map(|(i, &s)| (s, BlockId(i as u32))).collect();

    // Pass 3: trace events (each branch target is a block entry) and edge
    // counts between consecutive events.
    let mut events = Vec::with_capacity(branches.len());
    let mut edge_counts: HashMap<(u32, u32), u64> = HashMap::new();
    let mut prev: Option<BlockId> = None;
    for &(_, to) in &branches {
        let b = block_of[&to];
        if let Some(p) = prev {
            *edge_counts.entry((p.0, b.0)).or_insert(0) += 1;
        }
        events.push(b);
        prev = Some(b);
    }

    // Pass 4: lift edge counts into branch exits (sorted heaviest-first,
    // ties by id, so ingest output is deterministic).
    let mut exits = Vec::with_capacity(blocks.len());
    for i in 0..blocks.len() {
        let mut targets: Vec<(BlockId, f64)> = edge_counts
            .iter()
            .filter(|&(&(from, _), _)| from == i as u32)
            .map(|(&(_, to), &w)| (BlockId(to), w as f64))
            .collect();
        targets.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        if targets.is_empty() {
            exits.push(BlockExit::Return);
        } else {
            exits.push(BlockExit::Branch(targets));
        }
    }

    let entry = events.first().copied().unwrap_or(BlockId(0));
    let funcs = vec![Function::new(entry, 0, blocks.len() as u32)];
    let owner = vec![FuncId(0); blocks.len()];
    let program = Program::new("ingested", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
    Ok((program, Trace::new("ingested", events)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_brstack_tokens_and_skips_noise() {
        let dump = "# comment line\n\
                    swapper 0 [000] 12.5: branches:\n\
                    0x1000/0x2000/P/-/-/7 0x2040/0x1000/M/-/-/2\n\
                    0x1000/0x2000/P/-/-/1\n";
        let (program, trace) = parse_perf_script(dump).unwrap();
        program.validate().unwrap();
        assert_eq!(program.num_blocks(), 2);
        assert_eq!(trace.len(), 3);
        // Block at 0x1000 ends at the source 0x1000 + 4 bytes.
        let b = program.block(trace.blocks()[1]);
        assert_eq!(b.start().raw(), 0x1000);
        assert_eq!(b.bytes(), 4);
    }

    #[test]
    fn blocks_never_overlap_and_are_capped() {
        let dump = "0x100/0x200/P 0x2c0/0x240/P 0x300/0x1000000/P 0x1000010/0x100/P";
        let (program, _) = parse_perf_script(dump).unwrap();
        program.validate().unwrap();
        let mut prev_end = 0;
        for b in program.blocks() {
            assert!(b.start().raw() >= prev_end, "blocks overlap");
            assert!(u64::from(b.bytes()) <= MAX_BLOCK_BYTES);
            prev_end = b.end().raw();
        }
    }

    #[test]
    fn edge_weights_reflect_transition_counts() {
        // 0x10 -> 0x20 twice, 0x10 -> 0x30 once (as consecutive events).
        let dump = "0xa0/0x10/P 0xa4/0x20/P 0xa8/0x10/P 0xac/0x20/P 0xb0/0x10/P 0xb4/0x30/P";
        let (program, trace) = parse_perf_script(dump).unwrap();
        let first = trace.blocks()[0];
        if let BlockExit::Branch(targets) = program.exit(first) {
            assert_eq!(targets[0].1, 2.0); // heaviest first
        } else {
            panic!("expected a branch exit");
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(parse_perf_script("").unwrap_err(), IngestError::NoBranches);
        assert_eq!(parse_perf_script("# only comments\\n").unwrap_err(), IngestError::NoBranches);
    }

    #[test]
    fn bad_hex_is_reported_with_line() {
        let err = parse_perf_script("0x10/0x20/P\n0xZZ/0x30/P").unwrap_err();
        assert!(matches!(err, IngestError::BadAddress { line: 2, .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn source_at_the_top_of_the_address_space_is_rejected() {
        let err = parse_perf_script("0x10/0x20/P\n0xffffffffffffffff/0x10/P").unwrap_err();
        assert!(matches!(err, IngestError::BadAddress { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn target_at_the_top_of_the_address_space_is_rejected() {
        let err = parse_perf_script("0x10/0xfffffffffffffff0/P").unwrap_err();
        assert_eq!(
            err,
            IngestError::BadAddress { line: 1, token: "0x10/0xfffffffffffffff0/P".into() }
        );
        // The highest accepted address still lifts to a valid program.
        let top = format!("0x10/{MAX_ADDR:#x}/P {:#x}/0x10/P", MAX_ADDR - 1);
        let (program, _) = parse_perf_script(&top).unwrap();
        program.validate().unwrap();
    }

    #[test]
    fn ingested_recording_round_trips_through_itrace() {
        let dump = "0x1000/0x2000/P 0x2040/0x3000/P 0x3040/0x1000/P 0x1000/0x2000/P";
        let (program, trace) = parse_perf_script(dump).unwrap();
        let bytes = crate::artifact::recording_to_bytes(&program, &trace);
        let (p2, t2) = crate::artifact::recording_from_bytes(&bytes).unwrap();
        assert_eq!(p2.blocks(), program.blocks());
        assert_eq!(t2, trace);
    }
}
