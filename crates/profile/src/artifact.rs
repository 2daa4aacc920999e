//! The `.iprof` artifact codec: a durable miss-annotated profile.
//!
//! Serializes a [`Profile`] — the dynamic CFG (execution counts, average
//! cycle costs, weighted edges) plus the per-line miss statistics — so the
//! offline analysis can run on a different machine, or later, than the
//! profiling pass, exactly as the paper's deployment model assumes.
//!
//! Exactness matters more than compactness here: the planner's decisions
//! are functions of these numbers, so `f64`s travel as raw bit patterns and
//! every map is written in sorted order. A reloaded profile is
//! indistinguishable from the in-memory original — plans built from it are
//! equal, and replays of those plans byte-identical.
//!
//! # Examples
//!
//! ```
//! use ispy_profile::{artifact, profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::drupal().scaled_down(60);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 5_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//! let bytes = artifact::profile_to_bytes(program.name(), &prof);
//! let (label, prof2) = artifact::profile_from_bytes(&bytes).unwrap();
//! assert_eq!(label, "drupal");
//! assert_eq!(prof2.misses.total_misses(), prof.misses.total_misses());
//! ```

use crate::collect::Profile;
use crate::dyncfg::DynCfg;
use crate::miss::{LineMissStats, MissProfile};
use ispy_artifact::{
    encode_to_vec, narrow, ArtifactError, ArtifactKind, SectionReader, SectionWriter, StreamReader,
};
use ispy_trace::{BlockId, Line};
use std::path::Path;

/// Label, trace length, LBR depth, block count.
const SEC_META: u32 = 1;
/// Per-block execution counts.
const SEC_CFG_EXEC: u32 = 2;
/// Per-block average cycle costs (exact `f64` bits).
const SEC_CFG_CYCLES: u32 = 3;
/// Weighted dynamic edges, sorted by (from, to).
const SEC_CFG_EDGES: u32 = 4;
/// Per-line miss statistics, sorted by line address.
const SEC_MISSES: u32 = 5;

/// Serializes a profile to artifact bytes under an app `label`.
pub fn profile_to_bytes(label: &str, profile: &Profile) -> Vec<u8> {
    let n = profile.cfg.num_blocks();

    let mut meta = SectionWriter::new(SEC_META);
    meta.put_str(label);
    meta.put_varint(profile.trace_len as u64);
    meta.put_varint(profile.lbr_depth as u64);
    meta.put_varint(n as u64);

    let mut exec = SectionWriter::new(SEC_CFG_EXEC);
    for i in 0..n {
        exec.put_varint(profile.cfg.exec_count(BlockId(i as u32)));
    }

    let mut cycles = SectionWriter::new(SEC_CFG_CYCLES);
    for i in 0..n {
        cycles.put_f64(profile.cfg.avg_cycles(BlockId(i as u32)));
    }

    let mut all_edges: Vec<(u32, u32, u64)> = Vec::new();
    for i in 0..n {
        for &(to, weight) in profile.cfg.succs(BlockId(i as u32)) {
            all_edges.push((i as u32, to.0, weight));
        }
    }
    all_edges.sort_unstable();
    let mut edges = SectionWriter::new(SEC_CFG_EDGES);
    edges.put_varint(all_edges.len() as u64);
    for (from, to, weight) in all_edges {
        edges.put_delta(u64::from(from));
        edges.put_varint(u64::from(to));
        edges.put_varint(weight);
    }

    let mut by_line: Vec<(u64, &LineMissStats)> =
        profile.misses.iter().map(|(l, s)| (l.raw(), s)).collect();
    by_line.sort_unstable_by_key(|&(raw, _)| raw);
    let mut misses = SectionWriter::new(SEC_MISSES);
    misses.put_varint(by_line.len() as u64);
    for (raw, stats) in by_line {
        misses.put_delta(raw);
        misses.put_varint(stats.count);
        let mut sorted: Vec<(u32, u64)> = stats.at_blocks.iter().map(|(&b, &c)| (b.0, c)).collect();
        sorted.sort_unstable();
        misses.put_varint(sorted.len() as u64);
        for (b, c) in sorted {
            misses.put_varint(u64::from(b));
            misses.put_varint(c);
        }
        let mut sorted: Vec<(u32, u64)> =
            stats.history_presence.iter().map(|(&b, &c)| (b.0, c)).collect();
        sorted.sort_unstable();
        misses.put_varint(sorted.len() as u64);
        for (b, c) in sorted {
            misses.put_varint(u64::from(b));
            misses.put_varint(c);
        }
        misses.put_varint(stats.positions.len() as u64);
        let mut prev = 0u32;
        for &p in &stats.positions {
            misses.put_varint(u64::from(p - prev));
            prev = p;
        }
    }

    encode_to_vec(ArtifactKind::Profile, [meta, exec, cycles, edges, misses])
}

/// Writes a profile to `path` (conventionally `*.iprof`).
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn write_profile(label: &str, profile: &Profile, path: &Path) -> Result<(), ArtifactError> {
    std::fs::create_dir_all(path.parent().unwrap_or_else(|| Path::new(".")))
        .map_err(|e| ArtifactError::io(path, e))?;
    std::fs::write(path, profile_to_bytes(label, profile)).map_err(|e| ArtifactError::io(path, e))
}

/// The cheap-to-decode identity of a profile artifact: everything a fleet
/// ingest pass needs to shard and sanity-check thousands of `.iprof` files
/// without paying for the full miss-statistics decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    /// The app label the profile was written under.
    pub label: String,
    /// Length of the profiled trace in block events.
    pub trace_len: usize,
    /// LBR depth used for history snapshots.
    pub lbr_depth: usize,
    /// Number of blocks the profile's CFG covers.
    pub num_blocks: usize,
}

/// Decodes only the metadata section of a profile artifact.
///
/// Every section's CRC is still verified (corruption anywhere in the file is
/// detected), but the CFG and miss sections are never parsed — this is what lets
/// `repro fleet ingest` classify thousands of artifacts in bounded time.
///
/// # Errors
///
/// Typed [`ArtifactError`] on container damage or a malformed meta section.
///
/// # Examples
///
/// ```
/// use ispy_profile::{artifact, profile, SampleRate};
/// use ispy_sim::SimConfig;
/// use ispy_trace::apps;
///
/// let model = apps::kafka().scaled_down(60);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 4_000);
/// let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
/// let bytes = artifact::profile_to_bytes("kafka", &prof);
/// let meta = artifact::peek_profile_meta(&bytes).unwrap();
/// assert_eq!(meta.label, "kafka");
/// assert_eq!(meta.trace_len, 4_000);
/// ```
pub fn peek_profile_meta(bytes: &[u8]) -> Result<ProfileMeta, ArtifactError> {
    let mut r = StreamReader::new(bytes, ArtifactKind::Profile)?;
    let meta = take_meta(&mut r)?;
    r.finish()?;
    Ok(meta)
}

/// Reads and decodes the leading metadata section.
fn take_meta(r: &mut StreamReader<&[u8]>) -> Result<ProfileMeta, ArtifactError> {
    let payload = r.expect_section(SEC_META)?;
    let mut meta = SectionReader::new(SEC_META, &payload);
    let label = meta.take_str()?;
    let trace_len: usize = narrow(meta.take_varint()?, "trace length")?;
    let lbr_depth: usize = narrow(meta.take_varint()?, "lbr depth")?;
    let num_blocks: usize = narrow(meta.take_varint()?, "block count")?;
    meta.finish()?;
    Ok(ProfileMeta { label, trace_len, lbr_depth, num_blocks })
}

/// Decodes `(label, profile)` from artifact bytes.
///
/// # Errors
///
/// Typed [`ArtifactError`] on any container- or payload-level defect; block
/// ids and edge endpoints are range-checked before the (panicking)
/// [`DynCfg`] constructor runs.
pub fn profile_from_bytes(bytes: &[u8]) -> Result<(String, Profile), ArtifactError> {
    let mut r = StreamReader::new(bytes, ArtifactKind::Profile)?;
    let ProfileMeta { label, trace_len, lbr_depth, num_blocks } = take_meta(&mut r)?;

    let payload = r.expect_section(SEC_CFG_EXEC)?;
    let mut exec_sec = SectionReader::new(SEC_CFG_EXEC, &payload);
    let mut exec = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        exec.push(exec_sec.take_varint()?);
    }
    exec_sec.finish()?;

    let payload = r.expect_section(SEC_CFG_CYCLES)?;
    let mut cycles_sec = SectionReader::new(SEC_CFG_CYCLES, &payload);
    let mut avg_cycles = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        avg_cycles.push(cycles_sec.take_f64()?);
    }
    cycles_sec.finish()?;

    let in_range = |raw: u64, what: &'static str| -> Result<u32, ArtifactError> {
        if (raw as usize) < num_blocks {
            Ok(raw as u32)
        } else {
            Err(ArtifactError::malformed(what, format!("block id {raw} out of range")))
        }
    };

    let payload = r.expect_section(SEC_CFG_EDGES)?;
    let mut edges_sec = SectionReader::new(SEC_CFG_EDGES, &payload);
    let n_edges: usize = narrow(edges_sec.take_varint()?, "edge count")?;
    let mut edges: Vec<((u32, u32), u64)> = Vec::with_capacity(n_edges.min(1 << 22));
    for _ in 0..n_edges {
        let from = in_range(edges_sec.take_delta()?, "edge source")?;
        let to = in_range(edges_sec.take_varint()?, "edge target")?;
        edges.push(((from, to), edges_sec.take_varint()?));
    }
    edges_sec.finish()?;
    edges.sort_unstable_by_key(|&(e, _)| e);
    if let Some(w) = edges.windows(2).find(|w| w[0].0 == w[1].0) {
        let (from, to) = w[0].0;
        return Err(ArtifactError::malformed("edge", format!("duplicate edge {from}->{to}")));
    }

    let payload = r.expect_section(SEC_MISSES)?;
    let mut misses_sec = SectionReader::new(SEC_MISSES, &payload);
    let n_lines: usize = narrow(misses_sec.take_varint()?, "miss line count")?;
    let mut misses = MissProfile::new();
    let mut prev_line = 0u64;
    for _ in 0..n_lines {
        let raw = misses_sec.take_delta()?;
        if raw < prev_line {
            return Err(ArtifactError::malformed("miss line", "lines not sorted"));
        }
        prev_line = raw + 1;
        let count = misses_sec.take_varint()?;
        let mut stats = LineMissStats { count, ..Default::default() };
        let n_at: usize = narrow(misses_sec.take_varint()?, "at-block count")?;
        for _ in 0..n_at {
            let b = in_range(misses_sec.take_varint()?, "at-block id")?;
            stats.at_blocks.insert(BlockId(b), misses_sec.take_varint()?);
        }
        let n_hist: usize = narrow(misses_sec.take_varint()?, "history-block count")?;
        for _ in 0..n_hist {
            let b = in_range(misses_sec.take_varint()?, "history-block id")?;
            stats.history_presence.insert(BlockId(b), misses_sec.take_varint()?);
        }
        let n_pos: usize = narrow(misses_sec.take_varint()?, "position count")?;
        if n_pos as u64 != count {
            return Err(ArtifactError::malformed("miss positions", "count/positions mismatch"));
        }
        let at_sum = stats.at_blocks.values().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if count == 0 || at_sum != Some(count) {
            return Err(ArtifactError::malformed("miss blocks", "count/at-block counts mismatch"));
        }
        let mut prev = 0u64;
        stats.positions.reserve(n_pos.min(1 << 24));
        for _ in 0..n_pos {
            let p = prev + misses_sec.take_varint()?;
            stats.positions.push(narrow(p, "miss position")?);
            prev = p;
        }
        misses.insert_line(Line::new(raw), stats);
    }
    misses_sec.finish()?;
    r.finish()?;

    let profile = Profile {
        cfg: DynCfg::new(exec, avg_cycles, edges),
        misses,
        trace_len,
        lbr_depth,
        replays: None,
    };
    Ok((label, profile))
}

/// Reads `(label, profile)` from `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure, otherwise as
/// [`profile_from_bytes`].
pub fn read_profile(path: &Path) -> Result<(String, Profile), ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
    profile_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{profile, SampleRate};
    use ispy_sim::SimConfig;
    use ispy_trace::apps;

    fn sample() -> (String, Profile) {
        let model = apps::finagle_http().scaled_down(50);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 8_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        (program.name().to_string(), prof)
    }

    #[test]
    fn round_trip_preserves_cfg_and_misses_exactly() {
        let (name, prof) = sample();
        let bytes = profile_to_bytes(&name, &prof);
        let (label, p2) = profile_from_bytes(&bytes).unwrap();
        assert_eq!(label, name);
        assert_eq!(p2.trace_len, prof.trace_len);
        assert_eq!(p2.lbr_depth, prof.lbr_depth);
        assert_eq!(p2.cfg.num_blocks(), prof.cfg.num_blocks());
        for i in 0..prof.cfg.num_blocks() {
            let b = BlockId(i as u32);
            assert_eq!(p2.cfg.exec_count(b), prof.cfg.exec_count(b));
            assert_eq!(p2.cfg.avg_cycles(b).to_bits(), prof.cfg.avg_cycles(b).to_bits());
            assert_eq!(p2.cfg.succs(b), prof.cfg.succs(b));
            assert_eq!(p2.cfg.preds(b), prof.cfg.preds(b));
        }
        assert_eq!(p2.misses.total_misses(), prof.misses.total_misses());
        assert_eq!(p2.misses.num_lines(), prof.misses.num_lines());
        for (line, stats) in prof.misses.iter() {
            let s2 = p2.misses.line(line).expect("line survived the round trip");
            assert_eq!(s2.count, stats.count);
            assert_eq!(s2.at_blocks, stats.at_blocks);
            assert_eq!(s2.history_presence, stats.history_presence);
            assert_eq!(s2.positions, stats.positions);
        }
    }

    #[test]
    fn reencoding_is_byte_identical() {
        let (name, prof) = sample();
        let bytes = profile_to_bytes(&name, &prof);
        let (label, p2) = profile_from_bytes(&bytes).unwrap();
        assert_eq!(profile_to_bytes(&label, &p2), bytes);
    }

    #[test]
    fn out_of_range_edge_is_malformed_not_panic() {
        // A hostile profile that declares one block but has an edge to
        // block 1: the decoder must reject it before `DynCfg::new` panics.
        let mut meta = SectionWriter::new(SEC_META);
        meta.put_str("small");
        meta.put_varint(2);
        meta.put_varint(32);
        meta.put_varint(1); // one block...
        let mut exec = SectionWriter::new(SEC_CFG_EXEC);
        exec.put_varint(1);
        let mut cycles = SectionWriter::new(SEC_CFG_CYCLES);
        cycles.put_f64(1.0);
        let mut e = SectionWriter::new(SEC_CFG_EDGES);
        e.put_varint(1);
        e.put_delta(0);
        e.put_varint(1); // ...but an edge to block 1.
        e.put_varint(5);
        let mut m = SectionWriter::new(SEC_MISSES);
        m.put_varint(0);
        let bytes = encode_to_vec(ArtifactKind::Profile, [meta, exec, cycles, e, m]);
        assert!(matches!(
            profile_from_bytes(&bytes),
            Err(ArtifactError::Malformed { context: "edge target", .. })
        ));
    }

    /// A one-block profile whose single miss line has `count` misses, the
    /// given `(block, count)` miss blocks and `count` positions.
    fn one_line_profile(count: u64, at_blocks: &[(u64, u64)]) -> Vec<u8> {
        let mut meta = SectionWriter::new(SEC_META);
        meta.put_str("small");
        meta.put_varint(64);
        meta.put_varint(32);
        meta.put_varint(1);
        let mut exec = SectionWriter::new(SEC_CFG_EXEC);
        exec.put_varint(1);
        let mut cycles = SectionWriter::new(SEC_CFG_CYCLES);
        cycles.put_f64(1.0);
        let mut e = SectionWriter::new(SEC_CFG_EDGES);
        e.put_varint(0);
        let mut m = SectionWriter::new(SEC_MISSES);
        m.put_varint(1);
        m.put_delta(7);
        m.put_varint(count);
        m.put_varint(at_blocks.len() as u64);
        for &(b, c) in at_blocks {
            m.put_varint(b);
            m.put_varint(c);
        }
        m.put_varint(0); // no history blocks
        m.put_varint(count);
        for _ in 0..count {
            m.put_varint(1);
        }
        encode_to_vec(ArtifactKind::Profile, [meta, exec, cycles, e, m])
    }

    #[test]
    fn miss_blocks_that_miss_the_count_are_malformed_not_panic() {
        let (_, ok) = profile_from_bytes(&one_line_profile(3, &[(0, 3)])).unwrap();
        assert_eq!(ok.misses.plan_order(0).next().unwrap().dominant, BlockId(0));
        // Empty, short, long and overflowing miss blocks, and a line with
        // no misses: each would leave a line without a dominant block or
        // break `insert_line`'s invariant.
        for (count, at) in [
            (3, &[][..]),
            (3, &[(0, 2)][..]),
            (3, &[(0, 2), (0, 2)][..]),
            (3, &[(0, u64::MAX)][..]),
            (0, &[][..]),
        ] {
            assert!(
                matches!(
                    profile_from_bytes(&one_line_profile(count, at)),
                    Err(ArtifactError::Malformed { context: "miss blocks", .. })
                ),
                "count {count}, at-blocks {at:?}"
            );
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = encode_to_vec(ArtifactKind::Profile, []);
        assert!(matches!(
            profile_from_bytes(&bytes),
            Err(ArtifactError::MissingSection { id: SEC_META })
        ));
    }
}
