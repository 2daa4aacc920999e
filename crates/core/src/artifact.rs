//! The `.iplan` artifact codec: a durable injection plan with provenance.
//!
//! Serializes a [`Plan`] — the injection map, its aggregate statistics, the
//! adopted context details, and the full per-op provenance chain — so a
//! planning run can be stored, diffed, shipped to the machine that rewrites
//! the binary, and replayed later with byte-identical results.
//!
//! The decode is exact: every `f64` estimate travels as raw bits, provenance
//! ids round-trip verbatim, and a reloaded plan is `==` to the original
//! (`Plan` derives `PartialEq`), which is what lets the artifact cache
//! substitute a stored plan for a fresh planning pass.
//!
//! # Examples
//!
//! ```
//! use ispy_core::{artifact, IspyConfig, Planner};
//! use ispy_profile::{profile, SampleRate};
//! use ispy_sim::SimConfig;
//! use ispy_trace::apps;
//!
//! let model = apps::cassandra().scaled_down(60);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 8_000);
//! let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
//! let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();
//!
//! let bytes = artifact::plan_to_bytes(program.name(), &plan);
//! let (label, plan2) = artifact::plan_from_bytes(&bytes).unwrap();
//! assert_eq!(label, "cassandra");
//! assert_eq!(plan2, plan);
//! ```

use crate::planner::{Plan, PlanStats};
use crate::provenance::{PlannedLine, ProvenanceRecord};
use ispy_artifact::{
    encode_to_vec, narrow, ArtifactError, ArtifactKind, SectionReader, SectionWriter, StreamReader,
};
use ispy_isa::{CoalesceMask, ContextHash, InjectionMap, PrefetchOp, ProvenanceId};
use ispy_trace::{BlockId, Line};
use std::path::Path;

/// App label.
const SEC_META: u32 = 1;
/// The injection map: per-site op lists with provenance ids.
const SEC_INJECTIONS: u32 = 2;
/// Aggregate [`PlanStats`].
const SEC_STATS: u32 = 3;
/// Adopted context predictor-block details.
const SEC_CONTEXT_DETAILS: u32 = 4;
/// Per-op [`ProvenanceRecord`]s.
const SEC_PROVENANCE: u32 = 5;

/// Op encoding tags — shared by the op payloads and the provenance
/// mnemonics, in the §IV decision-diagram order.
const TAG_PLAIN: u8 = 0;
const TAG_COND: u8 = 1;
const TAG_COALESCED: u8 = 2;
const TAG_COND_COALESCED: u8 = 3;

fn mnemonic_tag(m: &str) -> u8 {
    match m {
        "prefetch" => TAG_PLAIN,
        "Cprefetch" => TAG_COND,
        "Lprefetch" => TAG_COALESCED,
        _ => TAG_COND_COALESCED,
    }
}

fn tag_mnemonic(tag: u8) -> Result<&'static str, ArtifactError> {
    match tag {
        TAG_PLAIN => Ok("prefetch"),
        TAG_COND => Ok("Cprefetch"),
        TAG_COALESCED => Ok("Lprefetch"),
        TAG_COND_COALESCED => Ok("CLprefetch"),
        other => Err(ArtifactError::malformed("mnemonic tag", format!("unknown tag {other}"))),
    }
}

fn put_hash(s: &mut SectionWriter, bits: u64, width: u8) {
    s.put_varint(bits);
    s.put_u8(width);
}

/// Reads a `(bits, width)` pair and validates the width before handing it
/// to the (panicking) `from_bits` constructors.
fn take_hash(s: &mut SectionReader<'_>, what: &'static str) -> Result<(u64, u8), ArtifactError> {
    let bits = s.take_varint()?;
    let width = s.take_u8()?;
    if !(1..=64).contains(&width) {
        return Err(ArtifactError::malformed(what, format!("width {width} out of range")));
    }
    if width < 64 && bits >> width != 0 {
        return Err(ArtifactError::malformed(what, "bits exceed declared width"));
    }
    Ok((bits, width))
}

fn put_op(s: &mut SectionWriter, op: &PrefetchOp) {
    match op {
        PrefetchOp::Plain { target } => {
            s.put_u8(TAG_PLAIN);
            s.put_varint(target.raw());
        }
        PrefetchOp::Cond { target, ctx } => {
            s.put_u8(TAG_COND);
            s.put_varint(target.raw());
            put_hash(s, ctx.bits(), ctx.width());
        }
        PrefetchOp::Coalesced { base, mask } => {
            s.put_u8(TAG_COALESCED);
            s.put_varint(base.raw());
            put_hash(s, mask.bits(), mask.width());
        }
        PrefetchOp::CondCoalesced { base, mask, ctx } => {
            s.put_u8(TAG_COND_COALESCED);
            s.put_varint(base.raw());
            put_hash(s, mask.bits(), mask.width());
            put_hash(s, ctx.bits(), ctx.width());
        }
    }
}

fn take_op(s: &mut SectionReader<'_>) -> Result<PrefetchOp, ArtifactError> {
    match s.take_u8()? {
        TAG_PLAIN => Ok(PrefetchOp::Plain { target: Line::new(s.take_varint()?) }),
        TAG_COND => {
            let target = Line::new(s.take_varint()?);
            let (bits, width) = take_hash(s, "context hash")?;
            Ok(PrefetchOp::Cond { target, ctx: ContextHash::from_bits(bits, width) })
        }
        TAG_COALESCED => {
            let base = Line::new(s.take_varint()?);
            let (bits, width) = take_hash(s, "coalesce mask")?;
            Ok(PrefetchOp::Coalesced { base, mask: CoalesceMask::from_bits(bits, width) })
        }
        TAG_COND_COALESCED => {
            let base = Line::new(s.take_varint()?);
            let (mb, mw) = take_hash(s, "coalesce mask")?;
            let (cb, cw) = take_hash(s, "context hash")?;
            Ok(PrefetchOp::CondCoalesced {
                base,
                mask: CoalesceMask::from_bits(mb, mw),
                ctx: ContextHash::from_bits(cb, cw),
            })
        }
        other => Err(ArtifactError::malformed("op tag", format!("unknown tag {other}"))),
    }
}

/// Serializes a plan to artifact bytes under an app `label`.
pub fn plan_to_bytes(label: &str, plan: &Plan) -> Vec<u8> {
    let mut meta = SectionWriter::new(SEC_META);
    meta.put_str(label);

    let mut inj = SectionWriter::new(SEC_INJECTIONS);
    inj.put_varint(plan.injections.num_sites() as u64);
    for (site, ops) in plan.injections.iter() {
        inj.put_delta(u64::from(site.0));
        inj.put_varint(ops.len() as u64);
        let ids = plan.injections.ids_at(site);
        for (op, id) in ops.iter().zip(ids) {
            put_op(&mut inj, op);
            inj.put_opt_varint(id.map(|i| u64::from(i.0)));
        }
    }

    let st = &plan.stats;
    let mut stats = SectionWriter::new(SEC_STATS);
    for v in [st.target_lines, st.covered_lines, st.uncovered_lines, st.sites] {
        stats.put_varint(v as u64);
    }
    for v in [st.ops_plain, st.ops_cond, st.ops_coalesced, st.ops_cond_coalesced] {
        stats.put_varint(v as u64);
    }
    stats.put_varint(st.injected_bytes);
    stats.put_f64(st.static_increase);
    stats.put_varint(st.contexts_adopted as u64);
    stats.put_varint(st.context_blocks_total as u64);
    for hist in [&st.coalesced_distance_hist, &st.lines_per_op_hist] {
        stats.put_varint(hist.len() as u64);
        for &v in hist.iter() {
            stats.put_varint(v);
        }
    }
    for v in [st.lines_no_candidates, st.lines_no_sites, st.entries_dropped] {
        stats.put_varint(v as u64);
    }

    let mut ctx = SectionWriter::new(SEC_CONTEXT_DETAILS);
    ctx.put_varint(plan.context_details.len() as u64);
    for (site, blocks) in &plan.context_details {
        ctx.put_varint(u64::from(site.0));
        ctx.put_varint(blocks.len() as u64);
        for b in blocks {
            ctx.put_varint(u64::from(b.0));
        }
    }

    let mut prov = SectionWriter::new(SEC_PROVENANCE);
    prov.put_varint(plan.provenance.len() as u64);
    for rec in &plan.provenance {
        prov.put_varint(u64::from(rec.id.0));
        prov.put_varint(u64::from(rec.site.0));
        prov.put_u8(mnemonic_tag(rec.mnemonic));
        prov.put_varint(rec.base_line.raw());
        match rec.mask {
            Some(m) => {
                prov.put_u8(1);
                put_hash(&mut prov, m.bits(), m.width());
            }
            None => prov.put_u8(0),
        }
        prov.put_varint(rec.context_blocks.len() as u64);
        for b in &rec.context_blocks {
            prov.put_varint(u64::from(b.0));
        }
        prov.put_varint(rec.lines.len() as u64);
        for l in &rec.lines {
            prov.put_varint(l.line.raw());
            prov.put_varint(l.miss_count);
            prov.put_f64(l.site_presence);
            prov.put_f64(l.site_precision);
            prov.put_f64(l.reach_prob);
            prov.put_f64(l.window_cycles);
            prov.put_opt_f64(l.ctx_probability);
            prov.put_opt_f64(l.ctx_baseline);
            prov.put_opt_varint(l.ctx_support);
        }
    }

    encode_to_vec(ArtifactKind::Plan, [meta, inj, stats, ctx, prov])
}

/// Writes a plan to `path` (conventionally `*.iplan`).
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn write_plan(label: &str, plan: &Plan, path: &Path) -> Result<(), ArtifactError> {
    std::fs::create_dir_all(path.parent().unwrap_or_else(|| Path::new(".")))
        .map_err(|e| ArtifactError::io(path, e))?;
    std::fs::write(path, plan_to_bytes(label, plan)).map_err(|e| ArtifactError::io(path, e))
}

/// Decodes `(label, plan)` from artifact bytes.
///
/// # Errors
///
/// Typed [`ArtifactError`] on any container- or payload-level defect; hash
/// and mask widths are validated before the panicking constructors run.
pub fn plan_from_bytes(bytes: &[u8]) -> Result<(String, Plan), ArtifactError> {
    let mut r = StreamReader::new(bytes, ArtifactKind::Plan)?;

    let payload = r.expect_section(SEC_META)?;
    let mut meta = SectionReader::new(SEC_META, &payload);
    let label = meta.take_str()?;
    meta.finish()?;

    let payload = r.expect_section(SEC_INJECTIONS)?;
    let mut inj = SectionReader::new(SEC_INJECTIONS, &payload);
    let num_sites: usize = narrow(inj.take_varint()?, "site count")?;
    let mut injections = InjectionMap::new();
    for _ in 0..num_sites {
        let site = BlockId(narrow(inj.take_delta()?, "site id")?);
        let n_ops: usize = narrow(inj.take_varint()?, "op count")?;
        if n_ops == 0 {
            return Err(ArtifactError::malformed("op count", "site with zero ops"));
        }
        for _ in 0..n_ops {
            let op = take_op(&mut inj)?;
            match inj.take_opt_varint()? {
                Some(id) => injections.push_traced(site, op, ProvenanceId(narrow(id, "op id")?)),
                None => injections.push(site, op),
            }
        }
    }
    inj.finish()?;

    let payload = r.expect_section(SEC_STATS)?;
    let mut s = SectionReader::new(SEC_STATS, &payload);
    let mut stats = PlanStats {
        target_lines: narrow(s.take_varint()?, "target lines")?,
        covered_lines: narrow(s.take_varint()?, "covered lines")?,
        uncovered_lines: narrow(s.take_varint()?, "uncovered lines")?,
        sites: narrow(s.take_varint()?, "sites")?,
        ops_plain: narrow(s.take_varint()?, "plain ops")?,
        ops_cond: narrow(s.take_varint()?, "cond ops")?,
        ops_coalesced: narrow(s.take_varint()?, "coalesced ops")?,
        ops_cond_coalesced: narrow(s.take_varint()?, "cond-coalesced ops")?,
        injected_bytes: s.take_varint()?,
        static_increase: s.take_f64()?,
        contexts_adopted: narrow(s.take_varint()?, "contexts adopted")?,
        context_blocks_total: narrow(s.take_varint()?, "context blocks")?,
        ..PlanStats::default()
    };
    for _ in 0..narrow::<usize>(s.take_varint()?, "distance hist len")? {
        stats.coalesced_distance_hist.push(s.take_varint()?);
    }
    for _ in 0..narrow::<usize>(s.take_varint()?, "lines-per-op hist len")? {
        stats.lines_per_op_hist.push(s.take_varint()?);
    }
    stats.lines_no_candidates = narrow(s.take_varint()?, "lines no candidates")?;
    stats.lines_no_sites = narrow(s.take_varint()?, "lines no sites")?;
    stats.entries_dropped = narrow(s.take_varint()?, "entries dropped")?;
    s.finish()?;

    let payload = r.expect_section(SEC_CONTEXT_DETAILS)?;
    let mut ctx = SectionReader::new(SEC_CONTEXT_DETAILS, &payload);
    let n_ctx: usize = narrow(ctx.take_varint()?, "context detail count")?;
    let mut context_details = Vec::with_capacity(n_ctx.min(1 << 20));
    for _ in 0..n_ctx {
        let site = BlockId(narrow(ctx.take_varint()?, "context site")?);
        let k: usize = narrow(ctx.take_varint()?, "predictor count")?;
        let mut blocks = Vec::with_capacity(k.min(1 << 16));
        for _ in 0..k {
            blocks.push(BlockId(narrow(ctx.take_varint()?, "predictor id")?));
        }
        context_details.push((site, blocks));
    }
    ctx.finish()?;

    let payload = r.expect_section(SEC_PROVENANCE)?;
    let mut prov = SectionReader::new(SEC_PROVENANCE, &payload);
    let n_recs: usize = narrow(prov.take_varint()?, "provenance count")?;
    let mut provenance = Vec::with_capacity(n_recs.min(1 << 20));
    for _ in 0..n_recs {
        let id = ProvenanceId(narrow(prov.take_varint()?, "provenance id")?);
        let site = BlockId(narrow(prov.take_varint()?, "provenance site")?);
        let mnemonic = tag_mnemonic(prov.take_u8()?)?;
        let base_line = Line::new(prov.take_varint()?);
        let mask = match prov.take_u8()? {
            0 => None,
            1 => {
                let (bits, width) = take_hash(&mut prov, "provenance mask")?;
                Some(CoalesceMask::from_bits(bits, width))
            }
            other => {
                return Err(ArtifactError::malformed("mask flag", format!("bad flag {other}")))
            }
        };
        let n_blocks: usize = narrow(prov.take_varint()?, "context block count")?;
        let mut context_blocks = Vec::with_capacity(n_blocks.min(1 << 16));
        for _ in 0..n_blocks {
            context_blocks.push(BlockId(narrow(prov.take_varint()?, "context block id")?));
        }
        let n_lines: usize = narrow(prov.take_varint()?, "planned line count")?;
        let mut lines = Vec::with_capacity(n_lines.min(1 << 16));
        for _ in 0..n_lines {
            lines.push(PlannedLine {
                line: Line::new(prov.take_varint()?),
                miss_count: prov.take_varint()?,
                site_presence: prov.take_f64()?,
                site_precision: prov.take_f64()?,
                reach_prob: prov.take_f64()?,
                window_cycles: prov.take_f64()?,
                ctx_probability: prov.take_opt_f64()?,
                ctx_baseline: prov.take_opt_f64()?,
                ctx_support: prov.take_opt_varint()?,
            });
        }
        provenance.push(ProvenanceRecord {
            id,
            site,
            mnemonic,
            base_line,
            mask,
            context_blocks,
            lines,
        });
    }
    prov.finish()?;
    r.finish()?;

    Ok((label, Plan { injections, stats, context_details, provenance }))
}

/// Reads `(label, plan)` from `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure, otherwise as
/// [`plan_from_bytes`].
pub fn read_plan(path: &Path) -> Result<(String, Plan), ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
    plan_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IspyConfig;
    use crate::planner::Planner;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::SimConfig;
    use ispy_trace::apps;

    fn sample_plan() -> (String, Plan) {
        let model = apps::drupal().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 12_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();
        (program.name().to_string(), plan)
    }

    #[test]
    fn round_trip_is_equal_and_byte_stable() {
        let (name, plan) = sample_plan();
        assert!(plan.injections.num_ops() > 0, "sample plan should inject something");
        let bytes = plan_to_bytes(&name, &plan);
        let (label, plan2) = plan_from_bytes(&bytes).unwrap();
        assert_eq!(label, name);
        assert_eq!(plan2, plan);
        assert_eq!(plan_to_bytes(&label, &plan2), bytes);
    }

    #[test]
    fn all_four_op_forms_round_trip() {
        let mut injections = InjectionMap::new();
        injections.push(BlockId(1), PrefetchOp::Plain { target: Line::new(10) });
        injections.push_traced(
            BlockId(1),
            PrefetchOp::Cond { target: Line::new(11), ctx: ContextHash::from_bits(0xBEEF, 16) },
            ProvenanceId(0),
        );
        injections.push(
            BlockId(2),
            PrefetchOp::Coalesced { base: Line::new(12), mask: CoalesceMask::from_bits(0b101, 8) },
        );
        injections.push_traced(
            BlockId(3),
            PrefetchOp::CondCoalesced {
                base: Line::new(13),
                mask: CoalesceMask::from_bits(0b11, 8),
                ctx: ContextHash::from_bits(u64::MAX, 64),
            },
            ProvenanceId(7),
        );
        let plan = Plan {
            injections,
            stats: PlanStats { sites: 3, ops_plain: 1, ..PlanStats::default() },
            context_details: vec![(BlockId(1), vec![BlockId(4), BlockId(5)])],
            provenance: vec![ProvenanceRecord {
                id: ProvenanceId(0),
                site: BlockId(1),
                mnemonic: "Cprefetch",
                base_line: Line::new(11),
                mask: None,
                context_blocks: vec![BlockId(4)],
                lines: vec![PlannedLine {
                    line: Line::new(11),
                    miss_count: 3,
                    site_presence: 0.5,
                    site_precision: 0.25,
                    reach_prob: 0.75,
                    window_cycles: 64.0,
                    ctx_probability: Some(0.9),
                    ctx_baseline: Some(0.1),
                    ctx_support: Some(12),
                }],
            }],
        };
        let bytes = plan_to_bytes("hand", &plan);
        let (label, plan2) = plan_from_bytes(&bytes).unwrap();
        assert_eq!(label, "hand");
        assert_eq!(plan2, plan);
    }

    #[test]
    fn hostile_width_is_malformed_not_panic() {
        let mut meta = SectionWriter::new(SEC_META);
        meta.put_str("x");
        let mut inj = SectionWriter::new(SEC_INJECTIONS);
        inj.put_varint(1); // one site
        inj.put_delta(0);
        inj.put_varint(1); // one op
        inj.put_u8(TAG_COND);
        inj.put_varint(9); // target line
        inj.put_varint(1); // ctx bits
        inj.put_u8(65); // hostile width
        inj.put_opt_varint(None);
        assert!(matches!(
            plan_from_bytes(&encode_to_vec(ArtifactKind::Plan, [meta, inj])),
            Err(ArtifactError::Malformed { context: "context hash", .. })
        ));
    }

    #[test]
    fn bits_wider_than_declared_width_are_malformed() {
        let mut meta = SectionWriter::new(SEC_META);
        meta.put_str("x");
        let mut inj = SectionWriter::new(SEC_INJECTIONS);
        inj.put_varint(1);
        inj.put_delta(0);
        inj.put_varint(1);
        inj.put_u8(TAG_COALESCED);
        inj.put_varint(9);
        inj.put_varint(0x1FF); // 9 bits...
        inj.put_u8(8); // ...declared as 8 wide
        inj.put_opt_varint(None);
        assert!(matches!(
            plan_from_bytes(&encode_to_vec(ArtifactKind::Plan, [meta, inj])),
            Err(ArtifactError::Malformed { context: "coalesce mask", .. })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        assert!(matches!(
            plan_from_bytes(&encode_to_vec(ArtifactKind::Plan, [])),
            Err(ArtifactError::MissingSection { id: SEC_META })
        ));
    }
}
