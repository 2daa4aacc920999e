//! Figs. 2/6/7/8: the paper's worked example, executed end to end.

use crate::report::Table;
use crate::session::Session;
use ispy_core::context::discover_multi;
use ispy_isa::{CoalesceMask, HashConfig, PrefetchOp};
use ispy_profile::JointCounts;
use ispy_sim::Lbr;
use ispy_trace::{Addr, BlockId, Line};

/// Reproduces the paper's running example: six execution paths through
/// injection site G, two of which (those passing through B and E) lead to
/// the miss at K. Context discovery must select `{B, E}`; the Cprefetch must
/// fire exactly when B and E are in the LBR; coalescing must merge the
/// Fig. 8 targets.
pub fn run(_session: &Session) -> Table {
    let mut t =
        Table::new("walkthrough", "Paper worked example (Figs. 2/6/7/8)", &["step", "result"]);

    // -- Fig. 6: context discovery over the six paths. ----------------------
    // Candidates: B (bit 0), E (bit 1). Two paths have both B and E and lead
    // to the miss; one has only B, one only E, two have neither.
    let counts = JointCounts::from_dense(&[2, 1, 1, 2], &[0, 0, 0, 2]);
    let b = BlockId(1);
    let e = BlockId(4);
    // One context, as in the figure: every subset covers both misses, and
    // {B, E} wins the tie on probability.
    let found = discover_multi(&counts, &[b, e], 4, 1, 0.05, 0.0, 1);
    let ctx = found.contexts.first().expect("the paper's context exists");
    t.row(vec![
        "Fig. 6 context discovery".into(),
        format!(
            "context {{B, E}} chosen: P(miss|ctx)={:.2} vs unconditional {:.2}",
            ctx.probability, ctx.baseline
        ),
    ]);

    // -- Fig. 7: the Cprefetch and its Bloom-filter check. -------------------
    let hash = HashConfig::default();
    let addr_b = Addr::new(0x400100);
    let addr_e = Addr::new(0x400400);
    let ctx_hash = hash.context_hash([addr_b, addr_e]);
    let op = PrefetchOp::Cond { target: Line::new(0x4b), ctx: ctx_hash };
    t.row(vec!["Cprefetch encoding".into(), format!("{op} ({} bytes)", op.encoded_bytes())]);

    let mut lbr = Lbr::new(32, hash);
    lbr.push(addr_b);
    lbr.push(Addr::new(0x400200)); // unrelated block
    lbr.push(addr_e);
    t.row(vec![
        "LBR holds {B, ., E}".into(),
        format!("prefetch fires: {}", op.fires(lbr.runtime_hash())),
    ]);
    let mut lbr2 = Lbr::new(32, hash);
    lbr2.push(addr_b);
    t.row(vec![
        "LBR holds only {B}".into(),
        format!("prefetch fires: {}", op.fires(lbr2.runtime_hash())),
    ]);

    // -- Fig. 8: coalescing 0x2/0x4/0x7 under one context. -------------------
    let mask = CoalesceMask::from_lines(Line::new(0x2), [Line::new(0x4), Line::new(0x7)], 8)
        .expect("the Fig. 8 lines are within the window");
    let cl = PrefetchOp::CondCoalesced { base: Line::new(0x2), mask, ctx: ctx_hash };
    t.row(vec![
        "Fig. 8 coalescing".into(),
        format!("{cl} prefetches {:?} ({} bytes)", cl.target_lines(), cl.encoded_bytes()),
    ]);
    t.note("all assertions in this walk-through are also enforced by unit tests");
    t
}
