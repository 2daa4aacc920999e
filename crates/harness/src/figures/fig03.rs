//! Fig. 3: AsmDB's coverage/accuracy trade-off vs its fan-out threshold.

use crate::report::{pct, Table};
use crate::session::Session;
use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_sim::SimConfig;

/// Fan-out thresholds swept (fraction of paths allowed to not lead to the
/// miss).
pub const THRESHOLDS: [f64; 6] = [0.0, 0.20, 0.40, 0.60, 0.80, 0.99];

/// Regenerates Fig. 3 on wordpress: raising AsmDB's fan-out threshold buys
/// miss coverage but costs prefetch accuracy, capping its fraction of ideal.
///
/// The threshold sweep fans out across the thread pool; rows stay in sweep
/// order. If wordpress is absent (a `repro --apps` subset), the table is
/// returned empty with a note instead of panicking.
pub fn run(session: &Session) -> Table {
    let mut t = Table::new(
        "fig03",
        "AsmDB coverage vs accuracy vs fan-out threshold (wordpress)",
        &["fan-out threshold", "miss coverage", "accuracy", "% of ideal speedup"],
    );
    let Some(i) = session.apps().iter().position(|a| a.name() == "wordpress") else {
        t.note("note: wordpress absent from this session's app set; figure skipped");
        return t;
    };
    let ctx = &session.apps()[i];
    let c = session.comparison(i);
    let cells = ispy_parallel::par_collect(THRESHOLDS.len(), |ti| {
        let plan = AsmDbPlanner::new(
            &ctx.program,
            &ctx.profile,
            AsmDbConfig::default().with_fanout_threshold(THRESHOLDS[ti]),
        )
        .plan();
        let compiled = plan.injections.compile(ctx.program.num_blocks());
        let r = ctx.simulate(&SimConfig::default(), Some(&compiled));
        (r.mpki_reduction_vs(&c.baseline), r.accuracy(), r.fraction_of_ideal(&c.baseline, &c.ideal))
    });
    for (ti, &th) in THRESHOLDS.iter().enumerate() {
        let (cov, acc, fi) = cells[ti];
        t.row(vec![pct(th), pct(cov), pct(acc), pct(fi)]);
    }
    t.note("paper: coverage rises with the threshold, accuracy drops sharply near 99%,");
    t.note("paper: and AsmDB tops out around 65% of ideal on wordpress");
    t
}
