//! Fig. 5: Contiguous-8 vs Non-contiguous-8.

use crate::report::{speedup, Table};
use crate::session::Session;
use ispy_baselines::spatial::{SpatialMode, SpatialPlanner};
use ispy_sim::SimConfig;

/// Regenerates Fig. 5: speedup over no-prefetching for the two 8-line-window
/// prefetchers of §II-D.
///
/// The (mode × app) grid fans out across the thread pool; rows are
/// assembled per app afterwards.
pub fn run(session: &Session) -> Table {
    let mut t = Table::new(
        "fig05",
        "Speedup of Contiguous-8 vs Non-contiguous-8 over no prefetching",
        &["app", "contiguous-8", "non-contiguous-8"],
    );
    session.comparisons();
    let napps = session.apps().len();
    const MODES: [SpatialMode; 2] = [SpatialMode::Contiguous, SpatialMode::NonContiguous];
    let cells = ispy_parallel::par_collect(MODES.len() * napps, |j| {
        let (mi, i) = (j / napps, j % napps);
        let ctx = &session.apps()[i];
        let c = session.comparison(i);
        let plan = SpatialPlanner::new(&ctx.program, &ctx.profile, MODES[mi]).plan();
        let compiled = plan.injections.compile(ctx.program.num_blocks());
        let r = ctx.simulate(&SimConfig::default(), Some(&compiled));
        r.speedup_over(&c.baseline)
    });
    let mut gains = Vec::new();
    for (i, ctx) in session.apps().iter().enumerate() {
        let (sc, sn) = (cells[i], cells[napps + i]);
        gains.push(sn / sc);
        t.row(vec![ctx.name().to_string(), speedup(sc), speedup(sn)]);
    }
    let mean_gain = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    t.note(format!(
        "measured: non-contiguous-8 is {:.1}% faster than contiguous-8 on average",
        100.0 * (mean_gain - 1.0)
    ));
    t.note("paper: non-contiguous-8 provides an average 7.6% speedup over contiguous-8");
    t
}
