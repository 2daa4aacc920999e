//! Ablations beyond the paper's figures, for the design choices the paper
//! asserts without a sweep (DESIGN.md §5 "Ablations beyond the paper").

use crate::report::{pct, speedup, Table};
use crate::session::Session;
use ispy_core::{IspyConfig, Planner};
use ispy_isa::HashConfig;
use ispy_profile::{profile, SampleRate};
use ispy_sim::{InsertPriority, SimConfig};

/// Replacement-priority ablation (§III-B): the paper inserts prefetched
/// lines at *half* the highest priority to bound pollution from inaccurate
/// prefetches. Compare against MRU and LRU insertion.
///
/// The (priority × app) grid fans out across the thread pool; all cells
/// replay the cached I-SPY plan, only the simulator's insert policy varies.
pub fn replacement(session: &Session) -> Table {
    let mut t = Table::new(
        "abl-replacement",
        "Prefetched-line insertion priority (paper §III-B chooses half)",
        &["app", "mru insert", "half insert", "lru insert"],
    );
    session.comparisons();
    let napps = session.apps().len();
    const PRIOS: [InsertPriority; 3] =
        [InsertPriority::Mru, InsertPriority::Half, InsertPriority::Lru];
    let cells = ispy_parallel::par_collect(PRIOS.len() * napps, |j| {
        let (pi, i) = (j / napps, j % napps);
        let ctx = &session.apps()[i];
        let c = session.comparison(i);
        let cfg = SimConfig { prefetch_insert: PRIOS[pi], ..SimConfig::default() };
        let r = ctx.simulate(&cfg, Some(&c.ispy_compiled));
        r.speedup_over(&c.baseline)
    });
    for (i, ctx) in session.apps().iter().enumerate() {
        let mut row = vec![ctx.name().to_string()];
        for pi in 0..PRIOS.len() {
            row.push(speedup(cells[pi * napps + i]));
        }
        t.row(row);
    }
    t.note("half-priority bounds the damage of inaccurate prefetches; LRU insertion");
    t.note("evicts prefetches before use, MRU lets bad prefetches displace demand lines");
    t
}

/// PEBS-sampling ablation: how much profile fidelity does the planner need?
/// The paper profiles in production with sampled counters; this reproduction
/// defaults to exact profiles.
///
/// The (period × app) grid fans out across the thread pool. Each cell
/// re-profiles at its sampling period and plans fresh — the session's
/// planner baseline deliberately stays unused here, since it caches scans
/// keyed to the *exact* profile and a sampled profile changes the miss set.
pub fn sampling(session: &Session) -> Table {
    let mut t = Table::new(
        "abl-sampling",
        "Profile sampling rate vs plan quality",
        &["sampling period", "mean MPKI reduction", "mean % of ideal"],
    );
    session.comparisons();
    const PERIODS: [u32; 4] = [1, 4, 16, 64];
    let napps = session.apps().len();
    let cells = ispy_parallel::par_collect(PERIODS.len() * napps, |j| {
        let (si, i) = (j / napps, j % napps);
        let ctx = &session.apps()[i];
        let c = session.comparison(i);
        let scfg = SimConfig::default();
        let prof = profile(&ctx.program, &ctx.trace, &scfg, SampleRate::every(PERIODS[si]));
        let plan = Planner::new(&ctx.program, &ctx.trace, &prof, IspyConfig::default()).plan();
        let compiled = plan.injections.compile(ctx.program.num_blocks());
        let r = ctx.simulate(&scfg, Some(&compiled));
        (r.mpki_reduction_vs(&c.baseline), r.fraction_of_ideal(&c.baseline, &c.ideal))
    });
    for (si, period) in PERIODS.iter().enumerate() {
        let row = &cells[si * napps..(si + 1) * napps];
        let mean =
            |f: fn(&(f64, f64)) -> f64| row.iter().map(f).sum::<f64>() / row.len().max(1) as f64;
        t.row(vec![format!("1 / {period}"), pct(mean(|c| c.0)), pct(mean(|c| c.1))]);
    }
    t.note("plans degrade gracefully with sparser miss samples, supporting the paper's");
    t.note("lightweight always-on production profiling story");
    t
}

/// Bloom-filter hash-count ablation: one hash function (FNV-1) vs two
/// (FNV-1 + MurmurHash3, the paper's design).
///
/// The (k × app) grid fans out across the thread pool; each cell plans with
/// its hash config (reusing the app's baseline scans) and simulates with
/// the matching simulator hash.
pub fn bloom_k(session: &Session) -> Table {
    let mut t = Table::new(
        "abl-bloomk",
        "Context-hash functions per block: k=1 (FNV) vs k=2 (FNV+Murmur)",
        &["app", "k=1 speedup", "k=2 speedup", "k=1 suppression", "k=2 suppression"],
    );
    session.comparisons();
    const KS: [u8; 2] = [1, 2];
    let napps = session.apps().len();
    let cells = ispy_parallel::par_collect(KS.len() * napps, |j| {
        let (ki, i) = (j / napps, j % napps);
        let ctx = &session.apps()[i];
        let c = session.comparison(i);
        let hash = HashConfig::new(16, KS[ki]);
        let plan = Planner::new(
            &ctx.program,
            &ctx.trace,
            &ctx.profile,
            IspyConfig::default().with_hash(hash),
        )
        .plan_with_baseline(session.planner_baseline(i));
        let compiled = plan.injections.compile(ctx.program.num_blocks());
        let r = ctx.simulate(&SimConfig::default().with_hash(hash), Some(&compiled));
        let sup = if r.pf_ops_executed == 0 {
            0.0
        } else {
            r.pf_ops_suppressed as f64 / r.pf_ops_executed as f64
        };
        (r.speedup_over(&c.baseline), sup)
    });
    for (i, ctx) in session.apps().iter().enumerate() {
        let (k1, k2) = (&cells[i], &cells[napps + i]);
        t.row(vec![ctx.name().to_string(), speedup(k1.0), speedup(k2.0), pct(k1.1), pct(k2.1)]);
    }
    t.note("k=2 sets more bits per LBR entry (saturating the 16-bit filter faster, less");
    t.note("suppression); k=1 discriminates better at the same width");
    t
}
