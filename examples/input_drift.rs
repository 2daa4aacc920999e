//! Input generalization (paper Fig. 16): profile under one request mix,
//! then serve different mixes with the same injected binary — first from a
//! single-machine profile, then from a fleet consensus of several drift
//! variants replayed against *held-out* inputs.
//!
//! ```sh
//! cargo run --release --example input_drift [-- --trained N]
//! ```
//!
//! `--trained N` (default 3, range 1..=4) controls how many drift variants
//! feed the fleet consensus; variants `N..=4` stay held out.

use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_core::planner::Plan;
use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_fleet::{plan_consensus, ConsensusBuilder};
use ispy_profile::{profile, SampleRate};
use ispy_sim::{run, RunOptions, SimConfig, SimObserver, SimResult};
use ispy_trace::{apps, BlockId, Program, Trace};
use std::collections::HashSet;

/// Records the replay cycle at every request boundary (the entry block of
/// each request path's first function), so consecutive deltas are
/// per-request latencies.
struct BoundaryObserver {
    boundaries: HashSet<BlockId>,
    cycles: Vec<u64>,
}

impl BoundaryObserver {
    fn new(program: &Program) -> Self {
        let boundaries = program
            .request_paths()
            .iter()
            .filter_map(|path| path.first())
            .map(|&f| program.func(f).entry())
            .collect();
        BoundaryObserver { boundaries, cycles: Vec::new() }
    }
}

impl SimObserver for BoundaryObserver {
    fn block_entered(&mut self, _idx: usize, block: BlockId, cycle: u64) {
        if self.boundaries.contains(&block) {
            self.cycles.push(cycle);
        }
    }
}

/// Replays `trace` under `injections` and under the ideal cache, recording
/// request boundaries in both. Returns the run's counters plus per-request
/// front-end stall: the boundary cycles line up one-to-one (same trace, so
/// the same blocks are boundaries), so each request's stall is its real
/// latency minus its latency under an ideal I-cache.
fn run_with_stalls(
    program: &Program,
    trace: &Trace,
    sim_cfg: &SimConfig,
    injections: Option<&ispy_isa::InjectionMap>,
) -> (SimResult, Vec<u64>) {
    let mut real_obs = BoundaryObserver::new(program);
    let real = run(
        program,
        trace,
        sim_cfg,
        RunOptions { injections, observer: Some(&mut real_obs), ..Default::default() },
    );
    let mut ideal_obs = BoundaryObserver::new(program);
    run(
        program,
        trace,
        &SimConfig::ideal(),
        RunOptions { observer: Some(&mut ideal_obs), ..Default::default() },
    );
    assert_eq!(real_obs.cycles.len(), ideal_obs.cycles.len());
    let per_request =
        |cycles: &[u64]| -> Vec<u64> { cycles.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>() };
    let stalls: Vec<u64> = per_request(&real_obs.cycles)
        .iter()
        .zip(per_request(&ideal_obs.cycles))
        .map(|(&r, i)| r.saturating_sub(i))
        .collect();
    (real, stalls)
}

/// The p99 of a sample set (0 when empty).
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() as f64 * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Parses `--trained N` from the command line (default 3). The consensus
/// needs at least one member and at least one held-out variant, so N is
/// clamped to 1..=4.
fn trained_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => 3,
        [flag, value] if flag == "--trained" => {
            let n: usize = value.parse().unwrap_or_else(|_| {
                eprintln!("--trained expects an integer, got {value:?}");
                std::process::exit(2);
            });
            if !(1..=4).contains(&n) {
                eprintln!(
                    "--trained must be in 1..=4 (got {n}): the consensus needs at least one member and one held-out variant"
                );
                std::process::exit(2);
            }
            n
        }
        _ => {
            eprintln!("usage: input_drift [--trained N]   (N in 1..=4, default 3)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let model = apps::wordpress().scaled_down(4);
    let program = model.generate();
    let events = 250_000;
    let sim_cfg = SimConfig::default();

    // Profile and plan on the default (variant 0) input only.
    let profiled_trace = program.record_trace(model.default_input(), events);
    let prof = profile(&program, &profiled_trace, &sim_cfg, SampleRate::EXACT);
    let ispy = Planner::new(&program, &profiled_trace, &prof, IspyConfig::default()).plan();
    let asmdb = AsmDbPlanner::new(&program, &prof, AsmDbConfig::default()).plan();

    println!("wordpress, plans built from the profiled input only\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>14}",
        "input", "ideal", "asmdb", "i-spy", "i-spy %ideal"
    );
    for k in 0..5 {
        let input = model.input_variant(k);
        let trace = program.record_trace(input, events);
        let base = run(&program, &trace, &sim_cfg, RunOptions::default());
        let ideal = run(&program, &trace, &SimConfig::ideal(), RunOptions::default());
        let ra = run(
            &program,
            &trace,
            &sim_cfg,
            RunOptions { injections: Some(&asmdb.injections), ..Default::default() },
        );
        let ri = run(
            &program,
            &trace,
            &sim_cfg,
            RunOptions { injections: Some(&ispy.injections), ..Default::default() },
        );
        println!(
            "{:<10} {:>11.3}x {:>11.3}x {:>11.3}x {:>13.1}%",
            if k == 0 { "profiled".to_string() } else { format!("drift-{k}") },
            ideal.speedup_over(&base),
            ra.speedup_over(&base),
            ri.speedup_over(&base),
            100.0 * ri.fraction_of_ideal(&base, &ideal),
        );
    }
    println!("\nConditional prefetching keys on run-time context, so the plan");
    println!("degrades gracefully when the request mix drifts (paper §VI-A).");

    // Fleet cross-input robustness: merge profiles of the first `trained`
    // variants into a consensus (the deployment model `repro fleet merge`
    // automates), plan from the aggregate, and replay against the held-out
    // variants `trained..=4` that no member profiled.
    let trained = trained_from_args();
    let mut builder = ConsensusBuilder::new(model.name());
    for k in 0..trained {
        let t = program.record_trace(model.input_variant(k), events);
        builder
            .fold(&profile(&program, &t, &sim_cfg, SampleRate::EXACT), 1)
            .expect("same binary, same sim config");
    }
    let (consensus, stats) = builder.finish().expect("at least one member folded");
    let baseline = PlannerBaseline::new();
    let fleet_plan = plan_consensus(&program, &profiled_trace, &consensus, &baseline);

    println!(
        "\nfleet consensus: {} members (variants 0-{}), {} lines kept, held out variants {}-4\n",
        stats.members,
        trained - 1,
        stats.lines_kept,
        trained
    );
    println!("{:<10} {:<12} {:>8} {:>18}", "input", "plan", "mpki", "p99 stall (cyc)");
    let mut agg = [SimResult::default(); 3];
    let mut agg_stalls: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for k in trained..5 {
        let trace = program.record_trace(model.input_variant(k), events);
        let rows: [(&str, Option<&Plan>); 3] =
            [("none", None), ("single", Some(&ispy)), ("consensus", Some(&fleet_plan))];
        for (slot, (label, plan)) in rows.into_iter().enumerate() {
            let (res, mut stalls) =
                run_with_stalls(&program, &trace, &sim_cfg, plan.map(|p| &p.injections));
            println!(
                "{:<10} {:<12} {:>8.3} {:>18}",
                format!("drift-{k}"),
                label,
                res.mpki(),
                p99(&mut stalls)
            );
            agg[slot].accumulate(&res);
            agg_stalls[slot].extend(stalls);
        }
    }
    for (slot, label) in ["none", "single", "consensus"].into_iter().enumerate() {
        println!(
            "{:<10} {:<12} {:>8.3} {:>18}",
            "aggregate",
            label,
            agg[slot].mpki(),
            p99(&mut agg_stalls[slot])
        );
    }
    println!("\nThe consensus plan keeps the held-out MPKI reduction of the");
    println!("single-input plan while voting out lines only one input missed,");
    println!("which is what lets a fleet share one plan across request mixes.");
}
