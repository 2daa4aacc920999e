//! End-to-end and per-layer benchmark of the I-SPY pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline|sweep|scenario|adapt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced round (spans are written to
//! `perfbench/traces/<workload>-seed<n>.jsonl`). See `perfbench/README.md`.

mod adapt;
mod calib;
mod op;
mod pipeline;
mod reference;
mod scenario;
mod spans;
mod sweep;

use op::{OpOutput, Workload};
use spans::{Spans, SETUP};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker: the only second thread is run_adaptive's replan helper.
    ispy_parallel::set_threads(1);
    let report = match args.workload.as_str() {
        "pipeline" => bench::<pipeline::Pipeline>(&args),
        "sweep" => bench::<sweep::Sweep>(&args),
        "scenario" => bench::<scenario::ScenarioBench>(&args),
        "adapt" => bench::<adapt::Adapt>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The benchmark's result line.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        for f in &self.failures {
            eprintln!("perfbench: FAILED {f}");
        }
        let failed = (self.failures.len() as u64).min(self.attempted);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            metrics.join(", ")
        )
    }
}

/// Host cost of one round of ops.
struct RoundStats {
    /// Summed op wall time.
    op_ns: u64,
    /// Original-binary instructions simulated by every replay arm.
    sim_instrs: u64,
    /// Host time inside replay calls.
    sim_ns: u64,
}

/// Runs op 0..round_len once, recording failures; a failed op yields `None`.
fn run_round<W: Workload>(
    w: &mut W,
    spans: &Spans,
    failures: &mut Vec<String>,
) -> (Vec<Option<OpOutput>>, RoundStats) {
    let mut stats = RoundStats { op_ns: 0, sim_instrs: 0, sim_ns: 0 };
    let mut outs = Vec::with_capacity(w.round_len());
    for i in 0..w.round_len() {
        spans.set_phase(i as u32);
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| w.run_op(i, spans)));
        stats.op_ns += t0.elapsed().as_nanos() as u64;
        match res {
            Ok(Ok(out)) => {
                for arm in &out.arms {
                    stats.sim_instrs += arm.result.base_instrs;
                    stats.sim_ns += arm.ns;
                }
                outs.push(Some(out));
            }
            Ok(Err(e)) => {
                failures.push(format!("op {i}: {e}"));
                outs.push(None);
            }
            Err(_) => {
                failures.push(format!("op {i}: panicked"));
                outs.push(None);
            }
        }
    }
    spans.set_phase(SETUP);
    (outs, stats)
}

/// Records a failure for every op whose simulated outputs differ between
/// two runs of the same round.
fn compare_rounds(
    a: &[Option<OpOutput>],
    b: &[Option<OpOutput>],
    what: &str,
    failures: &mut Vec<String>,
) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if let (Some(x), Some(y)) = (x, y) {
            if !x.same_sim(y) {
                failures.push(format!("op {i}: simulated outputs differ {what}"));
            }
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The p99 of a sample set, ranked as the scenario report ranks it.
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() as f64 * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Every simulated value of one round, in a fixed order. These repeat bit
/// for bit for a seed, so they are pinned on the reference seed.
fn sim_values(outs: &[OpOutput]) -> Vec<(&'static str, f64)> {
    let n = outs.len().max(1) as f64;
    let speedup = (outs.iter().map(|o| o.ispy.speedup_over(&o.base).ln()).sum::<f64>() / n).exp();
    // Cycles I-SPY saved over the cycles an ideal I-cache saves, summed
    // over the round's ops (`fraction_of_ideal` of the round as a whole).
    let cycles = |f: fn(&OpOutput) -> &ispy_sim::SimResult| {
        outs.iter().map(|o| f(o).cycles as f64).sum::<f64>()
    };
    let (base, ideal, ispy) = (cycles(|o| &o.base), cycles(|o| &o.ideal), cycles(|o| &o.ispy));
    let pct_ideal = 100.0 * (base - ispy) / (base - ideal);
    let sum = |f: fn(&ispy_sim::SimResult) -> u64| outs.iter().map(|o| f(&o.ispy)).sum::<u64>();
    let base_instrs = sum(|r| r.base_instrs);
    let misses = sum(|r| r.i_misses);
    let issued = sum(|r| r.pf_lines_issued);
    let useful = sum(|r| r.pf_useful);
    let mut stalls: Vec<u64> = outs.iter().flat_map(|o| o.stalls.iter().copied()).collect();
    let gaps: Vec<f64> = outs.iter().filter_map(|o| o.gap_pct).collect();
    let mut values = vec![
        ("ispy_speedup", speedup),
        ("ispy_pct_ideal", pct_ideal),
        ("ispy_mpki", misses as f64 * 1000.0 / base_instrs.max(1) as f64),
        ("sim.ispy.i_misses", misses as f64),
        ("sim.ispy.pf_ops_executed", sum(|r| r.pf_ops_executed) as f64),
        ("sim.ispy.pf_ops_suppressed", sum(|r| r.pf_ops_suppressed) as f64),
        ("sim.ispy.pf_lines_issued", issued as f64),
        ("sim.ispy.pf_useful", useful as f64),
        ("sim.ispy.pf_late", sum(|r| r.pf_late) as f64),
        ("sim.ispy.pf_evicted_unused", sum(|r| r.pf_evicted_unused) as f64),
        ("sim.ispy.pf_accuracy", if issued == 0 { 0.0 } else { useful as f64 / issued as f64 }),
    ];
    // Request stalls exist only on `scenario`, windows only on `adapt`.
    if !stalls.is_empty() {
        values.push(("sim.ispy.p99_stall_cycles", p99(&mut stalls) as f64));
    }
    if !gaps.is_empty() {
        values.push(("harness.adapt.gap_pct", gaps.iter().sum::<f64>() / gaps.len() as f64));
        values.push(("sim.swaps", outs.iter().map(|o| o.swaps).sum::<u64>() as f64));
    }
    values
}

/// Compares `values` with the pinned reference on the reference seed.
fn check_reference(args: &Args, values: &[(&'static str, f64)], failures: &mut Vec<String>) {
    if args.seed != reference::SEED {
        return;
    }
    let pinned = reference::values(&args.workload);
    if pinned.is_empty() {
        failures.push(format!("no reference values recorded for {}", args.workload));
    }
    for (name, want) in pinned {
        match values.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got.to_bits() == want.to_bits() => {}
            Some((_, got)) => {
                failures.push(format!("reference {name}: got {got:?}, pinned {want:?}"))
            }
            None => failures.push(format!("reference {name}: not measured")),
        }
    }
    if !failures.is_empty() {
        eprintln!("perfbench: simulated values on seed {}:", args.seed);
        eprintln!("        \"{}\" => &[", args.workload);
        for (name, v) in values {
            eprintln!("            (\"{name}\", {v:?}),");
        }
        eprintln!("        ],");
    }
}

/// The first round's outputs, or a failure when an op of it failed.
fn complete(outs: Vec<Option<OpOutput>>, failures: &mut Vec<String>) -> Option<Vec<OpOutput>> {
    let outs: Option<Vec<OpOutput>> = outs.into_iter().collect();
    if outs.is_none() {
        failures.push("a round is incomplete, so its simulated metrics are not reported".into());
    }
    outs
}

fn bench<W: Workload>(args: &Args) -> Report {
    let spans = Spans::new();
    if args.trace {
        traced::<W>(args, &spans)
    } else {
        untraced::<W>(args, &spans)
    }
}

/// The end-to-end run: set up several times, then run whole rounds until
/// `--seconds` have passed. Host times are scaled to the reference host by
/// the probe (see `calib`); the values as measured go to standard error.
fn untraced<W: Workload>(args: &Args, spans: &Spans) -> Report {
    let mut failures = Vec::new();
    let mut probe = calib::Probe::new();
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let ((built, secs), slowdown) = probe.around(|| {
            let t0 = Instant::now();
            (W::setup(args.seed, spans), t0.elapsed().as_secs_f64())
        });
        w = Some(built);
        raw_setup_s.push(secs);
        setup_s.push(secs / slowdown);
    }
    let mut w = w.expect("at least one set-up");

    // Measure peak RSS over the timed phase only.
    let rss_reset = ispy_harness::rss::reset_peak_rss();
    let start = Instant::now();
    let mut first: Vec<Option<OpOutput>> = Vec::new();
    let mut rounds: Vec<(RoundStats, f64)> = Vec::new();
    let mut attempted = 0u64;
    loop {
        if !rounds.is_empty() {
            w.reset(spans);
        }
        let ((outs, stats), slowdown) = probe.around(|| run_round(&mut w, spans, &mut failures));
        attempted += outs.len() as u64;
        if rounds.is_empty() {
            first = outs;
        } else {
            compare_rounds(&first, &outs, &format!("in round {}", rounds.len()), &mut failures);
        }
        eprintln!(
            "perfbench: round {}: {} ops in {:.3} s, replay {:.2} MIPS, host slowdown {:.3}",
            rounds.len(),
            w.round_len(),
            stats.op_ns as f64 / 1e9,
            stats.sim_instrs as f64 / stats.sim_ns as f64 * 1e3,
            slowdown
        );
        rounds.push((stats, slowdown));
        // Stop before a round that would likely overrun `--seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (rounds.len() + 1) as f64 / rounds.len() as f64 > args.seconds {
            break;
        }
    }
    let peak = if rss_reset { ispy_harness::rss::peak_rss_bytes() } else { None };

    let first = complete(first, &mut failures);
    if let Some(outs) = &first {
        if let Err(e) = w.final_checks(outs) {
            failures.push(format!("final check: {e}"));
        }
    }
    let values = first.as_deref().map(sim_values).unwrap_or_default();
    check_reference(args, &values, &mut failures);

    let round_ops = w.round_len() as f64;
    let mut raw_ops: Vec<f64> =
        rounds.iter().map(|(r, _)| round_ops / (r.op_ns as f64 / 1e9)).collect();
    let mut raw_mips: Vec<f64> =
        rounds.iter().map(|(r, _)| r.sim_instrs as f64 / r.sim_ns as f64 * 1e3).collect();
    let mut ops_per_s: Vec<f64> = raw_ops.iter().zip(&rounds).map(|(v, (_, k))| v * k).collect();
    let mut mips: Vec<f64> = raw_mips.iter().zip(&rounds).map(|(v, (_, k))| v * k).collect();
    eprintln!(
        "perfbench: as measured: setup_s {} ops_per_s {} sim_mips {}",
        median(&mut raw_setup_s),
        median(&mut raw_ops),
        median(&mut raw_mips)
    );
    let mut metrics = vec![
        ("setup_s", median(&mut setup_s), "s"),
        ("ops_per_s", median(&mut ops_per_s), "1/s"),
        ("sim_mips", median(&mut mips), "MIPS"),
    ];
    // Where /proc is unavailable the metric is absent rather than 0.
    if let Some(bytes) = peak {
        metrics.push(("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0), "MiB"));
    }
    let units = [("ispy_speedup", "x"), ("ispy_pct_ideal", "%"), ("ispy_mpki", "MPKI")];
    for (name, unit) in units {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == name) {
            metrics.push((name, *v, unit));
        }
    }
    Report { attempted, failures, metrics }
}

/// The per-layer run: a traced set-up, then the round untraced, traced and
/// untraced again. Layer times cover the traced set-up and the traced
/// round; the tracing overhead compares the traced round with the mean of
/// the untraced rounds around it, which cancels a steady drift in host
/// speed.
fn traced<W: Workload>(args: &Args, spans: &Spans) -> Report {
    let mut failures = Vec::new();
    let tele = Arc::new(ispy_telemetry::Telemetry::new());
    let previous = ispy_telemetry::swap_global(Arc::clone(&tele));

    spans.set_enabled(true);
    let t0 = Instant::now();
    let mut w = W::setup(args.seed, spans);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    spans.set_enabled(false);

    // Untraced rounds count their library work in a registry of their own.
    ispy_telemetry::swap_global(Arc::new(ispy_telemetry::Telemetry::new()));
    let (before, before_stats) = run_round(&mut w, spans, &mut failures);
    w.reset(spans);
    ispy_telemetry::swap_global(Arc::clone(&tele));
    spans.set_enabled(true);
    let ((traced, traced_stats), slowdown) =
        calib::Probe::new().around(|| run_round(&mut w, spans, &mut failures));
    spans.set_enabled(false);
    ispy_telemetry::swap_global(Arc::new(ispy_telemetry::Telemetry::new()));
    w.reset(spans);
    let (after, after_stats) = run_round(&mut w, spans, &mut failures);
    ispy_telemetry::swap_global(previous);
    let attempted = (before.len() + traced.len() + after.len()) as u64;
    compare_rounds(&before, &traced, "between the untraced and traced rounds", &mut failures);
    compare_rounds(&before, &after, "between the two untraced rounds", &mut failures);
    let untraced_ns = (before_stats.op_ns + after_stats.op_ns) as f64 / 2.0;

    let traced = complete(traced, &mut failures);
    if let Some(outs) = &traced {
        if let Err(e) = w.final_checks(outs) {
            failures.push(format!("final check: {e}"));
        }
    }
    let values = traced.as_deref().map(sim_values).unwrap_or_default();
    check_reference(args, &values, &mut failures);

    let summary = spans.summary();
    let counts = spans.counts();
    let counters = tele.counters();
    let path = PathBuf::from(format!("perfbench/traces/{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans.write(&path) {
        failures.push(format!("writing {}: {e}", path.display()));
    }

    let ms = |name: &str| summary.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let ns_per_block = |arm: &str| {
        let blocks = count(&format!("sim.{arm}.blocks"));
        if blocks == 0.0 {
            0.0
        } else {
            ms(&format!("sim.{arm}")) * 1e6 / blocks
        }
    };
    let value = |name: &str| values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let (hits, misses) = (counter("core.plan.memo_hits"), counter("core.plan.memo_misses"));
    let mut replan_ms: Vec<f64> =
        traced.iter().flatten().flat_map(|o| o.replan_ms.iter().copied()).collect();
    let op_wall_ms = traced_stats.op_ns as f64 / 1e6;
    let setup_wall_ms = setup_ns as f64 / 1e6;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("trace.generate_ms", ms("trace.generate"), "ms"),
        ("trace.record_ms", ms("trace.record"), "ms"),
        ("trace.blocks", count("trace.blocks"), "count"),
        ("scenario.compile_ms", ms("scenario.compile"), "ms"),
        ("scenario.materialize_ms", ms("scenario.materialize"), "ms"),
        ("scenario.switches", count("scenario.switches"), "count"),
        ("profile.collect_ms", ms("profile.collect"), "ms"),
        ("profile.misses_recorded", counter("profile.misses_recorded"), "count"),
        ("profile.lines_missing", counter("profile.lines_missing"), "count"),
        ("profile.window_delta_ms", ms("profile.window_delta"), "ms"),
        ("profile.fold_ms", ms("profile.fold"), "ms"),
        ("profile.snapshot_ms", ms("profile.snapshot"), "ms"),
        ("asmdb.plan_ms", ms("asmdb.plan"), "ms"),
        ("core.plan_ms", ms("core.plan"), "ms"),
        ("core.replan_delta_ms", ms("core.replan_delta"), "ms"),
        ("core.plans", counter("core.plan.calls"), "count"),
        ("core.window.nodes_expanded", counter("core.window.nodes_expanded"), "count"),
        ("core.context.subsets_evaluated", counter("core.context.subsets_evaluated"), "count"),
        ("core.coalesce.groups", counter("core.coalesce.groups"), "count"),
        ("core.plan.ops_emitted", counter("core.plan.ops_emitted"), "count"),
        (
            "core.plan.memo_hit_ratio",
            if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) },
            "ratio",
        ),
        ("isa.compile_ms", ms("isa.compile"), "ms"),
        ("isa.ops_lowered", count("isa.ops_lowered"), "count"),
        ("sim.baseline.ms", ms("sim.baseline"), "ms"),
        ("sim.baseline.ns_per_block", ns_per_block("baseline"), "ns"),
        ("sim.ideal.ms", ms("sim.ideal"), "ms"),
        ("sim.ideal.ns_per_block", ns_per_block("ideal"), "ns"),
        ("sim.asmdb.ms", ms("sim.asmdb"), "ms"),
        ("sim.asmdb.ns_per_block", ns_per_block("asmdb"), "ns"),
        ("sim.ispy.ms", ms("sim.ispy"), "ms"),
        ("sim.ispy.ns_per_block", ns_per_block("ispy"), "ns"),
        (
            "sim.inject_tax",
            if ns_per_block("baseline") == 0.0 {
                0.0
            } else {
                ns_per_block("ispy") / ns_per_block("baseline")
            },
            "ratio",
        ),
    ];
    for name in [
        "sim.ispy.i_misses",
        "sim.ispy.pf_ops_executed",
        "sim.ispy.pf_ops_suppressed",
        "sim.ispy.pf_lines_issued",
        "sim.ispy.pf_useful",
        "sim.ispy.pf_late",
        "sim.ispy.pf_evicted_unused",
    ] {
        metrics.push((name, value(name), "count"));
    }
    metrics.extend([
        ("sim.ispy.pf_accuracy", value("sim.ispy.pf_accuracy"), "ratio"),
        ("sim.ispy.p99_stall_cycles", value("sim.ispy.p99_stall_cycles"), "cycles"),
        ("sim.adaptive_ms", ms("sim.adaptive"), "ms"),
        ("sim.oracle_ms", ms("sim.oracle"), "ms"),
        ("sim.swaps", value("sim.swaps"), "count"),
        ("harness.session_ms", ms("harness.session"), "ms"),
        ("harness.replan_workload_ms", ms("harness.replan_workload"), "ms"),
        ("harness.adapt.replan_ms", median(&mut replan_ms), "ms"),
        ("harness.adapt.gap_pct", value("harness.adapt.gap_pct"), "%"),
        ("bench.ops", traced.as_ref().map_or(0, Vec::len) as f64, "count"),
        ("bench.host_slowdown", slowdown, "ratio"),
        ("bench.op_wall_ms", op_wall_ms, "ms"),
        ("bench.setup_wall_ms", setup_wall_ms, "ms"),
        ("bench.unattributed_ms", op_wall_ms - summary.op_covered_ns as f64 / 1e6, "ms"),
        (
            "bench.setup_unattributed_ms",
            setup_wall_ms - summary.setup_covered_ns as f64 / 1e6,
            "ms",
        ),
        ("bench.trace_overhead_pct", 100.0 * (traced_stats.op_ns as f64 / untraced_ns - 1.0), "%"),
    ]);
    Report { attempted, failures, metrics }
}
