//! `repro` — regenerate the I-SPY paper's tables and figures.
//!
//! ```text
//! repro list                      # show available experiments
//! repro fig10                     # run one experiment at full scale
//! repro fig10 fig11 --quick       # several experiments, reduced scale
//! repro all --json out/           # everything, also writing JSON per figure
//! repro all --metrics out/        # everything, plus telemetry JSON per figure
//! repro all --cache               # memoize traces/profiles/plans on disk
//! repro all --jobs 8              # cap the worker pool at 8 threads
//! repro fig17 --apps wordpress    # run on a subset of the applications
//! repro explain wordpress --quick # why/what-did-it-buy audit per injection
//! repro record kafka -o k.itrace  # record an execution to an artifact
//! repro record kafka --events 100000000 -o k.itrace
//!                                 # any length: recording never materializes
//! repro plan kafka -o k.iplan     # plan injections, save with provenance
//! repro replay k.itrace           # re-simulate a recorded artifact
//! repro replay k.itrace --stream  # same result, bounded memory
//! repro ingest perf.txt           # lift a perf-script LBR dump to .itrace
//! repro adapt kafka --window 50000 # adaptive replanning with mid-run swaps
//! repro adapt kafka --check       # assert delta speedup + MPKI convergence
//! repro adapt kafka --drift       # same, over a mid-trace request-mix drift
//! repro scenario burst --quick    # multi-tenant scenario: per-phase/tenant stalls
//! repro fleet gen --machines 100  # synthesize a fleet of per-machine profiles
//! repro fleet ingest              # scan the fleet dir into per-app shards
//! repro fleet merge               # consensus-merge each app's profiles
//! repro fleet plan                # plan injections from each consensus
//! repro fleet serve kafka         # three-tier plan service (warm/replan/cold)
//! ```

use ispy_harness::cache::{ArtifactCache, DEFAULT_CACHE_DIR};
use ispy_harness::{explain, figures, metrics, Scale, Session};
use ispy_telemetry::Telemetry;
use ispy_trace::{apps, AppModel, BlockSource};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let run = |args: Args| {
        if let Some(n) = args.jobs {
            ispy_parallel::set_threads(n);
        }
        (command(args.cmd).unwrap_or(&FIGURES).run)(&args)
    };
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand: its name, the flags it reads (`-o` and `-j` are spelled
/// `--out` and `--jobs` here) and its body. [`parse`] rejects every other
/// flag.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

const FIGURE_FLAGS: &str = "--quick --test-scale --json --metrics --cache --jobs --apps";

/// Figure ids and `all`: the command when the first argument names no other.
const FIGURES: Command = Command { name: "figure runs", flags: FIGURE_FLAGS, run: run_figures };

const COMMANDS: &[Command] = &[
    Command { name: "list", flags: FIGURE_FLAGS, run: run_list },
    Command { name: "explain", flags: "--quick --test-scale --top --jobs", run: run_explain },
    Command { name: "record", flags: "--quick --test-scale --events --out", run: run_record },
    Command { name: "plan", flags: "--quick --test-scale --out", run: run_plan },
    Command { name: "ingest", flags: "--out", run: run_ingest },
    Command { name: "replay", flags: "--plan --stream", run: run_replay },
    Command {
        name: "adapt",
        flags: "--quick --test-scale --window --epochs --check --drift --json",
        run: run_adapt_cmd,
    },
    Command {
        name: "scenario",
        flags: "--quick --test-scale --events --jobs --json",
        run: run_scenario_cmd,
    },
    Command {
        name: "fleet gen",
        flags: "--quick --test-scale --machines --events --apps --dir --jobs",
        run: fleet_gen,
    },
    Command { name: "fleet ingest", flags: "--dir --jobs", run: fleet_ingest },
    Command { name: "fleet merge", flags: "--dir --jobs", run: fleet_merge },
    Command { name: "fleet plan", flags: "--dir --apps --jobs", run: fleet_plan },
    Command {
        name: "fleet serve",
        flags: "--quick --test-scale --dir --cache --jobs",
        run: fleet_serve,
    },
];

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The default fleet directory (`repro fleet` with no `--dir`).
const DEFAULT_FLEET_DIR: &str = ".ispy-fleet";

/// A parsed command line: the subcommand's name, its positional arguments
/// and every flag's value (`None` / `false` where the flag is absent).
#[derive(Debug, Default, Clone, PartialEq)]
struct Args {
    cmd: &'static str,
    positional: Vec<String>,
    /// `--quick` / `--test-scale`, with `--events N` applied on top.
    scale: Scale,
    jobs: Option<usize>,
    json: Option<PathBuf>,
    metrics: Option<PathBuf>,
    cache: Option<PathBuf>,
    apps: Option<Vec<String>>,
    out: Option<PathBuf>,
    plan: Option<PathBuf>,
    stream: bool,
    top: Option<usize>,
    window: Option<usize>,
    epochs: Option<usize>,
    check: bool,
    drift: bool,
    dir: Option<PathBuf>,
    machines: Option<usize>,
}

impl Args {
    /// The single positional argument, or an error naming what it should be.
    fn one(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            _ => Err(format!("{} needs exactly one {what}", self.cmd)),
        }
    }

    /// The single positional argument as an app name, with its model.
    fn app(&self) -> Result<(&str, AppModel), String> {
        let name = self.one(&format!("app; known: {}", apps::NAMES.join(",")))?;
        Ok((name, model(name)?))
    }

    /// The `--apps` models, or all nine when absent.
    fn models(&self) -> Result<Vec<AppModel>, String> {
        match &self.apps {
            None => Ok(apps::all()),
            Some(names) => names.iter().map(|name| model(name)).collect(),
        }
    }

    /// The fleet directory, `--dir` or the default.
    fn dir(&self) -> &Path {
        self.dir.as_deref().unwrap_or(Path::new(DEFAULT_FLEET_DIR))
    }
}

/// Looks up an application model by name.
fn model(name: &str) -> Result<AppModel, String> {
    apps::by_name(name)
        .ok_or_else(|| format!("unknown app `{name}`; known: {}", apps::NAMES.join(",")))
}

/// The value after `flag`, parsed and accepted by `ok`; the error says what
/// the flag needs.
fn value<T: FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
    ok: fn(&T) -> bool,
) -> Result<T, String> {
    it.next().and_then(|v| v.parse().ok()).filter(ok).ok_or(format!("{flag} needs {what}"))
}

/// The checks [`value`] applies: a count >= 1, any path.
const POSITIVE: fn(&usize) -> bool = |n| *n >= 1;
const ANY: fn(&PathBuf) -> bool = |_| true;

/// Parses a command line: the subcommand first (`fleet` and its verb are
/// two words; a first argument that names no subcommand starts a figure
/// run), then flags and positionals in any order.
fn parse(argv: &[String]) -> Result<Args, String> {
    let words = if argv.first().is_some_and(|a| a == "fleet") { 2 } else { 1 };
    let (cmd, rest) = match command(&argv[..words.min(argv.len())].join(" ")) {
        Some(cmd) => (cmd, &argv[words..]),
        None if words == 2 => {
            return Err("fleet needs a subcommand: gen|ingest|merge|plan|serve".to_string())
        }
        None => (&FIGURES, argv),
    };
    let mut args = Args { cmd: cmd.name, ..Args::default() };
    let mut events = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            args.positional.push(arg.clone());
            continue;
        }
        let (flag, cache_dir) = match arg.split_once('=') {
            Some(("--cache", dir)) => ("--cache", Some(dir)),
            _ => (arg.as_str(), None),
        };
        let flag = match flag {
            "-o" => "--out",
            "-j" => "--jobs",
            flag => flag,
        };
        if !cmd.flags.split(' ').any(|f| f == flag) {
            return Err(format!("{} does not take `{arg}`; see `repro` usage", cmd.name));
        }
        let it = &mut it;
        match flag {
            "--quick" => args.scale = Scale::quick(),
            "--test-scale" => args.scale = Scale::test(),
            "--stream" => args.stream = true,
            "--check" => args.check = true,
            "--drift" => args.drift = true,
            "--cache" => {
                args.cache = Some(PathBuf::from(match cache_dir {
                    None => DEFAULT_CACHE_DIR,
                    Some("") => return Err("--cache=DIR needs a directory".to_string()),
                    Some(dir) => dir,
                }))
            }
            "--events" => events = Some(value(it, arg, "an event count >= 1", POSITIVE)?),
            "--jobs" => args.jobs = Some(value(it, arg, "a thread count >= 1", POSITIVE)?),
            "--top" => args.top = Some(value(it, arg, "a count >= 1", POSITIVE)?),
            "--window" => args.window = Some(value(it, arg, "an event count >= 1", POSITIVE)?),
            "--epochs" => args.epochs = Some(value(it, arg, "a round count >= 1", POSITIVE)?),
            "--machines" => args.machines = Some(value(it, arg, "a count >= 1", POSITIVE)?),
            "--apps" => {
                let known = format!("a comma-separated list; known: {}", apps::NAMES.join(","));
                let list = value(it, arg, &known, |_: &String| true)?;
                args.apps = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--json" => {
                let what = if cmd.flags == FIGURE_FLAGS { "a directory" } else { "a file path" };
                args.json = Some(value(it, arg, what, ANY)?);
            }
            "--metrics" => args.metrics = Some(value(it, arg, "a directory", ANY)?),
            "--out" => args.out = Some(value(it, arg, "a file path", ANY)?),
            "--plan" => args.plan = Some(value(it, arg, "a .iplan file", ANY)?),
            "--dir" => args.dir = Some(value(it, arg, "a directory", ANY)?),
            _ => unreachable!("{flag} is in a flag table but has no parser"),
        }
    }
    if let Some(n) = events {
        args.scale.events = n;
    }
    Ok(args)
}

fn run_list(_: &Args) -> Result<(), String> {
    for spec in figures::all() {
        println!("{:12} {}", spec.id, spec.about);
    }
    Ok(())
}

/// `repro <fig>... | all`: run the experiments and print their tables,
/// optionally exporting JSON and per-figure telemetry.
fn run_figures(args: &Args) -> Result<(), String> {
    let mut specs = Vec::new();
    for id in &args.positional {
        if id == "all" {
            specs.extend(figures::all());
        } else {
            specs.push(
                figures::by_id(id).ok_or(format!("unknown experiment `{id}`; try `repro list`"))?,
            );
        }
    }
    specs.dedup_by_key(|s| s.id);
    let models = args.models()?;
    let scale = args.scale;

    eprintln!(
        "preparing {} applications (shrink={}, events={}, threads={}) ...",
        models.len(),
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    for dir in [&args.json, &args.metrics].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let session = match &args.cache {
        Some(dir) => {
            eprintln!("artifact cache: {}", dir.display());
            Session::with_cache(scale, models, ArtifactCache::new(dir, scale))
        }
        None => Session::with_apps(scale, models),
    };
    eprintln!("prepared in {:.1?}", t0.elapsed());
    if let Some(dir) = &args.metrics {
        // Preparation telemetry (profiling replays, CFG builds) accumulated
        // in the startup registry; harvest it before per-figure scoping.
        write_telemetry(dir, "prepare")?;
    }

    for spec in &specs {
        let id = spec.id;
        if args.metrics.is_some() {
            // A fresh registry per figure attributes planner/profiler work
            // to the experiment that triggered it. Session caches persist,
            // so a figure that only reads cached comparisons shows (almost)
            // empty counters — that, too, is information.
            ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
        }
        let t = Instant::now();
        let table = (spec.run)(&session);
        let secs = t.elapsed().as_secs_f64();
        println!("{table}");
        eprintln!("[{id} took {secs:.1}s]\n");
        if let Some(dir) = &args.json {
            write_file(&dir.join(format!("{id}.json")), table.to_json(Some(secs)))?;
        }
        if let Some(dir) = &args.metrics {
            write_telemetry(dir, id)?;
        }
    }
    if let Some(dir) = &args.metrics {
        write_file(&dir.join("outcomes.json"), metrics::outcome_summary(&session))?;
    }
    Ok(())
}

/// Writes `contents` to `path`, naming the path on failure.
fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the current global registry as `<dir>/<name>.telemetry.json`.
fn write_telemetry(dir: &Path, name: &str) -> Result<(), String> {
    let path = dir.join(format!("{name}.telemetry.json"));
    write_file(&path, metrics::telemetry_summary(&ispy_telemetry::global()))
}

/// `repro explain <app>`: prepare just that app and print the markdown
/// provenance/outcome audit of its top-N injections.
fn run_explain(args: &Args) -> Result<(), String> {
    let (app, model) = args.app()?;
    let scale = args.scale;
    eprintln!(
        "preparing {app} (shrink={}, events={}, threads={}) ...",
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    let t0 = Instant::now();
    let session = Session::with_apps(scale, vec![model]);
    let report = explain(&session, app, args.top.unwrap_or(10))?;
    eprintln!("prepared and analysed in {:.1?}\n", t0.elapsed());
    println!("{report}");
    Ok(())
}

/// Delta replans must beat a from-scratch plan by at least this factor for
/// `adapt --check` to pass — the incremental-replanning headline claim.
const ADAPT_MIN_SPEEDUP: f64 = 10.0;

/// `adapt --check` allows the converged (last) window's MPKI to exceed the
/// offline-oracle plan's by at most this fraction.
const ADAPT_MAX_GAP: f64 = 0.02;

/// `repro adapt <app>`: the adaptive-replanning experiment — replay the
/// app's trace for `--epochs` rounds while profiling window `k` as it
/// simulates and hot-swapping the replanned injections in at window `k+1`,
/// then report per-window adaptation latency and MPKI convergence against
/// the offline-oracle plan, plus the full-vs-delta replan microbenchmark.
/// `--check` turns the headline claims into a failing exit code: delta
/// replans ≥10x faster than from-scratch and byte-identical, and the
/// converged window within 2% of the oracle's MPKI.
fn run_adapt_cmd(args: &Args) -> Result<(), String> {
    let (app, model) = args.app()?;
    let (scale, epochs, drift) = (args.scale, args.epochs.unwrap_or(2), args.drift);
    // 5 adaptation windows per epoch by default, at any scale.
    let window = args.window.unwrap_or((scale.events / 5).max(1));

    eprintln!(
        "adaptive replanning: {app}{} / {} events x {epochs} epochs / window {window} ...",
        if drift { " (phase-schedule drift)" } else { "" },
        scale.events
    );
    let t0 = Instant::now();
    let outcome = if drift {
        ispy_harness::adapt::run_adapt_drift(model, scale, window, epochs, 3)
    } else {
        ispy_harness::adapt::run_adapt(model, scale, window, epochs, 3)
    };
    for (k, w) in outcome.windows.iter().enumerate() {
        let replan = if w.replan_ms > 0.0 {
            format!("replan {:>7.1} ms", w.replan_ms)
        } else {
            "plan frozen".to_string()
        };
        println!(
            "  w{k:<3} adaptive {:>7.3} MPKI   oracle {:>7.3} MPKI   {replan}",
            w.adaptive_mpki, w.oracle_mpki
        );
    }
    println!(
        "swaps: {}   converged-window gap vs oracle: {:+.1}%   ({:.1}s)",
        outcome.swaps,
        100.0 * outcome.converged_gap(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "replan microbench ({} of {} samples = {:.2}% delta):",
        outcome.delta_samples,
        outcome.total_samples,
        100.0 * outcome.delta_samples as f64 / outcome.total_samples.max(1) as f64
    );
    println!(
        "  full {:.1} ms   delta {:.2} ms   speedup {:.1}x   plans identical: {}",
        outcome.replan_full_ms,
        outcome.replan_delta_ms,
        outcome.replan_speedup(),
        if outcome.plans_identical { "yes" } else { "NO" }
    );
    if let Some(path) = &args.json {
        write_file(path, outcome.to_json())?;
        eprintln!("wrote {}", path.display());
    }

    if args.check {
        if !outcome.plans_identical {
            return Err(
                "adapt check failed: delta replan diverged from the from-scratch plan".to_string()
            );
        }
        if outcome.replan_speedup() < ADAPT_MIN_SPEEDUP {
            return Err(format!(
                "adapt check failed: delta replan speedup {:.1}x is below {ADAPT_MIN_SPEEDUP}x \
                 (full {:.1} ms, delta {:.2} ms)",
                outcome.replan_speedup(),
                outcome.replan_full_ms,
                outcome.replan_delta_ms
            ));
        }
        let gap = outcome.converged_gap();
        if gap > ADAPT_MAX_GAP {
            return Err(format!(
                "adapt check failed: converged-window MPKI is {:.1}% above the oracle plan \
                 (limit {:.0}%)",
                100.0 * gap,
                100.0 * ADAPT_MAX_GAP
            ));
        }
        println!(
            "adapt check ok: plans identical, speedup {:.1}x >= {ADAPT_MIN_SPEEDUP}x, \
             converged gap {:+.1}% within {:.0}%",
            outcome.replan_speedup(),
            100.0 * gap,
            100.0 * ADAPT_MAX_GAP
        );
    }
    Ok(())
}

/// `repro scenario <spec>`: replay a production-shaped scenario (bursty
/// arrivals, phase transitions, multi-tenant L1I interference) under the
/// baseline/ideal/AsmDB/I-SPY plans and print the per-phase, per-tenant
/// front-end stall and MPKI table (see `docs/SCENARIOS.md`).
fn run_scenario_cmd(args: &Args) -> Result<(), String> {
    let presets = ispy_scenario::Scenario::PRESETS.join(",");
    let name = args.one(&format!("spec; known: {presets}"))?;
    let spec = ispy_scenario::Scenario::preset(name)
        .ok_or(format!("unknown scenario `{name}`; known: {presets}"))?
        .scaled_down(args.scale.shrink);
    let events = args.scale.events as u64;

    eprintln!(
        "scenario {name}: {} tenants / {} phases / {events} events / threads {} ...",
        spec.tenants.len(),
        spec.phases.len(),
        ispy_parallel::threads(),
    );
    let t0 = Instant::now();
    let outcome = ispy_harness::run_scenario(&spec, events);
    eprintln!("replayed in {:.1?}\n", t0.elapsed());

    println!(
        "scenario {}: {} events, {} switches   (MPKI and p99 front-end stall, cycles vs ideal)",
        outcome.scenario, outcome.events, outcome.switches
    );
    println!(
        "{:<12} {:<16} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "phase", "tenant", "events", "base", "asmdb", "i-spy", "p99 base", "asmdb", "i-spy"
    );
    for r in &outcome.rows {
        println!(
            "{:<12} {:<16} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>9} {:>9}",
            r.phase,
            r.tenant,
            r.events,
            r.base_mpki,
            r.asmdb_mpki,
            r.ispy_mpki,
            r.base_p99,
            r.asmdb_p99,
            r.ispy_p99
        );
    }
    println!();
    for t in &outcome.tenant_reports {
        println!(
            "{:<12} {:<16} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>9} {:>9}   \
             {} injections, {} fired, {} useful",
            "total",
            t.tenant,
            t.events,
            t.base_mpki,
            t.asmdb_mpki,
            t.ispy_mpki,
            t.base_p99,
            t.asmdb_p99,
            t.ispy_p99,
            t.injections,
            t.outcome.fired,
            t.outcome.useful
        );
    }
    println!(
        "\nspeedup over baseline: ideal {:.3}x   asmdb {:.3}x   i-spy {:.3}x   \
         (i-spy at {:.1}% of ideal)",
        outcome.ideal_total.speedup_over(&outcome.base_total),
        outcome.asmdb_total.speedup_over(&outcome.base_total),
        outcome.ispy_total.speedup_over(&outcome.base_total),
        100.0 * outcome.ispy_total.fraction_of_ideal(&outcome.base_total, &outcome.ideal_total),
    );

    if let Some(path) = &args.json {
        write_file(path, outcome.to_json())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn usage() {
    eprintln!("usage: repro <list|all|fig01|fig03|...|fig21|table1|walkthrough>");
    eprintln!("             [--quick | --test-scale] [--json DIR] [--metrics DIR]");
    eprintln!("             [--cache[=DIR]] [--jobs N] [--apps a,b,c]");
    eprintln!("       repro explain <app> [--quick | --test-scale] [--top N] [--jobs N]");
    eprintln!("       repro record <app> [--quick | --test-scale] [--events N]");
    eprintln!("                   [-o FILE.itrace]");
    eprintln!("       repro plan <app> [--quick | --test-scale] [-o FILE.iplan]");
    eprintln!("       repro replay <FILE.itrace> [--plan FILE.iplan] [--stream]");
    eprintln!("       repro ingest <perf-script.txt> [-o FILE.itrace]");
    eprintln!("       repro adapt <app> [--quick | --test-scale] [--window N] [--epochs N]");
    eprintln!("                   [--check] [--drift] [--json FILE.adapt.json]");
    eprintln!("       repro scenario <steady|diurnal|burst|storm> [--quick | --test-scale]");
    eprintln!("                   [--events N] [--jobs N] [--json FILE.json]");
    eprintln!("       repro fleet gen [--quick | --test-scale] [--machines N] [--events N]");
    eprintln!("                   [--apps a,b,c] [--dir DIR]");
    eprintln!("       repro fleet ingest [--dir DIR]");
    eprintln!("       repro fleet merge [--dir DIR]");
    eprintln!("       repro fleet plan [--dir DIR] [--apps a,b,c]");
    eprintln!("       repro fleet serve <app>... [--quick | --test-scale] [--dir DIR]");
    eprintln!("                   [--cache[=DIR]]");
    eprintln!("       (every fleet command also takes --jobs N; --cache defaults to");
    eprintln!("       {DEFAULT_CACHE_DIR}/, --dir to {DEFAULT_FLEET_DIR}/)");
}

/// `repro record <app>`: record an execution and store it as `.itrace`.
///
/// The trace never exists in memory: the generator feeds a
/// [`RecordingWriter`](ispy_trace::artifact::RecordingWriter) chunk by
/// chunk, so `--events` can exceed RAM (the 100M-block CI gate records this
/// way).
fn run_record(args: &Args) -> Result<(), String> {
    let (app, model) = args.app()?;
    let model = model.scaled_down(args.scale.shrink);
    let program = model.generate();
    let path = args.out.clone().unwrap_or_else(|| PathBuf::from(format!("{app}.itrace")));
    let walker = ispy_trace::Walker::new(&program, model.default_input());
    let mut source = ispy_trace::WalkerSource::new(walker, args.scale.events as u64);
    let mut writer = ispy_trace::artifact::RecordingWriter::create(&path, &program, program.name())
        .map_err(|e| e.to_string())?;
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        writer.push(chunk).map_err(|e| e.to_string())?;
    }
    let written = writer.events_written();
    writer.finish().map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {app}: {} blocks, {written} events -> {}",
        program.num_blocks(),
        path.display()
    );
    Ok(())
}

/// `repro plan <app>`: profile, plan I-SPY injections, store as `.iplan`.
fn run_plan(args: &Args) -> Result<(), String> {
    let (app, model) = args.app()?;
    let ctx = ispy_harness::session::AppContext::prepare(model, args.scale);
    let plan = ispy_core::Planner::new(
        &ctx.program,
        &ctx.trace,
        &ctx.profile,
        ispy_core::IspyConfig::default(),
    )
    .plan();
    let path = args.out.clone().unwrap_or_else(|| PathBuf::from(format!("{app}.iplan")));
    ispy_core::artifact::write_plan(app, &plan, &path).map_err(|e| e.to_string())?;
    eprintln!(
        "planned {app}: {} ops at {} sites ({} bytes injected) -> {}",
        plan.stats.ops_total(),
        plan.stats.sites,
        plan.stats.injected_bytes,
        path.display()
    );
    Ok(())
}

/// `repro replay <file.itrace> [--plan file.iplan] [--stream]`: re-simulate
/// a recorded artifact and print the canonical metric lines. `--stream`
/// replays in bounded memory (the file's events are decoded chunk by chunk,
/// never materialized) and prints byte-identical output.
fn run_replay(args: &Args) -> Result<(), String> {
    let path = Path::new(args.one(".itrace file")?);
    let plan = match &args.plan {
        Some(p) => Some(ispy_core::artifact::read_plan(p).map_err(|e| e.to_string())?),
        None => None,
    };
    let cfg = ispy_sim::SimConfig::default();
    let (program, mut events) =
        ispy_trace::artifact::open_recording_file(path).map_err(|e| e.to_string())?;
    let compiled = plan.as_ref().map(|(_, p)| p.injections.compile(program.num_blocks()));
    let opts = ispy_sim::RunOptions { compiled: compiled.as_ref(), ..Default::default() };
    let result = if args.stream {
        ispy_sim::run_streaming(&program, &mut events, &cfg, opts)
    } else {
        let name = events.name().to_string();
        events.materialize(name).map(|trace| ispy_sim::run(&program, &trace, &cfg, opts))
    }
    .map_err(|e| e.to_string())?;
    let name = program.name();
    if let Some((label, _)) = &plan {
        if label != name {
            eprintln!("warning: plan was built for `{label}`, replaying `{name}`");
        }
    }
    print!("{}", metrics::result_lines(name, &result));
    Ok(())
}

/// `repro ingest <perf.txt>`: lift a perf-script LBR dump into `.itrace`.
fn run_ingest(args: &Args) -> Result<(), String> {
    let input = args.one("perf-script text file")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let (program, trace) =
        ispy_trace::ingest::parse_perf_script(&text).map_err(|e| e.to_string())?;
    let path = args.out.clone().unwrap_or_else(|| PathBuf::from(input).with_extension("itrace"));
    ispy_trace::artifact::write_recording(&program, &trace, &path).map_err(|e| e.to_string())?;
    eprintln!(
        "ingested {input}: {} blocks, {} events -> {}",
        program.num_blocks(),
        trace.len(),
        path.display()
    );
    Ok(())
}

/// `repro fleet gen`: synthesize a fleet of per-machine profile artifacts.
/// Machine `m` profiles input variant `m % 5` (the Fig. 16 drift variants)
/// with a small deterministic trace-length spread, so the fleet covers
/// several inputs of the same binary — the setting the consensus merge is
/// for.
fn fleet_gen(args: &Args) -> Result<(), String> {
    use ispy_profile::{profile, SampleRate};
    let models = args.models()?;
    let (dir, scale, events) = (args.dir(), args.scale, args.scale.events);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let prepared: Vec<(AppModel, ispy_trace::Program)> = ispy_parallel::par_map_vec(models, |m| {
        let m = m.scaled_down(scale.shrink);
        let p = m.generate();
        (m, p)
    });
    // One representative recording per app, then the machine grid.
    let traces: Vec<Result<(), String>> = ispy_parallel::par_collect(prepared.len(), |i| {
        let (model, program) = &prepared[i];
        let trace = program.record_trace(model.default_input(), events);
        let path = dir.join(format!("{}.itrace", model.name()));
        ispy_trace::artifact::write_recording(program, &trace, &path).map_err(|e| e.to_string())
    });
    let napps = prepared.len();
    let machines = args.machines.unwrap_or(9);
    let profiles: Vec<Result<(), String>> = ispy_parallel::par_collect(napps * machines, |j| {
        let (model, program) = &prepared[j / machines];
        let m = j % machines;
        // Drift across machines: rotate through the five fig16 input
        // variants and spread trace lengths a little so same-variant
        // machines still measure distinct executions.
        let len = events + 61 * (m / 5);
        let trace = program.record_trace(model.input_variant(m % 5), len);
        let prof = profile(program, &trace, &ispy_sim::SimConfig::default(), SampleRate::EXACT);
        let path = dir.join(format!("{}-m{m:04}.iprof", model.name()));
        ispy_profile::artifact::write_profile(model.name(), &prof, &path).map_err(|e| e.to_string())
    });
    traces.into_iter().chain(profiles).collect::<Result<(), String>>()?;
    eprintln!(
        "fleet gen: {napps} apps x {machines} machines -> {} profiles + {napps} traces in {} \
         ({:.1?})",
        napps * machines,
        dir.display(),
        t0.elapsed(),
    );
    Ok(())
}

/// Scans the fleet directory into its manifest.
fn scan_fleet(dir: &Path) -> Result<ispy_fleet::FleetManifest, String> {
    ispy_fleet::FleetManifest::scan(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))
}

/// `repro fleet ingest`: scan the fleet directory, print per-app shards.
fn fleet_ingest(args: &Args) -> Result<(), String> {
    let manifest = scan_fleet(args.dir())?;
    println!("fleet dir: {}", args.dir().display());
    let apps = manifest.apps();
    for app in &apps {
        let members = manifest.profiles_for(app);
        let distinct: std::collections::BTreeSet<_> = members.iter().map(|p| p.digest).collect();
        let trace = manifest
            .canonical_trace(app)
            .map_or("none".to_string(), |t| t.path.display().to_string());
        println!(
            "  {app:<16} {:>5} profiles ({} distinct)   trace: {trace}",
            members.len(),
            distinct.len(),
        );
    }
    println!(
        "total: {} profiles, {} traces, {} apps",
        manifest.profiles.len(),
        manifest.traces.len(),
        apps.len()
    );
    Ok(())
}

/// `repro fleet merge`: consensus-merge every app's members into
/// `<app>-consensus.iprof` under the vote thresholds.
fn fleet_merge(args: &Args) -> Result<(), String> {
    let manifest = scan_fleet(args.dir())?;
    let t0 = Instant::now();
    let merged = ispy_fleet::merge_all(&manifest).map_err(|e| e.to_string())?;
    if merged.is_empty() {
        return Err(format!("no profile artifacts in {}", args.dir().display()));
    }
    for (app, profile, stats) in &merged {
        let path = ispy_fleet::store::consensus_profile_path(args.dir(), app);
        ispy_profile::artifact::write_profile(app, profile, &path).map_err(|e| e.to_string())?;
        println!(
            "merged {app}: {} members, {}/{} lines kept, {} predictors dropped, {} misses -> {}",
            stats.members,
            stats.lines_kept,
            stats.lines_seen,
            stats.predictors_dropped,
            stats.total_misses,
            path.display(),
        );
    }
    eprintln!("merged {} apps in {:.1?}", merged.len(), t0.elapsed());
    Ok(())
}

/// `repro fleet plan`: plan from each consensus profile
/// (`<app>-consensus.iplan`).
fn fleet_plan(args: &Args) -> Result<(), String> {
    let manifest = scan_fleet(args.dir())?;
    let apps = args.apps.clone().unwrap_or_else(|| manifest.apps());
    let mut planned = 0usize;
    for app in &apps {
        let consensus_path = ispy_fleet::store::consensus_profile_path(args.dir(), app);
        if !consensus_path.exists() {
            eprintln!("note: no consensus profile for `{app}` (run `repro fleet merge` first)");
            continue;
        }
        let Some(trace_entry) = manifest.canonical_trace(app) else {
            eprintln!("note: no representative .itrace for `{app}`; cannot plan");
            continue;
        };
        let (_label, consensus) =
            ispy_profile::artifact::read_profile(&consensus_path).map_err(|e| e.to_string())?;
        let (program, trace) =
            ispy_trace::artifact::read_recording(&trace_entry.path).map_err(|e| e.to_string())?;
        let baseline = ispy_core::PlannerBaseline::new();
        let plan = ispy_fleet::plan_consensus(&program, &trace, &consensus, &baseline);
        let path = ispy_fleet::store::consensus_plan_path(args.dir(), app);
        ispy_core::artifact::write_plan(app, &plan, &path).map_err(|e| e.to_string())?;
        println!(
            "planned {app} from consensus: {} ops at {} sites -> {}",
            plan.stats.ops_total(),
            plan.stats.sites,
            path.display(),
        );
        planned += 1;
    }
    if planned == 0 {
        return Err("nothing planned: no consensus artifacts found".to_string());
    }
    Ok(())
}

/// `repro fleet serve <app>...`: the three-tier plan service; prints the
/// per-tier telemetry counters.
fn fleet_serve(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        let known = apps::NAMES.join(",");
        return Err(format!("{} needs at least one app name; known: {known}", args.cmd));
    }
    let cache_dir = args.cache.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR));
    let service = ispy_harness::fleet::PlanService::new(args.dir(), &cache_dir, args.scale);
    for app in &args.positional {
        let outcome = service.serve(app)?;
        println!(
            "served {app} via {}: {} ops at {} sites",
            outcome.tier.name(),
            outcome.plan.stats.ops_total(),
            outcome.plan.stats.sites,
        );
    }
    let tele = ispy_telemetry::global();
    println!("serve tiers:");
    for tier in ["warm", "replan", "cold"] {
        let name = format!("fleet.serve.{tier}");
        let hits = tele.counter(&name);
        let ms = tele.spans().get(&name).map_or(0.0, |s| s.total_ms());
        println!("  {name:<18} hits={hits}   {ms:.1} ms");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// The `$REPRO …` commands of the CI workflow, cut at the first
    /// redirection or pipe.
    fn ci_commands() -> Vec<&'static str> {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let cut = |cmd: &str| [" )", " |", " >", " 2>"].iter().filter_map(|s| cmd.find(s)).min();
        ci.lines()
            .filter_map(|line| line.split_once("$REPRO ").map(|(_, cmd)| cmd))
            .map(|cmd| &cmd[..cut(cmd).unwrap_or(cmd.len())])
            .collect()
    }

    /// `args` back as a command line, every flag in one fixed order.
    fn render(a: &Args) -> String {
        let mut words: Vec<String> = Vec::new();
        if a.cmd != FIGURES.name {
            words.push(a.cmd.to_string());
        }
        words.extend(a.positional.iter().cloned());
        let mut base = Scale::full();
        for (flag, scale) in [("--quick", Scale::quick()), ("--test-scale", Scale::test())] {
            if a.scale.shrink == scale.shrink {
                words.push(flag.to_string());
                base = scale;
            }
        }
        let path =
            |flag: &str, p: &Option<PathBuf>| p.as_ref().map(|p| format!("{flag}{}", p.display()));
        let count = |flag: &str, n: Option<usize>| n.map(|n| format!("{flag} {n}"));
        words.extend(
            [
                count("--machines", a.machines),
                count("--events", Some(a.scale.events).filter(|&n| n != base.events)),
                path("--dir ", &a.dir),
                a.apps.as_ref().map(|list| format!("--apps {}", list.join(","))),
                path("--cache=", &a.cache),
                count("--jobs", a.jobs),
                path("--json ", &a.json),
                path("--metrics ", &a.metrics),
                count("--top", a.top),
                path("-o ", &a.out),
                path("--plan ", &a.plan),
                a.stream.then(|| "--stream".to_string()),
                a.check.then(|| "--check".to_string()),
                a.drift.then(|| "--drift".to_string()),
                count("--window", a.window),
                count("--epochs", a.epochs),
            ]
            .into_iter()
            .flatten(),
        );
        words.join(" ")
    }

    /// Each CI command parses to exactly its subcommand, positionals and
    /// flag values: rendered back in the fixed order, it is the same line.
    #[test]
    fn every_ci_command_parses_to_its_subcommand_and_values() {
        let commands = ci_commands();
        assert!(commands.len() >= 35, "found only {} CI commands", commands.len());
        for line in &commands {
            let rendered = parsed(line).map(|args| render(&args));
            match *line {
                "plan kafka --test-scale --events 10" => {
                    assert!(rendered.unwrap_err().contains("--events"))
                }
                "explain kafka --quick --json out/" => {
                    assert!(rendered.unwrap_err().contains("--json"))
                }
                "replay --stream big.itrace" => {
                    assert_eq!(rendered.unwrap(), "replay big.itrace --stream")
                }
                _ => assert_eq!(rendered.as_deref(), Ok(*line)),
            }
        }
    }

    #[test]
    fn flag_order_does_not_matter() {
        assert_eq!(parsed("record k --events 5 --quick"), parsed("record k --quick --events 5"));
        assert_eq!(
            parsed("record --quick --events 5 kafka").unwrap().scale,
            Scale { events: 5, ..Scale::quick() }
        );
        assert_eq!(parsed("scenario --events 7 burst --test-scale").unwrap().scale.events, 7);
        assert_eq!(parsed("fleet gen --events 9 --quick").unwrap().scale.events, 9);
    }

    #[test]
    fn cache_takes_an_optional_directory() {
        assert_eq!(parsed("all --cache").unwrap().cache, Some(PathBuf::from(DEFAULT_CACHE_DIR)));
        assert_eq!(parsed("all --cache=art").unwrap().cache, Some(PathBuf::from("art")));
        assert_eq!(parsed("all --cache=").unwrap_err(), "--cache=DIR needs a directory");
    }

    #[test]
    fn a_missing_or_bad_value_is_an_error() {
        for (line, err) in [
            ("all --json", "--json needs a directory"),
            ("record kafka -o", "-o needs a file path"),
            ("scenario burst --jobs", "--jobs needs a thread count >= 1"),
            ("replay f --plan", "--plan needs a .iplan file"),
            ("fleet gen --machines 0", "--machines needs a count >= 1"),
            ("adapt kafka --window x", "--window needs an event count >= 1"),
            ("fleet", "fleet needs a subcommand: gen|ingest|merge|plan|serve"),
        ] {
            assert_eq!(parsed(line).unwrap_err(), err);
        }
    }

    #[test]
    fn unread_flags_and_zero_events_are_rejected_by_name() {
        for (line, flag) in [
            ("plan kafka --test-scale --events 10", "--events"),
            ("ingest f --quick", "--quick"),
            ("explain kafka --json d", "--json"),
            ("record kafka --events 0", "--events"),
            ("fig10 --top 3", "--top"),
            ("fleet ingest --machines 3", "--machines"),
        ] {
            let err = parsed(line).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
    }
}
