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
use ispy_trace::apps;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    match args[0].as_str() {
        "adapt" => return run_adapt_cmd(&args[1..]),
        "record" => return run_record(&args[1..]),
        "plan" => return run_plan(&args[1..]),
        "replay" => return run_replay(&args[1..]),
        "ingest" => return run_ingest(&args[1..]),
        "fleet" => return run_fleet(&args[1..]),
        "scenario" => return run_scenario_cmd(&args[1..]),
        _ => {}
    }
    let mut ids: Vec<String> = Vec::new();
    let mut cache_dir: Option<PathBuf> = None;
    let mut scale = Scale::full();
    let mut json_dir: Option<PathBuf> = None;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut app_names: Option<Vec<String>> = None;
    let mut explain_mode = false;
    let mut explain_app: Option<String> = None;
    let mut top_n = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--test-scale" => scale = Scale::test(),
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => json_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--json needs a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => metrics_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--metrics needs a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--top" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => top_n = n,
                    _ => {
                        eprintln!("--top needs a count >= 1");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => ispy_parallel::set_threads(n),
                    _ => {
                        eprintln!("--jobs needs a thread count >= 1");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--apps" => {
                i += 1;
                match args.get(i) {
                    Some(list) => {
                        app_names = Some(list.split(',').map(|s| s.trim().to_string()).collect())
                    }
                    None => {
                        eprintln!(
                            "--apps needs a comma-separated list; known: {}",
                            apps::NAMES.join(",")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache" => cache_dir = Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            flag if flag.starts_with("--cache=") => {
                let dir = &flag["--cache=".len()..];
                if dir.is_empty() {
                    eprintln!("--cache=DIR needs a directory");
                    return ExitCode::FAILURE;
                }
                cache_dir = Some(PathBuf::from(dir));
            }
            "list" => {
                for spec in figures::all() {
                    println!("{:12} {}", spec.id, spec.about);
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(figures::all().into_iter().map(|s| s.id.to_string())),
            "explain" => explain_mode = true,
            other => {
                if explain_mode && explain_app.is_none() {
                    explain_app = Some(other.to_string());
                } else {
                    ids.push(other.to_string());
                }
            }
        }
        i += 1;
    }
    if explain_mode {
        let Some(app) = explain_app else {
            eprintln!("explain needs an app name; known: {}", apps::NAMES.join(","));
            return ExitCode::FAILURE;
        };
        return run_explain(&app, scale, top_n);
    }
    ids.dedup();
    for id in &ids {
        if figures::by_id(id).is_none() {
            eprintln!("unknown experiment `{id}`; try `repro list`");
            return ExitCode::FAILURE;
        }
    }
    let models = match &app_names {
        None => apps::all(),
        Some(names) => {
            let mut models = Vec::new();
            for name in names {
                match apps::by_name(name) {
                    Some(m) => models.push(m),
                    None => {
                        eprintln!("unknown app `{name}`; known: {}", apps::NAMES.join(","));
                        return ExitCode::FAILURE;
                    }
                }
            }
            models
        }
    };

    eprintln!(
        "preparing {} applications (shrink={}, events={}, threads={}) ...",
        models.len(),
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    for dir in [&json_dir, &metrics_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let t0 = Instant::now();
    let session = match &cache_dir {
        Some(dir) => {
            eprintln!("artifact cache: {}", dir.display());
            Session::with_cache(scale, models, ArtifactCache::new(dir, scale))
        }
        None => Session::with_apps(scale, models),
    };
    eprintln!("prepared in {:.1?}", t0.elapsed());
    if let Some(dir) = &metrics_dir {
        // Preparation telemetry (profiling replays, CFG builds) accumulated
        // in the startup registry; harvest it before per-figure scoping.
        if write_telemetry(dir, "prepare").is_err() {
            return ExitCode::FAILURE;
        }
    }

    for id in &ids {
        let spec = figures::by_id(id).expect("validated above");
        if metrics_dir.is_some() {
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
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{id}.json"));
            if let Err(e) = std::fs::write(&path, table.to_json(Some(secs))) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if let Some(dir) = &metrics_dir {
            if write_telemetry(dir, id).is_err() {
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &metrics_dir {
        let path = dir.join("outcomes.json");
        if let Err(e) = std::fs::write(&path, metrics::outcome_summary(&session)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Writes the current global registry as `<dir>/<name>.telemetry.json`.
fn write_telemetry(dir: &std::path::Path, name: &str) -> Result<(), ()> {
    let path = dir.join(format!("{name}.telemetry.json"));
    std::fs::write(&path, metrics::telemetry_summary(&ispy_telemetry::global())).map_err(|e| {
        eprintln!("cannot write {}: {e}", path.display());
    })
}

/// `repro explain <app>`: prepare just that app and print the markdown
/// provenance/outcome audit of its top-N injections.
fn run_explain(app: &str, scale: Scale, top_n: usize) -> ExitCode {
    let Some(model) = apps::by_name(app) else {
        eprintln!("unknown app `{app}`; known: {}", apps::NAMES.join(","));
        return ExitCode::FAILURE;
    };
    eprintln!(
        "preparing {app} (shrink={}, events={}, threads={}) ...",
        scale.shrink,
        scale.events,
        ispy_parallel::threads(),
    );
    let t0 = Instant::now();
    let session = Session::with_apps(scale, vec![model]);
    match explain(&session, app, top_n) {
        Ok(report) => {
            eprintln!("prepared and analysed in {:.1?}\n", t0.elapsed());
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
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
fn run_adapt_cmd(args: &[String]) -> ExitCode {
    let mut app_name: Option<String> = None;
    let mut scale = Scale::full();
    let mut window: Option<usize> = None;
    let mut epochs = 2usize;
    let mut check = false;
    let mut drift = false;
    let mut json_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--test-scale" => scale = Scale::test(),
            "--check" => check = true,
            "--drift" => drift = true,
            "--window" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => window = Some(n),
                    _ => return fail("--window needs an event count >= 1"),
                }
            }
            "--epochs" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => epochs = n,
                    _ => return fail("--epochs needs a round count >= 1"),
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_out = Some(PathBuf::from(p)),
                    None => return fail("--json needs a file path"),
                }
            }
            flag if flag.starts_with('-') => return fail(&format!("unknown adapt flag `{flag}`")),
            other => {
                if app_name.replace(other.to_string()).is_some() {
                    return fail("adapt takes exactly one app");
                }
            }
        }
        i += 1;
    }
    let Some(app) = app_name else {
        return fail(&format!("adapt needs an app name; known: {}", apps::NAMES.join(",")));
    };
    let Some(model) = apps::by_name(&app) else {
        return fail(&format!("unknown app `{app}`; known: {}", apps::NAMES.join(",")));
    };
    // 5 adaptation windows per epoch by default, at any scale.
    let window = window.unwrap_or((scale.events / 5).max(1));

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
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, outcome.to_json()) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }

    if check {
        if !outcome.plans_identical {
            return fail("adapt check failed: delta replan diverged from the from-scratch plan");
        }
        if outcome.replan_speedup() < ADAPT_MIN_SPEEDUP {
            return fail(&format!(
                "adapt check failed: delta replan speedup {:.1}x is below {ADAPT_MIN_SPEEDUP}x \
                 (full {:.1} ms, delta {:.2} ms)",
                outcome.replan_speedup(),
                outcome.replan_full_ms,
                outcome.replan_delta_ms
            ));
        }
        let gap = outcome.converged_gap();
        if gap > ADAPT_MAX_GAP {
            return fail(&format!(
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
    ExitCode::SUCCESS
}

/// `repro scenario <spec>`: replay a production-shaped scenario (bursty
/// arrivals, phase transitions, multi-tenant L1I interference) under the
/// baseline/ideal/AsmDB/I-SPY plans and print the per-phase, per-tenant
/// front-end stall and MPKI table (see `docs/SCENARIOS.md`).
fn run_scenario_cmd(args: &[String]) -> ExitCode {
    let presets = ispy_scenario::Scenario::PRESETS.join(",");
    let mut spec_name: Option<String> = None;
    let mut scale = Scale::full();
    let mut events: Option<u64> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--test-scale" => scale = Scale::test(),
            "--events" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => events = Some(n),
                    _ => return fail("--events needs an event count >= 1"),
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => ispy_parallel::set_threads(n),
                    _ => return fail("--jobs needs a thread count >= 1"),
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_out = Some(PathBuf::from(p)),
                    None => return fail("--json needs a file path"),
                }
            }
            flag if flag.starts_with('-') => {
                return fail(&format!("unknown scenario flag `{flag}`"));
            }
            other => {
                if spec_name.replace(other.to_string()).is_some() {
                    return fail("scenario takes exactly one spec");
                }
            }
        }
        i += 1;
    }
    let Some(name) = spec_name else {
        return fail(&format!("scenario needs a spec name; known: {presets}"));
    };
    let Some(spec) = ispy_scenario::Scenario::preset(&name) else {
        return fail(&format!("unknown scenario `{name}`; known: {presets}"));
    };
    let spec = spec.scaled_down(scale.shrink);
    let events = events.unwrap_or(scale.events as u64);

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

    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, outcome.to_json()) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
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
    eprintln!("       repro fleet gen [--machines N] [--apps a,b,c] [--events N] [--dir DIR]");
    eprintln!("       repro fleet ingest|merge|plan [--dir DIR] [--line-vote F] [--ctx-vote F]");
    eprintln!("       repro fleet serve <app>... [--dir DIR] [--cache[=DIR]]");
    eprintln!("       (--cache defaults to {DEFAULT_CACHE_DIR}/, --dir to {DEFAULT_FLEET_DIR}/)");
}

/// Flags shared by the artifact subcommands.
struct ArtifactArgs {
    positional: Vec<String>,
    scale: Scale,
    out: Option<PathBuf>,
    /// `--events N`: explicit event count, overriding the scale's default.
    events: Option<u64>,
}

/// Parses the scale/output flags shared by the artifact subcommands.
fn parse_artifact_args(args: &[String]) -> Result<ArtifactArgs, String> {
    let mut parsed =
        ArtifactArgs { positional: Vec::new(), scale: Scale::full(), out: None, events: None };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => parsed.scale = Scale::quick(),
            "--test-scale" => parsed.scale = Scale::test(),
            "--events" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) => parsed.events = Some(n),
                    None => return Err("--events needs an event count".to_string()),
                }
            }
            "-o" | "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => parsed.out = Some(PathBuf::from(p)),
                    None => return Err("-o needs a file path".to_string()),
                }
            }
            flag if flag.starts_with('-') && flag != "--plan" => {
                return Err(format!("unknown flag `{flag}`"));
            }
            other => parsed.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(parsed)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// `repro record <app>`: record an execution and store it as `.itrace`.
///
/// The trace never exists in memory: the generator feeds a
/// [`RecordingWriter`](ispy_trace::artifact::RecordingWriter) chunk by
/// chunk, so `--events` can exceed RAM (the 100M-block CI gate records this
/// way).
fn run_record(args: &[String]) -> ExitCode {
    let parsed = match parse_artifact_args(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let [app] = parsed.positional.as_slice() else {
        return fail(&format!("record needs exactly one app; known: {}", apps::NAMES.join(",")));
    };
    let Some(model) = apps::by_name(app) else {
        return fail(&format!("unknown app `{app}`; known: {}", apps::NAMES.join(",")));
    };
    let model = model.scaled_down(parsed.scale.shrink);
    let program = model.generate();
    let events = parsed.events.unwrap_or(parsed.scale.events as u64);
    let path = parsed.out.unwrap_or_else(|| PathBuf::from(format!("{app}.itrace")));
    let walker = ispy_trace::Walker::new(&program, model.default_input());
    let mut source = ispy_trace::WalkerSource::new(walker, events);
    let mut writer =
        match ispy_trace::artifact::RecordingWriter::create(&path, &program, program.name()) {
            Ok(w) => w,
            Err(e) => return fail(&e.to_string()),
        };
    loop {
        use ispy_trace::BlockSource;
        match source.next_chunk() {
            Ok(Some(chunk)) => {
                if let Err(e) = writer.push(chunk) {
                    return fail(&e.to_string());
                }
            }
            Ok(None) => break,
            Err(e) => return fail(&e.to_string()),
        }
    }
    let written = writer.events_written();
    if let Err(e) = writer.finish() {
        return fail(&e.to_string());
    }
    eprintln!(
        "recorded {app}: {} blocks, {written} events -> {}",
        program.num_blocks(),
        path.display()
    );
    ExitCode::SUCCESS
}

/// `repro plan <app>`: profile, plan I-SPY injections, store as `.iplan`.
fn run_plan(args: &[String]) -> ExitCode {
    let parsed = match parse_artifact_args(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (scale, out) = (parsed.scale, parsed.out);
    let [app] = parsed.positional.as_slice() else {
        return fail(&format!("plan needs exactly one app; known: {}", apps::NAMES.join(",")));
    };
    let Some(model) = apps::by_name(app) else {
        return fail(&format!("unknown app `{app}`; known: {}", apps::NAMES.join(",")));
    };
    let ctx = ispy_harness::session::AppContext::prepare(model, scale);
    let plan = ispy_core::Planner::new(
        &ctx.program,
        &ctx.trace,
        &ctx.profile,
        ispy_core::IspyConfig::default(),
    )
    .plan();
    let path = out.unwrap_or_else(|| PathBuf::from(format!("{app}.iplan")));
    if let Err(e) = ispy_core::artifact::write_plan(app, &plan, &path) {
        return fail(&e.to_string());
    }
    eprintln!(
        "planned {app}: {} ops at {} sites ({} bytes injected) -> {}",
        plan.stats.ops_total(),
        plan.stats.sites,
        plan.stats.injected_bytes,
        path.display()
    );
    ExitCode::SUCCESS
}

/// `repro replay <file.itrace> [--plan file.iplan] [--stream]`: re-simulate
/// a recorded artifact and print the canonical metric lines. `--stream`
/// replays in bounded memory (the file's events are decoded chunk by chunk,
/// never materialized) and prints byte-identical output.
fn run_replay(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut plan_file: Option<PathBuf> = None;
    let mut stream = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--plan" => {
                i += 1;
                match args.get(i) {
                    Some(p) => plan_file = Some(PathBuf::from(p)),
                    None => return fail("--plan needs a .iplan file"),
                }
            }
            "--stream" => stream = true,
            flag if flag.starts_with('-') => return fail(&format!("unknown flag `{flag}`")),
            other => files.push(PathBuf::from(other)),
        }
        i += 1;
    }
    let [path] = files.as_slice() else {
        return fail("replay needs exactly one .itrace file");
    };
    let plan = match &plan_file {
        Some(p) => match ispy_core::artifact::read_plan(p) {
            Ok((label, plan)) => Some((label, plan)),
            Err(e) => return fail(&e.to_string()),
        },
        None => None,
    };
    let cfg = ispy_sim::SimConfig::default();
    let opts = ispy_sim::RunOptions {
        injections: plan.as_ref().map(|(_, p)| &p.injections),
        ..Default::default()
    };
    let (name, result) = if stream {
        match ispy_sim::replay_file_streaming(path, &cfg, opts) {
            Ok(out) => (out.name, out.result),
            Err(e) => return fail(&e.to_string()),
        }
    } else {
        let (program, trace) = match ispy_trace::artifact::read_recording(path) {
            Ok(pair) => pair,
            Err(e) => return fail(&e.to_string()),
        };
        let result = ispy_sim::run(&program, &trace, &cfg, opts);
        (program.name().to_string(), result)
    };
    if let Some((label, _)) = &plan {
        if label != &name {
            eprintln!("warning: plan was built for `{label}`, replaying `{name}`");
        }
    }
    print!("{}", metrics::result_lines(&name, &result));
    ExitCode::SUCCESS
}

/// The default fleet directory (`repro fleet` with no `--dir`).
const DEFAULT_FLEET_DIR: &str = ".ispy-fleet";

/// Flags shared by the `repro fleet` subcommands.
struct FleetArgs {
    positional: Vec<String>,
    dir: PathBuf,
    scale: Scale,
    machines: usize,
    events: Option<usize>,
    apps: Option<Vec<String>>,
    cache_dir: PathBuf,
    fleet_cfg: ispy_fleet::FleetConfig,
}

fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, String> {
    let mut parsed = FleetArgs {
        positional: Vec::new(),
        dir: PathBuf::from(DEFAULT_FLEET_DIR),
        scale: Scale::full(),
        machines: 9,
        events: None,
        apps: None,
        cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
        fleet_cfg: ispy_fleet::FleetConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => parsed.scale = Scale::quick(),
            "--test-scale" => parsed.scale = Scale::test(),
            "--dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => parsed.dir = PathBuf::from(d),
                    None => return Err("--dir needs a directory".to_string()),
                }
            }
            "--machines" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => parsed.machines = n,
                    _ => return Err("--machines needs a count >= 1".to_string()),
                }
            }
            "--events" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => parsed.events = Some(n),
                    _ => return Err("--events needs an event count >= 1".to_string()),
                }
            }
            "--apps" => {
                i += 1;
                match args.get(i) {
                    Some(list) => {
                        parsed.apps = Some(list.split(',').map(|s| s.trim().to_string()).collect())
                    }
                    None => return Err("--apps needs a comma-separated list".to_string()),
                }
            }
            "--line-vote" | "--ctx-vote" => {
                let flag = args[i].clone();
                i += 1;
                match args.get(i).and_then(|n| n.parse::<f64>().ok()) {
                    Some(v) if (0.0..=1.0).contains(&v) => {
                        if flag == "--line-vote" {
                            parsed.fleet_cfg.line_vote = v;
                        } else {
                            parsed.fleet_cfg.ctx_vote = v;
                        }
                    }
                    _ => return Err(format!("{flag} needs a fraction in 0.0..=1.0")),
                }
            }
            "--cache" => parsed.cache_dir = PathBuf::from(DEFAULT_CACHE_DIR),
            flag if flag.starts_with("--cache=") => {
                let dir = &flag["--cache=".len()..];
                if dir.is_empty() {
                    return Err("--cache=DIR needs a directory".to_string());
                }
                parsed.cache_dir = PathBuf::from(dir);
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => ispy_parallel::set_threads(n),
                    _ => return Err("--jobs needs a thread count >= 1".to_string()),
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown fleet flag `{flag}`")),
            other => parsed.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(parsed)
}

/// `repro fleet <gen|ingest|merge|plan|serve>`: the fleet-scale plan
/// pipeline (see `docs/FLEET.md`).
///
/// * `gen` synthesizes a fleet: per app, one representative `.itrace` plus
///   `--machines` per-machine `.iprof` profiles over drifted input variants.
/// * `ingest` scans a fleet directory into the canonical manifest and
///   prints the per-app shard summary.
/// * `merge` folds every app's members into a consensus `.iprof`
///   (`<app>-consensus.iprof`) under the vote thresholds.
/// * `plan` plans injections from each consensus profile against the app's
///   representative recording (`<app>-consensus.iplan`).
/// * `serve <app>...` answers plan requests through the three-tier path
///   (warm cache → replan from aggregate → cold) and prints the per-tier
///   telemetry counters.
fn run_fleet(args: &[String]) -> ExitCode {
    let Some(cmd) = args.first().map(String::as_str) else {
        return fail("fleet needs a subcommand: gen|ingest|merge|plan|serve (see `repro` usage)");
    };
    let parsed = match parse_fleet_args(&args[1..]) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    match cmd {
        "gen" => fleet_gen(parsed),
        "ingest" => fleet_ingest(parsed),
        "merge" => fleet_merge(parsed),
        "plan" => fleet_plan(parsed),
        "serve" => fleet_serve(parsed),
        other => {
            fail(&format!("unknown fleet subcommand `{other}`; try gen|ingest|merge|plan|serve"))
        }
    }
}

/// `repro fleet gen`: synthesize a fleet of per-machine profile artifacts.
/// Machine `m` profiles input variant `m % 5` (the Fig. 16 drift variants)
/// with a small deterministic trace-length spread, so the fleet covers
/// several inputs of the same binary — the setting the consensus merge is
/// for.
fn fleet_gen(parsed: FleetArgs) -> ExitCode {
    use ispy_profile::{profile, SampleRate};
    let models = match resolve_models(&parsed.apps) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&parsed.dir) {
        return fail(&format!("cannot create {}: {e}", parsed.dir.display()));
    }
    let events = parsed.events.unwrap_or(parsed.scale.events);
    let t0 = Instant::now();
    let prepared: Vec<(ispy_trace::AppModel, ispy_trace::Program)> =
        ispy_parallel::par_map_vec(models, |m| {
            let m = m.scaled_down(parsed.scale.shrink);
            let p = m.generate();
            (m, p)
        });
    // One representative recording per app, then the machine grid.
    let traces: Vec<Result<(), String>> = ispy_parallel::par_collect(prepared.len(), |i| {
        let (model, program) = &prepared[i];
        let trace = program.record_trace(model.default_input(), events);
        let path = parsed.dir.join(format!("{}.itrace", model.name()));
        ispy_trace::artifact::write_recording(program, &trace, &path).map_err(|e| e.to_string())
    });
    let napps = prepared.len();
    let machines = parsed.machines;
    let profiles: Vec<Result<(), String>> = ispy_parallel::par_collect(napps * machines, |j| {
        let (model, program) = &prepared[j / machines];
        let m = j % machines;
        // Drift across machines: rotate through the five fig16 input
        // variants and spread trace lengths a little so same-variant
        // machines still measure distinct executions.
        let len = events + 61 * (m / 5);
        let trace = program.record_trace(model.input_variant(m % 5), len);
        let prof = profile(program, &trace, &ispy_sim::SimConfig::default(), SampleRate::EXACT);
        let path = parsed.dir.join(format!("{}-m{m:04}.iprof", model.name()));
        ispy_profile::artifact::write_profile(model.name(), &prof, &path).map_err(|e| e.to_string())
    });
    for r in traces.iter().chain(profiles.iter()) {
        if let Err(e) = r {
            return fail(e);
        }
    }
    eprintln!(
        "fleet gen: {napps} apps x {machines} machines -> {} profiles + {napps} traces in {} \
         ({:.1?})",
        napps * machines,
        parsed.dir.display(),
        t0.elapsed(),
    );
    ExitCode::SUCCESS
}

/// `repro fleet ingest`: scan the fleet directory, print per-app shards.
fn fleet_ingest(parsed: FleetArgs) -> ExitCode {
    let manifest = match ispy_fleet::FleetManifest::scan(&parsed.dir) {
        Ok(m) => m,
        Err(e) => return fail(&format!("cannot scan {}: {e}", parsed.dir.display())),
    };
    println!("fleet dir: {}", parsed.dir.display());
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
    ExitCode::SUCCESS
}

/// `repro fleet merge`: consensus-merge every app's members.
fn fleet_merge(parsed: FleetArgs) -> ExitCode {
    let manifest = match ispy_fleet::FleetManifest::scan(&parsed.dir) {
        Ok(m) => m,
        Err(e) => return fail(&format!("cannot scan {}: {e}", parsed.dir.display())),
    };
    let t0 = Instant::now();
    let merged = match ispy_fleet::merge_all(&manifest, parsed.fleet_cfg) {
        Ok(m) => m,
        Err(e) => return fail(&e.to_string()),
    };
    if merged.is_empty() {
        return fail(&format!("no profile artifacts in {}", parsed.dir.display()));
    }
    for (app, profile, stats) in &merged {
        let path = ispy_fleet::store::consensus_profile_path(&parsed.dir, app);
        if let Err(e) = ispy_profile::artifact::write_profile(app, profile, &path) {
            return fail(&e.to_string());
        }
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
    ExitCode::SUCCESS
}

/// `repro fleet plan`: plan from each consensus profile.
fn fleet_plan(parsed: FleetArgs) -> ExitCode {
    let manifest = match ispy_fleet::FleetManifest::scan(&parsed.dir) {
        Ok(m) => m,
        Err(e) => return fail(&format!("cannot scan {}: {e}", parsed.dir.display())),
    };
    let apps: Vec<String> = match &parsed.apps {
        Some(list) => list.clone(),
        None => manifest.apps(),
    };
    let mut planned = 0usize;
    for app in &apps {
        let consensus_path = ispy_fleet::store::consensus_profile_path(&parsed.dir, app);
        if !consensus_path.exists() {
            eprintln!("note: no consensus profile for `{app}` (run `repro fleet merge` first)");
            continue;
        }
        let Some(trace_entry) = manifest.canonical_trace(app) else {
            eprintln!("note: no representative .itrace for `{app}`; cannot plan");
            continue;
        };
        let (_label, consensus) = match ispy_profile::artifact::read_profile(&consensus_path) {
            Ok(pair) => pair,
            Err(e) => return fail(&e.to_string()),
        };
        let (program, trace) = match ispy_trace::artifact::read_recording(&trace_entry.path) {
            Ok(pair) => pair,
            Err(e) => return fail(&e.to_string()),
        };
        let baseline = ispy_core::PlannerBaseline::new();
        let plan = ispy_fleet::plan_consensus(
            &program,
            &trace,
            &consensus,
            ispy_core::IspyConfig::default(),
            &baseline,
        );
        let path = ispy_fleet::store::consensus_plan_path(&parsed.dir, app);
        if let Err(e) = ispy_core::artifact::write_plan(app, &plan, &path) {
            return fail(&e.to_string());
        }
        println!(
            "planned {app} from consensus: {} ops at {} sites -> {}",
            plan.stats.ops_total(),
            plan.stats.sites,
            path.display(),
        );
        planned += 1;
    }
    if planned == 0 {
        return fail("nothing planned: no consensus artifacts found");
    }
    ExitCode::SUCCESS
}

/// `repro fleet serve <app>...`: the three-tier plan service.
fn fleet_serve(parsed: FleetArgs) -> ExitCode {
    if parsed.positional.is_empty() {
        return fail(&format!(
            "serve needs at least one app name; known: {}",
            apps::NAMES.join(",")
        ));
    }
    let service = ispy_harness::fleet::PlanService::with_config(
        &parsed.dir,
        &parsed.cache_dir,
        parsed.scale,
        parsed.fleet_cfg,
    );
    for app in &parsed.positional {
        match service.serve(app) {
            Ok(outcome) => println!(
                "served {app} via {}: {} ops at {} sites",
                outcome.tier.name(),
                outcome.plan.stats.ops_total(),
                outcome.plan.stats.sites,
            ),
            Err(e) => return fail(&e),
        }
    }
    let tele = ispy_telemetry::global();
    println!("serve tiers:");
    for tier in ["warm", "replan", "cold"] {
        let name = format!("fleet.serve.{tier}");
        let hits = tele.counter(&name);
        let ms = tele.spans().get(&name).map_or(0.0, |s| s.total_ms());
        println!("  {name:<18} hits={hits}   {ms:.1} ms");
    }
    ExitCode::SUCCESS
}

/// Resolves `--apps` names to models (all nine when absent).
fn resolve_models(names: &Option<Vec<String>>) -> Result<Vec<ispy_trace::AppModel>, String> {
    match names {
        None => Ok(apps::all()),
        Some(names) => names
            .iter()
            .map(|name| {
                apps::by_name(name).ok_or_else(|| {
                    format!("unknown app `{name}`; known: {}", apps::NAMES.join(","))
                })
            })
            .collect(),
    }
}

/// `repro ingest <perf.txt>`: lift a perf-script LBR dump into `.itrace`.
fn run_ingest(args: &[String]) -> ExitCode {
    let parsed = match parse_artifact_args(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let out = parsed.out;
    let [input] = parsed.positional.as_slice() else {
        return fail("ingest needs exactly one perf-script text file");
    };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    let (program, trace) = match ispy_trace::ingest::parse_perf_script(&text) {
        Ok(pair) => pair,
        Err(e) => return fail(&e.to_string()),
    };
    let path = out.unwrap_or_else(|| PathBuf::from(input).with_extension("itrace"));
    if let Err(e) = ispy_trace::artifact::write_recording(&program, &trace, &path) {
        return fail(&e.to_string());
    }
    eprintln!(
        "ingested {input}: {} blocks, {} events -> {}",
        program.num_blocks(),
        trace.len(),
        path.display()
    );
    ExitCode::SUCCESS
}
