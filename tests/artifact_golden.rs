//! Golden determinism tests for the artifact subsystem: the durable path
//! (record → artifact bytes → replay) must be byte-identical to the
//! in-memory pipeline, per app and per rendered figure table.

use ispy_core::artifact::plan_to_bytes;
use ispy_harness::cache::ArtifactCache;
use ispy_harness::{figures, metrics, Scale, Session};
use ispy_sim::{run, run_streaming, RunOptions, SimConfig};
use ispy_trace::apps;

/// For every one of the nine applications, replaying through the `.itrace`
/// artifact yields the exact `SimResult` (and therefore the exact metric
/// lines) the in-memory recording produces.
#[test]
fn record_replay_is_byte_identical_for_all_nine_apps() {
    let scale = Scale::test();
    let cfg = SimConfig::default();
    for model in apps::all() {
        let model = model.scaled_down(scale.shrink);
        let name = model.name();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), scale.events);
        let live = run(&program, &trace, &cfg, RunOptions::default());
        let bytes = ispy_trace::artifact::recording_to_bytes(&program, &trace);
        let (decoded, mut events) =
            ispy_trace::artifact::open_recording_stream(bytes.as_slice()).unwrap();
        assert_eq!(decoded.name(), name);
        assert_eq!(events.name(), trace.name());
        let replayed = run_streaming(&decoded, &mut events, &cfg, RunOptions::default()).unwrap();
        assert_eq!(replayed, live, "replay diverged for {name}");
        assert_eq!(
            metrics::result_lines(name, &replayed),
            metrics::result_lines(name, &live),
            "metric lines diverged for {name}"
        );
    }
}

/// Figures rendered from cached artifacts — both the cold run that writes
/// the cache and the warm run that reads it — produce byte-identical JSON
/// tables to an uncached session (`Table::to_json(None)` omits
/// `runtime_secs`, so this is exactly the "modulo runtime" comparison).
#[test]
fn figures_from_cached_artifacts_are_byte_identical() {
    let scale = Scale::test();
    let models = || vec![apps::cassandra(), apps::kafka(), apps::wordpress()];
    let dir = std::env::temp_dir().join("ispy-artifact-golden-cache");
    std::fs::remove_dir_all(&dir).ok();

    let fresh = Session::with_apps(scale, models());
    let cold = Session::with_cache(scale, models(), ArtifactCache::new(&dir, scale));
    let warm = Session::with_cache(scale, models(), ArtifactCache::new(&dir, scale));
    for id in ["fig10", "table1"] {
        let spec = figures::by_id(id).unwrap();
        let want = (spec.run)(&fresh).to_json(None);
        assert_eq!((spec.run)(&cold).to_json(None), want, "cold cache diverged for {id}");
        assert_eq!((spec.run)(&warm).to_json(None), want, "warm cache diverged for {id}");
    }

    // The warm session really did hit the cache: artifacts exist for every
    // prepared app and both planned algorithms.
    for app in ["cassandra", "kafka", "wordpress"] {
        let cache = ArtifactCache::new(&dir, scale);
        assert!(cache.trace_path(app).exists(), "missing .itrace for {app}");
        assert!(cache.profile_path(app).exists(), "missing .iprof for {app}");
        assert!(cache.plan_path(app, "ispy").exists(), "missing ispy .iplan for {app}");
        assert!(cache.plan_path(app, "asmdb").exists(), "missing asmdb .iplan for {app}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A session whose profiles come from the artifact cache replays the
/// baseline and ideal arms itself; a fresh session takes them from its
/// profiles. Both must return the same comparison.
#[test]
fn cached_and_uncached_sessions_return_equal_comparisons() {
    let scale = Scale::test();
    let models = || vec![apps::drupal(), apps::tomcat()];
    let dir = std::env::temp_dir().join("ispy-artifact-golden-comparison");
    std::fs::remove_dir_all(&dir).ok();

    let fresh = Session::with_apps(scale, models());
    // The cold session stores its artifacts; the warm one loads them.
    drop(Session::with_cache(scale, models(), ArtifactCache::new(&dir, scale)));
    let warm = Session::with_cache(scale, models(), ArtifactCache::new(&dir, scale));
    for i in 0..fresh.apps().len() {
        let name = fresh.apps()[i].name();
        assert!(fresh.apps()[i].profile.replays.is_some(), "{name}: fresh profile lacks replays");
        assert!(warm.apps()[i].profile.replays.is_none(), "{name}: cached profile has replays");
        let (a, b) = (fresh.comparison(i), warm.comparison(i));
        assert_eq!(a.baseline, b.baseline, "{name} baseline");
        assert_eq!(a.ideal, b.ideal, "{name} ideal");
        assert_eq!(a.asmdb, b.asmdb, "{name} asmdb");
        assert_eq!(a.ispy, b.ispy, "{name} ispy");
        assert_eq!(a.ispy_outcomes, b.ispy_outcomes, "{name} ledger");
        for (pa, pb) in [(&a.asmdb_plan, &b.asmdb_plan), (&a.ispy_plan, &b.ispy_plan)] {
            assert_eq!(plan_to_bytes(name, pa), plan_to_bytes(name, pb), "{name} plan");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `(app, .iprof pin, .iplan pin, .itrace pin)`: each pin is
/// `(FNV-1 digest, byte length)` of the encoded artifact at `Scale::test()`.
/// The `.itrace` pin is the framed recording `RecordingWriter` emits.
type BytePin = (u64, usize);
const BYTE_PINS: [(&str, BytePin, BytePin, BytePin); 3] = [
    (
        "cassandra",
        (0x4d25ab53b0b328bc, 312858),
        (0xf83c19d9f24e732f, 125956),
        (0xc7b89cb0a6c06811, 109073),
    ),
    (
        "kafka",
        (0x3c84bf7438507ca5, 289041),
        (0x3a2089989124cb80, 111372),
        (0x61174678fcb2f911, 106979),
    ),
    (
        "wordpress",
        (0x2162f5e35f3308fa, 813470),
        (0x01dbc6897d165491, 278394),
        (0x3d96ff3392a0dda2, 174719),
    ),
];

/// The encoders are byte-stable: `.iprof`, `.iplan` and `.itrace` bytes for
/// three apps match digests pinned when each artifact kind had a second,
/// buffered writer. Print the current pins (to re-pin after an intentional
/// format change) with:
///
/// ```text
/// ARTIFACT_GOLDEN_PRINT=1 cargo test --release -p ispy-harness --test artifact_golden -- --nocapture
/// ```
#[test]
fn artifact_bytes_match_their_pins() {
    use ispy_core::{IspyConfig, Planner};
    use ispy_harness::session::AppContext;
    use ispy_isa::hash::fnv1_64;
    use ispy_trace::artifact::RecordingWriter;

    let pin = |bytes: &[u8]| (fnv1_64(bytes), bytes.len());
    for (app, want_prof, want_plan, want_trace) in BYTE_PINS {
        let model = apps::all().into_iter().find(|m| m.name() == app).unwrap();
        let ctx = AppContext::prepare(model, Scale::test());
        let plan =
            Planner::new(&ctx.program, &ctx.trace, &ctx.profile, IspyConfig::default()).plan();
        let prof = pin(&ispy_profile::artifact::profile_to_bytes(app, &ctx.profile));
        let plan = pin(&plan_to_bytes(app, &plan));
        let mut w =
            RecordingWriter::new(std::io::Cursor::new(Vec::new()), &ctx.program, ctx.trace.name())
                .unwrap();
        w.push(ctx.trace.blocks()).unwrap();
        let trace = pin(&w.finish().unwrap().into_inner());
        if std::env::var_os("ARTIFACT_GOLDEN_PRINT").is_some() {
            println!(
                "(\"{app}\", ({:#018x}, {}), ({:#018x}, {}), ({:#018x}, {})),",
                prof.0, prof.1, plan.0, plan.1, trace.0, trace.1
            );
            continue;
        }
        assert_eq!(prof, want_prof, "{app} .iprof bytes changed");
        assert_eq!(plan, want_plan, "{app} .iplan bytes changed");
        assert_eq!(trace, want_trace, "{app} .itrace bytes changed");
    }
}
