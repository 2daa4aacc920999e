//! Golden determinism tests for the artifact subsystem: the durable path
//! (record → artifact bytes → replay) must be byte-identical to the
//! in-memory pipeline, per app and per rendered figure table.

use ispy_harness::cache::ArtifactCache;
use ispy_harness::{figures, metrics, Scale, Session};
use ispy_sim::{replay_stream, run, RunOptions, SimConfig};
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
        let replayed = replay_stream(bytes.as_slice(), &cfg, RunOptions::default()).unwrap();
        assert_eq!(replayed.name, name);
        assert_eq!(replayed.result, live, "replay diverged for {name}");
        assert_eq!(
            metrics::result_lines(name, &replayed.result),
            metrics::result_lines(name, &live),
            "metric lines diverged for {name}"
        );
    }
}

/// Figures rendered from cached artifacts — both the cold run that writes
/// the cache and the warm run that reads it — produce byte-identical JSON
/// tables to an uncached session (`runtime_secs` is not part of
/// `Table::to_json`, so this is exactly the "modulo runtime" comparison).
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
        let want = (spec.run)(&fresh).to_json();
        assert_eq!((spec.run)(&cold).to_json(), want, "cold cache diverged for {id}");
        assert_eq!((spec.run)(&warm).to_json(), want, "warm cache diverged for {id}");
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
