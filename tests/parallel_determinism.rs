//! The harness's parallelism guarantee: every figure driver produces
//! byte-identical tables with 1 thread and with many, because fan-outs
//! collect rows in sweep order and every cached artifact (comparisons,
//! planner baselines) is deterministic regardless of fill order. A single
//! simulation is sequential by construction; its determinism contract is
//! that streaming a trace in chunks of any size replays exactly like `run`
//! over the materialized trace — pinned here for a generated scenario
//! stream with a plan and an outcome ledger attached, the chunked replays
//! running concurrently on worker threads.

use ispy_harness::workload::miss_derived_plan;
use ispy_harness::{figures, Scale, Session, Table};
use ispy_scenario::{Scenario, ScenarioSource};
use ispy_sim::{run, run_streaming, OutcomeLedger, RunOptions, SimConfig};
use ispy_telemetry::Telemetry;
use ispy_trace::{apps, BlockSource};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A run's telemetry with every wall time stripped: the counters and the
/// number of completed spans per name.
type WorkCounts = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// Runs every registered figure at the given thread count over a fresh
/// session (fresh caches each time, so cache-fill order genuinely differs
/// between runs). Also captures the run's telemetry work counts.
fn all_tables(threads: usize) -> (Vec<Table>, WorkCounts) {
    ispy_parallel::set_threads(threads);
    let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    let session = Session::with_apps(
        Scale::test(),
        vec![apps::cassandra(), apps::verilator(), apps::wordpress()],
    );
    let tables = figures::all().into_iter().map(|spec| (spec.run)(&session)).collect();
    let tele = ispy_telemetry::swap_global(previous);
    let span_counts = tele.spans().into_iter().map(|(name, s)| (name, s.count)).collect();
    let telemetry = (tele.counters(), span_counts);
    ispy_parallel::set_threads(0);
    (tables, telemetry)
}

#[test]
fn every_figure_is_identical_serial_vs_parallel() {
    let (serial, serial_tele) = all_tables(1);
    let (parallel, parallel_tele) = all_tables(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "figure {} differs between 1 and 4 threads", s.id);
        // The JSON export (what `repro --json` writes) matches too.
        assert_eq!(s.to_json(None), p.to_json(None));
    }
    // Telemetry counters only record order-invariant work (per plan call,
    // per window search, per cache-key fill), so counters and span counts
    // are identical no matter how the pool scheduled the same work.
    assert!(serial_tele.1.contains_key("core.plan"), "planner work must be visible in telemetry");
    assert_eq!(serial_tele, parallel_tele, "telemetry must not depend on thread count");
}

const SCENARIO_EVENTS: u64 = 30_000;

/// Compiles the burst preset at test scale — the multi-tenant, multi-phase
/// stream the scenario determinism tests replay.
fn burst_scenario() -> ispy_scenario::CompiledScenario {
    Scenario::preset("burst").expect("builtin preset").scaled_down(20).compile(SCENARIO_EVENTS)
}

#[test]
fn scenario_replay_is_identical_serial_vs_sharded() {
    // The scenario engine's determinism contract with a plan and an outcome
    // ledger attached: one serial `run` over the drained stream is the
    // reference, and replaying the generated stream in shards of any pull
    // size — each shard size replayed on its own worker thread — must
    // reproduce it byte for byte, counters and per-injection attribution
    // alike.
    let sc = burst_scenario();
    let cfg = SimConfig::default();

    // Plan from a materialized copy of the stream so injections genuinely
    // exercise the engine during the replay.
    let trace = sc.source().materialize("scenario-burst").expect("scenario sources cannot fail");
    let plan = miss_derived_plan(sc.program(), &trace, &cfg);

    let mut reference_ledger = OutcomeLedger::default();
    let reference = run(
        sc.program(),
        &trace,
        &cfg,
        RunOptions {
            injections: Some(&plan),
            outcomes: Some(&mut reference_ledger),
            ..Default::default()
        },
    );
    assert!(reference.pf_ops_fired > 0, "plan must actually exercise the engine");

    let shard_sizes = [1usize, 7, 4_096, SCENARIO_EVENTS as usize];
    let replays = ispy_parallel::par_map(&shard_sizes, |&chunk| {
        let mut ledger = OutcomeLedger::default();
        let got = run_streaming(
            sc.program(),
            &mut ScenarioSource::with_chunk(&sc, chunk),
            &cfg,
            RunOptions {
                injections: Some(&plan),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        )
        .expect("scenario sources cannot fail");
        (got, ledger)
    });
    for (chunk, (got, ledger)) in shard_sizes.iter().zip(replays) {
        assert_eq!(got, reference, "SimResult diverged from serial at shard size {chunk}");
        assert_eq!(ledger, reference_ledger, "OutcomeLedger diverged at shard size {chunk}");
    }
}

#[test]
fn scenario_stream_is_chunk_size_invariant() {
    // The generated block sequence is a pure function of the compiled
    // scenario: how the caller chunks the pull must not change a single
    // block, and a fresh source must reproduce the stream exactly.
    let sc = burst_scenario();
    let drain = |chunk| {
        ScenarioSource::with_chunk(&sc, chunk)
            .materialize("scenario-burst")
            .expect("scenario sources cannot fail")
    };
    let whole = drain(SCENARIO_EVENTS as usize);
    assert_eq!(whole.len() as u64, SCENARIO_EVENTS);
    for chunk in [1usize, 7, 4_096] {
        assert_eq!(drain(chunk), whole, "stream diverged at chunk={chunk}");
    }

    // And the replay result is equally chunk-blind.
    let cfg = SimConfig::default();
    let mut one = ScenarioSource::with_chunk(&sc, 1);
    let r1 = run_streaming(sc.program(), &mut one, &cfg, RunOptions::default())
        .expect("scenario sources cannot fail");
    let mut big = ScenarioSource::with_chunk(&sc, SCENARIO_EVENTS as usize);
    let r2 = run_streaming(sc.program(), &mut big, &cfg, RunOptions::default())
        .expect("scenario sources cannot fail");
    assert_eq!(r1, r2, "SimResult must not depend on the pull chunk size");
}
