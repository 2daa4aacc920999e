//! Streaming-engine equivalence: `run_streaming` over any [`BlockSource`]
//! must be *byte-identical* to `run` over the materialized prefix — for
//! every app model, every chunk size, every source kind (slice, generator,
//! `.itrace` decoder), and for sharded replay carved from a re-generatable
//! source. A truncated or corrupted stream must surface a typed
//! [`ArtifactError`], never a partial `SimResult`.

use ispy_artifact::ArtifactError;
use ispy_sim::{
    replay_stream, run, run_streaming, simulate_sharded, simulate_sharded_source, GenWindows,
    RunOptions, ShardConfig, SimConfig,
};
use ispy_trace::artifact::{open_recording_stream, recording_to_bytes, RecordingWriter};
use ispy_trace::{apps, AppModel, BlockSource, TraceBlocks, Walker, WalkerSource};

const EVENTS: usize = 6_000;

fn workload(model: &AppModel) -> (ispy_trace::Program, ispy_trace::Trace) {
    let model = model.clone().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), EVENTS);
    (program, trace)
}

/// Every app model: streaming over the materialized trace, streaming from
/// the generator, and streaming through the `.itrace` decoder all equal the
/// plain `run` bit for bit.
#[test]
fn every_app_streams_identically_to_run() {
    let cfg = SimConfig::default();
    for model in apps::all() {
        let name = model.name().to_string();
        let scaled = model.clone().scaled_down(30);
        let (program, trace) = workload(&model);
        let reference = run(&program, &trace, &cfg, RunOptions::default());

        let mut slice = TraceBlocks::of_trace(&trace);
        let via_slice = run_streaming(&program, &mut slice, &cfg, RunOptions::default()).unwrap();
        assert_eq!(via_slice, reference, "{name}: slice source diverged");

        let walker = Walker::new(&program, scaled.default_input());
        let mut generated = WalkerSource::new(walker, EVENTS as u64);
        let via_gen = run_streaming(&program, &mut generated, &cfg, RunOptions::default()).unwrap();
        assert_eq!(via_gen, reference, "{name}: generator source diverged");

        let bytes = recording_to_bytes(&program, &trace);
        let (decoded_program, mut decoder) = open_recording_stream(bytes.as_slice()).unwrap();
        let via_decoder =
            run_streaming(&decoded_program, &mut decoder, &cfg, RunOptions::default()).unwrap();
        assert_eq!(via_decoder, reference, "{name}: decoder source diverged");
    }
}

/// Seeded sweep: the result must not depend on how pulls are sized. Chunk
/// sizes cover the degenerate (1), page-ish (4 Ki), larger-than-trace
/// (1 Mi), and whole-trace-in-one-pull cases, across several apps picked by
/// a seeded rotation so the sweep stays cheap but not app-monoculture.
#[test]
fn chunk_size_never_changes_the_result() {
    let cfg = SimConfig::default();
    let all = apps::all();
    let mut seed = 0x5EED_u64;
    for round in 0..3 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
        let model = &all[(seed % all.len() as u64) as usize];
        let name = model.name().to_string();
        let (program, trace) = workload(model);
        let reference = run(&program, &trace, &cfg, RunOptions::default());
        for chunk in [1usize, 4 * 1024, 1024 * 1024, EVENTS] {
            let mut source = TraceBlocks::with_chunk(trace.blocks(), chunk);
            let got = run_streaming(&program, &mut source, &cfg, RunOptions::default()).unwrap();
            assert_eq!(got, reference, "{name}: chunk {chunk} diverged");
        }
    }
}

/// The decoder source is chunk-invariant too, on both `.itrace` forms:
/// monolithic (buffered writer) and framed (streamed writer).
#[test]
fn decoder_chunk_size_never_changes_the_result() {
    let cfg = SimConfig::default();
    let model = apps::tomcat();
    let (program, trace) = workload(&model);
    let reference = run(&program, &trace, &cfg, RunOptions::default());

    let monolithic = recording_to_bytes(&program, &trace);
    let mut writer =
        RecordingWriter::new(std::io::Cursor::new(Vec::new()), &program, trace.name()).unwrap();
    writer.push(trace.blocks()).unwrap();
    let framed = writer.finish().unwrap().into_inner();

    for (form, bytes) in [("monolithic", &monolithic), ("framed", &framed)] {
        for chunk in [1usize, 4 * 1024, 1024 * 1024, EVENTS] {
            let (program, mut decoder) = open_recording_stream(bytes.as_slice()).unwrap();
            decoder.set_chunk_events(chunk);
            let got = run_streaming(&program, &mut decoder, &cfg, RunOptions::default()).unwrap();
            assert_eq!(got, reference, "{form} form, chunk {chunk} diverged");
        }
    }
}

/// Streaming with an injection plan equals injected `run` — the fast path
/// the sweeps pay for is the same code either way.
#[test]
fn injected_streaming_matches_injected_run() {
    let cfg = SimConfig::default();
    let model = apps::cassandra();
    let (program, trace) = workload(&model);
    let plan = ispy_harness::workload::miss_derived_plan(&program, &trace, &cfg);
    let reference =
        run(&program, &trace, &cfg, RunOptions { injections: Some(&plan), ..Default::default() });
    let mut source = TraceBlocks::with_chunk(trace.blocks(), 777);
    let streamed = run_streaming(
        &program,
        &mut source,
        &cfg,
        RunOptions { injections: Some(&plan), ..Default::default() },
    )
    .unwrap();
    assert_eq!(streamed, reference);
}

/// Sharded replay carved from a re-generated source equals sharded replay
/// over the materialized trace, for multiple shard counts.
#[test]
fn sharded_from_generator_equals_sharded_from_trace() {
    let cfg = SimConfig::default();
    let model = apps::kafka();
    let scaled = model.clone().scaled_down(30);
    let (program, trace) = workload(&model);
    for shards in [1usize, 2, 4] {
        let shard = ShardConfig { window_blocks: 2_048, warmup_blocks: 512, shards };
        let materialized = simulate_sharded(&program, &trace, &cfg, None, &shard, None);
        let gen = GenWindows::for_shards(
            Walker::new(&program, scaled.default_input()),
            EVENTS as u64,
            &shard,
        );
        let regenerated =
            simulate_sharded_source(&program, &gen, &cfg, None, &shard, None).unwrap();
        assert_eq!(regenerated, materialized, "shards={shards}");
    }
}

/// Cutting the stream anywhere inside the event payload yields a typed
/// error — never a clean return over a silently shortened trace.
#[test]
fn truncation_is_always_a_typed_error() {
    let model = apps::drupal();
    let (program, trace) = workload(&model);
    let bytes = recording_to_bytes(&program, &trace);
    let whole = run(&program, &trace, &SimConfig::default(), RunOptions::default());
    for keep_fraction in [30, 60, 90, 99] {
        let cut = bytes.len() * keep_fraction / 100;
        let err = replay_stream(&bytes[..cut], &SimConfig::default(), RunOptions::default())
            .expect_err("truncated stream must not produce a result");
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. }
                    | ArtifactError::SectionChecksum { .. }
                    | ArtifactError::MissingSection { .. }
            ),
            "cut at {keep_fraction}%: unexpected error class {err:?}"
        );
    }
    // And the untruncated stream still replays to the reference result.
    let streamed = replay_stream(&bytes[..], &SimConfig::default(), RunOptions::default()).unwrap();
    assert_eq!(streamed.name, program.name());
    assert_eq!(streamed.result, whole);
}

/// The generator source really is the trace: a streamed record through
/// `RecordingWriter` decodes back to exactly what `record_trace` yields.
#[test]
fn streamed_record_round_trips_through_the_decoder() {
    let model = apps::verilator().scaled_down(30);
    let program = model.generate();
    let reference = program.record_trace(model.default_input(), EVENTS);

    let mut writer =
        RecordingWriter::new(std::io::Cursor::new(Vec::new()), &program, program.name()).unwrap();
    let mut source = WalkerSource::new(Walker::new(&program, model.default_input()), EVENTS as u64);
    while let Some(chunk) = source.next_chunk().unwrap() {
        writer.push(chunk).unwrap();
    }
    let bytes = writer.finish().unwrap().into_inner();

    let (decoded, mut stream) = open_recording_stream(bytes.as_slice()).unwrap();
    assert_eq!(decoded.name(), program.name());
    let mut events = Vec::new();
    while let Some(chunk) = stream.next_chunk().unwrap() {
        events.extend_from_slice(chunk);
    }
    assert_eq!(events, reference.blocks());
}
