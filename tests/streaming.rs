//! Streaming-engine equivalence: `run_streaming` over any [`BlockSource`]
//! must be *byte-identical* to `run` over the materialized prefix — for
//! every app model, every chunk size, and every source kind (slice,
//! generator, `.itrace` decoder). A truncated or corrupted stream must
//! surface a typed [`ArtifactError`], never a partial `SimResult`.

use ispy_artifact::ArtifactError;
use ispy_sim::{run, run_streaming, RunOptions, SimConfig};
use ispy_trace::artifact::{
    open_recording_stream, recording_from_bytes, recording_to_bytes, RecordingWriter, FRAME_EVENTS,
};
use ispy_trace::{apps, AppModel, BlockSource, Trace, TraceBlocks, Walker, WalkerSource};

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

/// The decoder hands out one frame per chunk, so frame boundaries are its
/// chunk boundaries. A recording of 150k events spans three frames, the
/// last one partial; it must replay identically to `run` through every
/// decode path, and a flipped byte inside the second frame must come back
/// as a typed error.
#[test]
fn decoder_chunk_size_never_changes_the_result() {
    const LONG: usize = 150_000;
    let cfg = SimConfig::default();
    let model = apps::tomcat().scaled_down(30);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), LONG);
    let reference = run(&program, &trace, &cfg, RunOptions::default());
    let bytes = recording_to_bytes(&program, &trace);

    let (decoded, materialized) = recording_from_bytes(&bytes).unwrap();
    assert_eq!(materialized, trace);
    assert_eq!(run(&decoded, &materialized, &cfg, RunOptions::default()), reference);

    let (decoded, mut decoder) = open_recording_stream(bytes.as_slice()).unwrap();
    let mut chunks = Vec::new();
    while let Some(chunk) = decoder.next_chunk().unwrap() {
        chunks.push(chunk.len());
    }
    assert_eq!(chunks, [FRAME_EVENTS, FRAME_EVENTS, LONG - 2 * FRAME_EVENTS]);
    let (_, mut decoder) = open_recording_stream(bytes.as_slice()).unwrap();
    let via_decoder = run_streaming(&decoded, &mut decoder, &cfg, RunOptions::default()).unwrap();
    assert_eq!(via_decoder, reference);

    // Writing only the first frame's events yields exactly the bytes that
    // precede the second frame, which locates it.
    let frame2 = recording_to_bytes(
        &program,
        &Trace::new(trace.name(), trace.blocks()[..FRAME_EVENTS].to_vec()),
    )
    .len();
    let mut corrupt = bytes.clone();
    corrupt[frame2 + 12 + 1000] ^= 0x10;
    let flipped = ArtifactError::SectionChecksum { id: 0x4000_0001 };
    assert_eq!(recording_from_bytes(&corrupt).unwrap_err(), flipped);
    let (decoded, mut decoder) = open_recording_stream(corrupt.as_slice()).unwrap();
    assert_eq!(
        run_streaming(&decoded, &mut decoder, &cfg, RunOptions::default()).unwrap_err(),
        flipped
    );
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
        let err = open_recording_stream(&bytes[..cut])
            .and_then(|(program, mut events)| {
                run_streaming(&program, &mut events, &SimConfig::default(), RunOptions::default())
            })
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
    let (decoded, mut events) = open_recording_stream(&bytes[..]).unwrap();
    assert_eq!(decoded.name(), program.name());
    let streamed =
        run_streaming(&decoded, &mut events, &SimConfig::default(), RunOptions::default()).unwrap();
    assert_eq!(streamed, whole);
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
    assert_eq!(stream.materialize(reference.name()).unwrap(), reference);
}
