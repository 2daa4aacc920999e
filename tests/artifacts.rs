//! Integration tests for the artifact subsystem: cross-crate round trips,
//! seeded corruption (decoders must return typed errors, never panic), and
//! the external-ingest pipeline.

use ispy_core::{IspyConfig, Planner};
use ispy_profile::{profile, SampleRate};
use ispy_sim::{replay_file_streaming, run, RunOptions, SimConfig};
use ispy_trace::{apps, ingest};

/// xorshift64* — a tiny seeded generator so the corruption tests are
/// reproducible without external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A small but non-trivial recording to corrupt.
fn sample_recording() -> (ispy_trace::Program, ispy_trace::Trace) {
    let model = apps::cassandra().scaled_down(40);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 4_000);
    (program, trace)
}

#[test]
fn all_three_artifact_kinds_round_trip_across_crates() {
    let (program, trace) = sample_recording();
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();

    let tb = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    let (p2, t2) = ispy_trace::artifact::recording_from_bytes(&tb).unwrap();
    assert_eq!(p2.blocks(), program.blocks());
    assert_eq!(t2, trace);

    let pb = ispy_profile::artifact::profile_to_bytes(program.name(), &prof);
    let (label, prof2) = ispy_profile::artifact::profile_from_bytes(&pb).unwrap();
    assert_eq!(label, program.name());
    assert_eq!(prof2.misses.total_misses(), prof.misses.total_misses());

    let lb = ispy_core::artifact::plan_to_bytes(program.name(), &plan);
    let (label, plan2) = ispy_core::artifact::plan_from_bytes(&lb).unwrap();
    assert_eq!(label, program.name());
    assert_eq!(plan2, plan);

    // A plan rebuilt from the round-tripped profile is identical too: the
    // codec is exact, so downstream decisions cannot diverge.
    let replanned = Planner::new(&p2, &t2, &prof2, IspyConfig::default()).plan();
    assert_eq!(replanned, plan);
}

#[test]
fn seeded_random_bit_flips_error_and_never_panic() {
    let (program, trace) = sample_recording();
    let bytes = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    let mut state = 0x15B4_u64 ^ 0xDEAD_BEEF_u64;
    for _ in 0..500 {
        let mut corrupt = bytes.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(
            ispy_trace::artifact::recording_from_bytes(&corrupt).is_err(),
            "bit flip at {bit} went undetected"
        );
    }
}

#[test]
fn seeded_random_truncations_error_and_never_panic() {
    let (program, trace) = sample_recording();
    let bytes = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    let mut state = 0x5EED_u64;
    for _ in 0..200 {
        let cut = (next(&mut state) as usize) % bytes.len();
        assert!(
            ispy_trace::artifact::recording_from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
}

#[test]
fn corrupt_profile_and_plan_artifacts_error_and_never_panic() {
    let (program, trace) = sample_recording();
    let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
    let plan = Planner::new(&program, &trace, &prof, IspyConfig::default()).plan();
    let pb = ispy_profile::artifact::profile_to_bytes("x", &prof);
    let lb = ispy_core::artifact::plan_to_bytes("x", &plan);
    let mut state = 0xCAFE_u64;
    for _ in 0..200 {
        let mut corrupt = pb.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(ispy_profile::artifact::profile_from_bytes(&corrupt).is_err());
        let mut corrupt = lb.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(ispy_core::artifact::plan_from_bytes(&corrupt).is_err());
    }
}

#[test]
fn wrong_kind_is_rejected_across_codecs() {
    let (program, trace) = sample_recording();
    let tb = ispy_trace::artifact::recording_to_bytes(&program, &trace);
    // A valid .itrace is not a .iprof or .iplan.
    assert!(ispy_profile::artifact::profile_from_bytes(&tb).is_err());
    assert!(ispy_core::artifact::plan_from_bytes(&tb).is_err());
}

#[test]
fn ingested_dump_replays_through_the_artifact_path() {
    let dump = "# synthetic perf script -F brstack dump\n\
                0x400000/0x400800/P/-/-/3 0x400880/0x400000/P/-/-/5\n\
                0x400000/0x401000/M/-/-/2 0x401040/0x400000/P/-/-/1\n\
                0x400000/0x400800/P/-/-/4\n";
    let (program, trace) = ingest::parse_perf_script(dump).unwrap();
    program.validate().unwrap();
    let dir = std::env::temp_dir().join("ispy-artifacts-it");
    let path = dir.join("ingested.itrace");
    ispy_trace::artifact::write_recording(&program, &trace, &path).unwrap();
    let live = run(&program, &trace, &SimConfig::default(), RunOptions::default());
    let replayed =
        replay_file_streaming(&path, &SimConfig::default(), RunOptions::default()).unwrap();
    assert_eq!(replayed.result, live);
    assert_eq!(replayed.name, "ingested");
    std::fs::remove_dir_all(&dir).ok();
}
