//! Integration tests for the artifact subsystem: cross-crate round trips,
//! seeded corruption (decoders must return typed errors, never panic), and
//! the external-ingest pipeline.

use ispy_core::{IspyConfig, Planner};
use ispy_profile::{profile, SampleRate};
use ispy_sim::{run, run_streaming, RunOptions, SimConfig};
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

/// Branch entries near the top of the address space. They lift to a valid
/// block, but flipping one bit of either address's `d` digit turns it into an
/// `f`, which puts the address in the last 4 KiB below `u64::MAX`. There an
/// unchecked lift would overflow the block's end (the target) or the
/// branch's end (the source).
const EDGE_ENTRIES: &str =
    "0x400000/0xffffffffffffdffa/P/-/-/1 0xffffffffffffdffc/0x400000/M/-/-/2";

/// A perf-script brstack dump of the sample recording's first transitions,
/// four entries per line under a comment and a perf header line, ending with
/// [`EDGE_ENTRIES`].
fn sample_dump() -> String {
    let (program, trace) = sample_recording();
    let mut dump = String::from("# perf script -F brstack\nswapper 0 [000] 12.5: branches:\n");
    for (k, pair) in trace.blocks()[..400].windows(2).enumerate() {
        let from = program.block(pair[0]).end().raw() - 4;
        let to = program.block(pair[1]).start().raw();
        dump.push_str(&format!("{from:#x}/{to:#x}/P/-/-/{}", k % 7 + 1));
        dump.push(if k % 4 == 3 { '\n' } else { ' ' });
    }
    dump.push('\n');
    dump.push_str(EDGE_ENTRIES);
    dump.push('\n');
    dump
}

/// Parses a mutated dump: it must either lift to a valid program or return a
/// typed error — a panic fails the test.
fn assert_ingest_is_typed(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    match ingest::parse_perf_script(&text) {
        Ok((program, trace)) => {
            program.validate().unwrap();
            assert!(trace.blocks().iter().all(|b| b.index() < program.num_blocks()));
        }
        Err(ingest::IngestError::NoBranches | ingest::IngestError::BadAddress { .. }) => {}
    }
}

#[test]
fn seeded_random_bit_flips_in_perf_dumps_never_panic() {
    let dump = sample_dump();
    ingest::parse_perf_script(&dump).unwrap().0.validate().unwrap();
    let bytes = dump.into_bytes();
    let mut state = 0xB125_u64;
    for _ in 0..500 {
        let mut corrupt = bytes.clone();
        let bit = (next(&mut state) as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_ingest_is_typed(&corrupt);
    }
}

#[test]
fn every_bit_flip_of_the_edge_entries_is_typed() {
    let bytes = sample_dump().into_bytes();
    let edge = bytes.len() - EDGE_ENTRIES.len() - 1;
    for bit in edge * 8..bytes.len() * 8 {
        let mut corrupt = bytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_ingest_is_typed(&corrupt);
    }
}

#[test]
fn seeded_random_truncations_of_perf_dumps_never_panic() {
    let bytes = sample_dump().into_bytes();
    let mut state = 0x7A11_u64;
    for _ in 0..200 {
        let cut = (next(&mut state) as usize) % bytes.len();
        assert_ingest_is_typed(&bytes[..cut]);
    }
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
    let (decoded, mut events) = ispy_trace::artifact::open_recording_file(&path).unwrap();
    assert_eq!(decoded.name(), "ingested");
    assert_eq!(events.name(), trace.name());
    let replayed =
        run_streaming(&decoded, &mut events, &SimConfig::default(), RunOptions::default()).unwrap();
    assert_eq!(replayed, live);
    std::fs::remove_dir_all(&dir).ok();
}

/// A recording in the retired monolithic encoding: the program sections,
/// then one section 7 holding the trace name, event count and every event
/// as a single delta stream. Built by hand because no writer emits it.
fn monolithic_itrace(program: &ispy_trace::Program, trace: &ispy_trace::Trace) -> Vec<u8> {
    use ispy_artifact::{encode_to_vec, ArtifactKind, SectionWriter, StreamReader};
    let framed = ispy_trace::artifact::recording_to_bytes(program, trace);
    let mut r = StreamReader::new(framed.as_slice(), ArtifactKind::Trace).unwrap();
    let mut sections = Vec::new();
    for id in 1..=6 {
        let mut s = SectionWriter::new(id);
        for b in r.expect_section(id).unwrap() {
            s.put_u8(b);
        }
        sections.push(s);
    }
    let mut events = SectionWriter::new(7);
    events.put_str(trace.name());
    events.put_varint(trace.len() as u64);
    for b in trace.iter() {
        events.put_delta(u64::from(b.0));
    }
    sections.push(events);
    encode_to_vec(ArtifactKind::Trace, sections)
}

/// `.itrace` has one encoding. A file in the retired monolithic form is a
/// typed error from both decoders, and the artifact cache treats it as a
/// miss: it re-records and overwrites the file.
#[test]
fn monolithic_itrace_is_a_typed_error_and_a_cache_miss() {
    use ispy_artifact::ArtifactError;
    use ispy_harness::{cache::ArtifactCache, session::AppContext, Scale};

    let scale = Scale { shrink: 40, events: 4_000 };
    let (program, trace) = sample_recording();
    let mono = monolithic_itrace(&program, &trace);
    let section_order = |e: ArtifactError| {
        assert!(
            matches!(e, ArtifactError::Malformed { context: "section order", .. }),
            "unexpected error {e:?}"
        );
    };
    section_order(ispy_trace::artifact::recording_from_bytes(&mono).unwrap_err());
    section_order(ispy_trace::artifact::open_recording_stream(mono.as_slice()).unwrap_err());

    let dir = std::env::temp_dir().join("ispy-artifacts-it-monolithic");
    std::fs::remove_dir_all(&dir).ok();
    let cache = ArtifactCache::new(&dir, scale);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(cache.trace_path("cassandra"), &mono).unwrap();
    assert!(cache.load_recording("cassandra").is_none(), "a monolithic file must miss");
    let ctx = AppContext::prepare_with(apps::cassandra(), scale, Some(&cache));
    assert_eq!(ctx.trace, trace);
    let (_, reloaded) = cache.load_recording("cassandra").expect("re-recorded on the miss");
    assert_eq!(reloaded, trace);
    assert_eq!(
        std::fs::read(cache.trace_path("cassandra")).unwrap(),
        ispy_trace::artifact::recording_to_bytes(&program, &trace)
    );
    std::fs::remove_dir_all(&dir).ok();
}
