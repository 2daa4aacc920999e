//! Golden pins for the profiling pass.
//!
//! For each of the nine applications at [`Scale::test`], exact and 1-in-7
//! sampled, the pinned fingerprint is: a digest over every missing line's
//! `line_digest` (lines in ascending order), the dynamic CFG's
//! `content_digest`, and the sampled miss total. The values were recorded
//! with the original per-sample `HashMap` collector; the batched collector
//! must reproduce them exactly. One longer trace crosses several of the
//! collector's buffer flushes.
//!
//! Print the current fingerprints (to re-pin after an *intentional* change
//! to profiling semantics) with:
//!
//! ```text
//! PROFILE_GOLDEN_PRINT=1 cargo test --release -p ispy-harness --test profile_golden -- --nocapture
//! ```

use ispy_harness::Scale;
use ispy_profile::{profile, ContentHasher, Profile, SampleRate};
use ispy_sim::{run, RunOptions, SimConfig};
use ispy_trace::{apps, AppModel};

/// `(misses digest, cfg digest, total misses)`.
type Pin = (u64, u64, u64);

fn fingerprint(p: &Profile) -> Pin {
    let mut lines: Vec<_> = p.misses.iter().map(|(l, _)| l).collect();
    lines.sort_unstable();
    let mut h = ContentHasher::new();
    h.write_usize(lines.len());
    for l in lines {
        h.write_u64(l.raw());
        h.write_u64(p.misses.line_digest(l).expect("an iterated line has stats"));
    }
    (h.finish(), p.cfg.content_digest(), p.misses.total_misses())
}

fn profile_app(model: AppModel, shrink: u32, events: usize, rate: SampleRate) -> Profile {
    let model = model.scaled_down(shrink);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), events);
    profile(&program, &trace, &SimConfig::default(), rate)
}

fn check(label: &str, got: Pin, want: Pin) {
    if std::env::var_os("PROFILE_GOLDEN_PRINT").is_some() {
        println!("{label}: ({:#018x}, {:#018x}, {}),", got.0, got.1, got.2);
        return;
    }
    assert_eq!(got, want, "profile fingerprint of {label} changed");
}

/// `(app, exact pin, every-7 pin)` at `Scale::test()`.
const PINS: [(&str, Pin, Pin); 9] = [
    (
        "cassandra",
        (0xcb79bf05260d8987, 0x4564868a12167771, 9249),
        (0x781207dd5486f459, 0x4564868a12167771, 1321),
    ),
    (
        "drupal",
        (0xf5b144f59af478c0, 0x9f221e612760fe26, 17616),
        (0x536a6b5021d0add9, 0x9f221e612760fe26, 2516),
    ),
    (
        "finagle-chirper",
        (0xa5dfd89b40901f61, 0xaa29604b08370c2a, 525),
        (0x5ed1d8f4ff0c2842, 0xaa29604b08370c2a, 75),
    ),
    (
        "finagle-http",
        (0xf8d973a4f72d62c1, 0x812666b792d1d925, 561),
        (0x3511f5c4a54b4fa4, 0x812666b792d1d925, 80),
    ),
    (
        "kafka",
        (0x30e6a7e805ed3fb5, 0x069a730d7ea2800c, 9032),
        (0x855b44c2d76565f5, 0x069a730d7ea2800c, 1290),
    ),
    (
        "mediawiki",
        (0x13606c4150e1b7e1, 0xa0034ca8ba8796f1, 26985),
        (0xb5d1286b4c8b7cf7, 0xa0034ca8ba8796f1, 3855),
    ),
    (
        "tomcat",
        (0x79337a39588627e3, 0x499feb418173e37b, 9309),
        (0x056d6722894497bc, 0x499feb418173e37b, 1329),
    ),
    (
        "verilator",
        (0x6759382d36a1ff12, 0xfa6b7af69de7749c, 32468),
        (0x92ed9a63cbb59b68, 0xfa6b7af69de7749c, 4638),
    ),
    (
        "wordpress",
        (0x5c28c25b28882b04, 0xd326b04ba5b0a5af, 19732),
        (0x7f0bd24612fd8c5a, 0xd326b04ba5b0a5af, 2818),
    ),
];

#[test]
fn nine_app_profiles_match_their_pins() {
    let scale = Scale::test();
    let models = apps::all();
    assert_eq!(models.len(), PINS.len());
    for (model, &(name, exact, sampled)) in models.into_iter().zip(&PINS) {
        assert_eq!(model.name(), name);
        let p = profile_app(model.clone(), scale.shrink, scale.events, SampleRate::EXACT);
        check(&format!("{name}/exact"), fingerprint(&p), exact);
        let p = profile_app(model, scale.shrink, scale.events, SampleRate::every(7));
        check(&format!("{name}/every7"), fingerprint(&p), sampled);
    }
}

/// A longer exact profile: enough sampled misses to fill the collector's
/// buffer of 2^16 samples twice before the final flush.
#[test]
fn long_profile_across_buffer_flushes_matches_its_pin() {
    let p = profile_app(apps::wordpress(), 4, 250_000, SampleRate::EXACT);
    assert!(p.misses.total_misses() > 2 << 16, "too few misses to flush");
    check("wordpress/long", fingerprint(&p), (0x58e378fe29fac4ea, 0x1b8fd44727a5c131, 133170));
}

/// The baseline and ideal results a fresh profile carries are exactly what
/// plain replays of the same trace return, on all nine apps.
#[test]
fn carried_replays_equal_plain_runs() {
    let scale = Scale::test();
    for model in apps::all() {
        let model = model.scaled_down(scale.shrink);
        let name = model.name();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), scale.events);
        let p = profile(&program, &trace, &SimConfig::default(), SampleRate::every(7));
        let replays = p.replays.expect("a fresh default-config profile carries its replays");
        let base = run(&program, &trace, &SimConfig::default(), RunOptions::default());
        let ideal = run(&program, &trace, &SimConfig::ideal(), RunOptions::default());
        assert_eq!(replays.baseline, base, "{name} baseline");
        assert_eq!(replays.ideal, ideal, "{name} ideal");
    }
    // Under any other machine the replays are not the comparison's arms.
    let model = apps::kafka().scaled_down(scale.shrink);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 5_000);
    let cfg = SimConfig { lbr_depth: 16, ..SimConfig::default() };
    assert!(profile(&program, &trace, &cfg, SampleRate::EXACT).replays.is_none());
}
