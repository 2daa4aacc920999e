//! Pins the two ways to build a profile to one answer: `profile()` over a
//! whole trace and the fold of a whole-trace `window_delta` must agree on
//! the dynamic CFG, the trace length and every missing line's stats, and
//! the I-SPY plans made from the two must encode to the same bytes. Holds
//! for the nine apps at test scale, exact and 1-in-7 sampled.

use ispy_core::artifact::plan_to_bytes;
use ispy_core::{IspyConfig, Planner};
use ispy_profile::{profile, window_delta, Profile, ProfileAccumulator, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::apps;

/// `(line, content digest)` of every missing line, by ascending line.
fn line_digests(p: &Profile) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> =
        p.misses.iter().map(|(l, s)| (l.raw(), s.content_digest())).collect();
    v.sort_unstable();
    v
}

#[test]
fn profile_and_a_folded_whole_trace_delta_agree() {
    let cfg = SimConfig::default();
    let configs = [
        IspyConfig::default(),
        IspyConfig::conditional_only(),
        IspyConfig::default().with_ctx_size(2),
    ];
    for model in apps::all() {
        // `Scale::test()`: a 20x shrink, 50k trace events.
        let model = model.scaled_down(20);
        let name = model.name().to_string();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 50_000);
        for rate in [SampleRate::EXACT, SampleRate::every(7)] {
            let what = format!("{name} 1-in-{}", rate.period());
            let whole = profile(&program, &trace, &cfg, rate);
            let mut acc = ProfileAccumulator::new(program.num_blocks(), cfg.lbr_depth);
            acc.fold(&window_delta(&program, &[], trace.blocks(), &cfg, rate, 0));
            let folded = acc.profile();
            assert!(whole.misses.num_lines() > 0, "{what}: no misses");
            assert_eq!(folded.cfg.content_digest(), whole.cfg.content_digest(), "{what}: CFG");
            assert_eq!(folded.trace_len, whole.trace_len, "{what}: trace length");
            assert_eq!(line_digests(&folded), line_digests(&whole), "{what}: line stats");
            for ispy in &configs {
                let plan = |p: &Profile| {
                    plan_to_bytes(&name, &Planner::new(&program, &trace, p, ispy.clone()).plan())
                };
                assert!(plan(&folded) == plan(&whole), "{what} {ispy:?}: plan bytes");
            }
        }
    }
}
