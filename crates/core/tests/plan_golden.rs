//! Pins every plan the planner makes at test scale: the artifact bytes of
//! the nine apps' plans under the four ablation configs (default,
//! conditional-only, coalescing-only, plain). Each plan is made fresh with
//! `plan()` and again through one baseline per app shared by all four
//! configs, so the pins hold the memoized path to the fresh one too. A
//! change to the planner that changes no output leaves every pin standing.

use ispy_core::artifact::plan_to_bytes;
use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_isa::hash::fnv1_64;
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::apps;

/// `(FNV-1 digest, byte length)` of one encoded plan.
type BytePin = (u64, usize);

/// The four configs, in the order of each app's pins.
fn configs() -> [IspyConfig; 4] {
    [
        IspyConfig::default(),
        IspyConfig::conditional_only(),
        IspyConfig::coalescing_only(),
        IspyConfig::plain(),
    ]
}

#[test]
fn test_scale_plans_of_all_nine_apps_are_pinned() {
    let mut got: Vec<(String, [BytePin; 4])> = Vec::new();
    for model in apps::all() {
        // `Scale::test()`: a 20x shrink, 50k trace events, exact sampling.
        let model = model.scaled_down(20);
        let name = model.name().to_string();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 50_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let pin = |plan: &Plan| {
            let bytes = plan_to_bytes(&name, plan);
            (fnv1_64(&bytes), bytes.len())
        };
        let baseline = PlannerBaseline::new();
        let pins = configs().map(|cfg| {
            let planner = Planner::new(&program, &trace, &prof, cfg);
            let fresh = pin(&planner.plan());
            assert_eq!(pin(&planner.plan_with_baseline(&baseline)), fresh, "{name} baseline plan");
            fresh
        });
        got.push((name, pins));
    }
    let want: Vec<(String, [BytePin; 4])> =
        PINS.iter().map(|&(app, pins)| (app.to_string(), pins)).collect();
    let listing: String = got
        .iter()
        .map(|(app, pins)| {
            let pins: Vec<String> = pins.iter().map(|(h, n)| format!("({h:#018x}, {n})")).collect();
            format!("    (\"{app}\", [{}]),\n", pins.join(", "))
        })
        .collect();
    assert!(got == want, "plan bytes changed; the plans now pin as:\n{listing}");
}

/// Per app: the default, conditional-only, coalescing-only and plain plans.
const PINS: [(&str, [BytePin; 4]); 9] = [
    (
        "cassandra",
        [
            (0xf83c19d9f24e732f, 125956),
            (0x101b3e4fa11beb1b, 142171),
            (0x86685400c083021d, 91128),
            (0x2674a786406c437f, 108080),
        ],
    ),
    (
        "drupal",
        [
            (0x633d8c9abf378b29, 272155),
            (0x6bdf55c2f3b714fb, 322757),
            (0x68ada897aea40283, 250635),
            (0x11d20826f4051f00, 303313),
        ],
    ),
    (
        "finagle-chirper",
        [
            (0x325352f8f60caea3, 23900),
            (0x39c220e2bf7d3891, 27994),
            (0x24cd477230cafaed, 14302),
            (0xdf5ede0123a27cec, 17140),
        ],
    ),
    (
        "finagle-http",
        [
            (0xb6e9b0580e5c56e5, 11175),
            (0xf5856d5b87afe3b2, 12803),
            (0x7555ebfdbd72e4b0, 5123),
            (0x722fa40bf80945f5, 5668),
        ],
    ),
    (
        "kafka",
        [
            (0x3a2089989124cb80, 111372),
            (0xabb81ef900baa7b8, 124926),
            (0xf57145af897a5d1f, 74935),
            (0x9ac9fbfe7e4c10f3, 88094),
        ],
    ),
    (
        "mediawiki",
        [
            (0xbb0fa2c700b9c76f, 330493),
            (0xc3a4e55c4d3a127b, 390537),
            (0x98d3679a3a3f448c, 318169),
            (0x42267d0adea1ed97, 387034),
        ],
    ),
    (
        "tomcat",
        [
            (0x82645f3e719fab3d, 118435),
            (0x8e887398bb1d98fe, 133492),
            (0xe6ba2b1408b66de8, 78547),
            (0xd0f54ed0c7f03ad8, 93493),
        ],
    ),
    (
        "verilator",
        [
            (0xd99fe0daa73f25d1, 218002),
            (0xcf24a8f52fd8a4a3, 263214),
            (0xa5f63c33bd46982f, 180843),
            (0xb6a77d56350f18eb, 224705),
        ],
    ),
    (
        "wordpress",
        [
            (0x01dbc6897d165491, 278394),
            (0x40b83d6e24dc3ce8, 330843),
            (0xeae4c0bac5b3a139, 267494),
            (0x9db2555002722cc4, 325014),
        ],
    ),
];
