//! Pins every plan the planner makes at test scale: the artifact bytes of
//! the nine apps' plans under the four ablation configs (default,
//! conditional-only, coalescing-only, plain) and one point of each
//! sensitivity sweep (context size, prefetch distance, coalescing width,
//! context hash). Each plan is made fresh with `plan()` and again through
//! one baseline per app shared by all eight configs, so the pins hold the
//! memoized path to the fresh one too. A change to the planner that
//! changes no output leaves every pin standing.

use ispy_core::artifact::plan_to_bytes;
use ispy_core::{IspyConfig, Plan, Planner, PlannerBaseline};
use ispy_isa::hash::fnv1_64;
use ispy_isa::HashConfig;
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::apps;

/// `(FNV-1 digest, byte length)` of one encoded plan.
type BytePin = (u64, usize);

/// The configs, in the order of each app's pins: the Fig. 12 ablations,
/// then one point of the Fig. 17, 18, 19 and 21 sweeps.
fn configs() -> [IspyConfig; 8] {
    [
        IspyConfig::default(),
        IspyConfig::conditional_only(),
        IspyConfig::coalescing_only(),
        IspyConfig::plain(),
        IspyConfig::conditional_only().with_ctx_size(8),
        IspyConfig::default().with_distances(15, 200),
        IspyConfig::coalescing_only().with_coalesce_bits(16),
        IspyConfig::default().with_hash(HashConfig::new(32, 2)),
    ]
}

#[test]
fn test_scale_plans_of_all_nine_apps_are_pinned() {
    let mut got: Vec<(String, [BytePin; 8])> = Vec::new();
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
    let want: Vec<(String, [BytePin; 8])> =
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

/// Per app: the default, conditional-only, coalescing-only and plain plans,
/// then the context-size-8, 15-cycle, 16-bit and 32-bit-hash plans.
const PINS: [(&str, [BytePin; 8]); 9] = [
    (
        "cassandra",
        [
            (0xf83c19d9f24e732f, 125956),
            (0x101b3e4fa11beb1b, 142171),
            (0x86685400c083021d, 91128),
            (0x2674a786406c437f, 108080),
            (0x129496cd30a033d8, 148912),
            (0x6eaaebfa3cb0db94, 129542),
            (0xe1e0588e72170280, 90776),
            (0x093017e8bf7da707, 126733),
        ],
    ),
    (
        "drupal",
        [
            (0x633d8c9abf378b29, 272155),
            (0x6bdf55c2f3b714fb, 322757),
            (0x68ada897aea40283, 250635),
            (0x11d20826f4051f00, 303313),
            (0x0361cb971ef1faee, 330331),
            (0x4677b09751a9e800, 274902),
            (0xc59c79d8c205218c, 248430),
            (0x22b25de7390a36ad, 272915),
        ],
    ),
    (
        "finagle-chirper",
        [
            (0x325352f8f60caea3, 23900),
            (0x39c220e2bf7d3891, 27994),
            (0x24cd477230cafaed, 14302),
            (0xdf5ede0123a27cec, 17140),
            (0x6db9b81727342a9e, 28039),
            (0xa892eebc2b652b50, 25348),
            (0x092f8b807646795c, 14318),
            (0x4e739436e7e2616f, 23908),
        ],
    ),
    (
        "finagle-http",
        [
            (0xb6e9b0580e5c56e5, 11175),
            (0xf5856d5b87afe3b2, 12803),
            (0x7555ebfdbd72e4b0, 5123),
            (0x722fa40bf80945f5, 5668),
            (0xc00f5215d3049516, 13041),
            (0x77fe69187d9266e3, 12205),
            (0xf80002a95552598d, 5139),
            (0xcbf5cd5ba57181d1, 11196),
        ],
    ),
    (
        "kafka",
        [
            (0x3a2089989124cb80, 111372),
            (0xabb81ef900baa7b8, 124926),
            (0xf57145af897a5d1f, 74935),
            (0x9ac9fbfe7e4c10f3, 88094),
            (0xfeb6cbce4cccb3cf, 130776),
            (0xce40a7f56880453e, 113967),
            (0xfc630657fd28d7b7, 74849),
            (0x23134b95de71da51, 112097),
        ],
    ),
    (
        "mediawiki",
        [
            (0xbb0fa2c700b9c76f, 330493),
            (0xc3a4e55c4d3a127b, 390537),
            (0x98d3679a3a3f448c, 318169),
            (0x42267d0adea1ed97, 387034),
            (0x3b9b81ca8ed09d59, 405107),
            (0x7059c1be68f209c9, 332052),
            (0x7e458b1b35f1c8cc, 314870),
            (0x426b485807d39753, 331702),
        ],
    ),
    (
        "tomcat",
        [
            (0x82645f3e719fab3d, 118435),
            (0x8e887398bb1d98fe, 133492),
            (0xe6ba2b1408b66de8, 78547),
            (0xd0f54ed0c7f03ad8, 93493),
            (0x9a380b66ec65b687, 139886),
            (0xe859723967d1eb93, 121675),
            (0x6ea54bf112197bcc, 78049),
            (0x782d921e7d4d9984, 119242),
        ],
    ),
    (
        "verilator",
        [
            (0xd99fe0daa73f25d1, 218002),
            (0xcf24a8f52fd8a4a3, 263214),
            (0xa5f63c33bd46982f, 180843),
            (0xb6a77d56350f18eb, 224705),
            (0x449b97303beb6b2f, 270857),
            (0x6247d6b4d08b9db7, 222473),
            (0x57091b27f32a703d, 178738),
            (0xec5b2d1c6a555484, 218582),
        ],
    ),
    (
        "wordpress",
        [
            (0x01dbc6897d165491, 278394),
            (0x40b83d6e24dc3ce8, 330843),
            (0xeae4c0bac5b3a139, 267494),
            (0x9db2555002722cc4, 325014),
            (0xf5fd92101099505c, 336656),
            (0x79a2610dd8745f1d, 285837),
            (0x164ce94e4da74804, 264915),
            (0xa90f420787a18ca5, 279159),
        ],
    ),
];
