//! Pins every baseline plan at test scale: the artifact bytes of the nine
//! apps' AsmDB plans (the default fan-out threshold and 0.5) and their
//! Contiguous-8 and Non-contiguous-8 plans. A change to the baseline
//! planners, or to the window search they share with I-SPY, that changes
//! no output leaves every pin standing.

use ispy_baselines::asmdb::{AsmDbConfig, AsmDbPlanner};
use ispy_baselines::spatial::{SpatialMode, SpatialPlanner};
use ispy_core::artifact::plan_to_bytes;
use ispy_core::Plan;
use ispy_isa::hash::fnv1_64;
use ispy_profile::{profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::apps;

/// `(FNV-1 digest, byte length)` of one encoded plan.
type BytePin = (u64, usize);

#[test]
fn test_scale_baseline_plans_of_all_nine_apps_are_pinned() {
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
        let asmdb = |cfg: AsmDbConfig| pin(&AsmDbPlanner::new(&program, &prof, cfg).plan());
        let spatial = |mode| pin(&SpatialPlanner::new(&program, &prof, mode).plan());
        got.push((
            name.clone(),
            [
                asmdb(AsmDbConfig::default()),
                asmdb(AsmDbConfig::default().with_fanout_threshold(0.5)),
                spatial(SpatialMode::Contiguous),
                spatial(SpatialMode::NonContiguous),
            ],
        ));
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

/// Per app: AsmDB at the default threshold and at 0.5, then Contiguous-8
/// and Non-contiguous-8.
const PINS: [(&str, [BytePin; 4]); 9] = [
    (
        "cassandra",
        [
            (0xcbdb8195f9b75d22, 7049),
            (0x52c17fdc430cd06b, 4416),
            (0x033909356164f90e, 2345),
            (0x97617a5ae07a8496, 2319),
        ],
    ),
    (
        "drupal",
        [
            (0xcc748639b3a25173, 14532),
            (0x88a1e48b64f1e7ca, 8917),
            (0xe286e071b914f5fd, 4556),
            (0xb0e6253494a89319, 4488),
        ],
    ),
    (
        "finagle-chirper",
        [
            (0x984db853645be258, 509),
            (0xdd0281d9a573d238, 359),
            (0xc544fd18dd377048, 317),
            (0x55300d402b54dc5b, 309),
        ],
    ),
    (
        "finagle-http",
        [
            (0xc33c2eb2f8af496f, 542),
            (0x1491ba2c58cd6aad, 319),
            (0x16964a0823565746, 439),
            (0xab03a4578a3f96fc, 423),
        ],
    ),
    (
        "kafka",
        [
            (0xc8d78b21ee1372b1, 6123),
            (0x90fc3a5dcb3f4ad5, 3903),
            (0x90cd5f08b871fc66, 2249),
            (0x4d3e84133e544539, 2208),
        ],
    ),
    (
        "mediawiki",
        [
            (0xdfedb88e242377f2, 17829),
            (0x47c6b6529e2a9221, 9617),
            (0xc251f184381ef947, 5944),
            (0x0ce63ad11d5d86bb, 5865),
        ],
    ),
    (
        "tomcat",
        [
            (0xd4277d0156000461, 6456),
            (0xd1f80382a7ec51a1, 3243),
            (0xf5cb79eddc677829, 2364),
            (0x86b339754b7a0ace, 2313),
        ],
    ),
    (
        "verilator",
        [
            (0x8489efe9b6360959, 13323),
            (0xaa9914fc124be728, 11342),
            (0xebd1872f6f56a607, 4016),
            (0x122931129b6c1922, 4010),
        ],
    ),
    (
        "wordpress",
        [
            (0x914d7b31054a1510, 14120),
            (0x625ed9c6bc403ad6, 8380),
            (0x6f5783c5519668d1, 4785),
            (0x50959912a7b634da, 4702),
        ],
    ),
];
