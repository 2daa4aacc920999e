//! Pins the full `SimResult` of the nine apps at test scale under a thrash
//! and a flush switch schedule. Each schedule is replayed three ways: `run`
//! twice on one trace (the second replay reuses whatever the first one
//! derived from the trace) and `run_streaming` at 4,096-event chunks. All
//! three must equal the pin, so a change to how replay reuses per-trace
//! state that changes no output leaves every pin standing.

use ispy_sim::{
    run, run_streaming, RunOptions, SimConfig, SimResult, SwitchEffect, SwitchSchedule,
};
use ispy_trace::source::TraceBlocks;
use ispy_trace::{apps, Trace};
use std::sync::Arc;

/// Test scale: a 20x shrink and 50k trace events.
const SHRINK: u32 = 20;
const EVENTS: usize = 50_000;
const CHUNK: usize = 4_096;

/// A switch every 1,250 events, alternating between two tenants.
fn schedule(effect: SwitchEffect) -> Arc<SwitchSchedule> {
    let switches = (1..EVENTS as u64 / 1_250).map(|k| (k * 1_250, (k % 2) as u32)).collect();
    Arc::new(SwitchSchedule::new(switches, vec![], effect))
}

/// The one result all three replays of `trace` under `cfg` agree on.
fn replay(program: &ispy_trace::Program, trace: &Trace, cfg: &SimConfig, what: &str) -> SimResult {
    let first = run(program, trace, cfg, RunOptions::default());
    let second = run(program, trace, cfg, RunOptions::default());
    assert_eq!(second, first, "{what}: second run");
    let mut source = TraceBlocks::with_chunk(trace.blocks(), CHUNK);
    let streamed = run_streaming(program, &mut source, cfg, RunOptions::default()).unwrap();
    assert_eq!(streamed, first, "{what}: streamed at chunk {CHUNK}");
    first
}

#[test]
fn switch_schedules_of_all_nine_apps_are_pinned() {
    let thrash = SimConfig {
        schedule: Some(schedule(SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 25 })),
        ..SimConfig::default()
    };
    let flush = SimConfig { schedule: Some(schedule(SwitchEffect::Flush)), ..SimConfig::default() };
    let mut got: Vec<String> = Vec::new();
    for model in apps::all() {
        let model = model.scaled_down(SHRINK);
        let name = model.name().to_string();
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), EVENTS);
        let t = replay(&program, &trace, &thrash, &format!("{name}/thrash"));
        let f = replay(&program, &trace, &flush, &format!("{name}/flush"));
        got.push(format!("{name}/thrash {t:?}"));
        got.push(format!("{name}/flush {f:?}"));
    }
    let listing: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
    assert!(got == PINS, "schedule replays changed; they now pin as:\n{listing}");
}

/// Per app: the thrash result, then the flush result.
const PINS: [&str; 18] = [
    "cassandra/thrash SimResult { cycles: 2416696, instrs: 586416, base_instrs: 586416, blocks: 50000, i_accesses: 86643, i_misses: 12231, i_stall_cycles: 505223, d_accesses: 79420, d_misses: 43615, d_stall_cycles: 1745824, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "cassandra/flush SimResult { cycles: 2846263, instrs: 586416, base_instrs: 586416, blocks: 50000, i_accesses: 86643, i_misses: 17050, i_stall_cycles: 833570, d_accesses: 79420, d_misses: 43615, d_stall_cycles: 1847044, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "drupal/thrash SimResult { cycles: 2308997, instrs: 770770, base_instrs: 770770, blocks: 50000, i_accesses: 98062, i_misses: 19447, i_stall_cycles: 1025415, d_accesses: 47314, d_misses: 23746, d_stall_cycles: 1071669, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "drupal/flush SimResult { cycles: 2746941, instrs: 770770, base_instrs: 770770, blocks: 50000, i_accesses: 98062, i_misses: 23455, i_stall_cycles: 1418895, d_accesses: 47314, d_misses: 23746, d_stall_cycles: 1116133, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "finagle-chirper/thrash SimResult { cycles: 909035, instrs: 536370, base_instrs: 536370, blocks: 50000, i_accesses: 85682, i_misses: 3203, i_stall_cycles: 146843, d_accesses: 38701, d_misses: 9294, d_stall_cycles: 604181, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "finagle-chirper/flush SimResult { cycles: 1061228, instrs: 536370, base_instrs: 536370, blocks: 50000, i_accesses: 85682, i_misses: 5693, i_stall_cycles: 290909, d_accesses: 38701, d_misses: 9294, d_stall_cycles: 612308, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "finagle-http/thrash SimResult { cycles: 1087639, instrs: 534927, base_instrs: 534927, blocks: 50000, i_accesses: 82533, i_misses: 5178, i_stall_cycles: 158626, d_accesses: 41536, d_misses: 13111, d_stall_cycles: 776344, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "finagle-http/flush SimResult { cycles: 1379330, instrs: 534927, base_instrs: 534927, blocks: 50000, i_accesses: 82533, i_misses: 10173, i_stall_cycles: 432229, d_accesses: 41536, d_misses: 13111, d_stall_cycles: 794432, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "kafka/thrash SimResult { cycles: 2657677, instrs: 572881, base_instrs: 572881, blocks: 50000, i_accesses: 85074, i_misses: 11608, i_stall_cycles: 455712, d_accesses: 100461, d_misses: 51575, d_stall_cycles: 2040143, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "kafka/flush SimResult { cycles: 3072164, instrs: 572881, base_instrs: 572881, blocks: 50000, i_accesses: 85074, i_misses: 15690, i_stall_cycles: 754818, d_accesses: 100461, d_misses: 51575, d_stall_cycles: 2155524, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "mediawiki/thrash SimResult { cycles: 2622051, instrs: 775615, base_instrs: 775615, blocks: 50000, i_accesses: 98321, i_misses: 28381, i_stall_cycles: 1267085, d_accesses: 54590, d_misses: 30557, d_stall_cycles: 1141913, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "mediawiki/flush SimResult { cycles: 3172179, instrs: 775615, base_instrs: 775615, blocks: 50000, i_accesses: 98321, i_misses: 31537, i_stall_cycles: 1748417, d_accesses: 54590, d_misses: 30557, d_stall_cycles: 1210709, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "tomcat/thrash SimResult { cycles: 1751417, instrs: 625368, base_instrs: 625368, blocks: 50000, i_accesses: 89571, i_misses: 12309, i_stall_cycles: 449845, d_accesses: 59076, d_misses: 27718, d_stall_cycles: 1127679, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "tomcat/flush SimResult { cycles: 2184233, instrs: 625368, base_instrs: 625368, blocks: 50000, i_accesses: 89571, i_misses: 17318, i_stall_cycles: 815230, d_accesses: 59076, d_misses: 27718, d_stall_cycles: 1195110, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "verilator/thrash SimResult { cycles: 3907588, instrs: 1175242, base_instrs: 1175242, blocks: 50000, i_accesses: 123495, i_misses: 34142, i_stall_cycles: 1062254, d_accesses: 116672, d_misses: 82379, d_stall_cycles: 2532501, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "verilator/flush SimResult { cycles: 4772069, instrs: 1175242, base_instrs: 1175242, blocks: 50000, i_accesses: 123495, i_misses: 39335, i_stall_cycles: 1724015, d_accesses: 116672, d_misses: 82379, d_stall_cycles: 2735221, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "wordpress/thrash SimResult { cycles: 2540545, instrs: 780705, base_instrs: 780705, blocks: 50000, i_accesses: 98815, i_misses: 21403, i_stall_cycles: 1085563, d_accesses: 48014, d_misses: 27317, d_stall_cycles: 1243092, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
    "wordpress/flush SimResult { cycles: 3015825, instrs: 780705, base_instrs: 780705, blocks: 50000, i_accesses: 98815, i_misses: 25192, i_stall_cycles: 1509568, d_accesses: 48014, d_misses: 27317, d_stall_cycles: 1294367, pf_ops_executed: 0, pf_ops_fired: 0, pf_ops_suppressed: 0, pf_lines_issued: 0, pf_lines_resident: 0, pf_useful: 0, pf_late: 0, pf_evicted_unused: 0 }",
];
