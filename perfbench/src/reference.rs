//! Reference values of every simulated metric on [`SEED`], per workload.
//!
//! The simulator is deterministic, so these must repeat bit for bit on any
//! host. A run on [`SEED`] fails when one differs; it then prints the values
//! it measured in this file's syntax.

/// The seed whose simulated outputs are pinned.
pub const SEED: u64 = 1;

/// `(metric, value)` pairs pinned for `workload`.
pub fn values(workload: &str) -> &'static [(&'static str, f64)] {
    match workload {
        "pipeline" => &[
            ("ispy_speedup", 1.3391542171626631),
            ("ispy_pct_ideal", 76.78562897260767),
            ("ispy_mpki", 4.8310556116835),
            ("sim.ispy.i_misses", 74046.0),
            ("sim.ispy.pf_ops_executed", 1075797.0),
            ("sim.ispy.pf_ops_suppressed", 44921.0),
            ("sim.ispy.pf_lines_issued", 589825.0),
            ("sim.ispy.pf_useful", 482697.0),
            ("sim.ispy.pf_late", 20265.0),
            ("sim.ispy.pf_evicted_unused", 103478.0),
            ("sim.ispy.pf_accuracy", 0.8183732463018693),
        ],
        "sweep" => &[
            ("ispy_speedup", 1.4444003413913375),
            ("ispy_pct_ideal", 75.21819743634492),
            ("ispy_mpki", 6.689054473666236),
            ("sim.ispy.i_misses", 238758.0),
            ("sim.ispy.pf_ops_executed", 2656780.0),
            ("sim.ispy.pf_ops_suppressed", 74796.0),
            ("sim.ispy.pf_lines_issued", 1230419.0),
            ("sim.ispy.pf_useful", 995253.0),
            ("sim.ispy.pf_late", 62939.0),
            ("sim.ispy.pf_evicted_unused", 223468.0),
            ("sim.ispy.pf_accuracy", 0.8088732374906434),
        ],
        "scenario" => &[
            ("ispy_speedup", 1.3546226346172512),
            ("ispy_pct_ideal", 55.088083810412186),
            ("ispy_mpki", 12.49876442428937),
            ("sim.ispy.i_misses", 66511.0),
            ("sim.ispy.pf_ops_executed", 363174.0),
            ("sim.ispy.pf_ops_suppressed", 14592.0),
            ("sim.ispy.pf_lines_issued", 194204.0),
            ("sim.ispy.pf_useful", 158741.0),
            ("sim.ispy.pf_late", 18894.0),
            ("sim.ispy.pf_evicted_unused", 33396.0),
            ("sim.ispy.pf_accuracy", 0.8173930506065786),
            ("sim.ispy.p99_stall_cycles", 94077.0),
        ],
        "adapt" => &[
            ("ispy_speedup", 1.0629332969788072),
            ("ispy_pct_ideal", 21.27367887066117),
            ("ispy_mpki", 9.381193668222453),
            ("sim.ispy.i_misses", 37743.0),
            ("sim.ispy.pf_ops_executed", 197270.0),
            ("sim.ispy.pf_ops_suppressed", 6228.0),
            ("sim.ispy.pf_lines_issued", 109721.0),
            ("sim.ispy.pf_useful", 86711.0),
            ("sim.ispy.pf_late", 3304.0),
            ("sim.ispy.pf_evicted_unused", 22292.0),
            ("sim.ispy.pf_accuracy", 0.7902862715432779),
            ("harness.adapt.gap_pct", -0.14226501760194812),
            ("sim.swaps", 15.0),
        ],
        _ => &[],
    }
}
