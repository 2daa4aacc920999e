//! Host-speed probe.
//!
//! On a shared machine the host's speed drifts by tens of percent over
//! minutes, in phases longer than one run, so the run-to-run spread of raw
//! host times hides any change smaller than that. The probe is a fixed loop
//! that belongs to the benchmark, not to the program, so no change to the
//! program can move it. It mixes what the simulator does per block:
//! dependent loads and stores in a table larger than the L2, hashing and
//! data-dependent branches. The end-to-end host-time metrics are scaled by
//! how much longer or shorter the probe ran than [`REFERENCE_NS`], measured
//! right before and after the work they time.

use std::hint::black_box;
use std::time::Instant;

/// The probe's wall time on the reference host: one core of a 2-vCPU
/// x86-64 VM at 2.0 GHz, in a quiet period.
pub const REFERENCE_NS: f64 = 40e6;

/// Table size: 8 MiB of `u64`.
const TABLE: usize = 1 << 20;
/// Loop trips per probe.
const TRIPS: usize = 1 << 18;

/// The probe's table, allocated once so probing adds a constant to the
/// resident set instead of a spike.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe { table: (0..TABLE as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect() }
    }

    /// Runs the loop once and returns its wall time in nanoseconds.
    pub fn run_ns(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..TRIPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 32) ^ acc) as usize & (TABLE - 1);
            let v = self.table[i];
            acc = if v & 1 == 0 { acc.wrapping_add(v ^ x) } else { acc.rotate_left(7) ^ v };
            self.table[i] = v.wrapping_add(acc | 1);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as u64
    }

    /// How much slower than the reference host the host ran while `f` ran:
    /// the mean of one probe before and one after, over [`REFERENCE_NS`].
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.run_ns();
        let out = f();
        let after = self.run_ns();
        (out, (before + after) as f64 / 2.0 / REFERENCE_NS)
    }
}
