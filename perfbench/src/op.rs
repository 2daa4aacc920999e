//! What one timed op produces, the output checks every op runs, and the
//! `Workload` interface the four workloads implement.

use crate::spans::Spans;
use ispy_sim::{OutcomeLedger, SimResult};

/// One replay arm run inside a timed op.
#[derive(Debug, Clone)]
pub struct Arm {
    /// `baseline`, `ideal`, `asmdb`, `ispy` or `adaptive`.
    pub name: &'static str,
    /// The arm's simulated counters.
    pub result: SimResult,
    /// Host nanoseconds the replay call took.
    pub ns: u64,
}

/// Everything one op reports.
#[derive(Debug, Clone, Default)]
pub struct OpOutput {
    /// The replay arms this op ran.
    pub arms: Vec<Arm>,
    /// No-prefetch counters for the op's input (run in the op or in set-up).
    pub base: SimResult,
    /// Ideal-I-cache counters for the op's input.
    pub ideal: SimResult,
    /// Counters under I-SPY (for `adapt`, the adaptive run).
    pub ispy: SimResult,
    /// Per-request front-end stall under I-SPY against the ideal arm.
    pub stalls: Vec<u64>,
    /// Host milliseconds from a window's end to its new plan (`adapt`).
    pub replan_ms: Vec<f64>,
    /// Converged-window MPKI gap against the offline oracle, in percent.
    pub gap_pct: Option<f64>,
    /// Plan hot-swaps applied.
    pub swaps: u64,
    /// Digest of a plan the op produced, compared by the run's final checks.
    pub plan_digest: Option<u64>,
}

impl OpOutput {
    /// Whether two outputs of the same op agree on every simulated value
    /// (host times excluded).
    pub fn same_sim(&self, other: &OpOutput) -> bool {
        self.arms.len() == other.arms.len()
            && self
                .arms
                .iter()
                .zip(&other.arms)
                .all(|(a, b)| a.name == b.name && a.result == b.result)
            && self.base == other.base
            && self.ideal == other.ideal
            && self.ispy == other.ispy
            && self.stalls == other.stalls
            && self.gap_pct.map(f64::to_bits) == other.gap_pct.map(f64::to_bits)
            && self.swaps == other.swaps
            && self.plan_digest == other.plan_digest
    }
}

/// A benchmark workload: a set-up that builds its inputs from the seed, and
/// a fixed round of ops the timed phase cycles through.
pub trait Workload: Sized {
    /// Builds the workload's inputs.
    fn setup(seed: u64, spans: &Spans) -> Self;
    /// Ops in one round; op `i` of every round does the same work.
    fn round_len(&self) -> usize;
    /// Called before every round after the first, untimed: restores any
    /// state an earlier round's ops warmed, so every round does equal work.
    fn reset(&mut self, _spans: &Spans) {}
    /// Runs op `i`, checks its outputs and returns them.
    fn run_op(&mut self, i: usize, spans: &Spans) -> Result<OpOutput, String>;
    /// Once per run, untimed: checks the first round's outputs against the
    /// harness code path this workload stands in for.
    fn final_checks(&self, _first_round: &[OpOutput]) -> Result<(), String> {
        Ok(())
    }
}

/// Runs one replay arm inside its `sim.<arm>` span and counts its blocks.
pub fn replay(spans: &Spans, arm: &'static str, f: impl FnOnce() -> SimResult) -> Arm {
    let (span, blocks) = match arm {
        "baseline" => ("sim.baseline", "sim.baseline.blocks"),
        "ideal" => ("sim.ideal", "sim.ideal.blocks"),
        "asmdb" => ("sim.asmdb", "sim.asmdb.blocks"),
        "ispy" => ("sim.ispy", "sim.ispy.blocks"),
        "adaptive" => ("sim.adaptive", "sim.adaptive.blocks"),
        other => panic!("unknown replay arm {other}"),
    };
    let (result, ns) = spans.timed(span, f);
    spans.count(blocks, result.blocks);
    Arm { name: arm, result, ns }
}

/// Fails unless `r` replayed exactly `blocks` blocks.
pub fn check_blocks(arm: &str, r: &SimResult, blocks: u64) -> Result<(), String> {
    if r.blocks == blocks {
        Ok(())
    } else {
        Err(format!("{arm} arm replayed {} blocks, expected {blocks}", r.blocks))
    }
}

/// Fails unless the ideal arm recorded no L1I miss.
pub fn check_ideal(r: &SimResult) -> Result<(), String> {
    if r.i_misses == 0 {
        Ok(())
    } else {
        Err(format!("ideal arm recorded {} L1I misses", r.i_misses))
    }
}

/// Fails unless the ledger totals equal the run's eight `pf_*` counters
/// and every executed op either fired or was suppressed.
pub fn check_ledger(r: &SimResult, ledger: &OutcomeLedger) -> Result<(), String> {
    let pairs = [
        ("executed", ledger.total(|o| o.executed), r.pf_ops_executed),
        ("fired", ledger.total(|o| o.fired), r.pf_ops_fired),
        ("suppressed", ledger.total(|o| o.suppressed), r.pf_ops_suppressed),
        ("lines_issued", ledger.total(|o| o.lines_issued), r.pf_lines_issued),
        ("lines_resident", ledger.total(|o| o.lines_resident), r.pf_lines_resident),
        ("useful", ledger.total(|o| o.useful), r.pf_useful),
        ("late", ledger.total(|o| o.late), r.pf_late),
        ("evicted_unused", ledger.total(|o| o.evicted_unused), r.pf_evicted_unused),
    ];
    for (name, ledger_total, counter) in pairs {
        if ledger_total != counter {
            return Err(format!("ledger {name} total {ledger_total} != pf counter {counter}"));
        }
    }
    if r.pf_ops_executed != r.pf_ops_fired + r.pf_ops_suppressed {
        return Err(format!(
            "executed {} != fired {} + suppressed {}",
            r.pf_ops_executed, r.pf_ops_fired, r.pf_ops_suppressed
        ));
    }
    Ok(())
}

/// Fails unless two results of the same replay agree.
pub fn check_equal(what: &str, got: &SimResult, want: &SimResult) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: benchmark {got:?} != harness {want:?}"))
    }
}

/// SplitMix64: the benchmark's own seeded generator, so the inputs depend
/// only on `--seed` and not on any generator inside the program.
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload and seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over `bytes`: a digest for comparing plans by their encoding.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}
