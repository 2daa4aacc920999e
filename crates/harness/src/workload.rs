//! Deterministic engine workloads shared by the engine tests: the golden
//! pins, the ledger suite, the parallel-determinism suite and the streaming
//! equivalence tests.
//!
//! They all need the same thing: a reproducible injection plan that
//! exercises every engine path (plain, conditional, coalesced, and
//! conditional-coalesced ops; firings, suppressions, useful/late/evicted
//! lines) without depending on the planner, so the numbers pin the *engine*
//! alone. The plan is derived from a miss-recording profiling replay, the
//! same construction the engine's own unit tests use.

use ispy_isa::{CoalesceMask, InjectionMap, PrefetchOp, ProvenanceId};
use ispy_sim::{run, RunOptions, SimConfig, SimObserver};
use ispy_trace::{BlockId, Line, Program, Trace};
use std::collections::HashSet;

/// Records `(trace index, missing line)` events during a profiling replay.
struct MissRecorder {
    events: Vec<(usize, Line)>,
}

impl SimObserver for MissRecorder {
    fn icache_miss(&mut self, idx: usize, _b: BlockId, line: Line, _c: u64) {
        self.events.push((idx, line));
    }
}

/// Builds a deterministic miss-derived injection plan for `trace`.
///
/// Every observed miss is planned 8 dynamic blocks ahead of its use, cycling
/// through the four prefetch-op kinds so conditional checks (both firing and
/// suppressed), coalesced decodes, and provenance attribution all run.
/// Conditions hash the *missing* block's address: in loops that block is
/// often still in the LBR from a previous iteration, so conditional ops see
/// a realistic mix of firings and suppressions.
pub fn miss_derived_plan(program: &Program, trace: &Trace, cfg: &SimConfig) -> InjectionMap {
    let mut rec = MissRecorder { events: Vec::new() };
    run(program, trace, cfg, RunOptions { observer: Some(&mut rec), ..Default::default() });

    let mut map = InjectionMap::new();
    let mut seen = HashSet::new();
    let mut next_id = 0u32;
    for (n, &(idx, line)) in rec.events.iter().enumerate() {
        if idx < 8 {
            continue;
        }
        let site = trace.blocks()[idx - 8];
        if !seen.insert((site, line)) {
            continue;
        }
        let miss_block = trace.blocks()[idx];
        let ctx = cfg.hash.context_hash([program.block(miss_block).start()]);
        let op = match n % 4 {
            0 => PrefetchOp::Plain { target: line },
            1 => PrefetchOp::Cond { target: line, ctx },
            2 => PrefetchOp::Coalesced { base: line, mask: CoalesceMask::from_bits(0b101, 8) },
            _ => PrefetchOp::CondCoalesced {
                base: line,
                mask: CoalesceMask::from_bits(0b11, 8),
                ctx,
            },
        };
        map.push_traced(site, op, ProvenanceId(next_id));
        next_id += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::apps;

    #[test]
    fn plan_is_deterministic_and_mixed() {
        let model = apps::cassandra().scaled_down(20);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let cfg = SimConfig::default();
        let a = miss_derived_plan(&program, &trace, &cfg);
        let b = miss_derived_plan(&program, &trace, &cfg);
        assert_eq!(a, b);
        assert!(a.num_ops() > 0);
        let hist = a.op_histogram();
        assert!(hist.len() >= 3, "plan should mix op kinds: {hist:?}");
    }

    #[test]
    fn plan_exercises_fire_and_suppress_paths() {
        let model = apps::cassandra().scaled_down(20);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let cfg = SimConfig::default();
        let plan = miss_derived_plan(&program, &trace, &cfg);
        let r = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&plan), ..Default::default() },
        );
        assert!(r.pf_ops_fired > 0);
        assert!(r.pf_ops_suppressed > 0, "conditions must sometimes suppress");
        assert!(r.pf_useful > 0);
    }
}
