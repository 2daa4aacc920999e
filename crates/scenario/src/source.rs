//! Streaming scenario traces: [`ScenarioSource`] drives one deterministic
//! [`Walker`] per tenant and interleaves their blocks according to the
//! compiled switch schedule, producing the merged-program block sequence one
//! chunk at a time — a production-shaped trace of any length in bounded
//! memory.
//!
//! The determinism contract matches [`WalkerSource`](ispy_trace::WalkerSource):
//! the concatenated block sequence is independent of how pulls are sized,
//! and cloning checkpoints the generator mid-stream — so a streamed scenario
//! replays byte-identically to the same stream drained into a trace.
//!
//! Two properties make the interleaving faithful to a real co-located core:
//!
//! * **Tenants freeze across switches.** Each walker keeps its call stack,
//!   pending requests, and RNG position while descheduled and resumes
//!   exactly where it left off, like a thread being context-switched back
//!   in.
//! * **Phase boundaries swap every tenant's request mix** (rotation +
//!   working-set tempering from the compiled tables) at an exact event
//!   index, regardless of chunk boundaries, so a phase transition looks the
//!   same to every consumer.

use crate::compile::CompiledScenario;
use ispy_artifact::ArtifactError;
use ispy_trace::source::DEFAULT_CHUNK_EVENTS;
use ispy_trace::{BlockId, BlockSource, InputSpec, Walker};

/// Splitmix-style seed derivation so tenants draw from unrelated streams.
fn tenant_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A [`BlockSource`] streaming a compiled scenario's merged-program block
/// events.
///
/// Cloning checkpoints the stream: the clone resumes from the same position
/// with the same per-tenant walker states.
///
/// # Examples
///
/// ```
/// use ispy_scenario::Scenario;
/// use ispy_trace::BlockSource;
///
/// let c = Scenario::preset("steady").unwrap().scaled_down(20).compile(5_000);
/// let mut src = c.source();
/// let mut n = 0u64;
/// while let Some(chunk) = src.next_chunk().unwrap() {
///     n += chunk.len() as u64;
/// }
/// assert_eq!(n, 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSource<'s> {
    sc: &'s CompiledScenario,
    walkers: Vec<Walker<'s>>,
    /// Next trace-event index to produce.
    pos: u64,
    /// Cursor into `schedule().switches()`: first entry not yet applied.
    cur_switch: usize,
    /// Cursor into `schedule().phases()`: first entry not yet applied.
    cur_phase: usize,
    /// Tenant whose walker is currently scheduled.
    cur_tenant: u32,
    chunk: usize,
    buf: Vec<BlockId>,
}

impl<'s> ScenarioSource<'s> {
    /// A source over the whole scenario in default-size chunks.
    pub fn new(sc: &'s CompiledScenario) -> Self {
        Self::with_chunk(sc, DEFAULT_CHUNK_EVENTS)
    }

    /// A source over the whole scenario in pulls of at most `chunk` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(sc: &'s CompiledScenario, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        let walkers = sc
            .tenant_programs()
            .iter()
            .enumerate()
            .map(|(t, p)| {
                // Phase 0's mix applies from event 0; later phases swap it.
                let input = InputSpec::with_weights(
                    tenant_seed(sc.spec().seed, t),
                    sc.phase_weights(0, t).to_vec(),
                );
                Walker::new(p, input)
            })
            .collect();
        ScenarioSource {
            sc,
            walkers,
            pos: 0,
            cur_switch: 0,
            cur_phase: 0,
            cur_tenant: 0,
            chunk,
            buf: Vec::new(),
        }
    }

    /// Events this source will still yield.
    pub fn remaining(&self) -> u64 {
        self.sc.total_events() - self.pos
    }

    /// Produces up to `budget` events into `buf`, honoring every switch and
    /// phase boundary it crosses.
    fn fill(&mut self, budget: usize) {
        self.buf.clear();
        let budget = (budget as u64).min(self.remaining()) as usize;
        let switches = self.sc.schedule().switches();
        let phases = self.sc.schedule().phases();
        while self.buf.len() < budget {
            // Apply every boundary landing exactly at the current position.
            while self.cur_phase < phases.len() && phases[self.cur_phase].0 <= self.pos {
                let p = phases[self.cur_phase].1 as usize;
                for (t, w) in self.walkers.iter_mut().enumerate() {
                    w.set_weights(self.sc.phase_weights(p, t).to_vec());
                }
                self.cur_phase += 1;
            }
            while self.cur_switch < switches.len() && switches[self.cur_switch].0 <= self.pos {
                self.cur_tenant = switches[self.cur_switch].1;
                self.cur_switch += 1;
            }
            // Run the scheduled tenant up to the next boundary (or budget).
            let mut stop = self.sc.total_events();
            if let Some(&(at, _)) = phases.get(self.cur_phase) {
                stop = stop.min(at);
            }
            if let Some(&(at, _)) = switches.get(self.cur_switch) {
                stop = stop.min(at);
            }
            let room = budget - self.buf.len();
            let take = (stop - self.pos).min(room as u64) as usize;
            let off = self.sc.tenant_block_ranges()[self.cur_tenant as usize].0;
            let w = &mut self.walkers[self.cur_tenant as usize];
            self.buf.extend(w.by_ref().take(take).map(|b| BlockId(b.0 + off)));
            self.pos += take as u64;
        }
    }
}

impl BlockSource for ScenarioSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        self.fill(self.chunk);
        Ok(Some(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scenario;

    fn drain<S: BlockSource>(mut s: S) -> Vec<BlockId> {
        let mut out = Vec::new();
        while let Some(chunk) = s.next_chunk().unwrap() {
            assert!(!chunk.is_empty(), "sources must not yield empty chunks");
            out.extend_from_slice(chunk);
        }
        out
    }

    #[test]
    fn chunk_size_never_changes_the_sequence() {
        let c = Scenario::preset("burst").unwrap().scaled_down(20).compile(20_000);
        let reference = drain(c.source());
        assert_eq!(reference.len(), 20_000);
        for chunk in [1, 13, 4_096, 20_000, 1 << 20] {
            assert_eq!(drain(ScenarioSource::with_chunk(&c, chunk)), reference, "chunk {chunk}");
        }
    }

    #[test]
    fn cloned_source_resumes_identically() {
        let c = Scenario::preset("storm").unwrap().scaled_down(20).compile(12_000);
        let mut src = ScenarioSource::with_chunk(&c, 700);
        for _ in 0..5 {
            src.next_chunk().unwrap().unwrap();
        }
        let checkpoint = src.clone();
        assert_eq!(drain(checkpoint), drain(src));
    }

    #[test]
    fn every_event_comes_from_the_scheduled_tenant() {
        let c = Scenario::preset("diurnal").unwrap().scaled_down(20).compile(15_000);
        let blocks = drain(c.source());
        for (e, b) in blocks.iter().enumerate() {
            let want = c.tenant_of_event(e as u64);
            assert_eq!(c.tenant_of_block(*b), want, "event {e} came from the wrong tenant");
        }
    }

    #[test]
    fn phase_mix_swaps_change_the_tail() {
        let mut rotated = Scenario::preset("steady").unwrap().scaled_down(20);
        rotated.phases[1].mix_rotation = 2;
        rotated.phases[1].wss_scale = 2.5;
        let plain = Scenario::preset("steady").unwrap().scaled_down(20);
        let a = drain(rotated.compile(10_000).source());
        let b = drain(plain.compile(10_000).source());
        let half = 5_000; // two even open-ended phases -> boundary at 1/2
        assert_eq!(a[..half], b[..half], "phase 0 must be identical");
        assert_ne!(a[half..], b[half..], "the swapped mix must show up");
    }
}
