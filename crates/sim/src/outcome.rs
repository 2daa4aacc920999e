//! Per-injection outcome attribution: maps every runtime prefetch event back
//! to the [`ProvenanceId`] of the planned injection that caused it.
//!
//! The paper's evaluation (Figs. 11–19) reports aggregate fired/suppressed/
//! useful/late counts; a production deployment additionally needs to answer
//! "what did *this* injection buy?". Attaching an [`OutcomeLedger`] to
//! [`RunOptions`](crate::RunOptions) makes the engine bucket each event by
//! the provenance id carried on the executing op (untagged ops land in
//! [`OutcomeLedger::untracked`]).

use ispy_isa::ProvenanceId;

/// Runtime outcome counts for one planned injection.
///
/// `executed == fired + suppressed` always holds per injection; the line
/// counters (`lines_issued`, `useful`, `late`, `evicted_unused`) account for
/// the individual cache lines the op requested when it fired.
///
/// # Examples
///
/// ```
/// use ispy_sim::InjectionOutcome;
///
/// let mut o = InjectionOutcome::default();
/// o.executed += 2;
/// o.fired += 1;
/// o.suppressed += 1;
/// assert_eq!(o.executed, o.fired + o.suppressed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionOutcome {
    /// Times the injected op was executed (its site block was entered).
    pub executed: u64,
    /// Executions whose condition matched (or that were unconditional).
    pub fired: u64,
    /// Executions suppressed by a non-matching context hash.
    pub suppressed: u64,
    /// Prefetch line requests actually sent to the hierarchy.
    pub lines_issued: u64,
    /// Line requests dropped because the line was already resident/in flight.
    pub lines_resident: u64,
    /// Prefetched lines later hit by a demand fetch before eviction.
    pub useful: u64,
    /// Prefetched lines demanded while still in flight (late but stall-shortening).
    pub late: u64,
    /// Prefetched lines evicted untouched (wasted prefetch).
    pub evicted_unused: u64,
}

/// Outcome counts for a whole run, indexed by [`ProvenanceId`].
///
/// Index `k` of [`OutcomeLedger::per_injection`] holds the outcome of the
/// injection with provenance id `k`; events with no id (ops from hand-built
/// maps) accumulate in [`OutcomeLedger::untracked`].
///
/// # Examples
///
/// ```
/// use ispy_isa::ProvenanceId;
/// use ispy_sim::OutcomeLedger;
///
/// let mut ledger = OutcomeLedger::with_capacity(2);
/// ledger.outcome_mut(Some(ProvenanceId(1))).fired += 1;
/// ledger.outcome_mut(None).lines_issued += 1; // an untagged op
/// assert_eq!(ledger.per_injection[1].fired, 1);
/// assert_eq!(ledger.untracked.lines_issued, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutcomeLedger {
    /// Per-injection outcomes, indexed by provenance id.
    pub per_injection: Vec<InjectionOutcome>,
    /// Events not attributable to a planned injection.
    pub untracked: InjectionOutcome,
}

impl OutcomeLedger {
    /// Creates a ledger pre-sized for `n` planned injections.
    pub fn with_capacity(n: usize) -> Self {
        OutcomeLedger {
            per_injection: vec![InjectionOutcome::default(); n],
            untracked: InjectionOutcome::default(),
        }
    }

    /// The outcome bucket for `id`, growing the table if needed; `None`
    /// selects the untracked bucket.
    pub fn outcome_mut(&mut self, id: Option<ProvenanceId>) -> &mut InjectionOutcome {
        match id {
            Some(id) => {
                let i = id.index();
                if i >= self.per_injection.len() {
                    self.per_injection.resize(i + 1, InjectionOutcome::default());
                }
                &mut self.per_injection[i]
            }
            None => &mut self.untracked,
        }
    }

    /// Sums one field across every bucket, untracked included. The closure
    /// picks the field: `ledger.total(|o| o.fired)`.
    pub fn total(&self, field: impl Fn(&InjectionOutcome) -> u64) -> u64 {
        self.per_injection.iter().map(&field).sum::<u64>() + field(&self.untracked)
    }

    /// Folds the per-injection buckets into `groups` aggregate buckets via
    /// `group_of` (provenance index → group index; out-of-range groups are
    /// dropped). The untracked bucket belongs to no group and is excluded.
    /// This is how a multi-tenant run's ledger becomes a per-tenant table:
    /// map each provenance id to the tenant owning its injection site.
    ///
    /// # Examples
    ///
    /// ```
    /// use ispy_sim::OutcomeLedger;
    ///
    /// let mut l = OutcomeLedger::with_capacity(4);
    /// l.per_injection[0].useful = 1;
    /// l.per_injection[3].useful = 5;
    /// let by_parity = l.grouped(2, |i| i % 2);
    /// assert_eq!(by_parity[0].useful, 1);
    /// assert_eq!(by_parity[1].useful, 5);
    /// ```
    pub fn grouped(
        &self,
        groups: usize,
        group_of: impl Fn(usize) -> usize,
    ) -> Vec<InjectionOutcome> {
        let mut out = vec![InjectionOutcome::default(); groups];
        for (i, o) in self.per_injection.iter().enumerate() {
            let g = group_of(i);
            if g < groups {
                out[g].accumulate(o);
            }
        }
        out
    }
}

impl InjectionOutcome {
    /// Adds every counter of `other` into `self`.
    pub fn accumulate(&mut self, other: &InjectionOutcome) {
        *self = InjectionOutcome {
            executed: self.executed + other.executed,
            fired: self.fired + other.fired,
            suppressed: self.suppressed + other.suppressed,
            lines_issued: self.lines_issued + other.lines_issued,
            lines_resident: self.lines_resident + other.lines_resident,
            useful: self.useful + other.useful,
            late: self.late + other.late,
            evicted_unused: self.evicted_unused + other.evicted_unused,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_presizes() {
        let l = OutcomeLedger::with_capacity(3);
        assert_eq!(l.per_injection.len(), 3);
        assert_eq!(l.per_injection[2], InjectionOutcome::default());
    }

    #[test]
    fn outcome_mut_grows_and_routes() {
        let mut l = OutcomeLedger::default();
        l.outcome_mut(Some(ProvenanceId(4))).useful = 7;
        assert_eq!(l.per_injection.len(), 5);
        assert_eq!(l.per_injection[4].useful, 7);
        l.outcome_mut(None).late = 2;
        assert_eq!(l.untracked.late, 2);
    }

    #[test]
    fn total_includes_untracked() {
        let mut l = OutcomeLedger::with_capacity(2);
        l.per_injection[0].fired = 3;
        l.per_injection[1].fired = 4;
        l.untracked.fired = 5;
        assert_eq!(l.total(|o| o.fired), 12);
        assert_eq!(l.total(|o| o.late), 0);
    }
}
