//! Enum dispatch for the temporal prefetchers.
//!
//! The paper evaluates a closed set of temporal prefetchers: none (the
//! stride-only baseline), the Triage variants and the Triangel variants.
//! [`PrefetcherImpl`] holds one of them as a concrete value, so the
//! simulator dispatches with a branch-predictable match and passes the
//! cache view as a concrete type: no virtual call per access, and the
//! hottest loop in the workspace (the Triage/Triangel Markov
//! train/lookup walk) inlines.

use triangel_core::Triangel;
use triangel_prefetch::{CacheView, EvictNotice, PrefetchRequest, PrefetcherStats, TrainEvent};
use triangel_triage::Triage;

/// A temporal prefetcher as a concrete value, built by
/// [`PrefetcherChoice::build_impl`](crate::PrefetcherChoice::build_impl).
#[derive(Debug)]
pub enum PrefetcherImpl {
    /// No temporal prefetcher (the stride-only baseline).
    Null,
    /// The Triage family (boxed: the Markov table dominates its size).
    Triage(Box<Triage>),
    /// The Triangel family.
    Triangel(Box<Triangel>),
}

impl PrefetcherImpl {
    /// Delivers one training event; monomorphizes over the cache view.
    #[inline]
    pub fn on_event<V: CacheView>(
        &mut self,
        ev: &TrainEvent,
        caches: &V,
        out: &mut Vec<PrefetchRequest>,
    ) {
        match self {
            PrefetcherImpl::Null => {}
            PrefetcherImpl::Triage(p) => p.handle(ev, caches, out),
            PrefetcherImpl::Triangel(p) => p.handle(ev, caches, out),
        }
    }

    /// Delivers an L2 eviction notice: the memory system calls this on
    /// every conflict eviction.
    ///
    /// Triage and Triangel count per-source death diagnostics here
    /// unconditionally. Only behind their explicit eviction-training
    /// gates (`TriangelFeatures::train_on_eviction`,
    /// `TriageConfig::train_on_eviction`, both off in every shipped
    /// configuration) do they feed the dying line's metadata word back
    /// into the training and Markov paths. With the gates off, a notice
    /// changes no reported statistic.
    pub fn on_l2_evict(&mut self, notice: &EvictNotice) {
        match self {
            PrefetcherImpl::Null => {}
            PrefetcherImpl::Triage(p) => p.on_l2_evict(notice),
            PrefetcherImpl::Triangel(p) => p.on_l2_evict(notice),
        }
    }

    /// Display name for reports.
    pub fn name(&self) -> &str {
        match self {
            PrefetcherImpl::Null => "none",
            PrefetcherImpl::Triage(p) => p.name(),
            PrefetcherImpl::Triangel(p) => p.name(),
        }
    }

    /// L3 ways currently wanted for Markov metadata.
    pub fn desired_markov_ways(&self) -> usize {
        match self {
            PrefetcherImpl::Null => 0,
            PrefetcherImpl::Triage(p) => p.desired_markov_ways(),
            PrefetcherImpl::Triangel(p) => p.desired_markov_ways(),
        }
    }

    /// Evaluation counters.
    pub fn stats(&self) -> PrefetcherStats {
        match self {
            PrefetcherImpl::Null => PrefetcherStats::default(),
            PrefetcherImpl::Triage(p) => p.stats(),
            PrefetcherImpl::Triangel(p) => p.stats(),
        }
    }

    /// Exports the prefetcher's named internal counters into `out`
    /// (see [`triangel_obs::Probe`]).
    pub fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        match self {
            PrefetcherImpl::Null => {}
            PrefetcherImpl::Triage(p) => p.probe(out),
            PrefetcherImpl::Triangel(p) => p.probe(out),
        }
    }

    /// Current Markov table `(occupancy, capacity)` in entries; `(0, 0)`
    /// for prefetchers without a Markov table.
    pub fn markov_occupancy(&self) -> (u64, u64) {
        match self {
            PrefetcherImpl::Triage(p) => (
                p.markov().occupancy() as u64,
                p.markov().capacity_entries() as u64,
            ),
            PrefetcherImpl::Triangel(p) => (
                p.markov().occupancy() as u64,
                p.markov().capacity_entries() as u64,
            ),
            PrefetcherImpl::Null => (0, 0),
        }
    }

    /// Set-Dueller per-partitioning counters; `None` for prefetchers
    /// without a Set Dueller (everything but Triangel).
    pub fn dueller_counters(&self) -> Option<[u64; 9]> {
        match self {
            PrefetcherImpl::Triangel(p) => Some(*p.dueller_counters()),
            _ => None,
        }
    }
}

impl triangel_types::snap::Snapshot for PrefetcherImpl {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        match self {
            PrefetcherImpl::Null => {
                w.u8(0);
                Ok(())
            }
            PrefetcherImpl::Triage(p) => {
                w.u8(1);
                p.save(w)
            }
            PrefetcherImpl::Triangel(p) => {
                w.u8(2);
                p.save(w)
            }
        }
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, PrefetcherImpl::Null) => Ok(()),
            (1, PrefetcherImpl::Triage(p)) => p.restore(r),
            (2, PrefetcherImpl::Triangel(p)) => p.restore(r),
            _ => Err(triangel_types::snap::SnapError::corrupt(
                "prefetcher variant mismatch",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_prefetch::{NullCacheView, TrainKind};
    use triangel_types::{LineAddr, Pc};

    fn ev(line: u64) -> TrainEvent {
        TrainEvent {
            pc: Pc::new(0x40),
            line: LineAddr::new(line),
            kind: TrainKind::L2Miss,
            cycle: 0,
            l2_fills: 0,
        }
    }

    #[test]
    fn null_arm_is_silent() {
        let mut p = PrefetcherImpl::Null;
        let mut out = Vec::new();
        p.on_event(&ev(1), &NullCacheView, &mut out);
        assert!(out.is_empty());
        assert_eq!(p.name(), "none");
        assert_eq!(p.desired_markov_ways(), 0);
        assert_eq!(p.stats(), PrefetcherStats::default());
        let mut probes = triangel_obs::ProbeSet::new();
        p.probe(&mut probes);
        assert!(probes.is_empty());
        assert_eq!(p.markov_occupancy(), (0, 0));
        assert_eq!(p.dueller_counters(), None);
    }
}
