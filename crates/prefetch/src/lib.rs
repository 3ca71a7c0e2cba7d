//! The prefetchers' shared event vocabulary and the baseline prefetcher.
//!
//! * [`TrainEvent`], [`PrefetchRequest`], [`CacheView`] and
//!   [`EvictNotice`] — the event vocabulary every prefetcher in the
//!   workspace (stride, Triage, Triangel) trains on. Each prefetcher's
//!   `handle` takes an event and a cache view and appends requests; the
//!   simulator dispatches over the closed set of prefetchers with an
//!   enum.
//! * [`StridePrefetcher`] — the degree-8 L1D stride prefetcher that is
//!   part of the paper's *baseline* (Table 2): all speedups in the
//!   evaluation are relative to a system that already has it.
//! * [`BloomFilter`] — used by Triage-ISR's Markov-partition sizing
//!   (Section 3.5) and the Triangel-Bloom variant (Section 4.7).
//!
//! # Examples
//!
//! ```
//! use triangel_prefetch::{NullCacheView, StridePrefetcher, TrainEvent, TrainKind};
//! use triangel_types::{Cycle, LineAddr, Pc};
//!
//! let mut pf = StridePrefetcher::new(64, 8);
//! let mut out = Vec::new();
//! for i in 0..4u64 {
//!     let ev = TrainEvent {
//!         pc: Pc::new(0x40),
//!         line: LineAddr::new(100 + 2 * i),
//!         kind: TrainKind::L1Access,
//!         cycle: i as Cycle,
//!         l2_fills: 0,
//!     };
//!     out.clear();
//!     pf.handle(&ev, &NullCacheView, &mut out);
//! }
//! assert!(!out.is_empty()); // stride +2 locked on
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bloom;
mod issued;
mod stride;

pub use bloom::BloomFilter;
pub use issued::IssueTable;
pub use stride::StridePrefetcher;

use triangel_types::{Cycle, LineAddr, LineMeta, Pc};

/// What kind of event is training the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// A demand access at the L1D (stride prefetchers train on all
    /// accesses).
    L1Access,
    /// A demand miss at the L2 (temporal prefetchers train on these).
    L2Miss,
    /// A *tagged prefetch hit* at the L2: first demand use of a
    /// prefetched line, which would have missed without prefetching
    /// (Section 2 of the paper).
    L2PrefetchHit,
}

/// One training event delivered to a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainEvent {
    /// PC of the triggering load.
    pub pc: Pc,
    /// Physical line accessed.
    pub line: LineAddr,
    /// Event kind.
    pub kind: TrainKind,
    /// Current core cycle.
    pub cycle: Cycle,
    /// Running count of L2 fills, used by Triangel's Second-Chance
    /// Sampler as its "within 512 fills" proximity clock (Section 4.4.2).
    pub l2_fills: u64,
}

/// A prefetch the prefetcher wants issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Line to fetch (into the L2 for the temporal prefetchers).
    pub line: LineAddr,
    /// Training PC associated with the request (used for replacement
    /// metadata and accuracy attribution).
    pub pc: Pc,
    /// Cycles after the triggering event before this request can issue:
    /// chained Markov-table walks pay the 25-cycle metadata latency per
    /// hop unless the Metadata Reuse Buffer short-circuits them.
    pub issue_delay: Cycle,
}

/// Read-only cache visibility given to prefetchers.
///
/// Triangel consults residency in two places: sampler verdicts skip
/// targets already cached ("would not generate a prefetch, inaccurate or
/// otherwise", Section 4.4.2), and redundant prefetches are dropped.
pub trait CacheView {
    /// Whether the line is resident in the L2.
    fn in_l2(&self, line: LineAddr) -> bool;
    /// Whether the line is resident in the L3 (data side).
    fn in_l3(&self, line: LineAddr) -> bool;
    /// The resident L2 line's metadata word — who filled it, when the
    /// fill completes, whether a demand has used it — or `None` when
    /// the line is absent (or the view cannot say, the default).
    fn l2_meta(&self, _line: LineAddr) -> Option<LineMeta> {
        None
    }
}

/// A [`CacheView`] that reports nothing resident; useful in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCacheView;

impl CacheView for NullCacheView {
    fn in_l2(&self, _line: LineAddr) -> bool {
        false
    }
    fn in_l3(&self, _line: LineAddr) -> bool {
        false
    }
}

/// Delivered to a core's temporal prefetcher when an L2 line dies (by
/// conflict eviction), carrying the line's final metadata word — the
/// exact moment and place used/wasted prefetch attribution happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictNotice {
    /// The line leaving the L2.
    pub line: LineAddr,
    /// Its final metadata word (source, fill time, demand-used bit,
    /// fill ordinal).
    pub meta: LineMeta,
    /// Set when the line was prefetched and never demand-used — a
    /// wasted prefetch from the tag bit's point of view.
    pub was_unused_prefetch: bool,
    /// Cycle at which the eviction takes effect: the incoming fill's
    /// data-arrival time (the victim holds its frame until the
    /// replacement actually lands). Compare against `meta.ready_at` to
    /// spot *premature* deaths — lines evicted before their own fill
    /// even completed, which say nothing about prediction accuracy.
    /// Cycles are not monotonic across evictions (prefetch delays
    /// interleave); use `evict_seq` for ordering.
    pub evict_cycle: Cycle,
    /// The L2 fill clock at eviction (the evicting fill's ordinal).
    /// Strictly greater than `meta.fill_seq`: the fill that installed
    /// the dying line always precedes the fill that kills it.
    pub evict_seq: u64,
    /// PC recorded at fill time, if any.
    pub fill_pc: Option<Pc>,
}

impl EvictNotice {
    /// Classifies the death of a *temporal-prefetched* line: `None` if
    /// the line was not a temporal fill, otherwise `Some(wasted)` where
    /// `wasted` means it died without ever being demand-used. The one
    /// shared definition both Triage and Triangel count diagnostics
    /// and eviction-time training from.
    pub fn temporal_death(&self) -> Option<bool> {
        (self.meta.source == triangel_types::FillSource::Temporal)
            .then_some(self.was_unused_prefetch)
    }

    /// Whether the line died before its own fill completed (evicted
    /// while the data was still in flight). A premature death is a
    /// capacity/thrash artefact, not evidence about the prediction, so
    /// eviction-time training skips the negative update for it.
    pub fn premature(&self) -> bool {
        self.evict_cycle < self.meta.ready_at
    }
}

/// Counters every prefetcher exposes for the evaluation figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Prefetch requests issued.
    pub prefetches_issued: u64,
    /// Reads of Markov metadata that reached the L3 partition
    /// (counted in Fig. 14 and the energy model).
    pub markov_reads: u64,
    /// Writes of Markov metadata to the L3 partition.
    pub markov_writes: u64,
    /// Markov reads served by the Metadata Reuse Buffer instead of the
    /// L3 (Triangel only).
    pub mrb_hits: u64,
    /// Markov updates suppressed because the entry was unchanged in the
    /// MRB (Section 4.6's update-filtering optimization).
    pub updates_suppressed: u64,
}

impl PrefetcherStats {
    /// Total L3 accesses caused by metadata (reads + writes).
    pub fn markov_l3_accesses(&self) -> u64 {
        self.markov_reads + self.markov_writes
    }
}

impl triangel_obs::Probe for PrefetcherStats {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("prefetches_issued", self.prefetches_issued);
        out.record("markov_reads", self.markov_reads);
        out.record("markov_writes", self.markov_writes);
        out.record("mrb_hits", self.mrb_hits);
        out.record("updates_suppressed", self.updates_suppressed);
    }
}

impl triangel_types::snap::Snapshot for PrefetcherStats {
    fn save(
        &self,
        w: &mut triangel_types::snap::SnapWriter,
    ) -> Result<(), triangel_types::snap::SnapError> {
        w.u64(self.prefetches_issued);
        w.u64(self.markov_reads);
        w.u64(self.markov_writes);
        w.u64(self.mrb_hits);
        w.u64(self.updates_suppressed);
        Ok(())
    }

    fn restore(
        &mut self,
        r: &mut triangel_types::snap::SnapReader,
    ) -> Result<(), triangel_types::snap::SnapError> {
        self.prefetches_issued = r.u64()?;
        self.markov_reads = r.u64()?;
        self.markov_writes = r.u64()?;
        self.mrb_hits = r.u64()?;
        self.updates_suppressed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_sum() {
        let s = PrefetcherStats {
            markov_reads: 3,
            markov_writes: 2,
            ..Default::default()
        };
        assert_eq!(s.markov_l3_accesses(), 5);
    }
}
