//! The fixed Triage baseline (Wu et al., MICRO 2019 / IEEE TC 2022).
//!
//! This is the "implementable Triage" the paper constructs in Section 3:
//! the PC-indexed training table, the Markov table stored in an L3
//! partition with set + sub-set indexing, 32-bit entries with a
//! 1024-entry lookup table (or any of the Fig. 18 format variants),
//! HawkEye entry replacement, the confidence bit used for same-index
//! replacement, and Bloom-filter partition sizing (Section 3.5).
//!
//! Evaluated configurations map to [`TriageConfig`] presets:
//! * `Triage` — degree 1, lookahead 1 ([`TriageConfig::paper_default`]).
//! * `Triage-Deg4` — unconditional degree 4 ([`TriageConfig::degree4`]).
//! * `Triage-Deg4-Look2` — degree 4 plus Triangel's lookahead-2 applied
//!   to Triage ([`TriageConfig::degree4_lookahead2`]).
//!
//! # Examples
//!
//! ```
//! use triangel_triage::{Triage, TriageConfig};
//! use triangel_prefetch::{NullCacheView, Prefetcher, TrainEvent, TrainKind};
//! use triangel_types::{LineAddr, Pc};
//!
//! let mut pf = Triage::new(TriageConfig::paper_default());
//! let mut out = Vec::new();
//! // Two passes over the same miss sequence from one PC.
//! for pass in 0..2 {
//!     for line in [10u64, 20, 30, 40] {
//!         out.clear();
//!         let ev = TrainEvent {
//!             pc: Pc::new(0x400),
//!             line: LineAddr::new(line),
//!             kind: TrainKind::L2Miss,
//!             cycle: 0,
//!             l2_fills: 0,
//!         };
//!         pf.on_event(&ev, &NullCacheView, &mut out);
//!     }
//!     let _ = pass;
//! }
//! // On the second pass, seeing 10 predicts 20, etc.
//! assert!(!out.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod training;

pub use training::{TrainingTable, TrainingUpdate};

use triangel_markov::{MarkovTableConfig, MarkovTableImpl};
use triangel_prefetch::{
    BloomFilter, CacheView, EvictNotice, IssueTable, PrefetchRequest, Prefetcher, PrefetcherStats,
    TrainEvent, TrainKind,
};
use triangel_types::{Cycle, LineAddr};

/// Configuration of the Triage prefetcher.
#[derive(Debug, Clone, Copy)]
pub struct TriageConfig {
    /// Chained prefetches per trigger (1 or 4 in the paper).
    pub degree: usize,
    /// Training lookahead: 1 stores `(prev, cur)`; 2 stores
    /// `(prev_prev, cur)` (Triangel's mechanism applied to Triage for
    /// the `Triage-Deg4-Look2` configuration).
    pub lookahead: usize,
    /// Markov-table geometry and format.
    pub table: MarkovTableConfig,
    /// Training-table entries (512, as in Triangel's Table 1 sizing).
    pub training_entries: usize,
    /// Cycles per Markov-partition access: 20 L3 cycles + 5 for
    /// compressed-metadata handling (Section 5).
    pub markov_latency: Cycle,
    /// Bits in the sizing Bloom filter.
    pub bloom_bits: usize,
    /// Accesses per sizing window (the paper's 30M-instruction window
    /// scaled to prefetcher events).
    pub sizing_window: u64,
    /// Train on L2 eviction notices: the Triage-compatible subset of
    /// Triangel's experimental `train_on_eviction` gate (Markov-entry
    /// reinforcement only — Triage has no pattern classifiers).
    /// **Off in every shipped preset**; enabling it is an explicit
    /// opt-in and a behaviour change.
    pub train_on_eviction: bool,
}

impl TriageConfig {
    /// The paper's default Triage: degree 1.
    pub fn paper_default() -> Self {
        TriageConfig {
            degree: 1,
            lookahead: 1,
            table: MarkovTableConfig::triage(),
            training_entries: 512,
            markov_latency: 25,
            bloom_bits: 1 << 20, // ~131 KiB: the "too large" structure of Sec. 3.5
            sizing_window: 250_000,
            train_on_eviction: false,
        }
    }

    /// `Triage-Deg4`: unconditional degree 4.
    pub fn degree4() -> Self {
        TriageConfig {
            degree: 4,
            ..TriageConfig::paper_default()
        }
    }

    /// `Triage-Deg4-Look2`: degree 4 with lookahead 2.
    pub fn degree4_lookahead2() -> Self {
        TriageConfig {
            degree: 4,
            lookahead: 2,
            ..TriageConfig::paper_default()
        }
    }

    /// Same config with a different Markov format (Fig. 18 sweep).
    #[must_use]
    pub fn with_format(mut self, format: triangel_markov::TargetFormat) -> Self {
        self.table.format = format;
        self
    }

    /// Same config with eviction-time training enabled (explicit
    /// opt-in; no shipped preset sets it).
    #[must_use]
    pub fn with_evict_training(mut self) -> Self {
        self.train_on_eviction = true;
        self
    }
}

/// The Triage prefetcher.
#[derive(Debug)]
pub struct Triage {
    cfg: TriageConfig,
    training: TrainingTable,
    markov: MarkovTableImpl,
    bloom: BloomFilter,
    window_left: u64,
    desired_ways: usize,
    issued: u64,
    name: String,
    /// L2 eviction notices for own (temporal) fills: (died used,
    /// died unused). Always counted; surfaced via the probe registry.
    evict_seen: (u64, u64),
    /// Eviction-training state, live only behind
    /// `cfg.train_on_eviction`: which Markov entry produced each
    /// resident temporal fill, and how many entry updates applied.
    issue_table: IssueTable,
    evict_trained: u64,
}

impl Triage {
    /// Builds Triage from its configuration.
    pub fn new(cfg: TriageConfig) -> Self {
        let mut name = match (cfg.degree, cfg.lookahead) {
            (1, 1) => "Triage".to_string(),
            (4, 1) => "Triage-Deg4".to_string(),
            (4, 2) => "Triage-Deg4-Look2".to_string(),
            (d, l) => format!("Triage-Deg{d}-Look{l}"),
        };
        if cfg.train_on_eviction {
            name.push_str("+EvictTrain");
        }
        Triage {
            training: TrainingTable::new(cfg.training_entries, cfg.lookahead),
            markov: MarkovTableImpl::new(cfg.table),
            bloom: BloomFilter::new(cfg.bloom_bits, 4),
            window_left: cfg.sizing_window,
            desired_ways: 0,
            issued: 0,
            cfg,
            name,
            evict_seen: (0, 0),
            issue_table: IssueTable::paper_l2(),
            evict_trained: 0,
        }
    }

    /// Read access to the Markov table (for experiments and tests).
    pub fn markov(&self) -> &MarkovTableImpl {
        &self.markov
    }

    /// Processes one training event with a statically-known cache view.
    ///
    /// The monomorphized form of [`Prefetcher::on_event`]: the
    /// simulator's enum-dispatched pipeline calls it directly so the
    /// Markov train/lookup walk (and its HawkEye entry replacement)
    /// inlines without a virtual call. The trait method forwards here.
    pub fn handle<V: CacheView + ?Sized>(
        &mut self,
        ev: &TrainEvent,
        _caches: &V,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if !matches!(ev.kind, TrainKind::L2Miss | TrainKind::L2PrefetchHit) {
            return;
        }
        self.update_sizing(ev.line);

        // Train the Markov table from the per-PC history.
        let update = self.training.update(ev.pc, ev.line);
        if let Some(prev) = update.train_index {
            self.markov.train(prev, ev.line, ev.pc);
        }

        // Generate chained prefetches from the current address.
        let mut cursor = ev.line;
        for hop in 0..self.cfg.degree {
            let Some(hit) = self.markov.lookup(cursor) else {
                break;
            };
            let delay = (hop as Cycle + 1) * self.cfg.markov_latency;
            out.push(PrefetchRequest {
                line: hit.target,
                pc: ev.pc,
                issue_delay: delay,
            });
            self.issued += 1;
            if self.cfg.train_on_eviction {
                // Remember which entry predicted this line so its
                // eventual death can settle the entry.
                self.issue_table.record(hit.target, cursor);
            }
            cursor = hit.target;
        }
    }

    /// Grows the partition target to fit the unique indices seen this
    /// window (Section 3.5: a Bloom miss means a never-seen address, so
    /// the target size is increased to fit it). Shrinks only at window
    /// boundaries.
    fn update_sizing(&mut self, line: LineAddr) {
        let seen = self.bloom.insert(line.index());
        if !seen {
            let epl = self.cfg.table.format.entries_per_line();
            let per_way = self.cfg.table.sets * epl;
            let needed = (self.bloom.unique_inserts() as usize).div_ceil(per_way);
            if needed > self.desired_ways {
                self.desired_ways = needed.min(self.cfg.table.max_ways);
                self.markov.set_ways(self.desired_ways);
            }
        }
        self.window_left -= 1;
        if self.window_left == 0 {
            self.window_left = self.cfg.sizing_window;
            // New window: re-derive the target from fresh observations,
            // keeping the current allocation until the new window
            // justifies a different size.
            self.bloom.reset();
        }
    }
}

impl Prefetcher for Triage {
    fn on_event(
        &mut self,
        ev: &TrainEvent,
        caches: &dyn CacheView,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.handle(ev, caches, out);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn desired_markov_ways(&self) -> usize {
        self.desired_ways
    }

    fn stats(&self) -> PrefetcherStats {
        let m = self.markov.stats();
        PrefetcherStats {
            prefetches_issued: self.issued,
            markov_reads: m.reads,
            markov_writes: m.writes,
            mrb_hits: 0,
            updates_suppressed: 0,
        }
    }

    /// Eviction feedback: death diagnostics always; behind
    /// `cfg.train_on_eviction`, the Triage-compatible subset of
    /// eviction-time training — the Markov entry that predicted the
    /// dying line is reinforced (used death) or weakened/dropped
    /// (wasted death, skipping *premature* deaths whose fill never
    /// completed). Triage has no pattern classifiers, so there is no
    /// confidence-counter path here.
    fn on_l2_evict(&mut self, notice: &EvictNotice) {
        match notice.temporal_death() {
            Some(true) => self.evict_seen.1 += 1,
            Some(false) => self.evict_seen.0 += 1,
            None => {}
        }
        if !self.cfg.train_on_eviction {
            return;
        }
        let Some(wasted) = notice.temporal_death() else {
            return;
        };
        if wasted && notice.premature() {
            return;
        }
        if let Some(pred) = self.issue_table.take(notice.line) {
            if self.markov.train_on_evict(pred, notice.line, !wasted) {
                self.evict_trained += 1;
            }
        }
    }

    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("desired_ways", self.desired_ways as u64);
        out.record("issued", self.issued);
        out.record("evict_deaths_used", self.evict_seen.0);
        out.record("evict_deaths_wasted", self.evict_seen.1);
        out.record("evict_trained", self.evict_trained);
        out.scoped("markov", |out| {
            triangel_obs::Probe::probe(&self.markov, out);
        });
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for Triage {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.training.save(w)?;
        self.markov.save(w)?;
        self.bloom.save(w)?;
        w.u64(self.window_left);
        w.usize(self.desired_ways);
        w.u64(self.issued);
        w.u64(self.evict_seen.0);
        w.u64(self.evict_seen.1);
        self.issue_table.save(w)?;
        w.u64(self.evict_trained);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.training.restore(r)?;
        self.markov.restore(r)?;
        self.bloom.restore(r)?;
        self.window_left = r.u64()?;
        self.desired_ways = r.usize()?;
        self.issued = r.u64()?;
        self.evict_seen.0 = r.u64()?;
        self.evict_seen.1 = r.u64()?;
        self.issue_table.restore(r)?;
        self.evict_trained = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_prefetch::NullCacheView;
    use triangel_types::Pc;

    fn ev(pc: u64, line: u64) -> TrainEvent {
        TrainEvent {
            pc: Pc::new(pc),
            line: LineAddr::new(line),
            kind: TrainKind::L2Miss,
            cycle: 0,
            l2_fills: 0,
        }
    }

    fn drive(pf: &mut Triage, pc: u64, lines: &[u64]) -> Vec<PrefetchRequest> {
        let mut all = Vec::new();
        let mut out = Vec::new();
        for l in lines {
            out.clear();
            pf.on_event(&ev(pc, *l), &NullCacheView, &mut out);
            all.extend(out.iter().copied());
        }
        all
    }

    #[test]
    fn second_pass_prefetches_successors() {
        let mut pf = Triage::new(TriageConfig::paper_default());
        drive(&mut pf, 1, &[10, 20, 30, 40]);
        let reqs = drive(&mut pf, 1, &[10]);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].line, LineAddr::new(20));
        assert_eq!(reqs[0].issue_delay, 25);
    }

    #[test]
    fn degree4_chains_lookups() {
        let mut pf = Triage::new(TriageConfig::degree4());
        drive(&mut pf, 1, &[10, 20, 30, 40, 50]);
        let reqs = drive(&mut pf, 1, &[10]);
        let lines: Vec<u64> = reqs.iter().map(|r| r.line.index()).collect();
        assert_eq!(lines, vec![20, 30, 40, 50]);
        // Chained walks pay the metadata latency per hop.
        assert_eq!(reqs[3].issue_delay, 4 * 25);
    }

    #[test]
    fn lookahead2_stores_skip_pairs() {
        let mut pf = Triage::new(TriageConfig::degree4_lookahead2());
        drive(&mut pf, 1, &[10, 20, 30, 40, 50]);
        let reqs = drive(&mut pf, 1, &[10]);
        assert!(!reqs.is_empty());
        // (10 -> 30): the entry skips the immediate successor.
        assert_eq!(reqs[0].line, LineAddr::new(30));
    }

    #[test]
    fn pc_localization_separates_streams() {
        let mut pf = Triage::new(TriageConfig::paper_default());
        // Interleaved PCs with different sequences.
        let mut out = Vec::new();
        for (a, b) in [(10u64, 100u64), (20, 200), (30, 300)] {
            out.clear();
            pf.on_event(&ev(0x40, a), &NullCacheView, &mut out);
            out.clear();
            pf.on_event(&ev(0x80, b), &NullCacheView, &mut out);
        }
        let reqs = drive(&mut pf, 0x40, &[10]);
        assert_eq!(
            reqs[0].line,
            LineAddr::new(20),
            "PC 0x40's stream must not see PC 0x80's"
        );
    }

    #[test]
    fn partition_grows_with_footprint() {
        let mut pf = Triage::new(TriageConfig::paper_default());
        assert_eq!(pf.desired_markov_ways(), 0);
        // Touch far more unique lines than one way holds
        // (64-set test table would differ; default is 2048 sets x 16/line
        // = 32768 per way).
        let lines: Vec<u64> = (0..40_000u64).map(|k| k * 7).collect();
        drive(&mut pf, 1, &lines);
        assert!(pf.desired_markov_ways() >= 1);
        assert!(pf.markov().ways() >= 1);
    }

    #[test]
    fn ignores_l1_events() {
        let mut pf = Triage::new(TriageConfig::paper_default());
        let mut out = Vec::new();
        let mut e = ev(1, 10);
        e.kind = TrainKind::L1Access;
        pf.on_event(&e, &NullCacheView, &mut out);
        assert_eq!(pf.stats().markov_writes, 0);
    }

    #[test]
    fn stats_count_markov_traffic() {
        let mut pf = Triage::new(TriageConfig::degree4());
        drive(&mut pf, 1, &[10, 20, 30, 40, 50]);
        let before = pf.stats().markov_reads;
        drive(&mut pf, 1, &[10]);
        let after = pf.stats().markov_reads;
        // Degree-4 walk = 4 chained reads (plus the trigger's own).
        assert!(after - before >= 4, "chained reads uncounted");
    }

    #[test]
    fn names_match_paper_configs() {
        assert_eq!(Triage::new(TriageConfig::paper_default()).name(), "Triage");
        assert_eq!(Triage::new(TriageConfig::degree4()).name(), "Triage-Deg4");
        assert_eq!(
            Triage::new(TriageConfig::degree4_lookahead2()).name(),
            "Triage-Deg4-Look2"
        );
        assert_eq!(
            Triage::new(TriageConfig::degree4().with_evict_training()).name(),
            "Triage-Deg4+EvictTrain"
        );
    }

    #[test]
    fn eviction_gate_is_off_in_every_preset() {
        assert!(!TriageConfig::paper_default().train_on_eviction);
        assert!(!TriageConfig::degree4().train_on_eviction);
        assert!(!TriageConfig::degree4_lookahead2().train_on_eviction);
    }

    fn temporal_notice(line: u64, used: bool) -> EvictNotice {
        EvictNotice {
            line: LineAddr::new(line),
            meta: triangel_types::LineMeta {
                source: triangel_types::FillSource::Temporal,
                ready_at: 10,
                used,
                fill_seq: 1,
            },
            was_unused_prefetch: !used,
            evict_cycle: 100,
            evict_seq: 2,
            fill_pc: Some(Pc::new(1)),
        }
    }

    #[test]
    fn eviction_training_reinforces_used_predictions() {
        let mut pf = Triage::new(TriageConfig::paper_default().with_evict_training());
        drive(&mut pf, 0x40, &[10, 20, 30, 40]);
        let reqs = drive(&mut pf, 0x40, &[10]); // predicts 20 from entry 10
        assert_eq!(reqs[0].line, LineAddr::new(20));
        pf.on_l2_evict(&temporal_notice(20, true));
        assert_eq!(pf.evict_trained, 1);
        assert_eq!(
            pf.markov().peek(LineAddr::new(10)),
            Some((LineAddr::new(20), true)),
            "used death set the confidence bit"
        );
        // The confident entry now survives one conflicting retrain
        // (bit cleared, target kept) instead of being replaced. PC
        // 0x80 does not alias 0x40's training slot.
        drive(&mut pf, 0x80, &[10, 99]);
        assert_eq!(
            pf.markov().peek(LineAddr::new(10)),
            Some((LineAddr::new(20), false)),
            "reinforced entry survives one conflicting retrain"
        );
    }

    #[test]
    fn eviction_training_drops_wasted_predictions() {
        let mut pf = Triage::new(TriageConfig::paper_default().with_evict_training());
        drive(&mut pf, 0x40, &[10, 20, 30, 40]);
        let reqs = drive(&mut pf, 0x40, &[10]);
        assert_eq!(reqs[0].line, LineAddr::new(20));
        // (10 -> 20) was never confident; a wasted death drops it.
        pf.on_l2_evict(&temporal_notice(20, false));
        assert_eq!(pf.evict_trained, 1);
        assert_eq!(
            pf.markov().peek(LineAddr::new(10)),
            None,
            "discredited entry is gone"
        );
    }

    #[test]
    fn eviction_notices_are_inert_without_the_gate() {
        let mut pf = Triage::new(TriageConfig::paper_default());
        drive(&mut pf, 1, &[10, 20, 30, 40]);
        let before = format!("{:?}", pf.markov().stats());
        pf.on_l2_evict(&temporal_notice(20, false));
        assert_eq!(pf.evict_trained, 0);
        assert_eq!(format!("{:?}", pf.markov().stats()), before);
        assert_eq!(pf.evict_seen, (0, 1), "diagnostics still count");
        let reqs = drive(&mut pf, 1, &[10]);
        assert_eq!(reqs[0].line, LineAddr::new(20), "entry untouched");
    }
}
