//! The Triangel prefetcher: samplers, aggression control, and sizing
//! composed per Section 4 of the paper.

use crate::config::{SizingMechanism, TriangelConfig};
use crate::history_sampler::HistorySampler;
use crate::reuse_buffer::MetadataReuseBuffer;
use crate::second_chance::SecondChanceSampler;
use crate::set_dueller::SetDueller;
use crate::training::{TrainingTable, CONF_INIT};
use triangel_cache::replacement::PolicyKind;
use triangel_markov::{MarkovTableConfig, MarkovTableImpl};
use triangel_prefetch::{
    BloomFilter, CacheView, EvictNotice, IssueTable, PrefetchRequest, PrefetcherStats, TrainEvent,
    TrainKind,
};
use triangel_types::{Cycle, LineAddr};

/// The Triangel temporal prefetcher.
///
/// Behaviour is controlled by [`TriangelConfig::features`]; with all
/// features off it degenerates to Triage-Degree-4 (the Fig. 20 ablation
/// baseline), and with all on it is the paper's default Triangel.
#[derive(Debug)]
pub struct Triangel {
    cfg: TriangelConfig,
    training: TrainingTable,
    sampler: HistorySampler,
    scs: SecondChanceSampler,
    mrb: MetadataReuseBuffer,
    dueller: SetDueller,
    bloom: BloomFilter,
    markov: MarkovTableImpl,
    max_size: u64,
    bloom_window_left: u64,
    desired_ways: usize,
    issued: u64,
    suppressed: u64,
    name: String,
    /// Diagnostic counters: (reuse_inc, reuse_dec, stale_victims,
    /// fresh_unused_victims, sampler_hits, mismatches).
    debug: [u64; 6],
    /// L2 eviction notices observed: (own temporal lines that died
    /// demand-used, own temporal lines that died unused). Always
    /// counted; the simulator settles accuracy stats itself.
    evict_seen: (u64, u64),
    /// Eviction-training state, live only behind
    /// `features.train_on_eviction`: which Markov entry produced each
    /// resident temporal fill.
    issue_table: IssueTable,
    /// Eviction-training diagnostics: (Markov entry updates applied,
    /// pattern-classifier deltas applied, premature deaths skipped).
    evict_train: [u64; 3],
}

impl Triangel {
    /// Builds Triangel from its configuration.
    pub fn new(cfg: TriangelConfig) -> Self {
        let f = cfg.features;
        let table_cfg = MarkovTableConfig {
            format: cfg.effective_format(),
            // Triangel uses the simpler SRRIP; before the metadata step
            // of the ablation the table is still Triage's (HawkEye).
            replacement: if f.triangel_metadata {
                PolicyKind::Srrip
            } else {
                PolicyKind::Hawkeye
            },
            ..cfg.table
        };
        let max_size = table_cfg.max_capacity_entries() as u64;
        // Naming ignores the experimental eviction-training gate (it is
        // orthogonal to the ablation features) and tags it as a suffix.
        let base = crate::config::TriangelFeatures {
            train_on_eviction: false,
            ..f
        };
        let with_dueller = crate::config::TriangelFeatures {
            set_dueller: true,
            ..base
        };
        let with_mrb = crate::config::TriangelFeatures {
            metadata_reuse_buffer: true,
            ..base
        };
        let mut name = if base == crate::config::TriangelFeatures::all() {
            "Triangel".to_string()
        } else if cfg.sizing() == SizingMechanism::Bloom
            && with_dueller == crate::config::TriangelFeatures::all()
        {
            "Triangel-Bloom".to_string()
        } else if !f.metadata_reuse_buffer && with_mrb == crate::config::TriangelFeatures::all() {
            "Triangel-NoMRB".to_string()
        } else {
            "Triangel-partial".to_string()
        };
        if f.train_on_eviction {
            name.push_str("+EvictTrain");
        }
        Triangel {
            training: TrainingTable::new(cfg.training_entries),
            sampler: HistorySampler::new(cfg.sampler_entries, cfg.seed),
            scs: SecondChanceSampler::new(cfg.scs_entries, cfg.scs_window),
            mrb: MetadataReuseBuffer::new(cfg.mrb_entries),
            dueller: SetDueller::new(
                table_cfg.sets,
                table_cfg.max_ways,
                table_cfg.format.entries_per_line() as u32,
                cfg.dueller_bias,
                cfg.sizing_window,
                cfg.seed ^ 0xD137,
            ),
            bloom: BloomFilter::new(cfg.bloom_bits, 4),
            markov: MarkovTableImpl::new(table_cfg),
            max_size,
            bloom_window_left: cfg.sizing_window,
            desired_ways: 0,
            issued: 0,
            suppressed: 0,
            cfg,
            name,
            debug: [0; 6],
            evict_seen: (0, 0),
            issue_table: IssueTable::paper_l2(),
            evict_train: [0; 3],
        }
    }

    /// Eviction-training counters for tests and tuning: `[markov_entry
    /// updates, pattern deltas, premature skips]`. All zero unless
    /// `features.train_on_eviction` is set.
    pub fn evict_train_counters(&self) -> [u64; 3] {
        self.evict_train
    }

    /// Read access to the Markov table (for experiments and tests).
    pub fn markov(&self) -> &MarkovTableImpl {
        &self.markov
    }

    /// Read access to the training table.
    pub fn training(&self) -> &TrainingTable {
        &self.training
    }

    /// The Set Dueller's per-partitioning sample counters (index =
    /// candidate way count; see [`SetDueller::counters`]).
    pub fn dueller_counters(&self) -> &[u64; 9] {
        self.dueller.counters()
    }

    /// The `MaxSize` threshold used by ReuseConf and the samplers.
    pub fn max_size(&self) -> u64 {
        self.max_size
    }

    fn apply_pattern_delta(&mut self, train_idx: u16, up: bool) {
        if let Some(e) = self.training.entry_at_mut(train_idx as usize) {
            if up {
                // Both counters count up by one (Section 4.4.2).
                e.base_pattern_conf.add(1);
                e.high_pattern_conf.add(1);
            } else {
                // Asymmetric decrements: -2 (>2/3 bias) and -5 (>5/6).
                e.base_pattern_conf.sub(2);
                e.high_pattern_conf.sub(5);
            }
        }
    }

    /// Runs the History/Second-Chance sampling machinery (Section 4.4).
    fn run_samplers<V: CacheView + ?Sized>(
        &mut self,
        ev: &TrainEvent,
        caches: &V,
        idx: u16,
        prev0: Option<LineAddr>,
        ts: u32,
    ) {
        let f = self.cfg.features;

        // Second-Chance resolution: a parked target accessed within the
        // proximity window means the imperfect sequence still yields
        // accurate prefetches; a late access means the hypothetical
        // prefetch would have been evicted unused.
        if f.second_chance {
            match self.scs.check(ev.line, idx, ev.l2_fills) {
                Some(crate::second_chance::ScsOutcome::WithinWindow) => {
                    self.apply_pattern_delta(idx, true);
                }
                Some(crate::second_chance::ScsOutcome::OutsideWindow) => {
                    self.debug[5] += 1;
                    self.apply_pattern_delta(idx, false);
                }
                None => {}
            }
        }

        let Some(prev) = prev0 else { return };

        // History Sampler lookup: has `prev` been seen long ago, and did
        // the same successor follow it?
        if let Some(verdict) = self.sampler.lookup(prev, idx, ts, ev.line) {
            self.debug[4] += 1;
            let distance = ts.wrapping_sub(verdict.timestamp) as u64;
            if f.reuse_conf || f.base_pattern_conf {
                if let Some(e) = self.training.entry_at_mut(idx as usize) {
                    if distance <= self.max_size {
                        e.reuse_conf.inc();
                        self.debug[0] += 1;
                    } else {
                        e.reuse_conf.dec();
                        self.debug[1] += 1;
                    }
                }
            }
            if f.base_pattern_conf {
                if verdict.target == ev.line {
                    self.apply_pattern_delta(idx, true);
                } else if caches.in_l2(verdict.target) || caches.in_l3(verdict.target) {
                    // Already cached: a hypothetical prefetch would not
                    // have issued, so leave the counters alone.
                } else if f.second_chance {
                    if let Some(evicted) = self.scs.insert(verdict.target, idx, ev.l2_fills) {
                        self.apply_pattern_delta(evicted, false);
                    }
                } else {
                    self.apply_pattern_delta(idx, false);
                }
            }
        }

        // Probabilistic insertion of the freshly trained pair.
        let sample_rate = self
            .training
            .entry_at(idx as usize)
            .map(|e| e.sample_rate.get())
            .unwrap_or(CONF_INIT);
        if self.sampler.should_sample(sample_rate, self.max_size) {
            if let Some(victim) = self.sampler.insert(prev, idx, ev.line, ts) {
                // Victim handling per Section 4.4.3: replacing stale
                // entries is free (and earns a faster sample rate);
                // replacing potentially-useful ones slows us down.
                let victim_age = self
                    .training
                    .entry_at(victim.train_idx as usize)
                    .map(|e| e.timestamp.wrapping_sub(victim.timestamp) as u64);
                let stale = victim_age.map(|a| a > self.max_size).unwrap_or(true);
                if stale {
                    self.debug[2] += 1;
                    if !victim.used {
                        if let Some(v) = self.training.entry_at_mut(victim.train_idx as usize) {
                            v.reuse_conf.dec();
                            self.debug[1] += 1;
                        }
                    }
                    if let Some(e) = self.training.entry_at_mut(idx as usize) {
                        e.sample_rate.inc();
                    }
                } else if !victim.used {
                    self.debug[3] += 1;
                    if let Some(e) = self.training.entry_at_mut(idx as usize) {
                        e.sample_rate.dec();
                    }
                }
            }
        }
    }

    /// Applies the partition-sizing mechanism (Section 4.7 / 3.5).
    fn run_sizing(&mut self, line: LineAddr, markov_engaged: bool) {
        match self.cfg.sizing() {
            SizingMechanism::SetDueller => {
                self.dueller.on_access(line, markov_engaged);
                let want = self.dueller.desired_ways();
                if want != self.markov.ways() {
                    self.markov.set_ways(want);
                }
                self.desired_ways = self.markov.ways();
            }
            SizingMechanism::Bloom => {
                if markov_engaged {
                    let seen = self.bloom.insert(line.index());
                    if !seen {
                        let per_way =
                            self.cfg.table.sets * self.cfg.effective_format().entries_per_line();
                        let biased =
                            (self.bloom.unique_inserts() as f64 * self.cfg.bloom_bias) as usize;
                        let needed = biased.div_ceil(per_way).min(self.cfg.table.max_ways);
                        if needed > self.desired_ways {
                            self.desired_ways = needed;
                            self.markov.set_ways(needed);
                        }
                    }
                }
                self.bloom_window_left -= 1;
                if self.bloom_window_left == 0 {
                    self.bloom_window_left = self.cfg.sizing_window;
                    self.bloom.reset();
                }
            }
        }
    }

    /// Processes one training event, appending any prefetches to `out`.
    ///
    /// Generic over the cache view, so in the simulator's
    /// enum-dispatched pipeline the sampler verdicts, aggression gates,
    /// Markov training and the MRB-short-circuited prefetch walk all
    /// specialize against the concrete view (residency checks become
    /// direct set scans). Only L2 misses and tagged prefetch hits train.
    pub fn handle<V: CacheView + ?Sized>(
        &mut self,
        ev: &TrainEvent,
        caches: &V,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if !matches!(ev.kind, TrainKind::L2Miss | TrainKind::L2PrefetchHit) {
            return;
        }
        let f = self.cfg.features;
        let idx = self.training.index_of(ev.pc) as u16;

        // Refresh the training entry and snapshot the history register.
        let (prev0, prev1, ts) = {
            let (e, _) = self.training.entry_mut(ev.pc);
            e.timestamp = e.timestamp.wrapping_add(1);
            (e.last[0], e.last[1], e.timestamp)
        };

        let samplers_on = f.base_pattern_conf || f.second_chance || f.reuse_conf;
        if samplers_on {
            self.run_samplers(ev, caches, idx, prev0, ts);
        }

        // Aggression decisions (Section 4.5), re-reading counters after
        // the samplers' updates.
        let (base, high, reuse) = self
            .training
            .entry_at(idx as usize)
            .map(|e| {
                (
                    e.base_pattern_conf.get(),
                    e.high_pattern_conf.get(),
                    e.reuse_conf.get(),
                )
            })
            .unwrap_or((CONF_INIT, CONF_INIT, CONF_INIT));

        let lookahead2 = if !f.lookahead2 {
            false
        } else if f.high_pattern_conf {
            // Hysteresis: engage at HighPatternConf max (15), disengage
            // only when BasePatternConf falls below its initial value.
            if let Some(e) = self.training.entry_at_mut(idx as usize) {
                if e.high_pattern_conf.is_saturated() {
                    e.lookahead2 = true;
                } else if e.base_pattern_conf.get() < CONF_INIT {
                    e.lookahead2 = false;
                }
                e.lookahead2
            } else {
                false
            }
        } else {
            true
        };

        let degree = if f.high_pattern_conf {
            if high > CONF_INIT {
                self.cfg.max_degree
            } else {
                1
            }
        } else {
            self.cfg.max_degree
        };

        let mut allowed = true;
        if f.base_pattern_conf && base <= CONF_INIT {
            allowed = false;
        }
        if f.reuse_conf && reuse <= CONF_INIT {
            allowed = false;
        }

        // Train the Markov table (lookahead decides the index;
        // Section 4.5's shift-register walkthrough).
        if allowed {
            let train_index = if lookahead2 { prev1 } else { prev0 };
            if let Some(pi) = train_index {
                let unchanged =
                    f.metadata_reuse_buffer && self.mrb.peek(pi) == Some((ev.line, true));
                if unchanged {
                    // The L3 copy already says exactly this: skip the
                    // update entirely (Section 4.6).
                    self.suppressed += 1;
                } else {
                    self.markov.train(pi, ev.line, ev.pc);
                    if f.metadata_reuse_buffer {
                        if let Some((t, c)) = self.markov.peek(pi) {
                            self.mrb.insert(pi, t, c);
                        }
                    }
                }
            }
        }

        // Shift the history register.
        if let Some(e) = self.training.entry_at_mut(idx as usize) {
            e.last[1] = e.last[0];
            e.last[0] = Some(ev.line);
        }

        // Chained prefetch generation through the MRB.
        if allowed {
            let mut cursor = ev.line;
            let mut delay: Cycle = 0;
            for _ in 0..degree {
                let cached = if f.metadata_reuse_buffer {
                    self.mrb.lookup(cursor)
                } else {
                    None
                };
                let (target, confidence) = match cached {
                    Some(hit) => {
                        delay += 1; // near-side buffer: negligible latency
                        hit
                    }
                    None => match self.markov.lookup(cursor) {
                        Some(h) => {
                            delay += self.cfg.markov_latency;
                            if f.metadata_reuse_buffer {
                                self.mrb.insert(cursor, h.target, h.confidence);
                            }
                            (h.target, h.confidence)
                        }
                        None => break,
                    },
                };
                let _ = confidence;
                if !caches.in_l2(target) {
                    out.push(PrefetchRequest {
                        line: target,
                        pc: ev.pc,
                        issue_delay: delay,
                    });
                    self.issued += 1;
                    if f.train_on_eviction {
                        // Remember which entry predicted this line so
                        // its eventual death can settle the entry.
                        self.issue_table.record(target, cursor);
                    }
                }
                cursor = target;
            }
        }

        self.run_sizing(ev.line, allowed);
    }

    /// Display name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many L3 ways the prefetcher currently wants for Markov
    /// metadata.
    pub fn desired_markov_ways(&self) -> usize {
        self.markov.ways()
    }

    /// Evaluation counters.
    pub fn stats(&self) -> PrefetcherStats {
        let m = self.markov.stats();
        PrefetcherStats {
            prefetches_issued: self.issued,
            markov_reads: m.reads,
            markov_writes: m.writes,
            mrb_hits: self.mrb.hits(),
            updates_suppressed: self.suppressed,
        }
    }

    /// Eviction feedback. Death diagnostics are always counted; behind
    /// `features.train_on_eviction` the dying line's metadata word
    /// (fill source, demand-used bit, fill cycle) additionally settles
    /// training at the moment the line leaves the L2:
    ///
    /// * the Markov entry that predicted the line is reinforced (used
    ///   death) or weakened/dropped (wasted death) via
    ///   [`MarkovTableImpl::train_on_evict`], with the Metadata Reuse
    ///   Buffer's cached copy refreshed to match;
    /// * the filling PC's pattern classifiers receive eviction ground
    ///   truth — +1 for a used death, the asymmetric −2/−5 for a
    ///   wasted one — alongside the History Sampler's hypothetical
    ///   verdicts;
    /// * *premature* deaths (evicted before the fill's data arrived,
    ///   judged from the metadata word's fill cycle) are excluded from
    ///   the negative paths: they indict cache pressure, not the
    ///   prediction.
    pub fn on_l2_evict(&mut self, notice: &EvictNotice) {
        match notice.temporal_death() {
            Some(true) => self.evict_seen.1 += 1,
            Some(false) => self.evict_seen.0 += 1,
            None => {}
        }
        let f = self.cfg.features;
        if !f.train_on_eviction {
            return;
        }
        let Some(wasted) = notice.temporal_death() else {
            return;
        };
        if wasted && notice.premature() {
            self.evict_train[2] += 1;
            return;
        }
        let used = !wasted;
        if let Some(pred) = self.issue_table.take(notice.line) {
            if self.markov.train_on_evict(pred, notice.line, used) {
                self.evict_train[0] += 1;
                if f.metadata_reuse_buffer {
                    // Keep the near-side copy coherent with the entry
                    // the update just changed (or dropped).
                    match self.markov.peek(pred) {
                        Some((t, c)) => self.mrb.insert(pred, t, c),
                        None => self.mrb.invalidate(pred),
                    }
                }
            }
        }
        if f.base_pattern_conf {
            if let Some(pc) = notice.fill_pc {
                let idx = self.training.index_of(pc) as u16;
                self.apply_pattern_delta(idx, used);
                self.evict_train[1] += 1;
            }
        }
    }

    /// Exports named internal counters (gate states, sampler and
    /// death diagnostics, Set Dueller, Markov table) into `out`;
    /// read-only.
    pub fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        let (valid, base_open, high_open, lookahead2) = self.training.gate_summary();
        out.scoped("gates", |out| {
            out.record("valid", valid as u64);
            out.record("base_open", base_open as u64);
            out.record("high_open", high_open as u64);
            out.record("lookahead2", lookahead2 as u64);
        });
        out.record("desired_ways", self.desired_ways as u64);
        out.record("issued", self.issued);
        out.record("suppressed", self.suppressed);
        out.record("reuse_inc", self.debug[0]);
        out.record("reuse_dec", self.debug[1]);
        out.record("stale_victims", self.debug[2]);
        out.record("fresh_unused_victims", self.debug[3]);
        out.record("sampler_hits", self.debug[4]);
        out.record("mismatches", self.debug[5]);
        out.record("evict_deaths_used", self.evict_seen.0);
        out.record("evict_deaths_wasted", self.evict_seen.1);
        out.scoped("etrain", |out| {
            out.record("markov_updates", self.evict_train[0]);
            out.record("pattern_deltas", self.evict_train[1]);
            out.record("premature_skips", self.evict_train[2]);
        });
        out.scoped("duel", |out| {
            for (ways, &count) in self.dueller.counters().iter().enumerate() {
                out.record(&format!("ways{ways}"), count);
            }
        });
        out.scoped("markov", |out| {
            triangel_obs::Probe::probe(&self.markov, out);
        });
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for Triangel {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.training.save(w)?;
        self.sampler.save(w)?;
        self.scs.save(w)?;
        self.mrb.save(w)?;
        self.dueller.save(w)?;
        self.bloom.save(w)?;
        self.markov.save(w)?;
        w.u64(self.bloom_window_left);
        w.usize(self.desired_ways);
        w.u64(self.issued);
        w.u64(self.suppressed);
        for d in &self.debug {
            w.u64(*d);
        }
        w.u64(self.evict_seen.0);
        w.u64(self.evict_seen.1);
        self.issue_table.save(w)?;
        for d in &self.evict_train {
            w.u64(*d);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.training.restore(r)?;
        self.sampler.restore(r)?;
        self.scs.restore(r)?;
        self.mrb.restore(r)?;
        self.dueller.restore(r)?;
        self.bloom.restore(r)?;
        self.markov.restore(r)?;
        self.bloom_window_left = r.u64()?;
        self.desired_ways = r.usize()?;
        self.issued = r.u64()?;
        self.suppressed = r.u64()?;
        for d in &mut self.debug {
            *d = r.u64()?;
        }
        self.evict_seen.0 = r.u64()?;
        self.evict_seen.1 = r.u64()?;
        self.issue_table.restore(r)?;
        for d in &mut self.evict_train {
            *d = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triangel_prefetch::NullCacheView;
    use triangel_types::Pc;

    fn ev(pc: u64, line: u64, n: u64) -> TrainEvent {
        TrainEvent {
            pc: Pc::new(pc),
            line: LineAddr::new(line),
            kind: TrainKind::L2Miss,
            cycle: n,
            l2_fills: n,
        }
    }

    /// Drives a strict repeating sequence from one PC through the
    /// prefetcher `passes` times; returns all requests from the last
    /// pass.
    fn drive_pattern(
        pf: &mut Triangel,
        pc: u64,
        seq: &[u64],
        passes: usize,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        let mut last = Vec::new();
        let mut n = 0;
        for p in 0..passes {
            if p + 1 == passes {
                last.clear();
            }
            for l in seq {
                out.clear();
                pf.handle(&ev(pc, *l, n), &NullCacheView, &mut out);
                n += 1;
                if p + 1 == passes {
                    last.extend(out.iter().copied());
                }
            }
        }
        last
    }

    fn small_config() -> TriangelConfig {
        let mut cfg = TriangelConfig::paper_default();
        // A small table and window so unit tests converge quickly.
        cfg.table.sets = 64;
        cfg.table.max_ways = 4;
        cfg.sizing_window = 500;
        cfg
    }

    #[test]
    fn confident_pattern_eventually_prefetches() {
        let mut pf = Triangel::new(small_config());
        // Wide enough that the Set Dueller's 1-in-12 sampled address
        // subset is well populated.
        let seq: Vec<u64> = (0..600).map(|i| 10 + i * 3).collect();
        let reqs = drive_pattern(&mut pf, 0x40, &seq, 20);
        assert!(!reqs.is_empty(), "a strict repeating pattern must prefetch");
        assert!(pf.stats().prefetches_issued > 0);
    }

    #[test]
    fn random_stream_is_filtered() {
        let mut cfg = small_config();
        cfg.seed = 3;
        let mut pf = Triangel::new(cfg);
        // Unlearnable stream: every address unique.
        let mut out = Vec::new();
        for n in 0..20_000u64 {
            out.clear();
            pf.handle(&ev(0x40, 1_000_000 + n * 17, n), &NullCacheView, &mut out);
        }
        let issued = pf.stats().prefetches_issued;
        // BasePatternConf never rises above 8 for a random stream, so
        // essentially nothing is prefetched.
        assert!(
            issued < 100,
            "random stream should be filtered, issued {issued}"
        );
    }

    #[test]
    fn triage_mode_prefetches_unconditionally() {
        // All features off = Triage-Deg4 behaviour: no filtering.
        let mut cfg = small_config();
        cfg.features = crate::config::TriangelFeatures::none();
        let mut pf = Triangel::new(cfg);
        let seq: Vec<u64> = (0..50).map(|i| 10 + i * 3).collect();
        let reqs = drive_pattern(&mut pf, 0x40, &seq, 3);
        assert!(!reqs.is_empty());
    }

    #[test]
    fn mrb_eliminates_repeat_markov_reads() {
        let mut pf = Triangel::new(small_config());
        let seq: Vec<u64> = (0..600).map(|i| 100 + i * 5).collect();
        let _ = drive_pattern(&mut pf, 0x40, &seq, 20);
        let s = pf.stats();
        assert!(
            s.mrb_hits > 0,
            "overlapping degree-4 walks must hit the MRB"
        );
    }

    #[test]
    fn no_mrb_variant_reads_l3_more() {
        let seq: Vec<u64> = (0..600).map(|i| 100 + i * 5).collect();
        let mut with = Triangel::new(small_config());
        let _ = drive_pattern(&mut with, 0x40, &seq, 20);
        let mut without = Triangel::new(TriangelConfig {
            features: crate::config::TriangelFeatures {
                metadata_reuse_buffer: false,
                ..crate::config::TriangelFeatures::all()
            },
            ..small_config()
        });
        let _ = drive_pattern(&mut without, 0x40, &seq, 20);
        assert!(
            without.stats().markov_reads > with.stats().markov_reads,
            "MRB must reduce partition reads ({} vs {})",
            without.stats().markov_reads,
            with.stats().markov_reads
        );
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(
            Triangel::new(TriangelConfig::paper_default()).name(),
            "Triangel"
        );
        assert_eq!(
            Triangel::new(TriangelConfig::bloom_variant()).name(),
            "Triangel-Bloom"
        );
        assert_eq!(
            Triangel::new(TriangelConfig::no_mrb()).name(),
            "Triangel-NoMRB"
        );
    }

    #[test]
    fn lookahead_engages_for_confident_patterns() {
        let mut pf = Triangel::new(small_config());
        let seq: Vec<u64> = (0..600).map(|i| 10 + i * 3).collect();
        let _ = drive_pattern(&mut pf, 0x40, &seq, 25);
        let e = pf.training().entry(Pc::new(0x40)).expect("trained");
        assert!(
            e.lookahead2,
            "HighPatternConf should saturate and engage lookahead 2 (high={})",
            e.high_pattern_conf.get()
        );
    }

    #[test]
    fn stats_wiring() {
        let mut pf = Triangel::new(small_config());
        let seq: Vec<u64> = (0..600).map(|i| 10 + i * 3).collect();
        let _ = drive_pattern(&mut pf, 0x40, &seq, 15);
        let s = pf.stats();
        assert!(s.markov_writes > 0);
        assert!(s.markov_reads > 0);
    }

    fn notice(line: u64, used: bool, ready_at: u64, evict_cycle: u64) -> EvictNotice {
        EvictNotice {
            line: LineAddr::new(line),
            meta: triangel_types::LineMeta {
                source: triangel_types::FillSource::Temporal,
                ready_at,
                used,
                fill_seq: 1,
            },
            was_unused_prefetch: !used,
            evict_cycle,
            evict_seq: 2,
            fill_pc: Some(Pc::new(0x40)),
        }
    }

    /// Builds a gate-on Triangel that has issued prefetches for a
    /// strict pattern, returning it plus the last pass's target lines.
    fn trained_gated() -> (Triangel, Vec<u64>) {
        let mut cfg = small_config();
        cfg.features.train_on_eviction = true;
        let mut pf = Triangel::new(cfg);
        let seq: Vec<u64> = (0..600).map(|i| 10 + i * 3).collect();
        let reqs = drive_pattern(&mut pf, 0x40, &seq, 20);
        assert!(!reqs.is_empty());
        (pf, reqs.iter().map(|r| r.line.index()).collect())
    }

    #[test]
    fn eviction_training_settles_issued_prefetches() {
        let (mut pf, targets) = trained_gated();
        // A used death reinforces the entry that predicted the target.
        // Issue-table collisions may have displaced individual
        // associations; at least one recent target must still settle.
        let mut settled = None;
        for t in &targets {
            pf.on_l2_evict(&notice(*t, true, 100, 500));
            if pf.evict_train_counters()[0] == 1 {
                settled = Some(*t);
                break;
            }
        }
        let target = settled.expect("a recent prefetch settles its entry");
        assert!(pf.evict_train_counters()[1] >= 1, "pattern deltas applied");
        // The association is consumed: a second notice for the same
        // line no longer finds an entry to update.
        pf.on_l2_evict(&notice(target, true, 100, 500));
        assert_eq!(pf.evict_train_counters()[0], 1);
    }

    #[test]
    fn premature_deaths_are_not_pattern_failures() {
        let (mut pf, targets) = trained_gated();
        // Evicted at cycle 50, data due at 100: in-flight kill.
        pf.on_l2_evict(&notice(targets[0], false, 100, 50));
        assert_eq!(
            pf.evict_train_counters(),
            [0, 0, 1],
            "only the premature skip counts; no negative training"
        );
    }

    #[test]
    fn eviction_training_is_inert_when_gated_off() {
        let mut pf = Triangel::new(small_config());
        let seq: Vec<u64> = (0..600).map(|i| 10 + i * 3).collect();
        let reqs = drive_pattern(&mut pf, 0x40, &seq, 20);
        assert!(!reqs.is_empty());
        let before = format!("{:?}", pf.markov().stats());
        pf.on_l2_evict(&notice(reqs[0].line.index(), false, 100, 500));
        pf.on_l2_evict(&notice(reqs[0].line.index(), true, 100, 500));
        assert_eq!(pf.evict_train_counters(), [0, 0, 0]);
        assert_eq!(
            format!("{:?}", pf.markov().stats()),
            before,
            "gated-off notices must not touch the Markov table"
        );
        assert_eq!(pf.evict_seen, (1, 1), "diagnostics still count");
    }
}
