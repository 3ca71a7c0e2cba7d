//! The memory hierarchy: per-core L1/L2 + prefetchers, shared L3 + DRAM.

use crate::config::SystemConfig;
use crate::dispatch::PrefetcherImpl;
use triangel_cache::replacement::all_ways;
use triangel_cache::{Cache, EvictedLine, Mshr};
use triangel_mem::Dram;
use triangel_prefetch::{
    CacheView, EvictNotice, PrefetchRequest, PrefetcherStats, StridePrefetcher, TrainEvent,
    TrainKind,
};
use triangel_types::{Cycle, FillSource, LineAddr, LineMeta, Pc};

#[cfg(test)]
mod evict_meta;

/// Per-core accuracy/traffic bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Lines the temporal prefetcher filled into the L2.
    pub temporal_fills: u64,
    /// Of those, lines demand-used before L2 eviction (accuracy
    /// numerator, Fig. 12).
    pub temporal_used: u64,
    /// Of those, lines evicted unused (accuracy denominator
    /// complement).
    pub temporal_wasted: u64,
    /// Prefetch requests dropped for MSHR pressure.
    pub prefetches_dropped: u64,
    /// Total L2 fills (the Second-Chance Sampler's proximity clock).
    pub l2_fills: u64,
}

impl CoreStats {
    /// Prefetch accuracy over *resolved* lines only:
    /// `used / (used + wasted)`. A temporal fill resolves either by
    /// first demand use (`temporal_used`) or by unused eviction
    /// (`temporal_wasted`); lines still resident and untouched at
    /// measurement end are not counted in either direction. Returns
    /// `0.0` when nothing has resolved.
    pub fn accuracy(&self) -> f64 {
        let resolved = self.temporal_used + self.temporal_wasted;
        if resolved == 0 {
            0.0
        } else {
            self.temporal_used as f64 / resolved as f64
        }
    }
}

impl triangel_obs::Probe for CoreStats {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("temporal_fills", self.temporal_fills);
        out.record("temporal_used", self.temporal_used);
        out.record("temporal_wasted", self.temporal_wasted);
        out.record("prefetches_dropped", self.prefetches_dropped);
        out.record("l2_fills", self.l2_fills);
    }
}

/// One core's private memory-side state.
///
/// Everything the old side tables tracked — fill-completion times and
/// temporal-fill attribution — now lives in the L2's own lines (see
/// [`triangel_types::LineMeta`]), so there is nothing per-line to keep
/// in sync, prune, or look up here.
///
/// # The residency table
///
/// `resident` is an exact, direct-mapped record of lines known valid in
/// this core's caches, checked before
/// [`MemorySystem::issue_prefetch`] probes them. The baseline's
/// degree-8 stride prefetcher re-requests most of its lines on every
/// access once it is confident, so most requests are for lines already
/// in both the L1 and the L2.
///
/// * **Invariant.** A slot holding line `X` means `X` is valid in the
///   L2; its `in_l1` bit means `X` is also valid in the L1. A line may
///   be resident without an entry: the table answers "known resident"
///   or "ask the caches", never "absent".
/// * **Writes.** `issue_prefetch` records a stride line with its L1 bit
///   once it has verified or installed it in both caches, and a
///   temporal line without the bit (a bit already set for the same
///   line is kept).
/// * **Clears.** `fill_l2` clears its victim's entry and
///   [`CoreMem::fill_l1`], the one L1 fill path, clears its victim's
///   L1 bit. The private L1 and L2 lose lines by no other path: neither
///   is ever invalidated or way-masked (only the shared L3 is).
///   `restore` empties the table.
/// * **Exactness.** A table hit skips a `Cache::contains` probe whose
///   answer is known to be "present", and such a probe changes no
///   cache state (the known-absent memo is written only on a miss), so
///   skipping it moves no line, statistic or replacement order. Debug
///   builds cross-check every table hit against the caches.
///
/// The table is derived and never serialized: snapshot bytes do not
/// change.
#[derive(Debug)]
struct CoreMem {
    l1: Cache,
    l2: Cache,
    mshr: Mshr,
    stride: StridePrefetcher,
    /// Enum-dispatched: the train/lookup path has no virtual call (see
    /// [`PrefetcherImpl`]).
    temporal: PrefetcherImpl,
    stats: CoreStats,
    pf_snapshot: PrefetcherStats,
    req_buf: Vec<PrefetchRequest>,
    /// Lines known resident (see "The residency table").
    resident: ResidentTable,
    /// When `Some`, every crossing between this core and its temporal
    /// prefetcher, in delivery order.
    #[cfg(test)]
    crossings: Option<Vec<Crossing>>,
}

/// What passed between a core and its temporal prefetcher, as logged
/// in test builds.
#[cfg(test)]
#[derive(Debug, Clone)]
enum Crossing {
    /// A training event and the requests it returned.
    Event(TrainEvent, Vec<PrefetchRequest>),
    /// An L2 eviction notice.
    Evict(EvictNotice),
}

impl CoreMem {
    /// Fills `line` into the L1, dropping its victim's L1 bit from the
    /// residency table. Every L1 fill goes through here.
    fn fill_l1(&mut self, line: LineAddr, pc: Pc, is_prefetch: bool) {
        if let Some(ev) = self.l1.fill(line, Some(pc), is_prefetch).evicted {
            self.resident.clear_l1(ev.line);
        }
    }
}

/// Slots in a [`ResidentTable`]. Larger tables skip few more requests:
/// the ones they would add are mostly for lines since evicted from the
/// L1, which need a real refill anyway.
const RESIDENT_SLOTS: usize = 64;

/// The direct-mapped residency table of [`CoreMem`]: slot `line % 64`.
#[derive(Debug, PartialEq, Eq)]
struct ResidentTable {
    /// Slot `s` holds a line with `line % 64 == s` known valid in the
    /// L2, or, when empty, `!s`, which maps to another slot and so
    /// matches no line.
    lines: [u64; RESIDENT_SLOTS],
    /// Bit `s`: slot `s`'s line is also valid in the L1 (clear for an
    /// empty slot).
    in_l1: u64,
}

impl ResidentTable {
    fn new() -> Self {
        ResidentTable {
            lines: std::array::from_fn(|s| !(s as u64)),
            in_l1: 0,
        }
    }

    fn slot(line: LineAddr) -> usize {
        (line.index() % RESIDENT_SLOTS as u64) as usize
    }

    /// `Some(in_l1)` when `line` is known valid in the L2; `None` when
    /// only the caches can tell.
    fn lookup(&self, line: LineAddr) -> Option<bool> {
        let s = Self::slot(line);
        (self.lines[s] == line.index()).then_some(self.in_l1 & (1 << s) != 0)
    }

    /// Records `line` as valid in the L2, and in the L1 too when
    /// `in_l1`; a known L1 bit for the same line is kept.
    fn record(&mut self, line: LineAddr, in_l1: bool) {
        let s = Self::slot(line);
        if self.lines[s] != line.index() {
            self.lines[s] = line.index();
            self.in_l1 &= !(1 << s);
        }
        if in_l1 {
            self.in_l1 |= 1 << s;
        }
    }

    /// `line` left the L2: forget it.
    fn clear_l2(&mut self, line: LineAddr) {
        let s = Self::slot(line);
        if self.lines[s] == line.index() {
            self.lines[s] = !(s as u64);
            self.in_l1 &= !(1 << s);
        }
    }

    /// `line` left the L1: drop its L1 bit.
    fn clear_l1(&mut self, line: LineAddr) {
        let s = Self::slot(line);
        if self.lines[s] == line.index() {
            self.in_l1 &= !(1 << s);
        }
    }
}

struct ViewPair<'a> {
    l2: &'a Cache,
    l3: &'a Cache,
}

impl CacheView for ViewPair<'_> {
    fn in_l2(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }
    fn in_l3(&self, line: LineAddr) -> bool {
        self.l3.contains(line)
    }
    fn l2_meta(&self, line: LineAddr) -> Option<LineMeta> {
        self.l2.line_meta(line)
    }
}

/// The assembled memory system.
///
/// Fills are applied eagerly and each line records its own completion
/// timestamp (`LineMeta::ready_at`), which is exact because the engine
/// issues accesses in non-decreasing time order; the MSHR file bounds
/// outstanding misses and drops prefetches under pressure, as hardware
/// does. Used/wasted prefetch attribution happens on the line itself:
/// at first demand use (the tagged prefetch hit) and at eviction, where
/// the dying line's metadata word names the prefetcher that filled it.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SystemConfig,
    cores: Vec<CoreMem>,
    l3: Cache,
    dram: Dram,
    /// Hit latencies cached out of `cfg` for the per-access path.
    l1_lat: Cycle,
    l2_lat: Cycle,
    l3_lat: Cycle,
    /// L3 ways currently ceded to the Markov partition (max over cores'
    /// wishes; the partition is shared in multiprogrammed mode,
    /// Section 6.3).
    markov_ways: usize,
    /// Per-bank busy-until clocks for L3 arbitration; empty when
    /// `cfg.contention.l3_banks == 0` (legacy uncontended service).
    /// Banks are selected by line index; ties between cores are broken
    /// by arrival order, which the engine's cycle-ordered stepping makes
    /// deterministic (lowest retire clock first, then core index).
    l3_bank_free: Vec<Cycle>,
}

impl MemorySystem {
    /// Builds the system with one temporal prefetcher per core.
    ///
    /// # Panics
    ///
    /// Panics if `temporal` is empty.
    pub fn with_prefetchers(cfg: SystemConfig, temporal: Vec<PrefetcherImpl>) -> Self {
        assert!(!temporal.is_empty(), "at least one core required");
        let cores = temporal
            .into_iter()
            .map(|t| CoreMem {
                l1: Cache::new(cfg.l1.clone()),
                l2: Cache::new(cfg.l2.clone()),
                mshr: Mshr::new(cfg.l2_mshrs),
                stride: StridePrefetcher::new(64, cfg.stride_degree),
                temporal: t,
                stats: CoreStats::default(),
                pf_snapshot: PrefetcherStats::default(),
                req_buf: Vec::new(),
                resident: ResidentTable::new(),
                #[cfg(test)]
                crossings: None,
            })
            .collect();
        MemorySystem {
            l3: Cache::new(cfg.l3.clone()),
            dram: Dram::new(cfg.dram),
            cores,
            markov_ways: 0,
            l1_lat: cfg.l1.hit_latency(),
            l2_lat: cfg.l2.hit_latency(),
            l3_lat: cfg.l3.hit_latency(),
            l3_bank_free: vec![0; cfg.contention.l3_banks],
            cfg,
        }
    }

    /// Claims an L3 bank slot for an access to `line` arriving at `t`;
    /// returns the cycle the bank actually services it. A no-op (returns
    /// `t`) when bank arbitration is disabled.
    fn arbitrate_l3(&mut self, t: Cycle, line: LineAddr) -> Cycle {
        if self.l3_bank_free.is_empty() {
            return t;
        }
        let bank = (line.index() % self.l3_bank_free.len() as u64) as usize;
        let start = t.max(self.l3_bank_free[bank]);
        self.l3_bank_free[bank] = start + self.cfg.contention.l3_bank_service;
        start
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Performs one demand access; returns the cycle the data is ready.
    pub fn demand_access(&mut self, core_idx: usize, pc: Pc, line: LineAddr, t: Cycle) -> Cycle {
        let l1_lat = self.l1_lat;
        let l2_lat = self.l2_lat;

        // --- L1 ---
        let l1_hit = self.cores[core_idx].l1.access(line, Some(pc), false).hit;
        self.train_stride(core_idx, pc, line, t);
        if l1_hit {
            return t + l1_lat;
        }

        // --- L2 ---
        let t2 = t + l1_lat;
        self.cores[core_idx].mshr.retire_until(t2);
        let l2_out = self.cores[core_idx].l2.access(line, Some(pc), false);
        if l2_out.hit {
            // Data may still be in flight (late prefetch): the line's
            // own metadata word records when its fill completes.
            let meta = l2_out.meta.expect("hit carries metadata");
            let ready = (t2 + l2_lat).max(meta.ready_at);
            if l2_out.prefetch_hit {
                if meta.source == FillSource::Temporal {
                    self.cores[core_idx].stats.temporal_used += 1;
                }
                self.train_temporal(core_idx, pc, line, TrainKind::L2PrefetchHit, t2);
            }
            self.cores[core_idx].fill_l1(line, pc, false);
            return ready;
        }

        // --- L2 miss: wait for an MSHR slot if the file is full ---
        let mut t3 = t2 + l2_lat;
        if self.cores[core_idx].mshr.is_full() {
            if let Some(earliest) = self.cores[core_idx].mshr.earliest_ready() {
                t3 = t3.max(earliest);
                self.cores[core_idx].mshr.retire_until(t3);
            }
        }

        // --- L3 ---
        let l3_lat = self.l3_lat;
        let t3 = self.arbitrate_l3(t3, line);
        let l3_hit = self.l3.access(line, Some(pc), false).hit;
        let ready = if l3_hit {
            t3 + l3_lat
        } else {
            let fetched = self
                .dram
                .request_line(t3 + l3_lat, line.index(), false)
                .completes_at;
            self.fill_l3(line, pc, FillSource::Demand);
            fetched
        };

        // With demand occupancy on, the miss holds an MSHR entry until
        // its data lands, so a full file genuinely back-pressures later
        // demands and prefetches instead of only dropping prefetches.
        if self.cfg.contention.mshr_demand_occupancy {
            self.cores[core_idx].mshr.allocate(line, ready, false);
        }

        self.fill_l2(core_idx, pc, line, FillSource::Demand, ready);
        self.cores[core_idx].fill_l1(line, pc, false);

        // Train the temporal prefetcher on the miss and issue whatever
        // it wants, after the demand request is in the DRAM queue.
        self.train_temporal(core_idx, pc, line, TrainKind::L2Miss, t2);
        ready
    }

    fn fill_l3(&mut self, line: LineAddr, pc: Pc, source: FillSource) {
        self.l3
            .fill_at(line, Some(pc), source, source.is_prefetch(), 0);
    }

    /// Fills the L2. The line itself records who filled it and when the
    /// data arrives; the dying victim's metadata word settles accuracy
    /// accounting on the spot and is handed to the temporal prefetcher
    /// as an eviction notice.
    ///
    /// Note the tag-bit policy: only *temporal* fills are
    /// prefetch-tagged at the L2. Stride fills behave demand-like here
    /// (the stride prefetcher is part of the baseline, so its hits must
    /// not train the temporal prefetcher), while still being attributed
    /// to the stride engine in their metadata word.
    ///
    /// The victim leaves the residency table.
    fn fill_l2(
        &mut self,
        core_idx: usize,
        pc: Pc,
        line: LineAddr,
        source: FillSource,
        ready: Cycle,
    ) {
        let core = &mut self.cores[core_idx];
        let tagged = source == FillSource::Temporal;
        let out = core.l2.fill_at(line, Some(pc), source, tagged, ready);
        core.stats.l2_fills += 1;
        if let Some(ev) = out.evicted {
            core.resident.clear_l2(ev.line);
            // The victim holds its frame until the replacement's data
            // lands, so the incoming fill's completion time is the
            // eviction's effective cycle.
            Self::settle_l2_eviction(core, &ev, ready);
        }
        if tagged {
            core.stats.temporal_fills += 1;
        }
    }

    /// Attributes a dying L2 line and notifies the temporal prefetcher,
    /// handing it the line's full metadata word plus the eviction's
    /// effective cycle and fill-clock ordinal (the eviction-training
    /// inputs).
    fn settle_l2_eviction(core: &mut CoreMem, ev: &EvictedLine, evict_cycle: Cycle) {
        if ev.source == FillSource::Temporal && ev.was_unused_prefetch {
            core.stats.temporal_wasted += 1;
        }
        let notice = EvictNotice {
            line: ev.line,
            meta: ev.meta(),
            was_unused_prefetch: ev.was_unused_prefetch,
            evict_cycle,
            evict_seq: ev.evict_seq,
            fill_pc: ev.fill_pc,
        };
        #[cfg(test)]
        if let Some(log) = &mut core.crossings {
            log.push(Crossing::Evict(notice));
        }
        core.temporal.on_l2_evict(&notice);
    }

    /// Trains the stride prefetcher (every L1 access) and issues its
    /// prefetches into L1+L2.
    fn train_stride(&mut self, core_idx: usize, pc: Pc, line: LineAddr, t: Cycle) {
        let mut reqs = std::mem::take(&mut self.cores[core_idx].req_buf);
        reqs.clear();
        {
            let core = &mut self.cores[core_idx];
            let ev = TrainEvent {
                pc,
                line,
                kind: TrainKind::L1Access,
                cycle: t,
                l2_fills: core.stats.l2_fills,
            };
            let view = ViewPair {
                l2: &core.l2,
                l3: &self.l3,
            };
            // Inherent generic method: monomorphizes over `ViewPair`.
            core.stride.handle(&ev, &view, &mut reqs);
        }
        for req in &reqs {
            self.issue_prefetch(core_idx, *req, t, false);
        }
        self.cores[core_idx].req_buf = reqs;
    }

    /// Trains the temporal prefetcher and issues its prefetches into L2.
    fn train_temporal(
        &mut self,
        core_idx: usize,
        pc: Pc,
        line: LineAddr,
        kind: TrainKind,
        t: Cycle,
    ) {
        let mut reqs = std::mem::take(&mut self.cores[core_idx].req_buf);
        reqs.clear();
        {
            let core = &mut self.cores[core_idx];
            let ev = TrainEvent {
                pc,
                line,
                kind,
                cycle: t,
                l2_fills: core.stats.l2_fills,
            };
            let view = ViewPair {
                l2: &core.l2,
                l3: &self.l3,
            };
            core.temporal.on_event(&ev, &view, &mut reqs);
            #[cfg(test)]
            if let Some(log) = &mut core.crossings {
                log.push(Crossing::Event(ev, reqs.clone()));
            }
        }
        for req in &reqs {
            self.issue_prefetch(core_idx, *req, t, true);
        }
        self.cores[core_idx].req_buf = reqs;
        self.update_partition();
    }

    /// Issues one prefetch request (stride fills L1 too; temporal fills
    /// only the L2, as in the paper).
    ///
    /// A request for a line the residency table knows is already where
    /// the request would put it returns before probing any cache (see
    /// [`CoreMem`]).
    fn issue_prefetch(&mut self, core_idx: usize, req: PrefetchRequest, t: Cycle, temporal: bool) {
        let t = t + req.issue_delay;
        let source = if temporal {
            FillSource::Temporal
        } else {
            FillSource::Stride
        };
        let core = &mut self.cores[core_idx];
        let known = core.resident.lookup(req.line);
        if let Some(in_l1) = known {
            debug_assert!(core.l2.contains(req.line), "residency table: not in the L2");
            debug_assert!(
                !in_l1 || core.l1.contains(req.line),
                "residency table: not in the L1"
            );
            if in_l1 || temporal {
                return;
            }
        }
        if known.is_some() || core.l2.contains(req.line) {
            if !temporal && !core.l1.contains(req.line) {
                core.fill_l1(req.line, req.pc, true);
            }
            core.resident.record(req.line, !temporal);
            return;
        }
        core.mshr.retire_until(t);
        if core.mshr.is_full() {
            core.stats.prefetches_dropped += 1;
            return;
        }
        // A line the L2 evicted before its prefetch's data arrived is
        // still in flight: the request merges into that miss, and the
        // line is installed again, ready when the miss completes.
        let ready = match core.mshr.merge(req.line, true) {
            Some(in_flight) => in_flight,
            None => {
                let l3_lat = self.l3_lat;
                let t = self.arbitrate_l3(t, req.line);
                let l3_hit = self.l3.access(req.line, Some(req.pc), true).hit;
                let ready = if l3_hit {
                    t + l3_lat
                } else {
                    let fetched = self
                        .dram
                        .request_line(t + l3_lat, req.line.index(), true)
                        .completes_at;
                    self.fill_l3(req.line, req.pc, source);
                    fetched
                };
                self.cores[core_idx].mshr.allocate(req.line, ready, true);
                ready
            }
        };
        self.fill_l2(core_idx, req.pc, req.line, source, ready);
        let core = &mut self.cores[core_idx];
        if !temporal {
            core.fill_l1(req.line, req.pc, true);
        }
        core.resident.record(req.line, !temporal);
    }

    /// Applies the prefetchers' partition wishes to the L3 data mask
    /// (shared partition: the maximum wish wins).
    fn update_partition(&mut self) {
        let want = self
            .cores
            .iter()
            .map(|c| c.temporal.desired_markov_ways())
            .max()
            .unwrap_or(0)
            .min(self.cfg.max_markov_ways);
        if want != self.markov_ways {
            self.markov_ways = want;
            let total = self.cfg.l3.ways();
            let mask = all_ways(total) & !all_ways(want);
            let _flushed = self.l3.set_way_mask(mask);
        }
    }

    /// Resets all measurement counters (after warm-up), keeping cache
    /// and predictor state.
    pub fn reset_measurement(&mut self) {
        for core in &mut self.cores {
            core.l1.reset_stats();
            core.l2.reset_stats();
            core.stats = CoreStats::default();
            core.pf_snapshot = core.temporal.stats();
        }
        self.l3.reset_stats();
        self.dram.reset_stats();
    }

    /// Per-core accuracy/traffic counters.
    pub fn core_stats(&self, core_idx: usize) -> CoreStats {
        self.cores[core_idx].stats
    }

    /// Per-core L2 statistics.
    pub fn l2_stats(&self, core_idx: usize) -> triangel_cache::CacheStats {
        self.cores[core_idx].l2.stats()
    }

    /// Shared L3 statistics.
    pub fn l3_stats(&self) -> triangel_cache::CacheStats {
        self.l3.stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> triangel_mem::DramStats {
        self.dram.stats()
    }

    /// Temporal-prefetcher statistics since the last measurement reset.
    pub fn prefetcher_stats(&self, core_idx: usize) -> PrefetcherStats {
        let now = self.cores[core_idx].temporal.stats();
        let snap = self.cores[core_idx].pf_snapshot;
        PrefetcherStats {
            prefetches_issued: now.prefetches_issued - snap.prefetches_issued,
            markov_reads: now.markov_reads - snap.markov_reads,
            markov_writes: now.markov_writes - snap.markov_writes,
            mrb_hits: now.mrb_hits - snap.mrb_hits,
            updates_suppressed: now.updates_suppressed - snap.updates_suppressed,
        }
    }

    /// The temporal prefetcher's display name.
    pub fn prefetcher_name(&self, core_idx: usize) -> &str {
        self.cores[core_idx].temporal.name()
    }

    /// The temporal prefetcher's named internal counters.
    pub fn prefetcher_probe(&self, core_idx: usize) -> triangel_obs::ProbeSet {
        let mut out = triangel_obs::ProbeSet::new();
        self.cores[core_idx].temporal.probe(&mut out);
        out
    }

    /// The temporal prefetcher's Markov `(occupancy, capacity)` in
    /// entries; `(0, 0)` without a Markov table.
    pub fn markov_occupancy(&self, core_idx: usize) -> (u64, u64) {
        self.cores[core_idx].temporal.markov_occupancy()
    }

    /// L3 ways the temporal prefetcher currently wants.
    pub fn desired_markov_ways(&self, core_idx: usize) -> usize {
        self.cores[core_idx].temporal.desired_markov_ways()
    }

    /// The temporal prefetcher's Set-Dueller counters, if it has one.
    pub fn dueller_counters(&self, core_idx: usize) -> Option<[u64; 9]> {
        self.cores[core_idx].temporal.dueller_counters()
    }

    /// Exports the whole hierarchy's named counters: per-core L2,
    /// accuracy bookkeeping and prefetcher internals under `core<i>.`,
    /// then the shared L3, DRAM and Markov partition allocation.
    pub fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        for (i, core) in self.cores.iter().enumerate() {
            out.scoped(&format!("core{i}"), |out| {
                out.scoped("l2", |out| {
                    triangel_obs::Probe::probe(&core.l2.stats(), out);
                });
                out.scoped("stats", |out| {
                    triangel_obs::Probe::probe(&core.stats, out);
                });
                out.scoped("pf", |out| core.temporal.probe(out));
            });
        }
        out.scoped("l3", |out| {
            triangel_obs::Probe::probe(&self.l3.stats(), out);
        });
        out.scoped("dram", |out| {
            triangel_obs::Probe::probe(&self.dram.stats(), out);
        });
        out.record("markov_ways", self.markov_ways as u64);
    }

    /// Current Markov partition allocation (ways of the L3).
    pub fn markov_ways(&self) -> usize {
        self.markov_ways
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for CoreStats {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.temporal_fills);
        w.u64(self.temporal_used);
        w.u64(self.temporal_wasted);
        w.u64(self.prefetches_dropped);
        w.u64(self.l2_fills);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.temporal_fills = r.u64()?;
        self.temporal_used = r.u64()?;
        self.temporal_wasted = r.u64()?;
        self.prefetches_dropped = r.u64()?;
        self.l2_fills = r.u64()?;
        Ok(())
    }
}

impl Snapshot for CoreMem {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.l1.save(w)?;
        self.l2.save(w)?;
        self.mshr.save(w)?;
        self.stride.save(w)?;
        self.temporal.save(w)?;
        self.stats.save(w)?;
        self.pf_snapshot.save(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        // Emptied first: a restore that fails part-way may already
        // have replaced some lines.
        self.resident = ResidentTable::new();
        self.l1.restore(r)?;
        self.l2.restore(r)?;
        self.mshr.restore(r)?;
        self.stride.restore(r)?;
        self.temporal.restore(r)?;
        self.stats.restore(r)?;
        self.pf_snapshot.restore(r)
    }
}

impl Snapshot for MemorySystem {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.cores.len());
        for core in &self.cores {
            core.save(w)?;
        }
        self.l3.save(w)?;
        self.dram.save(w)?;
        w.usize(self.markov_ways);
        w.usize(self.l3_bank_free.len());
        for &free_at in &self.l3_bank_free {
            w.u64(free_at);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.cores.len(), "cores")?;
        for core in &mut self.cores {
            core.restore(r)?;
        }
        self.l3.restore(r)?;
        self.dram.restore(r)?;
        self.markov_ways = r.usize()?;
        r.expect_len(self.l3_bank_free.len(), "l3 banks")?;
        for free_at in &mut self.l3_bank_free {
            *free_at = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefetcherChoice;
    use triangel_types::rng::SplitMix64;

    /// Walks every residency-table entry against the caches it
    /// describes; returns how many entries carry the L1 bit.
    fn check_resident_tables(sys: &MemorySystem) -> usize {
        let mut with_l1 = 0;
        for (i, core) in sys.cores.iter().enumerate() {
            let table = &core.resident;
            for (s, &x) in table.lines.iter().enumerate() {
                let in_l1 = table.in_l1 & (1 << s) != 0;
                if x == !(s as u64) {
                    assert!(!in_l1, "core {i} slot {s}: empty slot has the L1 bit");
                    continue;
                }
                let line = LineAddr::new(x);
                assert_eq!(ResidentTable::slot(line), s, "core {i}: {x} in slot {s}");
                assert!(core.l2.contains(line), "core {i} slot {s}: {x} not in L2");
                assert!(
                    !in_l1 || core.l1.contains(line),
                    "core {i} slot {s}: {x} not in L1"
                );
                with_l1 += usize::from(in_l1);
            }
        }
        with_l1
    }

    /// One access stream of the mix: a PC walking lines by a stride.
    struct Stream {
        pc: Pc,
        start: u64,
        line: u64,
        stride: i64,
    }

    /// Drives `sys` with a seeded mix of positive and negative strides,
    /// strides that are multiples of 64 (one table slot for every
    /// line), a cyclic pointer chase for the temporal prefetchers,
    /// random lines, and a descending stream that runs into line 0.
    /// Checks every table entry after every demand access and returns
    /// the largest number of L1-bit entries seen at one check.
    fn drive_and_check(mut sys: MemorySystem, seed: u64, accesses: usize) -> usize {
        let mut rng = SplitMix64::new(seed);
        let mut streams: Vec<Stream> = [1, -1, 3, -5, 64, -64, 192, -128, -1]
            .iter()
            .enumerate()
            .map(|(i, &stride)| {
                // The last stream starts just above line 0.
                let start = if i == 8 { 40 } else { (i as u64 + 1) << 16 };
                Stream {
                    pc: Pc::new(0x100 + i as u64),
                    start,
                    line: start,
                    stride,
                }
            })
            .collect();
        let chase: Vec<u64> = (0..96).map(|_| rng.next_below(1 << 18)).collect();
        let mut chase_pos = 0;
        let mut t: Cycle = 0;
        let mut most_with_l1 = 0;
        for n in 0..accesses {
            let (pc, line) = match rng.next_below(12) {
                0..=5 => {
                    let k = rng.next_below(streams.len() as u64) as usize;
                    let s = &mut streams[k];
                    let line = s.line;
                    s.line = line.checked_add_signed(s.stride).unwrap_or(s.start);
                    (s.pc, line)
                }
                6..=9 => {
                    chase_pos = (chase_pos + 1) % chase.len();
                    (Pc::new(0x200), chase[chase_pos])
                }
                _ => (Pc::new(0x300 + rng.next_below(4)), rng.next_below(1 << 20)),
            };
            let ready = sys.demand_access(0, pc, LineAddr::new(line), t);
            t = if rng.next_below(4) == 0 {
                ready
            } else {
                t + 1 + rng.next_below(40)
            };
            most_with_l1 = most_with_l1.max(check_resident_tables(&sys));
            if n == accesses / 2 {
                // A restore empties the table, and the run goes on from
                // the restored state.
                let mut w = SnapWriter::new();
                sys.save(&mut w).unwrap();
                let bytes = w.into_bytes();
                let mut r = SnapReader::new(&bytes);
                sys.restore(&mut r).unwrap();
                r.finish().unwrap();
                assert!(sys.cores.iter().all(|c| c.resident == ResidentTable::new()));
            }
        }
        most_with_l1
    }

    #[test]
    fn residency_table_matches_the_caches() {
        for seed in [1, 2, 3] {
            let choices = [
                PrefetcherChoice::Baseline,
                PrefetcherChoice::TriageDeg4,
                PrefetcherChoice::Triangel,
            ];
            for choice in choices {
                let sys = MemorySystem::with_prefetchers(
                    SystemConfig::tiny(),
                    vec![choice.build_impl(10_000)],
                );
                let name = sys.prefetcher_name(0).to_string();
                let most_with_l1 = drive_and_check(sys, seed, 20_000);
                // Not vacuous: the stride streams filled the table.
                assert!(most_with_l1 >= 8, "{name} seed {seed}: {most_with_l1}");
            }
        }
    }
}
