//! The in-L3 Markov table.

use crate::format::TargetFormat;
use crate::lut::LookupTable;
use triangel_cache::replacement::{
    all_ways, AccessMeta, Fifo, HawkEye, HawkEyeConfig, Lru, PolicyKind, Random, ReplacementPolicy,
    Rrip, RripMode, TreePlru,
};
use triangel_types::arena::SetArena;
use triangel_types::{xor_fold, LineAddr, Pc};

/// Geometry and policy of the Markov table.
#[derive(Debug, Clone, Copy)]
pub struct MarkovTableConfig {
    /// Number of L3 cache sets backing the partition (2048 for the
    /// paper's 2 MiB 16-way L3).
    pub sets: usize,
    /// Maximum ways the partition may claim (8 = half the L3).
    pub max_ways: usize,
    /// Entry format.
    pub format: TargetFormat,
    /// Lookup-address hashed-tag width. The paper evaluates 7 bits
    /// (Triage-ISR) as insufficient and uses 10 (Section 3.1 fn. 3).
    pub tag_bits: u32,
    /// Replacement among the entries of one line: Triage uses HawkEye,
    /// Triangel SRRIP (Section 5). Consulted by
    /// [`MarkovTableImpl::new`]; tables built directly through
    /// [`MarkovTable::with_policy`] use the policy they are given.
    pub replacement: PolicyKind,
}

impl MarkovTableConfig {
    /// Triangel's table: 42-bit direct entries, SRRIP (Sections 4.3, 5).
    pub fn triangel() -> Self {
        MarkovTableConfig {
            sets: 2048,
            max_ways: 8,
            format: TargetFormat::Direct42,
            tag_bits: 10,
            replacement: PolicyKind::Srrip,
        }
    }

    /// Our fixed Triage baseline: 32-bit LUT entries, HawkEye
    /// (Sections 3.1, 3.3).
    pub fn triage() -> Self {
        MarkovTableConfig {
            sets: 2048,
            max_ways: 8,
            format: TargetFormat::triage_default(),
            tag_bits: 10,
            replacement: PolicyKind::Hawkeye,
        }
    }

    /// Entry capacity at full partition allocation — the `MaxSize` used
    /// by ReuseConf and the samplers (196 608 for Triangel's 1 MiB).
    pub fn max_capacity_entries(&self) -> usize {
        self.sets * self.max_ways * self.format.entries_per_line()
    }
}

/// A successful Markov lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovHit {
    /// Reconstructed prefetch target.
    pub target: LineAddr,
    /// The entry's confidence bit.
    pub confidence: bool,
}

/// Event counts for the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkovTableStats {
    /// Lookup accesses that reached the partition.
    pub reads: u64,
    /// Training writes to the partition.
    pub writes: u64,
    /// Entries displaced by replacement.
    pub entry_evictions: u64,
    /// Partition resizes.
    pub resizes: u64,
    /// Entries dropped during resize re-indexing (Section 3.2).
    pub reindex_drops: u64,
}

impl MarkovTableStats {
    /// Total partition accesses (for Fig. 14 / energy accounting).
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

impl triangel_obs::Probe for MarkovTableStats {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("reads", self.reads);
        out.record("writes", self.writes);
        out.record("entry_evictions", self.entry_evictions);
        out.record("resizes", self.resizes);
        out.record("reindex_drops", self.reindex_drops);
    }
}

/// The decoded view of an entry's target field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoredTarget {
    /// The target line index itself (Direct42, Ideal32).
    Direct(u64),
    /// A lookup-table slot plus the explicitly stored low bits.
    Lut { idx: u16, offset: u32 },
}

/// [`EntrySlot`]'s confidence bit.
const CONF: u64 = 1 << 63;
/// [`EntrySlot`]'s format bit: the target is a LUT reference.
const LUT_TARGET: u64 = 1 << 62;
/// [`EntrySlot`]'s target field: the low 62 bits. A direct target
/// stores its line index there (every line index of a 64-bit byte
/// address fits in 58 bits); a LUT target stores `idx << 32 | offset`.
const TARGET_MASK: u64 = LUT_TARGET - 1;

/// The per-entry payload stored next to the arena tag, packed into one
/// word (8 B, down from 24 B as a `bool` plus a [`StoredTarget`] enum):
/// the confidence bit, the LUT/direct bit, then the target field. A
/// Triangel table's arena is then 10 B per entry with its `u16` tag,
/// which matters because a profile of the SPEC sweep spends about a
/// seventh of its samples in the Markov table and its arena, mostly
/// waiting on host memory. The zero word is the canonical empty
/// payload (`Direct(0)`, unconfident).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EntrySlot(u64);

const _: () = assert!(std::mem::size_of::<EntrySlot>() == 8);

impl EntrySlot {
    fn new(conf: bool, target: StoredTarget) -> Self {
        let field = match target {
            StoredTarget::Direct(t) => {
                debug_assert!(t <= TARGET_MASK, "direct target wider than 62 bits");
                t
            }
            StoredTarget::Lut { idx, offset } => LUT_TARGET | (idx as u64) << 32 | offset as u64,
        };
        EntrySlot(if conf { CONF } else { 0 } | field)
    }

    fn conf(self) -> bool {
        self.0 & CONF != 0
    }

    fn with_conf(self, conf: bool) -> Self {
        EntrySlot(if conf { self.0 | CONF } else { self.0 & !CONF })
    }

    fn target(self) -> StoredTarget {
        let field = self.0 & TARGET_MASK;
        if self.0 & LUT_TARGET == 0 {
            StoredTarget::Direct(field)
        } else {
            StoredTarget::Lut {
                idx: (field >> 32) as u16,
                offset: field as u32,
            }
        }
    }
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

/// The snapshot keeps the unpacked byte format: confidence, a target
/// discriminant, then the direct index or the LUT index and offset.
impl Snapshot for EntrySlot {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.conf());
        match self.target() {
            StoredTarget::Direct(t) => {
                w.u8(0);
                w.u64(t);
            }
            StoredTarget::Lut { idx, offset } => {
                w.u8(1);
                w.u16(idx);
                w.u32(offset);
            }
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let conf = r.bool()?;
        let target = match r.u8()? {
            0 => {
                let t = r.u64()?;
                snap_check(t <= TARGET_MASK, "direct target wider than 62 bits")?;
                StoredTarget::Direct(t)
            }
            1 => StoredTarget::Lut {
                idx: r.u16()?,
                offset: r.u32()?,
            },
            b => return Err(SnapError::corrupt(format!("stored-target byte {b}"))),
        };
        *self = EntrySlot::new(conf, target);
        Ok(())
    }
}

/// The Markov table: `sets x max_ways` cache lines, each holding
/// `entries_per_line` independently tagged entries.
///
/// Indexing follows Section 3.2: the L3 set comes from the lookup
/// address, the way (sub-set) from `tag-# % partition_ways`, and the
/// entries within the selected line are fully searched (16-way
/// associative for one line fetch). Resizing the partition changes the
/// sub-set function, so the whole table is re-indexed and overflow is
/// dropped.
///
/// Storage is a [`SetArena`] with one arena set per table *line*
/// (`sets * max_ways` lines of `entries_per_line` slots), so a lookup
/// probes one contiguous tag slice plus a validity mask — the SRAM
/// line-fetch the paper describes. The replacement policy is a type
/// parameter, monomorphizing its `on_hit`/`victim` bookkeeping into
/// the probe; the shipped combinations have the aliases
/// [`TriageMarkov`] and [`TriangelMarkov`], and runtime policy
/// selection goes through [`MarkovTableImpl`].
#[derive(Debug)]
pub struct MarkovTable<P: ReplacementPolicy> {
    cfg: MarkovTableConfig,
    set_bits: u32,
    ways: usize,
    entries: SetArena<EntrySlot>,
    repl: P,
    lut: Option<LookupTable>,
    stats: MarkovTableStats,
}

/// Triage's Markov table: HawkEye entry replacement (Section 3.3).
pub type TriageMarkov = MarkovTable<HawkEye>;

/// Triangel's Markov table: (S)RRIP entry replacement (Section 5).
pub type TriangelMarkov = MarkovTable<Rrip>;

impl<P: ReplacementPolicy> MarkovTable<P> {
    /// Creates an empty table with a zero-way (inactive) partition,
    /// using `repl` for entry replacement.
    ///
    /// `repl` must have been constructed for `sets * max_ways`
    /// replacement sets of `entries_per_line` ways (what
    /// [`MarkovTableImpl::new`] does from
    /// [`MarkovTableConfig::replacement`]).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `max_ways` is zero.
    pub fn with_policy(cfg: MarkovTableConfig, repl: P) -> Self {
        assert!(
            cfg.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            cfg.max_ways > 0,
            "partition needs at least one potential way"
        );
        let epl = cfg.format.entries_per_line();
        let lines = cfg.sets * cfg.max_ways;
        let lut = match cfg.format {
            TargetFormat::Lut { assoc, .. } => Some(LookupTable::new(assoc)),
            _ => None,
        };
        MarkovTable {
            cfg,
            set_bits: cfg.sets.trailing_zeros(),
            ways: 0,
            entries: SetArena::new(lines, epl),
            repl,
            lut,
            stats: MarkovTableStats::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MarkovTableConfig {
        &self.cfg
    }

    /// Current partition ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Current entry capacity.
    pub fn capacity_entries(&self) -> usize {
        self.cfg.sets * self.ways * self.cfg.format.entries_per_line()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MarkovTableStats {
        self.stats
    }

    /// Access to the lookup table (for diagnostics), if the format has
    /// one.
    pub fn lut(&self) -> Option<&LookupTable> {
        self.lut.as_ref()
    }

    fn tag_of(&self, line: LineAddr) -> u16 {
        xor_fold(line.index() >> self.set_bits, self.cfg.tag_bits) as u16
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() as usize) & (self.cfg.sets - 1)
    }

    /// The physical line (replacement set index) a lookup address maps
    /// to under the current partition size, or `None` when inactive.
    fn line_index(&self, line: LineAddr) -> Option<usize> {
        if self.ways == 0 {
            return None;
        }
        let tag = self.tag_of(line) as usize;
        let way = tag % self.ways;
        Some(self.set_of(line) * self.cfg.max_ways + way)
    }

    fn encode_target(&mut self, target: LineAddr) -> StoredTarget {
        match self.cfg.format {
            TargetFormat::Direct42 => {
                // 31-bit field: 128 GB of physical space (Section 4.3).
                StoredTarget::Direct(target.index() & ((1 << 31) - 1))
            }
            TargetFormat::Ideal32 => StoredTarget::Direct(target.index() & TARGET_MASK),
            TargetFormat::Lut { offset_bits, .. } => {
                let offset = (target.index() & ((1 << offset_bits) - 1)) as u32;
                let upper = target.index() >> offset_bits;
                let idx = self
                    .lut
                    .as_mut()
                    .expect("LUT format has a LUT")
                    .index_for(upper);
                StoredTarget::Lut { idx, offset }
            }
        }
    }

    /// Reconstructs a stored target without touching LUT replacement
    /// state or statistics (the read-only decode `peek`, `train` and
    /// `train_on_evict` share).
    fn peek_target(&self, stored: StoredTarget) -> Option<LineAddr> {
        match (stored, self.cfg.format) {
            (StoredTarget::Direct(t), _) => Some(LineAddr::new(t)),
            (StoredTarget::Lut { idx, offset }, TargetFormat::Lut { offset_bits, .. }) => self
                .lut
                .as_ref()
                .and_then(|l| l.upper_at(idx))
                .map(|u| LineAddr::new((u << offset_bits) | offset as u64)),
            (StoredTarget::Lut { .. }, _) => unreachable!("LUT target under non-LUT format"),
        }
    }

    fn decode_target(&mut self, stored: StoredTarget) -> Option<LineAddr> {
        match (stored, self.cfg.format) {
            (StoredTarget::Direct(t), _) => Some(LineAddr::new(t)),
            (StoredTarget::Lut { idx, offset }, TargetFormat::Lut { offset_bits, .. }) => {
                let lut = self.lut.as_mut().expect("LUT format has a LUT");
                let upper = lut.upper_at(idx)?;
                lut.touch(idx);
                // If the slot was re-used since training, this silently
                // reconstructs the *wrong* region — Fig. 19's inaccuracy.
                Some(LineAddr::new((upper << offset_bits) | offset as u64))
            }
            (StoredTarget::Lut { .. }, _) => unreachable!("LUT target under non-LUT format"),
        }
    }

    /// Looks up the prefetch target recorded for `line`, counting one
    /// partition access.
    pub fn lookup(&mut self, line: LineAddr) -> Option<MarkovHit> {
        let line_idx = self.line_index(line)?;
        self.stats.reads += 1;
        let tag = self.tag_of(line);
        let way = self.entries.find(line_idx, tag)?;
        let meta = AccessMeta::prefetch(line, None);
        self.repl.on_hit(line_idx, way, &meta);
        let slot = *self.entries.payload(line_idx, way);
        let target = self.decode_target(slot.target())?;
        Some(MarkovHit {
            target,
            confidence: slot.conf(),
        })
    }

    /// Peeks without counting an access or updating replacement (used by
    /// the Metadata Reuse Buffer's update-suppression check).
    pub fn peek(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        let line_idx = self.line_index(line)?;
        let tag = self.tag_of(line);
        let way = self.entries.find(line_idx, tag)?;
        let slot = self.entries.payload(line_idx, way);
        Some((self.peek_target(slot.target())?, slot.conf()))
    }

    /// Trains the pair `(prev -> next)`, counting one partition access.
    ///
    /// Confidence-bit protocol (Section 3.4, following the public
    /// implementation): retraining with the same target sets confidence;
    /// a different target clears a set bit first and only replaces once
    /// the bit is clear.
    pub fn train(&mut self, prev: LineAddr, next: LineAddr, pc: Pc) {
        let Some(line_idx) = self.line_index(prev) else {
            return;
        };
        self.stats.writes += 1;
        let tag = self.tag_of(prev);
        let meta = AccessMeta::demand(prev, Some(pc));

        // Existing entry?
        if let Some(way) = self.entries.find(line_idx, tag) {
            let slot = *self.entries.payload(line_idx, way);
            let current = self.peek_target(slot.target());
            let same = current == Some(self.canonical_target(next));
            let updated = if same {
                slot.with_conf(true)
            } else if slot.conf() {
                slot.with_conf(false)
            } else {
                EntrySlot::new(false, self.encode_target(next))
            };
            *self.entries.payload_mut(line_idx, way) = updated;
            self.repl.on_hit(line_idx, way, &meta);
            return;
        }

        // Allocate: empty slot first, else policy victim.
        let epl = self.cfg.format.entries_per_line();
        let way = self.entries.first_free(line_idx).unwrap_or_else(|| {
            let v = self.repl.victim(line_idx, all_ways(epl));
            self.stats.entry_evictions += 1;
            if self.entries.is_valid(line_idx, v) {
                let old_tag = self.entries.tag(line_idx, v);
                self.repl
                    .on_evict(line_idx, v, LineAddr::new(old_tag as u64));
            }
            v
        });
        let slot = EntrySlot::new(false, self.encode_target(next));
        self.entries.insert(line_idx, way, tag, slot);
        self.repl.on_fill(line_idx, way, &meta);
    }

    /// Eviction-time entry update: the line prefetched from `prev`'s
    /// entry just left the L2, and `used` says whether a demand touched
    /// it first.
    ///
    /// The update extends the confidence protocol with ground truth
    /// from the dying line instead of a conflicting retrain: a *used*
    /// death sets the confidence bit (the pair demonstrably produced a
    /// useful prefetch), a *wasted* death clears a set bit, and a
    /// wasted death of an already-unconfident pair drops the entry
    /// outright, freeing the slot for a live pattern. The entry is
    /// only touched while it still stores exactly the target that was
    /// prefetched — if training moved it on since the prefetch issued,
    /// the feedback is stale and the entry is left alone.
    ///
    /// Counts one partition write when an entry is updated. Returns
    /// whether an update happened.
    pub fn train_on_evict(&mut self, prev: LineAddr, target: LineAddr, used: bool) -> bool {
        let Some(line_idx) = self.line_index(prev) else {
            return false;
        };
        let tag = self.tag_of(prev);
        let Some(way) = self.entries.find(line_idx, tag) else {
            return false;
        };
        let slot = *self.entries.payload(line_idx, way);
        let canonical = self.canonical_target(target);
        if self.peek_target(slot.target()) != Some(canonical) {
            // Retrained since the prefetch issued: stale feedback.
            return false;
        }
        self.stats.writes += 1;
        if used || slot.conf() {
            *self.entries.payload_mut(line_idx, way) = slot.with_conf(used);
        } else {
            self.entries.take(line_idx, way);
            self.stats.entry_evictions += 1;
            self.repl.on_invalidate(line_idx, way);
        }
        true
    }

    /// What `target` will round-trip to under this format (for the
    /// same-target comparison): Direct42 truncates to 31 bits, Ideal32
    /// to the 62-bit target field.
    fn canonical_target(&self, target: LineAddr) -> LineAddr {
        match self.cfg.format {
            TargetFormat::Direct42 => LineAddr::new(target.index() & ((1 << 31) - 1)),
            TargetFormat::Ideal32 => LineAddr::new(target.index() & TARGET_MASK),
            _ => target,
        }
    }

    /// Resizes the partition, re-indexing surviving entries under the
    /// new sub-set function and dropping overflow. Returns `true` if the
    /// size changed.
    pub fn set_ways(&mut self, ways: usize) -> bool {
        let ways = ways.min(self.cfg.max_ways);
        if ways == self.ways {
            return false;
        }
        self.stats.resizes += 1;
        self.ways = ways;
        if ways == 0 {
            self.stats.reindex_drops += self.entries.occupancy() as u64;
            self.entries.clear();
            return true;
        }
        // Entries only move between the lines of their own L3 set, so
        // re-indexing one set at a time (in ascending line and entry
        // order) gives the same table as draining the whole partition
        // first, with a buffer of one set instead of every entry.
        let max_ways = self.cfg.max_ways;
        let mut old = Vec::with_capacity(max_ways * self.cfg.format.entries_per_line());
        for set in 0..self.cfg.sets {
            let lines = set * max_ways..(set + 1) * max_ways;
            for line in lines.clone() {
                self.entries.drain_set_into(line, &mut old);
            }
            for (tag, slot) in old.drain(..) {
                let new_line = lines.start + (tag as usize) % ways;
                match self.entries.first_free(new_line) {
                    Some(free) => self.entries.insert(new_line, free, tag, slot),
                    None => self.stats.reindex_drops += 1,
                }
            }
        }
        true
    }

    /// Number of valid entries currently stored.
    pub fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }
}

impl Snapshot for MarkovTableStats {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.reads);
        w.u64(self.writes);
        w.u64(self.entry_evictions);
        w.u64(self.resizes);
        w.u64(self.reindex_drops);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.reads = r.u64()?;
        self.writes = r.u64()?;
        self.entry_evictions = r.u64()?;
        self.resizes = r.u64()?;
        self.reindex_drops = r.u64()?;
        Ok(())
    }
}

impl<P: ReplacementPolicy + Snapshot> Snapshot for MarkovTable<P> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.ways);
        self.entries.save(w)?;
        self.repl.save(w)?;
        match &self.lut {
            Some(lut) => {
                w.bool(true);
                lut.save(w)?;
            }
            None => w.bool(false),
        }
        self.stats.save(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let ways = r.usize()?;
        snap_check(ways <= self.cfg.max_ways, "Markov ways above maximum")?;
        self.ways = ways;
        self.entries.restore(r)?;
        self.repl.restore(r)?;
        let has_lut = r.bool()?;
        snap_check(has_lut == self.lut.is_some(), "LUT presence mismatch")?;
        if let Some(lut) = &mut self.lut {
            lut.restore(r)?;
        }
        self.stats.restore(r)
    }
}

impl<P: ReplacementPolicy> triangel_obs::Probe for MarkovTable<P> {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("ways", self.ways() as u64);
        out.record("capacity_entries", self.capacity_entries() as u64);
        out.record("occupancy", self.occupancy() as u64);
        triangel_obs::Probe::probe(&self.stats(), out);
    }
}

/// Every shipped Markov-table/policy combination as one concrete value.
///
/// The prefetchers select their replacement policy at runtime (Triage
/// defaults to HawkEye, Triangel to SRRIP, and the Section 3.3
/// replacement sweep tries every policy), so they store the table as
/// this enum: one branch-predictable match at each table operation's
/// entry, then a fully monomorphized probe/train body — instead of a
/// virtual call per replacement-policy touch inside the entry scan.
#[derive(Debug)]
pub enum MarkovTableImpl {
    /// Least recently used.
    Lru(MarkovTable<Lru>),
    /// First in, first out.
    Fifo(MarkovTable<Fifo>),
    /// Uniform random.
    Random(MarkovTable<Random>),
    /// Tree pseudo-LRU.
    TreePlru(MarkovTable<TreePlru>),
    /// RRIP, static or bimodal (Triangel's table).
    Rrip(TriangelMarkov),
    /// HawkEye (Triage's table).
    Hawkeye(TriageMarkov),
}

/// Forwards a method body to the concrete table in each variant.
macro_rules! each_table {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            MarkovTableImpl::Lru($t) => $body,
            MarkovTableImpl::Fifo($t) => $body,
            MarkovTableImpl::Random($t) => $body,
            MarkovTableImpl::TreePlru($t) => $body,
            MarkovTableImpl::Rrip($t) => $body,
            MarkovTableImpl::Hawkeye($t) => $body,
        }
    };
}

impl MarkovTableImpl {
    /// Creates an empty table with a zero-way (inactive) partition,
    /// instantiating the policy selected by `cfg.replacement` with the
    /// same construction constants the caches use
    /// ([`PolicyKind::build_impl`]): the fixed `0xC0FFEE` seed for
    /// Random, static/bimodal mode for SRRIP/BRRIP, default HawkEye
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sets` is not a power of two or `cfg.max_ways` is
    /// zero.
    pub fn new(cfg: MarkovTableConfig) -> Self {
        let lines = cfg.sets * cfg.max_ways;
        let epl = cfg.format.entries_per_line();
        match cfg.replacement {
            PolicyKind::Lru => {
                MarkovTableImpl::Lru(MarkovTable::with_policy(cfg, Lru::new(lines, epl)))
            }
            PolicyKind::Fifo => {
                MarkovTableImpl::Fifo(MarkovTable::with_policy(cfg, Fifo::new(lines, epl)))
            }
            PolicyKind::Random => MarkovTableImpl::Random(MarkovTable::with_policy(
                cfg,
                Random::new(lines, epl, 0xC0FFEE),
            )),
            PolicyKind::TreePlru => {
                MarkovTableImpl::TreePlru(MarkovTable::with_policy(cfg, TreePlru::new(lines, epl)))
            }
            PolicyKind::Srrip => MarkovTableImpl::Rrip(MarkovTable::with_policy(
                cfg,
                Rrip::new(lines, epl, RripMode::Static),
            )),
            PolicyKind::Brrip => MarkovTableImpl::Rrip(MarkovTable::with_policy(
                cfg,
                Rrip::new(lines, epl, RripMode::Bimodal),
            )),
            PolicyKind::Hawkeye => MarkovTableImpl::Hawkeye(MarkovTable::with_policy(
                cfg,
                HawkEye::new(lines, epl, HawkEyeConfig::default()),
            )),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MarkovTableConfig {
        each_table!(self, t => t.config())
    }

    /// Current partition ways.
    pub fn ways(&self) -> usize {
        each_table!(self, t => t.ways())
    }

    /// Current entry capacity.
    pub fn capacity_entries(&self) -> usize {
        each_table!(self, t => t.capacity_entries())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MarkovTableStats {
        each_table!(self, t => t.stats())
    }

    /// Access to the lookup table (for diagnostics), if the format has
    /// one.
    pub fn lut(&self) -> Option<&LookupTable> {
        each_table!(self, t => t.lut())
    }

    /// Looks up the prefetch target recorded for `line` (see
    /// [`MarkovTable::lookup`]).
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<MarkovHit> {
        each_table!(self, t => t.lookup(line))
    }

    /// Peeks without counting an access or updating replacement (see
    /// [`MarkovTable::peek`]).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        each_table!(self, t => t.peek(line))
    }

    /// Trains the pair `(prev -> next)` (see [`MarkovTable::train`]).
    #[inline]
    pub fn train(&mut self, prev: LineAddr, next: LineAddr, pc: Pc) {
        each_table!(self, t => t.train(prev, next, pc))
    }

    /// Eviction-time entry update (see [`MarkovTable::train_on_evict`]).
    #[inline]
    pub fn train_on_evict(&mut self, prev: LineAddr, target: LineAddr, used: bool) -> bool {
        each_table!(self, t => t.train_on_evict(prev, target, used))
    }

    /// Resizes the partition (see [`MarkovTable::set_ways`]).
    pub fn set_ways(&mut self, ways: usize) -> bool {
        each_table!(self, t => t.set_ways(ways))
    }

    /// Number of valid entries currently stored.
    pub fn occupancy(&self) -> usize {
        each_table!(self, t => t.occupancy())
    }

    /// The snapshot discriminant for this policy variant.
    fn snap_tag(&self) -> u8 {
        match self {
            MarkovTableImpl::Lru(_) => 0,
            MarkovTableImpl::Fifo(_) => 1,
            MarkovTableImpl::Random(_) => 2,
            MarkovTableImpl::TreePlru(_) => 3,
            MarkovTableImpl::Rrip(_) => 4,
            MarkovTableImpl::Hawkeye(_) => 5,
        }
    }
}

impl Snapshot for MarkovTableImpl {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(self.snap_tag());
        each_table!(self, t => t.save(w))
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let tag = r.u8()?;
        snap_check(tag == self.snap_tag(), "Markov-table policy mismatch")?;
        each_table!(self, t => t.restore(r))
    }
}

impl triangel_obs::Probe for MarkovTableImpl {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        each_table!(self, t => triangel_obs::Probe::probe(t, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(format: TargetFormat) -> MarkovTableConfig {
        MarkovTableConfig {
            sets: 64,
            max_ways: 4,
            format,
            tag_bits: 10,
            replacement: PolicyKind::Lru,
        }
    }

    fn table(format: TargetFormat) -> MarkovTableImpl {
        let mut t = MarkovTableImpl::new(cfg(format));
        t.set_ways(4);
        t
    }

    #[test]
    fn train_then_lookup_roundtrip_direct() {
        let mut t = table(TargetFormat::Direct42);
        t.train(LineAddr::new(100), LineAddr::new(555), Pc::new(1));
        let hit = t.lookup(LineAddr::new(100)).unwrap();
        assert_eq!(hit.target, LineAddr::new(555));
        assert!(!hit.confidence);
    }

    #[test]
    fn train_then_lookup_roundtrip_lut() {
        let mut t = table(TargetFormat::triage_default());
        t.train(LineAddr::new(100), LineAddr::new(555), Pc::new(1));
        assert_eq!(
            t.lookup(LineAddr::new(100)).unwrap().target,
            LineAddr::new(555)
        );
    }

    #[test]
    fn confidence_protocol() {
        let mut t = table(TargetFormat::Direct42);
        let x = LineAddr::new(7);
        let (y, z) = (LineAddr::new(70), LineAddr::new(700));
        t.train(x, y, Pc::new(1));
        assert!(!t.lookup(x).unwrap().confidence);
        t.train(x, y, Pc::new(1)); // same target -> confident
        assert!(t.lookup(x).unwrap().confidence);
        t.train(x, z, Pc::new(1)); // different: clears bit, keeps y
        let h = t.lookup(x).unwrap();
        assert_eq!(h.target, y);
        assert!(!h.confidence);
        t.train(x, z, Pc::new(1)); // now replaces
        assert_eq!(t.lookup(x).unwrap().target, z);
    }

    #[test]
    fn inactive_partition_stores_nothing() {
        let mut t = MarkovTableImpl::new(cfg(TargetFormat::Direct42));
        t.train(LineAddr::new(1), LineAddr::new(2), Pc::new(1));
        assert!(t.lookup(LineAddr::new(1)).is_none());
        assert_eq!(t.stats().writes, 0);
    }

    #[test]
    fn lut_eviction_redirects_target() {
        // Fill the LUT set that upper(555) maps to until its slot is
        // re-used; the old pair must now reconstruct a different target.
        let mut t = table(TargetFormat::triage_default());
        let x = LineAddr::new(100);
        let y = LineAddr::new((5 << 11) | 123); // upper 5, offset 123
        t.train(x, y, Pc::new(1));
        // 16 new uppers in the same LUT set (uppers ≡ 5 mod 64).
        for k in 1..=16u64 {
            let upper = 5 + 64 * k;
            let prev = LineAddr::new(200 + k);
            let tgt = LineAddr::new((upper << 11) | 9);
            t.train(prev, tgt, Pc::new(2));
        }
        let h = t.lookup(x).unwrap();
        assert_ne!(h.target, y, "stale LUT index must reconstruct wrongly");
        // Offset bits survive; upper bits are someone else's.
        assert_eq!(h.target.index() & 0x7FF, 123);
    }

    #[test]
    fn resize_reindexes_entries() {
        let mut t = table(TargetFormat::Direct42);
        for k in 0..200u64 {
            t.train(LineAddr::new(k * 3), LineAddr::new(k * 3 + 1), Pc::new(1));
        }
        let before = t.occupancy();
        assert!(before > 100);
        t.set_ways(2);
        // Entries survive (modulo overflow drops) and remain findable.
        let mut found = 0;
        for k in 0..200u64 {
            if t.lookup(LineAddr::new(k * 3)).is_some() {
                found += 1;
            }
        }
        assert!(found > 50, "only {found} found after resize");
        assert!(t.stats().resizes >= 2); // initial activate + shrink
    }

    #[test]
    fn shrink_to_zero_drops_everything() {
        let mut t = table(TargetFormat::Direct42);
        t.train(LineAddr::new(5), LineAddr::new(6), Pc::new(1));
        t.set_ways(0);
        assert_eq!(t.occupancy(), 0);
        assert!(t.lookup(LineAddr::new(5)).is_none());
    }

    #[test]
    fn capacity_tracks_ways() {
        let mut t = table(TargetFormat::Direct42);
        assert_eq!(t.capacity_entries(), 64 * 4 * 12);
        t.set_ways(2);
        assert_eq!(t.capacity_entries(), 64 * 2 * 12);
    }

    #[test]
    fn eviction_under_pressure() {
        let mut t = table(TargetFormat::Direct42);
        // Hammer one line: same set (addr % 64), tags mapping to one way.
        let mut inserted = 0u64;
        for k in 0..2000u64 {
            let prev = LineAddr::new(k * 64); // set 0 for all
            t.train(prev, LineAddr::new(1), Pc::new(1));
            inserted += 1;
        }
        assert!(inserted > 0);
        assert!(t.stats().entry_evictions > 0);
        // Occupancy bounded by capacity of set 0 across its 4 ways.
        assert!(t.occupancy() <= 4 * 12);
    }

    #[test]
    fn train_on_evict_reinforces_used_deaths() {
        let mut t = table(TargetFormat::Direct42);
        let (x, y) = (LineAddr::new(7), LineAddr::new(70));
        t.train(x, y, Pc::new(1));
        assert!(!t.lookup(x).unwrap().confidence);
        assert!(t.train_on_evict(x, y, true));
        assert!(
            t.lookup(x).unwrap().confidence,
            "used death sets confidence"
        );
    }

    #[test]
    fn train_on_evict_weakens_then_drops_wasted_deaths() {
        let mut t = table(TargetFormat::Direct42);
        let (x, y) = (LineAddr::new(7), LineAddr::new(70));
        t.train(x, y, Pc::new(1));
        t.train(x, y, Pc::new(1)); // confident
        assert!(t.train_on_evict(x, y, false));
        let h = t.lookup(x).unwrap();
        assert_eq!(h.target, y, "first wasted death only clears the bit");
        assert!(!h.confidence);
        assert!(t.train_on_evict(x, y, false));
        assert!(
            t.lookup(x).is_none(),
            "second wasted death drops the discredited entry"
        );
        assert!(!t.train_on_evict(x, y, false), "nothing left to update");
    }

    #[test]
    fn train_on_evict_ignores_stale_feedback() {
        let mut t = table(TargetFormat::Direct42);
        let (x, y, z) = (LineAddr::new(7), LineAddr::new(70), LineAddr::new(700));
        t.train(x, y, Pc::new(1));
        t.train(x, z, Pc::new(1)); // entry now holds y unconfident... retrain moved on
        t.train(x, z, Pc::new(1)); // replaces with z
        assert!(
            !t.train_on_evict(x, y, false),
            "feedback about y must not touch the entry now holding z"
        );
        assert_eq!(t.lookup(x).unwrap().target, z);
    }

    #[test]
    fn train_on_evict_counts_partition_writes() {
        let mut t = table(TargetFormat::Direct42);
        let (x, y) = (LineAddr::new(7), LineAddr::new(70));
        t.train(x, y, Pc::new(1));
        let before = t.stats().writes;
        assert!(t.train_on_evict(x, y, true));
        assert_eq!(t.stats().writes, before + 1);
        // Inactive partition: no-op.
        let mut empty = MarkovTableImpl::new(cfg(TargetFormat::Direct42));
        assert!(!empty.train_on_evict(x, y, true));
        assert_eq!(empty.stats().writes, 0);
    }

    #[test]
    fn aliasing_same_set_and_tag_is_possible() {
        // Construct two addresses with identical set and tag hash: the
        // 10-bit hash cannot tell them apart, so the second trains over
        // the first — the collision behaviour fn. 3 discusses. Uses the
        // generic table directly so the private tag hash is reachable.
        let c = cfg(TargetFormat::Direct42);
        let lines = c.sets * c.max_ways;
        let epl = c.format.entries_per_line();
        let mut t = MarkovTable::with_policy(c, Lru::new(lines, epl));
        t.set_ways(4);
        let a = LineAddr::new(64); // set 0, upper 1
        let tag_a = t.tag_of(a);
        let mut b = None;
        for k in 2..10_000u64 {
            let cand = LineAddr::new(k * 64);
            if cand != a && t.tag_of(cand) == tag_a {
                b = Some(cand);
                break;
            }
        }
        let b = b.expect("collision exists");
        t.train(a, LineAddr::new(111), Pc::new(1));
        t.train(b, LineAddr::new(222), Pc::new(1));
        t.train(b, LineAddr::new(222), Pc::new(1));
        // `a` now sees b's target: indistinguishable alias.
        assert_eq!(t.lookup(a).unwrap().target, LineAddr::new(222));
    }

    #[test]
    fn policy_aliases_match_build_constants() {
        // The enum constructor must select the variant the config names.
        let mut c = cfg(TargetFormat::Direct42);
        for (kind, tag) in [
            (PolicyKind::Lru, 0u8),
            (PolicyKind::Fifo, 1),
            (PolicyKind::Random, 2),
            (PolicyKind::TreePlru, 3),
            (PolicyKind::Srrip, 4),
            (PolicyKind::Brrip, 4),
            (PolicyKind::Hawkeye, 5),
        ] {
            c.replacement = kind;
            assert_eq!(MarkovTableImpl::new(c).snap_tag(), tag, "{kind:?}");
        }
    }

    #[test]
    fn packed_entry_round_trips_at_its_edges() {
        let targets = [
            StoredTarget::Direct(0),
            StoredTarget::Direct((1 << 31) - 1), // largest Direct42 target
            StoredTarget::Direct(TARGET_MASK),   // full Ideal32 field
            StoredTarget::Lut { idx: 0, offset: 0 },
            StoredTarget::Lut {
                idx: 1023,
                offset: (1 << 11) - 1,
            },
            StoredTarget::Lut {
                idx: u16::MAX,
                offset: u32::MAX,
            },
        ];
        for target in targets {
            for conf in [false, true] {
                let slot = EntrySlot::new(conf, target);
                assert_eq!((slot.conf(), slot.target()), (conf, target));
                assert_eq!(slot.with_conf(!conf).target(), target);
                assert_eq!(slot.with_conf(!conf).conf(), !conf);
                let mut w = SnapWriter::new();
                slot.save(&mut w).unwrap();
                let bytes = w.into_bytes();
                let mut back = EntrySlot::default();
                let mut r = SnapReader::new(&bytes);
                back.restore(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(back, slot);
            }
        }
        assert_eq!(EntrySlot::default().target(), StoredTarget::Direct(0));
        assert!(!EntrySlot::default().conf());
    }

    #[test]
    fn formats_round_trip_their_widest_targets() {
        let prev = LineAddr::new(100);
        for (format, target) in [
            (TargetFormat::Direct42, (1u64 << 31) - 1),
            (TargetFormat::Ideal32, TARGET_MASK),
            (TargetFormat::triage_default(), (1 << 11) - 1),
        ] {
            let mut t = table(format);
            t.train(prev, LineAddr::new(target), Pc::new(1));
            t.train(prev, LineAddr::new(target), Pc::new(1));
            let hit = t.lookup(prev).unwrap();
            assert_eq!(hit.target.index(), target, "{format:?}");
            assert!(hit.confidence, "{format:?}");
        }
        // Filling the 16-way LUT's last set hands out index 1023; the
        // entry holding it, with the maximum offset, still round-trips.
        let mut t = table(TargetFormat::triage_default());
        for k in 0..16u64 {
            let upper = 63 + 64 * k;
            let target = upper << 11 | ((1 << 11) - 1);
            t.train(LineAddr::new(k), LineAddr::new(target), Pc::new(1));
            assert_eq!(t.lookup(LineAddr::new(k)).unwrap().target.index(), target);
        }
        assert_eq!(t.lut().unwrap().find(63 + 64 * 15), Some(1023));
    }

    #[test]
    fn restore_rejects_direct_targets_too_wide_to_pack() {
        let mut w = SnapWriter::new();
        w.bool(true);
        w.u8(0);
        w.u64(TARGET_MASK + 1);
        let bytes = w.into_bytes();
        let mut slot = EntrySlot::default();
        assert!(matches!(
            slot.restore(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_roundtrip_restores_behaviour() {
        let mut t = table(TargetFormat::triage_default());
        for k in 0..300u64 {
            t.train(LineAddr::new(k * 5), LineAddr::new(k * 5 + 2), Pc::new(k));
        }
        let mut w = SnapWriter::new();
        t.save(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut u = MarkovTableImpl::new(cfg(TargetFormat::triage_default()));
        let mut r = SnapReader::new(&bytes);
        u.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(t.occupancy(), u.occupancy());
        assert_eq!(t.ways(), u.ways());
        assert_eq!(t.stats(), u.stats());
        for k in 0..300u64 {
            assert_eq!(t.peek(LineAddr::new(k * 5)), u.peek(LineAddr::new(k * 5)));
        }
    }
}
