//! The set-associative cache model.

use crate::config::CacheConfig;
use crate::replacement::{all_ways, AccessMeta, ReplacementImpl, ReplacementPolicy, WayMask};
use std::cell::Cell;
use triangel_types::{Cycle, FillSource, LineAddr, LineMeta, Pc};

/// Bits of [`Line::state`] holding the fill ordinal; a cache's fill
/// clock must stay below `1 << FILL_SEQ_BITS` (2^56 fills — decades of
/// simulated time at any realistic fill rate).
const FILL_SEQ_BITS: u32 = 56;
const FILL_SEQ_MASK: u64 = (1 << FILL_SEQ_BITS) - 1;
const VALID: u64 = 1 << 56;
/// Prefetch tag bit: set when the line was filled by a prefetch and has
/// not yet been demanded. The first demand hit to such a line is a
/// "tagged prefetch hit" and trains temporal prefetchers exactly as a
/// miss would (Section 2 of the paper).
const TAGGED: u64 = 1 << 57;
/// Whether the line has been demand-accessed since fill; used to
/// classify evictions for accuracy accounting.
const USED: u64 = 1 << 58;
/// Two bits of [`FillSource`] (its snapshot tag) above the flags.
const SOURCE_SHIFT: u32 = 59;
/// `Line::fill_pc` value meaning "no PC". Engine PCs carry the core
/// index at bit 40 and stay far below it.
const NO_PC: u64 = u64::MAX;
/// [`Cache`]'s known-absent value meaning "no line". No line with this
/// index can be installed (a byte address's line index is below 2^58).
const NO_LINE: u64 = u64::MAX;

/// One cache line's bookkeeping state, including the simulation
/// metadata word ([`LineMeta`]) that used to live in `MemorySystem`
/// side tables: who filled the line, when the fill's data arrives, and
/// whether a demand has touched it since.
///
/// Packed into four words (32 B, down from 48 B as separate fields) and
/// kept array-of-structs, tag next to its metadata: a profile of the
/// SPEC sweep put the hottest load in the simulator at the victim-record
/// read in [`Cache::fill_at`] — host cache misses on line records — so
/// bytes per record matter, while splitting the tags into their own
/// array bought nothing.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: LineAddr,
    /// Cycle the fill's data arrives (late-prefetch timing).
    ready_at: Cycle,
    /// Ordinal of the fill that installed the line (the cache's fill
    /// clock at install time; see [`Cache`]'s `fill_clock`) in the low
    /// [`FILL_SEQ_BITS`], then the [`VALID`], [`TAGGED`] and [`USED`]
    /// flags and the fill source.
    state: u64,
    /// PC recorded at fill time, or [`NO_PC`].
    fill_pc: u64,
}

const _: () = assert!(std::mem::size_of::<Line>() == 32);

impl Line {
    const EMPTY: Line = Line {
        tag: LineAddr::new(0),
        ready_at: 0,
        state: 0,
        fill_pc: NO_PC,
    };

    fn pack_state(fill_seq: u64, valid: bool, tagged: bool, used: bool, source: FillSource) -> u64 {
        assert!(
            fill_seq <= FILL_SEQ_MASK,
            "fill ordinal overflows its field"
        );
        fill_seq
            | if valid { VALID } else { 0 }
            | if tagged { TAGGED } else { 0 }
            | if used { USED } else { 0 }
            | (source.snap_tag() as u64) << SOURCE_SHIFT
    }

    fn pack_pc(pc: Option<Pc>) -> u64 {
        assert!(
            pc != Some(Pc::new(NO_PC)),
            "PC collides with the no-PC sentinel"
        );
        pc.map_or(NO_PC, Pc::get)
    }

    fn valid(&self) -> bool {
        self.state & VALID != 0
    }

    fn tagged(&self) -> bool {
        self.state & TAGGED != 0
    }

    fn used(&self) -> bool {
        self.state & USED != 0
    }

    fn fill_seq(&self) -> u64 {
        self.state & FILL_SEQ_MASK
    }

    fn source(&self) -> FillSource {
        match (self.state >> SOURCE_SHIFT) & 3 {
            0 => FillSource::Demand,
            1 => FillSource::Stride,
            _ => FillSource::Temporal,
        }
    }

    fn set_source(&mut self, source: FillSource) {
        self.state = self.state & !(3 << SOURCE_SHIFT) | (source.snap_tag() as u64) << SOURCE_SHIFT;
    }

    fn fill_pc(&self) -> Option<Pc> {
        (self.fill_pc != NO_PC).then_some(Pc::new(self.fill_pc))
    }

    fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source(),
            ready_at: self.ready_at,
            used: self.used(),
            fill_seq: self.fill_seq(),
        }
    }

    fn to_evicted(self, evict_seq: u64) -> EvictedLine {
        EvictedLine {
            line: self.tag,
            was_unused_prefetch: self.tagged(),
            was_used: self.used(),
            source: self.source(),
            ready_at: self.ready_at,
            fill_seq: self.fill_seq(),
            evict_seq,
            fill_pc: self.fill_pc(),
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was present.
    pub hit: bool,
    /// The line was present, was filled by a prefetch, and this was its
    /// first demand use — a *tagged prefetch hit*.
    pub prefetch_hit: bool,
    /// The hit line's metadata word (as of after this access updated
    /// it); `None` on a miss.
    pub meta: Option<LineMeta>,
}

/// Describes a line displaced by a fill or invalidation, carrying its
/// final metadata word so used/wasted prefetch attribution happens
/// exactly where the line dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The displaced line address.
    pub line: LineAddr,
    /// The line was prefetched and never demand-used (a wasted prefetch).
    pub was_unused_prefetch: bool,
    /// The line was demand-used at least once while resident.
    pub was_used: bool,
    /// Who filled the line.
    pub source: FillSource,
    /// Cycle the line's fill completed (from its metadata word).
    pub ready_at: Cycle,
    /// Fill-clock ordinal of the fill that installed the dying line.
    pub fill_seq: u64,
    /// Fill-clock reading at the eviction itself. For a conflict
    /// eviction this is the incoming fill's own ordinal, so
    /// `fill_seq < evict_seq` holds strictly; invalidations and
    /// way-mask flushes read the clock without advancing it, so there
    /// `fill_seq <= evict_seq`.
    pub evict_seq: u64,
    /// PC recorded at fill time, if any.
    pub fill_pc: Option<Pc>,
}

impl EvictedLine {
    /// The dying line's metadata word.
    pub fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source,
            ready_at: self.ready_at,
            used: self.was_used,
            fill_seq: self.fill_seq,
        }
    }
}

/// Result of a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whatever line had to be displaced, if the fill replaced one.
    pub evicted: Option<EvictedLine>,
    /// The set the line was installed into.
    pub set: usize,
    /// The way the line was installed into.
    pub way: usize,
}

/// Running event counts for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Tagged prefetch hits (subset of `demand_hits`).
    pub prefetch_hits: u64,
    /// Prefetch lookups (to decide whether a prefetch is redundant).
    pub prefetch_lookups: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand hit rate in `[0, 1]`; zero when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }
}

impl triangel_obs::Probe for CacheStats {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("demand_hits", self.demand_hits);
        out.record("demand_misses", self.demand_misses);
        out.record("prefetch_hits", self.prefetch_hits);
        out.record("prefetch_lookups", self.prefetch_lookups);
        out.record("fills", self.fills);
        out.record("evictions", self.evictions);
    }
}

/// A set-associative cache with pluggable replacement, prefetch tag bits
/// and way masking (for the L3 Markov partition).
///
/// # Examples
///
/// ```
/// use triangel_cache::{Cache, CacheConfig};
/// use triangel_cache::replacement::PolicyKind;
/// use triangel_types::LineAddr;
///
/// let mut c = Cache::new(CacheConfig::new("L2", 512 * 1024, 8, PolicyKind::Lru));
/// let line = LineAddr::new(42);
/// assert!(!c.access(line, None, false).hit);
/// c.fill(line, None, true); // prefetch fill
/// let out = c.access(line, None, false);
/// assert!(out.hit && out.prefetch_hit); // first demand use of a prefetch
/// assert!(!c.access(line, None, false).prefetch_hit); // tag consumed
/// ```
///
/// # Derived state
///
/// Two fields are derived from the lines and way mask, never
/// serialized, and recomputed by [`restore`](Snapshot::restore); they
/// let a miss scan its set once instead of three times (lookup, the
/// fill's own lookup, the fill's invalid-way search):
///
/// * **Known-absent line.** A lookup that misses remembers its line.
///   Only installing that same line can make it resident, so until
///   then `find` and `fill_at` answer "absent" without scanning.
///   [`set_way_mask`](Cache::set_way_mask) and `restore` forget it.
/// * **Invalid lines inside the way mask**, counted over all sets. An
///   install into an invalid way decrements it, an invalidation inside
///   the mask increments it, and `set_way_mask` and `restore` recount
///   it. While it is 0 every eligible way in every set holds a valid
///   line, so `fill_at` goes straight to the victim.
///
/// Debug builds cross-check both against the set on every fill.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Enum-dispatched so victim selection inlines into the set scan
    /// (no virtual call per access).
    policy: ReplacementImpl,
    way_mask: WayMask,
    stats: CacheStats,
    /// Monotonic fill clock: incremented on every installing fill and
    /// stamped onto the installed line. Deliberately *not* part of
    /// [`CacheStats`] — `reset_stats` must never rewind it, or fill
    /// ordinals from before a measurement reset would compare wrongly
    /// against evictions after it.
    fill_clock: u64,
    /// Set-index mask cached out of `cfg` — `CacheConfig::sets`
    /// divides, and the hot path indexes on every access.
    set_mask: u32,
    /// Invalid lines in ways inside `way_mask`, over all sets.
    invalid_in_mask: u32,
    /// Index of the line the latest missing lookup scanned for, if it
    /// has not been installed since, else [`NO_LINE`] (see "Derived
    /// state"). A `Cell` because the read-only lookups (`contains`,
    /// `line_meta`) set it too. It and the two `u32`s above fit in the
    /// bytes a `usize` ways and set mask would take: a larger `Cache`
    /// shifts the simulator's heap layout, which on `spec_sweep` raised
    /// perfbench's peak RSS by 1 MiB with no more live memory.
    known_absent: Cell<u64>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the cache has 2^32 lines or more.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways();
        let lines = u32::try_from(sets * ways).expect("cache has fewer than 2^32 lines");
        let policy = cfg.policy().build_impl(sets, ways);
        Cache {
            lines: vec![Line::EMPTY; sets * ways],
            policy,
            way_mask: all_ways(ways),
            cfg,
            stats: CacheStats::default(),
            fill_clock: 0,
            set_mask: (sets - 1) as u32,
            invalid_in_mask: lines,
            known_absent: Cell::new(NO_LINE),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets accumulated statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns the set index a line maps to.
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.index() as usize) & self.set_mask as usize
    }

    fn ways(&self) -> usize {
        self.cfg.ways()
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways() + way
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        if self.known_absent.get() == line.index() {
            return None;
        }
        let set = self.set_of(line);
        let found = self.scan(set, line).map(|w| (set, w));
        if found.is_none() {
            self.known_absent.set(line.index());
        }
        found
    }

    /// The way of `set` holding `line`, if any.
    fn scan(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.ways();
        // One contiguous scan of the set's 32 B line records. Profiles
        // show its cost is the host cache misses on the records, not
        // the comparisons, which is why the records are packed rather
        // than the tags split out.
        self.lines[base..base + self.ways()]
            .iter()
            .position(|l| l.tag == line && l.valid())
    }

    /// Counts the invalid lines in ways inside the way mask.
    fn count_invalid_in_mask(&self) -> u32 {
        let invalid = self
            .lines
            .chunks_exact(self.ways())
            .flat_map(|set| set.iter().enumerate())
            .filter(|(way, l)| self.way_mask & (1 << way) != 0 && !l.valid())
            .count();
        invalid as u32 // at most the line count, which `new` bounds
    }

    /// Looks up `line`, updating replacement and prefetch-tag state.
    ///
    /// `is_prefetch` marks lookups made on behalf of the prefetcher (to
    /// filter redundant prefetches); they do not clear prefetch tags and
    /// are not counted as demand traffic.
    pub fn access(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> AccessOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch,
        };
        if is_prefetch {
            self.stats.prefetch_lookups += 1;
            let hit = self.find(line).is_some();
            return AccessOutcome {
                hit,
                prefetch_hit: false,
                meta: None,
            };
        }
        match self.find(line) {
            Some((set, way)) => {
                self.stats.demand_hits += 1;
                let slot = self.slot(set, way);
                let first_use_of_prefetch = self.lines[slot].tagged();
                if first_use_of_prefetch {
                    self.stats.prefetch_hits += 1;
                }
                self.lines[slot].state = self.lines[slot].state & !TAGGED | USED;
                self.policy.on_hit(set, way, &meta);
                AccessOutcome {
                    hit: true,
                    prefetch_hit: first_use_of_prefetch,
                    meta: Some(self.lines[slot].meta()),
                }
            }
            None => {
                self.stats.demand_misses += 1;
                AccessOutcome {
                    hit: false,
                    prefetch_hit: false,
                    meta: None,
                }
            }
        }
    }

    /// Peeks for `line` without updating any state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Peeks at `line`'s metadata word without updating any state
    /// (policy- and prefetcher-visible; `None` when not resident).
    pub fn line_meta(&self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        Some(self.lines[self.slot(set, way)].meta())
    }

    /// Installs `line`, evicting if necessary (convenience form of
    /// [`Cache::fill_at`]: a prefetch fill is attributed to the stride
    /// prefetcher and tagged, with an immediately-ready timestamp).
    pub fn fill(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> FillOutcome {
        let source = if is_prefetch {
            FillSource::Stride
        } else {
            FillSource::Demand
        };
        self.fill_at(line, pc, source, is_prefetch, 0)
    }

    /// Installs `line`, evicting if necessary, recording the full
    /// metadata word: who filled it (`source`), whether it gets the
    /// prefetch tag bit (`tagged` — the memory system tags temporal L2
    /// fills and L1/L3 prefetch fills, but treats stride fills into the
    /// L2 as demand-like), and when the fill's data arrives
    /// (`ready_at`).
    ///
    /// Filling a line already present refreshes its metadata instead of
    /// duplicating it: the word is overwritten, and a demand (untagged)
    /// refill clears the prefetch tag while a prefetch refill keeps the
    /// stronger (demand) tag state. A refresh does not advance the fill
    /// clock or restamp `fill_seq` — the line's install ordinal is the
    /// fill that actually brought it in.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is `Pc::new(u64::MAX)` (the line record's no-PC
    /// marker), if an absent `line` is `LineAddr::new(u64::MAX)` (the
    /// no-line marker), or if the fill clock passes 2^56 − 1 installing
    /// fills.
    pub fn fill_at(
        &mut self,
        line: LineAddr,
        pc: Option<Pc>,
        source: FillSource,
        tagged: bool,
        ready_at: Cycle,
    ) -> FillOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch: source.is_prefetch(),
        };
        if let Some((set, way)) = self.find(line) {
            // Already present (e.g. demand fill racing a prefetch fill):
            // treat as a touch.
            let slot = self.slot(set, way);
            if !tagged {
                self.lines[slot].state &= !TAGGED;
            }
            self.lines[slot].set_source(source);
            self.lines[slot].ready_at = ready_at;
            self.policy.on_hit(set, way, &meta);
            return FillOutcome {
                evicted: None,
                set,
                way,
            };
        }

        assert!(
            line.index() != NO_LINE,
            "line collides with the no-line sentinel"
        );
        self.stats.fills += 1;
        self.fill_clock += 1;
        let set = self.set_of(line);
        let eligible_invalid =
            |w: &usize| self.way_mask & (1 << w) != 0 && !self.lines[self.slot(set, *w)].valid();
        debug_assert!(
            self.scan(set, line).is_none(),
            "known-absent memo skipped a resident line"
        );
        debug_assert!(
            self.invalid_in_mask != 0 || !(0..self.ways()).any(|w| eligible_invalid(&w)),
            "invalid-line count is 0 but the set has an eligible invalid way"
        );
        // Fill an invalid eligible way first.
        let invalid_way = if self.invalid_in_mask == 0 {
            None
        } else {
            (0..self.ways()).find(eligible_invalid)
        };
        let way = invalid_way.unwrap_or_else(|| {
            let w = self.policy.victim(set, self.way_mask);
            debug_assert!(self.way_mask & (1 << w) != 0);
            w
        });

        let slot = self.slot(set, way);
        let evicted = if self.lines[slot].valid() {
            self.stats.evictions += 1;
            let old = self.lines[slot];
            self.policy.on_evict(set, way, old.tag);
            Some(old.to_evicted(self.fill_clock))
        } else {
            // The way is invalid and inside the mask, so the count
            // includes it; 0 here means the count drifted.
            self.invalid_in_mask = self
                .invalid_in_mask
                .checked_sub(1)
                .expect("invalid-line count out of step with the lines");
            None
        };

        self.lines[slot] = Line {
            tag: line,
            ready_at,
            state: Line::pack_state(self.fill_clock, true, tagged, !tagged, source),
            fill_pc: Line::pack_pc(pc),
        };
        if self.known_absent.get() == line.index() {
            self.known_absent.set(NO_LINE);
        }
        self.policy.on_fill(set, way, &meta);
        FillOutcome { evicted, set, way }
    }

    /// Invalidates `line` if present, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let (set, way) = self.find(line)?;
        Some(self.invalidate_slot(set, way))
    }

    fn invalidate_slot(&mut self, set: usize, way: usize) -> EvictedLine {
        let slot = self.slot(set, way);
        let old = self.lines[slot];
        self.lines[slot].state &= !VALID;
        if self.way_mask & (1 << way) != 0 {
            self.invalid_in_mask += 1;
        }
        self.policy.on_invalidate(set, way);
        old.to_evicted(self.fill_clock)
    }

    /// Restricts fills and victims to the ways in `mask`, invalidating
    /// any resident lines outside it. Returns the displaced lines.
    ///
    /// This is how the L3 hands ways over to the Markov partition
    /// (Section 3.2): shrinking the data mask flushes the surrendered
    /// ways.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects no way.
    pub fn set_way_mask(&mut self, mask: WayMask) -> Vec<EvictedLine> {
        assert!(
            mask & all_ways(self.cfg.ways()) != 0,
            "way mask must keep at least one way"
        );
        self.way_mask = mask;
        let mut flushed = Vec::new();
        for set in 0..self.cfg.sets() {
            for way in 0..self.cfg.ways() {
                if mask & (1 << way) == 0 && self.lines[self.slot(set, way)].valid() {
                    flushed.push(self.invalidate_slot(set, way));
                }
            }
        }
        self.known_absent.set(NO_LINE);
        self.invalid_in_mask = self.count_invalid_in_mask();
        flushed
    }

    /// Returns the current way mask.
    pub fn way_mask(&self) -> WayMask {
        self.way_mask
    }

    /// Returns the number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }

    /// Iterates over the valid resident lines (for diagnostics/tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().filter(|l| l.valid()).map(|l| l.tag)
    }
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for CacheStats {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.demand_hits);
        w.u64(self.demand_misses);
        w.u64(self.prefetch_hits);
        w.u64(self.prefetch_lookups);
        w.u64(self.fills);
        w.u64(self.evictions);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.demand_hits = r.u64()?;
        self.demand_misses = r.u64()?;
        self.prefetch_hits = r.u64()?;
        self.prefetch_lookups = r.u64()?;
        self.fills = r.u64()?;
        self.evictions = r.u64()?;
        Ok(())
    }
}

/// Reads a fill ordinal, rejecting one too wide for [`Line::state`].
fn read_fill_seq(r: &mut SnapReader) -> Result<u64, SnapError> {
    let seq = r.u64()?;
    snap_check(seq <= FILL_SEQ_MASK, "fill ordinal of 2^56 or more")?;
    Ok(seq)
}

/// The snapshot keeps the unpacked field-by-field byte format.
impl Snapshot for Line {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.tag.index());
        w.bool(self.valid());
        w.bool(self.tagged());
        w.u8(self.source().snap_tag());
        w.u64(self.ready_at);
        w.bool(self.used());
        w.u64(self.fill_seq());
        w.opt_u64(self.fill_pc().map(Pc::get));
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.tag = LineAddr::new(r.u64()?);
        let valid = r.bool()?;
        let tagged = r.bool()?;
        let source = FillSource::from_snap_tag(r.u8()?)?;
        self.ready_at = r.u64()?;
        let used = r.bool()?;
        let fill_seq = read_fill_seq(r)?;
        self.state = Line::pack_state(fill_seq, valid, tagged, used, source);
        let pc = r.opt_u64()?;
        snap_check(pc != Some(NO_PC), "fill PC equals the no-PC sentinel")?;
        self.fill_pc = pc.unwrap_or(NO_PC);
        Ok(())
    }
}

impl Snapshot for Cache {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.lines.len());
        for line in &self.lines {
            line.save(w)?;
        }
        self.policy.save(w)?;
        w.u64(self.way_mask);
        self.stats.save(w)?;
        w.u64(self.fill_clock);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let restored = self.restore_fields(r);
        // Re-derive even after a failed restore, which may have
        // overwritten some lines.
        self.known_absent.set(NO_LINE);
        self.invalid_in_mask = self.count_invalid_in_mask();
        restored
    }
}

impl Cache {
    fn restore_fields(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.lines.len(), "cache lines")?;
        for line in &mut self.lines {
            line.restore(r)?;
            snap_check(
                !line.valid() || line.tag.index() != NO_LINE,
                "resident line equals the no-line sentinel",
            )?;
        }
        self.policy.restore(r)?;
        self.way_mask = r.u64()?;
        self.stats.restore(r)?;
        self.fill_clock = read_fill_seq(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn tiny(ways: usize) -> Cache {
        // 4 sets x `ways`.
        Cache::new(CacheConfig::new(
            "t",
            4 * ways as u64 * 64,
            ways,
            PolicyKind::Lru,
        ))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny(2);
        let l = LineAddr::new(5);
        assert!(!c.access(l, None, false).hit);
        c.fill(l, None, false);
        assert!(c.access(l, None, false).hit);
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn prefetch_tag_consumed_once() {
        let mut c = tiny(2);
        let l = LineAddr::new(9);
        c.fill(l, None, true);
        assert!(c.access(l, None, false).prefetch_hit);
        assert!(!c.access(l, None, false).prefetch_hit);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_lookup_does_not_consume_tag() {
        let mut c = tiny(2);
        let l = LineAddr::new(9);
        c.fill(l, None, true);
        assert!(c.access(l, None, true).hit);
        assert!(c.access(l, None, false).prefetch_hit);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set (4 sets)
        c.fill(a, None, true);
        let out = c.fill(b, None, false);
        let ev = out.evicted.expect("must evict");
        assert_eq!(ev.line, a);
        assert!(ev.was_unused_prefetch);
        assert!(!ev.was_used);
    }

    #[test]
    fn used_bit_tracked_through_eviction() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.fill(a, None, true);
        c.access(a, None, false); // consume tag, mark used
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert!(ev.was_used);
        assert!(!ev.was_unused_prefetch);
    }

    #[test]
    fn fill_clock_orders_fills_before_their_evictions() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set
        c.fill(a, None, false);
        let seq_a = c.line_meta(a).unwrap().fill_seq;
        assert_eq!(seq_a, 1, "first fill stamps ordinal 1");
        // A refresh keeps the install ordinal and does not tick the clock.
        c.fill(a, None, false);
        assert_eq!(c.line_meta(a).unwrap().fill_seq, seq_a);
        // A conflict eviction carries the evicting fill's ordinal,
        // strictly after the victim's.
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert_eq!(ev.fill_seq, seq_a);
        assert_eq!(ev.evict_seq, 2);
        assert!(ev.fill_seq < ev.evict_seq);
        assert_eq!(ev.meta().fill_seq, seq_a);
        // An invalidation reads the clock without advancing it.
        let ev = c.invalidate(b).unwrap();
        assert_eq!(ev.fill_seq, 2);
        assert_eq!(ev.evict_seq, 2, "invalidation does not tick the clock");
        // The clock survives a stats reset (it is not a statistic).
        c.fill(a, None, false);
        c.reset_stats();
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert!(ev.fill_seq < ev.evict_seq);
        assert_eq!(ev.evict_seq, 4);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        c.fill(l, None, false);
        c.fill(l, None, false);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn demand_refill_clears_prefetch_tag() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        c.fill(l, None, true);
        c.fill(l, None, false);
        assert!(!c.access(l, None, false).prefetch_hit);
    }

    #[test]
    fn way_mask_restricts_and_flushes() {
        let mut c = tiny(4);
        // Fill all 4 ways of set 0.
        for i in 0..4u64 {
            c.fill(LineAddr::new(i * 4), None, false);
        }
        assert_eq!(c.occupancy(), 4);
        let flushed = c.set_way_mask(0b0011);
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.occupancy(), 2);
        // New fills only land in ways 0..2: capacity of set 0 is now 2.
        for i in 0..8u64 {
            c.fill(LineAddr::new(i * 4), None, false);
        }
        let set0 = (0..4)
            .map(|i| LineAddr::new(i * 4))
            .filter(|l| c.contains(*l))
            .count();
        assert!(set0 <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn way_mask_cannot_be_empty() {
        let mut c = tiny(2);
        let _ = c.set_way_mask(0);
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny(2);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8); // all map to set 0
        c.fill(a, None, false);
        c.fill(b, None, false);
        c.access(a, None, false); // a is MRU
        let ev = c.fill(d, None, false).evicted.unwrap();
        assert_eq!(ev.line, b);
    }

    #[test]
    fn metadata_word_travels_fill_hit_evict() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set
        c.fill_at(a, Some(Pc::new(9)), FillSource::Temporal, true, 777);
        let m = c.line_meta(a).unwrap();
        assert_eq!(m.source, FillSource::Temporal);
        assert_eq!(m.ready_at, 777);
        assert!(!m.used);
        let out = c.access(a, None, false);
        assert!(out.prefetch_hit);
        let m = out.meta.unwrap();
        assert_eq!(m.ready_at, 777, "hit must surface the fill time");
        assert!(m.used, "meta reflects the access that just happened");
        let ev = c
            .fill_at(b, None, FillSource::Demand, false, 0)
            .evicted
            .unwrap();
        assert_eq!(ev.source, FillSource::Temporal, "attribution at death");
        assert!(ev.was_used);
        assert!(!ev.was_unused_prefetch);
    }

    #[test]
    fn untagged_prefetch_fill_is_demand_like_but_attributed() {
        // The memory system fills stride prefetches into the L2
        // untagged; they must not produce tagged prefetch hits, yet the
        // metadata word still records who brought the line in.
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        c.fill_at(a, None, FillSource::Stride, false, 42);
        let out = c.access(a, None, false);
        assert!(out.hit && !out.prefetch_hit);
        assert_eq!(out.meta.unwrap().source, FillSource::Stride);
        assert_eq!(c.stats().prefetch_hits, 0);
    }

    #[test]
    fn miss_and_prefetch_lookup_carry_no_meta() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        assert_eq!(c.access(l, None, false).meta, None);
        c.fill(l, None, true);
        assert_eq!(c.access(l, None, true).meta, None, "prefetch lookup");
        assert_eq!(c.line_meta(LineAddr::new(99)), None);
    }

    /// The largest PC the engine produces: core tag 255 over a full
    /// 40-bit generator PC.
    const MAX_ENGINE_PC: u64 = (255 << 40) | ((1 << 40) - 1);

    #[test]
    fn packed_line_round_trips_at_its_edges() {
        let sources = [FillSource::Demand, FillSource::Stride, FillSource::Temporal];
        let pcs = [None, Some(Pc::new(0)), Some(Pc::new(MAX_ENGINE_PC))];
        for source in sources {
            for pc in pcs {
                for fill_seq in [0, 1, FILL_SEQ_MASK] {
                    for flags in 0..8u8 {
                        let (valid, tagged, used) =
                            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                        let line = Line {
                            tag: LineAddr::new(u64::MAX),
                            ready_at: u64::MAX,
                            state: Line::pack_state(fill_seq, valid, tagged, used, source),
                            fill_pc: Line::pack_pc(pc),
                        };
                        let view = (line.valid(), line.tagged(), line.used(), line.source());
                        assert_eq!(view, (valid, tagged, used, source));
                        assert_eq!((line.fill_seq(), line.fill_pc()), (fill_seq, pc));
                        let mut w = SnapWriter::new();
                        line.save(&mut w).unwrap();
                        let bytes = w.into_bytes();
                        let mut back = Line::EMPTY;
                        back.restore(&mut SnapReader::new(&bytes)).unwrap();
                        assert_eq!((back.tag, back.ready_at), (line.tag, line.ready_at));
                        assert_eq!((back.state, back.fill_pc), (line.state, line.fill_pc));
                    }
                }
            }
        }
        // Re-sourcing a line leaves every other field alone.
        let mut line = Line::EMPTY;
        line.state = Line::pack_state(FILL_SEQ_MASK, true, true, false, FillSource::Temporal);
        line.set_source(FillSource::Demand);
        assert_eq!(line.source(), FillSource::Demand);
        assert_eq!(line.fill_seq(), FILL_SEQ_MASK);
        assert!(line.valid() && line.tagged() && !line.used());
    }

    #[test]
    fn restore_rejects_fill_ordinals_too_wide_to_pack() {
        let mut c = tiny(1);
        c.fill(LineAddr::new(0), Some(Pc::new(MAX_ENGINE_PC)), false);
        let mut w = SnapWriter::new();
        c.save(&mut w).unwrap();
        let good = w.into_bytes();
        let restore = |bytes: &[u8]| tiny(1).restore(&mut SnapReader::new(bytes));
        restore(&good).unwrap();
        // Line 0's fill ordinal sits after the line count and its tag,
        // flag, source, ready-at and used fields; the fill clock is the
        // snapshot's last word.
        let line_seq = 8 + 8 + 1 + 1 + 1 + 8 + 1;
        let clock = good.len() - 8;
        for at in [line_seq, clock] {
            for seq in [1u64 << FILL_SEQ_BITS, u64::MAX] {
                let mut bad = good.clone();
                bad[at..at + 8].copy_from_slice(&seq.to_le_bytes());
                assert!(
                    matches!(restore(&bad), Err(SnapError::Corrupt(_))),
                    "ordinal {seq:#x} at byte {at} must be rejected"
                );
            }
            let mut edge = good.clone();
            edge[at..at + 8].copy_from_slice(&FILL_SEQ_MASK.to_le_bytes());
            restore(&edge).unwrap();
        }
        // The no-PC sentinel is not a storable PC.
        let mut bad = good.clone();
        let pc_at = line_seq + 8 + 1;
        bad[pc_at..pc_at + 8].copy_from_slice(&NO_PC.to_le_bytes());
        assert!(matches!(restore(&bad), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn invalidate_returns_record() {
        let mut c = tiny(2);
        let l = LineAddr::new(7);
        c.fill(l, None, true);
        let ev = c.invalidate(l).unwrap();
        assert_eq!(ev.line, l);
        assert!(ev.was_unused_prefetch);
        assert!(!c.contains(l));
        assert!(c.invalidate(l).is_none());
    }
}
