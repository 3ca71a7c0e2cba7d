//! The interval-based out-of-order timing engine.

use crate::error::SimError;
use crate::hierarchy::MemorySystem;
use crate::metrics::{CoreReport, RunReport};
use triangel_types::{Addr, Cycle, Pc};
use triangel_workloads::paging::PageMapper;
use triangel_workloads::{AccessRing, TraceSource};

/// Core-index tag position in per-core PCs: generator PC bits at or
/// above this shift are masked off so cores can never alias (a PC with
/// bit 41 set on core 1 must not collide with core 3's tag).
const PC_TAG_SHIFT: u32 = 40;
/// Core-index tag position in per-core virtual addresses.
const VADDR_TAG_SHIFT: u32 = 46;

/// Tags a generator PC with its core index, masking the generator's
/// bits to the tag boundary first.
#[inline]
fn tag_pc(core: usize, pc: u64) -> u64 {
    (pc & ((1u64 << PC_TAG_SHIFT) - 1)) | ((core as u64) << PC_TAG_SHIFT)
}

/// Tags a generator virtual address with its core index (per-core
/// address spaces, multiprogrammed mode), masking to the tag boundary.
#[inline]
fn tag_vaddr(core: usize, vaddr: u64) -> u64 {
    (vaddr & ((1u64 << VADDR_TAG_SHIFT) - 1)) | ((core as u64) << VADDR_TAG_SHIFT)
}

/// Fixed power-of-two ring of in-flight accesses, bounded by the ROB.
///
/// Every element carries at least one instruction and the engine pops
/// until the in-flight instruction count fits the ROB before pushing,
/// so occupancy never exceeds `rob_entries` elements; sizing the
/// buffer to the next power of two above that makes push/pop a store,
/// a load and a mask — no branchy `VecDeque` block management on the
/// per-access path.
#[derive(Debug)]
struct InflightRing {
    /// `(retire_time, instructions)` slots, oldest at `head`.
    buf: Box<[(Cycle, u64)]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl InflightRing {
    /// A ring that can hold `capacity` in-flight accesses.
    fn new(capacity: usize) -> Self {
        let size = (capacity + 1).next_power_of_two();
        InflightRing {
            buf: vec![(0, 0); size].into_boxed_slice(),
            head: 0,
            len: 0,
            mask: size - 1,
        }
    }

    #[inline]
    fn push(&mut self, entry: (Cycle, u64)) {
        debug_assert!(self.len <= self.mask, "ROB accounting overflowed the ring");
        self.buf[(self.head + self.len) & self.mask] = entry;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, u64)> {
        if self.len == 0 {
            return None;
        }
        let entry = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(entry)
    }
}

/// Per-core architectural timeline: out-of-order issue bounded by ROB
/// occupancy and load dependences, in-order retire.
#[derive(Debug)]
struct CoreTimeline {
    instr_count: u64,
    /// In-flight accesses, oldest first.
    inflight: InflightRing,
    inflight_instrs: u64,
    prev_ready: Cycle,
    last_retire: Cycle,
    meas_start_instr: u64,
    meas_start_cycle: Cycle,
}

impl CoreTimeline {
    fn new(rob_entries: usize) -> Self {
        CoreTimeline {
            instr_count: 0,
            inflight: InflightRing::new(rob_entries),
            inflight_instrs: 0,
            prev_ready: 0,
            last_retire: 0,
            meas_start_instr: 0,
            meas_start_cycle: 0,
        }
    }
}

/// Drives trace sources through a [`MemorySystem`].
///
/// The model: instruction *i* dispatches at `i / width`; an access
/// cannot issue until the ROB has room (instructions more than
/// `rob_entries` older must have retired) nor, if it is
/// address-dependent, before the previous access's data returned.
/// Retirement is in order. This captures memory-level parallelism,
/// ROB-fill stalls, and pointer-chase serialization — the effects that
/// differentiate the paper's prefetcher configurations — without a
/// cycle-accurate pipeline.
#[derive(Debug)]
pub struct Engine {
    system: MemorySystem,
    sources: Vec<Box<dyn TraceSource + Send>>,
    /// Per-core access batches: the trace-source virtual call is paid
    /// once per [`AccessRing::DEFAULT_CAPACITY`] accesses, not per
    /// access.
    rings: Vec<AccessRing>,
    timelines: Vec<CoreTimeline>,
    mapper: PageMapper,
    /// Scratch for the cycle-ordered stepping order (avoids a per-round
    /// allocation).
    step_order: Vec<usize>,
}

impl Engine {
    /// Creates an engine over `sources` (one per core), reporting a
    /// malformed specification as a typed error.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSources`] if `sources` is empty, or
    /// [`SimError::CoreCountMismatch`] if the source count does not
    /// match the system's core count.
    pub fn try_new(
        system: MemorySystem,
        sources: Vec<Box<dyn TraceSource + Send>>,
        mapper: PageMapper,
    ) -> Result<Self, SimError> {
        if sources.is_empty() {
            return Err(SimError::NoSources);
        }
        if system.core_count() != sources.len() {
            return Err(SimError::CoreCountMismatch {
                cores: system.core_count(),
                sources: sources.len(),
            });
        }
        let n = sources.len();
        let rob = system.config().rob_entries;
        Ok(Engine {
            system,
            sources,
            rings: (0..n).map(|_| AccessRing::new()).collect(),
            timelines: (0..n).map(|_| CoreTimeline::new(rob)).collect(),
            mapper,
            step_order: (0..n).collect(),
        })
    }

    /// Advances one access on one core.
    fn step(&mut self, core: usize) {
        let cfg = self.system.config();
        let width = cfg.width;
        let rob = cfg.rob_entries as u64;

        // Batched pull: refill the core's ring (one virtual call per
        // batch) and consume from it. Order is exactly the source's
        // `next_access` order, so batching is behaviour-invisible.
        let acc = match self.rings[core].pop() {
            Some(a) => a,
            None => {
                self.sources[core].fill(&mut self.rings[core]);
                self.rings[core]
                    .pop()
                    .expect("fill() on an infinite source yields accesses")
            }
        };
        let k = 1 + acc.work as u64;

        let tl = &mut self.timelines[core];
        let dispatch = tl.instr_count / width;
        tl.instr_count += k;

        let mut issue = dispatch;
        while tl.inflight_instrs + k > rob {
            let (retire, n) = tl.inflight.pop().expect("rob accounting");
            tl.inflight_instrs -= n;
            issue = issue.max(retire);
        }
        if acc.dependent {
            issue = issue.max(tl.prev_ready);
        }

        // Virtual address spaces are per-core (multiprogrammed mode);
        // tag before translation so cores never alias.
        let tagged = Addr::new(tag_vaddr(core, acc.vaddr.get()));
        let paddr = self.mapper.translate(tagged);
        let pc = Pc::new(tag_pc(core, acc.pc.get()));

        let ready = self.system.demand_access(core, pc, paddr.line(), issue);
        let tl = &mut self.timelines[core];
        tl.prev_ready = ready;
        let retire = tl.last_retire.max(ready);
        tl.last_retire = retire;
        tl.inflight.push((retire, k));
        tl.inflight_instrs += k;
    }

    /// Runs `n` rounds, each stepping every core exactly once.
    ///
    /// In legacy mode the per-round order is fixed (core 0, 1, …). With
    /// `contention.cycle_ordered` set, the round order is sorted by the
    /// cores' retire clocks at the start of the round — the core
    /// furthest behind issues into the shared L3/DRAM first, so faster
    /// cores genuinely race ahead — with ties broken by core index,
    /// then by age (within a round, a core's earlier access was already
    /// issued in the previous round). Because the order is a pure
    /// function of persisted timeline state at a round boundary,
    /// chunking `run_accesses` calls and snapshot/resume are both
    /// behaviour-invisible.
    pub fn run_accesses(&mut self, n: u64) {
        let cycle_ordered = self.system.config().contention.cycle_ordered;
        let cores = self.sources.len();
        for _ in 0..n {
            if cycle_ordered {
                let mut order = std::mem::take(&mut self.step_order);
                order.sort_by_key(|&c| (self.timelines[c].last_retire, c));
                for &core in &order {
                    self.step(core);
                }
                self.step_order = order;
            } else {
                for core in 0..cores {
                    self.step(core);
                }
            }
        }
    }

    /// Ends warm-up: zeroes measurement counters while keeping all
    /// microarchitectural state (like the paper's checkpoint warm-up).
    pub fn start_measurement(&mut self) {
        self.system.reset_measurement();
        for tl in &mut self.timelines {
            tl.meas_start_instr = tl.instr_count;
            tl.meas_start_cycle = tl.last_retire;
        }
    }

    /// Produces the measurement report.
    pub fn report(&self, workload: String) -> RunReport {
        let cores = (0..self.sources.len())
            .map(|i| {
                let tl = &self.timelines[i];
                CoreReport {
                    workload: self.sources[i].name().to_string(),
                    pf_name: self.system.prefetcher_name(i).to_string(),
                    instructions: tl.instr_count - tl.meas_start_instr,
                    cycles: (tl.last_retire - tl.meas_start_cycle).max(1),
                    l2: self.system.l2_stats(i),
                    core: self.system.core_stats(i),
                    pf: self.system.prefetcher_stats(i),
                }
            })
            .collect();
        RunReport {
            workload,
            cores,
            l3: self.system.l3_stats(),
            dram: self.system.dram_stats(),
            markov_ways: self.system.markov_ways(),
            intervals: None,
        }
    }

    /// One interval sample of cumulative-since-measurement counters,
    /// taken at `end_access` measured accesses. Read-only: sampling
    /// never perturbs simulation state.
    pub fn interval_sample(&self, end_access: u64) -> triangel_obs::IntervalSample {
        let mut s = triangel_obs::IntervalSample {
            end_access,
            ..Default::default()
        };
        for (i, tl) in self.timelines.iter().enumerate() {
            let instructions = tl.instr_count - tl.meas_start_instr;
            let cycles = tl.last_retire.saturating_sub(tl.meas_start_cycle);
            s.instructions += instructions;
            // `cycles` is the max over cores (wall-clock of the slowest
            // core); per-core IPC must come from the per-core columns
            // below, never from `instructions / cycles`.
            s.cycles = s.cycles.max(cycles);
            s.core_instructions.push(instructions);
            s.core_cycles.push(cycles);
            let l2 = self.system.l2_stats(i);
            s.l2_demand_hits += l2.demand_hits;
            s.l2_demand_misses += l2.demand_misses;
            let core = self.system.core_stats(i);
            s.temporal_fills += core.temporal_fills;
            s.temporal_used += core.temporal_used;
            s.temporal_wasted += core.temporal_wasted;
            s.prefetches_dropped += core.prefetches_dropped;
            s.prefetches_issued += self.system.prefetcher_stats(i).prefetches_issued;
            let (occ, cap) = self.system.markov_occupancy(i);
            s.markov_occupancy += occ;
            s.markov_capacity += cap;
            s.desired_ways = s
                .desired_ways
                .max(self.system.desired_markov_ways(i) as u64);
            // All nine dueller counters are per-candidate-way sample
            // hits, so cores aggregate by element-wise sum (reading
            // only core 0 silently dropped every other core).
            if let Some(duel) = self.system.dueller_counters(i) {
                for (total, v) in s.dueller.iter_mut().zip(duel) {
                    *total += v;
                }
            }
        }
        s.markov_ways = self.system.markov_ways() as u64;
        s
    }

    /// Access to the memory system (diagnostics in tests).
    pub fn system(&self) -> &MemorySystem {
        &self.system
    }

    /// Per-core replay statistics: `Some` for cores driven by a finite
    /// looping recording (see
    /// [`TraceSource::replay_stats`](triangel_workloads::TraceSource::replay_stats)),
    /// `None` for true generators.
    pub fn replay_stats(&self) -> Vec<Option<triangel_workloads::trace::TraceReplayStats>> {
        self.sources.iter().map(|s| s.replay_stats()).collect()
    }
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for InflightRing {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Only the live region, oldest first; `head` is normalized to 0
        // on restore (occupancy, not physical position, is the state).
        w.usize(self.len);
        for i in 0..self.len {
            let (retire, instrs) = self.buf[(self.head + i) & self.mask];
            w.u64(retire);
            w.u64(instrs);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        snap_check(n <= self.mask, "in-flight ring above capacity")?;
        self.head = 0;
        self.len = 0;
        for _ in 0..n {
            let entry = (r.u64()?, r.u64()?);
            self.push(entry);
        }
        Ok(())
    }
}

impl Snapshot for CoreTimeline {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.instr_count);
        self.inflight.save(w)?;
        w.u64(self.inflight_instrs);
        w.u64(self.prev_ready);
        w.u64(self.last_retire);
        w.u64(self.meas_start_instr);
        w.u64(self.meas_start_cycle);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.instr_count = r.u64()?;
        self.inflight.restore(r)?;
        self.inflight_instrs = r.u64()?;
        self.prev_ready = r.u64()?;
        self.last_retire = r.u64()?;
        self.meas_start_instr = r.u64()?;
        self.meas_start_cycle = r.u64()?;
        Ok(())
    }
}

impl Snapshot for Engine {
    /// The full dynamic state of a run: memory system (caches with
    /// line metadata and fill clocks, prefetchers, DRAM), per-core
    /// timelines and batch rings, trace-source positions and RNGs, and
    /// the page mapper's allocations.
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.system.save(w)?;
        w.usize(self.sources.len());
        for (source, ring) in self.sources.iter().zip(&self.rings) {
            source.save_state(w)?;
            ring.save(w)?;
        }
        for tl in &self.timelines {
            tl.save(w)?;
        }
        self.mapper.save(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.system.restore(r)?;
        r.expect_len(self.sources.len(), "trace sources")?;
        for (source, ring) in self.sources.iter_mut().zip(&mut self.rings) {
            source.restore_state(r)?;
            ring.restore(r)?;
        }
        for tl in &mut self.timelines {
            tl.restore(r)?;
        }
        self.mapper.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_tagging_masks_high_generator_bits() {
        let pc = 0x1234u64;
        // Pre-fix, a PC with bit 41 set on core 1 aliased core 3's tag:
        // (pc | 1 << 41) | (1 << 40) == pc | (3 << 40).
        let high = pc | (1u64 << 41);
        assert_ne!(tag_pc(1, high), tag_pc(3, pc));
        assert_eq!(tag_pc(1, high), tag_pc(1, pc));
        assert_eq!(tag_pc(3, pc) >> PC_TAG_SHIFT, 3);
    }

    #[test]
    fn vaddr_tagging_masks_high_generator_bits() {
        let v = 0x9_0000_1000u64;
        let high = v | (1u64 << 47);
        assert_ne!(tag_vaddr(1, high), tag_vaddr(3, v));
        assert_eq!(tag_vaddr(1, high), tag_vaddr(1, v));
        assert_eq!(tag_vaddr(3, v) >> VADDR_TAG_SHIFT, 3);
    }

    #[test]
    fn tagging_is_identity_on_core_zero_below_the_boundary() {
        assert_eq!(tag_pc(0, 0xABC), 0xABC);
        assert_eq!(tag_vaddr(0, 0xABC), 0xABC);
    }
}
