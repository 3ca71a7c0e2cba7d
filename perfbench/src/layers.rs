//! Per-layer host costs measured from outside the simulator: each
//! layer's public functions timed on a replay of the workload's own
//! access stream, and the cost model `Σ count × ns/op` built from them.
//!
//! The replay regenerates every row's sources at the run's seed,
//! translates addresses the way the engine does (per-core tags, then
//! the session's default page mapper), and derives the L1-miss, L2-miss
//! and L3-miss streams with one untimed functional pass. Each layer is
//! then timed alone over the stream that reaches it, on freshly built
//! structures of the cell's own geometry, and the median of
//! [`REPS`] repetitions is kept.

use std::hint::black_box;
use std::time::Instant;

use triangel_cache::{Cache, Mshr};
use triangel_core::{HistorySampler, SecondChanceSampler, TrainingTable, TriangelConfig};
use triangel_markov::{MarkovTableConfig, MarkovTableImpl};
use triangel_mem::Dram;
use triangel_prefetch::{NullCacheView, StridePrefetcher, TrainEvent, TrainKind};
use triangel_sim::SystemConfig;
use triangel_types::{Addr, LineAddr, Pc};
use triangel_workloads::paging::PageMapper;
use triangel_workloads::AccessRing;

use crate::cell::CellRun;
use crate::workloads::CellSpec;

/// Timed repetitions per layer.
const REPS: usize = 3;
/// The engine's per-core tag positions (`triangel_sim` engine): PCs at
/// bit 40, virtual addresses at bit 46.
const PC_TAG_SHIFT: u32 = 40;
const VADDR_TAG_SHIFT: u32 = 46;
/// The session's default page-mapper seed.
const MAPPER_SEED: u64 = 0xA11C;

/// Host nanoseconds per operation of each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `PageMapper::translate`, per access.
    pub translate_ns: f64,
    /// L1 `Cache::access`, per access (fills excluded).
    pub l1_access_ns: f64,
    /// L2 `Cache::access`, per L2 access (fills excluded).
    pub l2_access_ns: f64,
    /// L3 `Cache::access`, per L3 access (fills excluded).
    pub l3_access_ns: f64,
    /// `Cache::fill`, pooled over the three levels.
    pub fill_ns: f64,
    /// `Mshr` retire/occupancy/allocate work, per L2 access.
    pub mshr_op_ns: f64,
    /// `Dram::request_line`, per request.
    pub dram_request_ns: f64,
    /// `StridePrefetcher::handle`, per L1 access.
    pub stride_handle_ns: f64,
    /// Triangel's Markov table `lookup`.
    pub markov_lookup_ns: f64,
    /// Triangel's Markov table `train` (an insert or update).
    pub markov_insert_ns: f64,
    /// Triage's Markov table `lookup` (LUT format, HawkEye).
    pub triage_lookup_ns: f64,
    /// Triage's Markov table `train`.
    pub triage_insert_ns: f64,
    /// History Sampler + Second-Chance Sampler work per training event.
    pub sampler_ns: f64,
}

/// One access as the memory system sees it.
#[derive(Debug, Clone, Copy)]
struct Op {
    core: usize,
    pc: Pc,
    vaddr: Addr,
    line: LineAddr,
}

/// Regenerates the cell's sources and returns its first
/// `warmup + accesses` accesses per core, interleaved round-robin and
/// translated as the engine does.
fn capture(spec: &CellSpec) -> Result<Vec<Op>, String> {
    let per_core = (spec.warmup + spec.accesses) as usize;
    let mut streams = Vec::new();
    for (source, seed) in &spec.sources {
        let mut src = source.build(*seed)?;
        let mut ring = AccessRing::new();
        let mut out = Vec::with_capacity(per_core);
        while out.len() < per_core {
            src.fill(&mut ring);
            while let Some(a) = ring.pop() {
                if out.len() < per_core {
                    out.push(a);
                }
            }
        }
        streams.push(out);
    }
    let mut mapper = PageMapper::realistic(MAPPER_SEED);
    let mut ops = Vec::with_capacity(per_core * streams.len());
    for i in 0..per_core {
        for (core, s) in streams.iter().enumerate() {
            let a = s[i];
            let c = core as u64;
            let vaddr =
                Addr::new((a.vaddr.get() & ((1 << VADDR_TAG_SHIFT) - 1)) | (c << VADDR_TAG_SHIFT));
            let pc = (a.pc.get() & ((1 << PC_TAG_SHIFT) - 1)) | (c << PC_TAG_SHIFT);
            ops.push(Op {
                core,
                pc: Pc::new(pc),
                vaddr,
                line: mapper.translate(vaddr).line(),
            });
        }
    }
    Ok(ops)
}

/// Host seconds of `f`, run on fresh state from `setup`, median of
/// [`REPS`] repetitions.
fn time<S>(mut setup: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            f(&mut state);
            let dt = t.elapsed().as_secs_f64();
            black_box(&state);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Host seconds and operation counts accumulated over rows.
#[derive(Debug, Default)]
struct Totals {
    /// `(seconds, ops)` per measurement, indexed like [`LayerCosts`].
    t: [(f64, u64); 13],
}

impl Totals {
    fn add(&mut self, i: usize, secs: f64, ops: usize) {
        self.t[i].0 += secs;
        self.t[i].1 += ops as u64;
    }

    fn ns(&self, i: usize) -> f64 {
        let (s, n) = self.t[i];
        if n == 0 {
            0.0
        } else {
            s * 1e9 / n as f64
        }
    }
}

/// Runs an access-and-fill-on-miss stream through `caches` (indexed by
/// core), returning the misses in order and a per-op missed flag.
fn misses(ops: &[Op], caches: &mut [Cache]) -> (Vec<Op>, Vec<bool>) {
    let mut out = Vec::new();
    let mut missed = Vec::with_capacity(ops.len());
    for op in ops {
        let c = &mut caches[op.core];
        let miss = !c.access(op.line, Some(op.pc), false).hit;
        if miss {
            c.fill(op.line, Some(op.pc), false);
            out.push(*op);
        }
        missed.push(miss);
    }
    (out, missed)
}

fn lookup_and_fill(ops: &[Op], caches: &mut [Cache]) {
    for op in ops {
        let c = &mut caches[op.core];
        if !black_box(c.access(op.line, Some(op.pc), false)).hit {
            c.fill(op.line, Some(op.pc), false);
        }
    }
}

fn fill_only(ops: &[Op], caches: &mut [Cache]) {
    for op in ops {
        black_box(caches[op.core].fill(op.line, Some(op.pc), false));
    }
}

/// Times one cache level: `(ops in, misses, lookup seconds net of
/// fills, fill seconds)`, each on caches fresh from `make`.
fn timed_level(
    input: &[Op],
    missed: &[Op],
    make: impl Fn() -> Vec<Cache>,
) -> (usize, usize, f64, f64) {
    let both = time(&make, |c| lookup_and_fill(input, c));
    let fills = time(&make, |c| fill_only(missed, c));
    (input.len(), missed.len(), (both - fills).max(0.0), fills)
}

/// Measures every layer's per-operation host cost on the replayed
/// streams of `rows` (one cell per distinct row).
pub fn measure(rows: &[&CellSpec]) -> Result<LayerCosts, String> {
    let mut tot = Totals::default();
    for spec in rows {
        let cfg: &SystemConfig = &spec.system;
        let cores = spec.sources.len();
        let ops = capture(spec)?;
        let private = |c: &triangel_cache::CacheConfig| -> Vec<Cache> {
            (0..cores).map(|_| Cache::new(c.clone())).collect()
        };
        let (l1_miss, _) = misses(&ops, &mut private(&cfg.l1));
        let (l2_miss, l2_missed) = misses(&l1_miss, &mut private(&cfg.l2));
        // The shared L3 is one cache: route every core's ops to slot 0.
        let shared = |ops: &[Op]| -> Vec<Op> { ops.iter().map(|o| Op { core: 0, ..*o }).collect() };
        let l2_miss_shared = shared(&l2_miss);
        let (l3_miss_shared, _) = misses(&l2_miss_shared, &mut [Cache::new(cfg.l3.clone())]);

        // 0: page translation, as the engine does per access.
        let s = time(
            || PageMapper::realistic(MAPPER_SEED),
            |m| {
                for op in &ops {
                    black_box(m.translate(op.vaddr));
                }
            },
        );
        tot.add(0, s, ops.len());

        // 1–4: cache lookups net of fills, and fills alone.
        let l3 = || vec![Cache::new(cfg.l3.clone())];
        for (level, (input, missed, lookup, fills)) in [
            timed_level(&ops, &l1_miss, || private(&cfg.l1)),
            timed_level(&l1_miss, &l2_miss, || private(&cfg.l2)),
            timed_level(&l2_miss_shared, &l3_miss_shared, l3),
        ]
        .into_iter()
        .enumerate()
        {
            tot.add(1 + level, lookup, input);
            tot.add(4, fills, missed);
        }

        // 5: MSHR bookkeeping per L2 access on a synthetic clock (10
        // cycles per L1 miss, 300-cycle misses), mirroring the
        // hierarchy's retire / full-check / allocate sequence.
        let s = time(
            || {
                (0..cores)
                    .map(|_| Mshr::new(cfg.l2_mshrs))
                    .collect::<Vec<_>>()
            },
            |m| {
                for (i, (op, &missed)) in l1_miss.iter().zip(&l2_missed).enumerate() {
                    let t = i as u64 * 10;
                    let mshr = &mut m[op.core];
                    mshr.retire_until(t);
                    if missed {
                        if mshr.is_full() {
                            if let Some(e) = mshr.earliest_ready() {
                                mshr.retire_until(e);
                            }
                        }
                        mshr.allocate(op.line, t + 300, false);
                    }
                }
            },
        );
        tot.add(5, s, l1_miss.len());

        // 6: DRAM requests, one per L3 miss, 20 cycles apart.
        let s = time(
            || Dram::new(cfg.dram),
            |d| {
                for (i, op) in l3_miss_shared.iter().enumerate() {
                    black_box(d.request_line(i as u64 * 20, op.line.index(), false));
                }
            },
        );
        tot.add(6, s, l3_miss_shared.len());

        // 7: the stride prefetcher trains on every L1 access.
        let s = time(
            || {
                let strides: Vec<_> = (0..cores)
                    .map(|_| StridePrefetcher::new(64, cfg.stride_degree))
                    .collect();
                (strides, Vec::new())
            },
            |(strides, reqs)| {
                for (i, op) in ops.iter().enumerate() {
                    reqs.clear();
                    let ev = TrainEvent {
                        pc: op.pc,
                        line: op.line,
                        kind: TrainKind::L1Access,
                        cycle: i as u64,
                        l2_fills: 0,
                    };
                    strides[op.core].handle(&ev, &NullCacheView, reqs);
                }
            },
        );
        tot.add(7, s, ops.len());

        // 8–11: Markov tables train on consecutive L2 misses of a core
        // and are looked up on each miss.
        let pairs: Vec<(LineAddr, Op)> = {
            let mut prev: Vec<Option<LineAddr>> = vec![None; cores];
            l2_miss
                .iter()
                .filter_map(|op| prev[op.core].replace(op.line).map(|p| (p, *op)))
                .collect()
        };
        for (base, table_cfg) in [
            (8, MarkovTableConfig::triangel()),
            (10, MarkovTableConfig::triage()),
        ] {
            let make = || {
                let mut t = MarkovTableImpl::new(table_cfg);
                t.set_ways(table_cfg.max_ways);
                t
            };
            let s = time(make, |t| {
                for (prev, op) in &pairs {
                    t.train(*prev, op.line, op.pc);
                }
            });
            tot.add(base + 1, s, pairs.len());
            let s = time(
                || {
                    let mut t = make();
                    for (prev, op) in &pairs {
                        t.train(*prev, op.line, op.pc);
                    }
                    t
                },
                |t| {
                    for op in &l2_miss {
                        black_box(t.lookup(op.line));
                    }
                },
            );
            tot.add(base, s, l2_miss.len());
        }

        // 12: Triangel's samplers, once per training event (L2 miss).
        let tc = TriangelConfig::paper_default();
        let max_size = MarkovTableConfig::triangel().max_capacity_entries() as u64;
        let training = TrainingTable::new(tc.training_entries);
        let s = time(
            || {
                (
                    HistorySampler::new(tc.sampler_entries, tc.seed),
                    SecondChanceSampler::new(tc.scs_entries, tc.scs_window),
                )
            },
            |(hs, scs)| {
                for (i, (prev, op)) in pairs.iter().enumerate() {
                    let idx = training.index_of(op.pc) as u16;
                    let ts = i as u32;
                    black_box(scs.check(op.line, idx, i as u64));
                    if black_box(hs.lookup(*prev, idx, ts, op.line)).is_some() {
                        scs.insert(op.line, idx, i as u64);
                    }
                    if hs.should_sample(8, max_size) {
                        hs.insert(*prev, idx, op.line, ts);
                    }
                }
            },
        );
        tot.add(12, s, pairs.len());
    }
    Ok(LayerCosts {
        translate_ns: tot.ns(0),
        l1_access_ns: tot.ns(1),
        l2_access_ns: tot.ns(2),
        l3_access_ns: tot.ns(3),
        fill_ns: tot.ns(4),
        mshr_op_ns: tot.ns(5),
        dram_request_ns: tot.ns(6),
        stride_handle_ns: tot.ns(7),
        markov_lookup_ns: tot.ns(8),
        markov_insert_ns: tot.ns(9),
        triage_lookup_ns: tot.ns(10),
        triage_insert_ns: tot.ns(11),
        sampler_ns: tot.ns(12),
    })
}

/// Modelled host seconds of one cell's measured phase, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSeconds {
    /// Page translation.
    pub paging: f64,
    /// L1/L2/L3 lookups and fills.
    pub cache: f64,
    /// MSHR bookkeeping.
    pub mshr: f64,
    /// DRAM requests.
    pub dram: f64,
    /// Stride training.
    pub stride: f64,
    /// Markov table lookups and trains.
    pub markov: f64,
    /// Triangel's samplers.
    pub sampler: f64,
}

impl ModelSeconds {
    /// Sum over layers.
    pub fn total(&self) -> f64 {
        self.paging + self.cache + self.mshr + self.dram + self.stride + self.markov + self.sampler
    }

    /// Adds another cell's seconds.
    pub fn add(&mut self, o: &ModelSeconds) {
        self.paging += o.paging;
        self.cache += o.cache;
        self.mshr += o.mshr;
        self.dram += o.dram;
        self.stride += o.stride;
        self.markov += o.markov;
        self.sampler += o.sampler;
    }
}

/// `Σ count × ns/op` for one cell's measured phase, with the counts
/// read from its report: every access trains the stride prefetcher and
/// looks up the L1; L1 misses look up the L2 and touch the MSHRs; L3
/// lookups are demand plus prefetch; each L2 miss or prefetch hit is one
/// temporal training event.
pub fn model(c: &LayerCosts, run: &CellRun, measured_per_core: u64) -> ModelSeconds {
    let r = &run.report;
    let accesses = (measured_per_core * r.cores.len() as u64) as f64;
    let sum =
        |f: &dyn Fn(&triangel_sim::CoreReport) -> u64| r.cores.iter().map(f).sum::<u64>() as f64;
    let l2_accesses = sum(&|c| c.l2.demand_accesses());
    let fills = l2_accesses + sum(&|c| c.l2.fills) + r.l3.fills as f64;
    let l3_accesses = (r.l3.demand_accesses() + r.l3.prefetch_lookups) as f64;
    let prefetch_issues = r.l3.prefetch_lookups as f64 + sum(&|c| c.core.prefetches_dropped);
    let events = sum(&|c| c.l2.demand_misses + c.l2.prefetch_hits);
    let reads = sum(&|c| c.pf.markov_reads);
    let writes = sum(&|c| c.pf.markov_writes);
    let ns = 1e-9;
    let (lookup, insert, sampler) = match run.config.as_str() {
        "Triangel" => (c.markov_lookup_ns, c.markov_insert_ns, c.sampler_ns),
        "Baseline" => (0.0, 0.0, 0.0),
        _ => (c.triage_lookup_ns, c.triage_insert_ns, 0.0),
    };
    ModelSeconds {
        paging: accesses * c.translate_ns * ns,
        cache: (accesses * c.l1_access_ns
            + l2_accesses * c.l2_access_ns
            + l3_accesses * c.l3_access_ns
            + fills * c.fill_ns)
            * ns,
        mshr: (l2_accesses + prefetch_issues) * c.mshr_op_ns * ns,
        dram: r.dram.total_reads() as f64 * c.dram_request_ns * ns,
        stride: accesses * c.stride_handle_ns * ns,
        markov: (reads * lookup + writes * insert) * ns,
        sampler: events * sampler * ns,
    }
}
