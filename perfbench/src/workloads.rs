//! The benchmark's three workloads: which cells each runs, at what
//! scale, which layer each exists to exercise, and the check that it
//! still does.
//!
//! A *cell* is one simulation: one workload row under one prefetcher
//! configuration, run for its warm-up plus measured accesses. A *pass*
//! is every cell of a workload once, in a fixed order.
//!
//! Why each workload was chosen, with the layer shares four traced runs
//! (`--trace 1`, seeds 3, 4, 511 and 711) measured on a 2-vCPU x86-64
//! container, release build (see `README.md` for how each figure is
//! computed):
//!
//! * `spec_sweep` — the paper's Figs. 10–13 sweep. About one DRAM read
//!   per measured access, so the temporal layers are hot: a Triangel
//!   cell costs 1.46–1.63× a Baseline cell and a Triage-Deg4 cell
//!   2.23–2.37×; the Markov table's lookups and trains model 13–19% of
//!   measured simulator time and the caches 30–35%. Triangel's Markov
//!   table fills on at least 6 of 7 rows at every seed tried (over 50).
//! * `irregular_stride` — the four server-side irregular families.
//!   L1/stride-dominated: an L2 hit ratio of 0.66 and 0.15 DRAM reads
//!   per measured access. Triangel's gates open on two rows only, and
//!   barely (Markov occupancy about 11k entries against 280–345k on
//!   `spec_sweep`), so a Triangel cell costs 1.13–1.16× a Baseline cell
//!   and a Markov or sampler optimisation should leave this workload
//!   unchanged.
//! * `mix4_contended` — the only workload on the contended N-core
//!   model: L3 bank arbitration, cycle-ordered stepping, per-channel
//!   DRAM, MSHR back-pressure (22–26% of prefetches dropped, against
//!   5–6% on `spec_sweep`) and the shared Markov partition all run, and
//!   one core replays a trace file recorded during set-up, so trace
//!   decoding replaces generation there.
//!
//! Trace generation (or decoding) takes about the same share of
//! `run_segment` time everywhere: 4.8–5.4% on `irregular_stride`,
//! 5.1–5.9% on `spec_sweep`, 5.4–6.2% on `mix4_contended`. The irregular
//! families' generators are not measurably heavier than the SPEC ones.

use std::path::{Path, PathBuf};

use triangel_sim::{PrefetcherChoice, SystemConfig};
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::{record_trace, EndPolicy, FileTrace};
use triangel_workloads::{AccessRing, TraceSource};

/// The seed the pinned fingerprints were recorded at by default.
pub const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, never used while tuning the benchmark.
pub const HELD_OUT_SEED: u64 = 1009;

/// Warm-up and measured accesses per core of a single-core cell. At
/// this length Triangel's Markov table fills on most SPEC rows (at the
/// old `perf` figure's 50k + 50k it stayed empty on all seven).
const SINGLE_CORE_ACCESSES: u64 = 200_000;
/// Set Dueller / Bloom reset period for every Triangel cell.
pub const SIZING_WINDOW: u64 = 50_000;
/// Warm-up and measured accesses per core of a `mix4_contended` cell.
const MIX4_ACCESSES: u64 = 150_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-core, 7 SPEC generators × {Baseline, Triage-Deg4, Triangel}.
    SpecSweep,
    /// Single-core, 4 irregular families × {Baseline, Triangel}.
    IrregularStride,
    /// 4-core contended: Xalan + MCF + ZipfKV + a recorded HashJoin
    /// trace, × {Baseline, Triangel}.
    Mix4Contended,
}

/// One core's trace source.
#[derive(Debug, Clone)]
pub enum Source {
    /// A SPEC-like generator.
    Spec(SpecWorkload),
    /// An irregular-family generator.
    Irregular(IrregularWorkload),
    /// A trace file replayed in a loop.
    File(PathBuf),
}

impl Source {
    /// Builds the source; `seed` is ignored for files (the recording
    /// already fixed the stream).
    pub fn build(&self, seed: u64) -> Result<Box<dyn TraceSource + Send>, String> {
        Ok(match self {
            Source::Spec(wl) => Box::new(wl.generator(seed)),
            Source::Irregular(wl) => Box::new(wl.generator(seed)),
            Source::File(path) => Box::new(
                FileTrace::open(path, EndPolicy::Loop)
                    .map_err(|e| format!("trace `{}`: {e}", path.display()))?,
            ),
        })
    }
}

/// One simulation of a pass.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Workload row (the figure's x-axis label).
    pub row: String,
    /// Temporal-prefetcher configuration.
    pub choice: PrefetcherChoice,
    /// One `(source, seed)` per core.
    pub sources: Vec<(Source, u64)>,
    /// System configuration.
    pub system: SystemConfig,
    /// Warm-up accesses per core.
    pub warmup: u64,
    /// Measured accesses per core.
    pub accesses: u64,
}

impl CellSpec {
    /// `row/config`, unique within a workload.
    pub fn label(&self) -> String {
        format!("{}/{}", self.row, self.choice.label())
    }

    /// Simulated accesses over all cores, warm-up included.
    pub fn total_accesses(&self) -> u64 {
        (self.warmup + self.accesses) * self.sources.len() as u64
    }
}

/// Core `i`'s seed: the harness's multi-core seed ladder.
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ 0x9999u64.wrapping_mul(core as u64)
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SpecSweep,
        Workload::IrregularStride,
        Workload::Mix4Contended,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecSweep => "spec_sweep",
            Workload::IrregularStride => "irregular_stride",
            Workload::Mix4Contended => "mix4_contended",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up work that precedes any session: `mix4_contended` records
    /// its HashJoin core's trace to `dir`, long enough that replay never
    /// wraps (the engine reads up to one ring batch ahead of the last
    /// access it executes). Returns the recorded file, if any.
    pub fn prepare(self, seed: u64, dir: &Path) -> Result<Option<PathBuf>, String> {
        if self != Workload::Mix4Contended {
            return Ok(None);
        }
        let path = dir.join(format!("mix4-hashjoin-seed{seed}.trc"));
        let mut gen = IrregularWorkload::HashJoin.generator(core_seed(seed, 3));
        let records = 2 * MIX4_ACCESSES + AccessRing::DEFAULT_CAPACITY as u64;
        record_trace(&mut gen, records, &path)
            .map_err(|e| format!("recording `{}`: {e}", path.display()))?;
        Ok(Some(path))
    }

    /// The cells of one pass at `seed`, in run order. `recorded` is
    /// what [`Workload::prepare`] returned.
    pub fn cells(self, seed: u64, recorded: Option<&Path>) -> Vec<CellSpec> {
        let single = |row: &str, source: Source, choice| CellSpec {
            row: row.to_string(),
            choice,
            sources: vec![(source, seed)],
            system: SystemConfig::paper_single_core(),
            warmup: SINGLE_CORE_ACCESSES,
            accesses: SINGLE_CORE_ACCESSES,
        };
        match self {
            Workload::SpecSweep => SpecWorkload::ALL
                .into_iter()
                .flat_map(|wl| {
                    [
                        PrefetcherChoice::Baseline,
                        PrefetcherChoice::TriageDeg4,
                        PrefetcherChoice::Triangel,
                    ]
                    .map(|choice| single(wl.label(), Source::Spec(wl), choice))
                })
                .collect(),
            Workload::IrregularStride => IrregularWorkload::ALL
                .into_iter()
                .flat_map(|wl| {
                    [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel]
                        .map(|choice| single(wl.label(), Source::Irregular(wl), choice))
                })
                .collect(),
            Workload::Mix4Contended => {
                let trace = recorded.expect("mix4_contended is prepared before its cells");
                let sources = [
                    Source::Spec(SpecWorkload::Xalan),
                    Source::Spec(SpecWorkload::Mcf),
                    Source::Irregular(IrregularWorkload::ZipfKv),
                    Source::File(trace.to_path_buf()),
                ];
                [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel]
                    .map(|choice| CellSpec {
                        row: "Xalan+MCF+ZipfKV+HashJoin.trc".to_string(),
                        choice,
                        sources: sources
                            .iter()
                            .enumerate()
                            .map(|(i, s)| (s.clone(), core_seed(seed, i)))
                            .collect(),
                        system: SystemConfig::paper_n_core(4),
                        warmup: MIX4_ACCESSES,
                        accesses: MIX4_ACCESSES,
                    })
                    .to_vec()
            }
        }
    }
}
