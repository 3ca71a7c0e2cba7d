//! Shared infrastructure for the figure-reproduction harness.
//!
//! The `all_figures` binary regenerates the paper's tables and figures,
//! each a declarative job list executed by [`triangel_harness`] (see
//! the [`figures`] registry, which maps experiment names to
//! definitions; `--filter` picks among them through [`name_filter`]).
//! The other binaries are tools: `bless`, `campaign` and
//! `trace_record`. Figures 10–15 share one sweep over
//! the seven SPEC-like workloads; [`SpecSweep`] runs it once and
//! exposes each figure's metric as a [`FigureTable`].
//!
//! Scale knobs (environment variables, so the same binaries serve smoke
//! tests and full runs):
//!
//! * `TRIANGEL_QUICK=1` — small warm-up/measurement for CI smoke runs.
//! * `TRIANGEL_WARMUP` / `TRIANGEL_ACCESSES` — explicit per-core access
//!   counts.
//!
//! Command-line knobs of `all_figures`: `--jobs N` sets the
//! worker-thread count (default: one per core; results are
//! bit-identical whatever the value), `--filter <names>` selects
//! experiments and `--out-dir <dir>` adds JSON/CSV emission.

pub mod figures;
pub mod name_filter;

use triangel_harness::{GridResult, GridSpec, RunParams, SweepOptions};
use triangel_sim::report::FigureTable;
use triangel_sim::{Comparison, PrefetcherChoice, RunReport};
use triangel_workloads::spec::SpecWorkload;

/// Scale parameters for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Warm-up accesses per core (not measured).
    pub warmup: u64,
    /// Measured accesses per core.
    pub accesses: u64,
    /// Set Dueller / Bloom sizing window.
    pub sizing_window: u64,
    /// Workload seed.
    pub seed: u64,
}

impl SweepParams {
    /// Full-scale parameters used for the recorded results in
    /// EXPERIMENTS.md.
    pub fn full() -> Self {
        SweepParams {
            warmup: 2_000_000,
            accesses: 1_500_000,
            sizing_window: 150_000,
            seed: 42,
        }
    }

    /// Reduced parameters for smoke runs.
    pub fn quick() -> Self {
        SweepParams {
            warmup: 400_000,
            accesses: 300_000,
            sizing_window: 60_000,
            seed: 42,
        }
    }

    /// Resolves parameters from the environment (see module docs).
    pub fn from_env() -> Self {
        let mut p = if quick_mode() {
            SweepParams::quick()
        } else {
            SweepParams::full()
        };
        if let Ok(w) = std::env::var("TRIANGEL_WARMUP") {
            p.warmup = w.parse().expect("TRIANGEL_WARMUP must be an integer");
        }
        if let Ok(a) = std::env::var("TRIANGEL_ACCESSES") {
            p.accesses = a.parse().expect("TRIANGEL_ACCESSES must be an integer");
        }
        p
    }

    /// The harness-level run parameters these scale knobs describe.
    pub fn run_params(&self) -> RunParams {
        RunParams {
            warmup: self.warmup,
            accesses: self.accesses,
            sizing_window: self.sizing_window,
            seed: self.seed,
        }
    }
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams::full()
    }
}

/// Whether `TRIANGEL_QUICK=1` is set.
pub fn quick_mode() -> bool {
    std::env::var("TRIANGEL_QUICK").is_ok_and(|v| v == "1")
}

/// Runs one workload under one prefetcher configuration (serial
/// convenience wrapper; sweeps go through [`SpecSweep`] or a
/// [`GridSpec`] so they parallelize and share baselines).
pub fn run_spec(wl: SpecWorkload, choice: PrefetcherChoice, p: &SweepParams) -> RunReport {
    triangel_harness::JobSpec::new(
        triangel_harness::WorkloadSpec::Spec(wl),
        choice,
        p.run_params(),
    )
    .run()
    .expect("well-formed single-core spec job")
}

/// The figures-10-to-15 sweep: every workload under the baseline and a
/// set of prefetcher configurations, executed by the harness scheduler.
#[derive(Debug)]
pub struct SpecSweep {
    grid: GridResult,
}

impl SpecSweep {
    /// The configurations plotted in Figs. 10–13: Triage, Triage-Deg4,
    /// Triage-Deg4-Look2, Triangel, Triangel-Bloom.
    pub fn paper_configs() -> Vec<PrefetcherChoice> {
        vec![
            PrefetcherChoice::Triage,
            PrefetcherChoice::TriageDeg4,
            PrefetcherChoice::TriageDeg4Look2,
            PrefetcherChoice::Triangel,
            PrefetcherChoice::TriangelBloom,
        ]
    }

    /// The one configuration list the Figs. 10–15 sweep carries:
    /// [`SpecSweep::paper_configs`] plus the No-MRB ablation of
    /// Figs. 14–15. Both the standalone `fig10`–`fig15` binaries and
    /// `all_figures` run (and print) exactly these columns, so their
    /// outputs agree byte for byte — the seed's standalone binaries
    /// dropped the No-MRB column while `all_figures` printed it.
    pub fn paper_configs_with_nomrb() -> Vec<PrefetcherChoice> {
        let mut c = SpecSweep::paper_configs();
        c.push(PrefetcherChoice::TriangelNoMrb);
        c
    }

    /// Runs the sweep serially (see [`SpecSweep::run_opts`]).
    pub fn run(configs: Vec<PrefetcherChoice>, p: &SweepParams) -> Self {
        SpecSweep::run_opts(configs, p, &SweepOptions::serial().with_progress())
    }

    /// Runs the sweep under explicit scheduler options.
    pub fn run_opts(configs: Vec<PrefetcherChoice>, p: &SweepParams, opts: &SweepOptions) -> Self {
        let grid = GridSpec::new(p.run_params()).spec_rows().columns(configs);
        SpecSweep {
            grid: grid.run(opts).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Scheduler counters for the underlying sweep.
    pub fn stats(&self) -> triangel_harness::SweepStats {
        self.grid.stats
    }

    /// Per-workload, per-configuration comparison against baseline.
    pub fn comparison(&self, wl_idx: usize, cfg_idx: usize) -> Comparison {
        self.grid.comparison(wl_idx, cfg_idx)
    }

    /// Baseline report for one workload.
    pub fn baseline(&self, wl_idx: usize) -> &RunReport {
        self.grid.baseline(wl_idx)
    }

    /// Run report for one workload/configuration.
    pub fn run_report(&self, wl_idx: usize, cfg_idx: usize) -> &RunReport {
        self.grid.report(wl_idx, cfg_idx)
    }

    /// The configuration labels (column headers).
    pub fn config_labels(&self) -> Vec<String> {
        self.grid.col_labels().to_vec()
    }

    /// Folds a metric into a figure table over every column the sweep
    /// carries. All of Figs. 10–15 print the sweep's full configuration
    /// list, so standalone binaries and `all_figures` (which share this
    /// fold) produce identical tables.
    fn table_all(&self, title: &str, metric: &str, f: impl Fn(Comparison) -> f64) -> FigureTable {
        let labels = self.config_labels();
        let wanted: Vec<&str> = labels.iter().map(String::as_str).collect();
        self.grid.table_for(title, metric, &wanted, f)
    }

    /// Fig. 10: speedup over the stride-only baseline.
    pub fn fig10_speedup(&self) -> FigureTable {
        self.table_all(
            "Fig. 10: Speedup",
            "IPC relative to stride-only baseline",
            |c| c.speedup,
        )
    }

    /// Fig. 11: normalized DRAM traffic.
    pub fn fig11_traffic(&self) -> FigureTable {
        self.table_all(
            "Fig. 11: Normalized DRAM Traffic",
            "DRAM line reads relative to baseline (lower is better)",
            |c| c.dram_traffic,
        )
    }

    /// Fig. 12: accuracy.
    pub fn fig12_accuracy(&self) -> FigureTable {
        self.table_all(
            "Fig. 12: Accuracy",
            "prefetched lines used before L2 eviction",
            |c| c.accuracy,
        )
    }

    /// Fig. 13: coverage.
    pub fn fig13_coverage(&self) -> FigureTable {
        self.table_all(
            "Fig. 13: Coverage",
            "baseline L2 demand misses eliminated",
            |c| c.coverage,
        )
    }

    /// Fig. 14: normalized L3 accesses.
    pub fn fig14_l3(&self) -> FigureTable {
        self.table_all(
            "Fig. 14: Normalized L3 Accesses",
            "L3 data + Markov-table accesses relative to baseline (lower is better)",
            |c| c.l3_accesses,
        )
    }

    /// Fig. 15: normalized DRAM+L3 dynamic energy.
    pub fn fig15_energy(&self) -> FigureTable {
        self.table_all(
            "Fig. 15: Normalized DRAM+L3 Dynamic Energy",
            "25 units/DRAM access + 1 unit/L3 access, relative to baseline",
            |c| c.energy,
        )
    }

    /// The DRAM share of each run's energy (Fig. 15's hashed bars).
    pub fn fig15_dram_fraction(&self) -> FigureTable {
        self.table_all(
            "Fig. 15 (hashed): DRAM share of dynamic energy",
            "fraction of energy units from DRAM",
            |c| c.energy_dram_fraction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_params_cover_dueller_startup() {
        let p = SweepParams::full();
        assert!(
            p.warmup > p.sizing_window * 2,
            "warm-up must cover dueller start-up"
        );
    }

    #[test]
    fn paper_configs_order_matches_figures() {
        let labels: Vec<String> = SpecSweep::paper_configs()
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "Triage",
                "Triage-Deg4",
                "Triage-Deg4-Look2",
                "Triangel",
                "Triangel-Bloom"
            ]
        );
    }

    #[test]
    fn spec_sweep_shares_baselines_and_serves_subset_figures() {
        let p = SweepParams {
            warmup: 2_000,
            accesses: 2_000,
            sizing_window: 1_000,
            seed: 5,
        };
        let sweep = SpecSweep::run_opts(
            SpecSweep::paper_configs_with_nomrb(),
            &p,
            &SweepOptions::parallel(4),
        );
        // 7 workloads x (1 baseline + 6 configs), no duplicates.
        assert_eq!(sweep.stats().jobs, 49);
        assert_eq!(sweep.stats().executed, 49);
        // Every figure of the shared sweep prints the same 6 columns,
        // whether invoked standalone or through all_figures.
        assert_eq!(sweep.fig10_speedup().configs().len(), 6);
        assert_eq!(sweep.fig14_l3().configs().len(), 6);
        assert_eq!(
            sweep.fig13_coverage().configs(),
            sweep.config_labels().as_slice()
        );
    }
}
