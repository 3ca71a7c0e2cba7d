//! Parallel, deterministic experiment orchestration.
//!
//! Every figure and table of the paper is a sweep of independent
//! `(workload, prefetcher-configuration)` simulations. This crate turns
//! such an experiment into *data* and runs it on all available cores:
//!
//! * [`JobSpec`] — one simulation as a value: a [`WorkloadSpec`], a
//!   [`PrefetcherChoice`](triangel_sim::PrefetcherChoice), warm-up and
//!   measurement lengths, a seed and a page-mapper choice. Every job
//!   has a content [`key`](JobSpec::key) that uniquely identifies the
//!   simulation it describes.
//! * [`pool`] — a work-stealing scheduler over `std::thread`. Results
//!   land in per-job slots, so output order (and therefore every
//!   emitted byte) is independent of how work was interleaved:
//!   `--jobs 8` produces exactly the bytes `--jobs 1` does.
//! * [`ResultCache`] — a content-keyed cache of finished runs. Shared
//!   baselines (e.g. the stride-only normalization run every figure
//!   needs) execute once per sweep — or once per *process* when the
//!   cache is shared across sweeps — and the hit counter is reported.
//! * [`Sweep`] / [`GridSpec`] — the aggregation layer: a flat job list
//!   with fold-it-yourself results, or a declarative rows × columns
//!   grid that folds [`RunReport`](triangel_sim::RunReport)s into
//!   labeled [`FigureTable`](triangel_sim::report::FigureTable)s.
//! * [`emit`] — table CSV, and table/sweep-report JSON built as
//!   [`triangel_obs::json::Value`] documents (the workspace's one JSON
//!   writer; figure artifacts build theirs the same way).
//! * [`goldens`] — the pinned fixture sweeps, shared by the golden
//!   tests and the `bless` re-bless devtool so they cannot drift.
//!
//! # Determinism
//!
//! Jobs share no mutable state: each builds its trace generator from
//! its own seed inside the worker that runs it, and the simulator
//! itself is seed-deterministic. The scheduler only decides *when* a
//! job runs, never *what* it computes, so a sweep's report is a pure
//! function of its job list.
//!
//! # Example
//!
//! ```
//! use triangel_harness::{GridSpec, RunParams, SweepOptions, WorkloadSpec};
//! use triangel_sim::PrefetcherChoice;
//! use triangel_workloads::spec::SpecWorkload;
//!
//! let grid = GridSpec::new(RunParams { warmup: 2_000, accesses: 2_000, sizing_window: 1_000, seed: 7 })
//!     .row(WorkloadSpec::Spec(SpecWorkload::Xalan))
//!     .column(PrefetcherChoice::Triangel);
//! let result = grid.run(&SweepOptions::serial()).unwrap();
//! assert!(result.comparison(0, 0).speedup > 0.0);
//! // The stride-only baseline ran exactly once.
//! assert_eq!(result.stats.executed, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod emit;
pub mod goldens;
mod grid;
mod job;
pub mod pool;
mod sweep;

pub use campaign::{Campaign, CampaignOptions, CampaignReport, CampaignStats, JobOutcome};
pub use grid::{GridResult, GridSpec};
pub use job::{JobSpec, MapperSpec, RunParams, WorkloadSpec};
pub use sweep::{JobError, Progress, ResultCache, Sweep, SweepOptions, SweepReport, SweepStats};
// Re-exported so fixture tests and batch drivers can build
// `JobSpec::features` overrides without a direct `triangel-sim` import.
pub use triangel_sim::TriangelFeatures;
// The on-disk result store the sweep and campaign layers coordinate
// through (see `SweepOptions::with_store`).
pub use triangel_store::ResultStore;
