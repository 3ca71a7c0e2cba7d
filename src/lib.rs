//! # Triangel: a temporal-prefetcher reproduction
//!
//! This crate is the facade of a from-scratch Rust reproduction of
//! *"Triangel: A High-Performance, Accurate, Timely On-Chip Temporal
//! Prefetcher"* (Ainsworth & Mukhanov, ISCA 2024). It re-exports the
//! workspace crates so downstream users need a single dependency:
//!
//! * [`types`] — addresses, counters, RNG, statistics.
//! * [`cache`] — set-associative caches, replacement policies (LRU, PLRU,
//!   RRIP, HawkEye), MSHRs, way partitioning, set duelling.
//! * [`mem`] — DRAM latency/bandwidth and energy models.
//! * [`workloads`] — trace format, SPEC-like temporal workload generators,
//!   Graph500 BFS, multiprogramming.
//! * [`prefetch`] — prefetcher traits, the stride prefetcher, Bloom
//!   filters.
//! * [`markov`] — Markov-table metadata formats and in-L3 storage.
//! * [`triage`] — the fixed Triage baseline (MICRO 2019 / IEEE TC 2022).
//! * [`core`] — the Triangel prefetcher itself.
//! * [`sim`] — the trace-driven timing simulator and experiment runner.
//! * [`harness`] — parallel, deterministic experiment orchestration:
//!   declarative job lists, a work-stealing scheduler, a content-keyed
//!   result cache, JSON/CSV emitters, the checkpointable
//!   [`Campaign`](harness::Campaign) runner that snapshots and resumes
//!   paper-scale sweeps (see EXPERIMENTS.md).
//! * [`store`] — the on-disk, content-addressed result store shared
//!   across processes: atomic publishes, `flock`-claimed exactly-once
//!   execution, self-checking entries.
//!
//! # Quickstart
//!
//! ```
//! use triangel::sim::{PrefetcherChoice, SimSession};
//! use triangel::workloads::spec::SpecWorkload;
//!
//! // Run a short Triangel session on the Omnetpp-like workload.
//! // (Real evaluations use millions of accesses; see EXPERIMENTS.md.)
//! let report = SimSession::builder()
//!     .workload(SpecWorkload::Omnetpp.generator(7))
//!     .prefetcher(PrefetcherChoice::Triangel)
//!     .warmup(5_000)
//!     .accesses(10_000)
//!     .run()
//!     .unwrap();
//! assert!(report.ipc() > 0.0);
//! ```
//!
//! Whole sweeps — many (workload, configuration) pairs — go through the
//! harness, which parallelizes them deterministically and runs shared
//! baselines once:
//!
//! ```
//! use triangel::harness::{GridSpec, RunParams, SweepOptions, WorkloadSpec};
//! use triangel::sim::PrefetcherChoice;
//! use triangel::workloads::spec::SpecWorkload;
//!
//! let params = RunParams { warmup: 1_000, accesses: 1_000, sizing_window: 500, seed: 1 };
//! let result = GridSpec::new(params)
//!     .row(WorkloadSpec::Spec(SpecWorkload::Mcf))
//!     .column(PrefetcherChoice::Triage)
//!     .run(&SweepOptions::parallel(2))
//!     .unwrap();
//! assert!(result.comparison(0, 0).speedup > 0.0);
//! ```

pub use triangel_cache as cache;
pub use triangel_core as core;
pub use triangel_harness as harness;
pub use triangel_markov as markov;
pub use triangel_mem as mem;
pub use triangel_prefetch as prefetch;
pub use triangel_sim as sim;
pub use triangel_store as store;
pub use triangel_triage as triage;
pub use triangel_types as types;
pub use triangel_workloads as workloads;
