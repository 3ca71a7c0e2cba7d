//! The trace-driven timing simulator.
//!
//! This crate assembles the substrates into the paper's evaluation
//! system (Table 2): a 5-wide out-of-order core approximation with a
//! 288-entry ROB, L1D/L2/L3 caches with MSHRs, an LPDDR5-like DRAM
//! channel, the baseline stride prefetcher, and one of the temporal
//! prefetchers (Triage or Triangel) attached to the L2 with its Markov
//! table in an L3 way-partition.
//!
//! The timing model is an interval approximation rather than a
//! cycle-accurate pipeline (see DESIGN.md): out-of-order *issue* limited
//! by ROB occupancy and load dependences, in-order *retire*, and a
//! bandwidth-limited memory system. This reproduces the first-order
//! effects temporal prefetching lives on — memory-level parallelism,
//! prefetch timeliness, and DRAM congestion.
//!
//! The pipeline is monomorphized end to end: trace sources are pulled
//! in batches ([`triangel_workloads::AccessRing`]), the temporal
//! prefetcher and cache replacement are enum-dispatched
//! ([`PrefetcherImpl`],
//! [`triangel_cache::replacement::ReplacementImpl`]), and the engine's
//! in-flight timeline is a fixed power-of-two ring — no `dyn` call
//! remains on the per-access hot path. The temporal prefetchers are the
//! closed set the paper evaluates: [`PrefetcherImpl`] has one arm per
//! family, built from a [`PrefetcherChoice`].
//!
//! # Examples
//!
//! [`SimSession::builder`] is the single entry point: configuration →
//! workloads → prefetcher → run.
//!
//! ```
//! use triangel_sim::{PrefetcherChoice, SimSession};
//! use triangel_workloads::spec::SpecWorkload;
//!
//! let report = SimSession::builder()
//!     .workload(SpecWorkload::Xalan.generator(1))
//!     .prefetcher(PrefetcherChoice::Triangel)
//!     .warmup(5_000)
//!     .accesses(10_000)
//!     .run()
//!     .unwrap();
//! assert!(report.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod choice;
mod config;
mod dispatch;
mod engine;
mod error;
mod hierarchy;
mod metrics;
pub mod report;
mod session;

pub use choice::PrefetcherChoice;
pub use config::{ContentionConfig, SystemConfig};
pub use dispatch::PrefetcherImpl;
pub use engine::Engine;
pub use error::SimError;
pub use hierarchy::{CoreStats, MemorySystem};
pub use metrics::{Comparison, CoreReport, RunReport};
pub use session::{SimSession, SimSessionBuilder, SNAPSHOT_VERSION};
// Re-exported so batch drivers can set session-level feature gates
// without depending on `triangel-core` directly.
pub use triangel_core::TriangelFeatures;
