//! The Triangel temporal prefetcher (Ainsworth & Mukhanov, ISCA 2024).
//!
//! Triangel extends Triage with sampling-based aggression control
//! (Section 4 of the paper):
//!
//! * [`TrainingTable`] — Triage's per-PC table extended with
//!   `LastAddr[1]`, a local timestamp, `ReuseConf`, two `PatternConf`
//!   counters, `SampleRate`, and the lookahead bit (Fig. 5).
//! * [`HistorySampler`] — randomly samples trained pairs to observe
//!   long-term reuse (is the pattern small enough for the Markov table?)
//!   and pattern repetition (will the prefetch be accurate?)
//!   (Section 4.4).
//! * [`SecondChanceSampler`] — catches inexact sequences whose prefetches
//!   would still be used before eviction (Section 4.4.2).
//! * [`MetadataReuseBuffer`] — a 256-entry buffer that removes redundant
//!   L3 Markov lookups from overlapping high-degree walks and suppresses
//!   no-change updates (Section 4.6).
//! * [`SetDueller`] — models a full-size L3 and a full-size Markov table
//!   on 64 sampled sets to pick the partition split that maximizes hits
//!   (Section 4.7).
//! * [`Triangel`] — the prefetcher itself, with per-feature toggles
//!   ([`TriangelFeatures`]) matching the Fig. 20 ablation series.
//!
//! # Examples
//!
//! ```
//! use triangel_core::{Triangel, TriangelConfig};
//!
//! let pf = Triangel::new(TriangelConfig::paper_default());
//! assert_eq!(pf.name(), "Triangel");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod history_sampler;
mod prefetcher;
mod reuse_buffer;
mod second_chance;
mod set_dueller;
mod sizing;
mod training;

pub use config::{SizingMechanism, TriangelConfig, TriangelFeatures};
pub use history_sampler::{HistorySampler, SampleVerdict};
pub use prefetcher::Triangel;
pub use reuse_buffer::MetadataReuseBuffer;
pub use second_chance::{ScsOutcome, SecondChanceSampler};
pub use set_dueller::SetDueller;
pub use sizing::{structure_sizes, StructureSize};
pub use training::{TrainingEntry, TrainingTable};
