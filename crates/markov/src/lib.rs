//! Markov-table metadata for Triage and Triangel.
//!
//! The Markov table stores temporally-correlated `(lookup, target)` line
//! pairs inside a way-partition of the L3 (Sections 2–3 of the paper).
//! This crate implements the storage faithfully enough that the paper's
//! *format* experiments (Figs. 18 and 19) reproduce:
//!
//! * [`TargetFormat`] — the five evaluated layouts: 32-bit entries whose
//!   targets indirect through a 1024-entry [`LookupTable`] (16-way,
//!   fully-associative, or ideal), the 10-bit-offset fragmentation
//!   variant, and Triangel's 42-bit direct format.
//! * [`LookupTable`] — the upper-bits table whose silent evictions are
//!   Triage's hidden inaccuracy: a replaced entry redirects every Markov
//!   entry still pointing at it to the *wrong* physical region.
//! * [`MarkovTable`] — set+sub-set indexed storage (Section 3.2): cache
//!   set from the address, way from `tag-# % partition_ways`, 16-way (or
//!   12-way) associative entries within the selected line, one
//!   confidence bit per entry (Section 3.4), with re-indexing on
//!   partition resize. The table is generic over its replacement
//!   policy ([`TriageMarkov`] = HawkEye, [`TriangelMarkov`] = SRRIP)
//!   and backed by one packed set-associative arena
//!   ([`triangel_types::arena::SetArena`]) per way the partition holds,
//!   so a line probe is one contiguous tag sweep and an unused way
//!   costs no memory; [`MarkovTableImpl`] wraps every shipped
//!   combination for callers that pick the policy at runtime.
//!
//! # Examples
//!
//! ```
//! use triangel_markov::{MarkovTableImpl, MarkovTableConfig, TargetFormat};
//! use triangel_types::{LineAddr, Pc};
//!
//! let mut t = MarkovTableImpl::new(MarkovTableConfig::triangel());
//! t.set_ways(8);
//! t.train(LineAddr::new(100), LineAddr::new(200), Pc::new(1));
//! let hit = t.lookup(LineAddr::new(100)).expect("trained pair");
//! assert_eq!(hit.target, LineAddr::new(200));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format;
mod lut;
mod table;

pub use format::{LutAssociativity, TargetFormat};
pub use lut::LookupTable;
pub use table::{
    MarkovHit, MarkovTable, MarkovTableConfig, MarkovTableImpl, MarkovTableStats, TriageMarkov,
    TriangelMarkov,
};
