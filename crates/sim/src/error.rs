//! Typed errors for experiment construction and execution.

use std::error::Error;
use std::fmt;

/// Why an experiment specification could not be run.
///
/// Returned by [`crate::Engine::try_new`] and
/// [`crate::SimSessionBuilder::build`] so that batch drivers (the
/// `triangel-harness` scheduler in particular) can report a bad job
/// without aborting a whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The system configuration expects a different number of cores
    /// than there are trace sources.
    CoreCountMismatch {
        /// Cores in the [`crate::SystemConfig`].
        cores: usize,
        /// Trace sources supplied.
        sources: usize,
    },
    /// An experiment was built with no trace sources at all.
    NoSources,
    /// A prefetcher that resizes its Markov partition once per sizing
    /// window (Set Dueller / Bloom period) was given a window of 0.
    ZeroSizingWindow,
    /// A workload behind a spec could not be constructed — a trace
    /// file missing, truncated, or changed on disk since the job was
    /// keyed.
    Workload {
        /// The rendered cause.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CoreCountMismatch { cores, sources } => write!(
                f,
                "system configured for {cores} core(s) but {sources} trace source(s) supplied"
            ),
            SimError::NoSources => write!(f, "experiment has no trace sources"),
            SimError::ZeroSizingWindow => {
                write!(f, "the prefetcher's sizing window must be positive")
            }
            SimError::Workload { message } => {
                write!(f, "workload construction failed: {message}")
            }
        }
    }
}

impl Error for SimError {}
