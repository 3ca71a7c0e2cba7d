//! Deterministic observability for the Triangel reproduction.
//!
//! Three concerns, strictly separated by where time comes from:
//!
//! * [`interval`] — a **simulation-time** series recorder:
//!   [`IntervalSeries`] samples cumulative counters every N measured
//!   accesses. Pure function of the job spec; snapshot-aware, so
//!   interrupt→resume reproduces the series byte for byte.
//! * [`probe`] — a **timeless** registry: components implement
//!   [`Probe`] to export named counters into a [`ProbeSet`], which
//!   replaced the (since-removed) ad-hoc `debug_string`. Emitted as
//!   JSONL, one [`json::Value`] per line.
//! * [`trace`] — **wall-clock**, host-side only: the harness records
//!   spans/counters into a [`TraceBuffer`] emitted as Chrome
//!   `trace_event` JSON for Perfetto. Never touches sim state.
//!
//! All of them serialize through [`json`]: [`json::Value`] is the
//! workspace's one JSON model and writer (every JSON artifact, figure
//! documents and sweep reports included, is built as one), with a
//! parser that reads documents back into it.
//!
//! The invariant the whole crate is built around: enabling any of this
//! must leave simulation output byte-identical to disabled.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod interval;
pub mod json;
pub mod probe;
pub mod trace;

pub use interval::{IntervalSample, IntervalSeries, IntervalWindow, DUELLER_COUNTERS};
pub use probe::{Probe, ProbeSet};
pub use trace::{TraceArg, TraceBuffer};
