//! Reproduces Fig. 19: accuracy of Triage's lookup-table format with 11
//! and 10 offset bits (Section 6.5).
//!
//! The 10-bit variant gives the lookup table twice as many distinct
//! upper-bit regions to track ("roughly equivalent to halving
//! physical-page locality or doubling page fragmentation"); when its
//! 1024 entries are exhausted, stale indices silently reconstruct wrong
//! addresses and accuracy collapses.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig19"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig19"));
}
