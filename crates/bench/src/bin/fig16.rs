//! Reproduces Fig. 16: multiprogrammed-workload speedup.
//!
//! The paper pairs the seven workloads on two cores ("with Xalan doubled
//! to make an even set"): Xalan & Omnet, MCF & GCC_166, Astar &
//! Soplex_3500, Sphinx & Xalan. Each pair shares the L3 (and thus the
//! Markov partition) and the DRAM channel; the per-pair speedup is the
//! geometric mean of the two cores' IPC ratios against the same pair run
//! with the stride-only baseline.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig16"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig16"));
}
