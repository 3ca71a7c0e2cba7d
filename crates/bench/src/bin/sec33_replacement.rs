//! Reproduces the Section 3.3 observation: HawkEye versus simpler
//! policies for Markov-entry replacement barely matters at the full
//! 1 MiB table, and matters more when the table is artificially
//! capacity-limited.
//!
//! We sweep Triage with {LRU, SRRIP, HawkEye} entry replacement at the
//! full partition and at a quarter-size partition (2 max ways =
//! 256 KiB-class), reporting geomean speedup over the stride baseline.
//! The per-workload stride baselines are shared between the two
//! capacity points through the harness result cache.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"sec33_replacement"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("sec33_replacement"));
}
