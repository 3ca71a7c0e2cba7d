//! Reproduces Fig. 15 of the paper (DRAM+L3 energy, including Triangel-NoMRB).
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig15"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig15"));
}
