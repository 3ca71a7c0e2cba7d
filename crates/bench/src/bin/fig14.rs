//! Reproduces Fig. 14 of the paper (L3 accesses, including Triangel-NoMRB).
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig14"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig14"));
}
