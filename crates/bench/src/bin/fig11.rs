//! Reproduces Fig. 11 of the paper (DRAM traffic). See DESIGN.md's experiment index.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig11"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig11"));
}
