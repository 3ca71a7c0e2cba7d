//! Reproduces Fig. 12 of the paper (accuracy). See DESIGN.md's experiment index.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig12"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig12"));
}
