//! Reproduces Fig. 10 of the paper (speedup). See DESIGN.md's experiment index.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig10"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig10"));
}
