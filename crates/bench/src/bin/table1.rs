//! Reproduces Table 1: sizing of Triangel's dedicated structures.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"table1"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("table1"));
}
