//! Reproduces Table 2: the core and memory experimental setup.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"table2"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("table2"));
}
