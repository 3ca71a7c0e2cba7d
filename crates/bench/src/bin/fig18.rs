//! Reproduces Fig. 18: Triage speedup under different Markov-table
//! entry formats and lookup-table configurations (Section 6.5).
//!
//! The five variants: the default 32-bit entry with a 16-way-associative
//! 1024-entry lookup table; a hypothetical *ideal* (never-wrong) lookup
//! table; a fully-associative lookup table; Triangel's 42-bit direct
//! format; and the 10-bit-offset variant that models halved physical
//! frame locality.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig18"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig18"));
}
