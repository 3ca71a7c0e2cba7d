//! Extension study: the Set Dueller's bias factor B (Section 4.7,
//! footnote 11).
//!
//! B discounts modelled Markov-table hits by the DRAM cost of
//! prefetches (each Markov hit is worth `12 / B` cache hits). The paper
//! uses B = 2 and notes that "more aggressive tradeoff parameters...
//! do increase performance" at the cost of traffic; this binary sweeps
//! B over {1, 2, 4} to expose that tradeoff.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"duel_bias"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("duel_bias"));
}
