//! Reproduces Fig. 20: the ablation study (Section 6.6).
//!
//! Starting from Triage Degree-4, each column enables one more Triangel
//! mechanism, in the paper's order: +Lookahead-2, +Triangel Metadata,
//! +BasePatternConf, +Second-Chance, +Metadata Reuse Buffer, +Set Duel,
//! +ReuseConf, +HighPatternConf. Both panels of the figure are printed:
//! (a) speedup, (b) normalized DRAM traffic.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig20"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig20"));
}
