//! Reproduces Fig. 17: slowdown and DRAM traffic on Graph500 search,
//! the paper's adversarial workload (Section 6.4).
//!
//! Neither input has exploitable temporal correlation: `s16 e10` fits
//! the Markov range but repeats too little; `s21 e10`'s reuse distances
//! exceed any on-chip capacity. Temporal prefetchers should ideally do
//! nothing; the paper shows the Triage variants slowing the system
//! dramatically while Triangel's classifiers largely switch off.
//!
//! Declarative definition: `triangel_bench::figures` registry entry
//! `"fig17"`, executed by the `triangel-harness` scheduler
//! (`--jobs N` controls worker threads; results are identical for any
//! value).

fn main() {
    triangel_bench::figures::run_main(triangel_bench::figures::Selection::One("fig17"));
}
