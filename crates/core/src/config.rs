//! Triangel configuration and the Fig. 20 feature ladder.

use triangel_markov::{MarkovTableConfig, TargetFormat};
use triangel_types::Cycle;

/// Which Markov-partition sizing mechanism to use (Section 4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingMechanism {
    /// Triangel's default Set Dueller.
    SetDueller,
    /// A Bloom filter with the paper's experimentally-determined 1.5x
    /// bias factor (the `Triangel-Bloom` configuration).
    Bloom,
}

/// Individual Triangel mechanisms, in the order the paper's ablation
/// study enables them (Fig. 20, starting from Triage Degree-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangelFeatures {
    /// `+Lookahead-2`: train `(x, z)` instead of `(x, y)` so degree can
    /// overlap dependent chains (Section 4.5).
    pub lookahead2: bool,
    /// `+Triangel Metadata`: the 42-bit direct-target Markov format
    /// instead of Triage's 32-bit LUT format (Section 4.3).
    pub triangel_metadata: bool,
    /// `+BasePatternConf`: gate metadata storage and prefetching on the
    /// 2/3-accuracy classifier (Section 4.4.2).
    pub base_pattern_conf: bool,
    /// `+Second-Chance`: recover loosely-ordered patterns (Section 4.4.2).
    pub second_chance: bool,
    /// `+Metadata Reuse Buffer` (Section 4.6).
    pub metadata_reuse_buffer: bool,
    /// `+Set Duel`: replace Bloom sizing with the Set Dueller
    /// (Section 4.7).
    pub set_dueller: bool,
    /// `+ReuseConf`: gate on patterns fitting the Markov table
    /// (Section 4.4.1).
    pub reuse_conf: bool,
    /// `+HighPatternConf`: require the 5/6-accuracy classifier before
    /// degree-4/lookahead-2 aggression (Section 4.5).
    pub high_pattern_conf: bool,
    /// Train on L2 eviction notices (paper-faithful eviction feedback
    /// through [`Triangel::on_l2_evict`]). **Experimental gate, off
    /// everywhere by default** — it is not part of the Fig. 20 ladder
    /// and [`TriangelFeatures::all`] leaves it off. When set, the
    /// dying line's metadata word (fill source, demand-used bit, fill
    /// cycle) settles training at eviction time: the Markov entry that
    /// predicted the line is reinforced or weakened, and the filling
    /// PC's pattern classifiers receive eviction ground truth.
    /// Enabling it is a behaviour change; golden fixtures must be
    /// re-blessed deliberately (`cargo run -p triangel-bench --bin
    /// bless`). The `features` ablation figure measures its effect.
    ///
    /// [`Triangel::on_l2_evict`]: crate::Triangel::on_l2_evict
    pub train_on_eviction: bool,
}

impl TriangelFeatures {
    /// Everything on: full Triangel.
    ///
    /// # Invariant: `all()` excludes `train_on_eviction`
    ///
    /// "All" means *all of the paper's Fig. 20 ladder*, not every field
    /// of the struct. The experimental `train_on_eviction` gate is
    /// deliberately **not** part of `all()`: it is not in the paper's
    /// default configuration, and `all()` is what every shipped
    /// Triangel preset (and therefore every golden fixture) is built
    /// from. Flipping it on here would silently change every golden.
    /// The invariant is pinned by `ladder_is_cumulative` and
    /// `eviction_training_gate_is_off_everywhere` below — an "enable
    /// everything" edit must fail those tests first.
    pub const fn all() -> Self {
        TriangelFeatures {
            lookahead2: true,
            triangel_metadata: true,
            base_pattern_conf: true,
            second_chance: true,
            metadata_reuse_buffer: true,
            set_dueller: true,
            reuse_conf: true,
            high_pattern_conf: true,
            train_on_eviction: false,
        }
    }

    /// Everything off: behaves like Triage Degree-4 (the ablation's
    /// starting point).
    pub const fn none() -> Self {
        TriangelFeatures {
            lookahead2: false,
            triangel_metadata: false,
            base_pattern_conf: false,
            second_chance: false,
            metadata_reuse_buffer: false,
            set_dueller: false,
            reuse_conf: false,
            high_pattern_conf: false,
            train_on_eviction: false,
        }
    }

    /// The Fig. 20 ladder: features enabled cumulatively. `steps = 0` is
    /// the Triage-Deg4 starting point; `steps = 8` is full Triangel.
    ///
    /// # Panics
    ///
    /// Panics if `steps > 8`.
    pub fn ladder(steps: usize) -> Self {
        assert!(steps <= 8, "the ablation ladder has 8 steps");
        let mut f = TriangelFeatures::none();
        let flags: [&mut bool; 8] = [
            &mut f.lookahead2,
            &mut f.triangel_metadata,
            &mut f.base_pattern_conf,
            &mut f.second_chance,
            &mut f.metadata_reuse_buffer,
            &mut f.set_dueller,
            &mut f.reuse_conf,
            &mut f.high_pattern_conf,
        ];
        for (i, flag) in flags.into_iter().enumerate() {
            *flag = i < steps;
        }
        f
    }

    /// The paper's label for ladder step `steps` (Fig. 20 legend).
    pub fn ladder_label(steps: usize) -> &'static str {
        match steps {
            0 => "Triage-Deg-4",
            1 => "+Lookahead-2",
            2 => "+Triangel Metadata",
            3 => "+BasePatternConf",
            4 => "+Second-Chance",
            5 => "+Metadata Reuse Buffer",
            6 => "+Set Duel",
            7 => "+ReuseConf",
            8 => "+HighPatternConf",
            _ => panic!("the ablation ladder has 8 steps"),
        }
    }
}

/// Full Triangel configuration.
#[derive(Debug, Clone, Copy)]
pub struct TriangelConfig {
    /// Feature toggles (all on by default).
    pub features: TriangelFeatures,
    /// Partition sizing when the Set Dueller is disabled.
    pub bloom_bias: f64,
    /// Markov table geometry; the format is overridden to the Triage LUT
    /// format when `features.triangel_metadata` is off.
    pub table: MarkovTableConfig,
    /// Training-table entries (512, Table 1).
    pub training_entries: usize,
    /// History Sampler entries (512, 2-way; Table 1).
    pub sampler_entries: usize,
    /// Second-Chance Sampler entries (64; Table 1).
    pub scs_entries: usize,
    /// Second-Chance proximity window, in L2 fills (512; Section 4.4.2).
    pub scs_window: u64,
    /// Metadata Reuse Buffer entries (256, 2-way; Section 4.6).
    pub mrb_entries: usize,
    /// Maximum prefetch degree when aggressive (4; Section 4.5).
    pub max_degree: usize,
    /// Cycles per Markov-partition access (25; Section 5).
    pub markov_latency: Cycle,
    /// Set Dueller / Bloom sizing window, in prefetcher events
    /// (500 000 in the paper; Section 4.7).
    pub sizing_window: u64,
    /// Set Dueller bias factor B against Markov hits (2; Section 4.7
    /// fn. 11).
    pub dueller_bias: u32,
    /// Bits in the sizing Bloom filter (Triangel-Bloom only).
    pub bloom_bits: usize,
    /// Seed for the sampling randomness.
    pub seed: u64,
}

impl TriangelConfig {
    /// The paper's default Triangel.
    pub fn paper_default() -> Self {
        TriangelConfig {
            features: TriangelFeatures::all(),
            bloom_bias: 1.5,
            table: MarkovTableConfig::triangel(),
            training_entries: 512,
            sampler_entries: 512,
            scs_entries: 64,
            scs_window: 512,
            mrb_entries: 256,
            max_degree: 4,
            markov_latency: 25,
            sizing_window: 500_000,
            dueller_bias: 2,
            bloom_bits: 1 << 17,
            seed: 0x7121,
        }
    }

    /// `Triangel-Bloom`: the Bloom-filter sizing variant shown in every
    /// figure.
    pub fn bloom_variant() -> Self {
        let mut cfg = TriangelConfig::paper_default();
        cfg.features.set_dueller = false;
        cfg
    }

    /// Full Triangel without the Metadata Reuse Buffer
    /// (`Triangel-NoMRB`, Figs. 14–15).
    pub fn no_mrb() -> Self {
        let mut cfg = TriangelConfig::paper_default();
        cfg.features.metadata_reuse_buffer = false;
        cfg
    }

    /// An ablation-ladder configuration (Fig. 20).
    pub fn ladder(steps: usize) -> Self {
        let mut cfg = TriangelConfig::paper_default();
        cfg.features = TriangelFeatures::ladder(steps);
        cfg
    }

    /// The effective Markov format after the `triangel_metadata` toggle.
    pub fn effective_format(&self) -> TargetFormat {
        if self.features.triangel_metadata {
            TargetFormat::Direct42
        } else {
            TargetFormat::triage_default()
        }
    }

    /// The sizing mechanism after the `set_dueller` toggle.
    pub fn sizing(&self) -> SizingMechanism {
        if self.features.set_dueller {
            SizingMechanism::SetDueller
        } else {
            SizingMechanism::Bloom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        assert_eq!(TriangelFeatures::ladder(0), TriangelFeatures::none());
        assert_eq!(TriangelFeatures::ladder(8), TriangelFeatures::all());
        let f3 = TriangelFeatures::ladder(3);
        assert!(f3.lookahead2 && f3.triangel_metadata && f3.base_pattern_conf);
        assert!(!f3.second_chance && !f3.set_dueller);
        // The ladder's top — and `all()` with it — excludes the
        // experimental eviction-training gate by design: "all" is the
        // paper's Fig. 20 feature set, and every golden fixture is
        // built from it. See the invariant note on `all()` itself.
        assert!(!TriangelFeatures::all().train_on_eviction);
    }

    #[test]
    fn ladder_labels_match_fig20() {
        assert_eq!(TriangelFeatures::ladder_label(0), "Triage-Deg-4");
        assert_eq!(TriangelFeatures::ladder_label(8), "+HighPatternConf");
    }

    #[test]
    fn format_follows_metadata_toggle() {
        let full = TriangelConfig::paper_default();
        assert_eq!(full.effective_format(), TargetFormat::Direct42);
        let early = TriangelConfig::ladder(1);
        assert_eq!(early.effective_format(), TargetFormat::triage_default());
    }

    #[test]
    fn variants() {
        assert_eq!(
            TriangelConfig::bloom_variant().sizing(),
            SizingMechanism::Bloom
        );
        assert_eq!(
            TriangelConfig::paper_default().sizing(),
            SizingMechanism::SetDueller
        );
        assert!(!TriangelConfig::no_mrb().features.metadata_reuse_buffer);
    }

    #[test]
    #[should_panic(expected = "8 steps")]
    fn ladder_bounds() {
        let _ = TriangelFeatures::ladder(9);
    }

    #[test]
    fn eviction_training_gate_is_off_everywhere() {
        // The experimental gate must not leak into any shipped
        // configuration: enabling it is always an explicit opt-in.
        assert!(!TriangelFeatures::all().train_on_eviction);
        assert!(!TriangelFeatures::none().train_on_eviction);
        for step in 0..=8 {
            assert!(!TriangelFeatures::ladder(step).train_on_eviction);
        }
        assert!(!TriangelConfig::paper_default().features.train_on_eviction);
    }
}
