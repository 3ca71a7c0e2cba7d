//! [`PrefetcherChoice`]: the paper's evaluated temporal-prefetcher
//! configurations as a value.

use crate::dispatch::PrefetcherImpl;
use triangel_core::{Triangel, TriangelConfig, TriangelFeatures};
use triangel_markov::TargetFormat;
use triangel_triage::{Triage, TriageConfig};

/// Which temporal prefetcher to attach (the paper's evaluated
/// configurations; the baseline stride prefetcher is always present).
#[derive(Debug, Clone, Copy)]
pub enum PrefetcherChoice {
    /// Stride only (the normalization baseline).
    Baseline,
    /// Triage at degree 1.
    Triage,
    /// Triage at unconditional degree 4.
    TriageDeg4,
    /// Triage degree 4 with Triangel's lookahead-2.
    TriageDeg4Look2,
    /// Triage with an explicit Markov metadata format (Fig. 18).
    TriageFormat(TargetFormat),
    /// Full Triangel.
    Triangel,
    /// Triangel with Bloom-filter sizing.
    TriangelBloom,
    /// Triangel without the Metadata Reuse Buffer.
    TriangelNoMrb,
    /// Triangel at an ablation-ladder step (0..=8, Fig. 20).
    TriangelLadder(usize),
    /// Triage with a fully custom configuration (e.g. the Section 3.3
    /// replacement-policy study).
    TriageCustom(TriageConfig),
    /// Triangel with a fully custom configuration.
    TriangelCustom(TriangelConfig),
}

impl PrefetcherChoice {
    /// Display label as used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            PrefetcherChoice::Baseline => "Baseline".into(),
            PrefetcherChoice::Triage => "Triage".into(),
            PrefetcherChoice::TriageDeg4 => "Triage-Deg4".into(),
            PrefetcherChoice::TriageDeg4Look2 => "Triage-Deg4-Look2".into(),
            PrefetcherChoice::TriageFormat(f) => f.label().into(),
            PrefetcherChoice::Triangel => "Triangel".into(),
            PrefetcherChoice::TriangelBloom => "Triangel-Bloom".into(),
            PrefetcherChoice::TriangelNoMrb => "Triangel-NoMRB".into(),
            PrefetcherChoice::TriangelLadder(s) => {
                triangel_core::TriangelFeatures::ladder_label(*s).into()
            }
            PrefetcherChoice::TriageCustom(_) => "Triage-custom".into(),
            PrefetcherChoice::TriangelCustom(_) => "Triangel-custom".into(),
        }
    }

    /// Whether [`crate::SimSessionBuilder::sizing_window`] affects this
    /// configuration at all. Only the non-custom Triangel variants read the window
    /// (their Set Dueller / Bloom reset period); Triage ignores it, the
    /// stride-only baseline has no temporal prefetcher, and the custom
    /// configurations carry their own window. Batch drivers use this to
    /// keep job content keys honest: two Triage jobs that differ only in
    /// the sweep's window describe the same simulation.
    pub fn uses_sizing_window(&self) -> bool {
        matches!(
            self,
            PrefetcherChoice::Triangel
                | PrefetcherChoice::TriangelBloom
                | PrefetcherChoice::TriangelNoMrb
                | PrefetcherChoice::TriangelLadder(_)
        )
    }

    /// The Triangel configuration this choice describes, with the
    /// sweep's sizing window applied, or `None` for non-Triangel
    /// choices. Custom configurations carry their own window.
    fn triangel_config(&self, sizing_window: u64) -> Option<TriangelConfig> {
        let mut c = match self {
            PrefetcherChoice::Triangel => TriangelConfig::paper_default(),
            PrefetcherChoice::TriangelBloom => TriangelConfig::bloom_variant(),
            PrefetcherChoice::TriangelNoMrb => TriangelConfig::no_mrb(),
            PrefetcherChoice::TriangelLadder(s) => TriangelConfig::ladder(*s),
            PrefetcherChoice::TriangelCustom(c) => return Some(*c),
            _ => return None,
        };
        c.sizing_window = sizing_window;
        Some(c)
    }

    /// The sizing window the prefetcher built from this choice runs on,
    /// given the session's: a custom configuration's own window, the
    /// session's for the other Triangel variants, `None` for the
    /// baseline and the fixed Triage variants.
    pub(crate) fn effective_sizing_window(&self, sizing_window: u64) -> Option<u64> {
        match self {
            PrefetcherChoice::TriageCustom(c) => Some(c.sizing_window),
            _ => self.triangel_config(sizing_window).map(|c| c.sizing_window),
        }
    }

    /// Builds the prefetcher this choice describes.
    pub fn build_impl(&self, sizing_window: u64) -> PrefetcherImpl {
        self.build_impl_with(sizing_window, None)
    }

    /// [`PrefetcherChoice::build_impl`] with an optional
    /// [`TriangelFeatures`] override (applied to Triangel-family
    /// choices only; see
    /// [`SimSessionBuilder::triangel_features`](crate::SimSessionBuilder::triangel_features)).
    pub(crate) fn build_impl_with(
        &self,
        sizing_window: u64,
        features: Option<TriangelFeatures>,
    ) -> PrefetcherImpl {
        match self {
            PrefetcherChoice::Baseline => PrefetcherImpl::Null,
            PrefetcherChoice::Triage => {
                PrefetcherImpl::Triage(Box::new(Triage::new(TriageConfig::paper_default())))
            }
            PrefetcherChoice::TriageDeg4 => {
                PrefetcherImpl::Triage(Box::new(Triage::new(TriageConfig::degree4())))
            }
            PrefetcherChoice::TriageDeg4Look2 => {
                PrefetcherImpl::Triage(Box::new(Triage::new(TriageConfig::degree4_lookahead2())))
            }
            PrefetcherChoice::TriageFormat(f) => PrefetcherImpl::Triage(Box::new(Triage::new(
                TriageConfig::paper_default().with_format(*f),
            ))),
            PrefetcherChoice::TriageCustom(c) => PrefetcherImpl::Triage(Box::new(Triage::new(*c))),
            _ => {
                let mut c = self
                    .triangel_config(sizing_window)
                    .expect("non-Triage choices are Triangel-family");
                if let Some(f) = features {
                    c.features = f;
                }
                PrefetcherImpl::Triangel(Box::new(Triangel::new(c)))
            }
        }
    }

    /// Whether a [`TriangelFeatures`] override (e.g. via
    /// [`crate::SimSessionBuilder::triangel_features`]) affects this
    /// configuration at all — only the Triangel family carries feature
    /// toggles; the baseline and Triage ignore an override entirely.
    /// Batch drivers use this to keep job content keys honest: a gated
    /// and an ungated Triage job describe the same simulation.
    pub fn accepts_feature_override(&self) -> bool {
        matches!(
            self,
            PrefetcherChoice::Triangel
                | PrefetcherChoice::TriangelBloom
                | PrefetcherChoice::TriangelNoMrb
                | PrefetcherChoice::TriangelLadder(_)
                | PrefetcherChoice::TriangelCustom(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PrefetcherChoice::TriageDeg4.label(), "Triage-Deg4");
        assert_eq!(PrefetcherChoice::TriangelLadder(0).label(), "Triage-Deg-4");
    }
}
