//! The paper's dynamic-energy unit model.

/// Energy cost model from Section 6.2 of the paper: "we assign DRAM
/// accesses an energy cost of 25 units, and L3 accesses (including data
/// accesses and Markov-table accesses) a cost of one unit."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Units per DRAM line transfer.
    pub dram_unit: f64,
    /// Units per L3 access (data or Markov metadata).
    pub l3_unit: f64,
}

impl EnergyModel {
    /// The paper's 25:1 model.
    pub const fn paper() -> Self {
        EnergyModel {
            dram_unit: 25.0,
            l3_unit: 1.0,
        }
    }

    /// Computes the energy breakdown for the given event counts.
    pub fn evaluate(&self, dram_accesses: u64, l3_accesses: u64) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: dram_accesses as f64 * self.dram_unit,
            l3: l3_accesses as f64 * self.l3_unit,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper()
    }
}

/// DRAM and L3 dynamic energy, in the paper's abstract units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// DRAM portion (the hashed bars in Fig. 15).
    pub dram: f64,
    /// L3 portion (data + Markov accesses).
    pub l3: f64,
}

impl EnergyBreakdown {
    /// Total units.
    pub fn total(&self) -> f64 {
        self.dram + self.l3
    }

    /// DRAM share of the total, in `[0, 1]`; 0 when total is 0.
    pub fn dram_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.dram / t
        }
    }

    /// This breakdown's total normalized to a baseline's total
    /// (Fig. 15 plots energy relative to the no-temporal-prefetcher
    /// baseline).
    ///
    /// NaN when the baseline spent no energy (a run too short to reach
    /// memory); the JSON writers emit it as `null`.
    pub fn normalized_to(&self, baseline: &EnergyBreakdown) -> f64 {
        let b = baseline.total();
        if b > 0.0 {
            self.total() / b
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratio_is_25_to_1() {
        let m = EnergyModel::paper();
        let e = m.evaluate(1, 25);
        assert_eq!(e.dram, e.l3);
        assert_eq!(e.total(), 50.0);
    }

    #[test]
    fn normalization() {
        let m = EnergyModel::paper();
        let base = m.evaluate(100, 1000);
        let with_pf = m.evaluate(110, 2000);
        let norm = with_pf.normalized_to(&base);
        assert!(norm > 1.0);
        assert!((norm - (110.0 * 25.0 + 2000.0) / (100.0 * 25.0 + 1000.0)).abs() < 1e-12);
    }

    #[test]
    fn dram_fraction_bounds() {
        let m = EnergyModel::paper();
        assert_eq!(m.evaluate(0, 0).dram_fraction(), 0.0);
        assert_eq!(m.evaluate(1, 0).dram_fraction(), 1.0);
        let mixed = m.evaluate(1, 25).dram_fraction();
        assert!((mixed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_normalizes_to_nan() {
        let z = EnergyBreakdown::default();
        assert!(z.normalized_to(&z).is_nan());
        let m = EnergyModel::paper();
        assert!(m.evaluate(3, 40).normalized_to(&z).is_nan());
    }
}
