//! Bloom filter (Bloom, CACM 1970).

use triangel_types::xor_fold;

/// A Bloom filter over 64-bit keys.
///
/// Triage-ISR sizes its Markov partition with one of these: every
/// prefetcher access inserts its index, and each *filter miss* means a
/// never-seen address, growing the target partition (Section 3.5). The
/// paper criticizes the approach for its size (~200 KiB for 5% error at
/// full reach) and for its persistent pro-metadata bias — both visible in
/// our Triangel-Bloom experiments.
///
/// # Examples
///
/// ```
/// use triangel_prefetch::BloomFilter;
///
/// let mut f = BloomFilter::new(1 << 12, 4);
/// assert!(!f.insert(42)); // not seen before
/// assert!(f.insert(42));  // now a (true) positive
/// assert!(f.contains(42));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    hashes: u32,
    unique_inserts: u64,
}

impl BloomFilter {
    /// Creates a filter with `n_bits` bits (rounded up to a multiple of
    /// 64) and `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` or `hashes` is zero.
    pub fn new(n_bits: usize, hashes: u32) -> Self {
        assert!(n_bits > 0 && hashes > 0);
        let words = n_bits.div_ceil(64);
        BloomFilter {
            bits: vec![0; words],
            n_bits: words * 64,
            hashes,
            unique_inserts: 0,
        }
    }

    /// The `hashes` bit positions of `key` in an `n_bits` filter.
    fn bit_positions(key: u64, hashes: u32, n_bits: usize) -> impl Iterator<Item = usize> {
        // Double hashing: h1 + i*h2, the standard Kirsch–Mitzenmacher
        // construction.
        let h1 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h2 = xor_fold(key, 31) | 1;
        let n = n_bits as u64;
        (0..hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % n) as usize)
    }

    /// Tests membership without inserting.
    pub fn contains(&self, key: u64) -> bool {
        Self::bit_positions(key, self.hashes, self.n_bits)
            .all(|p| self.bits[p / 64] >> (p % 64) & 1 == 1)
    }

    /// Inserts `key`, returning whether it was (apparently) already
    /// present. A `false` return is a *filter miss*: a never-before-seen
    /// key (modulo false positives), which is what grows Triage's
    /// partition target.
    pub fn insert(&mut self, key: u64) -> bool {
        // Reading each bit just before setting it equals reading them
        // all first: a position repeated within one key reads as set
        // only if an earlier probe of it already came back clear.
        let mut was_present = true;
        for p in Self::bit_positions(key, self.hashes, self.n_bits) {
            let (word, bit) = (&mut self.bits[p / 64], 1u64 << (p % 64));
            was_present &= *word & bit != 0;
            *word |= bit;
        }
        if !was_present {
            self.unique_inserts += 1;
        }
        was_present
    }

    /// Number of inserts that were filter misses since the last reset —
    /// the partition-sizing signal.
    pub fn unique_inserts(&self) -> u64 {
        self.unique_inserts
    }

    /// Clears all bits and the unique counter (Triage resets per
    /// 30M-instruction window).
    pub fn reset(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.unique_inserts = 0;
    }

    /// Fraction of bits set, a saturation indicator.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.n_bits as f64
    }

    /// Size of the filter's bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for BloomFilter {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.bits.len());
        for word in &self.bits {
            w.u64(*word);
        }
        w.u64(self.unique_inserts);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.bits.len(), "bloom words")?;
        for word in &mut self.bits {
            *word = r.u64()?;
        }
        self.unique_inserts = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1 << 14, 4);
        for k in 0..1000u64 {
            f.insert(k * 977);
        }
        for k in 0..1000u64 {
            assert!(f.contains(k * 977));
        }
    }

    #[test]
    fn false_positive_rate_is_low_when_undersubscribed() {
        let mut f = BloomFilter::new(1 << 15, 4);
        for k in 0..1000u64 {
            f.insert(k);
        }
        let fp = (1_000_000..1_010_000u64).filter(|k| f.contains(*k)).count();
        assert!(fp < 200, "false positives {fp}/10000");
    }

    #[test]
    fn unique_counting() {
        let mut f = BloomFilter::new(1 << 12, 4);
        f.insert(1);
        f.insert(2);
        f.insert(1);
        assert_eq!(f.unique_inserts(), 2);
        f.reset();
        assert_eq!(f.unique_inserts(), 0);
        assert!(!f.contains(1));
    }

    #[test]
    fn saturated_filter_reports_everything() {
        let mut f = BloomFilter::new(64, 2);
        for k in 0..500u64 {
            f.insert(k);
        }
        assert!(f.fill_ratio() > 0.95);
        // Saturation = everything looks present (the s16 Graph500
        // failure mode for Triangel-Bloom, Section 6.4).
        let fp = (10_000..10_100u64).filter(|k| f.contains(*k)).count();
        assert!(fp > 90);
    }

    #[test]
    fn insert_reports_membership_from_before_the_insert() {
        // One 64-bit word and 4 hashes: positions often repeat within a
        // key, the case where reading while setting could go wrong.
        let mut f = BloomFilter::new(64, 4);
        for k in 0..200u64 {
            let key = k.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let before = f.contains(key);
            assert_eq!(f.insert(key), before, "key {k}");
            assert!(f.contains(key));
        }
    }

    #[test]
    fn size_accounting() {
        let f = BloomFilter::new(1 << 12, 4);
        assert_eq!(f.size_bytes(), 512);
    }
}
