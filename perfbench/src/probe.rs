//! A fixed host-speed probe, so host-time metrics read at one reference
//! host speed.
//!
//! Other tenants of a shared host slow the simulator by a third or more
//! for minutes at a time, longer than a run, so no estimator over one
//! run's own timings can remove it. The probe is a small workload owned
//! by the benchmark and shaped like the simulator's hot loop: lookups
//! with LRU update in a 16-way, 4096-set tag array driven by a
//! pseudo-random line stream. It runs between the simulator's chunks
//! (every 50k accesses per core) and after every set-up, so it sees the
//! host as the simulator saw it; [`at_reference`] reads a measured time
//! at the reference host speed from the probe's median. No simulator
//! code runs in the probe, so a change to the simulator moves the scaled
//! metrics exactly as it moves the raw ones.
//!
//! What was measured on the 2-vCPU x86-64 container the bounds were set
//! on, where raw pass times spread by up to 45% over a few minutes with
//! no steal time reported:
//!
//! * The median probe sample tracks the simulator; the fastest does not
//!   (it stayed within 5% while pass times rose by 40%).
//! * The simulator slows more than the probe when the host is busy. The
//!   slope of log pass time against log probe median was 1.06 in a calm
//!   period and 1.5–2.0 in six busy sets of runs (correlation
//!   0.95–0.98). Probes with 32 KiB, 1 MiB, 2 MiB and 8 MiB arrays, a
//!   64 MiB page-walking one and one with a 1024-function code footprint
//!   all had slopes of 1.4 or more, so no shape of probe makes the plain
//!   ratio enough. [`SENSITIVITY`] sits between the calm and busy slopes.
//!   Over six busy sets of six runs whose raw times spread by 15–46%
//!   (first to third quartile over the median), the scaled times spread
//!   by 5–20% with the plain ratio and by 4–12% with the exponent; in the
//!   calm set (raw 12%), by 3% and 7%.

use std::hint::black_box;
use std::time::Instant;

const SETS: usize = 4096;
const WAYS: usize = 16;
/// Distinct lines in the probe's stream: 2× the array's capacity.
const LINES: u64 = 1 << 17;
/// Steps that re-warm the host caches (the chunk just run evicted the
/// array) before the timed steps.
const WARM_STEPS: usize = 20_000;
const TIMED_STEPS: usize = 100_000;
const STREAM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The probe's median time on the host the bounds in `BENCHMARK.json`
/// were set on (a 2-vCPU x86-64 container) when it was quiet. Any fixed
/// value would do: it only sets the scale the metrics are reported at.
pub const REFERENCE_S: f64 = 1.7e-3;

/// How many times faster the simulator's log time rises than the
/// probe's on a contended host (see the module documentation).
pub const SENSITIVITY: f64 = 1.5;

/// The probe's array, and how often and how long it has run.
#[derive(Debug)]
pub struct HostProbe {
    tags: Vec<u64>,
    samples: usize,
    spent_s: f64,
}

impl HostProbe {
    /// An empty array and no samples.
    pub fn new() -> Self {
        HostProbe {
            tags: vec![u64::MAX; SETS * WAYS],
            samples: 0,
            spent_s: 0.0,
        }
    }

    /// Runs the probe once and records and returns its timed steps'
    /// seconds. Every sample replays the same stream from the state the
    /// previous one left, so every sample but the first does the same
    /// work.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = STREAM_SEED;
        let mut hits = 0u64;
        for _ in 0..WARM_STEPS {
            hits += self.step(&mut x);
        }
        let t0 = Instant::now();
        for _ in 0..TIMED_STEPS {
            hits += self.step(&mut x);
        }
        let s = t0.elapsed().as_secs_f64();
        self.samples += 1;
        black_box(hits);
        self.spent_s += start.elapsed().as_secs_f64();
        s
    }

    /// Host seconds spent in the probe so far, warm-up steps included.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// One lookup: a hit moves the line to the front of its set, a miss
    /// replaces the set's least recently used line.
    fn step(&mut self, x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let line = *x % LINES;
        let set = (line as usize % SETS) * WAYS;
        let ways = &mut self.tags[set..set + WAYS];
        match ways.iter().position(|&t| t == line) {
            Some(way) => {
                ways[..=way].rotate_right(1);
                1
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
                0
            }
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// `seconds` measured while the probe took `samples`, read at the
/// reference host speed: scaled by [`REFERENCE_S`] over the samples'
/// median, raised to [`SENSITIVITY`] (unscaled without samples).
pub fn at_reference(seconds: f64, samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return seconds;
    }
    seconds * (REFERENCE_S / crate::median(samples)).powf(SENSITIVITY)
}
