//! Building a custom workload and a custom Triangel configuration.
//!
//! This example composes a workload from the temporal building blocks —
//! a strict pointer chase, a loosely-ordered scan (Second-Chance
//! territory), and unlearnable noise — and runs it under a Triangel
//! whose aggression thresholds were customized.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use triangel::core::TriangelConfig;
use triangel::sim::{Comparison, PrefetcherChoice, SimSession};
use triangel::types::{Addr, Pc};
use triangel::workloads::mix::WorkloadMix;
use triangel::workloads::temporal::{RandomStream, TemporalStream, TemporalStreamConfig};

fn build_workload(seed: u64) -> WorkloadMix {
    let mut mix = WorkloadMix::new("custom", seed);

    // A strict dependent chase over 40k lines (2.5 MiB): beyond every
    // cache, comfortably inside Markov capacity.
    mix.add_stream(
        TemporalStream::new(
            TemporalStreamConfig::pointer_chase(
                "chase",
                Pc::new(0x100),
                Addr::new(0x10_0000_0000),
                40_000,
            ),
            seed,
        ),
        3,
    );

    // A loose scan: same element set each pass, jittered order. The
    // Second-Chance Sampler keeps this prefetchable.
    mix.add_stream(
        TemporalStream::new(
            TemporalStreamConfig {
                exactness: 0.6,
                shuffle_window: 12,
                ..TemporalStreamConfig::pointer_chase(
                    "loose",
                    Pc::new(0x200),
                    Addr::new(0x20_0000_0000),
                    20_000,
                )
            },
            seed ^ 1,
        ),
        2,
    );

    // Unlearnable noise that a good prefetcher must ignore.
    mix.add_stream(
        RandomStream::new(
            "noise",
            Pc::new(0x300),
            Addr::new(0x30_0000_0000),
            100_000,
            false,
            seed ^ 2,
        ),
        1,
    );
    mix
}

fn main() {
    println!("Running baseline...");
    let base = SimSession::builder()
        .workload(build_workload(7))
        .warmup(900_000)
        .accesses(500_000)
        .sizing_window(150_000)
        .run()
        .unwrap();

    // A customized Triangel: smaller maximum degree, larger Second-
    // Chance window.
    let mut cfg = TriangelConfig::paper_default();
    cfg.max_degree = 2;
    cfg.scs_window = 1024;
    cfg.sizing_window = 150_000;

    println!("Running customized Triangel (degree<=2, SCS window 1024)...");
    let custom = SimSession::builder()
        .workload(build_workload(7))
        .warmup(900_000)
        .accesses(500_000)
        .prefetcher(PrefetcherChoice::TriangelCustom(cfg))
        .run()
        .unwrap();

    println!("Running paper-default Triangel...");
    let default = SimSession::builder()
        .workload(build_workload(7))
        .warmup(900_000)
        .accesses(500_000)
        .sizing_window(150_000)
        .prefetcher(PrefetcherChoice::Triangel)
        .run()
        .unwrap();

    let c_custom = Comparison::new(&base, &custom);
    let c_default = Comparison::new(&base, &default);
    println!();
    println!(
        "custom:  speedup {:.3}x, accuracy {:.2}, traffic {:.3}x",
        c_custom.speedup, c_custom.accuracy, c_custom.dram_traffic
    );
    println!(
        "default: speedup {:.3}x, accuracy {:.2}, traffic {:.3}x",
        c_default.speedup, c_default.accuracy, c_default.dram_traffic
    );
    println!("(the default's degree-4 aggression should win on the chase)");
}
