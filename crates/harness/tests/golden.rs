//! Golden-equivalence pins for the simulator's `RunReport`s.
//!
//! The sweeps live in [`triangel_harness::goldens`], shared with the
//! `bless` devtool. Three fixtures are pinned:
//!
//! * `golden_sweep.json` — generated *before* the in-line
//!   cache-metadata refactor (PR 2) from the side-table implementation
//!   of `MemorySystem`: default (gate-off) behaviour must stay
//!   byte-identical to it, at `--jobs 1` and `--jobs 8`.
//! * `golden_evict_train.json` — the same workload shapes with the
//!   `train_on_eviction` gate on for every Triangel-family job,
//!   blessed deliberately when the eviction-training mechanism landed.
//! * `golden_multicore.json` — four-core jobs on the contended N-core
//!   timing model, blessed when the shared-LLC/DRAM arbitration landed.
//!
//! A third test pins that the gate is *provably inert when off*: an
//! explicit gate-off feature override produces byte-identical reports
//! to no override at all. A fourth pins the workspace's one JSON
//! writer against every committed JSON artifact: parse, write back,
//! identical bytes.
//!
//! Regenerate (only when an *intentional* behaviour change is being
//! made, and say so in the commit):
//!
//! ```sh
//! cargo run -p triangel-bench --bin bless            # all fixtures
//! TRIANGEL_BLESS=1 cargo test -p triangel-harness --test golden
//! ```

use triangel_harness::goldens::{
    evict_train_fixture_path, evict_train_sweep, gated_features, golden_fixture_path, golden_sweep,
    multicore_fixture_path, multicore_sweep,
};
use triangel_harness::{emit, SweepOptions, TriangelFeatures};

fn bless_requested() -> bool {
    std::env::var("TRIANGEL_BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn run_reports_match_pre_refactor_fixture_serial_and_parallel() {
    let path = golden_fixture_path();
    let serial = emit::sweep_to_json(&golden_sweep().run(&SweepOptions::serial()));

    if bless_requested() {
        std::fs::write(&path, &serial).expect("write fixture");
        eprintln!("blessed {}", path.display());
    }

    let fixture = std::fs::read_to_string(&path).expect(
        "missing fixture; generate with `cargo run -p triangel-bench --bin bless` \
         or TRIANGEL_BLESS=1 cargo test -p triangel-harness --test golden",
    );
    assert_eq!(
        serial, fixture,
        "serial sweep diverged from the committed pre-refactor RunReports"
    );

    let parallel = emit::sweep_to_json(&golden_sweep().run(&SweepOptions::parallel(8)));
    assert_eq!(
        parallel, fixture,
        "--jobs 8 sweep diverged from the committed pre-refactor RunReports"
    );
}

#[test]
fn evict_train_reports_match_blessed_fixture_serial_and_parallel() {
    let path = evict_train_fixture_path();
    let serial = emit::sweep_to_json(&evict_train_sweep().run(&SweepOptions::serial()));

    if bless_requested() {
        std::fs::write(&path, &serial).expect("write fixture");
        eprintln!("blessed {}", path.display());
    }

    let fixture = std::fs::read_to_string(&path).expect(
        "missing fixture; generate with `cargo run -p triangel-bench --bin bless` \
         or TRIANGEL_BLESS=1 cargo test -p triangel-harness --test golden",
    );
    assert_eq!(
        serial, fixture,
        "serial gate-on sweep diverged from the blessed eviction-training fixture"
    );

    let parallel = emit::sweep_to_json(&evict_train_sweep().run(&SweepOptions::parallel(8)));
    assert_eq!(
        parallel, fixture,
        "--jobs 8 gate-on sweep diverged from the blessed eviction-training fixture"
    );
}

#[test]
fn multicore_reports_match_blessed_fixture_serial_and_parallel() {
    let path = multicore_fixture_path();
    let serial = emit::sweep_to_json(&multicore_sweep().run(&SweepOptions::serial()));

    if bless_requested() {
        std::fs::write(&path, &serial).expect("write fixture");
        eprintln!("blessed {}", path.display());
    }

    let fixture = std::fs::read_to_string(&path).expect(
        "missing fixture; generate with `cargo run -p triangel-bench --bin bless` \
         or TRIANGEL_BLESS=1 cargo test -p triangel-harness --test golden",
    );
    assert_eq!(
        serial, fixture,
        "serial four-core sweep diverged from the blessed contention-model fixture"
    );

    let parallel = emit::sweep_to_json(&multicore_sweep().run(&SweepOptions::parallel(8)));
    assert_eq!(
        parallel, fixture,
        "--jobs 8 four-core sweep diverged from the blessed contention-model fixture"
    );
}

/// The gate must be provably inert when off: overriding a job's
/// features with its own defaults (gate off) may change the job *key*,
/// but must not change a byte of the report.
#[test]
fn explicit_gate_off_override_is_byte_identical_to_no_override() {
    for job in golden_sweep().jobs() {
        if !job.prefetcher.accepts_feature_override() {
            continue;
        }
        let off = TriangelFeatures {
            train_on_eviction: false,
            ..gated_features(job.prefetcher)
        };
        let overridden = job.clone().features(off);
        assert_ne!(job.key(), overridden.key(), "override must enter the key");
        let plain = job.run().expect("golden job runs");
        let gated_off = overridden.run().expect("overridden job runs");
        assert_eq!(
            format!("{plain:?}"),
            format!("{gated_off:?}"),
            "gate-off override changed behaviour for {}",
            job.key()
        );
    }
}

#[test]
fn committed_json_round_trips_through_the_one_writer() {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = [
        repo.join("BENCH_features.json"),
        repo.join("BENCH_multicore.json"),
        repo.join("BENCH_timeline.json"),
        golden_fixture_path(),
        evict_train_fixture_path(),
        multicore_fixture_path(),
    ];
    for path in files {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let doc =
            triangel_obs::json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            doc.to_string() == text,
            "{} does not round-trip byte for byte",
            path.display()
        );
    }
}
