//! The campaign subsystem's core invariant: interrupt → snapshot →
//! restore → continue is byte-identical to an uninterrupted run.
//!
//! For every shipped generator × {Baseline, Triage, Triangel,
//! Triangel+EvictTrain}, a run is interrupted twice — once mid-warm-up,
//! once mid-measurement — with each interruption crossing a snapshot
//! into a *freshly built* session. The final report (every counter, via
//! the exhaustive `Debug` rendering) and the prefetcher's diagnostic
//! state must equal the uninterrupted run's exactly.

use triangel_core::TriangelFeatures;
use triangel_sim::{PrefetcherChoice, SimSession};
use triangel_workloads::graph500::Graph500Config;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::TraceSource;

const WARMUP: u64 = 2_500;
const ACCESSES: u64 = 3_500;
/// Interrupt points: one inside warm-up, one inside measurement.
const CUTS: [u64; 2] = [1_700, 4_300];

/// One prefetcher configuration under test.
#[derive(Clone, Copy)]
struct Config {
    label: &'static str,
    choice: PrefetcherChoice,
    features: Option<TriangelFeatures>,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            label: "Baseline",
            choice: PrefetcherChoice::Baseline,
            features: None,
        },
        Config {
            label: "Triage",
            choice: PrefetcherChoice::Triage,
            features: None,
        },
        Config {
            label: "Triangel",
            choice: PrefetcherChoice::Triangel,
            features: None,
        },
        Config {
            label: "Triangel+EvictTrain",
            choice: PrefetcherChoice::Triangel,
            features: Some(TriangelFeatures {
                train_on_eviction: true,
                ..TriangelFeatures::all()
            }),
        },
    ]
}

fn build(source: impl TraceSource + Send + 'static, cfg: &Config) -> SimSession {
    let mut b = SimSession::builder()
        .workload(source)
        .prefetcher(cfg.choice)
        .warmup(WARMUP)
        .accesses(ACCESSES)
        .sizing_window(1_500);
    if let Some(f) = cfg.features {
        b = b.triangel_features(f);
    }
    b.build().expect("well-formed session")
}

/// Renders everything observable about a finished run: the report's
/// exhaustive Debug (all stats structs derive Debug field-by-field) and
/// the prefetcher's internal diagnostic counters.
fn fingerprint(session: &SimSession) -> String {
    format!(
        "{:?} | pf={}",
        session.report(),
        session.engine().system().prefetcher_probe(0).render(),
    )
}

/// Runs uninterrupted; returns the fingerprint.
fn run_straight(make: &dyn Fn() -> SimSession) -> String {
    let mut s = make();
    let ran = s.run_segment(WARMUP + ACCESSES);
    assert_eq!(ran, WARMUP + ACCESSES);
    assert!(s.is_complete());
    fingerprint(&s)
}

/// Runs with interrupts at `CUTS`, crossing a snapshot into a fresh
/// session at each; returns the fingerprint.
fn run_interrupted(make: &dyn Fn() -> SimSession) -> String {
    let mut s = make();
    let mut done = 0u64;
    for cut in CUTS {
        s.run_segment(cut - done);
        done = cut;
        assert_eq!(s.executed_accesses(), done);
        let bytes = s.snapshot().expect("shipped pipelines snapshot");
        let mut fresh = make();
        fresh.restore(&bytes).expect("snapshot restores");
        assert_eq!(fresh.executed_accesses(), done);
        s = fresh;
    }
    s.run_segment(u64::MAX);
    assert!(s.is_complete());
    fingerprint(&s)
}

fn assert_equivalent(label: String, make: &dyn Fn() -> SimSession) {
    let straight = run_straight(make);
    let resumed = run_interrupted(make);
    assert_eq!(
        straight, resumed,
        "{label}: interrupted run diverged from uninterrupted run"
    );
}

#[test]
fn every_spec_generator_and_config_is_snapshot_equivalent() {
    for wl in SpecWorkload::ALL {
        for cfg in configs() {
            let make = move || build(wl.generator(11), &cfg);
            assert_equivalent(format!("{} x {}", wl.label(), cfg.label), &make);
        }
    }
}

#[test]
fn graph500_bfs_is_snapshot_equivalent() {
    // The BFS carries the largest generator state surface (visited
    // map, frontier queue, access buffer); the graph itself is static
    // and shared by every session.
    let graph = Graph500Config::tiny().build_trace().graph_handle();
    for cfg in configs() {
        let graph = graph.clone();
        let make = move || {
            build(
                triangel_workloads::graph500::BfsTrace::new("tiny", graph.clone(), 7),
                &cfg,
            )
        };
        assert_equivalent(format!("g500-tiny x {}", cfg.label), &make);
    }
}

#[test]
fn multiprogrammed_pair_is_snapshot_equivalent() {
    for cfg in configs() {
        let make = move || {
            let mut b = SimSession::builder()
                .workload(SpecWorkload::Xalan.generator(11))
                .workload(SpecWorkload::Omnetpp.generator(11 ^ 0x9999))
                .prefetcher(cfg.choice)
                .warmup(WARMUP)
                .accesses(ACCESSES)
                .sizing_window(1_500);
            if let Some(f) = cfg.features {
                b = b.triangel_features(f);
            }
            b.build().expect("well-formed session")
        };
        assert_equivalent(format!("pair x {}", cfg.label), &make);
    }
}

#[test]
fn interval_series_is_snapshot_equivalent() {
    // A sampling period of 700 interleaves awkwardly with both CUTS
    // (one cut mid-warm-up, one mid-interval of measurement), so resume
    // exercises partial-interval continuation, and the final measured
    // count (3 500 = 5 × 700) pins the closing boundary sample.
    let make = || {
        SimSession::builder()
            .workload(SpecWorkload::Mcf.generator(11))
            .prefetcher(PrefetcherChoice::Triangel)
            .warmup(WARMUP)
            .accesses(ACCESSES)
            .sizing_window(1_500)
            .sample_every(700)
            .build()
            .expect("well-formed session")
    };

    let mut straight = make();
    straight.run_segment(u64::MAX);
    assert!(straight.is_complete());
    let straight_series = straight.report().intervals.expect("sampling was enabled");
    assert_eq!(straight_series.every, 700);
    assert_eq!(straight_series.len(), (ACCESSES / 700) as usize);

    let mut s = make();
    let mut done = 0u64;
    for cut in CUTS {
        s.run_segment(cut - done);
        done = cut;
        let bytes = s.snapshot().expect("sampled sessions snapshot");
        let mut fresh = make();
        fresh.restore(&bytes).expect("sampled snapshot restores");
        s = fresh;
    }
    s.run_segment(u64::MAX);
    assert!(s.is_complete());
    let resumed_series = s.report().intervals.expect("sampling survived resume");
    assert_eq!(
        straight_series, resumed_series,
        "interval series diverged across interrupt→resume"
    );
    // And the full report fingerprints (aggregates + probes) match.
    assert_eq!(fingerprint(&straight), fingerprint(&s));

    // A snapshot from a sampled session will not restore into a
    // session with a different (or absent) sampling period.
    let bytes = make().snapshot().unwrap();
    let mut unsampled = build(
        SpecWorkload::Mcf.generator(11),
        &Config {
            label: "Triangel",
            choice: PrefetcherChoice::Triangel,
            features: None,
        },
    );
    assert!(unsampled.restore(&bytes).is_err());
}

#[test]
fn snapshot_restore_rejects_mismatched_sessions() {
    let cfg = configs()[2];
    let mut a = build(SpecWorkload::Xalan.generator(11), &cfg);
    a.run_segment(100);
    let bytes = a.snapshot().unwrap();

    // Different scale: structural mismatch reported, not silently
    // accepted.
    let mut wrong_scale = SimSession::builder()
        .workload(SpecWorkload::Xalan.generator(11))
        .prefetcher(cfg.choice)
        .warmup(WARMUP + 1)
        .accesses(ACCESSES)
        .build()
        .unwrap();
    assert!(wrong_scale.restore(&bytes).is_err());

    // Different prefetcher family: variant mismatch.
    let mut wrong_pf = SimSession::builder()
        .workload(SpecWorkload::Xalan.generator(11))
        .prefetcher(PrefetcherChoice::Triage)
        .warmup(WARMUP)
        .accesses(ACCESSES)
        .build()
        .unwrap();
    assert!(wrong_pf.restore(&bytes).is_err());

    // The stride-only baseline (variant tag 0, no payload) and Triangel
    // (tag 2) reject each other's snapshots at the prefetcher tag, in
    // both directions.
    let (baseline, triangel) = (configs()[0], configs()[2]);
    for (from, into) in [(baseline, triangel), (triangel, baseline)] {
        let mut src = build(SpecWorkload::Xalan.generator(11), &from);
        src.run_segment(100);
        let bytes = src.snapshot().unwrap();
        let mut dst = build(SpecWorkload::Xalan.generator(11), &into);
        assert_eq!(
            dst.restore(&bytes),
            Err(triangel_types::snap::SnapError::corrupt(
                "prefetcher variant mismatch"
            )),
            "{} snapshot into a {} session",
            from.label,
            into.label
        );
    }

    // Truncation is loud.
    let mut fresh = build(SpecWorkload::Xalan.generator(11), &cfg);
    assert!(fresh.restore(&bytes[..bytes.len() - 1]).is_err());

    // A bad version number is a typed error.
    let mut versioned = bytes.clone();
    // magic is length-prefixed (8 bytes of length + 8 bytes of magic);
    // the version u32 follows.
    versioned[16] = 0xFF;
    assert!(matches!(
        fresh.restore(&versioned),
        Err(triangel_types::snap::SnapError::Version { .. })
    ));
}
