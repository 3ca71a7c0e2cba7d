//! Cross-handle store coordination: two sweeps racing the same job
//! list over one store directory must execute every job exactly once
//! *store-wide* and produce reports byte-identical to a cold serial
//! run.
//!
//! The two `ResultStore` handles here open their lock files
//! independently, so they contend through `flock` exactly like two
//! separate processes would. A third handle then reads the directory
//! warm, serially and at eight workers, and must execute nothing.

use std::sync::Arc;

use triangel_harness::{JobSpec, RunParams, Sweep, SweepOptions, WorkloadSpec};
use triangel_sim::PrefetcherChoice;
use triangel_store::{report_to_bytes, ResultStore};
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::spec::SpecWorkload;

fn tiny_params(seed: u64) -> RunParams {
    RunParams {
        warmup: 400,
        accesses: 400,
        sizing_window: 200,
        seed,
    }
}

/// Eight distinct jobs: three workloads × two prefetchers, a custom
/// Triage geometry, and an irregular server workload.
fn sweep() -> Sweep {
    let mut sweep = Sweep::new();
    for workload in [
        SpecWorkload::Xalan,
        SpecWorkload::Mcf,
        SpecWorkload::Omnetpp,
    ] {
        for choice in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
            sweep.push(JobSpec::new(
                WorkloadSpec::Spec(workload),
                choice,
                tiny_params(13),
            ));
        }
    }
    sweep.push(JobSpec::new(
        WorkloadSpec::Spec(SpecWorkload::Omnetpp),
        PrefetcherChoice::TriageFormat(triangel_markov::TargetFormat::Ideal32),
        tiny_params(13),
    ));
    sweep.push(JobSpec::new(
        WorkloadSpec::Irregular(IrregularWorkload::ZipfKv),
        PrefetcherChoice::Triangel,
        tiny_params(13),
    ));
    sweep
}

#[test]
fn racing_handles_execute_every_job_exactly_once() {
    let dir = std::env::temp_dir().join(format!("triangel-store-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let reference = sweep().run(&SweepOptions::serial());
    assert_eq!(reference.stats.errors, 0);
    let n_jobs = reference.results.len();

    let store_a = Arc::new(ResultStore::open(&dir).unwrap());
    let store_b = Arc::new(ResultStore::open(&dir).unwrap());
    let (report_a, report_b) = std::thread::scope(|scope| {
        let a = scope
            .spawn(|| sweep().run(&SweepOptions::parallel(2).with_store(Arc::clone(&store_a))));
        let b = scope
            .spawn(|| sweep().run(&SweepOptions::parallel(2).with_store(Arc::clone(&store_b))));
        (a.join().unwrap(), b.join().unwrap())
    });

    // Exactly once, store-wide: every simulation ran under a claim, so
    // the two racing sweeps split the job list between them (in some
    // nondeterministic proportion) without ever duplicating work.
    let executed = report_a.stats.executed + report_b.stats.executed;
    assert_eq!(
        executed, n_jobs,
        "racing sweeps must split the jobs, never duplicate them \
         (a executed {}, b executed {})",
        report_a.stats.executed, report_b.stats.executed
    );
    let inserts = store_a.stats().inserts() + store_b.stats().inserts();
    assert_eq!(
        inserts as usize, n_jobs,
        "each job must publish exactly once"
    );
    assert_eq!(store_a.stats().discards() + store_b.stats().discards(), 0);

    // Whoever ran each job, both sweeps (and the cold serial run) see
    // the same bytes.
    for i in 0..n_jobs {
        let expected = report_to_bytes(reference.report(i));
        assert_eq!(
            report_to_bytes(report_a.report(i)),
            expected,
            "job {i} differs between handle A and the cold serial run"
        );
        assert_eq!(
            report_to_bytes(report_b.report(i)),
            expected,
            "job {i} differs between handle B and the cold serial run"
        );
    }

    // A third, fresh handle over the same directory is all hits, at
    // any worker count.
    for (label, opts) in [
        ("serial", SweepOptions::serial()),
        ("parallel(8)", SweepOptions::parallel(8)),
    ] {
        let warm = sweep().run(&opts.with_store(Arc::new(ResultStore::open(&dir).unwrap())));
        assert_eq!(
            warm.stats.executed, 0,
            "{label} warm sweep must be served entirely from the store"
        );
        assert_eq!(warm.stats.cache_hits, n_jobs);
        for i in 0..n_jobs {
            assert_eq!(
                report_to_bytes(warm.report(i)),
                report_to_bytes(reference.report(i)),
                "job {i} differs between the {label} warm store read and the cold serial run"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
