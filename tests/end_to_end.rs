//! Cross-crate integration tests: the whole pipeline (workload ->
//! hierarchy -> prefetcher -> metrics) must reproduce the paper's
//! qualitative claims on controlled inputs.

use triangel::sim::{Comparison, PrefetcherChoice, RunReport, SimSession, SystemConfig};
use triangel::types::{Addr, Pc};
use triangel::workloads::spec::SpecWorkload;
use triangel::workloads::temporal::{RandomStream, TemporalStream, TemporalStreamConfig};

fn chase(len: usize, seed: u64) -> TemporalStream {
    TemporalStream::new(
        TemporalStreamConfig::pointer_chase("chase", Pc::new(0x40), Addr::new(1 << 30), len),
        seed,
    )
}

fn run(
    src: impl triangel::workloads::TraceSource + Send + 'static,
    c: PrefetcherChoice,
) -> RunReport {
    SimSession::builder()
        .workload(src)
        .warmup(350_000)
        .accesses(200_000)
        .sizing_window(60_000)
        .prefetcher(c)
        .run()
        .unwrap()
}

#[test]
fn triangel_accelerates_a_strict_chase() {
    let base = run(chase(50_000, 7), PrefetcherChoice::Baseline);
    let tri = run(chase(50_000, 7), PrefetcherChoice::Triangel);
    let c = Comparison::new(&base, &tri);
    assert!(c.speedup > 1.5, "speedup {:.3}", c.speedup);
    assert!(c.accuracy > 0.9, "accuracy {:.3}", c.accuracy);
    assert!(c.coverage > 0.5, "coverage {:.3}", c.coverage);
}

#[test]
fn triage_also_accelerates_but_less_timely() {
    // Degree-1 Triage on a dependent chain cannot run ahead of the CPU
    // by more than one hop, so Triangel's lookahead-2 + degree-4 must
    // beat it (the Section 4.5 argument).
    let base = run(chase(50_000, 9), PrefetcherChoice::Baseline);
    let triage = run(chase(50_000, 9), PrefetcherChoice::Triage);
    let triangel = run(chase(50_000, 9), PrefetcherChoice::Triangel);
    let c1 = Comparison::new(&base, &triage);
    let ct = Comparison::new(&base, &triangel);
    assert!(c1.speedup > 1.0, "Triage should help: {:.3}", c1.speedup);
    assert!(
        ct.speedup > c1.speedup,
        "Triangel {:.3} must beat degree-1 Triage {:.3} on a dependent chain",
        ct.speedup,
        c1.speedup
    );
}

#[test]
fn random_traffic_is_filtered_by_triangel_but_not_triage() {
    let noise = || RandomStream::new("noise", Pc::new(0x50), Addr::new(1 << 32), 300_000, true, 3);
    let base = run(noise(), PrefetcherChoice::Baseline);
    let triage = run(noise(), PrefetcherChoice::TriageDeg4);
    let triangel = run(noise(), PrefetcherChoice::Triangel);
    let c4 = Comparison::new(&base, &triage);
    let ct = Comparison::new(&base, &triangel);
    assert!(
        ct.dram_traffic < 1.05,
        "Triangel must not inflate traffic on noise: {:.3}",
        ct.dram_traffic
    );
    assert!(
        c4.dram_traffic > ct.dram_traffic,
        "Triage-Deg4 ({:.3}) should waste more bandwidth than Triangel ({:.3})",
        c4.dram_traffic,
        ct.dram_traffic
    );
}

#[test]
fn reports_are_deterministic() {
    let a = run(chase(20_000, 5), PrefetcherChoice::Triangel);
    let b = run(chase(20_000, 5), PrefetcherChoice::Triangel);
    assert_eq!(a.cores[0].instructions, b.cores[0].instructions);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.dram_reads(), b.dram_reads());
    assert_eq!(a.l3_accesses(), b.l3_accesses());
}

#[test]
fn multiprogrammed_runs_share_memory_system() {
    let sources: Vec<Box<dyn triangel::workloads::TraceSource + Send>> = vec![
        Box::new(chase(30_000, 1)),
        Box::new(RandomStream::new(
            "r",
            Pc::new(0x60),
            Addr::new(1 << 33),
            50_000,
            false,
            2,
        )),
    ];
    let mut builder = SimSession::builder().system(SystemConfig::paper_dual_core());
    for source in sources {
        builder = builder.boxed_workload(source);
    }
    let report = builder
        .warmup(100_000)
        .accesses(100_000)
        .sizing_window(60_000)
        .prefetcher(PrefetcherChoice::Triangel)
        .run()
        .unwrap();
    assert_eq!(report.cores.len(), 2);
    assert!(report.cores[0].ipc() > 0.0);
    assert!(report.cores[1].ipc() > 0.0);
    // Both cores' traffic lands in the shared DRAM counters.
    assert!(report.dram_reads() > 0);
}

#[test]
fn spec_workloads_run_under_every_configuration() {
    // Smoke coverage: every (workload, config) combination produces a
    // sane report at small scale.
    for wl in [SpecWorkload::Xalan, SpecWorkload::Mcf] {
        for cfg in [
            PrefetcherChoice::Baseline,
            PrefetcherChoice::Triage,
            PrefetcherChoice::TriageDeg4,
            PrefetcherChoice::TriageDeg4Look2,
            PrefetcherChoice::Triangel,
            PrefetcherChoice::TriangelBloom,
            PrefetcherChoice::TriangelNoMrb,
            PrefetcherChoice::TriangelLadder(3),
        ] {
            let r = SimSession::builder()
                .workload(wl.generator(11))
                .warmup(30_000)
                .accesses(30_000)
                .sizing_window(20_000)
                .prefetcher(cfg)
                .run()
                .unwrap();
            assert!(
                r.ipc() > 0.0,
                "{}/{} produced zero IPC",
                wl.label(),
                cfg.label()
            );
            assert!(r.dram_reads() > 0);
        }
    }
}

#[test]
fn mrb_reduces_l3_metadata_traffic_end_to_end() {
    let with = run(chase(40_000, 13), PrefetcherChoice::Triangel);
    let without = run(chase(40_000, 13), PrefetcherChoice::TriangelNoMrb);
    let with_reads = with.cores[0].pf.markov_reads;
    let without_reads = without.cores[0].pf.markov_reads;
    assert!(
        without_reads > with_reads,
        "NoMRB should read the L3 partition more: {} vs {}",
        without_reads,
        with_reads
    );
    assert!(with.cores[0].pf.mrb_hits > 0);
}
