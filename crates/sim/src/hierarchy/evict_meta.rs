//! Property test for L2 eviction notices: every [`EvictNotice`] a
//! prefetcher receives must correspond to a previously observed fill,
//! with internally consistent metadata, across all shipped generators.
//!
//! A gate-on Triangel (so temporal prefetches actually happen) runs
//! with the core's crossing log on, which records, in delivery order,
//! every training event with the prefetch requests it returned, and
//! every eviction notice. The invariants checked over the log:
//!
//! 1. **Fill before eviction**: `meta.fill_seq < evict_seq` strictly —
//!    the L2 fill clock orders the victim's install before the fill
//!    that kills it. (Cycles are deliberately *not* compared:
//!    `ready_at` is not monotonic across fills — that is exactly why
//!    the fill clock exists.)
//! 2. **Tag-bit consistency**: `was_unused_prefetch` holds exactly for
//!    temporal fills that died without a demand touch; stride fills
//!    enter the L2 untagged (demand-like) and so are born `used`.
//! 3. **FillSource matches the fill that installed the line**: a
//!    `Temporal` victim was requested by this prefetcher earlier in
//!    the log (with a matching fill PC, and `ready_at` no earlier than
//!    the request could issue); a `Demand` victim missed in the L2
//!    earlier in the log (its fill and its `L2Miss` training event are
//!    the same access).

use std::collections::HashMap;

use super::{Crossing, MemorySystem};
use crate::{Engine, PrefetcherImpl, SystemConfig};
use triangel_core::{Triangel, TriangelConfig, TriangelFeatures};
use triangel_prefetch::TrainKind;
use triangel_types::{Cycle, FillSource, LineAddr, Pc};
use triangel_workloads::graph500::Graph500Config;
use triangel_workloads::paging::PageMapper;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::TraceSource;

/// Runs one generator through a gate-on Triangel system, returning the
/// crossing log.
fn observe(source: Box<dyn TraceSource + Send>, accesses: u64) -> Vec<Crossing> {
    let mut cfg = TriangelConfig::paper_default();
    // Ladder step 0 (Triage-Deg4 behaviour) with the eviction gate on:
    // prefetching is ungated, so temporal fills — and their deaths —
    // appear within a short run; full Triangel's classifiers would
    // stay closed at this scale.
    cfg.features = TriangelFeatures {
        train_on_eviction: true,
        ..TriangelFeatures::none()
    };
    cfg.sizing_window = 2_000;
    let mut system = MemorySystem::with_prefetchers(
        SystemConfig::paper_single_core(),
        vec![PrefetcherImpl::Triangel(Box::new(Triangel::new(cfg)))],
    );
    system.cores[0].crossings = Some(Vec::new());
    let mut engine =
        Engine::try_new(system, vec![source], PageMapper::realistic(0xA11C)).expect("one core");
    engine.run_accesses(accesses);
    engine.system().cores[0]
        .crossings
        .clone()
        .expect("the log is on")
}

/// Checks the eviction-notice invariants over one log; returns the
/// number of notices checked per source kind.
fn check(log: &[Crossing], label: &str) -> HashMap<&'static str, usize> {
    // Running views of what has been observed so far.
    let mut issued: HashMap<LineAddr, Vec<(Pc, Cycle)>> = HashMap::new();
    let mut missed: HashMap<LineAddr, usize> = HashMap::new();
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for (i, crossing) in log.iter().enumerate() {
        let n = match crossing {
            Crossing::Event(ev, reqs) => {
                if ev.kind == TrainKind::L2Miss {
                    missed.insert(ev.line, i);
                }
                for r in reqs {
                    issued
                        .entry(r.line)
                        .or_default()
                        .push((r.pc, ev.cycle + r.issue_delay));
                }
                continue;
            }
            Crossing::Evict(n) => n,
        };
        // 1. The fill clock orders install before eviction.
        assert!(
            n.meta.fill_seq < n.evict_seq,
            "{label}: notice #{i} fill_seq {} !< evict_seq {}",
            n.meta.fill_seq,
            n.evict_seq,
        );
        assert!(n.meta.fill_seq > 0, "{label}: victim was never stamped");
        // 2. Tag-bit consistency per source.
        match n.meta.source {
            FillSource::Temporal => assert_eq!(
                n.was_unused_prefetch, !n.meta.used,
                "{label}: temporal tag bit disagrees with used bit"
            ),
            FillSource::Stride => {
                assert!(!n.was_unused_prefetch, "{label}: stride fills are untagged");
                assert!(n.meta.used, "{label}: untagged fills are born used");
            }
            FillSource::Demand => {
                assert!(!n.was_unused_prefetch);
                assert!(n.meta.used, "{label}: demand fills are born used");
            }
        }
        // 3. The source matches a fill we can account for.
        match n.meta.source {
            FillSource::Temporal => {
                *counts.entry("temporal").or_insert(0) += 1;
                let reqs = issued.get(&n.line).unwrap_or_else(|| {
                    panic!(
                        "{label}: temporal victim {:?} was never requested by this prefetcher",
                        n.line
                    )
                });
                assert!(
                    reqs.iter().any(|(pc, _)| Some(*pc) == n.fill_pc),
                    "{label}: fill_pc {:?} matches no issued request",
                    n.fill_pc
                );
                assert!(
                    reqs.iter().any(|(_, at)| *at <= n.meta.ready_at),
                    "{label}: fill completed before any request could issue"
                );
            }
            FillSource::Demand => {
                *counts.entry("demand").or_insert(0) += 1;
                assert!(
                    missed.contains_key(&n.line),
                    "{label}: demand victim {:?} never missed in the L2",
                    n.line
                );
            }
            FillSource::Stride => {
                // Stride requests are invisible to the temporal
                // prefetcher; consistency was checked above.
                *counts.entry("stride").or_insert(0) += 1;
            }
        }
    }
    counts
}

#[test]
fn evict_notices_correspond_to_fills_across_all_shipped_generators() {
    let mut sources: Vec<(String, Box<dyn TraceSource + Send>)> = SpecWorkload::ALL
        .iter()
        .map(|wl| {
            (
                wl.label().to_string(),
                Box::new(wl.generator(11)) as Box<dyn TraceSource + Send>,
            )
        })
        .collect();
    let g500 = Graph500Config::tiny().build_trace();
    sources.push(("g500-tiny".into(), Box::new(g500)));

    let mut total_temporal = 0;
    let mut total_notices = 0;
    for (label, source) in sources {
        let log = observe(source, 30_000);
        // Small working sets (the tiny Graph500 input) may fit in the
        // L2 and legitimately never evict; the invariants are checked
        // on whatever notices each run produces.
        total_notices += log
            .iter()
            .filter(|c| matches!(c, Crossing::Evict(_)))
            .count();
        let counts = check(&log, &label);
        total_temporal += counts.get("temporal").copied().unwrap_or(0);
    }
    assert!(total_notices > 0, "the sweep must evict L2 lines somewhere");
    // The sweep as a whole must exercise the temporal path (individual
    // generators may legitimately prefetch too accurately to waste).
    assert!(
        total_temporal > 0,
        "no temporal-filled line ever died across the whole sweep"
    );
}
