//! `bless` — regenerate (or verify) the committed golden fixtures.
//!
//! Golden fixtures pin the simulator's behaviour byte-for-byte; they
//! must only ever change as a *deliberate, reviewed* step when a
//! behaviour change lands. This tool makes that step explicit:
//!
//! ```sh
//! # Regenerate every fixture (then inspect `git diff` and commit):
//! cargo run --release -p triangel-bench --bin bless
//!
//! # Regenerate a subset (`--filter` as in `all_figures`):
//! cargo run --release -p triangel-bench --bin bless -- --filter evict
//!
//! # Verify without writing (CI: nonzero exit on any drift):
//! cargo run --release -p triangel-bench --bin bless -- --check
//! ```
//!
//! The sweep definitions live in `triangel_harness::goldens`, shared
//! with the fixture tests, so what `bless` writes is exactly what the
//! tests assert against.

use std::path::PathBuf;
use std::process::ExitCode;

use triangel_bench::name_filter::NameFilter;
use triangel_harness::goldens;

struct Fixture {
    name: &'static str,
    what: &'static str,
    path: PathBuf,
    generate: fn() -> String,
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "golden_sweep",
            what: "default (gate-off) behaviour, pre-refactor pin",
            path: goldens::golden_fixture_path(),
            generate: || goldens::render(&goldens::golden_sweep()),
        },
        Fixture {
            name: "golden_evict_train",
            what: "train_on_eviction gate-on behaviour",
            path: goldens::evict_train_fixture_path(),
            generate: || goldens::render(&goldens::evict_train_sweep()),
        },
        Fixture {
            name: "golden_multicore",
            what: "four-core contended timing model",
            path: goldens::multicore_fixture_path(),
            generate: || goldens::render(&goldens::multicore_sweep()),
        },
    ]
}

fn main() -> ExitCode {
    let mut check = false;
    let mut filter: Option<NameFilter> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--filter" => match args
                .next()
                .ok_or_else(|| "--filter needs a pattern".to_string())
                .and_then(|v| NameFilter::new(&v))
            {
                Ok(f) => filter = Some(f),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}` (expected --check, --filter NAMES)");
                return ExitCode::from(2);
            }
        }
    }

    let mut drifted = 0usize;
    let mut ran = 0usize;
    for fx in fixtures() {
        if let Some(p) = &filter {
            if !p.is_match(fx.name) {
                continue;
            }
        }
        ran += 1;
        eprintln!("[bless] generating {} ({})...", fx.name, fx.what);
        let fresh = (fx.generate)();
        let on_disk = std::fs::read_to_string(&fx.path).ok();
        let state = match &on_disk {
            Some(d) if *d == fresh => "unchanged",
            Some(_) => "CHANGED",
            None => "NEW",
        };
        if check {
            eprintln!("[bless] {:18} {}  {}", fx.name, state, fx.path.display());
            if state != "unchanged" {
                drifted += 1;
            }
        } else {
            if state != "unchanged" {
                std::fs::write(&fx.path, &fresh).unwrap_or_else(|e| {
                    panic!("cannot write {}: {e}", fx.path.display());
                });
            }
            eprintln!("[bless] {:18} {}  {}", fx.name, state, fx.path.display());
        }
    }
    if ran == 0 {
        eprintln!("[bless] no fixture matched the filter");
        return ExitCode::from(2);
    }
    if check && drifted > 0 {
        eprintln!(
            "[bless] {drifted} fixture(s) out of sync — a behaviour change reached a pinned \
             sweep. If intentional, re-bless with `cargo run -p triangel-bench --bin bless` \
             and commit the diff with an explanation."
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
