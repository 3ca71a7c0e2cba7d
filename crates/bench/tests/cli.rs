//! The `--filter` usage errors of the `all_figures` and `bless`
//! binaries: regex syntax, or a pattern that selects nothing, exits 2
//! with one line on stderr before any simulation runs.

use std::process::Command;

#[test]
fn bad_filters_exit_2_with_one_line() {
    for bin in [
        env!("CARGO_BIN_EXE_all_figures"),
        env!("CARGO_BIN_EXE_bless"),
    ] {
        for pattern in ["(open", "zzz", "fig1[0-5]"] {
            let out = Command::new(bin)
                .args(["--filter", pattern])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{bin} --filter '{pattern}': {stderr}");
            assert_eq!(out.status.code(), Some(2), "{what}");
            assert_eq!(stderr.lines().count(), 1, "{what}");
        }
    }
}

#[test]
fn bless_filter_selects_by_substring() {
    let out = Command::new(env!("CARGO_BIN_EXE_bless"))
        .args(["--check", "--filter", "evict"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("golden_evict_train unchanged"), "{stderr}");
    assert!(!stderr.contains("golden_sweep"), "{stderr}");
}
