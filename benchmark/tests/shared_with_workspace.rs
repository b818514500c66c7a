//! This package, outside the workspace, copies two things from it:
//! `bench_run`'s calibration (so calibration figures stay comparable with
//! `BENCH_run.json`) and the release profile (so the benchmark measures
//! the build users get). These tests fail as soon as a copy drifts.

use std::path::PathBuf;

fn read(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The code of item `head` (a `fn` or `const` signature up to its name):
/// from its first line to the line closing it at column 0, without `pub`.
fn item(source: &str, head: &str) -> String {
    let lines: Vec<&str> = source
        .lines()
        .skip_while(|l| !l.trim_start_matches("pub ").starts_with(head))
        .collect();
    assert!(!lines.is_empty(), "no `{head}` in the source");
    let end = if lines[0].ends_with(';') {
        1
    } else {
        1 + lines
            .iter()
            .position(|l| *l == "}")
            .unwrap_or_else(|| panic!("`{head}` is not closed"))
    };
    lines[..end]
        .join("\n")
        .trim_start_matches("pub ")
        .to_string()
}

#[test]
fn calibration_is_bench_runs() {
    let ours = read("src/lib.rs");
    let theirs = read("../crates/bench/src/bin/bench_run.rs");
    for head in [
        "const CALIBRATION_ITERS",
        "const CALIBRATION_REPS",
        "fn calibration_kernel(",
        "fn calibrate(",
    ] {
        assert_eq!(item(&ours, head), item(&theirs, head), "{head} drifted");
    }
}

/// The settings of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_is_the_workspaces() {
    let ours = release_profile(&read("Cargo.toml"));
    assert!(!ours.is_empty(), "no release profile");
    assert_eq!(ours, release_profile(&read("../Cargo.toml")));
}
