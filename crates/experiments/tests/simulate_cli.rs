//! `simulate` as a process: a scenario a protocol cannot run ends with a
//! non-zero exit and one error line, never a panic.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate starts")
}

/// The run's stderr and its `error: ` lines.
fn errors(out: &Output) -> (String, Vec<String>) {
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    let lines = err
        .lines()
        .filter(|l| l.starts_with("error: "))
        .map(str::to_string)
        .collect();
    (err, lines)
}

#[test]
fn several_outstanding_requests_fail_cleanly_for_single_request_protocols() {
    for args in [
        &[
            "--protocol",
            "fcfs-1",
            "--outstanding",
            "2",
            "--samples",
            "200",
        ][..],
        &[
            "--compare",
            "--jobs",
            "1",
            "--outstanding",
            "2",
            "--samples",
            "200",
        ],
    ] {
        let out = simulate(args);
        let (err, lines) = errors(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(lines.len(), 1, "{args:?}: {err}");
        assert!(lines[0].contains("max_outstanding = 2"), "{}", lines[0]);
    }
}

#[test]
fn central_fcfs_runs_with_several_outstanding_requests() {
    let out = simulate(&[
        "--protocol",
        "central-fcfs",
        "--outstanding",
        "2",
        "--samples",
        "200",
    ]);
    let (err, _) = errors(&out);
    assert!(out.status.success(), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("central-fcfs"));
}
