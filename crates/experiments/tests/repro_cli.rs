//! `repro` as a process: argument and output failures end the run with
//! a non-zero exit and an error line, never a panic or a silent success.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_json_dir_that_cannot_be_created_fails_the_run() {
    // A regular file where `--json` expects a directory.
    let file = std::env::temp_dir().join(format!("busarb-repro-json-{}", std::process::id()));
    std::fs::write(&file, b"").expect("temp file");
    let out = repro(&[
        "--scale",
        "smoke",
        "--json",
        file.to_str().expect("utf-8 temp path"),
        "table4.5",
    ]);
    std::fs::remove_file(&file).ok();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let line = err
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no error line in {err}"));
    assert!(line.contains(file.to_str().unwrap()), "{line}");
}

/// Each invocation exits 1 with the error line it names, and writes no
/// report to stdout.
#[test]
fn bad_invocations_exit_1_with_an_error_line() {
    for (args, error) in [
        // Only `tolerance` takes an argument.
        (
            &["--scale", "smoke", "protocols", "bogus"][..],
            "error: unexpected argument 'bogus'",
        ),
        (
            &["--scale", "smoke", "cell", "trace.jsonl"],
            "error: unexpected argument 'trace.jsonl'",
        ),
        (
            &["--scale", "smoke", "tolerance", "0"],
            "error: invalid tolerance factor '0'",
        ),
        // `busarb analyze` reads traces.
        (&["inspect"], "error: unknown command 'inspect'"),
    ] {
        let out = repro(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.lines().any(|l| l == error), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
}
