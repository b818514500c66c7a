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

/// `repro cell` without `--trace` exports to a temporary file: it must
/// delete it, and name it in the report without the pid, so that two
/// identical runs print the same text and write the same JSON. A
/// `--trace` file is kept and reported as given.
#[test]
fn cell_is_reproducible_and_cleans_up_its_temporary_export() {
    let root = std::env::temp_dir().join(format!("busarb-repro-cell-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let tmp = root.join("tmp");
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let run = |extra: &[&str], json: &str| {
        let json = root.join(json);
        let mut args = vec!["--scale", "smoke", "--json", json.to_str().expect("utf-8")];
        args.extend_from_slice(extra);
        args.push("cell");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("TMPDIR", &tmp)
            .args(&args)
            .output()
            .expect("repro starts");
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let report = std::fs::read(json.join("cell_analysis.json")).expect("cell_analysis.json");
        (out.stdout, report)
    };

    let first = run(&[], "a");
    let second = run(&[], "b");
    assert!(first == second, "two identical runs differ");
    let text = String::from_utf8_lossy(&first.0);
    assert!(text.contains("busarb-cell.jsonl"), "{text}");
    let left: Vec<_> = std::fs::read_dir(&tmp).expect("read temp dir").collect();
    assert!(left.is_empty(), "temporary export left behind: {left:?}");

    let kept = root.join("kept.btrc");
    let kept_str = kept.to_str().expect("utf-8");
    let (stdout, _) = run(&["--trace", kept_str, "--trace-format", "binary"], "c");
    assert!(kept.is_file(), "--trace file was deleted");
    assert!(String::from_utf8_lossy(&stdout).contains(kept_str));
    std::fs::remove_dir_all(&root).ok();
}
