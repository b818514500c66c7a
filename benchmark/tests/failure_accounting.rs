//! Failure accounting through the benchmark's own checks: a perturbed pin
//! fails its cell, raises `failure_rate` and makes the benchmark exit
//! non-zero; a `repro all` output that differs by one byte from
//! `results/` fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use busarb_benchmark::cells::{self, CellSpec};
use busarb_benchmark::{repro, Context, Workload, DEFAULT_SEED};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn context(root: PathBuf, tmp: PathBuf) -> Context {
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    Context {
        root,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
        tmp,
        origin: Instant::now(),
    }
}

fn copy(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.parent().expect("has a parent")).expect("directory");
    std::fs::copy(from, to).expect("copy");
}

/// The figure printed as `workload name value unit`.
fn printed(stdout: &str, workload: &str, name: &str) -> f64 {
    let prefix = format!("{workload} {name} ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no {name} line in:\n{stdout}"));
    line[prefix.len()..]
        .split(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unreadable line {line}"))
}

#[test]
fn a_perturbed_pin_fails_its_cell_and_the_exit_code() {
    let root = scratch("perturbed-pin");
    let ctx = context(repo(), root.join("tmp"));
    let mut pins = cells::committed_pins(&ctx, Workload::ArbOpen, DEFAULT_SEED)
        .expect("readable pins")
        .expect("committed pins");
    let first: CellSpec = cells::cells(Workload::ArbOpen, DEFAULT_SEED).remove(0);
    let pin = pins.get_mut(&first.tag).expect("pinned cell");
    let flipped = if pin.ends_with('0') { '1' } else { '0' };
    pin.pop();
    pin.push(flipped);
    let checkout = root.join("checkout");
    let pin_path = checkout.join("benchmark/pins/arb-open.json");
    std::fs::create_dir_all(pin_path.parent().expect("has a parent")).expect("directory");
    cells::write_pins(&pin_path, Workload::ArbOpen, &pins).expect("writable pins");

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(&checkout)
        .args(["--workload", "arb-open", "--seed", "1"])
        .args(["--seconds", "0", "--trace", "0"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {}\n{stderr}", out.status);
    assert!(
        stderr.contains(&format!("FAILED {}: digest", first.tag)),
        "{stderr}"
    );

    let result: serde::Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct"), Some(&serde::Value::Bool(false)));
    assert_eq!(result.get("failed"), Some(&serde::Value::UInt(1)));
    assert_eq!(result.get("attempted"), Some(&serde::Value::UInt(104)));
    assert!((printed(&stdout, "arb-open", "failure_rate") - 1.0 / 104.0).abs() < 1e-12);
}

#[test]
fn a_flipped_byte_in_a_repro_output_fails_the_run() {
    let build = context(repo(), scratch("repro-build"));
    let exe = repro::build_repro(&build).unwrap_or_else(|e| panic!("{e}"));

    let checkout = scratch("flipped-results");
    let ctx = context(checkout.clone(), checkout.join("tmp"));
    copy(
        &repo().join("benchmark/pins/paper-repro.json"),
        &checkout.join("benchmark/pins/paper-repro.json"),
    );
    let results = repo().join("results");
    for entry in std::fs::read_dir(&results).expect("results/").flatten() {
        if entry.path().is_file() {
            copy(
                &entry.path(),
                &checkout.join("results").join(entry.file_name()),
            );
        }
    }
    let tails = checkout.join("results/tails.json");
    let mut bytes = std::fs::read(&tails).expect("readable copy");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&tails, bytes).expect("writable copy");

    let exp = repro::expected(&ctx).unwrap_or_else(|e| panic!("{e}"));
    let mut spans = Vec::new();
    let run = repro::run_once(&exe, 2, "flipped", &exp, &ctx, &mut spans)
        .unwrap_or_else(|e| panic!("{e}"));
    let error = run.error.expect("the flipped byte is caught");
    assert!(
        error.contains("outputs differ") && error.contains("tails.json"),
        "{error}"
    );
    assert!(!error.contains("table4_5.json"), "{error}");
}
