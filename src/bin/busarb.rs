//! `busarb` — the trace-analytics command line.
//!
//! `busarb analyze [--json] FILE...` runs `busarb-tail`'s streaming
//! engine: one bounded-memory pass per trace (JSONL or BTRC,
//! auto-detected), printing a deterministic report per file. Parse
//! failures name the byte offset and exit nonzero.
//!
//! Exit status: 0 on success, 1 when any analysis fails, 2 on usage
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "analyze" => analyze(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("busarb: unknown command `{other}`");
            usage()
        }
    }
}

const USAGE: &str = "\
usage: busarb <command> [args]

commands:
  analyze [--json] FILE...          analyze trace exports (JSONL or BTRC,
                                    auto-detected), one streaming pass per
                                    file; --json prints one report object
                                    per line instead of text
  help                              show this message
";

fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// `busarb analyze [--json] FILE...`
fn analyze(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut files = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                eprintln!("busarb analyze: unknown flag `{flag}`");
                return usage();
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        eprintln!("busarb analyze: no trace files given");
        return usage();
    }
    let mut failed = false;
    for file in &files {
        match busarb_tail::analyze_path(file) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    print!("{}", report.render_text());
                }
            }
            Err(e) => {
                // Stream errors already carry "(byte offset N)".
                eprintln!("busarb analyze: {}: {e}", file.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
