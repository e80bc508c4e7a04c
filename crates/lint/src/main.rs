//! CLI for `shredder-lint`.
//!
//! ```text
//! cargo run -p shredder-lint              # human output, exit 1 on findings
//! cargo run -p shredder-lint -- --json    # machine output
//! cargo run -p shredder-lint -- --root /path/to/workspace
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use shredder_lint::{lint_workspace, output, LintConfig};

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "shredder-lint: determinism & invariant static analysis (R1-R6, R8)\n\
                     usage: shredder-lint [--json] [--root <workspace>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let run = lint_workspace(&root, &LintConfig::default());
    if json {
        print!("{}", output::json(&run));
    } else {
        print!("{}", output::human(&run));
    }
    if run.files_scanned == 0 {
        eprintln!("no files found under {} — wrong --root?", root.display());
        return ExitCode::from(2);
    }
    if run.unsuppressed_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
