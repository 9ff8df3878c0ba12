#![warn(missing_docs)]

//! Library side of the `hdoutlier` command-line tool.
//!
//! Everything testable lives here; `main.rs` is a thin shell. Submodules:
//!
//! - [`args`]: a small, dependency-free command-line parser (flags with
//!   values, `--flag=value` and `--flag value` forms, positional arguments,
//!   typed getters with error messages);
//! - `commands`: the `detect`, `score`, `stream`, `serve`, `explain`,
//!   `advise`, `baseline` and `scenario` subcommands, and the one runner
//!   that parses, opens telemetry, renders errors and flushes for them all;
//! - `obs_setup`: the shared `--log-level` / `--log-json` /
//!   `--metrics-out` / `--trace-out` / `--profile-out` flags and the
//!   metrics snapshot helpers.
//!
//! Two entry points: [`run`] captures everything into one string (tests),
//! and [`run_with`] takes explicit input and report sinks (the binary
//! passes stdin and stdout).

pub mod args;
mod commands;
mod obs_setup;

use commands::{advise, baseline, detect, explain, scenario, score, serve, stream};
use std::io::{BufRead, Write};

/// Exit codes used by the binary.
pub mod exit {
    /// Success.
    pub const OK: i32 = 0;
    /// Bad usage (unknown flag, missing argument…).
    pub const USAGE: i32 = 2;
    /// Runtime failure (unreadable file, invalid data…).
    pub const RUNTIME: i32 = 1;
}

/// Top-level usage text.
pub const USAGE: &str = "\
hdoutlier — subspace outlier detection (Aggarwal & Yu, SIGMOD 2001)

USAGE:
    hdoutlier <COMMAND> [OPTIONS]

COMMANDS:
    detect    find outliers in a CSV file via sparse-projection search
    score     score records against a model saved by `detect --save-model`
    stream    score CSV records from stdin one by one, emitting NDJSON verdicts
    serve     host many concurrent scoring sessions over HTTP (NDJSON in/out)
    explain   rank every subspace view of one record by abnormality
    advise    recommend phi and k for a dataset size (the paper's Eq. 2)
    baseline  run a distance-based comparator (knn | lof | knorr-ng)
    scenario  run seeded end-to-end scenario packs against golden reports
    help      show this message

Run `hdoutlier <COMMAND> --help` for per-command options.
";

/// Dispatches a full argument vector (without argv\[0\]) with empty stdin;
/// returns `(exit_code, output)`, the report followed by any help or error
/// text, so tests can assert on both.
pub fn run(argv: &[String]) -> (i32, String) {
    let mut sink = Vec::new();
    let (code, err) = run_with(argv, std::io::empty(), &mut sink);
    let mut out = String::from_utf8(sink).expect("reports are valid UTF-8");
    out.push_str(&err);
    (code, out)
}

/// Dispatches with `input` as stdin (read by `stream`) and reports written
/// to `sink` as they are produced. The binary passes stdin and stdout, so a
/// consumer closing the pipe early (`hdoutlier ... | head`) is handled
/// gracefully mid-report instead of surfacing as a write failure. The
/// returned string carries only help or error text.
pub fn run_with(argv: &[String], input: impl BufRead, sink: &mut impl Write) -> (i32, String) {
    let Some(command) = argv.first() else {
        return (exit::USAGE, USAGE.to_string());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "detect" => detect::COMMAND.run(rest, |p| detect::body(p, sink)),
        "score" => score::COMMAND.run(rest, |p| score::body(p, sink)),
        "stream" => stream::COMMAND.run(rest, |p| stream::body(p, input, sink)),
        "serve" => serve::COMMAND.run(rest, |p| serve::body(p, |_| {})),
        "explain" => explain::COMMAND.run(rest, |p| explain::body(p, sink)),
        "advise" => advise::COMMAND.run(rest, |p| advise::body(p, sink)),
        "baseline" => baseline::COMMAND.run(rest, |p| baseline::body(p, sink)),
        "scenario" => scenario::COMMAND.run(rest, |p| scenario::body(p, sink)),
        "help" | "--help" | "-h" => (exit::OK, USAGE.to_string()),
        other => (exit::USAGE, format!("unknown command {other:?}\n\n{USAGE}")),
    }
}
