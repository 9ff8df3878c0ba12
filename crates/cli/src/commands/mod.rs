//! The CLI subcommands and the one runner they share.
//!
//! A subcommand is a [`Command`] — its help text and its own flags — plus a
//! body that takes the parsed flags and returns `Result<(), CliError>`.
//! [`Command::run`] does everything else once: `--help`, parsing against
//! the command's flags plus the shared observability flags, opening the
//! [`ObsSession`], rendering a [`CliError`] as help or message text, and
//! flushing the telemetry exports on every exit path after init.

pub mod advise;
pub mod baseline;
pub mod detect;
pub mod explain;
pub mod scenario;
pub mod score;
pub mod serve;
pub mod stream;

use crate::args::{ArgError, Parsed};
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_data::csv::{ColumnRef, CsvOptions};
use hdoutlier_data::Dataset;
use std::str::FromStr;

/// Why a command body stopped.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage: rendered as the message, a blank line, and the help.
    Usage(String),
    /// Runtime failure: rendered as the bare message.
    Runtime(String),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// A subcommand's declaration: its help text and the flags it takes on top
/// of the shared observability flags.
pub struct Command {
    /// Help text up to and including the command's own OPTIONS; the shared
    /// flags' help is appended when it is printed.
    pub help: &'static str,
    /// Value-taking flags (declaring `serve-metrics` also appends its help).
    pub values: &'static [&'static str],
    /// Boolean flags.
    pub bools: &'static [&'static str],
}

impl Command {
    /// Runs `body` under the command's flags and observability session and
    /// returns `(exit code, help or error text)`. The session's exports are
    /// written on every path after it opens: a flush failure turns a
    /// success into a runtime error and is appended to an existing error.
    pub fn run(
        &self,
        argv: &[String],
        body: impl FnOnce(&Parsed) -> Result<(), CliError>,
    ) -> (i32, String) {
        let serve_help = if self.values.contains(&"serve-metrics") {
            obs_setup::SERVE_HELP
        } else {
            ""
        };
        let help = format!("{}{}{serve_help}", self.help, obs_setup::HELP);
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return (exit::OK, help);
        }
        let usage = |msg: String| (exit::USAGE, format!("{msg}\n\n{help}"));
        let parsed = match obs_setup::spec_with(self.values, self.bools).parse(argv) {
            Ok(p) => p,
            Err(e) => return usage(e.to_string()),
        };
        let mut session = match ObsSession::init(&parsed) {
            Ok(s) => s,
            Err(e) => return usage(e),
        };
        let (code, text) = match body(&parsed) {
            Ok(()) => (exit::OK, String::new()),
            Err(CliError::Usage(msg)) => usage(msg),
            Err(CliError::Runtime(msg)) => (exit::RUNTIME, msg),
        };
        match session.finish() {
            Ok(()) => (code, text),
            Err(e) if code == exit::OK => (exit::RUNTIME, e),
            // Report the flush failure without masking the original error.
            Err(e) => (code, format!("{text}\n(telemetry flush also failed: {e})")),
        }
    }
}

/// Writes a rendered report to the command's sink. A consumer closing the
/// pipe early (`hdoutlier ... | head`) is a normal shutdown, not a failure.
pub(crate) fn emit_report(sink: &mut impl std::io::Write, rendered: &str) -> Result<(), CliError> {
    match sink
        .write_all(rendered.as_bytes())
        .and_then(|()| sink.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(CliError::Runtime(format!("stdout write failed: {e}"))),
    }
}

/// An integer flag that must not be 0 (`zero` completes the complaint when
/// it is); `None` when absent.
pub(crate) fn nonzero<T: FromStr + Default + PartialEq>(
    parsed: &Parsed,
    flag: &str,
    zero: &str,
) -> Result<Option<T>, CliError> {
    match parsed.opt(flag, "integer")? {
        Some(n) if n == T::default() => Err(CliError::Usage(format!("--{flag} {zero}"))),
        n => Ok(n),
    }
}

/// The `--delimiter` flag: one character, `,` by default.
pub(crate) fn delimiter(parsed: &Parsed) -> Result<char, CliError> {
    match parsed.get("delimiter") {
        None => Ok(','),
        Some(d) if d.chars().count() == 1 => Ok(d.chars().next().expect("one char")),
        Some(d) => Err(CliError::Usage(format!(
            "--delimiter must be a single character, got {d:?}"
        ))),
    }
}

/// Loads the dataset named by the positional argument, honoring the shared
/// input flags (`--no-header`, `--label-column`, `--delimiter`).
pub(crate) fn load_dataset(parsed: &Parsed) -> Result<Dataset, CliError> {
    let path = parsed
        .positional()
        .first()
        .ok_or_else(|| CliError::Usage("missing input CSV path".into()))?;
    let options = CsvOptions {
        has_header: !parsed.has("no-header"),
        delimiter: delimiter(parsed)?,
        label_column: parsed
            .get("label-column")
            .map(|name| match name.parse::<usize>() {
                Ok(idx) if !parsed.has("no-header") => ColumnRef::Name(idx.to_string()),
                Ok(idx) => ColumnRef::Index(idx),
                Err(_) => ColumnRef::Name(name.to_string()),
            }),
        ..CsvOptions::default()
    };
    hdoutlier_data::csv::read_path(path, &options)
        .map_err(|e| CliError::Runtime(format!("failed to read {path}: {e}")))
}

#[cfg(test)]
pub(crate) mod test_support {
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    /// `parts` as an owned argument vector.
    pub fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Runs `hdoutlier <command> <argv…>` with empty stdin; the report and
    /// any error text come back as one string.
    pub fn run(command: &str, argv: &[String]) -> (i32, String) {
        run_input(command, argv, b"")
    }

    /// Like [`run`], with `input` on stdin.
    pub fn run_input(command: &str, argv: &[String], input: &[u8]) -> (i32, String) {
        let mut full = vec![command.to_string()];
        full.extend_from_slice(argv);
        let mut sink = Vec::new();
        let (code, err) = crate::run_with(&full, input, &mut sink);
        let mut out = String::from_utf8(sink).expect("reports are valid UTF-8");
        out.push_str(&err);
        (code, out)
    }

    /// Writes a small planted CSV to a temp path and returns it along with
    /// the planted rows.
    pub fn planted_csv(name: &str) -> (std::path::PathBuf, Vec<usize>) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 400,
            n_dims: 6,
            n_outliers: 3,
            strong_groups: Some(2),
            seed: 31,
            ..PlantedConfig::default()
        });
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}.csv"));
        hdoutlier_data::csv::write_path(&planted.dataset, &path).expect("writable");
        (path, planted.outlier_rows)
    }
}
