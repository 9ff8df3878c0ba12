//! `hdoutlier stream` — score CSV records arriving on stdin, one NDJSON
//! verdict per record, using a model saved by `detect --save-model`.
//!
//! This is the long-running deployment surface, so it carries the fault
//! tolerance the one-shot commands do not need: a bad-record policy
//! (`--on-error abort|skip|quarantine:<path>`) with a consecutive-failure
//! circuit breaker, and atomic checkpoint/resume of the scorer state
//! (`--checkpoint`/`--resume`) so a crash or redeploy does not silently
//! reset the drift statistics or the record index.
//!
//! All of that lives in the shared [`ScoringSession`] core, which each
//! `hdoutlier serve` session drives as well. This command parses flags,
//! loads the model, reads stdin line by line (header, blank lines and read
//! failures), parses CSV rows, writes each verdict line to stdout with a
//! flush, and maps how the session stopped to an exit code.

use super::{delimiter, nonzero, CliError, Command};
use crate::args::Parsed;
use hdoutlier_stream::session::{
    ErrorPolicy, LineSink, OpenError, ScoringSession, SessionOptions, Stop,
};
use hdoutlier_stream::{OnlineScorer, RecoveredFrom};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier stream — score records from stdin as they arrive

Reads CSV rows from stdin (same column order the model was fitted on) and
writes one NDJSON verdict per record to stdout. Every --drift-every records
a chi-square drift check of the arriving distribution against the trained
equi-depth grid is run and attached to that record's verdict; a drifted
dimension means the grid has gone stale and the model should be re-fit.

USAGE:
    hdoutlier stream --model <model.json> [OPTIONS] < records.csv

OPTIONS:
    --model <path>       model file (required)
    --delimiter <c>      field separator (default ',')
    --no-header          first line is data, not column names
    --outliers-only      emit verdicts only for flagged records
                         (error verdicts are still emitted)
    --drift-alpha <a>    drift-test significance level (default 0.01)
    --drift-every <n>    records between drift checks (default 512)
    --batch <n>          score records in bounded batches of <n>, computing
                         the model lookups on --threads pool workers; the
                         verdicts (indices, scores, drift reports) are
                         byte-identical to record-at-a-time scoring
                         (default 1 = no batching)
    --threads <n>        worker threads for --batch scoring (default:
                         available cores)
    --on-error <p>       bad-record policy: abort | skip | quarantine:<path>
                         (default abort). skip/quarantine emit an NDJSON
                         error verdict (line number + reason) and keep
                         scoring; quarantine also appends the raw line to
                         <path>
    --max-consecutive-errors <n>
                         circuit breaker: abort regardless of policy after
                         <n> consecutive bad records (default 100)
    --checkpoint <path>  persist scorer state (record index, drift
                         occupancy, totals) to <path> atomically every
                         --checkpoint-every records and at EOF
    --checkpoint-every <n>
                         records between checkpoints (default 1000)
    --resume <path>      restore state from a checkpoint before scoring; it
                         must match the model's grid fingerprint. Feed the
                         remaining records (headerless, with --no-header)
",
    values: &[
        "model",
        "delimiter",
        "drift-alpha",
        "drift-every",
        "batch",
        "threads",
        "on-error",
        "max-consecutive-errors",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "serve-metrics",
    ],
    bools: &["no-header", "outliers-only"],
};

/// Scores every record of `input`, writing each verdict to `sink` as soon
/// as it is computed (flushed per record, so `tail -f | hdoutlier stream`
/// pipelines see verdicts immediately rather than at EOF), then writes the
/// final checkpoint.
pub fn body(parsed: &Parsed, input: impl BufRead, sink: &mut impl Write) -> Result<(), CliError> {
    let (mut session, delimiter) = open_session(parsed)?;
    let header = !parsed.has("no-header");
    match score_input(&mut session, input, delimiter, header, &mut FlushEach(sink)) {
        // A consumer hang-up is a normal stop: the records scored so far
        // still land in the final checkpoint.
        Ok(()) | Err(Stop::HungUp) => {}
        Err(Stop::Tripped(trip)) => {
            return Err(CliError::Runtime(
                trip.describe("--max-consecutive-errors", "aborting"),
            ))
        }
        Err(Stop::Failed(e)) => return Err(CliError::Runtime(e)),
    }
    // A final checkpoint at EOF (or consumer hang-up) so a clean restart
    // resumes from the last record, not the last cadence boundary.
    session.save_checkpoint().map_err(CliError::Runtime)?;
    Ok(())
}

/// Flag validation, model load and resume: the ready session and the CSV
/// delimiter.
fn open_session(parsed: &Parsed) -> Result<(ScoringSession, char), CliError> {
    let (usage, runtime) = (CliError::Usage, CliError::Runtime);
    if let Some(path) = parsed.positional().first() {
        return Err(usage(format!(
            "unexpected argument {path:?}: records are read from stdin"
        )));
    }
    let model_path = parsed
        .get("model")
        .ok_or_else(|| usage("--model is required".into()))?;
    let delimiter = delimiter(parsed)?;
    let policy = ErrorPolicy::parse(parsed.get("on-error").unwrap_or("abort"))
        .map_err(|e| usage(format!("--on-error {e}")))?;
    let batch = nonzero(parsed, "batch", "must be >= 1")?.unwrap_or(1);
    let threads =
        nonzero(parsed, "threads", "must be >= 1")?.unwrap_or_else(hdoutlier_pool::default_threads);
    let max_consecutive =
        nonzero(parsed, "max-consecutive-errors", "must be positive")?.unwrap_or(100);
    let checkpoint_every = nonzero(parsed, "checkpoint-every", "must be positive")?;
    let checkpoint = parsed.get("checkpoint").map(PathBuf::from);
    if checkpoint.is_none() && checkpoint_every.is_some() {
        return Err(usage(
            "--checkpoint-every requires --checkpoint <path>".into(),
        ));
    }

    let text = std::fs::read_to_string(model_path)
        .map_err(|e| runtime(format!("failed to read {model_path}: {e}")))?;
    let model = hdoutlier_stream::model_io::from_json_text(&text)
        .map_err(|e| runtime(format!("failed to load model: {e}")))?;
    let scorer = OnlineScorer::new(model)
        .map_err(|e| runtime(format!("model unusable for streaming: {e}")))?;
    let options = SessionOptions {
        batch,
        threads,
        outliers_only: parsed.has("outliers-only"),
        policy,
        max_consecutive,
        checkpoint,
        checkpoint_every: checkpoint_every.unwrap_or(1000),
        drift_alpha: parsed.opt("drift-alpha", "number")?,
        drift_every: parsed.opt("drift-every", "integer")?,
    };
    // Resume first, then explicit drift flags: a flag given on the resumed
    // invocation deliberately overrides the checkpointed cadence/alpha.
    let resume = parsed.get("resume");
    let (mut session, recovered) = ScoringSession::open(scorer, options, resume.map(Path::new))
        .map_err(|e| match e {
            OpenError::Drift(_) => usage(e.to_string()),
            _ => runtime(e.to_string()),
        })?;
    // Error verdicts number this invocation's own stdin lines from 1, also
    // after a resume.
    session.set_line_no(0);
    if let (Some(path), Some(RecoveredFrom::Previous { quarantined })) = (resume, recovered) {
        // The primary was corrupt or missing; say so loudly — the resumed
        // run is one checkpoint generation behind.
        match quarantined {
            Some(corrupt) => eprintln!(
                "stream: checkpoint {path} was unreadable (quarantined to {}); \
                 resumed from its .prev generation",
                corrupt.display()
            ),
            None => eprintln!(
                "stream: checkpoint {path} was missing; resumed from its .prev generation"
            ),
        }
    }
    Ok((session, delimiter))
}

/// Feeds every stdin line to the session: counts each line, skips blank
/// lines and the header, parses the rest as CSV rows, and flushes the last
/// partial batch at EOF.
fn score_input(
    session: &mut ScoringSession,
    input: impl BufRead,
    delimiter: char,
    mut skip_header: bool,
    sink: &mut impl LineSink,
) -> Result<(), Stop> {
    let n_dims = session.scorer().model().grid().n_dims();
    let missing = hdoutlier_data::csv::CsvOptions::default().missing_markers;
    for line in input.lines() {
        session.next_line();
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                session.reject(format!("stdin read failed: {e}"), None, sink)?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if skip_header {
            skip_header = false;
            continue;
        }
        let row = parse_row(&line, delimiter, &missing, n_dims);
        session.feed(&line, row, sink)?;
    }
    session.flush(sink)
}

/// The stdout sink: each line is written and flushed at once, so
/// `tail -f | hdoutlier stream` sees verdicts as they are computed. A
/// closed pipe (`| head`) is a hang-up, not an error.
struct FlushEach<'a, W>(&'a mut W);

impl<W: Write> LineSink for FlushEach<'_, W> {
    fn emit(&mut self, line: &str) -> Result<(), Stop> {
        match writeln!(self.0, "{line}").and_then(|()| self.0.flush()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(Stop::HungUp),
            Err(e) => Err(Stop::Failed(format!("stdout write failed: {e}"))),
        }
    }
}

/// Splits one CSV line into `n_dims` numbers (missing markers become NaN).
fn parse_row(
    line: &str,
    delimiter: char,
    missing: &[String],
    n_dims: usize,
) -> Result<Vec<f64>, String> {
    let records = hdoutlier_data::csv::parse_records(line, delimiter)
        .map_err(|e| format!("malformed CSV: {e}"))?;
    let fields = match records.as_slice() {
        [one] => one,
        _ => return Err("expected exactly one record".to_string()),
    };
    if fields.len() != n_dims {
        return Err(format!(
            "expected {n_dims} fields (the model's dimensionality), got {}",
            fields.len()
        ));
    }
    fields
        .iter()
        .map(|f| {
            let f = f.trim();
            if missing.iter().any(|m| m == f) {
                Ok(f64::NAN)
            } else {
                f.parse::<f64>()
                    .map_err(|_| format!("cannot parse {f:?} as a number"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{argv, planted_csv, run, run_input};
    use crate::exit;
    use hdoutlier_json::Json;

    /// Trains a model from a planted CSV and returns (csv text, model path,
    /// planted row indices).
    fn trained(name: &str) -> (String, std::path::PathBuf, Vec<usize>) {
        let (csv, planted_rows) = planted_csv(name);
        let model_path = csv.with_extension("model.json");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi=4",
                "--k=2",
                "--m=6",
                "--search=brute",
                "--save-model",
                model_path.to_str().unwrap(),
                csv.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        let text = std::fs::read_to_string(&csv).unwrap();
        (text, model_path, planted_rows)
    }

    #[test]
    fn emits_one_ndjson_verdict_per_record() {
        let (csv_text, model_path, planted_rows) = trained("stream-basic");
        let n_records = csv_text.lines().count() - 1; // header
        let (code, out) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), n_records);
        // Every line is valid JSON with the expected shape, indexed in order.
        for (i, line) in lines.iter().enumerate() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            assert_eq!(j.get("record").and_then(Json::as_number), Some(i as f64));
            assert!(j.get("outlier").is_some());
            assert!(j.get("score").is_some());
        }
        // The planted outliers are flagged on their own lines.
        let flagged: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"outlier\":true"))
            .map(|(i, _)| i)
            .collect();
        assert!(
            planted_rows.iter().any(|r| flagged.contains(r)),
            "planted {planted_rows:?}, flagged {flagged:?}"
        );
        // Flagged records carry the matched projection string.
        let sample = lines[flagged[0]];
        assert!(sample.contains("\"projections\":[\""), "{sample}");
    }

    #[test]
    fn outliers_only_filters_inliers() {
        let (csv_text, model_path, _) = trained("stream-filter");
        let (code, all) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK);
        let (code, some) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap(), "--outliers-only"]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK);
        assert!(some.lines().count() < all.lines().count());
        assert!(some.lines().all(|l| l.contains("\"outlier\":true")));
    }

    #[test]
    fn drift_report_attaches_on_cadence() {
        let (csv_text, model_path, _) = trained("stream-drift");
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-every",
                "100",
            ]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let with_drift: Vec<usize> = out
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("\"drift\":"))
            .map(|(i, _)| i)
            .collect();
        // 400 records, cadence 100 → checks at records 99, 199, 299, 399.
        assert_eq!(with_drift, vec![99, 199, 299, 399], "{with_drift:?}");
        // Replaying the training data: the equi-depth grid fits, no drift.
        for (_, line) in out.lines().enumerate().filter(|(i, _)| *i == 399) {
            assert!(line.contains("\"drifted\":false"), "{line}");
        }
    }

    #[test]
    fn drifted_stream_is_reported() {
        let (csv_text, model_path, _) = trained("stream-drifted");
        // Shift every value of the first column far into one tail.
        let mut lines = csv_text.lines();
        let header = lines.next().unwrap().to_string();
        let mut shifted = header + "\n";
        for line in lines {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            fields[0] = "1e6".to_string();
            shifted.push_str(&fields.join(","));
            shifted.push('\n');
        }
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-every",
                "400",
            ]),
            shifted.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let report_line = out
            .lines()
            .find(|l| l.contains("\"drift\":"))
            .expect("cadence fired");
        assert!(report_line.contains("\"drifted\":true"), "{report_line}");
        let j = Json::parse(report_line).unwrap();
        let dims = j
            .get("drift")
            .and_then(|d| d.get("drifted_dims"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(
            dims.iter().any(|d| d.as_number() == Some(0.0)),
            "{report_line}"
        );
    }

    #[test]
    fn metrics_out_writes_parseable_ndjson() {
        let (csv_text, model_path, _) = trained("stream-metrics");
        let metrics_path = model_path.with_extension("metrics.ndjson");
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--metrics-out",
                metrics_path.to_str().unwrap(),
            ]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let snapshot = std::fs::read_to_string(&metrics_path).unwrap();
        let mut names = Vec::new();
        for line in snapshot.lines() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
            names.push(
                j.get("metric")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string(),
            );
            assert!(j.get("type").is_some(), "{line}");
        }
        // The stream counters show up; totals are process-global, so only
        // assert presence (other in-process tests also stream records).
        assert!(
            names.iter().any(|n| n == "hdoutlier.stream.records"),
            "{names:?}"
        );
        assert!(
            names
                .iter()
                .any(|n| n == "hdoutlier.stream.record_latency_us"),
            "{names:?}"
        );
    }

    #[test]
    fn metrics_out_is_flushed_on_error_exits_too() {
        let (_, model_path, _) = trained("stream-metrics-err");
        let metrics_path = model_path.with_extension("err-metrics.ndjson");
        let _ = std::fs::remove_file(&metrics_path);
        // Default abort policy dies on the malformed line...
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--metrics-out",
                metrics_path.to_str().unwrap(),
            ]),
            "1,2,3\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME, "{out}");
        // ...but the snapshot is still written.
        let snapshot = std::fs::read_to_string(&metrics_path).expect("snapshot flushed");
        assert!(snapshot.contains("hdoutlier.stream.records"), "{snapshot}");
    }

    #[test]
    fn missing_values_and_no_header_are_handled() {
        let (_, model_path, _) = trained("stream-missing");
        // Two headerless records with missing markers in several columns.
        let input = "0,0,?,0,NaN,0\n1,1,1,1,1,1\n";
        let (code, out) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            input.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn skip_policy_keeps_scoring_past_bad_lines() {
        let (_, model_path, _) = trained("stream-skip");
        let input = "1,2,3\n0,0,0,0,0,0\n1,2,3,4,5,banana\n1,1,1,1,1,1\n";
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
            ]),
            input.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Bad lines 1 and 3 become error verdicts; good records keep a
        // contiguous index.
        let j = Json::parse(lines[0]).unwrap();
        assert_eq!(j.get("line").and_then(Json::as_number), Some(1.0));
        assert_eq!(j.get("action").and_then(Json::as_str), Some("skip"));
        assert!(j.get("error").is_some());
        assert!(lines[1].contains("\"record\":0"), "{}", lines[1]);
        assert!(lines[2].contains("\"action\":\"skip\""), "{}", lines[2]);
        assert!(lines[2].contains("banana"), "{}", lines[2]);
        assert!(lines[3].contains("\"record\":1"), "{}", lines[3]);
    }

    #[test]
    fn circuit_breaker_halts_runaway_garbage() {
        let (_, model_path, _) = trained("stream-breaker");
        let garbage = "x\n".repeat(10);
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
                "--max-consecutive-errors",
                "3",
            ]),
            garbage.as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("consecutive"), "{out}");
        // 3 error verdicts got out before the 4th tripped the breaker.
        assert_eq!(
            out.lines().filter(|l| l.starts_with('{')).count(),
            3,
            "{out}"
        );
        // A good record in between resets the count.
        let mixed = "x\nx\nx\n0,0,0,0,0,0\nx\nx\nx\n";
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
                "--max-consecutive-errors",
                "3",
            ]),
            mixed.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 7);
    }

    #[test]
    fn batch_scoring_output_is_byte_identical_to_record_at_a_time() {
        let (csv_text, model_path, _) = trained("stream-batch");
        let (code, serial) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{serial}");
        assert!(!serial.is_empty());
        // Batch sizes that divide the stream unevenly, several thread counts.
        for (batch, threads) in [("1", "2"), ("7", "2"), ("7", "8"), ("64", "4")] {
            let (code, batched) = run_input(
                "stream",
                &argv(&[
                    "--model",
                    model_path.to_str().unwrap(),
                    "--batch",
                    batch,
                    "--threads",
                    threads,
                ]),
                csv_text.as_bytes(),
            );
            assert_eq!(code, exit::OK, "{batched}");
            assert_eq!(batched, serial, "--batch {batch} --threads {threads}");
        }
    }

    #[test]
    fn batched_error_verdicts_keep_arrival_order() {
        let (_, model_path, _) = trained("stream-batch-err");
        let input = "1,2,3\n0,0,0,0,0,0\n1,2,3,4,5,banana\n1,1,1,1,1,1\n";
        let base = argv(&[
            "--model",
            model_path.to_str().unwrap(),
            "--no-header",
            "--on-error",
            "skip",
        ]);
        let (code, serial) = run_input("stream", &base, input.as_bytes());
        assert_eq!(code, exit::OK, "{serial}");
        let mut batched_args = base.clone();
        batched_args.extend(argv(&["--batch", "3", "--threads", "2"]));
        let (code, batched) = run_input("stream", &batched_args, input.as_bytes());
        assert_eq!(code, exit::OK, "{batched}");
        assert_eq!(batched, serial);
    }

    #[test]
    fn batch_and_threads_reject_zero() {
        let (_, model_path, _) = trained("stream-batch-usage");
        for flag in ["--batch=0", "--threads=0"] {
            let (code, out) = run_input(
                "stream",
                &argv(&["--model", model_path.to_str().unwrap(), flag]),
                b"" as &[u8],
            );
            assert_eq!(code, exit::USAGE, "{flag}");
            assert!(out.contains("must be >= 1"), "{out}");
        }
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let (_, model_path, _) = trained("stream-errors");
        // Wrong field count.
        let (code, out) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            "1,2,3\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("line 1"), "{out}");
        assert!(out.contains("expected 6 fields"), "{out}");
        // Unparseable number.
        let (code, out) = run_input(
            "stream",
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            "1,2,3,4,5,banana\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("banana"), "{out}");
        // Usage errors.
        let (code, out) = run_input("stream", &argv(&[]), "".as_bytes());
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--model is required"));
        let (code, out) = run_input(
            "stream",
            &argv(&["--model", "x.json", "positional.csv"]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("read from stdin"), "{out}");
        let (code, _) = run_input(
            "stream",
            &argv(&["--model", "/nope/missing.json"]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        // Bad drift flags.
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-alpha",
                "7",
            ]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("alpha"), "{out}");
        // Bad fault-tolerance flags.
        for bad in [
            vec!["--model", "m.json", "--on-error", "explode"],
            vec!["--model", "m.json", "--on-error", "quarantine:"],
            vec!["--model", "m.json", "--max-consecutive-errors", "0"],
            vec!["--model", "m.json", "--checkpoint-every", "50"],
            vec![
                "--model",
                "m.json",
                "--checkpoint",
                "c.json",
                "--checkpoint-every",
                "0",
            ],
        ] {
            let (code, out) = run_input("stream", &argv(&bad), "".as_bytes());
            assert_eq!(code, exit::USAGE, "{bad:?}: {out}");
        }
        // Resume from a missing checkpoint is a runtime error.
        let (code, out) = run_input(
            "stream",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--resume",
                "/nope/missing.ckpt",
            ]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("cannot resume"), "{out}");
    }

    // ---- parse_row edge cases ------------------------------------------

    fn markers() -> Vec<String> {
        hdoutlier_data::csv::CsvOptions::default().missing_markers
    }

    #[test]
    fn parse_row_missing_markers_tolerate_surrounding_whitespace() {
        let row = super::parse_row(" ? , NA ,  NaN , 1.5", ',', &markers(), 4).unwrap();
        assert!(row[0].is_nan());
        assert!(row[1].is_nan());
        assert!(row[2].is_nan());
        assert_eq!(row[3], 1.5);
        // An entirely blank field is the empty-string marker after trimming.
        let row = super::parse_row("1,   ,3", ',', &markers(), 3).unwrap();
        assert!(row[1].is_nan());
    }

    #[test]
    fn parse_row_wrong_delimiter_is_a_field_count_error() {
        // Semicolon data split on commas collapses into one un-parseable
        // field — report the count mismatch, not a panic.
        let err = super::parse_row("1;2;3", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("expected 3 fields"), "{err}");
        // The right delimiter parses.
        let row = super::parse_row("1;2;3", ';', &markers(), 3).unwrap();
        assert_eq!(row, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parse_row_field_count_mismatches() {
        let err = super::parse_row("1,2", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("expected 3 fields"), "{err}");
        assert!(err.contains("got 2"), "{err}");
        let err = super::parse_row("1,2,3,4", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("got 4"), "{err}");
    }

    #[test]
    fn parse_row_quoted_fields_and_utf8() {
        // Quoted numeric fields parse; quoted text (UTF-8 included) is a
        // per-field error naming the offending content.
        let row = super::parse_row("\"1.5\",2", ',', &markers(), 2).unwrap();
        assert_eq!(row, vec![1.5, 2.0]);
        let err = super::parse_row("\"héllo, wörld\",2", ',', &markers(), 2).unwrap_err();
        assert!(err.contains("héllo, wörld"), "{err}");
        // A quoted missing marker still reads as missing.
        let row = super::parse_row("\"?\",2", ',', &markers(), 2).unwrap();
        assert!(row[0].is_nan());
        // An unterminated quote is malformed CSV, not a panic.
        let err = super::parse_row("\"1,2", ',', &markers(), 2).unwrap_err();
        assert!(err.contains("malformed CSV"), "{err}");
    }

    #[test]
    fn parse_row_inf_and_nan_literals() {
        // Rust's f64 parser accepts inf/-inf/infinity case-insensitively;
        // they flow through as infinities (the grid clamps them to the
        // outermost ranges), while NaN spellings hit the missing-marker
        // list first and become missing.
        let row = super::parse_row("inf,-inf,Infinity", ',', &markers(), 3).unwrap();
        assert_eq!(row[0], f64::INFINITY);
        assert_eq!(row[1], f64::NEG_INFINITY);
        assert_eq!(row[2], f64::INFINITY);
        let row = super::parse_row("NaN,nan", ',', &markers(), 2).unwrap();
        assert!(row[0].is_nan()); // marker
        assert!(row[1].is_nan()); // f64 parse of "nan"
    }
}
