//! One scoring session: the record loop shared by `hdoutlier stream` and
//! every `hdoutlier serve` session.
//!
//! A [`ScoringSession`] owns an [`OnlineScorer`] and everything a long-run
//! scorer needs around it: the bad-record [`ErrorPolicy`] with its
//! consecutive-failure breaker, the skipped and quarantined totals, the
//! 1-based input line counter, the pending batch for pooled
//! [`OnlineScorer::score_batch`] calls, the checkpoint cadence, and resume.
//! Drivers only split their input into lines, parse each line into a row,
//! and hand rendered NDJSON to a [`LineSink`]; the verdict stream is
//! therefore the same bytes whichever transport carries it.
//!
//! Checkpoint cadence: after each scoring step — one record, or one flushed
//! batch — the session saves exactly once if the step's range of
//! `records_scored` crossed at least one multiple of `checkpoint_every`.
//! Record at a time this is "every `checkpoint_every` records"; under
//! `batch` it is the first batch boundary at or past each multiple.

use crate::checkpoint::{Checkpoint, RecoveredFrom};
use crate::ndjson::{error_json, verdict_json};
use crate::scorer::{OnlineScorer, Verdict};
use hdoutlier_data::DataError;
use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_obs as obs;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Event target for the session's events and spans.
const TARGET: &str = "hdoutlier.stream";

/// What to do with a record that cannot be parsed or scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Stop on the first bad record (the default).
    Abort,
    /// Emit an NDJSON error verdict and keep scoring.
    Skip,
    /// Like skip, and also append the raw line to the file at this path.
    Quarantine(String),
}

impl ErrorPolicy {
    /// Parses `abort`, `skip` or `quarantine:<path>`.
    ///
    /// # Errors
    /// A message ending in the rejected spec; drivers prefix their own
    /// flag or field name.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "abort" => Ok(ErrorPolicy::Abort),
            "skip" => Ok(ErrorPolicy::Skip),
            other => match other.strip_prefix("quarantine:") {
                Some(path) if !path.is_empty() => Ok(ErrorPolicy::Quarantine(path.to_string())),
                _ => Err(format!(
                    "must be abort|skip|quarantine:<path>, got {spec:?}"
                )),
            },
        }
    }

    /// The `action` string written into error verdicts.
    pub fn action(&self) -> &'static str {
        match self {
            ErrorPolicy::Abort => "abort",
            ErrorPolicy::Skip => "skip",
            ErrorPolicy::Quarantine(_) => "quarantine",
        }
    }
}

/// How a session scores, fails and persists.
#[derive(Debug)]
pub struct SessionOptions {
    /// Records per pooled `score_batch` call (`1` = record at a time).
    pub batch: usize,
    /// Pool threads for batched scoring.
    pub threads: usize,
    /// Emit only outlier (and cadence-drift) verdicts.
    pub outliers_only: bool,
    /// Bad-record policy.
    pub policy: ErrorPolicy,
    /// Consecutive bad records tolerated before the breaker trips.
    pub max_consecutive: u64,
    /// Checkpoint file; `None` disables checkpoints.
    pub checkpoint: Option<PathBuf>,
    /// Records between cadence checkpoints.
    pub checkpoint_every: u64,
    /// Drift-test significance override, applied after any resume.
    pub drift_alpha: Option<f64>,
    /// Drift-check cadence override, applied after any resume.
    pub drift_every: Option<u64>,
}

/// Why [`ScoringSession::open`] failed.
#[derive(Debug)]
pub enum OpenError {
    /// No checkpoint generation could be read, or the quarantine file
    /// cannot be opened.
    Io(String),
    /// The checkpoint does not fit the model.
    Restore(String),
    /// A drift override is out of range.
    Drift(String),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(m) | OpenError::Restore(m) | OpenError::Drift(m) => f.write_str(m),
        }
    }
}

/// A policy trip: the bad record that ended scoring.
#[derive(Debug)]
pub struct Trip {
    /// 1-based input line of the bad record.
    pub line: u64,
    /// Why the record was bad.
    pub reason: String,
    /// `(consecutive, max)` when the breaker fired rather than `abort`.
    pub breaker: Option<(u64, u64)>,
}

impl Trip {
    /// `line N: reason`, plus for a breaker trip
    /// `(C consecutive bad records exceed <limit> <max>; <then>)`.
    pub fn describe(&self, limit: &str, then: &str) -> String {
        let Trip { line, reason, .. } = self;
        match self.breaker {
            None => format!("line {line}: {reason}"),
            Some((consecutive, max)) => format!(
                "line {line}: {reason} ({consecutive} consecutive bad records exceed \
                 {limit} {max}; {then})"
            ),
        }
    }
}

/// Why a session stopped consuming records.
#[derive(Debug)]
pub enum Stop {
    /// The consumer went away (a closed pipe): a normal way to stop.
    HungUp,
    /// The error policy or the breaker gave up.
    Tripped(Trip),
    /// An environmental failure: output, quarantine or checkpoint write.
    Failed(String),
}

/// Where rendered NDJSON lines go.
pub trait LineSink {
    /// Takes one rendered line, without its trailing newline.
    ///
    /// # Errors
    /// [`Stop::HungUp`] or [`Stop::Failed`] to end the run.
    fn emit(&mut self, line: &str) -> Result<(), Stop>;
}

impl LineSink for String {
    fn emit(&mut self, line: &str) -> Result<(), Stop> {
        self.push_str(line);
        self.push('\n');
        Ok(())
    }
}

/// One scorer plus its policy ladder, batch, cadence and totals.
pub struct ScoringSession {
    scorer: OnlineScorer,
    options: SessionOptions,
    quarantine: Option<File>,
    consecutive_errors: u64,
    skipped: u64,
    quarantined: u64,
    line_no: u64,
    /// Parsed rows waiting for one pooled `score_batch` call.
    pending_rows: Vec<Vec<f64>>,
    /// Each pending row's line number and raw-text range in `pending_text`.
    pending_lines: Vec<(u64, Range<usize>)>,
    pending_text: String,
    skipped_ctr: obs::Counter,
    quarantined_ctr: obs::Counter,
    checkpoints_ctr: obs::Counter,
}

impl ScoringSession {
    /// Builds a session: restores `resume_from` when given (falling back to
    /// its `.prev` generation; scorer state, totals and line counter), then
    /// applies the drift overrides, then opens the quarantine file in
    /// append mode. Returns where the state came from when a checkpoint was
    /// restored.
    ///
    /// # Errors
    /// [`OpenError`] naming the step that failed.
    pub fn open(
        mut scorer: OnlineScorer,
        mut options: SessionOptions,
        resume_from: Option<&Path>,
    ) -> Result<(Self, Option<RecoveredFrom>), OpenError> {
        let (mut skipped, mut quarantined, mut line_no, mut recovered_from) = (0, 0, 0, None);
        if let Some(path) = resume_from {
            let cannot =
                |e: &dyn std::fmt::Display| format!("cannot resume from {}: {e}", path.display());
            let (cp, recovered) =
                Checkpoint::load_with_recovery(path).map_err(|e| OpenError::Io(cannot(&e)))?;
            if let RecoveredFrom::Previous { quarantined } = &recovered {
                obs::event(
                    obs::Level::Warn,
                    TARGET,
                    "checkpoint_recovered",
                    &[
                        ("from", obs::Value::Str("prev")),
                        ("quarantined", obs::Value::Bool(quarantined.is_some())),
                    ],
                );
            }
            cp.restore(&mut scorer)
                .map_err(|e| OpenError::Restore(cannot(&e)))?;
            obs::event(
                obs::Level::Info,
                TARGET,
                "resumed",
                &[
                    ("record", obs::Value::U64(cp.records_scored)),
                    ("skipped", obs::Value::U64(cp.skipped)),
                    ("quarantined", obs::Value::U64(cp.quarantined)),
                ],
            );
            (skipped, quarantined, line_no) = (cp.skipped, cp.quarantined, cp.lines);
            recovered_from = Some(recovered);
        }
        let drift = |e: DataError| OpenError::Drift(e.to_string());
        if let Some(alpha) = options.drift_alpha {
            scorer.set_drift_alpha(alpha).map_err(drift)?;
        }
        if let Some(every) = options.drift_every {
            scorer.set_check_every(every).map_err(drift)?;
        }
        let quarantine = match &options.policy {
            ErrorPolicy::Quarantine(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path);
                let cannot = |e| OpenError::Io(format!("cannot open quarantine file {path}: {e}"));
                Some(file.map_err(cannot)?)
            }
            _ => None,
        };
        options.batch = options.batch.max(1);
        options.checkpoint_every = options.checkpoint_every.max(1);
        let registry = obs::registry();
        let session = ScoringSession {
            scorer,
            pending_rows: Vec::with_capacity(options.batch),
            pending_lines: Vec::with_capacity(options.batch),
            pending_text: String::new(),
            options,
            quarantine,
            consecutive_errors: 0,
            skipped,
            quarantined,
            line_no,
            skipped_ctr: registry.counter("hdoutlier.stream.skipped"),
            quarantined_ctr: registry.counter("hdoutlier.stream.quarantined"),
            checkpoints_ctr: registry.counter("hdoutlier.stream.checkpoints"),
        };
        Ok((session, recovered_from))
    }

    /// The scorer (model, drift monitor, record counts).
    pub fn scorer(&self) -> &OnlineScorer {
        &self.scorer
    }

    /// The options the session was opened with.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Bad records skipped over the session's lifetime.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Bad records quarantined over the session's lifetime.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The 1-based number of the last input line counted.
    pub fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Sets the line counter, e.g. to number a new input from 1 after a
    /// resume.
    pub fn set_line_no(&mut self, line_no: u64) {
        self.line_no = line_no;
    }

    /// Counts one input line, blank and header lines included.
    pub fn next_line(&mut self) {
        self.line_no += 1;
    }

    /// Takes the current line: its raw text and either the parsed row or
    /// the reason it does not parse. Under `batch > 1` the row waits for a
    /// pooled flush; otherwise it is scored and emitted now.
    ///
    /// # Errors
    /// [`Stop`] when the run must end.
    pub fn feed(
        &mut self,
        raw: &str,
        parsed: Result<Vec<f64>, String>,
        sink: &mut impl LineSink,
    ) -> Result<(), Stop> {
        let row = match parsed {
            Ok(row) => row,
            Err(reason) => return self.reject(reason, Some(raw), sink),
        };
        let line = self.line_no;
        if self.options.batch > 1 {
            let start = self.pending_text.len();
            self.pending_text.push_str(raw);
            self.pending_lines
                .push((line, start..self.pending_text.len()));
            self.pending_rows.push(row);
            if self.pending_rows.len() >= self.options.batch {
                return self.flush(sink);
            }
            return Ok(());
        }
        let before = self.scorer.records_scored();
        let scored = {
            let _span = obs::span(obs::Level::Trace, TARGET, "score_record");
            self.scorer.score_record(&row)
        };
        match scored {
            Ok(verdict) => self.emit_verdict(&verdict, line, sink)?,
            Err(e) => return self.bad_record(line, e.to_string(), Some(raw), sink),
        }
        self.checkpoint_on_cadence(before)
    }

    /// Rejects the current line (`raw` is `None` when it could not even be
    /// read). Pending records are flushed first so the error verdict lands
    /// at its arrival position.
    ///
    /// # Errors
    /// [`Stop`] when the run must end.
    pub fn reject(
        &mut self,
        reason: String,
        raw: Option<&str>,
        sink: &mut impl LineSink,
    ) -> Result<(), Stop> {
        self.flush(sink)?;
        self.bad_record(self.line_no, reason, raw, sink)
    }

    /// Scores everything pending with one pooled call and emits the
    /// verdicts in arrival order. The batch is consumed even when the run
    /// stops part-way: its records are already applied to the scorer.
    ///
    /// # Errors
    /// [`Stop`] when the run must end.
    pub fn flush(&mut self, sink: &mut impl LineSink) -> Result<(), Stop> {
        if self.pending_rows.is_empty() {
            return Ok(());
        }
        let before = self.scorer.records_scored();
        let results = {
            let _span = obs::span(obs::Level::Trace, TARGET, "score_batch");
            self.scorer
                .score_batch(&self.pending_rows, self.options.threads)
        };
        self.pending_rows.clear();
        let mut text = std::mem::take(&mut self.pending_text);
        let mut lines = std::mem::take(&mut self.pending_lines);
        let emitted =
            lines
                .iter()
                .zip(results)
                .try_for_each(|((line, range), result)| match result {
                    Ok(verdict) => self.emit_verdict(&verdict, *line, sink),
                    Err(e) => {
                        self.bad_record(*line, e.to_string(), Some(&text[range.clone()]), sink)
                    }
                });
        // Hand the buffers back so the next batch reuses their capacity.
        text.clear();
        lines.clear();
        self.pending_text = text;
        self.pending_lines = lines;
        emitted?;
        self.checkpoint_on_cadence(before)
    }

    /// Writes the session's state to its checkpoint file atomically.
    /// `Ok(false)` when no checkpoint is configured.
    ///
    /// # Errors
    /// A message naming the path when the write fails.
    pub fn save_checkpoint(&self) -> Result<bool, String> {
        let Some(path) = &self.options.checkpoint else {
            return Ok(false);
        };
        let checkpoint = Checkpoint {
            lines: self.line_no,
            ..Checkpoint::capture(&self.scorer, self.skipped, self.quarantined)
        };
        checkpoint
            .save_atomic(path)
            .map_err(|e| format!("failed to checkpoint to {}: {e}", path.display()))?;
        self.checkpoints_ctr.inc();
        Ok(true)
    }

    /// One checkpoint when the step that began at `before` records crossed
    /// a multiple of `checkpoint_every`.
    fn checkpoint_on_cadence(&self, before: u64) -> Result<(), Stop> {
        let every = self.options.checkpoint_every;
        if self.scorer.records_scored() / every > before / every {
            self.save_checkpoint().map_err(Stop::Failed)?;
        }
        Ok(())
    }

    /// Renders one scoring verdict unless `outliers_only` filters it.
    fn emit_verdict(
        &mut self,
        verdict: &Verdict,
        line: u64,
        sink: &mut impl LineSink,
    ) -> Result<(), Stop> {
        self.consecutive_errors = 0;
        if self.options.outliers_only && !verdict.outlier && verdict.drift.is_none() {
            return Ok(());
        }
        let rendered = verdict_json(verdict, &self.scorer)
            .map_err(|e| Stop::Failed(format!("line {line}: {e}")))?
            .render();
        sink.emit(&rendered)
    }

    /// The abort / breaker / skip / quarantine ladder, shared by every
    /// failure point.
    fn bad_record(
        &mut self,
        line: u64,
        reason: String,
        raw: Option<&str>,
        sink: &mut impl LineSink,
    ) -> Result<(), Stop> {
        self.consecutive_errors += 1;
        let max = self.options.max_consecutive;
        let policy = &self.options.policy;
        if *policy == ErrorPolicy::Abort || self.consecutive_errors > max {
            let breaker = (*policy != ErrorPolicy::Abort).then_some((self.consecutive_errors, max));
            return Err(Stop::Tripped(Trip {
                line,
                reason,
                breaker,
            }));
        }
        obs::event(
            obs::Level::Warn,
            TARGET,
            "record_error",
            &[
                ("line", obs::Value::U64(line)),
                ("action", obs::Value::Str(policy.action())),
            ],
        );
        if let (ErrorPolicy::Quarantine(path), Some(file)) = (policy, &mut self.quarantine) {
            if let Some(raw) = raw {
                // Under serve a request context is installed and the entry
                // is an envelope naming the request that carried the line;
                // without one (the CLI) the raw line is filed verbatim, so
                // the file stays replayable as input.
                let mut entry = match obs::current_request_ctx() {
                    None => raw.to_string(),
                    Some(ctx) => quarantine_envelope(&ctx, line, raw)
                        .map_err(|e| Stop::Failed(format!("line {line}: {e}")))?,
                };
                entry.push('\n');
                file.write_all(entry.as_bytes()).map_err(|e| {
                    Stop::Failed(format!("failed to quarantine line {line} to {path}: {e}"))
                })?;
            }
            self.quarantined += 1;
            self.quarantined_ctr.inc();
        } else {
            self.skipped += 1;
            self.skipped_ctr.inc();
        }
        let rendered = error_json(line as usize, &reason, policy.action())
            .map_err(|e| Stop::Failed(format!("line {line}: {e}")))?
            .render();
        sink.emit(&rendered)
    }
}

/// The serve-side quarantine entry: the raw record plus the request
/// identity that delivered it, so a quarantined line can be traced back
/// through the access log.
fn quarantine_envelope(ctx: &obs::RequestCtx, line: u64, raw: &str) -> Result<String, JsonError> {
    Ok(Json::object()
        .field("request_id", ctx.request_id())
        .field(
            "session_id",
            ctx.session_id()
                .map_or(Json::Null, |s| Json::String(s.to_string())),
        )
        .field("line", line)
        .field("raw", raw)?
        .render())
}
