//! One serve session: a [`ScoringSession`] plus what only the server
//! needs around it.
//!
//! The scoring itself — error policy and breaker, skip and quarantine
//! totals, line counter, pooled batches, checkpoint cadence and resume —
//! is the [`hdoutlier_stream::session`] core that `hdoutlier stream` also
//! drives, which is what makes a session's verdict stream byte-identical
//! to `stream` run over the same records. This module adds the
//! `POST /sessions` config parser, the NDJSON record parser, the
//! idempotent-retry replay cache, the sticky trip state and the status
//! document. Nothing here is shared between sessions — a tripped breaker,
//! a drifted grid, or a checkpoint failure in one session is invisible to
//! every other.

use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_stream::session::{OpenError, ScoringSession, SessionOptions, Stop};
use hdoutlier_stream::{ErrorPolicy, OnlineScorer};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Validated configuration for one session, parsed from the
/// `POST /sessions` body by [`SessionConfig::from_json`].
pub struct SessionConfig {
    /// Session identifier (path segment, checkpoint filename stem).
    pub id: String,
    /// The fitted model this session scores against.
    pub model: hdoutlier_core::FittedModel,
    /// How the session scores; [`Session::create`] fills in `threads` and
    /// `checkpoint` from the server's settings.
    pub options: SessionOptions,
    /// Restore state from an existing checkpoint file when one is present.
    pub resume: bool,
}

impl SessionConfig {
    /// Parses and validates a `POST /sessions` body. `default_id` is used
    /// when the body does not name the session; `read_model_path` loads
    /// `model_path` references (injected so tests can run hermetically).
    pub fn from_json(
        body: &Json,
        default_id: String,
        read_model_path: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<Self, String> {
        let id = match body.get("id") {
            None => default_id,
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or("id must be a string")?,
        };
        if id.is_empty()
            || id.len() > 64
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "id must be 1-64 characters of [A-Za-z0-9_-], got {id:?}"
            ));
        }
        let model = match (body.get("model"), body.get("model_path")) {
            (Some(inline), None) => {
                hdoutlier_stream::model_io::from_json(inline).map_err(|e| format!("model: {e}"))?
            }
            (None, Some(path)) => {
                let path = path.as_str().ok_or("model_path must be a string")?;
                let text = read_model_path(path)?;
                hdoutlier_stream::model_io::from_json_text(&text)
                    .map_err(|e| format!("model_path {path}: {e}"))?
            }
            (Some(_), Some(_)) => return Err("give model or model_path, not both".into()),
            (None, None) => return Err("a model is required (model or model_path)".into()),
        };
        let number = |key: &str| -> Result<Option<f64>, String> {
            match body.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_number()
                    .map(Some)
                    .ok_or(format!("{key} must be a number")),
            }
        };
        let count = |key: &str, default: u64| -> Result<u64, String> {
            match number(key)? {
                None => Ok(default),
                Some(v) if v >= 1.0 && v.fract() == 0.0 => Ok(v as u64),
                Some(v) => Err(format!("{key} must be a positive integer, got {v}")),
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match body.get(key) {
                None => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("{key} must be a boolean")),
            }
        };
        let drift_every = match number("drift_every")? {
            None => None,
            Some(v) if v >= 1.0 && v.fract() == 0.0 => Some(v as u64),
            Some(v) => return Err(format!("drift_every must be a positive integer, got {v}")),
        };
        let policy = match body.get("on_error") {
            None => ErrorPolicy::Abort,
            Some(j) => ErrorPolicy::parse(j.as_str().ok_or("on_error must be a string")?)
                .map_err(|e| format!("on_error {e}"))?,
        };
        Ok(SessionConfig {
            id,
            model,
            options: SessionOptions {
                drift_alpha: number("drift_alpha")?,
                drift_every,
                batch: count("batch", 1)? as usize,
                outliers_only: flag("outliers_only")?,
                policy,
                max_consecutive: count("max_consecutive_errors", 100)?,
                checkpoint_every: count("checkpoint_every", 1000)?,
                threads: 1,
                checkpoint: None,
            },
            resume: flag("resume")?,
        })
    }
}

/// Why creating a session failed, mapped to an HTTP status by the router.
#[derive(Debug)]
pub enum CreateError {
    /// The configuration is invalid (`400`).
    Config(String),
    /// A checkpoint exists but does not fit the model (`409`).
    Resume(String),
    /// Filesystem failure reading state (`500`).
    Io(String),
}

impl std::fmt::Display for CreateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreateError::Config(m) | CreateError::Resume(m) | CreateError::Io(m) => {
                write!(f, "{m}")
            }
        }
    }
}

/// How one `score_lines` call ended.
pub struct ScoreOutcome {
    /// The NDJSON verdict stream (possibly partial when `tripped`).
    pub ndjson: String,
    /// Records scored by this call (metrics fodder).
    pub records: u64,
    /// Records this call flagged as outliers.
    pub outliers: u64,
    /// Bad records this call skipped or quarantined.
    pub errors: u64,
    /// Set when the abort policy or the breaker tripped mid-request; the
    /// session refuses further scoring until deleted.
    pub tripped: Option<String>,
    /// Set on an environmental failure (checkpoint write, quarantine
    /// append); the session stays usable.
    pub fatal: Option<String>,
}

/// What the replay cache knows about a request id.
pub enum ReplayLookup {
    /// Never seen (or evicted): score normally.
    Miss,
    /// Seen with the same body: return the cached response verbatim, do
    /// not touch the scorer.
    Hit {
        /// The original response status.
        status: u16,
        /// The original response body.
        body: String,
        /// Whether the original was a JSON error document (vs NDJSON
        /// verdicts).
        json_error: bool,
    },
    /// Seen with a *different* body: the client reused a request id for a
    /// new logical request — refuse rather than replay the wrong verdicts.
    Conflict,
}

/// One remembered score response.
struct ReplayEntry {
    request_id: String,
    body_hash: u64,
    status: u16,
    body: String,
    json_error: bool,
}

/// A bounded FIFO of recent score responses keyed on client-supplied
/// `X-Request-Id`, making score POSTs idempotent under retry: a client
/// that resends the same request id (after a timeout, a shed `503`, a torn
/// connection) gets the original verdict batch back instead of mutating
/// the scorer twice. Guarded by the session mutex, so a lookup is atomic
/// with the scoring it guards against.
struct ReplayCache {
    capacity: usize,
    entries: VecDeque<ReplayEntry>,
}

impl ReplayCache {
    fn new(capacity: usize) -> ReplayCache {
        ReplayCache {
            capacity,
            entries: VecDeque::new(),
        }
    }

    fn lookup(&self, request_id: &str, body: &str) -> ReplayLookup {
        let Some(entry) = self.entries.iter().find(|e| e.request_id == request_id) else {
            return ReplayLookup::Miss;
        };
        if entry.body_hash != fnv1a(body.as_bytes()) {
            return ReplayLookup::Conflict;
        }
        ReplayLookup::Hit {
            status: entry.status,
            body: entry.body.clone(),
            json_error: entry.json_error,
        }
    }

    fn store(
        &mut self,
        request_id: &str,
        body: &str,
        status: u16,
        response: &str,
        json_error: bool,
    ) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(ReplayEntry {
            request_id: request_id.to_string(),
            body_hash: fnv1a(body.as_bytes()),
            status,
            body: response.to_string(),
            json_error,
        });
    }
}

/// FNV-1a over bytes — fingerprints a request body so an id reused with
/// different records is detected instead of silently replayed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One live scoring session.
pub struct Session {
    id: String,
    core: ScoringSession,
    tripped: Option<String>,
    resumed: bool,
    replay: ReplayCache,
}

impl Session {
    /// Builds a session from validated config, restoring checkpointed state
    /// when `resume` is set and `<dir>/<id>.ckpt.json` (or its rotated
    /// `.prev` generation) exists. `threads` sizes the pool for batched
    /// scoring; `replay_capacity` bounds the per-session idempotency cache
    /// (`0` disables it).
    pub fn create(
        config: SessionConfig,
        checkpoint_dir: Option<&Path>,
        threads: usize,
        replay_capacity: usize,
    ) -> Result<Session, CreateError> {
        let SessionConfig {
            id,
            model,
            mut options,
            resume,
        } = config;
        let scorer = OnlineScorer::new(model)
            .map_err(|e| CreateError::Config(format!("model unusable for streaming: {e}")))?;
        options.threads = threads;
        options.checkpoint = checkpoint_dir.map(|d| d.join(format!("{id}.ckpt.json")));
        // The primary may be absent while a rotated generation exists (a
        // crash inside save_atomic's rename window) — recovery must still
        // run then.
        let resume_from = options.checkpoint.clone().filter(|p| {
            resume && (p.exists() || hdoutlier_stream::checkpoint::prev_path(p).exists())
        });
        // A resumed session's lines continue from the checkpointed counter,
        // so error verdicts number lines as one continuous run would.
        let (core, recovered) = ScoringSession::open(scorer, options, resume_from.as_deref())
            .map_err(|e| match e {
                OpenError::Io(m) => CreateError::Io(m),
                OpenError::Restore(m) => CreateError::Resume(m),
                OpenError::Drift(m) => CreateError::Config(m),
            })?;
        Ok(Session {
            id,
            core,
            tripped: None,
            resumed: recovered.is_some(),
            replay: ReplayCache::new(replay_capacity),
        })
    }

    /// The session identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Consults the idempotency cache for a client-supplied request id.
    pub fn replay_lookup(&self, request_id: &str, body: &str) -> ReplayLookup {
        self.replay.lookup(request_id, body)
    }

    /// Remembers a score response so a retry of `request_id` replays it.
    pub fn replay_store(
        &mut self,
        request_id: &str,
        body: &str,
        status: u16,
        response: &str,
        json_error: bool,
    ) {
        self.replay
            .store(request_id, body, status, response, json_error);
    }

    /// The trip reason, when the abort policy or breaker fired.
    pub fn tripped(&self) -> Option<&str> {
        self.tripped.as_deref()
    }

    /// Records scored over the session's lifetime (including resumed state).
    pub fn records_scored(&self) -> u64 {
        self.core.scorer().records_scored()
    }

    /// Scores one request body of NDJSON records (one JSON array of
    /// numbers/nulls per line; `null` is a missing value). Verdicts are
    /// appended to the outcome in arrival order — the same order, and the
    /// same bytes, as `hdoutlier stream` would write for these records.
    pub fn score_lines(&mut self, body: &str) -> ScoreOutcome {
        let core = &mut self.core;
        let n_dims = core.scorer().model().grid().n_dims();
        let records_before = core.scorer().records_scored();
        let outliers_before = core.scorer().outliers_flagged();
        let errors_before = core.skipped() + core.quarantined();
        let mut out = String::new();
        let run = body
            .lines()
            .try_for_each(|line| {
                core.next_line();
                if line.trim().is_empty() {
                    return Ok(());
                }
                core.feed(line, parse_record_line(line, n_dims), &mut out)
            })
            // Score any partial batch left at end-of-body so the response
            // is complete and state is consistent before it is sent.
            .and_then(|()| core.flush(&mut out));
        let (tripped, fatal) = match run {
            Ok(()) | Err(Stop::HungUp) => (None, None),
            Err(Stop::Tripped(trip)) => {
                let reason = trip.describe("max_consecutive_errors", "session tripped");
                self.tripped = Some(reason.clone());
                (Some(reason), None)
            }
            Err(Stop::Failed(reason)) => (None, Some(reason)),
        };
        let core = &self.core;
        ScoreOutcome {
            ndjson: out,
            records: core.scorer().records_scored() - records_before,
            outliers: core.scorer().outliers_flagged() - outliers_before,
            errors: core.skipped() + core.quarantined() - errors_before,
            tripped,
            fatal,
        }
    }

    /// Forces a checkpoint now, returning the path written.
    ///
    /// # Errors
    /// A message when no checkpoint directory is configured or the write
    /// fails.
    pub fn checkpoint_now(&self) -> Result<PathBuf, String> {
        let path = self
            .core
            .options()
            .checkpoint
            .clone()
            .ok_or("server has no checkpoint directory (--checkpoint-dir)")?;
        self.core.save_checkpoint()?;
        Ok(path)
    }

    /// Final checkpoint for drain/delete: a no-op `Ok(false)` when the
    /// server has no checkpoint directory.
    pub fn checkpoint_if_configured(&self) -> Result<bool, String> {
        self.core.save_checkpoint()
    }

    /// The session's status document (`GET /sessions/{id}`).
    ///
    /// # Errors
    /// [`JsonError`] on builder misuse (not reachable).
    pub fn status_json(&self) -> Result<Json, JsonError> {
        let scorer = self.core.scorer();
        let options = self.core.options();
        Json::object()
            .field("id", self.id.as_str())
            .field("records_scored", scorer.records_scored())
            .field("outliers", scorer.outliers_flagged())
            .field("skipped", self.core.skipped())
            .field("quarantined", self.core.quarantined())
            .field("line_no", self.core.line_no())
            .field(
                "tripped",
                self.tripped
                    .as_deref()
                    .map_or(Json::Null, |r| Json::String(r.to_string())),
            )
            .field("resumed", self.resumed)
            .field("batch", options.batch)
            .field("outliers_only", options.outliers_only)
            .field("on_error", options.policy.action())
            .field(
                "drift",
                Json::object()
                    .field("alpha", scorer.drift_alpha())
                    .field("check_every", scorer.check_every())
                    .field("records_observed", scorer.monitor().records_observed())?,
            )
            .field(
                "checkpoint",
                match &options.checkpoint {
                    None => Json::Null,
                    Some(path) => Json::object()
                        .field("path", path.display().to_string())
                        .field("every", options.checkpoint_every)?,
                },
            )
    }
}

/// Parses one NDJSON record line — a JSON array of `n_dims` numbers, with
/// `null` standing for a missing value (NaN), mirroring the CSV reader's
/// missing markers.
pub fn parse_record_line(line: &str, n_dims: usize) -> Result<Vec<f64>, String> {
    let json = Json::parse(line).map_err(|e| format!("malformed record: {e}"))?;
    let fields = json
        .as_array()
        .ok_or("record must be a JSON array of numbers")?;
    if fields.len() != n_dims {
        return Err(format!(
            "expected {n_dims} fields (the model's dimensionality), got {}",
            fields.len()
        ));
    }
    fields
        .iter()
        .map(|f| match f {
            Json::Null => Ok(f64::NAN),
            other => other
                .as_number()
                .ok_or_else(|| format!("record fields must be numbers or null, got {other:?}")),
        })
        .collect()
}
