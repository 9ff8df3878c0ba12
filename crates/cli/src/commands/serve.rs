//! `hdoutlier serve` — host many concurrent scoring sessions over HTTP.
//!
//! The long-running sibling of `stream`: instead of one model and one stdin
//! pipe, the server holds a registry of sessions, each with its own model,
//! drift monitor, error policy, and checkpoint cadence, and scores NDJSON
//! records POSTed to `/sessions/{id}/score`. All the machinery lives in
//! [`hdoutlier_serve`]; this command parses flags, binds, prints the
//! address banner, and waits for a drain request (SIGTERM, SIGINT, or
//! `POST /shutdown`) before draining gracefully.

use super::{nonzero, CliError, Command};
use crate::args::Parsed;
use hdoutlier_serve::{signal, ServeConfig, ServeHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier serve — a multi-session network scoring server

Hosts many concurrent scoring sessions over HTTP/1.1, each the serve-side
twin of one `hdoutlier stream` process: its own model, drift monitor,
error policy, and checkpoint cadence. Records go in as NDJSON (one JSON
array per line, null = missing value); verdicts come back as the same
NDJSON lines `stream` writes, byte for byte.

ROUTES:
    POST   /sessions                create a session (JSON config body)
    GET    /sessions                list sessions
    POST   /sessions/{id}/score     NDJSON records in, NDJSON verdicts out
    GET    /sessions/{id}           session status document
    POST   /sessions/{id}/checkpoint  force an atomic checkpoint now
    DELETE /sessions/{id}           final checkpoint, then remove
    POST   /shutdown                graceful drain (same as SIGTERM)
    GET    /status                  live SLO verdict per route and session
                                    (?format=text for the human rendering)
    GET    /metrics | /healthz | /snapshot   telemetry; /healthz answers
                                    503 while the SLO verdict is unhealthy

Every response carries an X-Request-Id header: the client's value when it
sent a well-formed one, a generated id otherwise. Events, trace spans, and
quarantine lines produced while handling the request carry the same id.

On SIGTERM/SIGINT or POST /shutdown the server stops accepting, finishes
in-flight requests, writes a final checkpoint for every session, and exits.

USAGE:
    hdoutlier serve [OPTIONS]

OPTIONS:
    --addr <a>           listen address (default 127.0.0.1:0; port 0 picks
                         an ephemeral port, echoed on stderr)
    --checkpoint-dir <d> directory for per-session checkpoint files
                         (<id>.ckpt.json, atomic temp+rename; also enables
                         resume on session create with \"resume\": true)
    --max-sessions <n>   refuse session creates beyond <n> live sessions
                         (default 16)
    --threads <n>        pool workers for each session's batched scoring
                         (default: available cores)
    --workers <n>        HTTP connection workers (default 4)
    --queue-depth <n>    accepted connections that may wait for a worker
                         before new ones get 503 (default 32)
    --max-body-bytes <n> request body cap; larger bodies get 413
                         (default 8388608)
    --slo-error-rate <f> tolerated error fraction per SLO key inside the
                         rolling window: 5xx responses per route, bad
                         records per session (default 0.05)
    --slo-p99-ms <ms>    tolerated per-route p99 request latency in
                         milliseconds (default 250)
    --request-deadline-ms <ms>  wall-clock budget for receiving a request
                         head and, separately, its body; a client that
                         trickles bytes past it gets 408 and the connection
                         closes (defaults: head 10000, body 30000)
    --no-slo-shed        do not shed score requests while the score route's
                         SLO verdict is unhealthy (shedding is on by default)
    --shed-max-inflight <n>  also shed score requests beyond <n> executing
                         concurrently (default 0 = no cap)
    --shed-retry-after-ms <ms>  Retry-After delay stamped on shed/draining
                         503 responses (default 1000)
    --replay-cache <n>   per-session idempotency cache entries: score
                         responses remembered by client-supplied
                         X-Request-Id so retries replay instead of
                         re-scoring (default 64; 0 disables)
",
    values: &[
        "addr",
        "checkpoint-dir",
        "max-sessions",
        "threads",
        "workers",
        "queue-depth",
        "max-body-bytes",
        "slo-error-rate",
        "slo-p99-ms",
        "request-deadline-ms",
        "shed-max-inflight",
        "shed-retry-after-ms",
        "replay-cache",
    ],
    bools: &["no-slo-shed"],
};

/// Poll cadence of the drain-flag wait loop.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// Validates the flags, binds, prints the address banner, calls `on_ready`
/// with the bound address (the in-process tests use it to learn the
/// ephemeral port; the binary passes a no-op), and blocks until drained.
pub fn body(parsed: &Parsed, on_ready: impl FnOnce(SocketAddr) + Send) -> Result<(), CliError> {
    let usage = CliError::Usage;
    if let Some(extra) = parsed.positional().first() {
        return Err(usage(format!("unexpected argument {extra:?}")));
    }
    let mut config = ServeConfig::default();
    if let Some(n) = nonzero(parsed, "max-sessions", "must be >= 1")? {
        config.max_sessions = n;
    }
    if let Some(n) = nonzero(parsed, "threads", "must be >= 1")? {
        config.threads = n;
    }
    if let Some(n) = nonzero(parsed, "workers", "must be >= 1")? {
        config.http.workers = n;
    }
    if let Some(n) = parsed.opt("queue-depth", "integer")? {
        config.http.queue_depth = n;
    }
    if let Some(n) = nonzero(parsed, "max-body-bytes", "must be >= 1")? {
        config.http.max_body_bytes = n;
    }
    match parsed.opt::<f64>("slo-error-rate", "number")? {
        Some(f) if (0.0..=1.0).contains(&f) => config.slo_error_rate = f,
        Some(f) => {
            return Err(usage(format!(
                "--slo-error-rate must be in [0, 1], got {f}"
            )))
        }
        None => {}
    }
    match parsed.opt::<f64>("slo-p99-ms", "number")? {
        Some(ms) if ms > 0.0 && ms.is_finite() => config.slo_p99_ms = ms,
        Some(ms) => {
            return Err(usage(format!(
                "--slo-p99-ms must be a positive number, got {ms}"
            )))
        }
        None => {}
    }
    if let Some(ms) = nonzero(parsed, "request-deadline-ms", "must be >= 1")? {
        config.http.head_deadline = Duration::from_millis(ms);
        config.http.body_deadline = Duration::from_millis(ms);
    }
    config.shed_on_unhealthy = !parsed.has("no-slo-shed");
    if let Some(n) = parsed.opt("shed-max-inflight", "integer")? {
        config.shed_max_inflight = n;
    }
    if let Some(ms) = parsed.opt("shed-retry-after-ms", "integer")? {
        config.shed_retry_after = Duration::from_millis(ms);
        // The net layer's own 503s (connection budget) advertise the same
        // back-off.
        config.http.retry_after = Duration::from_millis(ms);
    }
    if let Some(n) = parsed.opt("replay-cache", "integer")? {
        config.replay_cache = n;
    }
    if let Some(dir) = parsed.get("checkpoint-dir") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| {
            CliError::Runtime(format!(
                "cannot create checkpoint dir {}: {e}",
                dir.display()
            ))
        })?;
        config.checkpoint_dir = Some(dir);
    }
    let addr = parsed.get("addr").unwrap_or("127.0.0.1:0");

    signal::install_termination_flag();
    let handle = ServeHandle::bind(addr, config)
        .map_err(|e| CliError::Runtime(format!("cannot bind {addr}: {e}")))?;
    let local = handle.local_addr();
    // The banner is the contract with scripts and tests: the bound address
    // (port 0 resolves here) on stderr, before any request is served.
    eprintln!("serve: listening on http://{local} (drain with SIGTERM or POST /shutdown)");
    on_ready(local);

    while !signal::termination_requested() && !handle.app().shutdown_requested() {
        std::thread::sleep(WAIT_TICK);
    }

    let report = handle.drain();
    eprintln!(
        "serve: drained ({} sessions, {} checkpointed)",
        report.sessions, report.checkpointed
    );
    if report.errors.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "drain checkpoint failures:\n{}",
            report.errors.join("\n")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::argv;
    use super::*;
    use crate::exit;
    use std::io::{Read, Write};

    #[test]
    fn on_ready_sees_the_bound_address_and_shutdown_drains() {
        let (code, out) = COMMAND.run(&argv(&["--workers", "1"]), |parsed| {
            body(parsed, |addr| {
                let mut conn = std::net::TcpStream::connect(addr).expect("connect");
                conn.write_all(
                    b"POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\
                      Connection: close\r\n\r\n",
                )
                .expect("send");
                let mut response = String::new();
                conn.read_to_string(&mut response).expect("response");
                assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            })
        });
        assert_eq!(code, exit::OK, "{out}");
    }
}
