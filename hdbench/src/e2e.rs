//! The untraced run: the shipped binary driven from outside, timed end to
//! end, every output checked.

use crate::check::{self, SentLane};
use crate::http::{request_bytes, Conn};
use crate::inputs::{Inputs, Workload};
use crate::loadgen::{run_lane, Lane, LaneReport};
use crate::proc::{children_cpu, run_job, Feed, Job, Sink, WorkDir};
use crate::stats::{median, percentile, quartiles, windowed};
use crate::{Metric, Outcome};
use hdoutlier_core::FittedModel;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Cold `detect` jobs whose median is the detect workloads' `setup_s`.
const DETECT_SETUPS: usize = 3;
/// Server starts whose median is `serve-mixed`'s `setup_s`.
const SERVE_SETUPS: usize = 7;
/// One-record `stream` jobs whose median first verdict is
/// `stream-replay`'s `setup_s`.
const STREAM_SETUPS: usize = 7;
/// Fewest timed jobs a batch run makes, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// Equal slices of the run each request latency figure is taken over; the
/// run reports the median slice (see [`windowed`]).
const WINDOWS: usize = 5;

/// The `serve-mixed` traffic: two lanes on one session.
const SMALL_RATE: f64 = 1_000.0;
const SMALL_RECORDS: usize = 1;
const BULK_RATE: f64 = 250.0;
pub const BULK_RECORDS: usize = 200;
/// The latency limit `slo_share` counts against.
const LATENCY_LIMIT: Duration = Duration::from_millis(5);
/// Records per pooled scoring batch in the session.
pub const SESSION_BATCH: usize = 64;

pub fn run(bin: &Path, inputs: &Inputs, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    match inputs.workload {
        Workload::DetectBrute | Workload::DetectEvolve => detect(bin, inputs, seconds, work),
        Workload::StreamReplay => stream(bin, inputs, seconds, work),
        Workload::ServeMixed => serve(bin, inputs, seconds, work),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tallies jobs and reports a failed one's standard error.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str, log: &Path) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let err = std::fs::read_to_string(log).unwrap_or_default();
            eprintln!("hdbench: {what} failed the output check\n{err}");
        }
    }
}

/// Prints a figure the run measures but does not report as a metric,
/// because it does not repeat across runs on a shared host (see README).
fn note(name: &str, value: f64, unit: &str) {
    eprintln!("hdbench: {name} {value} {unit} (not gated)");
}

/// Runs `job` back to back until `seconds` have passed (and at least
/// [`MIN_JOBS`] times).
fn timed_loop(
    seconds: f64,
    mut job: impl FnMut() -> Result<Job, String>,
) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        jobs.push(job()?);
    }
    Ok(jobs)
}

/// The metrics of a batch workload, over the run's timed jobs.
fn batch_metrics(tally: &Tally, setup: &[f64], jobs: &[Job], rows: usize) -> Outcome {
    let wall: Vec<f64> = jobs.iter().map(|j| ms(j.total)).collect();
    let cpu: Vec<f64> = jobs.iter().map(|j| j.cpu.as_secs_f64()).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_mb).collect();
    let first: Vec<f64> = jobs.iter().map(|j| ms(j.first_byte)).collect();
    let [q1, q2, q3] = quartiles(&wall);
    note("job.q1_ms", q1, "ms");
    note("job.p50_ms", q2, "ms");
    note("job.q3_ms", q3, "ms");
    note("job.p99_ms", percentile(&wall, 99.0), "ms");
    note("first_output.p50_ms", median(&first), "ms");
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("setup_s", median(setup), "s"),
            Metric::new("rows_per_s", rows as f64 / (median(&wall) / 1e3), "rows/s"),
            Metric::new("cpu_us_per_row", median(&cpu) * 1e6 / rows as f64, "us"),
            Metric::new("peak_rss_mb", median(&rss), "MiB"),
        ],
    }
}

fn detect(bin: &Path, inputs: &Inputs, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let table = &inputs.fit;
    let (expected, outliers) = check::detect_expected(&table.csv, &inputs.params)?;
    let hits = table
        .planted
        .iter()
        .filter(|r| outliers.binary_search(r).is_ok())
        .count();
    // Share of planted outliers the output flags. On `detect-evolve` it
    // depends on which planted records the GA reaches for each data seed.
    note("recall", hits as f64 / table.planted.len() as f64, "share");
    let log = work.path("detect.err");
    let mut tally = Tally::default();
    let mut job = |csv: &PathBuf| -> Result<Job, String> {
        let args = inputs.params.cli_args(&csv.to_string_lossy());
        let job = run_job(bin, &args, Feed::Nothing, Sink::Pipe, &log)
            .map_err(|e| format!("detect: {e}"))?;
        let ok = job.ok && check::detect_output_matches(&job.stdout, &expected);
        tally.record(ok, "detect", &log);
        Ok(job)
    };
    // Each cold job reads a file the program has never seen.
    let mut setup = Vec::new();
    for i in 0..DETECT_SETUPS {
        let cold = work.path(&format!("cold-{i}.csv"));
        std::fs::write(&cold, &table.csv).map_err(|e| e.to_string())?;
        setup.push(job(&cold)?.total.as_secs_f64());
    }
    let csv = work.path("input.csv");
    std::fs::write(&csv, &table.csv).map_err(|e| e.to_string())?;
    let jobs = timed_loop(seconds, || job(&csv))?;
    Ok(batch_metrics(&tally, &setup, &jobs, table.rows))
}

/// Writes the model `detect --save-model` would write and returns it.
fn write_model(inputs: &Inputs, path: &Path) -> Result<FittedModel, String> {
    let model = check::fit_model(&inputs.fit, &inputs.params)?;
    let json = hdoutlier_stream::model_io::to_json(&model).map_err(|e| e.to_string())?;
    std::fs::write(path, json.pretty() + "\n").map_err(|e| e.to_string())?;
    Ok(model)
}

/// `hdoutlier stream` arguments: default drift and checkpoint cadence.
pub fn stream_args(model: &Path, checkpoint: &Path) -> Vec<String> {
    vec![
        "stream".into(),
        "--model".into(),
        model.to_string_lossy().into_owned(),
        "--checkpoint".into(),
        checkpoint.to_string_lossy().into_owned(),
    ]
}

/// Removes a checkpoint and its rotation siblings so every job starts the
/// same way.
pub fn clear_checkpoint(path: &Path) {
    for p in [
        path.to_path_buf(),
        hdoutlier_stream::checkpoint::prev_path(path),
        hdoutlier_stream::checkpoint::staging_path(path),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

fn stream(bin: &Path, inputs: &Inputs, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let table = inputs.replay();
    let model_path = work.path("model.json");
    let model = write_model(inputs, &model_path)?;
    let (expected, recall) = check::stream_expected(&model, table)?;
    note("recall", recall, "share");
    let input = work.path("replay.csv");
    std::fs::write(&input, &table.csv).map_err(|e| e.to_string())?;
    let output = work.path("verdicts.ndjson");
    let checkpoint = work.path("stream.ckpt");
    let log = work.path("stream.err");
    let args = stream_args(&model_path, &checkpoint);
    let mut tally = Tally::default();
    let mut run = |feed: Feed<'_>, sink: Sink<'_>, expected: &[u8]| -> Result<Job, String> {
        clear_checkpoint(&checkpoint);
        let job = run_job(bin, &args, feed, sink, &log).map_err(|e| format!("stream: {e}"))?;
        tally.record(job.ok && job.stdout == expected, "stream", &log);
        Ok(job)
    };
    // Set-up: the header and one record, timed to the first verdict.
    let head: String = table
        .csv
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .collect();
    let first_verdict = &expected[..=expected
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("the replay table has no rows")?];
    let mut setup = Vec::new();
    for _ in 0..STREAM_SETUPS {
        let job = run(Feed::Bytes(head.as_bytes()), Sink::Pipe, first_verdict)?;
        setup.push(job.first_byte.as_secs_f64());
    }
    let jobs = timed_loop(seconds, || {
        run(Feed::File(&input), Sink::File(&output), &expected)
    })?;
    Ok(batch_metrics(&tally, &setup, &jobs, table.rows))
}

/// A running `hdoutlier serve` with one session `bench`; dropping it
/// kills the process if [`Server::shutdown`] did not stop it.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime, so its drain message does not
    /// meet a closed pipe.
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Spawn to the session-created answer.
    pub setup: Duration,
}

pub const SCORE_PATH: &str = "/sessions/bench/score";

/// How long a drained server may take to exit.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Table rows the lanes draw their requests from, in rotation.
const TRAFFIC_ROWS: usize = 20_000;

impl Server {
    /// Spawns the server on an ephemeral loopback port and creates the
    /// session for `model`.
    pub fn start(bin: &Path, model: &FittedModel) -> Result<Server, String> {
        let model_json = hdoutlier_stream::model_io::to_json(model)
            .map_err(|e| e.to_string())?
            .render();
        let create = format!(r#"{{"id":"bench","batch":{SESSION_BATCH},"model":{model_json}}}"#);
        let create = request_bytes("POST", "/sessions", &create);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("serve: {e}"))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            stderr,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        server.addr = server.read_banner()?;
        let reply = Conn::connect(server.addr)
            .and_then(|mut conn| conn.send(&create))
            .map_err(|e| format!("session create: {e}"))?;
        if reply.status != 201 {
            return Err(format!("session create answered {}", reply.status));
        }
        server.setup = start.elapsed();
        Ok(server)
    }

    /// The bound address from the banner line the server prints on stderr
    /// before it serves anything.
    fn read_banner(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("serve stderr: {e}"))?;
            if n == 0 {
                return Err("serve exited before printing its address".into());
            }
            if let Some(rest) = line.strip_prefix("serve: listening on http://") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|e| format!("banner address {addr:?}: {e}"));
            }
        }
    }

    /// The server's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::proc::peak_rss_mb(self.child.id()).ok_or_else(|| "serve exited early".to_string())
    }

    /// Drains the server with `POST /shutdown` and waits for it to exit;
    /// one that has not exited within [`DRAIN_LIMIT`] is killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::connect(self.addr)
            .and_then(|mut conn| conn.send(&request_bytes("POST", "/shutdown", "")))
            .map_err(|e| format!("shutdown: {e}"))?;
        let asked = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if asked.elapsed() > DRAIN_LIMIT {
                return Err(format!(
                    "serve did not exit within {DRAIN_LIMIT:?} of /shutdown"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if reply.status != 200 || !status.success() {
            return Err(format!(
                "serve shutdown answered {} and exited with {status}",
                reply.status
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The two lanes' prebuilt requests and the table rows each one carries.
pub struct Traffic {
    pub small: Vec<Vec<u8>>,
    pub small_rows: Vec<Vec<usize>>,
    pub bulk: Vec<Vec<u8>>,
    pub bulk_rows: Vec<Vec<usize>>,
}

impl Traffic {
    pub fn build(table: &crate::inputs::Table) -> Traffic {
        let lines: Vec<String> = table
            .data_lines()
            .take(TRAFFIC_ROWS)
            .map(check::record_line)
            .collect();
        let requests = |per: usize| {
            let rows: Vec<Vec<usize>> = (0..lines.len() / per)
                .map(|r| (r * per..(r + 1) * per).collect())
                .collect();
            let wire = rows
                .iter()
                .map(|rows| {
                    let body: String = rows.iter().map(|&i| lines[i].clone() + "\n").collect();
                    request_bytes("POST", SCORE_PATH, &body)
                })
                .collect();
            (wire, rows)
        };
        let (small, small_rows) = requests(SMALL_RECORDS);
        let (bulk, bulk_rows) = requests(BULK_RECORDS);
        Traffic {
            small,
            small_rows,
            bulk,
            bulk_rows,
        }
    }
}

/// Both lanes against `addr` for `seconds`: small on this thread, bulk on
/// one more, so the load takes two threads and two connections.
pub fn run_lanes(addr: SocketAddr, traffic: &Traffic, seconds: f64) -> (LaneReport, LaneReport) {
    let small = Lane {
        rate: SMALL_RATE,
        requests: &traffic.small,
        count: (SMALL_RATE * seconds).round() as usize,
    };
    let bulk = Lane {
        rate: BULK_RATE,
        requests: &traffic.bulk,
        count: (BULK_RATE * seconds).round() as usize,
    };
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let bulk = scope.spawn(|| run_lane(addr, &bulk, start));
        let small = run_lane(addr, &small, start);
        (small, bulk.join().expect("bulk lane does not panic"))
    })
}

/// What the two lanes of a mixed run measured, after the output check.
pub struct Mixed {
    pub attempted: u64,
    pub failed: u64,
    /// Records answered with a `200` that passed the check.
    pub records: usize,
    /// From the start of the schedule to the last checked answer.
    pub span: Duration,
    /// Requests answered correctly within [`LATENCY_LIMIT`], per request
    /// scheduled.
    pub slo_share: f64,
    pub small_p50_ms: f64,
    pub small_p99_ms: f64,
    pub bulk_p50_ms: f64,
    pub bulk_p99_ms: f64,
    /// The generator's own lateness, p99 over both lanes (see
    /// [`crate::loadgen::Sample::late`]).
    pub late_p99_ms: f64,
    pub recall: f64,
}

/// Generator lateness past which the host, not the server, set the tail:
/// half the latency limit.
const LATE_LIMIT_MS: f64 = 2.5;

/// Checks every answer of a mixed run and summarizes the lanes.
pub fn mixed_figures(
    model: &FittedModel,
    table: &crate::inputs::Table,
    traffic: &Traffic,
    (small, bulk): (&LaneReport, &LaneReport),
    seconds: f64,
) -> Mixed {
    let lanes = [
        SentLane {
            rows_per_request: &traffic.small_rows,
            report: small,
        },
        SentLane {
            rows_per_request: &traffic.bulk_rows,
            report: bulk,
        },
    ];
    let check = check::verify_serve(model, table, &lanes);
    let (mut attempted, mut failed, mut records, mut within_limit) = (0u64, 0u64, 0usize, 0u64);
    let mut span = Duration::ZERO;
    let mut latencies: Vec<Vec<(f64, f64)>> = Vec::new();
    for ((lane, failures), rate) in lanes.iter().zip(&check.failed).zip([SMALL_RATE, BULK_RATE]) {
        let mut lat = Vec::with_capacity(failures.len());
        for (i, (sample, &bad)) in lane.report.samples.iter().zip(failures).enumerate() {
            let due = i as f64 / rate;
            lat.push((due, ms(sample.latency)));
            attempted += 1;
            if bad {
                failed += 1;
                continue;
            }
            records += lane.rows_per_request[sample.request].len();
            within_limit += u64::from(sample.latency <= LATENCY_LIMIT);
            span = span.max(Duration::from_secs_f64(due) + sample.latency);
        }
        latencies.push(lat);
    }
    let lane = |i: usize, p| windowed(&latencies[i], seconds, WINDOWS, p);
    let late_ms: Vec<f64> = small
        .samples
        .iter()
        .chain(&bulk.samples)
        .map(|s| ms(s.late))
        .collect();
    let late_p99_ms = percentile(&late_ms, 99.0);
    if late_p99_ms > LATE_LIMIT_MS {
        eprintln!(
            "hdbench: the load generator ran {late_p99_ms:.2} ms late at p99 (limit \
             {LATE_LIMIT_MS} ms): the host, not the server, set this run's latency tail"
        );
    }
    Mixed {
        attempted,
        failed,
        records,
        span,
        slo_share: within_limit as f64 / attempted as f64,
        small_p50_ms: lane(0, 50.0),
        small_p99_ms: lane(0, 99.0),
        bulk_p50_ms: lane(1, 50.0),
        bulk_p99_ms: lane(1, 99.0),
        late_p99_ms,
        recall: check.recall,
    }
}

fn serve(bin: &Path, inputs: &Inputs, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let table = inputs.replay();
    let model = write_model(inputs, &work.path("model.json"))?;
    let traffic = Traffic::build(table);
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SERVE_SETUPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let s = Server::start(bin, &model)?;
        setup.push(s.setup.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let cpu_before = children_cpu();
    let (small, bulk) = run_lanes(server.addr, &traffic, seconds);
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;
    let server_cpu = children_cpu() - cpu_before;

    let mixed = mixed_figures(&model, table, &traffic, (&small, &bulk), seconds);
    if mixed.failed > 0 {
        eprintln!(
            "hdbench: {} of {} serve requests failed the output check",
            mixed.failed, mixed.attempted
        );
    }
    note("small.p50_ms", mixed.small_p50_ms, "ms");
    note("small.p99_ms", mixed.small_p99_ms, "ms");
    note("bulk.p50_ms", mixed.bulk_p50_ms, "ms");
    note("bulk.p99_ms", mixed.bulk_p99_ms, "ms");
    note("slo_share", mixed.slo_share, "share");
    note("gen.late_p99_ms", mixed.late_p99_ms, "ms");
    note("recall", mixed.recall, "share");
    Ok(Outcome {
        attempted: mixed.attempted,
        failed: mixed.failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new(
                "rows_per_s",
                mixed.records as f64 / mixed.span.as_secs_f64(),
                "rows/s",
            ),
            Metric::new(
                "cpu_us_per_row",
                server_cpu.as_secs_f64() * 1e6 / mixed.records as f64,
                "us",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    })
}
