//! The traced run: the workload's inputs walked through every layer's
//! public calls from this crate, each call timed (and, for the hot paths,
//! its allocations counted exactly), then the binary's own jobs timed so
//! the CLI's share is the remainder. Every per-layer metric is measured on
//! every workload, on that workload's data.

use crate::check;
use crate::e2e::{self, Server, Traffic, BULK_RECORDS, SCORE_PATH, SESSION_BATCH};
use crate::inputs::{Inputs, Search, Table, Workload, GA_SEED};
use crate::proc::{run_job, Feed, Sink, WorkDir};
use crate::stats::median;
use crate::{Metric, Outcome};
use hdoutlier_core::brute::{brute_force_search_incremental_parallel, BruteForceConfig};
use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::evolutionary::{evolutionary_search, EvolutionaryConfig};
use hdoutlier_core::report::SearchStats;
use hdoutlier_core::{FittedModel, OutlierReport, ScoredProjection, SparsityFitness};
use hdoutlier_data::csv::{read_path, CsvOptions};
use hdoutlier_data::{DiscretizeStrategy, Discretized, GridSpec};
use hdoutlier_evolve::SelectionScheme;
use hdoutlier_index::{BitmapCounter, CachedCounter, Cube, CubeCounter};
use hdoutlier_json::normalize::normalize_report;
use hdoutlier_net::Request;
use hdoutlier_obs as obs;
use hdoutlier_serve::{ServeApp, ServeConfig};
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::{Checkpoint, OnlineScorer};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Candidate budget of the traced brute-force call. The `detect-brute`
/// search (286,720 candidates) fits under it; on `detect-evolve`'s 100
/// dimensions it keeps the exhaustive walk to a bounded sample.
const BRUTE_CAP: u64 = 1 << 20;
/// `detect` jobs timed for `cli.detect_self_s`.
const DETECT_JOBS: usize = 3;
/// Checkpoint saves timed for `stream.checkpoint_ms`.
const CHECKPOINT_SAVES: usize = 20;
/// Requests timed through `ServeApp::handle` per lane.
const HANDLE_SMALL: usize = 2_000;
const HANDLE_BULK: usize = 100;
/// The GA's evolve-stage histograms, read after the traced GA call.
const EVOLVE_STAGES: [&str; 4] = ["selection", "crossover", "mutation", "evaluate"];

fn allocations() -> u64 {
    obs::alloc_stats().allocations
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A [`CubeCounter`] that counts the calls reaching the index.
struct CountingCounter<'a> {
    inner: &'a BitmapCounter,
    calls: &'a AtomicU64,
}

impl CubeCounter for CountingCounter<'_> {
    fn count(&self, cube: &Cube) -> usize {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.count(cube)
    }

    fn rows(&self, cube: &Cube) -> Vec<usize> {
        self.inner.rows(cube)
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_dims(&self) -> usize {
        self.inner.n_dims()
    }

    fn phi(&self) -> u32 {
        self.inner.phi()
    }
}

/// The GA configuration `hdoutlier detect --search evolutionary` runs.
fn ga_config(m: usize) -> EvolutionaryConfig {
    EvolutionaryConfig {
        m,
        population: 100,
        crossover: CrossoverKind::Optimized,
        p1: 0.15,
        p2: 0.15,
        selection: SelectionScheme::RankRoulette,
        convergence_threshold: 0.95,
        max_generations: 500,
        require_nonempty: true,
        track_internal_candidates: true,
        seed: GA_SEED,
        threads: 1,
    }
}

fn evolve_stage_sums_s() -> [f64; 4] {
    EVOLVE_STAGES.map(|stage| {
        obs::registry()
            .histogram(&format!("hdoutlier.evolve.{stage}_us"))
            .snapshot()
            .sum
            / 1e6
    })
}

fn stats(work: u64, generations: usize, completed: bool) -> SearchStats {
    SearchStats {
        work,
        generations,
        completed,
        elapsed: Duration::ZERO,
    }
}

/// What the detect walk hands the rest of the run.
struct DetectWalk {
    model: FittedModel,
    /// The scrubbed `detect --json` report the binary must print.
    expected: String,
    /// Library time of the workload's own `detect` job, traced.
    library_s: f64,
}

/// `detect`'s pipeline on the fit table, call by call, in the order the
/// binary makes them (it discretizes a second time for the explanations).
fn detect_walk(csv: &Path, inputs: &Inputs, out: &mut Vec<Metric>) -> Result<DetectWalk, String> {
    let p = inputs.params;
    let (dataset, read_s) = timed(|| read_path(csv, &CsvOptions::default()));
    let dataset = dataset.map_err(|e| e.to_string())?;
    let discretize = || Discretized::new(&dataset, p.phi, DiscretizeStrategy::EquiDepth);
    let (disc, disc_s) = timed(discretize);
    let disc = disc.map_err(|e| e.to_string())?;
    let (counter, index_s) = timed(|| BitmapCounter::new(&disc));

    let brute_config = BruteForceConfig {
        m: p.m,
        require_nonempty: true,
        max_candidates: Some(BRUTE_CAP),
    };
    let before = allocations();
    let (brute, brute_s) =
        timed(|| brute_force_search_incremental_parallel(&counter, p.k, &brute_config, 1));
    let brute_allocs = allocations() - before;

    let calls = AtomicU64::new(0);
    let cached = CachedCounter::new(CountingCounter {
        inner: &counter,
        calls: &calls,
    });
    let ga_fitness = SparsityFitness::new(&cached, p.k);
    let stages_before = evolve_stage_sums_s();
    obs::set_timing(true);
    let before = allocations();
    let (ga, ga_s) = timed(|| evolutionary_search(&ga_fitness, &ga_config(p.m)));
    let ga_allocs = allocations() - before;
    obs::set_timing(false);
    let stages_after = evolve_stage_sums_s();
    let (hits, misses) = cached.stats();

    let brute_fitness = SparsityFitness::new(&counter, p.k);
    let (report, search_s, post_s) = match p.search {
        Search::Brute => {
            let s = stats(brute.candidates, 0, brute.completed);
            let (r, t) =
                timed(|| OutlierReport::from_scored(brute.best.clone(), &brute_fitness, s));
            (r, brute_s, t)
        }
        Search::Evolutionary => {
            let s = stats(ga.evaluations, ga.generations, ga.converged);
            let (r, t) = timed(|| OutlierReport::from_scored(ga.best.clone(), &ga_fitness, s));
            (r, ga_s, t)
        }
    };
    let (_, disc2_s) = timed(discretize);
    let planted = &inputs.fit.planted;
    let found = planted
        .iter()
        .filter(|r| report.outlier_rows.binary_search(r).is_ok())
        .count();

    let candidates = brute.candidates as f64;
    let evaluations = ga.evaluations as f64;
    out.extend([
        Metric::new("data.csv_read_s", read_s, "s"),
        Metric::new("data.discretize_s", disc_s + disc2_s, "s"),
        Metric::new("index.build_s", index_s, "s"),
        Metric::new(
            "index.bytes",
            counter.index().memory_bytes() as f64,
            "bytes",
        ),
        Metric::new(
            "index.count_calls",
            calls.load(Ordering::Relaxed) as f64,
            "count",
        ),
        Metric::new(
            "index.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("core.brute_s", brute_s, "s"),
        Metric::new("core.brute_candidates", candidates, "count"),
        Metric::new(
            "core.brute_ns_per_candidate",
            brute_s * 1e9 / candidates,
            "ns",
        ),
        Metric::new(
            "core.brute_allocs_per_candidate",
            brute_allocs as f64 / candidates,
            "allocs",
        ),
        Metric::new("core.ga_s", ga_s, "s"),
        Metric::new("core.ga_evaluations", evaluations, "count"),
        Metric::new("core.ga_generations", ga.generations as f64, "count"),
        Metric::new(
            "core.ga_allocs_per_evaluation",
            ga_allocs as f64 / evaluations,
            "allocs",
        ),
        Metric::new("core.postprocess_s", post_s, "s"),
        Metric::new("core.recall", found as f64 / planted.len() as f64, "share"),
    ]);
    for ((stage, after), before) in EVOLVE_STAGES.iter().zip(stages_after).zip(stages_before) {
        out.push(Metric::new(
            format!("evolve.{stage}_s"),
            after - before,
            "s",
        ));
    }
    let expected = check::report_json(&report, &disc).map_err(|e| e.to_string())?;
    Ok(DetectWalk {
        expected: normalize_report(&expected).render(),
        model: FittedModel::new(GridSpec::from_discretized(&disc), report.projections),
        library_s: read_s + disc_s + index_s + search_s + post_s + disc2_s,
    })
}

/// The same job with no timers, no stage histograms and no counting
/// wrapper: the denominator of `obs.trace_overhead` on the detect
/// workloads.
fn detect_plain(csv: &Path, inputs: &Inputs) -> Result<f64, String> {
    let p = inputs.params;
    let start = Instant::now();
    let dataset = read_path(csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let disc = Discretized::new(&dataset, p.phi, DiscretizeStrategy::EquiDepth)
        .map_err(|e| e.to_string())?;
    let counter = BitmapCounter::new(&disc);
    let best: Vec<ScoredProjection> = match p.search {
        Search::Brute => {
            let config = BruteForceConfig {
                m: p.m,
                require_nonempty: true,
                max_candidates: Some(BRUTE_CAP),
            };
            let outcome = brute_force_search_incremental_parallel(&counter, p.k, &config, 1);
            let fitness = SparsityFitness::new(&counter, p.k);
            OutlierReport::from_scored(outcome.best, &fitness, stats(0, 0, true)).projections
        }
        Search::Evolutionary => {
            let cached = CachedCounter::new(counter);
            let fitness = SparsityFitness::new(&cached, p.k);
            let outcome = evolutionary_search(&fitness, &ga_config(p.m));
            OutlierReport::from_scored(outcome.best, &fitness, stats(0, 0, true)).projections
        }
    };
    black_box(best);
    black_box(Discretized::new(&dataset, p.phi, DiscretizeStrategy::EquiDepth).ok());
    Ok(start.elapsed().as_secs_f64())
}

/// What the stream walk hands the rest of the run.
struct StreamWalk {
    /// The NDJSON `hdoutlier stream` must print for the table.
    expected: Vec<u8>,
    /// Library time of a `stream` job over the table, traced.
    library_s: f64,
    /// Parse, score and render fused in one loop with no timers.
    plain_s: f64,
}

/// Records between `stream`'s default checkpoints.
const STREAM_CHECKPOINT_EVERY: usize = 1000;

fn stream_walk(
    model: &FittedModel,
    table: &Table,
    work: &WorkDir,
    out: &mut Vec<Metric>,
) -> Result<StreamWalk, String> {
    let err = |e: hdoutlier_data::DataError| e.to_string();
    let lines: Vec<&str> = table.data_lines().collect();
    let n = lines.len() as f64;
    let (rows, parse_s) = timed(|| {
        lines
            .iter()
            .map(|l| check::parse_csv_row(l, table.dims))
            .collect::<Result<Vec<_>, _>>()
    });
    let rows = rows?;

    let mut scorer = OnlineScorer::new(model.clone()).map_err(err)?;
    let mut drift_checks = 0u64;
    let before = allocations();
    let start = Instant::now();
    for row in &rows {
        let verdict = scorer.score_record(row).map_err(err)?;
        drift_checks += u64::from(verdict.drift.is_some());
        black_box(verdict);
    }
    let score_s = start.elapsed().as_secs_f64();
    let score_allocs = allocations() - before;

    let mut scorer = OnlineScorer::new(model.clone()).map_err(err)?;
    let mut verdicts = Vec::with_capacity(rows.len());
    for row in &rows {
        verdicts.push(scorer.score_record(row).map_err(err)?);
    }
    let mut expected = Vec::with_capacity(rows.len() * 64);
    let start = Instant::now();
    for verdict in &verdicts {
        let line = verdict_json(verdict, &scorer)
            .map_err(|e| e.to_string())?
            .render();
        expected.extend_from_slice(line.as_bytes());
        expected.push(b'\n');
    }
    let render_s = start.elapsed().as_secs_f64();

    let mut batch_scorer = OnlineScorer::new(model.clone()).map_err(err)?;
    let start = Instant::now();
    for chunk in rows.chunks(SESSION_BATCH) {
        for verdict in batch_scorer.score_batch(chunk, 1) {
            black_box(verdict.map_err(err)?);
        }
    }
    let batch_s = start.elapsed().as_secs_f64();

    let path = work.path("walk.ckpt");
    let mut saves = Vec::with_capacity(CHECKPOINT_SAVES);
    for _ in 0..CHECKPOINT_SAVES {
        let (saved, t) = timed(|| Checkpoint::capture(&scorer, 0, 0).save_atomic(&path));
        saved.map_err(|e| e.to_string())?;
        saves.push(t);
    }
    let checkpoint_s = median(&saves);
    let checkpoint_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    e2e::clear_checkpoint(&path);

    let mut plain = OnlineScorer::new(model.clone()).map_err(err)?;
    let start = Instant::now();
    for line in &lines {
        let row = check::parse_csv_row(line, table.dims)?;
        let verdict = plain.score_record(&row).map_err(err)?;
        black_box(
            verdict_json(&verdict, &plain)
                .map_err(|e| e.to_string())?
                .render(),
        );
    }
    let plain_s = start.elapsed().as_secs_f64();

    let checkpoints = (rows.len() / STREAM_CHECKPOINT_EVERY + 1) as f64;
    out.extend([
        Metric::new("data.line_parse_ns_per_row", parse_s * 1e9 / n, "ns"),
        Metric::new("stream.score_ns_per_record", score_s * 1e9 / n, "ns"),
        Metric::new(
            "stream.allocs_per_record",
            score_allocs as f64 / n,
            "allocs",
        ),
        Metric::new("stream.drift_checks", drift_checks as f64, "count"),
        Metric::new("stream.batch_score_ns_per_record", batch_s * 1e9 / n, "ns"),
        Metric::new("stream.checkpoint_ms", checkpoint_s * 1e3, "ms"),
        Metric::new("stream.checkpoint_bytes", checkpoint_bytes as f64, "bytes"),
        Metric::new("json.verdict_render_ns", render_s * 1e9 / n, "ns"),
    ]);
    Ok(StreamWalk {
        expected,
        library_s: parse_s + score_s + render_s + checkpoints * checkpoint_s,
        plain_s: plain_s + checkpoints * checkpoint_s,
    })
}

/// An in-process request, as the HTTP layer would hand it to the app.
fn request(path: &str, body: String, id: usize) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: None,
        headers: Vec::new(),
        body: body.into_bytes(),
        http1_0: false,
        request_id: format!("walk-{id}"),
    }
}

/// What the serve walk hands the rest of the run.
struct ServeWalk {
    small_us: f64,
    bulk_us: f64,
    /// Traced and untimed passes over the same requests.
    traced_s: f64,
    plain_s: f64,
}

fn serve_walk(
    model: &FittedModel,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<ServeWalk, String> {
    let lines: Vec<String> = table.data_lines().map(check::record_line).collect();
    let n = lines.len() as f64;
    let start = Instant::now();
    for line in &lines {
        black_box(hdoutlier_serve::session::parse_record_line(
            line, table.dims,
        )?);
    }
    let parse_s = start.elapsed().as_secs_f64();

    let model_json = hdoutlier_stream::model_io::to_json(model)
        .map_err(|e| e.to_string())?
        .render();
    let app = ServeApp::new(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let create = format!(r#"{{"id":"bench","batch":{SESSION_BATCH},"model":{model_json}}}"#);
    let status = app.handle(&request("/sessions", create, 0)).status;
    if status != 201 {
        return Err(format!("in-process session create answered {status}"));
    }
    let small: Vec<Request> = lines
        .iter()
        .cycle()
        .take(HANDLE_SMALL)
        .enumerate()
        .map(|(i, l)| request(SCORE_PATH, format!("{l}\n"), i + 1))
        .collect();
    let bulk: Vec<Request> = lines
        .chunks(BULK_RECORDS)
        .filter(|c| c.len() == BULK_RECORDS)
        .cycle()
        .take(HANDLE_BULK)
        .enumerate()
        .map(|(i, c)| request(SCORE_PATH, c.join("\n") + "\n", HANDLE_SMALL + i + 1))
        .collect();
    // Warm the session and the labeled-metric handles before counting.
    for r in small.iter().take(50).chain(bulk.iter().take(5)) {
        app.handle(r);
    }
    let timed_pass = |requests: &[Request]| -> Result<(Vec<f64>, u64), String> {
        let mut us = Vec::with_capacity(requests.len());
        let before = allocations();
        for r in requests {
            let start = Instant::now();
            let status = app.handle(r).status;
            us.push(start.elapsed().as_secs_f64() * 1e6);
            if status != 200 {
                return Err(format!("in-process score answered {status}"));
            }
        }
        Ok((us, allocations() - before))
    };
    let (small_us, small_allocs) = timed_pass(&small)?;
    let (bulk_us, bulk_allocs) = timed_pass(&bulk)?;
    let start = Instant::now();
    for r in small.iter().chain(&bulk) {
        black_box(app.handle(r));
    }
    let plain_s = start.elapsed().as_secs_f64();

    let per_request = small_allocs as f64 / small.len() as f64;
    let per_bulk = bulk_allocs as f64 / bulk.len() as f64;
    let walk = ServeWalk {
        small_us: median(&small_us),
        bulk_us: median(&bulk_us),
        traced_s: (small_us.iter().sum::<f64>() + bulk_us.iter().sum::<f64>()) / 1e6,
        plain_s,
    };
    out.extend([
        Metric::new("serve.parse_ns_per_record", parse_s * 1e9 / n, "ns"),
        Metric::new("serve.small.handle_us", walk.small_us, "us"),
        Metric::new("serve.bulk.handle_us", walk.bulk_us, "us"),
        Metric::new("serve.allocs_per_request", per_request, "allocs"),
        Metric::new(
            "serve.allocs_per_record",
            (per_bulk - per_request) / (BULK_RECORDS - 1) as f64,
            "allocs",
        ),
    ]);
    Ok(walk)
}

pub fn run(bin: &Path, inputs: &Inputs, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let fit_csv = work.path("fit.csv");
    std::fs::write(&fit_csv, &inputs.fit.csv).map_err(|e| e.to_string())?;

    let detect = detect_walk(&fit_csv, inputs, &mut out)?;
    let detect_plain_s = detect_plain(&fit_csv, inputs)?;
    let table = inputs.replay();
    let stream = stream_walk(&detect.model, table, work, &mut out)?;
    let serve = serve_walk(&detect.model, table, &mut out)?;

    // The binary's own jobs: the CLI's share is what the library calls
    // above do not account for.
    let log = work.path("job.err");
    let mut detect_s = Vec::new();
    for _ in 0..DETECT_JOBS {
        let args = inputs.params.cli_args(&fit_csv.to_string_lossy());
        let job = run_job(bin, &args, Feed::Nothing, Sink::Pipe, &log)
            .map_err(|e| format!("detect: {e}"))?;
        attempted += 1;
        failed +=
            u64::from(!(job.ok && check::detect_output_matches(&job.stdout, &detect.expected)));
        detect_s.push(job.total.as_secs_f64());
    }
    let model_path = work.path("model.json");
    let model_json =
        hdoutlier_stream::model_io::to_json(&detect.model).map_err(|e| e.to_string())?;
    std::fs::write(&model_path, model_json.pretty() + "\n").map_err(|e| e.to_string())?;
    let checkpoint = work.path("job.ckpt");
    e2e::clear_checkpoint(&checkpoint);
    let replay_csv = work.path("replay.csv");
    std::fs::write(&replay_csv, &table.csv).map_err(|e| e.to_string())?;
    let job = run_job(
        bin,
        &e2e::stream_args(&model_path, &checkpoint),
        Feed::File(&replay_csv),
        Sink::File(&work.path("verdicts.ndjson")),
        &log,
    )
    .map_err(|e| format!("stream: {e}"))?;
    attempted += 1;
    failed += u64::from(!(job.ok && job.stdout == stream.expected));
    let stream_s = job.total.as_secs_f64();
    let rows = table.rows as f64;
    out.extend([
        Metric::new(
            "cli.detect_self_s",
            median(&detect_s) - detect.library_s,
            "s",
        ),
        Metric::new(
            "cli.stream_self_ns_per_row",
            (stream_s - stream.library_s) * 1e9 / rows,
            "ns",
        ),
    ]);

    // The socket: the same traffic as `serve-mixed`, for as long as the
    // run, against a served copy of this workload's model.
    let server = Server::start(bin, &detect.model)?;
    let traffic = Traffic::build(table);
    let (small, bulk) = e2e::run_lanes(server.addr, &traffic, seconds);
    server.shutdown()?;
    let mixed = e2e::mixed_figures(&detect.model, table, &traffic, (&small, &bulk), seconds);
    attempted += mixed.attempted;
    failed += mixed.failed;
    out.extend([
        Metric::new("net.small.p50_ms", mixed.small_p50_ms, "ms"),
        Metric::new("net.small.p99_ms", mixed.small_p99_ms, "ms"),
        Metric::new("net.bulk.p50_ms", mixed.bulk_p50_ms, "ms"),
        Metric::new("net.bulk.p99_ms", mixed.bulk_p99_ms, "ms"),
        Metric::new("net.slo_share", mixed.slo_share, "share"),
        Metric::new(
            "net.small.overhead_us",
            mixed.small_p50_ms * 1e3 - serve.small_us,
            "us",
        ),
        Metric::new(
            "net.bulk.overhead_us",
            mixed.bulk_p50_ms * 1e3 - serve.bulk_us,
            "us",
        ),
        Metric::new(
            "net.reconnects",
            (small.reconnects + bulk.reconnects) as f64,
            "count",
        ),
        Metric::new(
            "net.retries_503",
            (small.retries_503 + bulk.retries_503) as f64,
            "count",
        ),
        Metric::new("gen.late_p99_ms", mixed.late_p99_ms, "ms"),
    ]);

    let overhead = match inputs.workload {
        Workload::DetectBrute | Workload::DetectEvolve => detect.library_s / detect_plain_s,
        Workload::StreamReplay => stream.library_s / stream.plain_s,
        Workload::ServeMixed => serve.traced_s / serve.plain_s,
    };
    out.push(Metric::new("obs.trace_overhead", overhead, "ratio"));
    Ok(Outcome {
        attempted,
        failed,
        metrics: out,
    })
}
