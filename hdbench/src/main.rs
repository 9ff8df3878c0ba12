//! `hdbench`: the repository's benchmark. See `README.md` next to this
//! crate for the workloads, the metrics and how to run it.
//!
//! ```text
//! hdbench --bin <hdoutlier> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). The line before it records the host.

mod check;
mod e2e;
mod http;
mod inputs;
mod layers;
mod loadgen;
mod proc;
mod stats;

use hdoutlier_json::{FieldChain, Json};
use inputs::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

// Counting wrapper over the system allocator: the traced run reads exact
// allocation counts around the library calls it makes.
#[global_allocator]
static ALLOC: hdoutlier_obs::CountingAllocator = hdoutlier_obs::CountingAllocator;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hdbench --bin <hdoutlier> --workload <detect-brute|detect-evolve|\
stream-replay|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        bin: PathBuf::from(get("--bin")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The host a result was measured on, so a number is never compared across
/// machines unnoticed.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    // cgroup v2 `cpu.max`, else v1 `quota period` (a quota of -1: none).
    let quota = read("/sys/fs/cgroup/cpu.max")
        .or_else(|| {
            let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
            let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
            Some(format!("{quota} {period}"))
        })
        .unwrap_or_else(|| "unknown".into());
    Json::object()
        .field("nproc", nproc)
        .field("parallelism", spin_parallelism())
        .field("cpu", cpu)
        .field("cgroup_cpu_max", quota)
        .field("commit", git_commit())
        .map(|host| {
            Json::object()
                .field("host", host)
                .expect("an object takes fields")
                .render()
        })
        .expect("an object takes fields")
}

/// Effective parallelism: the same spin loop on one thread, then on two at
/// once; `2 × t1 / t2` is 2.0 on two free cores and 1.0 on one.
fn spin_parallelism() -> f64 {
    fn spin() -> std::time::Duration {
        let start = std::time::Instant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        start.elapsed()
    }
    let one = spin();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(spin);
        let b = s.spawn(spin);
        a.join().expect("spin thread");
        b.join().expect("spin thread");
    });
    2.0 * one.as_secs_f64() / start.elapsed().as_secs_f64()
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without history reports "unknown".
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            None => head,
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
        },
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.bin.is_file() {
        eprintln!("hdbench: no program at {}", args.bin.display());
        return ExitCode::from(2);
    }
    let host = host_record();
    let inputs = inputs::generate(args.workload, args.seed);
    let outcome = proc::WorkDir::create(args.workload.name())
        .map_err(|e| format!("work directory: {e}"))
        .and_then(|work| {
            if args.trace {
                layers::run(&args.bin, &inputs, args.seconds, &work)
            } else {
                e2e::run(&args.bin, &inputs, args.seconds, &work)
            }
        });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hdbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("hdbench: {} measured {}", m.name, m.value);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "hdbench: {} seed {} ({}): attempted {}, failed {}, error_rate {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{host}");
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
