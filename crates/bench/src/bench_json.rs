//! Schema-stable benchmark datapoints (`BENCH_*.json`).
//!
//! Every invocation of `stream_throughput --bench-json` or `repro
//! --bench-json` appends one comparable datapoint to the repo's perf
//! trajectory: throughput per stage, latency percentiles, and enough
//! metadata (`git describe`, commit, timestamp) to place the number in
//! history. The schema is versioned (`hdoutlier-bench/1`) and the key
//! order is fixed, so trajectory diffs across PRs stay line-stable.
//!
//! The renderer is hand-rolled JSON with fixed spacing; every string in it
//! (the git strings included) goes through the workspace's one escaper,
//! [`hdoutlier_json::write_string`].

use hdoutlier_json::write_string;
use std::fmt::Write as _;
use std::process::Command;

/// One timed stage: `records` processed in `elapsed_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage label, e.g. `"scorer.score_record"` or `"end-to-end"`.
    pub name: String,
    /// Records pushed through the stage.
    pub records: u64,
    /// Wall-clock seconds for the whole stage.
    pub elapsed_s: f64,
}

/// A histogram summary carried into the datapoint (from
/// `hdoutlier_obs::HistogramSnapshot` or equivalent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Builder for one `BENCH_*.json` datapoint.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    bench: String,
    config: Vec<(String, f64)>,
    stages: Vec<Stage>,
    latency_us: Option<Percentiles>,
    phases_us: Vec<(String, Percentiles)>,
}

impl BenchReport {
    /// Starts a datapoint for the named bench (`"stream"`, `"detect"`).
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            ..Default::default()
        }
    }

    /// Records one numeric config knob (rows, dims, phi, …).
    pub fn config(&mut self, key: &str, value: f64) -> &mut Self {
        self.config.push((key.to_string(), value));
        self
    }

    /// Records one timed stage.
    pub fn stage(&mut self, name: &str, records: u64, elapsed_s: f64) -> &mut Self {
        self.stages.push(Stage {
            name: name.to_string(),
            records,
            elapsed_s,
        });
        self
    }

    /// Attaches the per-record latency percentiles (stream benches).
    pub fn latency_us(&mut self, p: Percentiles) -> &mut Self {
        self.latency_us = Some(p);
        self
    }

    /// Attaches one phase-duration histogram (detect benches:
    /// `discretize`, `index`, `search`, `postprocess`).
    pub fn phase_us(&mut self, name: &str, p: Percentiles) -> &mut Self {
        self.phases_us.push((name.to_string(), p));
        self
    }

    /// Renders the datapoint. Derived rates (`records_per_sec`,
    /// `us_per_record`) are computed here so every consumer sees the same
    /// arithmetic.
    pub fn to_json(&self) -> String {
        let (describe, commit) = git_metadata();
        let created = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"hdoutlier-bench/1\",\n");
        out.push_str("  \"bench\": ");
        write_string(&mut out, &self.bench);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"created_unix_s\": {created},");
        out.push_str("  \"git\": {");
        out.push_str("\"describe\": ");
        write_opt(&mut out, &describe);
        out.push_str(", \"commit\": ");
        write_opt(&mut out, &commit);
        out.push_str("},\n");
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_string(&mut out, k);
            let _ = write!(out, ": {}", num(*v));
        }
        out.push_str("},\n");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let per_sec = if s.elapsed_s > 0.0 {
                s.records as f64 / s.elapsed_s
            } else {
                0.0
            };
            let us_per = if s.records > 0 {
                s.elapsed_s * 1e6 / s.records as f64
            } else {
                0.0
            };
            out.push_str("    {\"name\": ");
            write_string(&mut out, &s.name);
            let _ = write!(
                out,
                ", \"records\": {}, \"elapsed_s\": {}, \
                 \"records_per_sec\": {}, \"us_per_record\": {}}}",
                s.records,
                num(s.elapsed_s),
                num(per_sec),
                num(us_per)
            );
            out.push_str(if i + 1 < self.stages.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        match &self.latency_us {
            Some(p) => {
                let _ = writeln!(out, "  \"latency_us\": {},", percentiles(p));
            }
            None => out.push_str("  \"latency_us\": null,\n"),
        }
        out.push_str("  \"phases_us\": {");
        for (i, (name, p)) in self.phases_us.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_string(&mut out, name);
            let _ = write!(out, ": {}", percentiles(p));
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes [`BenchReport::to_json`] to `path`.
    ///
    /// # Errors
    /// The underlying filesystem error, untouched.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn percentiles(p: &Percentiles) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        p.count,
        num(p.p50),
        num(p.p90),
        num(p.p99),
        num(p.max)
    )
}

/// JSON number formatting: finite shortest-round-trip, non-finite as null
/// (JSON has no Inf/NaN).
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// A JSON string, or `null` for `None`.
fn write_opt(out: &mut String, v: &Option<String>) {
    match v {
        Some(s) => write_string(out, s),
        None => out.push_str("null"),
    }
}

/// `git describe --always --dirty` and the full commit hash, when the bench
/// runs inside a git checkout (both `None` otherwise — the datapoint is
/// still valid, just unplaced).
pub fn git_metadata() -> (Option<String>, Option<String>) {
    let run = |args: &[&str]| -> Option<String> {
        let out = Command::new("git").args(args).output().ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        (!text.is_empty()).then_some(text)
    };
    (
        run(&["describe", "--always", "--dirty"]),
        run(&["rev-parse", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapoint_has_schema_rates_and_fixed_key_order() {
        let mut r = BenchReport::new("stream");
        r.config("n_rows", 1000.0)
            .config("n_dims", 10.0)
            .stage("score", 1000, 0.5)
            .latency_us(Percentiles {
                count: 1000,
                p50: 1.0,
                p90: 2.0,
                p99: 5.0,
                max: 9.5,
            });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"hdoutlier-bench/1\""), "{json}");
        assert!(json.contains("\"records_per_sec\": 2000"), "{json}");
        assert!(json.contains("\"us_per_record\": 500"), "{json}");
        assert!(json.contains("\"p99\": 5"), "{json}");
        // Key order is part of the schema contract.
        let order = [
            "\"schema\"",
            "\"bench\"",
            "\"created_unix_s\"",
            "\"git\"",
            "\"config\"",
            "\"stages\"",
            "\"latency_us\"",
            "\"phases_us\"",
        ];
        let positions: Vec<usize> = order.iter().map(|k| json.find(k).unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
    }

    #[test]
    fn detect_shape_carries_phase_histograms() {
        let mut r = BenchReport::new("detect");
        r.stage("detect", 5, 1.0).phase_us(
            "search",
            Percentiles {
                count: 5,
                p50: 100.0,
                p90: 200.0,
                p99: 200.0,
                max: 250.0,
            },
        );
        let json = r.to_json();
        assert!(
            json.contains("\"phases_us\": {\"search\": {\"count\": 5"),
            "{json}"
        );
        assert!(json.contains("\"latency_us\": null"), "{json}");
    }

    #[test]
    fn hostile_strings_are_escaped_and_zero_division_is_safe() {
        let mut r = BenchReport::new("a\"b\\c");
        r.stage("empty", 0, 0.0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("\"records_per_sec\": 0"), "{json}");
        assert!(json.contains("\"us_per_record\": 0"), "{json}");
    }
}
