//! End-to-end smoke test exercising the observability flags the way ci.sh
//! documents them: run `detect` with `--log-json --metrics-out` on a tiny
//! dataset and validate every produced artifact with the in-tree parser;
//! then check that every subcommand writes its telemetry files on error
//! exits as well.

use hdoutlier_cli::{exit, run};
use hdoutlier_json::Json;
use std::collections::HashMap;
use std::process::Command;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// A tiny dataset: a tight uniform cluster plus two planted outliers that
/// land in otherwise-empty grid cells.
fn tiny_csv(path: &std::path::Path) {
    let mut text = String::from("a,b,c\n");
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..120 {
        let (a, b, c) = (next(), next(), next());
        text.push_str(&format!("{a:.6},{b:.6},{c:.6}\n"));
    }
    text.push_str("25.0,25.0,0.5\n");
    text.push_str("-25.0,-25.0,0.5\n");
    std::fs::write(path, text).unwrap();
}

#[test]
fn detect_with_log_json_and_metrics_out_produces_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("hdoutlier-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let metrics = dir.join("metrics.ndjson");
    tiny_csv(&csv);

    let (code, out) = run(&argv(&[
        "detect",
        "--phi=4",
        "--k=2",
        "--m=4",
        "--search=brute",
        "--json",
        "--log-json",
        "--log-level",
        "info",
        "--metrics-out",
        metrics.to_str().unwrap(),
        csv.to_str().unwrap(),
    ]));
    assert_eq!(code, exit::OK, "{out}");

    // The report itself parses and embeds a metrics object.
    let report = Json::parse(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    assert!(report.get("projections").is_some());
    assert!(report.get("outlier_rows").is_some());
    let embedded = report
        .get("metrics")
        .expect("metrics embedded with --metrics-out");
    assert!(embedded.get("hdoutlier.core.search_us").is_some(), "{out}");

    // The snapshot file is NDJSON: one valid object per line, each carrying
    // a metric name and type, including the core pipeline phases.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert!(!snapshot.trim().is_empty());
    let mut names = Vec::new();
    for line in snapshot.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        let name = j.get("metric").and_then(Json::as_str).expect("metric name");
        assert!(j.get("type").is_some(), "{line}");
        names.push(name.to_string());
    }
    for expected in [
        "hdoutlier.core.discretize_us",
        "hdoutlier.core.index_us",
        "hdoutlier.core.search_us",
        "hdoutlier.core.postprocess_us",
        "hdoutlier.core.brute.candidates",
        "hdoutlier.core.brute.scored",
        "hdoutlier.core.brute.pruned_subtrees",
        "hdoutlier.core.brute.histogram_nodes",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} missing from {names:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Metric name → the `value` field (counters and gauges) of every line in
/// an NDJSON snapshot.
fn snapshot_values(snapshot: &str) -> HashMap<String, Option<f64>> {
    snapshot
        .lines()
        .map(|line| {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
            let name = j.get("metric").and_then(Json::as_str).expect("metric name");
            (name.to_string(), j.get("value").and_then(Json::as_number))
        })
        .collect()
}

/// The shipped binary installs the counting allocator, so its
/// `--metrics-out` snapshot must carry the allocator totals and, on Linux,
/// the `/proc` process vitals, both sampled at the final write, next to
/// the brute walker's work counters.
#[test]
fn binary_metrics_out_carries_alloc_process_and_brute_counters() {
    let dir = std::env::temp_dir().join(format!("hdoutlier-smoke-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let metrics = dir.join("metrics.ndjson");
    tiny_csv(&csv);

    let output = Command::new(env!("CARGO_BIN_EXE_hdoutlier"))
        .args(["detect", "--phi=4", "--k=2", "--m=4", "--search=brute"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg(&csv)
        .output()
        .expect("spawn hdoutlier");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let values = snapshot_values(&std::fs::read_to_string(&metrics).unwrap());
    let value = |name: &str| -> f64 {
        values
            .get(name)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("{name} missing from {:?}", values.keys()))
    };

    assert!(value("hdoutlier.alloc.allocations") > 0.0);
    assert!(value("hdoutlier.alloc.bytes_peak") > 0.0);
    if cfg!(target_os = "linux") {
        assert!(value("hdoutlier.process.rss_bytes") > 0.0);
        value("hdoutlier.process.cpu_user_ms");
        value("hdoutlier.process.cpu_sys_ms");
    }
    // C(3, 2)·4² = 48 cubes, every one accounted for; the rest are work
    // counters with no fixed value on this data.
    assert_eq!(value("hdoutlier.core.brute.candidates"), 48.0);
    assert!(value("hdoutlier.core.brute.scored") <= 48.0);
    value("hdoutlier.core.brute.pruned_subtrees");
    value("hdoutlier.core.brute.histogram_nodes");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every subcommand writes its `--metrics-out` snapshot and `--trace-out`
/// file on an error exit too, not only on success: one usage or runtime
/// error per command, each after the telemetry session opened, each in a
/// fresh process of the shipped binary.
#[test]
fn every_subcommand_writes_telemetry_on_error_exits() {
    let dir = std::env::temp_dir().join(format!("hdoutlier-smoke-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.csv");
    let missing = missing.to_str().unwrap();
    let missing_model = dir.join("missing.model.json");
    let missing_model = missing_model.to_str().unwrap();
    let cases: [(&str, &[&str], i32); 8] = [
        ("detect", &[missing], exit::RUNTIME),
        ("score", &["--model", missing_model, missing], exit::RUNTIME),
        ("stream", &["--model", missing_model], exit::RUNTIME),
        ("serve", &["--max-sessions", "0"], exit::USAGE),
        ("explain", &["--row", "0", missing], exit::RUNTIME),
        ("advise", &["--records", "0"], exit::USAGE),
        ("baseline", &["--method", "knn", missing], exit::RUNTIME),
        ("scenario", &["frobnicate"], exit::USAGE),
    ];
    for (command, args, expected) in cases {
        let metrics = dir.join(format!("{command}.metrics.ndjson"));
        let trace = dir.join(format!("{command}.trace.json"));
        let output = Command::new(env!("CARGO_BIN_EXE_hdoutlier"))
            .arg(command)
            .args(args)
            .arg("--metrics-out")
            .arg(&metrics)
            .arg("--trace-out")
            .arg(&trace)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn hdoutlier");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(expected), "{command}: {stderr}");

        let snapshot = std::fs::read_to_string(&metrics)
            .unwrap_or_else(|e| panic!("{command}: no metrics snapshot ({e}); {stderr}"));
        assert!(!snapshot.trim().is_empty(), "{command}: empty snapshot");
        for line in snapshot.lines() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("{command}: {e}\n{line}"));
            assert!(j.get("metric").and_then(Json::as_str).is_some(), "{line}");
        }
        let text = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{command}: no trace file ({e}); {stderr}"));
        let j = Json::parse(&text).unwrap_or_else(|e| panic!("{command}: {e}\n{text}"));
        assert!(j.get("traceEvents").is_some(), "{command}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
