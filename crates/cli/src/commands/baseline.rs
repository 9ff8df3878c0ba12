//! `hdoutlier baseline` — the distance-based comparators, for side-by-side
//! evaluation against the subspace detector.

use super::{emit_report, load_dataset, nonzero, CliError, Command};
use crate::args::Parsed;
use hdoutlier_baselines::{
    knorr_ng_outliers, lof::lof_top_n_threaded, ramaswamy_top_n_threaded, suggest_lambda, Metric,
};
use hdoutlier_data::clean::impute_mean;
use hdoutlier_json::{FieldChain, Json};
use std::io::Write;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier baseline — distance-based comparators

USAGE:
    hdoutlier baseline --method <m> [OPTIONS] <input.csv>

OPTIONS:
    --method <m>         knn | lof | knorr-ng | intensional (required)
    --k <n>              neighbors (knn: k-th NN, lof: MinPts,
                         knorr-ng/intensional: neighbor budget; default 1/10/5/2)
    --depth <n>          lattice depth (intensional; default 2)
    --top <n>            outliers to report (knn/lof; default 10)
    --lambda <d>         distance threshold (knorr-ng; default: 5th-percentile
                         pairwise distance)
    --metric <name>      euclidean | manhattan | chebyshev (default euclidean)
    --threads <n>        worker threads for the kNN/LOF scans (default:
                         available cores; identical ranking at any count)
    --impute             mean-impute missing values first
    --label-column <c>   strip column <c> before computing distances
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data
    --json               emit JSON
",
    values: &[
        "method",
        "k",
        "top",
        "lambda",
        "depth",
        "metric",
        "threads",
        "label-column",
        "delimiter",
    ],
    bools: &["json", "impute", "no-header"],
};

/// Ranks the CSV's records by the chosen comparator and writes the ranking.
pub fn body(parsed: &Parsed, sink: &mut impl Write) -> Result<(), CliError> {
    let method = parsed
        .get("method")
        .ok_or_else(|| CliError::Usage("--method is required".into()))?;
    let metric = match parsed.get("metric").unwrap_or("euclidean") {
        "euclidean" => Metric::Euclidean,
        "manhattan" => Metric::Manhattan,
        "chebyshev" => Metric::Chebyshev,
        other => {
            return Err(CliError::Usage(format!(
                "--metric must be euclidean|manhattan|chebyshev, got {other:?}"
            )))
        }
    };
    let top: usize = parsed.or("top", "integer", 10)?;
    let threads =
        nonzero(parsed, "threads", "must be >= 1")?.unwrap_or_else(hdoutlier_pool::default_threads);

    let mut dataset = load_dataset(parsed)?;
    if parsed.has("impute") {
        dataset = impute_mean(&dataset);
    }

    let rank_span =
        hdoutlier_obs::span(hdoutlier_obs::Level::Info, "hdoutlier.cli", "baseline_rank");
    let ranked: Result<Vec<(usize, f64)>, String> = match method {
        "knn" => {
            let k: usize = parsed.or("k", "integer", 1)?;
            ramaswamy_top_n_threaded(&dataset, k, top, metric, threads)
                .map(|v| v.into_iter().map(|o| (o.row, o.score)).collect())
                .map_err(|e| e.to_string())
        }
        "lof" => {
            let k: usize = parsed.or("k", "integer", 10)?;
            lof_top_n_threaded(&dataset, k, top, metric, threads).map_err(|e| e.to_string())
        }
        "knorr-ng" | "knorrng" => {
            let k: usize = parsed.or("k", "integer", 5)?;
            let lambda = match parsed.opt::<f64>("lambda", "number")? {
                Some(l) => Ok(l),
                None => suggest_lambda(&dataset, 0.05, metric).map_err(|e| e.to_string()),
            };
            lambda.and_then(|l| {
                knorr_ng_outliers(&dataset, k, l, metric)
                    .map(|rows| rows.into_iter().map(|r| (r, l)).collect())
                    .map_err(|e| e.to_string())
            })
        }
        "intensional" => {
            let k: usize = parsed.or("k", "integer", 2)?;
            let depth: usize = parsed.or("depth", "integer", 2)?;
            hdoutlier_baselines::intensional_outliers(
                &dataset,
                &hdoutlier_baselines::IntensionalConfig {
                    k,
                    max_depth: depth,
                    metric,
                    ..Default::default()
                },
            )
            .map(|result| {
                result
                    .outliers
                    .into_iter()
                    .map(|o| (o.row, o.subspace.len() as f64))
                    .collect()
            })
            .map_err(|e| e.to_string())
        }
        other => {
            return Err(CliError::Usage(format!(
                "--method must be knn|lof|knorr-ng|intensional, got {other:?}"
            )))
        }
    };

    drop(rank_span);
    let ranked = ranked.map_err(|e| CliError::Runtime(format!("baseline failed: {e}")))?;

    let rendered = if parsed.has("json") {
        let j = ranked
            .iter()
            .map(|&(row, score)| Json::object().field("row", row).field("score", score))
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                Json::object()
                    .field("method", method)
                    .field("outliers", Json::Array(items))
            })
            .map_err(|e| CliError::Runtime(format!("failed to render ranking: {e}")))?;
        j.pretty() + "\n"
    } else {
        let mut out = format!("{method}: {} outlier(s)\n", ranked.len());
        for (row, score) in &ranked {
            out.push_str(&format!("  row {row:>6}  score {score:.4}\n"));
        }
        out
    };
    emit_report(sink, &rendered)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{argv, planted_csv, run};
    use crate::exit;

    #[test]
    fn knn_baseline_runs() {
        let (path, _) = planted_csv("baseline-knn");
        let (code, out) = run(
            "baseline",
            &argv(&["--method", "knn", "--top", "5", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 6); // header + 5 rows
    }

    #[test]
    fn lof_and_knorr_ng_run() {
        let (path, _) = planted_csv("baseline-lof");
        let (code, out) = run(
            "baseline",
            &argv(&["--method=lof", "--k=5", "--top=3", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::OK, "{out}");
        let (code, out) = run(
            "baseline",
            &argv(&["--method=knorr-ng", "--k=2", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::OK, "{out}");
    }

    #[test]
    fn intensional_method_runs() {
        let (path, _) = planted_csv("baseline-intensional");
        let (code, out) = run(
            "baseline",
            &argv(&[
                "--method=intensional",
                "--k=2",
                "--depth=2",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.starts_with("intensional:"), "{out}");
    }

    #[test]
    fn json_output_and_metric_choice() {
        let (path, _) = planted_csv("baseline-json");
        let (code, out) = run(
            "baseline",
            &argv(&[
                "--method=knn",
                "--metric=manhattan",
                "--json",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"method\": \"knn\""));
        assert!(out.contains("\"row\""));
    }

    #[test]
    fn usage_errors() {
        let (code, out) = run("baseline", &argv(&["x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--method is required"));
        let (path, _) = planted_csv("baseline-err");
        let (code, out) = run(
            "baseline",
            &argv(&["--method=magic", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("knn|lof|knorr-ng|intensional"));
        let (code, out) = run(
            "baseline",
            &argv(&["--method=knn", "--metric=cosine", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("euclidean"));
    }

    #[test]
    fn missing_values_without_impute_is_a_runtime_error() {
        // Write a CSV with an explicit NaN cell.
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline-missing.csv");
        std::fs::write(&path, "a,b\n1,2\nNaN,4\n5,6\n7,8\n").unwrap();
        let (code, out) = run("baseline", &argv(&["--method=knn", path.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("missing"), "{out}");
        // With --impute it succeeds.
        let (code, _) = run(
            "baseline",
            &argv(&[
                "--method=knn",
                "--impute",
                "--top=2",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK);
    }
}
