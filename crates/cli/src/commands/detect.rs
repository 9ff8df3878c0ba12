//! `hdoutlier detect` — run the subspace detector on a CSV file.

use super::{emit_report, load_dataset, nonzero, CliError, Command};
use crate::args::Parsed;
use crate::obs_setup;
use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::detector::{OutlierDetector, SearchMethod};
use hdoutlier_core::params::advise;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_json::{FieldChain, Json, JsonError};
use std::io::Write;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier detect — find outliers via sparse-projection search

USAGE:
    hdoutlier detect [OPTIONS] <input.csv>

OPTIONS:
    --phi <n>            grid ranges per dimension (default: auto, paper §2.4)
    --k <n>              projection dimensionality (default: auto, Eq. 2)
    --m <n>              projections to report (default 20)
    --threshold <s>      keep only projections with sparsity <= s
    --search <method>    brute | evolutionary (default evolutionary)
    --crossover <kind>   optimized | two-point (default optimized)
    --grid <strategy>    equi-depth | equi-width (default equi-depth)
    --seed <n>           RNG seed for the evolutionary search (default 0)
    --generations <n>    GA generation cap (default 500)
    --population <n>     GA population size (default 100)
    --threads <n>        worker threads for the search (default: available
                         cores; the report is identical at any thread count)
    --save-model <path>  persist the fitted grid + projections as JSON
    --label-column <c>   strip column <c> (name, or index with --no-header)
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data, not column names
    --json               emit a JSON report instead of text
    --quiet              print only the outlier row indices
",
    values: &[
        "phi",
        "k",
        "m",
        "threshold",
        "search",
        "crossover",
        "grid",
        "seed",
        "generations",
        "population",
        "threads",
        "label-column",
        "delimiter",
        "save-model",
        "serve-metrics",
    ],
    bools: &["json", "quiet", "no-header"],
};

/// Runs the search and writes the report.
pub fn body(parsed: &Parsed, sink: &mut impl Write) -> Result<(), CliError> {
    let runtime = CliError::Runtime;
    let phi: Option<u32> = parsed.opt("phi", "integer")?;
    let k: Option<usize> = parsed.opt("k", "integer")?;
    let m: usize = parsed.or("m", "integer", 20)?;
    let threshold: Option<f64> = parsed.opt("threshold", "number")?;
    let seed: u64 = parsed.or("seed", "integer", 0)?;
    let generations: usize = parsed.or("generations", "integer", 500)?;
    let population: usize = parsed.or("population", "integer", 100)?;
    let threads =
        nonzero(parsed, "threads", "must be >= 1")?.unwrap_or_else(hdoutlier_pool::default_threads);

    let search = match parsed.get("search").unwrap_or("evolutionary") {
        "brute" | "brute-force" => SearchMethod::BruteForce,
        "evolutionary" | "evolve" | "ga" => SearchMethod::Evolutionary,
        other => {
            return Err(CliError::Usage(format!(
                "--search must be brute|evolutionary, got {other:?}"
            )))
        }
    };
    let crossover = match parsed.get("crossover").unwrap_or("optimized") {
        "optimized" => CrossoverKind::Optimized,
        "two-point" | "twopoint" => CrossoverKind::TwoPoint,
        other => {
            return Err(CliError::Usage(format!(
                "--crossover must be optimized|two-point, got {other:?}"
            )))
        }
    };
    let strategy = match parsed.get("grid").unwrap_or("equi-depth") {
        "equi-depth" | "equidepth" => DiscretizeStrategy::EquiDepth,
        "equi-width" | "equiwidth" => DiscretizeStrategy::EquiWidth,
        other => {
            return Err(CliError::Usage(format!(
                "--grid must be equi-depth|equi-width, got {other:?}"
            )))
        }
    };

    let dataset = load_dataset(parsed)?;

    let mut builder = OutlierDetector::builder()
        .m(m)
        .seed(seed)
        .search(search)
        .crossover(crossover)
        .strategy(strategy)
        .max_generations(generations)
        .population(population)
        .threads(threads);
    if let Some(phi) = phi {
        builder = builder.phi(phi);
    }
    if let Some(k) = k {
        builder = builder.k(k);
    }
    if let Some(t) = threshold {
        builder = builder.sparsity_threshold(t);
    }
    let report = builder
        .build()
        .detect(&dataset)
        .map_err(|e| runtime(format!("detection failed: {e}")))?;

    // Rebuild the grid for explanations (cheap relative to the search).
    let effective_phi = phi.unwrap_or_else(|| advise(dataset.n_rows() as u64, -3.0).phi);
    let disc = Discretized::new(&dataset, effective_phi, strategy)
        .map_err(|e| runtime(format!("discretization failed: {e}")))?;

    if let Some(path) = parsed.get("save-model") {
        let model = hdoutlier_core::FittedModel::new(
            hdoutlier_data::GridSpec::from_discretized(&disc),
            report.projections.clone(),
        );
        let json = hdoutlier_stream::model_io::to_json(&model)
            .map_err(|e| runtime(format!("failed to serialize model: {e}")))?;
        std::fs::write(path, json.pretty() + "\n")
            .map_err(|e| runtime(format!("failed to write model {path}: {e}")))?;
    }

    let rendered = if parsed.has("quiet") {
        let rows: Vec<String> = report.outlier_rows.iter().map(usize::to_string).collect();
        rows.join("\n") + "\n"
    } else if parsed.has("json") {
        render_json(&report, &disc, parsed.get("metrics-out").is_some())
            .map_err(|e| runtime(format!("failed to render report: {e}")))?
            .pretty()
            + "\n"
    } else {
        render_text(&report, &disc)
    };
    emit_report(sink, &rendered)
}

fn render_text(report: &hdoutlier_core::OutlierReport, disc: &Discretized) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} sparse projection(s); {} outlier row(s); search: {} units of work in {}\n\n",
        report.projections.len(),
        report.outlier_rows.len(),
        report.stats.work,
        obs_setup::fmt_elapsed(report.stats.elapsed),
    ));
    for i in 0..report.projections.len() {
        out.push_str(&format!("{:>3}. {}\n", i + 1, report.explain(i, disc)));
        let rows = &report.rows_by_projection[i];
        out.push_str(&format!("     rows: {rows:?}\n"));
    }
    out.push_str(&format!("\noutliers: {:?}\n", report.outlier_rows));
    out
}

fn render_json(
    report: &hdoutlier_core::OutlierReport,
    disc: &Discretized,
    with_metrics: bool,
) -> Result<Json, JsonError> {
    let projections: Vec<Json> = report
        .projections
        .iter()
        .zip(&report.rows_by_projection)
        .enumerate()
        .map(|(i, (s, rows))| {
            Json::object()
                .field("projection", s.projection.to_string())
                .field("sparsity", s.sparsity)
                .field("significance", s.significance())
                .field("count", s.count)
                .field("explanation", report.explain(i, disc))
                .field("rows", rows.clone())
        })
        .collect::<Result<_, _>>()?;
    let mut json = Json::object()
        .field("projections", Json::Array(projections))
        .field("outlier_rows", report.outlier_rows.clone())
        .field(
            "stats",
            Json::object()
                .field("work", report.stats.work)
                .field("generations", report.stats.generations)
                .field("completed", report.stats.completed)
                .field("elapsed_ms", obs_setup::elapsed_ms(report.stats.elapsed))?,
        );
    if with_metrics {
        json = json.field("metrics", obs_setup::metrics_json()?);
    }
    json
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{argv, planted_csv, run};
    use crate::exit;

    #[test]
    fn detect_finds_planted_outliers_in_csv() {
        let (path, planted_rows) = planted_csv("detect-basic");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi",
                "4",
                "--k",
                "2",
                "--m",
                "6",
                "--search",
                "brute",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("sparse projection"));
        let hit = planted_rows.iter().any(|r| out.contains(&format!("{r}")));
        assert!(hit, "no planted row mentioned in:\n{out}");
    }

    #[test]
    fn quiet_mode_prints_only_indices() {
        let (path, _) = planted_csv("detect-quiet");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi",
                "4",
                "--k",
                "2",
                "--m",
                "4",
                "--search",
                "brute",
                "--quiet",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK);
        for line in out.lines() {
            assert!(line.parse::<usize>().is_ok(), "non-index line {line:?}");
        }
    }

    #[test]
    fn json_mode_emits_wellformed_structure() {
        let (path, _) = planted_csv("detect-json");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi=4",
                "--k=2",
                "--m=3",
                "--search=brute",
                "--json",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"projections\""));
        assert!(out.contains("\"outlier_rows\""));
        assert!(out.contains("\"sparsity\""));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn usage_errors() {
        let (code, out) = run("detect", &argv(&["--bogus", "x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("unknown option"));
        let (code, _) = run("detect", &argv(&["--help"]));
        assert_eq!(code, exit::OK);
        let (code, out) = run("detect", &argv(&["--search", "magic", "x.csv"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--search"));
        let (code, out) = run("detect", &argv(&[]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("missing input"));
    }

    #[test]
    fn runtime_error_on_missing_file() {
        let (code, out) = run("detect", &argv(&["/nonexistent/nope.csv"]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("failed to read"));
    }

    #[test]
    fn threshold_filters() {
        let (path, _) = planted_csv("detect-threshold");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi=4",
                "--k=2",
                "--m=20",
                "--search=brute",
                "--threshold=-1000",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK);
        assert!(out.contains("0 sparse projection(s)"), "{out}");
    }
}
