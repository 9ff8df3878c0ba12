//! `hdoutlier explain` — drill into one record: in which subspace views is
//! it abnormal?

use super::{emit_report, load_dataset, nonzero, CliError, Command};
use crate::args::Parsed;
use hdoutlier_core::drill::record_profile_threaded;
use hdoutlier_core::params::advise;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_index::BitmapCounter;
use hdoutlier_json::{FieldChain, Json};
use std::io::Write;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier explain — rank every subspace view of one record by abnormality

USAGE:
    hdoutlier explain --row <n> [OPTIONS] <input.csv>

OPTIONS:
    --row <n>            record to profile (required, 0-based)
    --phi <n>            grid ranges per dimension (default: auto)
    --k <list>           view dimensionalities, comma separated (default 1,2)
    --top <n>            views to print (default 10)
    --threads <n>        worker threads for the view scoring (default:
                         available cores; identical output at any count)
    --label-column <c>   strip column <c> first
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data
    --json               emit JSON
",
    values: &[
        "row",
        "phi",
        "k",
        "top",
        "threads",
        "label-column",
        "delimiter",
    ],
    bools: &["json", "no-header"],
};

/// Profiles one record and writes its most abnormal views.
pub fn body(parsed: &Parsed, sink: &mut impl Write) -> Result<(), CliError> {
    let runtime = CliError::Runtime;
    let row: usize = parsed.required("row", "integer")?;
    let top: usize = parsed.or("top", "integer", 10)?;
    let threads =
        nonzero(parsed, "threads", "must be >= 1")?.unwrap_or_else(hdoutlier_pool::default_threads);
    let ks: Vec<usize> = match parsed.get("k") {
        None => vec![1, 2],
        Some(raw) => raw
            .split(',')
            .map(|p| p.trim().parse())
            .collect::<Result<Vec<usize>, _>>()
            .ok()
            .filter(|ks| !ks.is_empty())
            .ok_or_else(|| {
                CliError::Usage("--k must be a comma-separated list of integers".into())
            })?,
    };

    let dataset = load_dataset(parsed)?;
    if row >= dataset.n_rows() {
        return Err(runtime(format!(
            "row {row} out of bounds ({} records)",
            dataset.n_rows()
        )));
    }
    let phi = match parsed.opt::<u32>("phi", "integer")? {
        Some(p) => p,
        None => advise(dataset.n_rows() as u64, -3.0).phi,
    };
    let disc = Discretized::new(&dataset, phi, DiscretizeStrategy::EquiDepth)
        .map_err(|e| runtime(format!("discretization failed: {e}")))?;
    let present = disc
        .row(row)
        .iter()
        .filter(|&&c| c != hdoutlier_data::discretize::MISSING_CELL)
        .count();
    if let Some(&bad) = ks.iter().find(|&&k| k == 0 || k > present) {
        return Err(runtime(format!(
            "k = {bad} out of range: record {row} has {present} present attributes"
        )));
    }
    let counter = BitmapCounter::new(&disc);
    let profile = {
        let _span = hdoutlier_obs::span(
            hdoutlier_obs::Level::Info,
            "hdoutlier.cli",
            "record_profile",
        );
        record_profile_threaded(&counter, &disc, row, &ks, threads)
    };

    let rendered = if parsed.has("json") {
        let j = profile
            .iter()
            .take(top)
            .map(|v| {
                Json::object()
                    .field(
                        "dims",
                        v.cube
                            .dims()
                            .iter()
                            .map(|&d| d as usize)
                            .collect::<Vec<_>>(),
                    )
                    .field("count", v.count)
                    .field("sparsity", v.sparsity)
                    .field("exact_significance", v.exact_significance)
            })
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                Json::object()
                    .field("row", row)
                    .field("views_total", profile.len())
                    .field("views", Json::Array(items))
            })
            .map_err(|e| runtime(format!("failed to render profile: {e}")))?;
        j.pretty() + "\n"
    } else {
        let mut out = format!(
            "record {row}: {} views across k = {ks:?}, most abnormal first\n\n",
            profile.len()
        );
        for v in profile.iter().take(top) {
            let dims: Vec<String> = v
                .cube
                .dims()
                .iter()
                .map(|&d| disc.name(d as usize).to_string())
                .collect();
            out.push_str(&format!(
                "  [{}]  count {:>4}  S = {:>7.2}  exact P = {:.3e}\n",
                dims.join(", "),
                v.count,
                v.sparsity,
                v.exact_significance
            ));
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
    fn profiles_a_planted_outlier() {
        let (path, planted_rows) = planted_csv("explain-basic");
        let row = planted_rows[0].to_string();
        let (code, out) = run(
            "explain",
            &argv(&[
                "--row",
                &row,
                "--phi=4",
                "--k=2",
                "--top=3",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("most abnormal first"), "{out}");
        // Top view should be strongly negative for a planted contrarian.
        assert!(out.contains("S = "), "{out}");
    }

    #[test]
    fn json_output() {
        let (path, _) = planted_csv("explain-json");
        let (code, out) = run(
            "explain",
            &argv(&[
                "--row=0",
                "--phi=4",
                "--k=1,2",
                "--json",
                path.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("\"views_total\": 21")); // C(6,1)+C(6,2)
        assert!(out.contains("\"exact_significance\""));
    }

    #[test]
    fn errors() {
        let (path, _) = planted_csv("explain-errors");
        let (code, out) = run("explain", &argv(&[path.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--row"));
        let (code, out) = run("explain", &argv(&["--row=99999", path.to_str().unwrap()]));
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("out of bounds"));
        let (code, out) = run(
            "explain",
            &argv(&["--row=0", "--k=0", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("out of range"));
        let (code, out) = run(
            "explain",
            &argv(&["--row=0", "--k=a,b", path.to_str().unwrap()]),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("comma-separated"));
    }
}
