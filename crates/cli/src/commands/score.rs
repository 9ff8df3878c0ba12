//! `hdoutlier score` — score new records against a saved model, without the
//! training data.

use super::{emit_report, load_dataset, CliError, Command};
use crate::args::Parsed;
use crate::obs_setup;
use hdoutlier_json::{FieldChain, Json};
use std::io::Write;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier score — score records against a model saved by `detect --save-model`

USAGE:
    hdoutlier score --model <model.json> [OPTIONS] <input.csv>

OPTIONS:
    --model <path>       model file (required)
    --label-column <c>   strip column <c> before scoring
    --delimiter <c>      field separator (default ',')
    --no-header          first row is data
    --json               emit JSON
    --all                print every record (default: only outliers)
",
    values: &["model", "label-column", "delimiter"],
    bools: &["json", "all", "no-header"],
};

/// Scores the CSV's records against the saved model.
pub fn body(parsed: &Parsed, sink: &mut impl Write) -> Result<(), CliError> {
    let runtime = CliError::Runtime;
    let model_path = parsed
        .get("model")
        .ok_or_else(|| CliError::Usage("--model is required".into()))?;
    let text = std::fs::read_to_string(model_path)
        .map_err(|e| runtime(format!("failed to read {model_path}: {e}")))?;
    let model = hdoutlier_stream::model_io::from_json_text(&text)
        .map_err(|e| runtime(format!("failed to load model: {e}")))?;
    let dataset = load_dataset(parsed)?;
    if dataset.n_dims() != model.grid().n_dims() {
        return Err(runtime(format!(
            "data has {} attributes but the model was fitted on {}",
            dataset.n_dims(),
            model.grid().n_dims()
        )));
    }

    let scores = model
        .score_dataset(&dataset)
        .map_err(|e| runtime(format!("scoring failed: {e}")))?;
    let show_all = parsed.has("all");
    let out = if parsed.has("json") {
        let j = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| show_all || s.is_some())
            .map(|(row, s)| {
                Json::object()
                    .field("row", row)
                    .field("score", s.map_or(Json::Null, Json::Number))
            })
            .collect::<Result<Vec<Json>, _>>()
            .and_then(|items| {
                let mut j = Json::object()
                    .field("records", dataset.n_rows())
                    .field("outliers", scores.iter().filter(|s| s.is_some()).count())
                    .field("scored", Json::Array(items));
                if parsed.get("metrics-out").is_some() {
                    j = j.field("metrics", obs_setup::metrics_json()?);
                }
                j
            })
            .map_err(|e| runtime(format!("failed to render scores: {e}")))?;
        j.pretty() + "\n"
    } else {
        let mut out = format!(
            "{} of {} records match an abnormal projection\n",
            scores.iter().filter(|s| s.is_some()).count(),
            dataset.n_rows()
        );
        for (row, s) in scores.iter().enumerate() {
            match s {
                Some(score) => out.push_str(&format!("  row {row:>6}  S = {score:.3}\n")),
                None if show_all => out.push_str(&format!("  row {row:>6}  -\n")),
                None => {}
            }
        }
        out
    };
    emit_report(sink, &out)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{argv, planted_csv, run};
    use crate::exit;

    fn save_model(name: &str) -> (std::path::PathBuf, std::path::PathBuf, Vec<usize>) {
        let (csv, planted_rows) = planted_csv(name);
        let model_path = csv.with_extension("model.json");
        let (code, out) = run(
            "detect",
            &argv(&[
                "--phi=4",
                "--k=2",
                "--m=6",
                "--search=brute",
                "--save-model",
                model_path.to_str().unwrap(),
                csv.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        (csv, model_path, planted_rows)
    }

    #[test]
    fn save_then_score_round_trip() {
        let (csv, model_path, planted_rows) = save_model("score-roundtrip");
        let (code, out) = run(
            "score",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                csv.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("match an abnormal projection"));
        // At least one planted row is flagged by the reloaded model.
        let hit = planted_rows
            .iter()
            .any(|r| out.contains(&format!("row {r:>6}")));
        assert!(hit, "{out}");
    }

    #[test]
    fn json_output_counts_match() {
        let (csv, model_path, _) = save_model("score-json");
        let (code, out) = run(
            "score",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--json",
                csv.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("\"outliers\""));
        assert!(out.contains("\"records\": 400"));
    }

    #[test]
    fn errors() {
        let (csv, model_path, _) = save_model("score-errors");
        let (code, out) = run("score", &argv(&[csv.to_str().unwrap()]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--model is required"));
        let (code, _) = run(
            "score",
            &argv(&["--model", "/nope.json", csv.to_str().unwrap()]),
        );
        assert_eq!(code, exit::RUNTIME);
        // Model file that is not a model.
        let junk = csv.with_extension("junk.json");
        std::fs::write(&junk, "{\"format\": 1}").unwrap();
        let (code, out) = run(
            "score",
            &argv(&["--model", junk.to_str().unwrap(), csv.to_str().unwrap()]),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("failed to load model"));
        // Dimensionality mismatch.
        let narrow = csv.with_extension("narrow.csv");
        std::fs::write(&narrow, "a,b\n1,2\n3,4\n").unwrap();
        let (code, out) = run(
            "score",
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                narrow.to_str().unwrap(),
            ]),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("fitted on"));
    }
}
