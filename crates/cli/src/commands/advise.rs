//! `hdoutlier advise` — the §2.4 parameter advisor.

use super::{emit_report, load_dataset, CliError, Command};
use crate::args::Parsed;
use hdoutlier_core::params::advise;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_stats::{significance_of, sparsity_coefficient};
use std::io::Write;

/// Help text and flags.
pub const COMMAND: Command = Command {
    help: "\
hdoutlier advise — recommend phi and k for a dataset size (paper §2.4)

USAGE:
    hdoutlier advise --records <N> [--target <s>] [--json]
    hdoutlier advise <input.csv> [--target <s>] [--json]

OPTIONS:
    --records <N>   number of records (alternative to passing a CSV)
    --target <s>    target sparsity coefficient (default -3)
    --json          emit JSON
",
    values: &["records", "target", "delimiter", "label-column"],
    bools: &["json", "no-header"],
};

/// Prints the advice for `--records` or the row count of a CSV.
pub fn body(parsed: &Parsed, sink: &mut impl Write) -> Result<(), CliError> {
    let target: f64 = parsed.or("target", "number", -3.0)?;
    let n: u64 = match parsed.opt::<u64>("records", "integer")? {
        Some(n) => n,
        // Fall back to counting a CSV.
        None => load_dataset(parsed)?.n_rows() as u64,
    };
    if n == 0 {
        return Err(CliError::Usage("--records must be positive".into()));
    }

    let advice = advise(n, target);
    let one_point = sparsity_coefficient(1, n, advice.phi, advice.k);
    if parsed.has("json") {
        let j = Json::object()
            .field("records", n)
            .field("target_sparsity", target)
            .field("phi", advice.phi)
            .field("k", advice.k)
            .field("empty_cube_sparsity", advice.empty_cube_sparsity)
            .field("one_point_cube_sparsity", one_point)
            .field(
                "empty_cube_significance",
                significance_of(advice.empty_cube_sparsity),
            )
            .map_err(|e| CliError::Runtime(format!("failed to render advice: {e}")))?;
        return emit_report(sink, &(j.pretty() + "\n"));
    }
    let mut out = format!(
        "for N = {n} records (target sparsity {target}):\n\
         \n  phi = {}   (grid ranges per dimension)\
         \n  k   = {}   (projection dimensionality, Eq. 2)\n",
        advice.phi, advice.k
    );
    out.push_str(&format!(
        "\nan empty cube then scores S = {:.2} (significance {:.2e});\n\
         a one-point cube scores S = {:.2}\n",
        advice.empty_cube_sparsity,
        significance_of(advice.empty_cube_sparsity),
        one_point
    ));
    if advice.empty_cube_sparsity > target {
        out.push_str(
            "\nwarning: even an empty cube cannot reach the target — the dataset\n\
             is too small for significant projections at any k (see paper §2.4).\n",
        );
    }
    emit_report(sink, &out)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{argv, planted_csv, run};
    use crate::exit;

    #[test]
    fn advises_from_record_count() {
        let (code, out) = run("advise", &argv(&["--records", "10000"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("phi = 10"), "{out}");
        assert!(out.contains("k   = 3"), "{out}");
    }

    #[test]
    fn json_output() {
        let (code, out) = run("advise", &argv(&["--records", "452", "--json"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("\"phi\""));
        assert!(out.contains("\"empty_cube_sparsity\""));
    }

    #[test]
    fn warns_when_dataset_too_small() {
        let (code, out) = run("advise", &argv(&["--records", "5"]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("warning"), "{out}");
    }

    #[test]
    fn advises_from_csv() {
        let (path, _) = planted_csv("advise-csv");
        let (code, out) = run("advise", &argv(&[path.to_str().unwrap()]));
        assert_eq!(code, exit::OK);
        assert!(out.contains("N = 400"), "{out}");
    }

    #[test]
    fn usage_errors() {
        let (code, _) = run("advise", &argv(&["--records", "abc"]));
        assert_eq!(code, exit::USAGE);
        let (code, out) = run("advise", &argv(&["--records", "0"]));
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("positive"));
        let (code, out) = run("advise", &argv(&["--help"]));
        assert_eq!(code, exit::OK);
        // The shared flags follow the command's own, at the same indent.
        assert!(out.ends_with(crate::obs_setup::HELP), "{out}");
        assert!(out.contains("--json          emit JSON\n    --log-level <l> "));
    }
}
