//! The in-process references every output of the binary is checked
//! against: the detect report, the `stream` NDJSON, and the verdicts
//! `serve` answered, replayed in the order the session scored them.

use crate::inputs::{DetectParams, Search, Table, GA_SEED};
use crate::loadgen::LaneReport;
use hdoutlier_core::{FittedModel, OutlierDetector, OutlierReport, SearchMethod};
use hdoutlier_data::csv::{parse_records, read_str, CsvOptions};
use hdoutlier_data::{DiscretizeStrategy, Discretized, GridSpec};
use hdoutlier_json::normalize::normalize_report;
use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::OnlineScorer;

/// The detector `hdoutlier detect` builds from these flags.
fn detector(params: &DetectParams) -> OutlierDetector {
    let (search, seed) = match params.search {
        Search::Brute => (SearchMethod::BruteForce, 0),
        Search::Evolutionary => (SearchMethod::Evolutionary, GA_SEED),
    };
    OutlierDetector::builder()
        .search(search)
        .seed(seed)
        .phi(params.phi)
        .k(params.k)
        .m(params.m)
        .threads(1)
        .build()
}

/// The expected `detect --json` report with volatile fields scrubbed, and
/// the outlier rows it names.
pub fn detect_expected(csv: &str, params: &DetectParams) -> Result<(String, Vec<usize>), String> {
    let dataset = read_str(csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let report = detector(params)
        .detect(&dataset)
        .map_err(|e| e.to_string())?;
    let disc = Discretized::new(&dataset, params.phi, DiscretizeStrategy::EquiDepth)
        .map_err(|e| e.to_string())?;
    let json = report_json(&report, &disc).map_err(|e| e.to_string())?;
    Ok((normalize_report(&json).render(), report.outlier_rows))
}

/// The same JSON shape `hdoutlier detect --json` prints.
pub fn report_json(report: &OutlierReport, disc: &Discretized) -> Result<Json, JsonError> {
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
    Json::object()
        .field("projections", Json::Array(projections))
        .field("outlier_rows", report.outlier_rows.clone())
        .field(
            "stats",
            Json::object()
                .field("work", report.stats.work)
                .field("generations", report.stats.generations)
                .field("completed", report.stats.completed)
                .field("elapsed_ms", 0.0)?,
        )
}

/// Whether one `detect --json` output equals the expected report.
pub fn detect_output_matches(stdout: &[u8], expected: &str) -> bool {
    let Ok(text) = std::str::from_utf8(stdout) else {
        return false;
    };
    Json::parse(text).is_ok_and(|json| normalize_report(&json).render() == expected)
}

/// The model `detect --save-model` would write for this table.
pub fn fit_model(table: &Table, params: &DetectParams) -> Result<FittedModel, String> {
    let dataset = read_str(&table.csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let disc = Discretized::new(&dataset, params.phi, DiscretizeStrategy::EquiDepth)
        .map_err(|e| e.to_string())?;
    let report = detector(params)
        .detect_discretized(&disc)
        .map_err(|e| e.to_string())?;
    Ok(FittedModel::new(
        GridSpec::from_discretized(&disc),
        report.projections,
    ))
}

/// One CSV line as `hdoutlier stream` reads it: one record of `dims`
/// numbers, missing markers as NaN.
pub fn parse_csv_row(line: &str, dims: usize) -> Result<Vec<f64>, String> {
    let missing = CsvOptions::default().missing_markers;
    let records = parse_records(line, ',').map_err(|e| e.to_string())?;
    let [fields] = records.as_slice() else {
        return Err(format!("expected one record in {line:?}"));
    };
    if fields.len() != dims {
        return Err(format!("expected {dims} fields in {line:?}"));
    }
    fields
        .iter()
        .map(|f| {
            let f = f.trim();
            if missing.iter().any(|m| m == f) {
                Ok(f64::NAN)
            } else {
                f.parse().map_err(|_| format!("bad number {f:?}"))
            }
        })
        .collect()
}

/// The NDJSON `hdoutlier stream` must print for `table`, and the share of
/// planted rows it flags.
pub fn stream_expected(model: &FittedModel, table: &Table) -> Result<(Vec<u8>, f64), String> {
    let mut scorer = OnlineScorer::new(model.clone()).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(table.rows * 64);
    let mut flagged = 0usize;
    let mut planted = table.planted.iter().peekable();
    for (i, line) in table.data_lines().enumerate() {
        let row = parse_csv_row(line, table.dims)?;
        let verdict = scorer.score_record(&row).map_err(|e| e.to_string())?;
        if planted.next_if_eq(&&i).is_some() && verdict.outlier {
            flagged += 1;
        }
        let rendered = verdict_json(&verdict, &scorer).map_err(|e| e.to_string())?;
        out.extend_from_slice(rendered.render().as_bytes());
        out.push(b'\n');
    }
    Ok((out, share(flagged, table.planted.len())))
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// One lane's traffic as sent: the table rows each prebuilt request
/// carried, and what came back.
pub struct SentLane<'a> {
    pub rows_per_request: &'a [Vec<usize>],
    pub report: &'a LaneReport,
}

/// The verdict of the serve output check.
pub struct ServeCheck {
    /// `failed[lane][sample]`: not a `200`, or a verdict line that differs
    /// from the replay.
    pub failed: Vec<Vec<bool>>,
    pub recall: f64,
}

/// One verdict line as answered: which lane and request carried it, and
/// the table row it scores.
#[derive(Clone, Copy)]
struct Answered<'a> {
    lane: usize,
    sample: usize,
    row: usize,
    line: &'a [u8],
}

/// The record index a verdict line carries (`{"record":N,…`).
fn record_index(line: &[u8]) -> Option<usize> {
    let rest = line.strip_prefix(b"{\"record\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// Checks every verdict `serve` answered. The session scores records in
/// arrival order across both lanes, so the verdicts are first put back in
/// the order the session numbered them, then the same records are scored
/// in-process in that order and every line compared byte for byte.
pub fn verify_serve(model: &FittedModel, table: &Table, lanes: &[SentLane<'_>]) -> ServeCheck {
    let lines: Vec<&str> = table.data_lines().collect();
    let mut failed: Vec<Vec<bool>> = lanes
        .iter()
        .map(|l| vec![false; l.report.samples.len()])
        .collect();
    let mut by_record: Vec<Option<Answered<'_>>> = Vec::new();
    for (li, lane) in lanes.iter().enumerate() {
        for (si, sample) in lane.report.samples.iter().enumerate() {
            let rows = &lane.rows_per_request[sample.request];
            let verdicts: Vec<&[u8]> = sample
                .body
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .collect();
            if sample.status != 200 || verdicts.len() != rows.len() {
                failed[li][si] = true;
                continue;
            }
            for (&row, line) in rows.iter().zip(verdicts) {
                let Some(n) = record_index(line) else {
                    failed[li][si] = true;
                    continue;
                };
                if n >= by_record.len() {
                    by_record.resize(n + 1, None);
                }
                if by_record[n].is_some() {
                    failed[li][si] = true;
                }
                by_record[n] = Some(Answered {
                    lane: li,
                    sample: si,
                    row,
                    line,
                });
            }
        }
    }
    let mut scorer = OnlineScorer::new(model.clone()).expect("a fitted model can score");
    let mut planted_sent = 0usize;
    let mut planted_flagged = 0usize;
    let mut gap = false;
    for entry in &by_record {
        let Some(Answered {
            lane: li,
            sample: si,
            row,
            line,
        }) = *entry
        else {
            // A record the session scored but no response carried: every
            // later verdict depends on it, so none of them can be checked.
            gap = true;
            continue;
        };
        if gap {
            failed[li][si] = true;
            continue;
        }
        let record = record_line(lines[row]);
        let expected = hdoutlier_serve::session::parse_record_line(&record, table.dims)
            .and_then(|values| scorer.score_record(&values).map_err(|e| e.to_string()))
            .and_then(|v| {
                verdict_json(&v, &scorer)
                    .map(|j| j.render())
                    .map_err(|e| e.to_string())
            });
        if expected.as_deref().map(str::as_bytes) != Ok(line) {
            failed[li][si] = true;
        }
        if table.planted.binary_search(&row).is_ok() {
            planted_sent += 1;
            if line.windows(14).any(|w| w == b"\"outlier\":true") {
                planted_flagged += 1;
            }
        }
    }
    ServeCheck {
        failed,
        recall: share(planted_flagged, planted_sent),
    }
}

/// A serve request body line for a CSV data line: the same numbers as a
/// JSON array.
pub fn record_line(csv_line: &str) -> String {
    format!("[{csv_line}]")
}
