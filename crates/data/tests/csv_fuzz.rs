//! Robustness tests: the CSV parser must never panic and must uphold basic
//! invariants on arbitrary text and on adversarially quoted inputs. Cases
//! come from seeded generators, 256 per property, so every run checks the
//! same inputs.

use hdoutlier_data::csv::{parse_records, read_str, write_string, CsvOptions};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};

const CASES: usize = 256;

/// Characters beyond printable ASCII that the generators mix in: quotes,
/// delimiters, carriage returns, tabs, a NUL, and multi-byte UTF-8.
const AWKWARD: &[char] = &['"', ',', '\r', '\t', '\0', 'é', 'ß', '€', '𝄞', '😀'];

/// Any character but `\n`: printable ASCII most of the time, otherwise one
/// of [`AWKWARD`].
fn any_char(rng: &mut StdRng) -> char {
    if rng.gen_range(0..4) == 0 {
        AWKWARD[rng.gen_range(0..AWKWARD.len())]
    } else {
        rng.gen_range(b' '..=b'~') as char
    }
}

/// Up to `max_len` characters drawn by `draw`.
fn text(rng: &mut StdRng, max_len: usize, draw: impl Fn(&mut StdRng) -> char) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| draw(rng)).collect()
}

/// One character of `alphabet`.
fn one_of(alphabet: &'static [u8]) -> impl Fn(&mut StdRng) -> char {
    move |rng| alphabet[rng.gen_range(0..alphabet.len())] as char
}

#[test]
fn parser_never_panics_on_arbitrary_text() {
    let mut rng = StdRng::seed_from_u64(0xc5f0_0001);
    for _ in 0..CASES {
        let text = text(&mut rng, 300, any_char);
        // Any outcome is fine; panicking is not.
        let _ = parse_records(&text, ',');
        let _ = read_str(&text, &CsvOptions::default());
    }
}

#[test]
fn parser_never_panics_on_quote_heavy_input() {
    let mut rng = StdRng::seed_from_u64(0xc5f0_0002);
    for _ in 0..CASES {
        let n_parts = rng.gen_range(0..20);
        let text: String = (0..n_parts)
            .map(|_| text(&mut rng, 8, one_of(b"\",\n\rabcdefghijklmnopqrstuvwxyz")))
            .collect();
        let _ = parse_records(&text, ',');
    }
}

#[test]
fn well_formed_unquoted_input_always_parses() {
    let mut rng = StdRng::seed_from_u64(0xc5f0_0003);
    let field_char = one_of(b"abcdefghijklmnopqrstuvwxyz0123456789._-");
    for case in 0..CASES {
        let n_rows = rng.gen_range(1..20);
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let len = rng.gen_range(1..=6);
                        (0..len).map(|_| field_char(&mut rng)).collect()
                    })
                    .collect()
            })
            .collect();
        let text: String = rows
            .iter()
            .map(|r| r.join(","))
            .collect::<Vec<_>>()
            .join("\n");
        let records = parse_records(&text, ',').unwrap();
        assert_eq!(records.len(), rows.len(), "case {case}: {text:?}");
        for (got, want) in records.iter().zip(&rows) {
            assert_eq!(got, want, "case {case}: {text:?}");
        }
    }
}

/// Quotes every field (escaping quotes), parses the line back, and expects
/// the fields verbatim: quoted content is never trimmed or re-split.
fn assert_quoted_round_trip(fields: &[String]) {
    let line: String = fields
        .iter()
        .map(|f| format!("\"{}\"", f.replace('"', "\"\"")))
        .collect::<Vec<_>>()
        .join(",");
    let records = parse_records(&line, ',').unwrap();
    assert_eq!(records.len(), 1, "{line:?}");
    assert_eq!(&records[0], fields, "{line:?}");
}

#[test]
fn quoted_fields_round_trip() {
    // A lone empty quoted field is one record, not a blank line.
    assert_quoted_round_trip(&[String::new()]);
    let mut rng = StdRng::seed_from_u64(0xc5f0_0004);
    for _ in 0..CASES {
        let n_fields = rng.gen_range(1..6);
        let fields: Vec<String> = (0..n_fields)
            .map(|_| text(&mut rng, 12, any_char))
            .collect();
        assert_quoted_round_trip(&fields);
    }
}

#[test]
fn writer_output_always_reparses() {
    let mut rng = StdRng::seed_from_u64(0xc5f0_0005);
    for case in 0..CASES {
        let n_values = rng.gen_range(1..60);
        let values: Vec<f64> = (0..n_values)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    f64::NAN
                } else {
                    rng.gen_range(-1e9..1e9)
                }
            })
            .collect();
        let n_dims = rng.gen_range(1..6);
        let n_rows = values.len() / n_dims;
        if n_rows == 0 {
            continue;
        }
        let buf = values[..n_rows * n_dims].to_vec();
        let ds = hdoutlier_data::Dataset::new(buf, n_rows, n_dims).unwrap();
        let text = write_string(&ds);
        let back = read_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), n_rows, "case {case}");
        assert_eq!(back.n_dims(), n_dims, "case {case}");
    }
}
