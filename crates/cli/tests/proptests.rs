//! Robustness tests for the CLI: the argument parser and JSON writer must
//! never panic, and the top-level dispatcher must return a sane exit code on
//! arbitrary argument vectors. Cases come from seeded generators, 256 per
//! property, so every run checks the same inputs.
//!
//! The dispatcher property drives every subcommand through
//! `hdoutlier_cli::run_with` with empty stdin, so `stream` sees EOF at once.
//! It never generates argument vectors that legitimately block, run long or
//! write files: no `serve` (it waits for a drain request), no
//! `scenario run|check|update-goldens` (they run whole pipelines and write
//! goldens), and none of the flags that name an output file
//! (`--metrics-out`, `--trace-out`, `--profile-out`, `--save-model`,
//! `--checkpoint`, `--on-error quarantine:<path>`). No generated positional
//! names a readable file (no `/`, no upper case), so no dataset is read.

use hdoutlier_cli::args::Spec;
use hdoutlier_json::Json;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};

const CASES: usize = 256;

/// A string of up to `max_len` characters from `alphabet`.
fn text(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

#[test]
fn arg_parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xc11_0001);
    let spec = Spec::new(&["phi", "k", "input"], &["json", "quiet"]);
    for _ in 0..CASES {
        let n = rng.gen_range(0..10);
        let argv: Vec<String> = (0..n)
            .map(|_| text(&mut rng, b"-=abcdefghijklmnopqrstuvwxyz0123456789 ", 12))
            .collect();
        let _ = spec.parse(&argv);
    }
}

/// First tokens (most cases lead with one) and later tokens (most cases
/// continue with them) that take the dispatcher into each subcommand's
/// parsing and validation, beyond what random text reaches.
const COMMANDS: &[&str] = &[
    "detect", "score", "stream", "explain", "advise", "baseline", "scenario", "help", "--help",
];
const FLAGS: &[&str] = &[
    "--phi",
    "--k",
    "--m",
    "--search",
    "--json",
    "--quiet",
    "--threads",
    "--records",
    "--target",
    "--row",
    "--top",
    "--method",
    "--metric",
    "--model",
    "--batch",
    "--drift-alpha",
    "--no-header",
    "--delimiter",
    "--log-level",
    "--log-json",
    "--profile-hz",
    "list",
    "brute",
    "knn",
    "0",
    "5",
    "-3",
    "x.csv",
];

#[test]
fn dispatcher_never_panics_and_exit_codes_are_sane() {
    let mut rng = StdRng::seed_from_u64(0xc11_0002);
    let mut case = 0;
    while case < CASES {
        let n = rng.gen_range(0..6);
        let argv: Vec<String> = (0..n)
            .map(|i| match (i, rng.gen_range(0..4)) {
                (0, 0) | (_, 3) => text(&mut rng, b"-=abcdefghijklmnopqrstuvwxyz0123456789.", 10),
                (0, _) => COMMANDS[rng.gen_range(0..COMMANDS.len())].to_string(),
                _ => FLAGS[rng.gen_range(0..FLAGS.len())].to_string(),
            })
            .collect();
        let long_running = match argv.first().map(String::as_str) {
            Some("serve") => true,
            Some("scenario") => argv
                .iter()
                .any(|a| ["run", "check", "update-goldens"].contains(&a.as_str())),
            _ => false,
        };
        if long_running {
            continue;
        }
        case += 1;
        let mut sink = Vec::new();
        let (code, err) = hdoutlier_cli::run_with(&argv, std::io::empty(), &mut sink);
        let out = String::from_utf8(sink).expect("reports are valid UTF-8") + &err;
        assert!([0, 1, 2].contains(&code), "exit {code} for {argv:?}");
        assert!(!out.is_empty(), "no output for {argv:?}");
    }
}

/// Any character but `\n`: control characters, quotes and backslashes
/// often, otherwise any Unicode scalar value.
fn any_char(rng: &mut StdRng) -> char {
    match rng.gen_range(0..4) {
        0 => char::from_u32(rng.gen_range(0..0x20))
            .filter(|&c| c != '\n')
            .unwrap_or('\t'),
        1 => ['"', '\\', '/', '\u{7f}'][rng.gen_range(0..4usize)],
        2 => rng.gen_range(b' '..=b'~') as char,
        _ => loop {
            if let Some(c) = char::from_u32(rng.gen_range(0x20..0x11_0000)) {
                break c;
            }
        },
    }
}

#[test]
fn json_strings_round_trip_through_escaping() {
    let mut rng = StdRng::seed_from_u64(0xc11_0003);
    for _ in 0..CASES {
        let len = rng.gen_range(0..=40);
        let s: String = (0..len).map(|_| any_char(&mut rng)).collect();
        let rendered = Json::from(s.clone()).render();
        assert!(rendered.starts_with('"') && rendered.ends_with('"'));
        // No raw control characters or unescaped quotes inside.
        let inner = &rendered[1..rendered.len() - 1];
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                chars.next(); // escape consumed
                continue;
            }
            assert!(c != '"', "unescaped quote in {rendered:?}");
            assert!((c as u32) >= 0x20, "raw control char in {rendered:?}");
        }
    }
}

#[test]
fn json_numbers_render_finitely() {
    let mut rng = StdRng::seed_from_u64(0xc11_0004);
    // The edges first, then arbitrary bit patterns (NaNs, infinities,
    // subnormals and both zeros included).
    let edges = [
        0.0,
        -0.0,
        1e15,
        -1e15,
        1e15 - 1.0,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let random = (edges.len()..CASES).map(|_| f64::from_bits(rng.gen::<u64>()));
    for n in edges.into_iter().chain(random) {
        let rendered = Json::from(n).render();
        assert!(!rendered.is_empty());
        if n.is_finite() {
            // Parsable back as f64 (approximately round-trips).
            let back: f64 = rendered.parse().unwrap();
            if n != 0.0 {
                assert!(((back - n) / n).abs() < 1e-9, "{n} -> {rendered}");
            }
        } else {
            assert_eq!(rendered, "null");
        }
    }
}

#[test]
fn json_nesting_balances() {
    let mut rng = StdRng::seed_from_u64(0xc11_0005);
    for _ in 0..CASES {
        let depth = rng.gen_range(1usize..8);
        let mut j = Json::object().field("leaf", 1usize).unwrap();
        for i in 0..depth {
            j = Json::object().field(&format!("level{i}"), j).unwrap();
        }
        let s = j.render();
        assert_eq!(s.matches('{').count(), depth + 1);
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
