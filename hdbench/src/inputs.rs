//! The workloads and the inputs each one hands the program, all generated
//! from the run's `--seed` by the planted-outlier generator, which also
//! gives the ground truth that `recall` is scored against.

use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use std::fmt::Write as _;

/// One named traffic shape. `README.md` says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetectBrute,
    DetectEvolve,
    StreamReplay,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DetectBrute,
        Workload::DetectEvolve,
        Workload::StreamReplay,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectBrute => "detect-brute",
            Workload::DetectEvolve => "detect-evolve",
            Workload::StreamReplay => "stream-replay",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which search `detect` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    Brute,
    Evolutionary,
}

/// The GA seed every evolutionary job uses: the workload seed varies the
/// data, never the search's own randomness.
pub const GA_SEED: u64 = 7;

/// The `detect` configuration of a workload (also the model fit of the
/// scoring workloads).
#[derive(Debug, Clone, Copy)]
pub struct DetectParams {
    pub search: Search,
    pub phi: u32,
    pub k: usize,
    pub m: usize,
}

impl DetectParams {
    /// `hdoutlier detect` arguments for this configuration, one thread, JSON
    /// report; the CSV path goes last.
    pub fn cli_args(&self, csv: &str) -> Vec<String> {
        let mut args: Vec<String> = vec!["detect".into()];
        let search = match self.search {
            Search::Brute => "brute",
            Search::Evolutionary => "evolutionary",
        };
        for (flag, value) in [
            ("--search", search.to_string()),
            ("--phi", self.phi.to_string()),
            ("--k", self.k.to_string()),
            ("--m", self.m.to_string()),
            ("--threads", "1".to_string()),
        ] {
            args.push(flag.into());
            args.push(value);
        }
        if self.search == Search::Evolutionary {
            args.push("--seed".into());
            args.push(GA_SEED.to_string());
        }
        args.push("--json".into());
        args.push(csv.into());
        args
    }
}

/// A generated table: CSV text (header plus one line per row) and the
/// planted outlier rows.
#[derive(Debug, Clone)]
pub struct Table {
    pub csv: String,
    pub planted: Vec<usize>,
    pub rows: usize,
    pub dims: usize,
}

impl Table {
    /// `rows` × `dims` of correlated bulk with `outliers` planted
    /// contrarian records. The signature groups are nearly perfectly
    /// correlated, so their contrarian corners hold planted records only,
    /// and the values sit at the 6 % and 94 % marginal quantiles, inside the
    /// outermost grid range of every φ used here.
    fn planted(seed: u64, rows: usize, dims: usize, outliers: usize, groups: usize) -> Table {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: rows,
            n_dims: dims,
            n_outliers: outliers,
            strong_groups: Some(groups),
            strength: 0.999,
            low_quantile: 0.06,
            seed,
            ..PlantedConfig::default()
        });
        let mut csv = String::with_capacity(rows * dims * 8);
        let names: Vec<String> = (0..dims).map(|d| format!("c{d}")).collect();
        csv.push_str(&names.join(","));
        csv.push('\n');
        for row in planted.dataset.rows() {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    csv.push(',');
                }
                write!(csv, "{v:.4}").expect("writing to a String cannot fail");
            }
            csv.push('\n');
        }
        Table {
            csv,
            planted: planted.outlier_rows,
            rows,
            dims,
        }
    }

    /// The data lines, without the header.
    pub fn data_lines(&self) -> impl Iterator<Item = &str> {
        self.csv.lines().skip(1)
    }
}

/// Everything one workload run feeds the program.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// The CSV `detect` reads; the scoring workloads fit their model on it.
    pub fit: Table,
    pub params: DetectParams,
    /// Rows `stream` reads and `serve` is sent; `None` reuses `fit`.
    replay: Option<Table>,
}

impl Inputs {
    pub fn replay(&self) -> &Table {
        self.replay.as_ref().unwrap_or(&self.fit)
    }
}

/// Derives an independent generator seed per table from the run's seed.
fn table_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The model both scoring workloads fit: exhaustive, so it is exact.
const SCORING_MODEL: DetectParams = DetectParams {
    search: Search::Brute,
    phi: 5,
    k: 2,
    m: 20,
};

pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let s = |salt| table_seed(seed, salt);
    match workload {
        Workload::DetectBrute => Inputs {
            workload,
            fit: Table::planted(s(1), 50_000, 16, 3, 4),
            params: DetectParams {
                search: Search::Brute,
                phi: 8,
                k: 3,
                m: 20,
            },
            replay: None,
        },
        Workload::DetectEvolve => Inputs {
            workload,
            fit: Table::planted(s(2), 5_000, 100, 50, 10),
            params: DetectParams {
                search: Search::Evolutionary,
                phi: 6,
                k: 3,
                m: 20,
            },
            replay: None,
        },
        Workload::StreamReplay => Inputs {
            workload,
            fit: Table::planted(s(3), 20_000, 12, 20, 3),
            params: SCORING_MODEL,
            replay: Some(Table::planted(s(4), 200_000, 12, 200, 3)),
        },
        Workload::ServeMixed => Inputs {
            workload,
            fit: Table::planted(s(5), 20_000, 12, 20, 3),
            params: SCORING_MODEL,
            replay: Some(Table::planted(s(6), 20_000, 12, 40, 3)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [Workload::ServeMixed, Workload::DetectEvolve] {
            let a = generate(w, 11);
            let b = generate(w, 11);
            let c = generate(w, 12);
            assert_eq!(a.fit.csv, b.fit.csv, "{}", w.name());
            assert_eq!(a.replay().csv, b.replay().csv, "{}", w.name());
            assert_eq!(a.fit.planted, b.fit.planted, "{}", w.name());
            assert_ne!(a.fit.csv, c.fit.csv, "{}", w.name());
            assert_ne!(a.replay().csv, c.replay().csv, "{}", w.name());
        }
    }

    #[test]
    fn tables_have_the_stated_shape() {
        let inputs = generate(Workload::ServeMixed, 3);
        let t = inputs.replay();
        assert_eq!(t.data_lines().count(), t.rows);
        assert!(t.data_lines().all(|l| l.split(',').count() == t.dims));
        assert_eq!(t.planted.len(), 40);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
