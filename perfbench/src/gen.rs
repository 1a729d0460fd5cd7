//! Seeded input generators. Every workload input is a pure function of
//! the benchmark seed; the program under test only ever sees the CSV
//! text these functions produce.

use datalens_datasets::{beers, hospital, inject, BeersConfig, DirtyDataset, HospitalConfig};
use datalens_datasets::{InjectionConfig, Task};
use datalens_table::csv::{read_csv_str, write_csv_str, CsvOptions};

/// Seed used when `--seed` is not given. Seed 9001 is held out: keep it
/// for validating a performance claim on inputs not looked at while the
/// change was written (see METRICS.md).
pub const DEFAULT_SEED: u64 = 1;

/// Seed of the `k`-th input table of a run: workloads that run one
/// table per pass draw a fresh table from the same distribution each
/// pass, so a run's median covers several tables rather than one.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed).next_u64() ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// splitmix64: a tiny, dependency-free PRNG, so the generated inputs do
/// not move when the program's own RNG crate changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A dirty table with its injected ground truth, both as the CSV the
/// program ingests and as the reference the outputs are scored against.
pub struct DirtyInput {
    pub csv: String,
    /// Ground truth aligned with the table the CSV parses into: the
    /// dirty table is the parsed CSV, the clean table is that table with
    /// every injected cell restored (coerced to the parsed column type),
    /// so scoring never counts a CSV dtype change as a repair miss.
    pub truth: DirtyDataset,
}

/// The dataset registry's error mix (a minority of rows dirty, extra FD
/// violations, the downstream target protected), at any size.
fn injection(seed: u64, target: &str, fd_pairs: &[(&str, &str)]) -> InjectionConfig {
    let mut cfg = InjectionConfig::uniform(0.01, seed.wrapping_add(1));
    cfg.fd_violation_rate = 0.02;
    cfg.protected = vec![target.to_string()];
    cfg.fd_pairs = fd_pairs
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    cfg
}

fn dirty_input(dd: DirtyDataset) -> DirtyInput {
    let csv = write_csv_str(&dd.dirty);
    let dirty =
        read_csv_str(dd.dirty.name(), &csv, &CsvOptions::default()).expect("generated CSV parses");
    let mut clean = dirty.clone();
    for &cell in dd.errors.keys() {
        let value = dd.clean.get(cell).expect("error cell in range");
        clean.set(cell, value).expect("error cell in range");
    }
    DirtyInput {
        csv,
        truth: DirtyDataset {
            clean,
            dirty,
            errors: dd.errors,
        },
    }
}

/// Hospital-shaped, FD-dense dirty table (`HospitalConfig` + `inject`).
pub fn hospital(seed: u64, rows: usize) -> DirtyInput {
    let clean = hospital::generate(&HospitalConfig {
        rows,
        seed,
        ..HospitalConfig::default()
    });
    let cfg = injection(
        seed,
        hospital::TARGET,
        &[
            ("hospital_name", "city"),
            ("hospital_name", "phone"),
            ("measure_code", "measure_name"),
        ],
    );
    dirty_input(inject(&clean, &cfg))
}

/// Beers-shaped dirty table; the downstream task classifies `style`.
pub fn beers(seed: u64, rows: usize) -> DirtyInput {
    let clean = beers::generate(&BeersConfig {
        rows,
        seed,
        ..BeersConfig::default()
    });
    let cfg = injection(
        seed,
        beers::TARGET,
        &[("brewery", "city"), ("brewery", "state")],
    );
    dirty_input(inject(&clean, &cfg))
}

/// The downstream task of [`beers`].
pub const BEERS_TASK: Task = Task::Classification;

pub const WIDE_NUMERIC: usize = 24;
pub const WIDE_STRING: usize = 4;
const CATEGORIES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// Wide profiling table as CSV: `WIDE_NUMERIC` float columns (a shared
/// latent factor plus noise, about 1% nulls) and `WIDE_STRING` low-
/// cardinality string columns.
pub fn wide_csv(seed: u64, rows: usize) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    let header: Vec<String> = (0..WIDE_NUMERIC)
        .map(|c| format!("n{c}"))
        .chain((0..WIDE_STRING).map(|c| format!("s{c}")))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for _ in 0..rows {
        let latent = rng.unit() * 100.0;
        for c in 0..WIDE_NUMERIC {
            if rng.below(100) != 0 {
                let weight = (c % 5) as f64 * 0.25;
                let v = latent * weight + rng.unit() * 50.0 + c as f64;
                out.push_str(&format!("{:.3}", v));
            }
            out.push(',');
        }
        for c in 0..WIDE_STRING {
            if rng.below(100) != 0 {
                out.push_str(CATEGORIES[rng.below(CATEGORIES.len() - c)]);
            }
            out.push(if c + 1 == WIDE_STRING { '\n' } else { ',' });
        }
    }
    out
}

/// A replacement value for one single-cell edit of the wide table.
pub fn wide_edit_value(rng: &mut Rng, col: usize) -> datalens_table::Value {
    use datalens_table::Value;
    if col < WIDE_NUMERIC {
        Value::Float(1_000.0 + rng.unit() * 1_000.0)
    } else {
        Value::Str(format!("edit{}", rng.below(1_000)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(hospital(7, 300).csv, hospital(7, 300).csv);
        assert_eq!(beers(7, 300).csv, beers(7, 300).csv);
        assert_eq!(wide_csv(7, 300), wide_csv(7, 300));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(hospital(7, 300).csv, hospital(8, 300).csv);
        assert_ne!(beers(7, 300).csv, beers(8, 300).csv);
        assert_ne!(wide_csv(7, 300), wide_csv(8, 300));
        assert_ne!(hospital(DEFAULT_SEED, 300).csv, hospital(9_001, 300).csv);
    }

    #[test]
    fn sub_seeds_are_distinct_across_seeds_and_tables() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..50 {
            for k in 0..50 {
                assert!(seen.insert(sub_seed(seed, k)));
            }
        }
        assert_eq!(sub_seed(4, 2), sub_seed(4, 2));
    }

    #[test]
    fn edit_sequence_is_seeded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20)
                .map(|i| wide_edit_value(&mut rng, i).render())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn truth_is_aligned_with_the_parsed_table() {
        let input = hospital(5, 400);
        let truth = &input.truth;
        assert!(!truth.errors.is_empty());
        assert_eq!(truth.clean.shape(), truth.dirty.shape());
        // Every non-error cell agrees; perfect detection scores 1.
        let diff = truth.clean.diff_cells(&truth.dirty).unwrap();
        assert!(diff.iter().all(|c| truth.errors.contains_key(c)));
        assert_eq!(truth.score_detections(&truth.error_cells()).f1, 1.0);
        assert_eq!(truth.repair_accuracy(&truth.clean), 1.0);
    }

    #[test]
    fn wide_table_has_the_documented_shape() {
        let t = read_csv_str("wide", &wide_csv(2, 500), &CsvOptions::default()).unwrap();
        assert_eq!(t.shape(), (500, WIDE_NUMERIC + WIDE_STRING));
        let numeric = t
            .columns()
            .iter()
            .filter(|c| c.dtype().is_numeric())
            .count();
        assert_eq!(numeric, WIDE_NUMERIC);
    }
}
