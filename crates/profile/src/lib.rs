//! # datalens-profile
//!
//! Automated data profiling — the reproduction's stand-in for the
//! ydata-profiling library the paper integrates (§3 "Automated Data
//! Profiling"). Produces the content of the dashboard's "Data Profile"
//! tab: descriptive statistics, per-column distributions, correlation
//! matrices (Pearson / Spearman / Cramér's V), missing-data analysis, and
//! flagged data-quality alerts.
//!
//! ```
//! use datalens_profile::{ProfileConfig, ProfileReport};
//! use datalens_table::{Column, Table};
//!
//! let t = Table::new("demo", vec![
//!     Column::from_f64("x", [Some(1.0), Some(2.0), None]),
//! ]).unwrap();
//! let report = ProfileReport::build(&t, &ProfileConfig::default());
//! assert_eq!(report.table.missing_cells, 1);
//! ```

pub mod alerts;
pub mod cache;
pub mod correlation;
pub mod histogram;
pub mod report;
pub mod stats;

pub use alerts::{Alert, AlertConfig, AlertKind};
pub use cache::{CacheStats, ProfileCache};
pub use correlation::{CorrelationKind, CorrelationMatrix};
pub use histogram::Histogram;
pub use report::{BuildOptions, ColumnProfile, ProfileConfig, ProfileReport, TableStats};
pub use stats::{CategoricalStats, NumericStats};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use datalens_table::{Column, Table};

    use crate::cache::ProfileCache;
    use crate::correlation::{self, CorrelationKind};
    use crate::histogram::Histogram;
    use crate::report::{BuildOptions, ProfileConfig, ProfileReport};
    use crate::stats;
    use crate::stats::{numeric_stats_of, quantile_sorted};

    proptest! {
        /// A parallel build — cold cache, then warm — serialises to the
        /// exact bytes of a sequential uncached build, on arbitrary
        /// small tables (NaN correlation entries print as `null`, so
        /// byte equality covers the undefined cells too).
        #[test]
        fn build_is_deterministic_across_threads_and_cache(
            ints in proptest::collection::vec(proptest::option::of(-100i64..100), 1..20),
            floats in proptest::collection::vec(proptest::option::of(-1e3f64..1e3), 1..20),
            strs in proptest::collection::vec(proptest::option::of("[a-c]{1,2}"), 1..20),
        ) {
            let n = ints.len().min(floats.len()).min(strs.len());
            let t = Table::new(
                "p",
                vec![
                    Column::from_i64("i", ints.into_iter().take(n)),
                    Column::from_f64("f", floats.into_iter().take(n)),
                    Column::from_str_vals("s", strs.into_iter().take(n)),
                ],
            )
            .unwrap();
            let config = ProfileConfig::default();
            let cold = serde_json::to_string(&ProfileReport::build(&t, &config)).unwrap();
            let cache = ProfileCache::new();
            let opts = BuildOptions { threads: 4, cache: Some(&cache) };
            let first = serde_json::to_string(&ProfileReport::build_with(&t, &config, &opts)).unwrap();
            let warm = serde_json::to_string(&ProfileReport::build_with(&t, &config, &opts)).unwrap();
            prop_assert_eq!(&cold, &first);
            prop_assert_eq!(&cold, &warm);
            // The warm build answered entirely from the cache.
            let stats = cache.stats();
            prop_assert_eq!(stats.column_hits, 3);
        }
        /// Histogram counts always sum to the input size and every count
        /// lands within the data range.
        #[test]
        fn histogram_conserves_mass(
            values in proptest::collection::vec(-1e4f64..1e4, 1..200),
            bins in 1usize..30,
        ) {
            let h = Histogram::build(&values, bins).unwrap();
            prop_assert_eq!(h.total(), values.len());
            prop_assert!(h.edges.windows(2).all(|w| w[0] <= w[1]));
        }

        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn quantiles_monotone(
            mut values in proptest::collection::vec(-1e4f64..1e4, 1..100),
        ) {
            values.sort_by(f64::total_cmp);
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
            let mut prev = f64::NEG_INFINITY;
            for &q in &qs {
                let v = quantile_sorted(&values, q);
                prop_assert!(v >= prev);
                prop_assert!(v >= values[0] && v <= *values.last().unwrap());
                prev = v;
            }
        }

        /// Numeric summary invariants: min ≤ q1 ≤ median ≤ q3 ≤ max, the
        /// mean lies within [min, max], and variance = std².
        #[test]
        fn stats_invariants(
            values in proptest::collection::vec(-1e4f64..1e4, 1..100),
        ) {
            let s = numeric_stats_of(&values).unwrap();
            prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
            prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
            prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!((s.variance - s.std * s.std).abs() < 1e-6 * s.variance.max(1.0));
        }
    }

    /// Floats drawn from a pool dense in ties and in the values where
    /// `==`, bit identity and finiteness disagree.
    fn edge_float() -> impl Strategy<Value = f64> {
        proptest::sample::select(vec![
            -2.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            7.25,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ])
    }

    /// A series of `n` optional edge floats; `blank == 0` makes it all
    /// null.
    fn float_series(n: usize, blank: u8) -> impl Strategy<Value = Vec<Option<f64>>> {
        proptest::collection::vec(proptest::option::of(edge_float()), n).prop_map(move |v| {
            if blank == 0 {
                vec![None; v.len()]
            } else {
                v
            }
        })
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Spearman from presorted orders is bit-identical to sorting
        /// each pair's values, over nulls, ties, NaN/±Inf and ±0.0.
        #[test]
        fn spearman_matches_reference_bit_for_bit(
            (x, y) in (0usize..40, 0u8..6, 0u8..6).prop_flat_map(|(n, bx, by)| {
                (float_series(n, bx), float_series(n, by))
            }),
        ) {
            prop_assert_eq!(
                bits(correlation::spearman(&x, &y)),
                bits(correlation::reference::spearman(&x, &y))
            );
        }

        /// Pearson summed over re-walked pairs equals collecting the
        /// pairs first, bit for bit.
        #[test]
        fn pearson_matches_reference_bit_for_bit(
            (x, y) in (0usize..40, 0u8..6, 0u8..6).prop_flat_map(|(n, bx, by)| {
                (float_series(n, bx), float_series(n, by))
            }),
        ) {
            prop_assert_eq!(
                bits(correlation::pearson(&x, &y)),
                bits(correlation::reference::pearson(&x, &y))
            );
        }

        /// Cramér's V over sorted level codes equals the string-keyed
        /// computation bit for bit.
        #[test]
        fn cramers_v_matches_reference(
            (x, y) in (0usize..40).prop_flat_map(|n| {
                let level = || proptest::option::of(
                    proptest::sample::select(vec!["", "a", "b", "ab", "z"])
                        .prop_map(str::to_string));
                (proptest::collection::vec(level(), n), proptest::collection::vec(level(), n))
            }),
        ) {
            prop_assert_eq!(
                bits(correlation::cramers_v(&x, &y)),
                bits(correlation::reference::cramers_v(&x, &y))
            );
        }

        /// The code/bit-counting categorical stats equal the
        /// `value_counts`-based reference for every dtype and chunking.
        #[test]
        fn categorical_stats_match_reference(
            (ints, floats, strs, bools) in (0usize..40, 0u8..6).prop_flat_map(|(n, blank)| (
                proptest::collection::vec(proptest::option::of(
                    proptest::sample::select(vec![-3i64, 0, 1, 12, 1000])), n),
                float_series(n, blank),
                proptest::collection::vec(proptest::option::of(
                    proptest::sample::select(vec!["", "é", "ab", "xyz"])), n),
                proptest::collection::vec(proptest::option::of(any::<bool>()), n),
            )),
            top_k in 0usize..4,
            chunk_rows in 1usize..9,
        ) {
            for col in [
                Column::from_i64("i", ints),
                Column::from_f64("f", floats),
                Column::from_str_vals("s", strs),
                Column::from_bool("b", bools),
            ] {
                for c in [col.rechunk(chunk_rows), col] {
                    prop_assert_eq!(
                        stats::categorical_stats(&c, top_k),
                        stats::categorical_stats_reference(&c, top_k)
                    );
                }
            }
        }

        /// Every cell of the table-level Spearman and Cramér's V
        /// matrices equals the reference pair function on the decoded
        /// columns, whatever the chunk split.
        #[test]
        fn correlation_matrices_match_reference_pairs(
            ((a, b, c), (s, t)) in (0usize..30, 0u8..6).prop_flat_map(|(n, blank)| {
                let level = || proptest::option::of(
                    proptest::sample::select(vec!["p", "q", "r"]));
                (
                    (
                        float_series(n, 1),
                        float_series(n, blank),
                        proptest::collection::vec(proptest::option::of(-5i64..5), n),
                    ),
                    (
                        proptest::collection::vec(level(), n),
                        proptest::collection::vec(level(), n),
                    ),
                )
            }),
            chunk_rows in 1usize..9,
        ) {
            let table = Table::new(
                "m",
                vec![
                    Column::from_f64("a", a).rechunk(chunk_rows),
                    Column::from_f64("b", b),
                    Column::from_i64("c", c).rechunk(chunk_rows),
                    Column::from_str_vals("s", s).rechunk(chunk_rows),
                    Column::from_str_vals("t", t),
                ],
            )
            .unwrap();
            let numeric: Vec<Vec<Option<f64>>> = ["a", "b", "c"]
                .iter()
                .map(|n| table.column_by_name(n).unwrap().iter().map(|v| v.as_f64()).collect())
                .collect();
            let spearman = correlation::correlation_matrix(&table, CorrelationKind::Spearman);
            for i in 0..3 {
                for j in (i + 1)..3 {
                    let want = correlation::reference::spearman(&numeric[i], &numeric[j]);
                    prop_assert_eq!(
                        spearman.values[i][j].to_bits(),
                        want.unwrap_or(f64::NAN).to_bits()
                    );
                }
            }
            let strs: Vec<Vec<Option<String>>> = ["s", "t"]
                .iter()
                .map(|n| {
                    table.column_by_name(n).unwrap().iter()
                        .map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .collect();
            let cramers = correlation::correlation_matrix(&table, CorrelationKind::CramersV);
            let want = correlation::reference::cramers_v(&strs[0], &strs[1]);
            prop_assert_eq!(cramers.values[0][1].to_bits(), want.unwrap_or(f64::NAN).to_bits());
        }
    }
}
