//! # datalens-table
//!
//! Columnar tabular substrate for the DataLens reproduction — the stand-in
//! for the pandas `DataFrame` the original dashboard is built on.
//!
//! Provides:
//! - [`Value`]/[`DataType`]: dynamically-typed cell values with pandas-style
//!   null semantics and coercion rules,
//! - [`Column`]: type-specialised storage over immutable, `Arc`-shared
//!   row-group [`Chunk`]s (dictionary-encoded for strings) with a dynamic
//!   view — cloning is O(chunks) and edits copy one chunk, not the column,
//! - [`Table`]: schema-validated collection of columns with cell addressing
//!   ([`CellRef`]) used by every detector and repairer in the workspace,
//! - streaming CSV reading/writing with schema inference ([`csv`]),
//! - the on-disk dataset folder layout ([`dataset_dir`]).
//!
//! ```
//! use datalens_table::{csv::{read_csv_str, CsvOptions}, Value};
//!
//! let t = read_csv_str("demo", "city,pop\nulm,126\nbonn,330\n", &CsvOptions::default()).unwrap();
//! assert_eq!(t.shape(), (2, 2));
//! assert_eq!(t.get_at(1, "pop").unwrap(), Value::Int(330));
//! ```

pub mod chunk;
pub mod column;
pub mod csv;
pub mod dataset_dir;
pub mod error;
pub mod schema;
pub mod table;
pub mod value;

pub use chunk::{Chunk, ChunkBuilder, ChunkValues, DEFAULT_CHUNK_ROWS};
pub use column::Column;
pub use dataset_dir::DatasetDir;
pub use error::TableError;
pub use schema::{Field, Schema};
pub use table::{CellRef, Table};
pub use value::{DataType, Value};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::csv::{read_csv_str, write_csv_str, CsvOptions};
    use crate::{Column, Table, Value};

    /// Floats where `==` and bit identity disagree.
    fn edge_floats() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
    }

    fn table_strategy() -> impl Strategy<Value = Table> {
        table_strategy_of("[ -~]{0,12}")
    }

    fn table_strategy_of(cell_regex: &str) -> impl Strategy<Value = Table> {
        let cells = proptest::string::string_regex(cell_regex).unwrap();
        (1usize..5, 1usize..20).prop_flat_map(move |(cols, rows)| {
            proptest::collection::vec(
                proptest::collection::vec(proptest::option::of(cells.clone()), rows),
                cols,
            )
            .prop_map(move |data| {
                let columns: Vec<Column> = data
                    .into_iter()
                    .enumerate()
                    .map(|(i, vals)| {
                        // Null-token spellings would not round-trip as
                        // strings (they re-parse to null), so normalise them
                        // to null up front. Leading/trailing spaces are
                        // trimmed by the typed parser, so trim here too.
                        let vals = vals.into_iter().map(|v| {
                            v.map(|s| s.trim().to_string())
                                .filter(|s| !crate::value::is_null_token(s))
                        });
                        Column::from_str_vals(format!("c{i}"), vals)
                    })
                    .collect();
                Table::new("prop", columns).unwrap()
            })
        })
    }

    proptest! {
        /// One write→read normalises types (e.g. the string "01" becomes
        /// Int(1)); after that, write→read is a fixed point: no content or
        /// shape drifts on repeated round trips, however gnarly the quoting.
        #[test]
        fn csv_round_trip_strings_fixed_point(t in table_strategy()) {
            let once = read_csv_str("prop", &write_csv_str(&t), &CsvOptions::default()).unwrap();
            prop_assert_eq!(t.shape(), once.shape());
            let twice = read_csv_str("prop", &write_csv_str(&once), &CsvOptions::default()).unwrap();
            prop_assert_eq!(&once, &twice);
        }

        /// CSV write→read is exactly identity for numeric tables.
        #[test]
        fn csv_round_trip_numeric(
            ints in proptest::collection::vec(proptest::option::of(any::<i32>()), 1..30),
            floats in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 1..30),
        ) {
            let n = ints.len().min(floats.len());
            // An all-null column cannot carry its dtype through CSV, so pin
            // one concrete value per column.
            let mut ints: Vec<Option<i64>> = ints[..n].iter().map(|v| v.map(i64::from)).collect();
            let mut floats = floats[..n].to_vec();
            ints[0] = Some(ints[0].unwrap_or(0));
            floats[0] = Some(floats[0].unwrap_or(0.5));
            let t = Table::new(
                "nums",
                vec![
                    Column::from_i64("i", ints),
                    Column::from_f64("f", floats),
                ],
            ).unwrap();
            let back = read_csv_str("nums", &write_csv_str(&t), &CsvOptions::default()).unwrap();
            prop_assert_eq!(t.schema(), back.schema());
            for cell in t.cell_refs() {
                prop_assert_eq!(t.get(cell).unwrap(), back.get(cell).unwrap());
            }
        }

        /// take() preserves values at the selected indices.
        #[test]
        fn take_preserves_values(
            vals in proptest::collection::vec(proptest::option::of(any::<i64>()), 1..40),
            seed in any::<u64>(),
        ) {
            let t = Table::new("t", vec![Column::from_i64("x", vals.clone())]).unwrap();
            let idx: Vec<usize> = (0..vals.len()).filter(|i| !(i + seed as usize).is_multiple_of(3)).collect();
            let taken = t.take(&idx).unwrap();
            for (new_r, &old_r) in idx.iter().enumerate() {
                prop_assert_eq!(
                    taken.get_at(new_r, "x").unwrap(),
                    Value::from(vals[old_r])
                );
            }
        }

        /// Cells spanning physical lines (embedded LF / bare CR) survive
        /// the write→read cycle: one pass normalises types, after which
        /// the round trip is a fixed point.
        #[test]
        fn csv_round_trip_multiline_quoted(t in table_strategy_of("[ -~\r\n]{0,12}")) {
            let once = read_csv_str("prop", &write_csv_str(&t), &CsvOptions::default()).unwrap();
            prop_assert_eq!(t.shape(), once.shape());
            let twice = read_csv_str("prop", &write_csv_str(&once), &CsvOptions::default()).unwrap();
            prop_assert_eq!(&once, &twice);
        }

        /// The same logical content parses identically whether records
        /// end in LF, CRLF, or classic-Mac bare CR.
        #[test]
        fn csv_line_ending_equivalence(t in table_strategy()) {
            // Cells from this strategy never contain newlines, so every
            // '\n' the writer emits is a record terminator and can be
            // rewritten wholesale.
            let lf = write_csv_str(&t);
            let base = read_csv_str("prop", &lf, &CsvOptions::default()).unwrap();
            let crlf = read_csv_str("prop", &lf.replace('\n', "\r\n"), &CsvOptions::default()).unwrap();
            let cr = read_csv_str("prop", &lf.replace('\n', "\r"), &CsvOptions::default()).unwrap();
            prop_assert_eq!(&base, &crlf);
            prop_assert_eq!(&base, &cr);
        }

        /// diff_cells is empty iff tables are equal, and symmetric.
        #[test]
        fn diff_cells_symmetry(
            a in proptest::collection::vec(proptest::option::of(any::<i64>()), 1..25),
            b in proptest::collection::vec(proptest::option::of(any::<i64>()), 1..25),
        ) {
            let n = a.len().min(b.len());
            let ta = Table::new("a", vec![Column::from_i64("x", a[..n].iter().copied())]).unwrap();
            let tb = Table::new("b", vec![Column::from_i64("x", b[..n].iter().copied())]).unwrap();
            let d1 = ta.diff_cells(&tb).unwrap();
            let d2 = tb.diff_cells(&ta).unwrap();
            prop_assert_eq!(&d1, &d2);
            prop_assert_eq!(d1.is_empty(), a[..n] == b[..n]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The column-wise duplicate scan agrees with the row-materialising
        /// reference on mixed-dtype tables drawn from tiny domains (so
        /// duplicates are common), with nulls, NaN, ±Inf, ±0.0, all-null
        /// columns and arbitrary chunk splits.
        #[test]
        fn duplicate_rows_match_reference(
            (ints, floats, strs, bools) in (0usize..40).prop_flat_map(|n| (
                proptest::collection::vec(proptest::option::of(
                    proptest::sample::select(vec![-1i64, 0, 7])), n),
                proptest::collection::vec(proptest::option::of(
                    proptest::sample::select(edge_floats())), n),
                proptest::collection::vec(proptest::option::of(
                    proptest::sample::select(vec!["", "a", "bc"])), n),
                proptest::collection::vec(proptest::option::of(any::<bool>()), n),
            )),
            blank in 0usize..6,
            chunk_rows in 1usize..9,
        ) {
            let n = ints.len();
            let mut columns = vec![
                Column::from_i64("i", ints),
                Column::from_f64("f", floats),
                Column::from_str_vals("s", strs),
                Column::from_bool("b", bools),
            ];
            if let Some(c) = columns.get_mut(blank) {
                *c = Column::nulls(c.name().to_string(), c.dtype(), n);
            }
            let t = Table::new("d", columns).unwrap();
            let expected = t.duplicate_rows_reference();
            prop_assert_eq!(t.duplicate_rows(), expected.clone());
            let rechunked: Vec<Column> = t.columns().iter().map(|c| c.rechunk(chunk_rows)).collect();
            let r = Table::new("d", rechunked).unwrap();
            prop_assert_eq!(r.duplicate_rows(), expected);
        }
    }
}
