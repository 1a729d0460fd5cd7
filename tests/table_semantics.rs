//! Cell-value semantics that every hash-based table kernel relies on:
//! values that compare equal must hash equally, so frequency tables and
//! duplicate-row detection group them together.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use datalens_table::{Column, Table, Value};

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Regression: `Float(0.0) == Float(-0.0)` and `Int(0) == Float(-0.0)`
/// held, but the two sides hashed different bits.
#[test]
fn equal_signed_zeros_hash_equally() {
    for (a, b) in [
        (Value::Float(0.0), Value::Float(-0.0)),
        (Value::Int(0), Value::Float(-0.0)),
        (Value::Int(0), Value::Float(0.0)),
        (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
    ] {
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b), "{a:?} and {b:?} hash apart");
    }
}

#[test]
fn value_counts_and_duplicate_rows_group_equal_values() {
    let zeros = Column::from_f64("z", [Some(0.0), Some(-0.0), Some(f64::NAN), Some(f64::NAN)]);
    assert_eq!(
        zeros
            .value_counts()
            .iter()
            .map(|(_, n)| *n)
            .collect::<Vec<_>>(),
        vec![2, 2],
        "0.0/-0.0 and the two NaNs are one value each"
    );

    let t = Table::new(
        "t",
        vec![
            zeros,
            Column::from_str_vals("s", [Some("x"), Some("x"), None, None]),
        ],
    )
    .unwrap();
    // Row 1 repeats row 0 (0.0 == -0.0), row 3 repeats row 2 (NaN ==
    // NaN, null == null).
    assert_eq!(t.duplicate_rows(), vec![1, 3]);
    assert_eq!(t.drop_duplicates().n_rows(), 2);
}
