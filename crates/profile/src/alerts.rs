//! Data-quality alerts, mirroring ydata-profiling's "warnings" panel: the
//! automatically flagged potential quality issues the paper says the
//! profile report surfaces.

use serde::{Deserialize, Serialize};

use datalens_table::{DataType, Table};

use crate::correlation::{correlation_matrix, CorrelationKind, CorrelationMatrix};
use crate::report::{compute_column_profile, ColumnProfile, ProfileConfig};
use crate::stats::categorical_stats;

/// One flagged issue about a column (or the whole table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    pub kind: AlertKind,
    /// Affected column, or `None` for table-level alerts.
    pub column: Option<String>,
    /// Human-readable explanation with the triggering numbers.
    pub message: String,
}

/// Category of a quality alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlertKind {
    /// Column has a single distinct value.
    Constant,
    /// Column is entirely null.
    AllMissing,
    /// Null fraction exceeds the threshold.
    HighMissing,
    /// Distinct count ≈ row count on a string column.
    HighCardinality,
    /// |skewness| exceeds the threshold.
    Skewed,
    /// Column contains many zeros.
    ManyZeros,
    /// Two numeric columns are highly correlated.
    HighCorrelation,
    /// Table contains duplicate rows.
    DuplicateRows,
    /// A numeric column has a suspiciously heavy single value
    /// (possible disguised missing value sentinel).
    DominantValue,
}

/// Thresholds for the alert engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlertConfig {
    pub high_missing_fraction: f64,
    pub high_cardinality_fraction: f64,
    pub skew_threshold: f64,
    pub zeros_fraction: f64,
    pub correlation_threshold: f64,
    pub dominant_value_fraction: f64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            high_missing_fraction: 0.2,
            high_cardinality_fraction: 0.9,
            skew_threshold: 2.0,
            zeros_fraction: 0.5,
            correlation_threshold: 0.95,
            dominant_value_fraction: 0.6,
        }
    }
}

/// Scan `table` and emit every triggered alert (deterministic order:
/// table-level first, then per column in schema order).
pub fn scan(table: &Table, config: &AlertConfig) -> Vec<Alert> {
    let n_rows = table.n_rows();
    // Only the pieces the rules read: top-1 frequencies, no histogram.
    let cfg = ProfileConfig {
        histogram_bins: 0,
        top_k: 1,
        alerts: config.clone(),
    };
    let columns: Vec<ColumnProfile> = table
        .columns()
        .iter()
        .map(|c| compute_column_profile(c, n_rows, &cfg, None))
        .collect();
    let pearson = correlation_matrix(table, CorrelationKind::Pearson);
    scan_with(
        table,
        config,
        &columns,
        &pearson,
        table.duplicate_rows().len(),
    )
}

/// The alert rules, evaluated over already-computed per-column profiles
/// and a Pearson matrix — [`crate::ProfileReport::build_with`] calls
/// this so the alert pass adds no recomputation on top of the profile.
pub(crate) fn scan_with(
    table: &Table,
    config: &AlertConfig,
    columns: &[ColumnProfile],
    pearson: &CorrelationMatrix,
    duplicate_rows: usize,
) -> Vec<Alert> {
    let mut alerts = Vec::new();
    let rows = table.n_rows();

    if duplicate_rows > 0 {
        alerts.push(Alert {
            kind: AlertKind::DuplicateRows,
            column: None,
            message: format!("{duplicate_rows} duplicate rows out of {rows}"),
        });
    }

    for (col, profile) in table.columns().iter().zip(columns) {
        let name = profile.name.clone();
        let nulls = profile.null_count;
        if rows > 0 && nulls == rows {
            alerts.push(Alert {
                kind: AlertKind::AllMissing,
                column: Some(name.clone()),
                message: "all values missing".into(),
            });
            continue;
        }
        if rows > 0 {
            let frac = nulls as f64 / rows as f64;
            if frac >= config.high_missing_fraction && nulls > 0 {
                alerts.push(Alert {
                    kind: AlertKind::HighMissing,
                    column: Some(name.clone()),
                    message: format!("{:.1}% missing ({nulls}/{rows})", frac * 100.0),
                });
            }
        }

        let cat = &profile.categorical;
        // The profile was built with the caller's `top_k`; recover the
        // top-1 entry if it was configured away.
        let top = if cat.top.is_empty() && cat.distinct > 0 {
            categorical_stats(col, 1).top
        } else {
            cat.top.clone()
        };
        if cat.distinct == 1 && cat.count > 1 {
            if let Some((top_val, _)) = top.first() {
                alerts.push(Alert {
                    kind: AlertKind::Constant,
                    column: Some(name.clone()),
                    message: format!("constant value {top_val:?}"),
                });
            }
        }
        if col.dtype() == DataType::Str
            && cat.count > 10
            && cat.distinct as f64 >= config.high_cardinality_fraction * cat.count as f64
        {
            alerts.push(Alert {
                kind: AlertKind::HighCardinality,
                column: Some(name.clone()),
                message: format!("{} distinct of {} values", cat.distinct, cat.count),
            });
        }
        if cat.distinct > 1 {
            if let Some((top_val, top_count)) = top.first() {
                let frac = *top_count as f64 / cat.count.max(1) as f64;
                if frac >= config.dominant_value_fraction && col.dtype().is_numeric() {
                    alerts.push(Alert {
                        kind: AlertKind::DominantValue,
                        column: Some(name.clone()),
                        message: format!(
                            "value {top_val:?} accounts for {:.1}% of entries (possible sentinel)",
                            frac * 100.0
                        ),
                    });
                }
            }
        }

        if let Some(stats) = &profile.numeric {
            if stats.skewness.abs() >= config.skew_threshold && stats.count > 2 {
                alerts.push(Alert {
                    kind: AlertKind::Skewed,
                    column: Some(name.clone()),
                    message: format!("skewness {:.2}", stats.skewness),
                });
            }
            if stats.count > 0 {
                let zfrac = stats.zeros as f64 / stats.count as f64;
                if zfrac >= config.zeros_fraction && stats.zeros > 0 && cat.distinct > 1 {
                    alerts.push(Alert {
                        kind: AlertKind::ManyZeros,
                        column: Some(name.clone()),
                        message: format!("{:.1}% zeros", zfrac * 100.0),
                    });
                }
            }
        }
    }

    // Cross-column: high pairwise Pearson correlation.
    for i in 0..pearson.columns.len() {
        for j in (i + 1)..pearson.columns.len() {
            let v = pearson.values[i][j];
            if v.is_finite() && v.abs() >= config.correlation_threshold {
                alerts.push(Alert {
                    kind: AlertKind::HighCorrelation,
                    column: Some(pearson.columns[i].clone()),
                    message: format!(
                        "highly correlated with {:?} (r = {v:.3})",
                        pearson.columns[j]
                    ),
                });
            }
        }
    }

    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    fn has(alerts: &[Alert], kind: AlertKind, column: Option<&str>) -> bool {
        alerts
            .iter()
            .any(|a| a.kind == kind && a.column.as_deref() == column)
    }

    #[test]
    fn flags_constant_and_all_missing() {
        let t = Table::new(
            "t",
            vec![
                Column::from_str_vals("const", [Some("x"), Some("x"), Some("x")]),
                Column::from_f64("gone", [None, None, None]),
                Column::from_i64("ok", [Some(1), Some(2), Some(3)]),
            ],
        )
        .unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::Constant, Some("const")));
        assert!(has(&alerts, AlertKind::AllMissing, Some("gone")));
        assert!(!has(&alerts, AlertKind::Constant, Some("ok")));
    }

    #[test]
    fn flags_high_missing() {
        let t = Table::new(
            "t",
            vec![Column::from_i64("m", [Some(1), None, None, Some(4)])],
        )
        .unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::HighMissing, Some("m")));
    }

    #[test]
    fn flags_duplicates() {
        let t = Table::new(
            "t",
            vec![Column::from_i64("x", [Some(1), Some(1), Some(2)])],
        )
        .unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::DuplicateRows, None));
    }

    #[test]
    fn flags_high_cardinality_strings() {
        let vals: Vec<Option<String>> = (0..20).map(|i| Some(format!("id_{i}"))).collect();
        let t = Table::new("t", vec![Column::from_str_vals("id", vals)]).unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::HighCardinality, Some("id")));
    }

    #[test]
    fn flags_high_correlation_pair() {
        let a: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64)).collect();
        let b: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64 * 2.0 + 1.0)).collect();
        let t = Table::new(
            "t",
            vec![Column::from_f64("a", a), Column::from_f64("b", b)],
        )
        .unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::HighCorrelation, Some("a")));
    }

    #[test]
    fn flags_sentinel_dominant_value() {
        let mut vals: Vec<Option<i64>> = vec![Some(-999); 8];
        vals.extend([Some(1), Some(2), Some(3)]);
        let t = Table::new("t", vec![Column::from_i64("v", vals)]).unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(has(&alerts, AlertKind::DominantValue, Some("v")));
    }

    #[test]
    fn clean_table_minimal_alerts() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("a", (0..20).map(|i| Some(i as f64)).collect::<Vec<_>>()),
                Column::from_str_vals(
                    "c",
                    (0..20)
                        .map(|i| Some(["x", "y", "z"][i % 3]))
                        .collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap();
        let alerts = scan(&t, &AlertConfig::default());
        assert!(alerts.is_empty(), "unexpected alerts: {alerts:?}");
    }
}
