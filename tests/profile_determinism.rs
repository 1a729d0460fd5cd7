//! Determinism and incrementality regression tests for the parallel,
//! memoised profiler: any thread count and any cache temperature must
//! produce a bit-identical serialized report, and re-profiling after a
//! repair must recompute only the touched columns and their
//! correlation pairs.

use std::sync::Arc;

use datalens::engine::{Engine, EngineConfig};
use datalens_obs::Registry;
use datalens_profile::{BuildOptions, ProfileCache, ProfileConfig, ProfileReport};
use datalens_table::{CellRef, Column, Table, Value};

/// Mixed-dtype fixture: three numeric columns (with nulls), one
/// categorical, one bool — exercises stats, histograms, alerts and all
/// three correlation matrices, including NaN cells (constant columns
/// are absent, but null-heavy pairs still short-circuit).
fn fixture() -> Table {
    let n = 240;
    let ints: Vec<Option<i64>> = (0..n)
        .map(|i| {
            if i % 11 == 0 {
                None
            } else {
                Some((i as i64 * 37) % 97)
            }
        })
        .collect();
    let floats: Vec<Option<f64>> = (0..n)
        .map(|i| Some((i as f64 * 0.37).sin() * 50.0))
        .collect();
    let drifting: Vec<Option<f64>> = (0..n)
        .map(|i| {
            if i % 13 == 0 {
                None
            } else {
                Some(i as f64 * 1.5 - 30.0)
            }
        })
        .collect();
    let cats = ["red", "green", "blue", "teal"];
    let strs: Vec<Option<&str>> = (0..n)
        .map(|i| if i % 17 == 0 { None } else { Some(cats[i % 4]) })
        .collect();
    let bools: Vec<Option<bool>> = (0..n).map(|i| Some(i % 3 == 0)).collect();
    Table::new(
        "fixture",
        vec![
            Column::from_i64("a", ints),
            Column::from_f64("b", floats),
            Column::from_f64("c", drifting),
            Column::from_str_vals("color", strs),
            Column::from_bool("flag", bools),
        ],
    )
    .unwrap()
}

fn serialized(report: &ProfileReport) -> String {
    serde_json::to_string(report).unwrap()
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let table = fixture();
    let config = ProfileConfig::default();
    let sequential = serialized(&ProfileReport::build(&table, &config));
    for threads in [1, 2, 8] {
        let parallel = serialized(&ProfileReport::build_with(
            &table,
            &config,
            &BuildOptions {
                threads,
                cache: None,
            },
        ));
        assert_eq!(sequential, parallel, "threads={threads} diverged");
    }
}

#[test]
fn hospital_and_beers_reports_are_bit_identical_across_threads() {
    let config = ProfileConfig::default();
    for name in ["hospital", "beers"] {
        let dd = datalens_datasets::registry::dirty(name, 0).unwrap();
        let cache = ProfileCache::new();
        let baseline = serialized(&ProfileReport::build(&dd.dirty, &config));
        for threads in [1, 2, 8] {
            for cache_opt in [None, Some(&cache)] {
                let got = serialized(&ProfileReport::build_with(
                    &dd.dirty,
                    &config,
                    &BuildOptions {
                        threads,
                        cache: cache_opt,
                    },
                ));
                assert_eq!(baseline, got, "{name} diverged at threads={threads}");
            }
        }
    }
}

#[test]
fn warm_cache_rebuild_is_bit_identical() {
    let table = fixture();
    let config = ProfileConfig::default();
    let cache = ProfileCache::new();
    let opts = BuildOptions {
        threads: 4,
        cache: Some(&cache),
    };
    let cold = serialized(&ProfileReport::build_with(&table, &config, &opts));
    let after_cold = cache.stats();
    assert_eq!(
        after_cold.column_misses, 5,
        "cold build computes every column"
    );
    assert_eq!(after_cold.pair_misses, 6, "3 pearson + 3 spearman pairs");

    let warm = serialized(&ProfileReport::build_with(&table, &config, &opts));
    assert_eq!(cold, warm, "warm rebuild must be bit-identical");
    let after_warm = cache.stats();
    assert_eq!(after_warm.column_hits - after_cold.column_hits, 5);
    assert_eq!(after_warm.pair_hits - after_cold.pair_hits, 6);
    assert_eq!(after_warm.column_misses, after_cold.column_misses);
    assert_eq!(after_warm.pair_misses, after_cold.pair_misses);
}

#[test]
fn reprofile_after_repair_recomputes_only_touched_columns() {
    let mut table = fixture();
    let engine = Engine::new(EngineConfig {
        threads: 2,
        seed: 0,
    });
    let (first, _) = engine.profile(&table);
    let before = engine.profile_cache().stats();

    // Simulate a repair touching a single cell of column "b" (index 1):
    // copy-on-write leaves every other column's Arc untouched.
    table.set(CellRef::new(7, 1), Value::Float(123.5)).unwrap();
    let (second, _) = engine.profile(&table);
    let after = engine.profile_cache().stats();

    assert_eq!(
        after.column_misses - before.column_misses,
        1,
        "only the repaired column is re-profiled"
    );
    assert_eq!(after.column_hits - before.column_hits, 4);
    // Correlation pairs touching "b": (a,b) and (b,c) under pearson and
    // spearman each; (a,c) stays cached.
    assert_eq!(after.pair_misses - before.pair_misses, 4);
    assert_eq!(after.pair_hits - before.pair_hits, 2);

    // The untouched columns' profiles are identical; the repaired one
    // actually changed.
    assert_eq!(
        serde_json::to_string(&first.columns[0]).unwrap(),
        serde_json::to_string(&second.columns[0]).unwrap()
    );
    assert_ne!(
        serde_json::to_string(&first.columns[1]).unwrap(),
        serde_json::to_string(&second.columns[1]).unwrap()
    );
}

#[test]
fn cache_counters_flow_into_the_metrics_registry() {
    let registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        threads: 2,
        seed: 0,
    })
    .with_metrics(Some(Arc::clone(&registry)));
    let table = fixture();
    engine.profile(&table);
    engine.profile(&table);

    let stats = engine.profile_cache().stats();
    assert_eq!(
        registry.counter("profile_cache_hits_total").get(),
        stats.hits()
    );
    assert_eq!(
        registry.counter("profile_cache_misses_total").get(),
        stats.misses()
    );
    // Second run was fully warm: 5 column + 6 pair hits. The cold run
    // missed 5 columns, 6 pairs, and 4 per-chunk numeric partials (one
    // chunk for each of a, b, c, flag; "color" has no numeric stats).
    assert_eq!(stats.hits(), 11);
    assert_eq!(stats.misses(), 15);
}

#[test]
fn reprofile_after_repair_recomputes_only_touched_chunk() {
    let n = 240;
    let vals: Vec<Option<f64>> = (0..n).map(|i| Some(i as f64 * 0.25 - 9.0)).collect();
    let col = Column::from_f64("x", vals).rechunk(60); // 4 chunks of 60 rows
    let mut table = Table::new("t", vec![col]).unwrap();

    let cache = ProfileCache::new();
    let config = ProfileConfig::default();
    let opts = BuildOptions {
        threads: 1,
        cache: Some(&cache),
    };
    ProfileReport::build_with(&table, &config, &opts);
    let before = cache.stats();
    assert_eq!(before.chunk_misses, 4, "cold build computes every chunk");

    // Edit one cell in the third chunk: COW detaches only that chunk,
    // so the rebuild reuses the other three partials and re-derives the
    // column profile from the merged fold.
    table.set(CellRef::new(130, 0), Value::Float(1e6)).unwrap();
    ProfileReport::build_with(&table, &config, &opts);
    let after = cache.stats();

    assert_eq!(
        after.chunk_misses - before.chunk_misses,
        1,
        "only the edited chunk's partial is recomputed"
    );
    assert_eq!(after.chunk_hits - before.chunk_hits, 3);
    assert_eq!(after.column_misses - before.column_misses, 1);
}

/// Edge-case fixture for the incremental refresh: integer ties, floats
/// with NaN, ±Inf, −0.0/0.0 and repeated values, nulls everywhere, and
/// rows 200.. repeating rows 0.. so the table has duplicate rows.
fn edge_fixture() -> Table {
    let n = 240;
    let base = |i: usize| if i >= 200 { i - 200 } else { i };
    let ints: Vec<Option<i64>> = (0..n)
        .map(|i| match base(i) {
            r if r % 9 == 0 => None,
            r => Some((r % 7) as i64),
        })
        .collect();
    let edge = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 2.5];
    let floats: Vec<Option<f64>> = (0..n)
        .map(|i| match base(i) {
            r if r % 13 == 0 => None,
            r if r % 5 == 0 => Some(edge[r % edge.len()]),
            r => Some(((r * 17) % 23) as f64 * 0.5),
        })
        .collect();
    let smooth: Vec<Option<f64>> = (0..n)
        .map(|i| match base(i) {
            r if r % 11 == 0 => None,
            r => Some((r as f64 * 0.37).sin() * 50.0),
        })
        .collect();
    let cats = ["red", "green", "blue"];
    let strs: Vec<Option<&str>> = (0..n)
        .map(|i| match base(i) {
            r if r % 17 == 0 => None,
            r => Some(cats[r % 3]),
        })
        .collect();
    let bools: Vec<Option<bool>> = (0..n).map(|i| Some(base(i) % 4 == 0)).collect();
    Table::new(
        "edges",
        vec![
            Column::from_i64("a", ints),
            Column::from_f64("b", floats),
            Column::from_f64("c", smooth),
            Column::from_str_vals("color", strs),
            Column::from_bool("flag", bools),
        ],
    )
    .unwrap()
}

/// The interactive refresh loop: after each single-cell edit, a warm
/// rebuild at 1, 2 and 8 threads serializes byte-identical to a cold
/// build, and a numeric edit re-sorts exactly one column (the edited
/// one) for Spearman — every other order comes from the memo.
#[test]
fn incremental_refresh_after_single_cell_edits_matches_cold_build() {
    let mut table = edge_fixture();
    assert!(table.duplicate_rows().len() >= 40, "fixture has duplicates");
    let config = ProfileConfig::default();
    let caches: Vec<ProfileCache> = (0..3).map(|_| ProfileCache::new()).collect();
    let threads = [1, 2, 8];
    let build = |table: &Table, k: usize| {
        serialized(&ProfileReport::build_with(
            table,
            &config,
            &BuildOptions {
                threads: threads[k],
                cache: Some(&caches[k]),
            },
        ))
    };
    let cold = serialized(&ProfileReport::build(&table, &config));
    for k in 0..3 {
        assert_eq!(
            build(&table, k),
            cold,
            "first build at threads={}",
            threads[k]
        );
        assert_eq!(caches[k].stats().sort_misses, 3, "a, b, c sorted once");
    }

    let edits = [
        (5, "b", Value::Float(-0.0)),
        (17, "a", Value::Int(5)),
        (30, "c", Value::Float(f64::NAN)),
        (8, "color", Value::Str("teal".into())),
        (201, "b", Value::Null),
        (44, "c", Value::Float(2.5)),
        (3, "flag", Value::Bool(true)),
        (60, "b", Value::Float(f64::INFINITY)),
        (2, "a", Value::Null),
        (12, "c", Value::Float(0.0)),
    ];
    for (row, name, value) in edits {
        let col = table.column_index(name).unwrap();
        let cell = CellRef::new(row, col);
        assert_ne!(
            table.get(cell).unwrap(),
            value,
            "edit must change {name}[{row}]"
        );
        table.set(cell, value).unwrap();
        let numeric = table.columns()[col].dtype().is_numeric();

        let cold = serialized(&ProfileReport::build(&table, &config));
        for k in 0..3 {
            let before = caches[k].stats();
            let warm = build(&table, k);
            let after = caches[k].stats();
            assert_eq!(
                warm, cold,
                "warm rebuild after editing {name}[{row}] diverged at threads={}",
                threads[k]
            );
            assert_eq!(
                after.sort_misses - before.sort_misses,
                u64::from(numeric),
                "editing {name} re-sorts {} column(s)",
                u64::from(numeric)
            );
            if numeric {
                assert_eq!(after.sort_hits - before.sort_hits, 2);
            }
        }
    }
    for cache in &caches {
        assert!(
            cache.cached_sort_orders() <= 6,
            "sort-order memo stays within twice the numeric columns"
        );
    }
}
