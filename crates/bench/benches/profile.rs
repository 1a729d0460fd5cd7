//! Sequential vs. parallel profiling, plus the warm-cache incremental
//! path (re-profile after a single-column repair). Besides the usual
//! bench printout, emits the timings as `BENCH_profile.json` at the
//! repo root.
//!
//! The warm-cache samples each mutate one cell with a fresh value
//! first, so every sample genuinely recomputes exactly one column (and
//! its correlation pairs, re-sorting only that column for Spearman)
//! rather than replaying a fully-cached build.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use datalens_bench::perf::{merge_speedup, SpeedupMeasurement};
use datalens_profile::{BuildOptions, ProfileCache, ProfileConfig, ProfileReport};
use datalens_table::{CellRef, Column, Table, Value};

const SAMPLES: usize = 7;
const ROWS: usize = 6_000;
const NUM_COLS: usize = 24;
const STR_COLS: usize = 4;

/// Deterministic synthetic table: wide enough that the per-column and
/// per-pair fan-out has real work (24 numeric columns → 552 pearson +
/// spearman cells), no RNG so every run profiles identical content.
fn synthetic_table() -> Table {
    let mut columns = Vec::new();
    for c in 0..NUM_COLS {
        let vals: Vec<Option<f64>> = (0..ROWS)
            .map(|r| {
                if (r + c) % 97 == 0 {
                    None
                } else {
                    Some(((r * (c + 3)) as f64 * 0.137).sin() * 100.0 + c as f64)
                }
            })
            .collect();
        columns.push(Column::from_f64(format!("n{c}"), vals));
    }
    let cats = ["alpha", "beta", "gamma", "delta", "epsilon"];
    for c in 0..STR_COLS {
        let vals: Vec<Option<&str>> = (0..ROWS)
            .map(|r| {
                if (r + c) % 53 == 0 {
                    None
                } else {
                    Some(cats[(r * (c + 2)) % cats.len()])
                }
            })
            .collect();
        columns.push(Column::from_str_vals(format!("s{c}"), vals));
    }
    Table::new("synthetic", columns).expect("columns are same length")
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of a cold (uncached) build.
fn median_build_ms(table: &Table, config: &ProfileConfig, threads: usize) -> f64 {
    median(
        (0..SAMPLES)
            .map(|_| {
                let opts = BuildOptions {
                    threads,
                    cache: None,
                };
                let start = Instant::now();
                std::hint::black_box(ProfileReport::build_with(table, config, &opts));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

fn bench_profile(c: &mut Criterion) {
    let mut table = synthetic_table();
    let config = ProfileConfig::default();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let seq_ms = median_build_ms(&table, &config, 1);
    let par_ms = median_build_ms(&table, &config, threads);

    // Warm-cache incremental path: prime the cache, then per sample
    // repair one cell (fresh value each time, cycling through columns)
    // and re-profile. Each sample recomputes exactly one column and one
    // Spearman sort order.
    let cache = ProfileCache::new();
    let opts = BuildOptions {
        threads,
        cache: Some(&cache),
    };
    std::hint::black_box(ProfileReport::build_with(&table, &config, &opts));
    let mut recomputed_columns = Vec::new();
    let mut recomputed_sort_orders = Vec::new();
    let warm_ms = median(
        (0..SAMPLES)
            .map(|i| {
                table
                    .set(
                        CellRef::new(i % ROWS, i % NUM_COLS),
                        Value::Float(1.0e6 + i as f64),
                    )
                    .expect("cell in range");
                let before = cache.stats();
                let start = Instant::now();
                std::hint::black_box(ProfileReport::build_with(&table, &config, &opts));
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let after = cache.stats();
                recomputed_columns.push(after.column_misses - before.column_misses);
                recomputed_sort_orders.push(after.sort_misses - before.sort_misses);
                ms
            })
            .collect(),
    );

    let measurement = SpeedupMeasurement {
        sequential_ms: seq_ms,
        parallel_ms: par_ms,
        sequential_workers: 1,
        parallel_workers: threads,
        available_parallelism: threads,
    };
    println!(
        "profile {}×{}: sequential {seq_ms:.2} ms, parallel {par_ms:.2} ms ({threads} threads){}, \
         warm-cache single-column repair {warm_ms:.2} ms (recomputed {:?} columns, {:?} sort orders/sample)",
        table.n_rows(),
        table.n_cols(),
        if measurement.is_degenerate() {
            " → speedup n/a (degenerate pool)".to_string()
        } else {
            format!(" → {:.2}×", seq_ms / par_ms)
        },
        recomputed_columns,
        recomputed_sort_orders,
    );

    let json = merge_speedup(
        serde_json::json!({
            "benchmark": "profile_parallel_and_memoised",
            "dataset": "synthetic",
            "rows": table.n_rows(),
            "cols": table.n_cols(),
            "samples": SAMPLES,
            "warm_cache_ms": warm_ms,
            "warm_cache_speedup_vs_sequential": seq_ms / warm_ms,
            "warm_cache_columns_recomputed_per_sample": recomputed_columns,
            "warm_cache_sort_orders_recomputed_per_sample": recomputed_sort_orders,
            "sequential_rows_per_sec": table.n_rows() as f64 / (seq_ms / 1e3),
            "parallel_rows_per_sec": table.n_rows() as f64 / (par_ms / 1e3),
        }),
        &measurement,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&json).expect("render json"),
    )
    .expect("write BENCH_profile.json");
    println!("wrote {out}");

    // Also register the variants with the harness for its report.
    let mut group = c.benchmark_group("profile");
    group.sample_size(SAMPLES);
    group.bench_function("build_sequential", |b| {
        b.iter(|| {
            ProfileReport::build_with(
                &table,
                &config,
                &BuildOptions {
                    threads: 1,
                    cache: None,
                },
            )
        })
    });
    group.bench_function("build_parallel", |b| {
        b.iter(|| {
            ProfileReport::build_with(
                &table,
                &config,
                &BuildOptions {
                    threads,
                    cache: None,
                },
            )
        })
    });
    group.bench_function("build_warm_cache", |b| {
        b.iter(|| ProfileReport::build_with(&table, &config, &opts))
    });
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
