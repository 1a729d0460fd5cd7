//! Correlation measures between columns: Pearson, Spearman, and Cramér's V
//! — the three families ydata-profiling reports and the Data Profile tab
//! surfaces.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use datalens_table::{ChunkValues, Column, DataType, Table};

use crate::cache::ProfileCache;
use crate::report::map_indexed;
use crate::stats::total_order_key;

/// Pearson correlation over pairwise-complete finite pairs; `None` when
/// fewer than two such pairs exist or either side is constant. Pairs with
/// a NaN or ±Inf member are dropped like nulls — a single non-finite
/// entry used to poison the whole coefficient to NaN.
pub fn pearson(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "length mismatch");
    pearson_dense(&dense(x), &dense(y))
}

/// `x` with nulls as NaN: the kernels drop non-finite members anyway,
/// so a null and a NaN behave alike.
fn dense(x: &[Option<f64>]) -> Vec<f64> {
    x.iter().map(|v| v.unwrap_or(f64::NAN)).collect()
}

/// A numeric column decoded straight from its chunk buffers, nulls as
/// NaN (booleans as 0/1).
fn dense_column(col: &Column) -> Vec<f64> {
    let mut out = Vec::with_capacity(col.len());
    for chunk in col.chunks() {
        let start = out.len();
        match chunk.values() {
            ChunkValues::Int(v) => out.extend(v.iter().map(|x| *x as f64)),
            ChunkValues::Float(v) => out.extend_from_slice(v),
            ChunkValues::Bool(v) => out.extend(v.iter().map(|x| f64::from(u8::from(*x)))),
            ChunkValues::Str { .. } => out.resize(start + chunk.len(), f64::NAN),
        }
        if chunk.null_count() > 0 {
            for (i, x) in out[start..].iter_mut().enumerate() {
                if !chunk.is_valid(i) {
                    *x = f64::NAN;
                }
            }
        }
    }
    out
}

/// Pearson over two dense series, keeping the rows where both members
/// are finite.
fn pearson_dense(x: &[f64], y: &[f64]) -> Option<f64> {
    pearson_over(|| {
        x.iter()
            .zip(y)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .map(|(a, b)| (*a, *b))
    })
}

/// Pearson over the `(x, y)` pairs that `pairs()` yields, re-walked
/// once per pass instead of collected. `None` below two pairs or when
/// either side is constant.
fn pearson_over<I: Iterator<Item = (f64, f64)>>(pairs: impl Fn() -> I) -> Option<f64> {
    let count = pairs().count();
    if count < 2 {
        return None;
    }
    let n = count as f64;
    let mx = pairs().map(|(a, _)| a).sum::<f64>() / n;
    let my = pairs().map(|(_, b)| b).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (a, b) in pairs() {
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
        sxy += (a - mx) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation (Pearson over average ranks, handling ties).
/// Non-finite members are dropped pairwise, as in [`pearson`] — NaN is
/// unrankable and ±Inf would pin the extreme ranks.
pub fn spearman(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "length mismatch");
    spearman_sorted(
        &SortOrder::of_dense(&dense(x)),
        &SortOrder::of_dense(&dense(y)),
    )
}

/// One numeric column argsorted once: the rows holding a finite value,
/// ascending by value (ties by row), where each run of equal values
/// starts, and which rows are finite. Any pair's pairwise-complete
/// ranks follow from two of these by an O(rows) walk, so a Spearman
/// pair never sorts.
#[derive(Debug)]
pub(crate) struct SortOrder {
    /// Rows with a finite value, in value order.
    rows: Vec<u32>,
    /// Bit `k` set: `rows[k]`'s value differs from `rows[k - 1]`'s.
    group_starts: Vec<u64>,
    /// Bit `r` set: row `r` holds a finite value. One word per 64 rows
    /// of the column.
    finite: Vec<u64>,
}

impl SortOrder {
    /// Argsort the finite entries of `values` (nulls as NaN).
    pub(crate) fn of_dense(values: &[f64]) -> SortOrder {
        let mut finite = vec![0u64; values.len().div_ceil(64)];
        let mut entries: Vec<(u64, u32)> = Vec::with_capacity(values.len());
        for (r, v) in values.iter().enumerate().filter(|(_, v)| v.is_finite()) {
            finite[r / 64] |= 1 << (r % 64);
            entries.push((total_order_key(*v), r as u32));
        }
        entries.sort_unstable();
        let mut group_starts = vec![0u64; entries.len().div_ceil(64)];
        let mut prev: Option<f64> = None;
        for (k, (_, r)) in entries.iter().enumerate() {
            let v = values[*r as usize];
            // `!=`, not total order: −0.0 and 0.0 share a tie group.
            if prev != Some(v) {
                group_starts[k / 64] |= 1 << (k % 64);
            }
            prev = Some(v);
        }
        SortOrder {
            rows: entries.into_iter().map(|(_, r)| r).collect(),
            group_starts,
            finite,
        }
    }

    /// Argsort one numeric column.
    pub(crate) fn of_column(col: &Column) -> SortOrder {
        SortOrder::of_dense(&dense_column(col))
    }

    /// Average ranks of the kept rows, ranking among those rows only.
    /// `slots[row]` is the row's index among the kept rows in row order
    /// ([`DROPPED`] when not kept), where its rank is written in `out`.
    /// Tie runs are the value runs of the full order restricted to the
    /// kept rows, so the ranks equal those of sorting the kept values
    /// themselves.
    fn masked_ranks(&self, slots: &[u32], out: &mut [f64]) {
        // The average of 1-based ranks `first + 1 ..= first + n`.
        let avg_rank = |first: usize, n: usize| (first + first + n - 1) as f64 / 2.0 + 1.0;
        let len = self.rows.len();
        let ends_run =
            |i: usize| i + 1 == len || (self.group_starts[(i + 1) / 64] >> ((i + 1) % 64)) & 1 == 1;
        let mut pos = 0usize;
        let mut k = 0;
        while k < len {
            if ends_run(k) {
                // A run of one, the common case: no scan for its end and
                // no counting pass, so `k` just steps.
                let s = slots[self.rows[k] as usize];
                if s != DROPPED {
                    out[s as usize] = avg_rank(pos, 1);
                    pos += 1;
                }
                k += 1;
            } else {
                let mut end = k + 1;
                while !ends_run(end) {
                    end += 1;
                }
                let group = &self.rows[k..=end];
                let n = group
                    .iter()
                    .filter(|r| slots[**r as usize] != DROPPED)
                    .count();
                if n > 0 {
                    let rank = avg_rank(pos, n);
                    for r in group {
                        let s = slots[*r as usize];
                        if s != DROPPED {
                            out[s as usize] = rank;
                        }
                    }
                    pos += n;
                }
                k = end + 1;
            }
        }
    }
}

/// Marks a row outside the pairwise-complete set in a slot map.
const DROPPED: u32 = u32::MAX;

/// Spearman from two presorted columns: pairwise-complete average ranks
/// by a masked walk of each order, then Pearson over the ranks in row
/// order.
fn spearman_sorted(x: &SortOrder, y: &SortOrder) -> Option<f64> {
    assert_eq!(x.finite.len(), y.finite.len(), "length mismatch");
    let mut slots = vec![DROPPED; x.finite.len() * 64];
    let mut kept = 0u32;
    for (w, (a, b)) in x.finite.iter().zip(&y.finite).enumerate() {
        let mut both = a & b;
        while both != 0 {
            slots[w * 64 + both.trailing_zeros() as usize] = kept;
            kept += 1;
            both &= both - 1;
        }
    }
    let mut rx = vec![0.0; kept as usize];
    let mut ry = vec![0.0; kept as usize];
    x.masked_ranks(&slots, &mut rx);
    y.masked_ranks(&slots, &mut ry);
    pearson_over(|| rx.iter().copied().zip(ry.iter().copied()))
}

/// Marks a null cell in [`LevelCodes`].
const NULL_CODE: u32 = u32::MAX;

/// A categorical series as indices into its distinct strings, which are
/// numbered in sorted-string order.
struct LevelCodes {
    codes: Vec<u32>,
    levels: usize,
}

impl LevelCodes {
    fn of_strings(x: &[Option<String>]) -> LevelCodes {
        let mut levels: Vec<&str> = x.iter().flatten().map(String::as_str).collect();
        levels.sort_unstable();
        levels.dedup();
        let codes = x
            .iter()
            .map(|v| match v {
                Some(s) => levels.partition_point(|l| *l < s.as_str()) as u32,
                None => NULL_CODE,
            })
            .collect();
        LevelCodes {
            codes,
            levels: levels.len(),
        }
    }

    /// Re-code a string column's per-chunk dictionary codes into one
    /// sorted level numbering; each dictionary entry is looked up once.
    fn of_column(col: &Column) -> LevelCodes {
        let mut levels: Vec<&str> = Vec::new();
        for chunk in col.chunks() {
            if let ChunkValues::Str { dict, .. } = chunk.values() {
                levels.extend(dict.iter().map(String::as_str));
            }
        }
        levels.sort_unstable();
        levels.dedup();
        let mut codes = Vec::with_capacity(col.len());
        for chunk in col.chunks() {
            if let ChunkValues::Str { dict, codes: local } = chunk.values() {
                let to_level: Vec<u32> = dict
                    .iter()
                    .map(|s| levels.partition_point(|l| *l < s.as_str()) as u32)
                    .collect();
                codes.extend(local.iter().enumerate().map(|(i, c)| {
                    if chunk.is_valid(i) {
                        to_level[*c as usize]
                    } else {
                        NULL_CODE
                    }
                }));
            } else {
                codes.extend(std::iter::repeat_n(NULL_CODE, chunk.len()));
            }
        }
        LevelCodes {
            codes,
            levels: levels.len(),
        }
    }
}

/// Cramér's V between two categorical variables (bias-corrected per
/// Bergsma 2013, as ydata-profiling uses). `None` when either variable has
/// a single level or there are no complete pairs.
pub fn cramers_v(x: &[Option<String>], y: &[Option<String>]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "length mismatch");
    cramers_v_levels(&LevelCodes::of_strings(x), &LevelCodes::of_strings(y))
}

/// Renumber the levels marked in `slots` (anything but [`NULL_CODE`])
/// densely, keeping their order; returns how many there are.
fn compact_levels(slots: &mut [u32]) -> usize {
    let mut next = 0u32;
    for s in slots.iter_mut().filter(|s| **s != NULL_CODE) {
        *s = next;
        next += 1;
    }
    next as usize
}

/// Cramér's V over level codes. The contingency table keeps only the
/// levels that occur in complete pairs, in sorted-string order, so the
/// χ² sum runs in the same order as over the strings themselves.
fn cramers_v_levels(x: &LevelCodes, y: &LevelCodes) -> Option<f64> {
    assert_eq!(x.codes.len(), y.codes.len(), "length mismatch");
    let complete = || {
        x.codes
            .iter()
            .zip(&y.codes)
            .filter(|(a, b)| **a != NULL_CODE && **b != NULL_CODE)
            .map(|(a, b)| (*a as usize, *b as usize))
    };
    let mut xs = vec![NULL_CODE; x.levels];
    let mut ys = vec![NULL_CODE; y.levels];
    let mut pairs = 0usize;
    for (a, b) in complete() {
        xs[a] = 0;
        ys[b] = 0;
        pairs += 1;
    }
    if pairs == 0 {
        return None;
    }
    let r = compact_levels(&mut xs);
    let k = compact_levels(&mut ys);
    if r < 2 || k < 2 {
        return None;
    }
    let n = pairs as f64;
    let mut observed = vec![vec![0.0f64; k]; r];
    for (a, b) in complete() {
        observed[xs[a] as usize][ys[b] as usize] += 1.0;
    }
    let row_sums: Vec<f64> = observed.iter().map(|row| row.iter().sum()).collect();
    let col_sums: Vec<f64> = (0..k)
        .map(|j| observed.iter().map(|row| row[j]).sum())
        .collect();
    let mut chi2 = 0.0;
    for i in 0..r {
        for j in 0..k {
            let expected = row_sums[i] * col_sums[j] / n;
            if expected > 0.0 {
                chi2 += (observed[i][j] - expected).powi(2) / expected;
            }
        }
    }
    // Bias correction.
    let phi2 = chi2 / n;
    let phi2_corr = (phi2 - (r as f64 - 1.0) * (k as f64 - 1.0) / (n - 1.0)).max(0.0);
    let r_corr = r as f64 - (r as f64 - 1.0).powi(2) / (n - 1.0);
    let k_corr = k as f64 - (k as f64 - 1.0).powi(2) / (n - 1.0);
    let denom = (r_corr - 1.0).min(k_corr - 1.0);
    if denom <= 0.0 {
        return None;
    }
    Some((phi2_corr / denom).sqrt().min(1.0))
}

/// A symmetric correlation matrix with column labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    pub columns: Vec<String>,
    /// `values[i][j]` = correlation between `columns[i]` and `columns[j]`,
    /// `NaN` where undefined.
    pub values: Vec<Vec<f64>>,
}

impl CorrelationMatrix {
    pub fn get(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.columns.iter().position(|c| c == a)?;
        let j = self.columns.iter().position(|c| c == b)?;
        let v = self.values[i][j];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }
}

/// Which correlation to compute across a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrelationKind {
    Pearson,
    Spearman,
    CramersV,
}

/// Compute a correlation matrix across the relevant columns of `table`:
/// numeric columns for Pearson/Spearman, string columns for Cramér's V.
/// Sequential and uncached; the same kernel as the profile report's.
pub fn correlation_matrix(table: &Table, kind: CorrelationKind) -> CorrelationMatrix {
    let [matrix] = correlation_matrices(table, [kind], 1, None);
    matrix
}

/// Compute one matrix per entry of `kinds`. Every upper-triangle
/// `(kind, i, j)` pair is one task: tasks are first looked up in
/// `cache`, then the missed tasks fan out across `threads`, decoding
/// only the columns they touch (dense series for Pearson, sort orders
/// for Spearman — memoised by fingerprint when `cache` is given —
/// sorted level codes for Cramér's V). Assembly is by task index, so
/// the result does not depend on thread count or cache state.
pub(crate) fn correlation_matrices<const K: usize>(
    table: &Table,
    kinds: [CorrelationKind; K],
    threads: usize,
    cache: Option<&ProfileCache>,
) -> [CorrelationMatrix; K] {
    let num_cols: Vec<&Column> = table
        .columns()
        .iter()
        .filter(|c| c.dtype().is_numeric())
        .collect();
    let str_cols: Vec<&Column> = table
        .columns()
        .iter()
        .filter(|c| c.dtype() == DataType::Str)
        .collect();
    // Content fingerprints key the pair and sort-order caches; the
    // pointer fast path makes this O(1) for columns already seen.
    let fps_of = |cols: &[&Column]| -> Vec<u64> {
        match cache {
            Some(cache) => cols.iter().map(|c| cache.fingerprint_of(c)).collect(),
            None => Vec::new(),
        }
    };
    let (num_fps, str_fps) = (fps_of(&num_cols), fps_of(&str_cols));
    let side = |kind: CorrelationKind| match kind {
        CorrelationKind::CramersV => (&str_cols, &str_fps),
        _ => (&num_cols, &num_fps),
    };

    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for (m, &kind) in kinds.iter().enumerate() {
        let n = side(kind).0.len();
        for i in 0..n {
            for j in (i + 1)..n {
                tasks.push((m, i, j));
            }
        }
    }
    let mut values: Vec<f64> = vec![f64::NAN; tasks.len()];
    let mut missed: Vec<usize> = Vec::new();
    let mut needs_order = vec![false; num_cols.len()];
    for (t, &(m, i, j)) in tasks.iter().enumerate() {
        let kind = kinds[m];
        let fps = side(kind).1;
        match cache.and_then(|c| c.get_pair(kind, fps[i], fps[j])) {
            Some(v) => values[t] = v,
            None => {
                missed.push(t);
                if kind == CorrelationKind::Spearman {
                    needs_order[i] = true;
                    needs_order[j] = true;
                }
            }
        }
    }

    // Each column is decoded on first use by a missed task, at most once.
    let dense: Vec<OnceLock<Vec<f64>>> = num_cols.iter().map(|_| OnceLock::new()).collect();
    let levels: Vec<OnceLock<LevelCodes>> = str_cols.iter().map(|_| OnceLock::new()).collect();
    let orders: Vec<OnceLock<Arc<SortOrder>>> = num_cols.iter().map(|_| OnceLock::new()).collect();
    let fresh_orders = match cache {
        Some(cache) => memoised_orders(cache, &num_fps, &needs_order, &orders),
        None => Vec::new(),
    };

    let computed: Vec<f64> = map_indexed(missed.len(), threads, |u| {
        let (m, i, j) = tasks[missed[u]];
        let kind = kinds[m];
        let v = match kind {
            CorrelationKind::Pearson => {
                let x = |c: usize| dense[c].get_or_init(|| dense_column(num_cols[c]));
                pearson_dense(x(i), x(j))
            }
            CorrelationKind::Spearman => {
                let x = |c: usize| {
                    orders[c].get_or_init(|| Arc::new(SortOrder::of_column(num_cols[c])))
                };
                spearman_sorted(x(i), x(j))
            }
            CorrelationKind::CramersV => {
                let x = |c: usize| levels[c].get_or_init(|| LevelCodes::of_column(str_cols[c]));
                cramers_v_levels(x(i), x(j))
            }
        }
        .unwrap_or(f64::NAN);
        if let Some(cache) = cache {
            let fps = side(kind).1;
            cache.put_pair(kind, fps[i], fps[j], v);
        }
        v
    });
    for (&t, v) in missed.iter().zip(computed) {
        values[t] = v;
    }
    if let Some(cache) = cache {
        for i in fresh_orders {
            if let Some(order) = orders[i].get() {
                cache.put_sort_order(num_fps[i], Arc::clone(order));
            }
        }
        if needs_order.contains(&true) {
            cache.retain_sort_orders(2 * num_cols.len());
        }
    }

    let mut matrices = kinds.map(|kind| {
        unit_diagonal_matrix(side(kind).0.iter().map(|c| c.name().to_string()).collect())
    });
    for (&(m, i, j), &v) in tasks.iter().zip(&values) {
        matrices[m].values[i][j] = v;
        matrices[m].values[j][i] = v;
    }
    matrices
}

/// Fill `orders` for the flagged columns from the sort-order memo. Each
/// distinct fingerprint is looked up once, so hit/miss counts do not
/// depend on scheduling, and a column repeating an earlier column's
/// content shares its order. Returns the columns left to sort; the
/// caller stores their orders once computed.
fn memoised_orders(
    cache: &ProfileCache,
    fps: &[u64],
    flagged: &[bool],
    orders: &[OnceLock<Arc<SortOrder>>],
) -> Vec<usize> {
    let mut first_of: HashMap<u64, usize> = HashMap::new();
    let mut fresh = Vec::new();
    for i in (0..fps.len()).filter(|&i| flagged[i]) {
        if let Some(&f) = first_of.get(&fps[i]) {
            if let Some(order) = orders[f].get() {
                let _ = orders[i].set(Arc::clone(order));
            }
            continue;
        }
        first_of.insert(fps[i], i);
        match cache.get_sort_order(fps[i]) {
            Some(order) => {
                let _ = orders[i].set(order);
            }
            None => fresh.push(i),
        }
    }
    fresh
}

/// An all-NaN matrix over `columns` with ones on the diagonal.
fn unit_diagonal_matrix(columns: Vec<String>) -> CorrelationMatrix {
    let n = columns.len();
    let mut values = vec![vec![f64::NAN; n]; n];
    for (i, row) in values.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    CorrelationMatrix { columns, values }
}

/// The collect-then-sum Pearson, the sort-per-pair Spearman and the
/// string-keyed Cramér's V this module replaced, kept as
/// differential-test oracles.
#[cfg(test)]
pub(crate) mod reference {
    fn finite_pairs(x: &[Option<f64>], y: &[Option<f64>]) -> Vec<(f64, f64)> {
        x.iter()
            .zip(y)
            .filter_map(|(a, b)| Some(((*a)?, (*b)?)))
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .collect()
    }

    pub(crate) fn spearman(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        assert_eq!(x.len(), y.len(), "length mismatch");
        let pairs = finite_pairs(x, y);
        if pairs.len() < 2 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|(a, _)| *a).collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, b)| *b).collect();
        let rx = ranks(&xs);
        let ry = ranks(&ys);
        let ranked: Vec<(f64, f64)> = rx.into_iter().zip(ry).collect();
        pearson_complete(&ranked)
    }

    pub(crate) fn pearson(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        assert_eq!(x.len(), y.len(), "length mismatch");
        pearson_complete(&finite_pairs(x, y))
    }

    fn pearson_complete(pairs: &[(f64, f64)]) -> Option<f64> {
        if pairs.len() < 2 {
            return None;
        }
        let n = pairs.len() as f64;
        let mx = pairs.iter().map(|(a, _)| a).sum::<f64>() / n;
        let my = pairs.iter().map(|(_, b)| b).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for (a, b) in pairs {
            sxx += (a - mx) * (a - mx);
            syy += (b - my) * (b - my);
            sxy += (a - mx) * (b - my);
        }
        if sxx == 0.0 || syy == 0.0 {
            return None;
        }
        Some(sxy / (sxx.sqrt() * syy.sqrt()))
    }

    /// Average (fractional) ranks with tie handling.
    pub(crate) fn ranks(values: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut out = vec![0.0; values.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
                j += 1;
            }
            let avg_rank = (i + j) as f64 / 2.0 + 1.0;
            for &idx in &order[i..=j] {
                out[idx] = avg_rank;
            }
            i = j + 1;
        }
        out
    }

    pub(crate) fn cramers_v(x: &[Option<String>], y: &[Option<String>]) -> Option<f64> {
        assert_eq!(x.len(), y.len(), "length mismatch");
        let pairs: Vec<(&String, &String)> = x
            .iter()
            .zip(y)
            .filter_map(|(a, b)| Some((a.as_ref()?, b.as_ref()?)))
            .collect();
        if pairs.is_empty() {
            return None;
        }
        let mut xs: Vec<&String> = pairs.iter().map(|(a, _)| *a).collect();
        xs.sort();
        xs.dedup();
        let mut ys: Vec<&String> = pairs.iter().map(|(_, b)| *b).collect();
        ys.sort();
        ys.dedup();
        let r = xs.len();
        let k = ys.len();
        if r < 2 || k < 2 {
            return None;
        }
        let n = pairs.len() as f64;
        let mut observed = vec![vec![0.0f64; k]; r];
        for (a, b) in &pairs {
            let i = xs.binary_search(a).expect("level present");
            let j = ys.binary_search(b).expect("level present");
            observed[i][j] += 1.0;
        }
        let row_sums: Vec<f64> = observed.iter().map(|row| row.iter().sum()).collect();
        let col_sums: Vec<f64> = (0..k)
            .map(|j| observed.iter().map(|row| row[j]).sum())
            .collect();
        let mut chi2 = 0.0;
        for i in 0..r {
            for j in 0..k {
                let expected = row_sums[i] * col_sums[j] / n;
                if expected > 0.0 {
                    chi2 += (observed[i][j] - expected).powi(2) / expected;
                }
            }
        }
        let phi2 = chi2 / n;
        let phi2_corr = (phi2 - (r as f64 - 1.0) * (k as f64 - 1.0) / (n - 1.0)).max(0.0);
        let r_corr = r as f64 - (r as f64 - 1.0).powi(2) / (n - 1.0);
        let k_corr = k as f64 - (k as f64 - 1.0).powi(2) / (n - 1.0);
        let denom = (r_corr - 1.0).min(k_corr - 1.0);
        if denom <= 0.0 {
            return None;
        }
        Some((phi2_corr / denom).sqrt().min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    fn opt(v: &[f64]) -> Vec<Option<f64>> {
        v.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn pearson_perfect_positive_negative() {
        let x = opt(&[1.0, 2.0, 3.0]);
        let y = opt(&[2.0, 4.0, 6.0]);
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = opt(&[6.0, 4.0, 2.0]);
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_skips_incomplete_pairs() {
        let x = vec![Some(1.0), None, Some(3.0), Some(4.0)];
        let y = vec![Some(1.0), Some(9.0), Some(3.0), Some(4.0)];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_pairs_are_dropped_not_poisonous() {
        // Regression: one NaN (or ±Inf) member used to turn the whole
        // coefficient into NaN (reported as None by the matrix layer).
        let x = vec![Some(1.0), Some(f64::NAN), Some(3.0), Some(4.0)];
        let y = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let inf = vec![Some(f64::INFINITY), Some(2.0), Some(3.0), Some(4.0)];
        assert!((pearson(&inf, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&inf, &y).unwrap() - 1.0).abs() < 1e-12);
        // All pairs non-finite → nothing to correlate.
        let bad = vec![Some(f64::NAN), Some(f64::NEG_INFINITY)];
        assert!(pearson(&bad, &y[..2]).is_none());
    }

    #[test]
    fn pearson_undefined_for_constant() {
        let x = opt(&[1.0, 1.0, 1.0]);
        let y = opt(&[1.0, 2.0, 3.0]);
        assert!(pearson(&x, &y).is_none());
        assert!(pearson(&opt(&[1.0]), &opt(&[2.0])).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = opt(&[1.0, 2.0, 3.0, 4.0]);
        let y = opt(&[1.0, 8.0, 27.0, 64.0]); // x³: nonlinear but monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = opt(&[1.0, 2.0, 2.0, 3.0]);
        let y = opt(&[1.0, 2.0, 2.0, 3.0]);
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(
            reference::ranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn cramers_v_perfect_association() {
        let x: Vec<Option<String>> = ["a", "a", "b", "b", "a", "b", "a", "b"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        let y: Vec<Option<String>> = ["p", "p", "q", "q", "p", "q", "p", "q"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        let v = cramers_v(&x, &y).unwrap();
        assert!(v > 0.9, "v = {v}");
    }

    #[test]
    fn cramers_v_independence_near_zero() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            x.push(Some(if i % 2 == 0 { "a" } else { "b" }.to_string()));
            y.push(Some(if (i / 2) % 2 == 0 { "p" } else { "q" }.to_string()));
        }
        let v = cramers_v(&x, &y).unwrap();
        assert!(v < 0.2, "v = {v}");
    }

    #[test]
    fn cramers_v_single_level_is_none() {
        let x = vec![Some("a".to_string()); 5];
        let y: Vec<Option<String>> = ["p", "q", "p", "q", "p"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        assert!(cramers_v(&x, &y).is_none());
    }

    #[test]
    fn matrix_over_table() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("a", [Some(1.0), Some(2.0), Some(3.0)]),
                Column::from_f64("b", [Some(2.0), Some(4.0), Some(6.0)]),
                Column::from_str_vals("s", [Some("x"), Some("y"), Some("x")]),
            ],
        )
        .unwrap();
        let m = correlation_matrix(&t, CorrelationKind::Pearson);
        assert_eq!(m.columns, vec!["a", "b"]);
        assert!((m.get("a", "b").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.get("a", "a"), Some(1.0));
        assert_eq!(m.get("a", "s"), None);
        let mv = correlation_matrix(&t, CorrelationKind::CramersV);
        assert_eq!(mv.columns, vec!["s"]);
    }
}
