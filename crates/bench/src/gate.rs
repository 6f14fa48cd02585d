//! Post-run gates: the thresholds that only hold in a quiet process.
//!
//! Most experiments assert their gates while they run (S2/S5/S6/S7
//! determinism, S4/S6 warm-beats-cold, S5 tour quality), so they fail
//! under `cargo test` as well. Two figures cannot: S3's profiling overhead
//! is a wall-clock ratio that concurrent tests distort, and S8's
//! allocations per delta are process-wide counts that concurrent tests
//! inflate. The `experiments` binary, which runs one experiment at a time,
//! passes every table it produces to [`check`] and exits non-zero naming
//! each violation.

use crate::alloc::GATE_N;
use crate::table::Table;
use crate::{alloc, profile};

/// Largest accepted S3 `overhead_pct` (profiling on vs off), in percent.
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// Largest accepted ratio of a fresh S8 `allocs_per_delta` to the
/// committed baseline.
const MAX_ALLOC_RATIO: f64 = 1.10;

/// The committed S8 table the allocation gate compares against.
const ALLOC_BASELINE: &str = include_str!("../../../BENCH_alloc.json");

/// Violations of the post-run gates in one experiment's table; empty for
/// tables that carry no post-run gate.
pub fn check(t: &Table) -> Vec<String> {
    match t.id.as_str() {
        profile::TABLE_ID => check_overhead(t),
        alloc::TABLE_ID => match allocs_at_gate_n(&baseline()) {
            Some(base) => check_allocs(t, base),
            None => vec![format!(
                "BENCH_alloc.json has no allocs_per_delta at n = {GATE_N}"
            )],
        },
        _ => Vec::new(),
    }
}

/// The committed S8 baseline table.
///
/// # Panics
/// Panics if `BENCH_alloc.json` is not a serialized [`Table`].
fn baseline() -> Table {
    serde_json::from_str(ALLOC_BASELINE).expect("BENCH_alloc.json is a serialized Table")
}

/// S3: every row's profiling overhead is at most [`MAX_OVERHEAD_PCT`].
fn check_overhead(t: &Table) -> Vec<String> {
    let Some(i) = t.col("overhead_pct") else {
        return vec![format!("{}: no overhead_pct column", t.id)];
    };
    if t.rows.is_empty() {
        return vec![format!("{}: no rows", t.id)];
    }
    t.rows
        .iter()
        .filter(|row| row[i].is_nan() || row[i] > MAX_OVERHEAD_PCT)
        .map(|row| {
            format!(
                "{}: profiling overhead {:.2}% exceeds {MAX_OVERHEAD_PCT}%",
                t.id, row[i]
            )
        })
        .collect()
}

/// S8: the fresh `allocs_per_delta` at [`GATE_N`] is at most
/// [`MAX_ALLOC_RATIO`] × `baseline`.
fn check_allocs(t: &Table, baseline: f64) -> Vec<String> {
    let Some(fresh) = allocs_at_gate_n(t) else {
        return vec![format!("{}: no allocs_per_delta at n = {GATE_N}", t.id)];
    };
    let limit = baseline * MAX_ALLOC_RATIO;
    if fresh <= limit {
        Vec::new()
    } else {
        vec![format!(
            "{}: {fresh:.0} allocs per delta at n = {GATE_N} exceeds {limit:.0} \
             ({MAX_ALLOC_RATIO}x the committed {baseline:.0})",
            t.id
        )]
    }
}

/// `allocs_per_delta` of the `n_sensors == GATE_N` row, if any.
fn allocs_at_gate_n(t: &Table) -> Option<f64> {
    let n = t.col("n_sensors")?;
    let a = t.col("allocs_per_delta")?;
    t.rows.iter().find(|r| r[n] == GATE_N as f64).map(|r| r[a])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overhead(pct: f64) -> Table {
        let mut t = Table::new(profile::TABLE_ID, "S3", &["n_sensors", "overhead_pct"]);
        t.push_row(vec![2_000.0, pct]);
        t
    }

    fn allocs(n: f64, per_delta: f64) -> Table {
        let mut t = Table::new(alloc::TABLE_ID, "S8", &["n_sensors", "allocs_per_delta"]);
        t.push_row(vec![n, per_delta]);
        t
    }

    #[test]
    fn overhead_passes_at_the_bound_and_fails_just_past_it() {
        assert!(check(&overhead(MAX_OVERHEAD_PCT)).is_empty());
        assert!(check(&overhead(-30.0)).is_empty());
        let v = check(&overhead(5.1));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("5.10%"), "{v:?}");
        assert_eq!(check(&overhead(f64::NAN)).len(), 1);
    }

    #[test]
    fn allocs_pass_at_the_bound_and_fail_just_past_it() {
        let base = 10_000.0;
        assert!(check_allocs(&allocs(GATE_N as f64, base * 1.10), base).is_empty());
        let v = check_allocs(&allocs(GATE_N as f64, base * 1.11), base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("11100"), "{v:?}");
    }

    #[test]
    fn missing_column_or_row_is_a_violation() {
        let no_col = Table::new(profile::TABLE_ID, "S3", &["n_sensors", "plan_on_ms"]);
        assert_eq!(check(&no_col).len(), 1);
        assert_eq!(
            check(&Table::new(profile::TABLE_ID, "S3", &["overhead_pct"])).len(),
            1
        );

        let mut no_allocs = Table::new(alloc::TABLE_ID, "S8", &["n_sensors", "cold_allocs"]);
        no_allocs.push_row(vec![GATE_N as f64, 1.0]);
        assert_eq!(check_allocs(&no_allocs, 10_000.0).len(), 1);
        assert_eq!(check_allocs(&allocs(100_000.0, 1.0), 10_000.0).len(), 1);
    }

    #[test]
    fn committed_baseline_has_the_gated_row() {
        let base = allocs_at_gate_n(&baseline()).expect("20k row in BENCH_alloc.json");
        assert!(base.is_finite() && base > 0.0);
        // The baseline gates itself.
        assert!(check(&baseline()).is_empty());
    }

    #[test]
    fn ungated_tables_pass() {
        assert!(check(&Table::new("F1", "tour vs n", &["n"])).is_empty());
    }
}
