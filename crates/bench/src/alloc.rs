//! S8 — allocation budget of the warm incremental path.
//!
//! Runs a hierarchical session through the same deterministic churn as S6,
//! but under the counting global allocator, and reports the cold plan's
//! allocation bill (count/bytes/peak) next to the allocations per warm
//! delta over a fixed window of that churn: the recurring cost a
//! long-lived daemon pays per delta, O(dirty tiles), not O(n).
//!
//! The committed `BENCH_alloc.json` snapshot of this table is the baseline
//! of the allocation-regression gate in [`crate::gate`]: an `experiments`
//! run whose steady-state `allocs_per_delta` at n = 20 000 exceeds the
//! checked-in figure by more than 10% exits non-zero. Refresh the baseline
//! with:
//!
//! ```console
//! $ cargo run --release -p mdg-bench --bin experiments -- alloc --full --out results
//! $ cp results/alloc_budget.json BENCH_alloc.json
//! ```
//!
//! The counts depend on the toolchain and the worker-thread count, so CI's
//! `gate` job pins both to the ones the baseline was recorded with (rustc
//! 1.95.0, `MDG_THREADS=2`); a refresh on another toolchain moves that
//! pin in `.github/workflows/ci.yml` too.
//!
//! The experiment reads *process-wide* allocator totals, so its absolute
//! numbers are only exact when nothing else in the process allocates
//! meanwhile (the `experiments` binary runs one experiment at a time).
//! Inside `cargo test` other tests allocate concurrently, so the
//! in-experiment assertions stay structural.

use crate::params::{Params, Profile};
use crate::serve_hier::churn_round;
use crate::table::Table;
use mdg_core::PlannerConfig;
use mdg_net::DeploymentConfig;
use mdg_obs::alloc::{counting, set_counting, totals};
use mdg_serve::session::FieldSession;

/// Id of this experiment's table, which [`crate::gate`] checks.
pub(crate) const TABLE_ID: &str = "alloc_budget";

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Deltas applied before the measured window. No working buffer outlives
/// the delta that built it, so the first deltas allocate like later ones
/// of the same shape; the warm-up stays so that the window covers the
/// same deltas (rounds 4–27) as the committed `BENCH_alloc.json`.
const WARMUP_ROUNDS: usize = 4;

/// The sweep point [`crate::gate`] compares with the committed baseline,
/// and the floor of every profile's sweep: big enough that the field
/// tiles (so deltas stay incremental), small enough for a debug-build
/// test loop.
pub(crate) const GATE_N: usize = 20_000;

/// Field sizes swept per profile, constant density (side = sqrt(n)·10).
fn sweep(p: &Params) -> &'static [usize] {
    match p.profile {
        Profile::Smoke => &[GATE_N],
        Profile::Default => &[GATE_N, 100_000],
        Profile::Full => &[GATE_N, 100_000, 1_000_000],
    }
}

/// Measured deltas per sweep point. Identical in every profile on
/// purpose: allocation counts are exactly deterministic, and a
/// smoke-profile run is gated against the committed full-profile
/// baseline. [`churn_round`] places its added sensors by the total round
/// count, so another window length is another delta sequence: 12 rounds
/// read about 12% more allocations per delta than 24 at n = 20k.
/// Profiles differ only in the n-sweep, which is the expensive axis.
fn steady_rounds(_p: &Params) -> usize {
    24
}

/// S8: cold-plan allocation bill vs steady-state allocations per warm
/// dirty-tile delta, hier sessions at every point.
pub fn alloc(p: &Params) -> Table {
    let mut t = Table::new(
        TABLE_ID,
        "Allocation budget: cold hier plan vs steady-state warm delta (counting allocator)",
        &[
            "n_sensors",
            "cold_allocs",
            "cold_mib",
            "warm_rounds",
            "allocs_per_delta",
            "kib_per_delta",
            "peak_mib",
            "reuse_ratio",
        ],
    );
    let was_counting = counting();
    set_counting(true);
    // A daemon started earlier in the process (S4, S6) leaves span
    // recording on, and every span then allocates its path: the budget
    // is the planner's, so recording is off while it is counted.
    let was_recording = mdg_obs::enabled();
    mdg_obs::set_enabled(false);
    for &n in sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let deployment = DeploymentConfig::uniform(n, side).generate(p.base_seed);
        let rounds = WARMUP_ROUNDS + steady_rounds(p);

        let base = totals();
        // Threshold 0: the session is hierarchical at every n, same as S6.
        let mut session =
            FieldSession::plan_cold_auto("s8", deployment, RANGE, PlannerConfig::default(), 0)
                .expect("alloc bench: cold plan");
        let cold = totals().since(&base);

        for round in 0..WARMUP_ROUNDS {
            let (died, added) = churn_round(n, side, round, rounds);
            session
                .apply_delta(&died, &added, None)
                .expect("alloc bench: warm-up delta");
        }

        let base = totals();
        for round in WARMUP_ROUNDS..rounds {
            let (died, added) = churn_round(n, side, round, rounds);
            session
                .apply_delta(&died, &added, None)
                .expect("alloc bench: steady delta");
        }
        let steady = totals().since(&base);

        let r = steady_rounds(p) as f64;
        let allocs_per_delta = steady.count as f64 / r;
        let kib_per_delta = steady.bytes as f64 / r / 1024.0;
        let peak_mib = steady.peak as f64 / (1024.0 * 1024.0);
        let cold_mib = cold.bytes as f64 / (1024.0 * 1024.0);
        let reuse_ratio = cold.count as f64 / allocs_per_delta.max(1.0);

        // Structural sanity only — see the module docs on process-wide
        // totals under `cargo test`.
        assert!(cold.count > 0, "counting allocator recorded nothing");
        assert!(
            allocs_per_delta.is_finite() && allocs_per_delta > 0.0,
            "steady window recorded no allocations"
        );

        t.push_row(vec![
            n as f64,
            cold.count as f64,
            cold_mib,
            r,
            allocs_per_delta,
            kib_per_delta,
            peak_mib,
            reuse_ratio,
        ]);
        println!(
            "  alloc: n = {n:>7}  cold {:>10} allocs / {cold_mib:>8.1} MiB  \
             steady {allocs_per_delta:>10.0} allocs/delta / {kib_per_delta:>9.1} KiB  \
             reuse {reuse_ratio:>7.0}x",
            cold.count
        );
    }
    set_counting(was_counting);
    mdg_obs::set_enabled(was_recording);
    let threads = mdg_par::threads();
    t.notes = format!(
        "Counting global allocator over one hierarchical session per point (hier_threshold = 0), \
         S6's deterministic churn. cold_* is the full cold plan's bill; allocs_per_delta / \
         kib_per_delta average the window after {WARMUP_ROUNDS} warm-up deltas; peak_mib is the \
         high-water live-byte mark during that window; reuse_ratio = cold_allocs / \
         allocs_per_delta. The committed BENCH_alloc.json row at n = 20000 is \
         the regression baseline (fail at > 10% more allocs per delta). Numbers are process-wide \
         and only exact when nothing else in the process allocates meanwhile. Run at {threads} \
         worker thread(s)."
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_alloc_budget_reports_finite_positive_figures() {
        let t = alloc(&Params::smoke());
        assert_eq!(t.rows.len(), 1);
        for col in ["cold_allocs", "allocs_per_delta", "kib_per_delta"] {
            let i = t.col(col).unwrap();
            for row in &t.rows {
                assert!(
                    row[i].is_finite() && row[i] > 0.0,
                    "{col} must be finite and positive, got {}",
                    row[i]
                );
            }
        }
    }
}
