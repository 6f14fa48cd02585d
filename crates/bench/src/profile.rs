//! S3 — observability overhead and per-phase profile.
//!
//! Plans one constant-density uniform field in pairs — profiling off, then
//! profiling on — and reports the wall-clock overhead of the `mdg-obs`
//! instrumentation along with a bit-identity check on the two plans (the
//! observability determinism contract: profiling must only *observe*).
//! The arms alternate, and the overhead is the median of the per-pair
//! on/off ratios: pairing cancels drift in machine speed and the median
//! ignores a stalled or lucky run, so the column measures instrumentation
//! cost, not scheduler noise.
//!
//! Setting the `MDG_PROFILE_JSON` environment variable to a path makes the
//! experiment also write the profiled run's span/counter/histogram records
//! there as JSONL (the same format as `mdg plan --profile-json`); this is
//! what CI uploads and what `EXPERIMENTS.md` §S3's per-phase table is
//! derived from. The per-phase tree is printed to stderr either way.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::{GatheringPlan, ShdgPlanner};
use mdg_net::{DeploymentConfig, Network};
use std::time::{Duration, Instant};

/// Id of this experiment's table, which [`crate::gate`] checks.
pub(crate) const TABLE_ID: &str = "profile_overhead";

/// Transmission range for the profiled field (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Off/on pairs: at least [`MIN_PAIRS`], then more until the pairs have
/// taken [`MIN_SAMPLE`] of wall time, at most [`MAX_PAIRS`]. On a shared
/// 2-vCPU host one pair's on/off ratio spreads about ±15% on the ~30 ms
/// smoke plan and about ±10% on the ~2 s default plan, so the median of 9
/// pairs still read over 5% about once in 30 smoke runs, while the ~30
/// pairs that fit in 2 s stay within ±3.5%. A minimum per arm was worse:
/// it follows whichever arm caught one fast outlier.
const MIN_PAIRS: usize = 9;

/// See [`MIN_PAIRS`].
const MAX_PAIRS: usize = 41;

/// See [`MIN_PAIRS`].
const MIN_SAMPLE: Duration = Duration::from_secs(2);

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Field size per profile: the smoke field is the one CI gates on (see
/// [`crate::gate`]), the default matches the §S3 table in `EXPERIMENTS.md`.
fn field_size(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 2_000,
        _ => 20_000,
    }
}

fn timed_plan(net: &Network) -> (GatheringPlan, f64) {
    let t = Instant::now();
    let plan = ShdgPlanner::new()
        .plan(net)
        .expect("uniform field is feasible");
    (plan, t.elapsed().as_secs_f64() * 1e3)
}

/// S3: instrumentation overhead (profiling off vs on) on one plan.
pub fn profile(p: &Params) -> Table {
    let n = field_size(p);
    let side = (n as f64).sqrt() * 10.0;
    let net = Network::build(
        DeploymentConfig::uniform(n, side).generate(p.base_seed),
        RANGE,
    );

    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut plan_off: Option<GatheringPlan> = None;
    let mut plan_on: Option<GatheringPlan> = None;
    let mut prof = mdg_obs::snapshot();
    // Off and on alternate, so a slow stretch of the machine hits both arms.
    let sampling = Instant::now();
    while off.len() < MIN_PAIRS || (sampling.elapsed() < MIN_SAMPLE && off.len() < MAX_PAIRS) {
        mdg_obs::set_enabled(false);
        let (plan, ms) = timed_plan(&net);
        off.push(ms);
        plan_off = Some(plan);

        mdg_obs::reset();
        mdg_obs::set_enabled(true);
        let (plan, ms) = timed_plan(&net);
        mdg_obs::set_enabled(false);
        prof = mdg_obs::snapshot();
        on.push(ms);
        plan_on = Some(plan);
    }
    mdg_obs::reset();

    let identical = plan_off == plan_on;
    assert!(identical, "profiling changed the plan at n = {n}");
    let pairs = off.len();
    let ratios = on.iter().zip(&off).map(|(on, off)| on / off).collect();
    let overhead_pct = (median(ratios) - 1.0) * 100.0;
    let (off_ms, on_ms) = (median(off), median(on));

    eprintln!("{}", prof.render_tree());
    println!(
        "  profile: n = {n:>6}  {pairs:>2} pairs  off {off_ms:>9.1} ms  on {on_ms:>9.1} ms  \
         overhead {overhead_pct:>+6.2} %  plans identical: {identical}"
    );

    if let Ok(path) = std::env::var("MDG_PROFILE_JSON") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, prof.to_jsonl()) {
                eprintln!("could not write {path}: {e}");
            }
        }
    }

    let mut t = Table::new(
        TABLE_ID,
        "mdg-obs instrumentation overhead on one constant-density plan \
         (median over alternating off/on pairs)",
        &[
            "n_sensors",
            "pairs",
            "plan_off_ms",
            "plan_on_ms",
            "overhead_pct",
            "plans_identical",
        ],
    );
    t.push_row(vec![
        n as f64,
        pairs as f64,
        off_ms,
        on_ms,
        overhead_pct,
        if identical { 1.0 } else { 0.0 },
    ]);
    t.notes = format!(
        "Single topology (seed = base_seed), side = sqrt(n)·10 m, R = 30 m. Pairs of full \
         SHDG plans, mdg-obs profiling disabled then enabled: at least {MIN_PAIRS}, then more \
         until {} s of sampling, at most {MAX_PAIRS}. plan_*_ms are per-arm medians and \
         overhead_pct is the median of the per-pair on/off ratios, minus 1. plans_identical \
         = 1 asserts the bit-identity contract. MDG_PROFILE_JSON=path additionally dumps the \
         profiled run's records as JSONL.",
        MIN_SAMPLE.as_secs()
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_reports_identical_plans() {
        let t = profile(&Params::smoke());
        assert_eq!(t.rows.len(), 1);
        let ident = t.col("plans_identical").unwrap();
        assert_eq!(t.rows[0][ident], 1.0);
        let off = t.col("plan_off_ms").unwrap();
        let on = t.col("plan_on_ms").unwrap();
        assert!(t.rows[0][off] > 0.0 && t.rows[0][on] > 0.0);
    }
}
