//! S7 — counterfactual replay: self-check gate and retry-budget sweep.
//!
//! Records one lossy repairing run into an in-memory trace bundle, then
//! exercises the replay engine's two contracts as hard gates:
//!
//! 1. **Self-check** (`INV-CF-DETERMINISTIC`): replaying the recorded
//!    policy must reproduce the trace byte-for-byte — zero divergent
//!    rounds, asserted.
//! 2. **Thread independence**: the retry-budget sweep's divergence JSONL
//!    must be byte-identical at 1 and 2 worker threads, asserted.
//!
//! The table is the sweep itself: one row per retry budget, showing how
//! delivery, drops, retries and orphan time respond to the knob on the
//! *same* recorded world (same deaths, same loss law, same seed). The
//! recorded run's own budget shows up as the row with zero divergent
//! rounds.
//!
//! The committed `BENCH_replay.json` is this table as the `experiments`
//! binary writes it: `experiments replay --out results && cp
//! results/replay_retry_sweep.json BENCH_replay.json`.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::ShdgPlanner;
use mdg_runtime::replay::sweep_to_jsonl;
use mdg_runtime::{
    parse_bundle, FaultConfig, GatheringRuntime, ReplayEngine, ReplayManifest, RuntimeConfig,
    SweepSpec, TopologyManifest, TraceHeader, TraceWriter,
};

/// Transmission range for every point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Recorded-run size per profile.
fn dims(p: &Params) -> (usize, u64) {
    match p.profile {
        Profile::Smoke => (150, 6),
        Profile::Default => (600, 15),
        Profile::Full => (2_000, 30),
    }
}

/// S7: replay self-check gate plus a retry-budget sweep over one
/// recorded lossy run.
pub fn replay(p: &Params) -> Table {
    let (n, rounds) = dims(p);
    let side = (n as f64).sqrt() * 10.0;
    let manifest = ReplayManifest {
        topology: TopologyManifest::Uniform {
            n,
            side,
            seed: p.base_seed,
        },
        range: RANGE,
        config: RuntimeConfig {
            sim: p.sim,
            faults: FaultConfig {
                seed: p.base_seed,
                death_rate: 0.15,
                death_horizon_secs: 4_000.0,
                loss_rate: 0.25,
                max_retries: 2,
                backoff_secs: 0.2,
                ..FaultConfig::default()
            },
            max_rounds: rounds,
            ..RuntimeConfig::default()
        },
    };

    // Record the original run into an in-memory bundle, exactly as
    // `mdg runtime --trace` would on disk.
    let net = manifest.network();
    let plan = ShdgPlanner::new()
        .plan(&net)
        .expect("replay bench: planning failed");
    let mut tw = TraceWriter::with_header(Vec::new(), &TraceHeader::new(manifest.clone()))
        .expect("replay bench: header write");
    GatheringRuntime::new(net, plan, manifest.config)
        .run_traced(&mut tw)
        .expect("replay bench: recording failed");
    let text = String::from_utf8(tw.into_inner().expect("replay bench: flush")).expect("utf8");

    let engine = ReplayEngine::from_bundle(&parse_bundle(&text).expect("replay bench: parse"))
        .expect("replay bench: engine build");

    // Gate 1: the original policy reproduces the recording byte-for-byte.
    let check = engine.self_check();
    assert!(
        check.ok(),
        "replay self-check FAILED: {} of {} rounds diverge (first diff {:?})",
        check.divergent_rounds.len(),
        check.rounds_recorded,
        check.first_diff
    );

    // The sweep: retry budgets 0..=4 on the recorded world.
    let spec = SweepSpec::parse("retry_budget=0..4").expect("replay bench: spec");
    let run_sweep = || engine.sweep(&spec).expect("replay bench: sweep");

    // Gate 2: divergence JSONL is byte-identical at 1 vs 2 worker threads.
    mdg_par::set_threads(1);
    let points = run_sweep();
    let jsonl_1 = sweep_to_jsonl(&points);
    mdg_par::set_threads(2);
    let jsonl_2 = sweep_to_jsonl(&run_sweep());
    mdg_par::set_threads(0);
    assert_eq!(
        jsonl_1, jsonl_2,
        "replay sweep JSONL diverged between 1 and 2 worker threads"
    );

    let mut t = Table::new(
        "replay_retry_sweep",
        "Counterfactual retry-budget sweep over one recorded lossy run (R = 30 m)",
        &[
            "retry_budget",
            "delivered",
            "expected",
            "delivery_pct",
            "drops",
            "retries",
            "divergent_rounds",
            "orphan_secs",
        ],
    );
    for pt in &points {
        let c = &pt.result.counterfactual;
        t.push_row(vec![
            pt.value,
            c.delivered as f64,
            c.expected as f64,
            c.delivery_ratio() * 100.0,
            c.drops as f64,
            c.retries as f64,
            pt.result.divergences.len() as f64,
            c.orphan_secs,
        ]);
        println!(
            "  replay: retry_budget = {:<2} delivered {:>6}/{:<6} ({:>5.1}%)  drops {:>5}  \
             retries {:>6}  divergent rounds {:>2}",
            pt.value,
            c.delivered,
            c.expected,
            c.delivery_ratio() * 100.0,
            c.drops,
            c.retries,
            pt.result.divergences.len()
        );
    }

    // The recorded budget's row must be the exact no-op counterfactual.
    let recorded_budget = manifest.config.faults.max_retries as f64;
    let div_col = t.col("divergent_rounds").expect("column exists");
    let noop_row = t
        .rows
        .iter()
        .find(|r| r[0] == recorded_budget)
        .expect("sweep covers the recorded budget");
    assert_eq!(
        noop_row[div_col], 0.0,
        "replaying the recorded retry budget must not diverge"
    );
    // Delivery is monotone in the budget on a fixed world.
    let deliv: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
    assert!(
        deliv.windows(2).all(|w| w[0] <= w[1]),
        "delivery must be monotone in retry budget: {deliv:?}"
    );

    t.notes = format!(
        "One recorded run: n = {n}, {rounds} rounds, 15% deaths, 25% loss, recorded \
         retry budget 2, Repair policy, seed {}. Gates: self-check reproduces the \
         recording byte-for-byte (0 divergent rounds); the sweep's divergence JSONL is \
         byte-identical at 1 and 2 worker threads; the recorded budget's counterfactual \
         is a no-op; delivery is monotone in the budget. Divergent-round counts compare \
         each counterfactual against the recording.",
        p.base_seed
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_replay_gates_hold() {
        let t = replay(&Params::smoke());
        assert_eq!(t.rows.len(), 5, "budgets 0..=4");
        let div = t.col("divergent_rounds").unwrap();
        // Exactly the recorded budget (2) replays divergence-free; the
        // zero-budget counterfactual must diverge on a 25% loss run.
        assert_eq!(t.rows[2][div], 0.0);
        assert!(t.rows[0][div] > 0.0);
    }
}
