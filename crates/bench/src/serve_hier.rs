//! S6 — hierarchical serving-layer churn benchmark.
//!
//! Measures what the dirty-tile incremental path buys at scales the flat
//! session cannot reach: an in-process [`Server`] with the hier threshold
//! at zero (every session hierarchical) is driven over a real TCP socket
//! through a cold `plan` followed by a stream of small `delta` requests,
//! and each point reports the cold hier-plan latency against the
//! warm-delta latency distribution (p50 and slowest, as `delta_max_ms`:
//! 10 or 40 deltas per point are too few for a tail percentile), the
//! speedup, and how many deltas escalated to a full tiled rebuild.
//!
//! The headline gate is the million-sensor point (Full profile): warm
//! dirty-tile deltas must land ≥ 20× under the cold hierarchical plan
//! with **zero** full rebuilds under small-delta churn — a small delta
//! dirties a handful of the ~500 occupied tiles, so the work is those
//! tiles' re-plans, one `O(live)` assignment pass and `validate_live`
//! (the re-stitch and the seam touch-up are `O(stops)` or less), not a
//! field-wide pass. Every profile
//! additionally replays the smallest point's churn in-process at 1 and 2
//! worker threads and asserts the final plans are bit-identical to the
//! daemon's (the determinism contract through the serving stack).
//!
//! Latencies are the *server-side* `elapsed_ms` figures, so the numbers
//! isolate planning cost from socket round-trips; `req_per_s` is
//! client-observed wall-clock over the churn stream.
//!
//! The committed `BENCH_serve_hier.json` is this table as the
//! `experiments` binary writes it: `experiments serve_hier --full --out
//! results && cp results/serve_hier_churn.json BENCH_serve_hier.json`.

use crate::params::{Params, Profile};
use crate::serve::percentile;
use crate::table::Table;
use mdg_core::PlannerConfig;
use mdg_geom::Point;
use mdg_net::DeploymentConfig;
use mdg_serve::client::Client;
use mdg_serve::server::{ServeConfig, Server};
use mdg_serve::session::FieldSession;
use std::time::Instant;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Speedup gate at the million-sensor point: warm dirty-tile deltas must
/// be at least this much faster than the cold hierarchical plan.
const FULL_SPEEDUP_GATE: f64 = 20.0;

/// Field sizes swept per profile, constant density (side = sqrt(n)·10).
/// The floor is 10k sensors: under auto tile sizing a smaller field is a
/// single tile, where every delta legitimately escalates to a rebuild and
/// there is no incremental path to measure.
fn sweep(p: &Params) -> &'static [usize] {
    match p.profile {
        Profile::Smoke => &[10_000],
        Profile::Default => &[10_000, 50_000],
        Profile::Full => &[10_000, 50_000, 1_000_000],
    }
}

/// Delta rounds per sweep point.
fn rounds(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 10,
        _ => 40,
    }
}

/// Deaths per churn round: a small scatter that dirties a handful of
/// tiles. Deliberately *sub*-linear in n — the point of the experiment is
/// small-delta churn, where the dirty-tile set stays far below the 50%
/// escalation bar even on a million-sensor field.
fn deaths_per_round(n: usize) -> usize {
    (n / 100_000).max(2)
}

/// The deterministic churn for one round of one sweep point (shared by
/// the daemon stream, the in-process determinism replay, and the S8
/// allocation experiment).
pub(crate) fn churn_round(
    n: usize,
    side: f64,
    round: usize,
    total_rounds: usize,
) -> (Vec<u64>, Vec<Point>) {
    let died: Vec<u64> = (0..deaths_per_round(n))
        .map(|i| ((round * 7919 + i * 104_729) % n) as u64)
        .collect();
    let added = if round % 4 == 3 {
        let f = (round + 1) as f64 / (total_rounds + 1) as f64;
        vec![Point::new(side * f, side * (1.0 - f))]
    } else {
        Vec::new()
    };
    (died, added)
}

/// Replays one sweep point's full churn sequence in-process at a fixed
/// worker-thread count and returns the final tour length.
fn replay_in_process(n: usize, side: f64, seed: u64, r: usize, threads: usize) -> f64 {
    mdg_par::set_threads(threads);
    let mut session = FieldSession::plan_cold_auto(
        "det",
        DeploymentConfig::uniform(n, side).generate(seed),
        RANGE,
        PlannerConfig::default(),
        0,
    )
    .expect("serve_hier bench: in-process cold plan");
    for round in 0..r {
        let (died, added) = churn_round(n, side, round, r);
        session
            .apply_delta(&died, &added, None)
            .expect("serve_hier bench: in-process delta");
    }
    mdg_par::set_threads(0);
    session.plan().tour_length
}

/// S6: warm dirty-tile delta latency vs cold hierarchical plan latency
/// under sustained small-delta churn, hier sessions at every point.
pub fn serve_hier(p: &Params) -> Table {
    let mut t = Table::new(
        "serve_hier_churn",
        "Hier serving layer under churn (cold hier plan vs warm dirty-tile delta, R = 30 m)",
        &[
            "n_sensors",
            "rounds",
            "cold_ms",
            "delta_p50_ms",
            "delta_max_ms",
            "speedup_p50",
            "req_per_s",
            "full_replans",
        ],
    );
    // Threshold 0: every session in this experiment is hierarchical, so
    // the comparison is cold tiled plan vs dirty-tile delta at every n.
    // The sensor bound leaves headroom over the 1M point for the sensors
    // churn adds on top of the initial deployment.
    let server = Server::start(ServeConfig {
        hier_threshold: 0,
        max_sensors: 2_000_000,
        ..ServeConfig::default()
    })
    .expect("serve_hier bench: bind failed");
    let mut client =
        Client::connect(server.local_addr()).expect("serve_hier bench: connect failed");
    let det_n = sweep(p)[0];
    for &n in sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let field = format!("s6-{n}");
        let cold = client
            .plan_uniform(&field, n as u64, side, p.base_seed, RANGE)
            .expect("serve_hier bench: plan transport")
            .expect("serve_hier bench: plan rejected");
        let r = rounds(p);
        let mut latencies = Vec::with_capacity(r);
        let mut full_replans = 0u64;
        let t_churn = Instant::now();
        for round in 0..r {
            let (died, added) = churn_round(n, side, round, r);
            let summary = client
                .delta(&field, died, added, None)
                .expect("serve_hier bench: delta transport")
                .expect("serve_hier bench: delta rejected");
            if summary.mode == "replan" {
                full_replans += 1;
            }
            latencies.push(summary.elapsed_ms);
        }
        let churn_secs = t_churn.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let p50 = percentile(&latencies, 0.50);
        let max = percentile(&latencies, 1.0);
        let speedup = cold.elapsed_ms / p50.max(1e-9);
        let req_per_s = r as f64 / churn_secs.max(1e-9);

        // The headline acceptance gates, asserted where they apply.
        assert!(
            speedup > 1.0,
            "n = {n}: warm dirty-tile deltas (p50 {p50:.2} ms) must beat the cold hier plan \
             ({:.1} ms)",
            cold.elapsed_ms
        );
        if n >= 1_000_000 {
            assert!(
                speedup >= FULL_SPEEDUP_GATE,
                "n = {n}: delta p50 {p50:.2} ms is only {speedup:.1}x under the cold plan \
                 {:.1} ms (gate {FULL_SPEEDUP_GATE}x)",
                cold.elapsed_ms
            );
            assert_eq!(
                full_replans, 0,
                "n = {n}: small-delta churn must never escalate to a full rebuild"
            );
        }

        // Determinism through the serving stack: replay the smallest
        // point's churn in-process at 1 and 2 workers; both must end at
        // byte-identical tours, and match what the daemon served.
        if n == det_n {
            let served = client
                .get_plan(&field)
                .expect("serve_hier bench: get_plan transport")
                .expect("serve_hier bench: get_plan rejected")
                .plan
                .tour_length;
            let one = replay_in_process(n, side, p.base_seed, r, 1);
            let two = replay_in_process(n, side, p.base_seed, r, 2);
            assert_eq!(
                one.to_bits(),
                two.to_bits(),
                "n = {n}: churned tour diverged between 1 and 2 worker threads"
            );
            assert_eq!(
                one.to_bits(),
                served.to_bits(),
                "n = {n}: daemon's churned tour differs from the in-process replay"
            );
        }

        t.push_row(vec![
            n as f64,
            r as f64,
            cold.elapsed_ms,
            p50,
            max,
            speedup,
            req_per_s,
            full_replans as f64,
        ]);
        println!(
            "  serve_hier: n = {n:>7}  cold {:>9.1} ms  delta p50 {p50:>8.2} ms  max {max:>8.2} ms  \
             speedup {speedup:>7.1}x  {full_replans} full rebuild(s)",
            cold.elapsed_ms
        );
    }
    client
        .shutdown()
        .expect("serve_hier bench: shutdown transport")
        .expect("serve_hier bench: shutdown rejected");
    server.join();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.notes = format!(
        "One warm hierarchical session per point (hier_threshold = 0, auto tile sizing); deltas \
         kill max(2, n/100000) deterministic sensors per round and add one sensor every 4th round. \
         Latencies are server-side wall time; speedup_p50 = cold_ms / delta_p50_ms. Gates: warm \
         deltas beat the cold plan at every n; at n = 1M, p50 >= {FULL_SPEEDUP_GATE}x under cold \
         with 0 full rebuilds. The smallest point's churn is replayed in-process at 1 and 2 \
         worker threads and must match the daemon's tour bit-for-bit. Host had {cores} CPU \
         core(s) available; mdg-par ran {} worker thread(s).",
        mdg_par::threads()
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_hier_churn_beats_cold_plan() {
        let t = serve_hier(&Params::smoke());
        assert_eq!(t.rows.len(), 1);
        let speedup = t.col("speedup_p50").unwrap();
        let p50 = t.col("delta_p50_ms").unwrap();
        let max = t.col("delta_max_ms").unwrap();
        for row in &t.rows {
            assert!(row[speedup] > 1.0, "warm deltas must beat the cold plan");
            assert!(row[p50] <= row[max], "the median cannot exceed the max");
        }
    }
}
