//! S4 — serving-layer churn benchmark.
//!
//! Measures what the `mdg-serve` daemon buys over stateless planning: an
//! in-process [`Server`] is driven over a real TCP socket through a cold
//! `plan` followed by a sustained stream of `delta` requests (a trickle of
//! deaths each round, a sensor added every few rounds), and each point
//! reports the cold-plan latency against the warm-delta latency
//! distribution (p50 and slowest), the speedup, and the sustained request
//! rate. A point takes 10 or 40 deltas, too few for a tail percentile, so
//! the table reports the slowest delta as `delta_max_ms`.
//!
//! Latencies are the *server-side* `elapsed_ms` figures, so the numbers
//! isolate planning/repair cost from socket round-trips; `req_per_s` is
//! client-observed wall-clock over the whole churn stream and therefore
//! includes the protocol overhead. Every point asserts the daemon's
//! reason to exist: the median warm delta beats the cold plan, and so does
//! every adding delta, which takes the rebuild path.
//!
//! The committed `BENCH_serve.json` is this table as the `experiments`
//! binary writes it: `experiments serve --out results && cp
//! results/serve_churn.json BENCH_serve.json`.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_geom::Point;
use mdg_serve::client::Client;
use mdg_serve::server::{ServeConfig, Server};
use std::time::Instant;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Field sizes swept per profile. The acceptance target — warm deltas an
/// order of magnitude under the cold plan — is asserted at the ≥10 000
/// sensor points by `tests/equivalence.rs` and demonstrated here. The
/// smoke point is big enough that a flat cold plan costs real work.
fn sweep(p: &Params) -> &'static [usize] {
    match p.profile {
        Profile::Smoke => &[5_000],
        Profile::Default => &[2_000, 10_000],
        Profile::Full => &[2_000, 10_000, 50_000],
    }
}

/// Delta rounds per sweep point.
fn rounds(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 10,
        _ => 40,
    }
}

/// Percentile of a sorted latency sample (nearest-rank); `q = 1` is the
/// largest sample.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// S4: warm-delta latency vs cold-plan latency under sustained churn.
pub fn serve(p: &Params) -> Table {
    let mut t = Table::new(
        "serve_churn",
        "Serving layer under churn (cold plan vs warm delta, R = 30 m)",
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
    let server = Server::start(ServeConfig::default()).expect("serve bench: bind failed");
    let mut client = Client::connect(server.local_addr()).expect("serve bench: connect failed");
    for &n in sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let field = format!("s4-{n}");
        let cold = client
            .plan_uniform(&field, n as u64, side, p.base_seed, RANGE)
            .expect("serve bench: plan transport")
            .expect("serve bench: plan rejected");
        let r = rounds(p);
        // Churn: each round kills a deterministic 0.1% scatter of the id
        // space (re-kills are harmless), and every 4th round also adds a
        // sensor — exercising the rebuild path so the max reflects it.
        let deaths_per_round = (n / 1000).max(2);
        let mut latencies = Vec::with_capacity(r);
        let mut add_max = 0.0_f64;
        let mut full_replans = 0u64;
        let t_churn = Instant::now();
        for round in 0..r {
            let died: Vec<u64> = (0..deaths_per_round)
                .map(|i| ((round * 7919 + i * 104_729) % n) as u64)
                .collect();
            let adds = round % 4 == 3;
            let added = if adds {
                let f = (round + 1) as f64 / (r + 1) as f64;
                vec![Point::new(side * f, side * (1.0 - f))]
            } else {
                Vec::new()
            };
            let summary = client
                .delta(&field, died, added, None)
                .expect("serve bench: delta transport")
                .expect("serve bench: delta rejected");
            if summary.mode == "replan" {
                full_replans += 1;
            }
            latencies.push(summary.elapsed_ms);
            if adds {
                add_max = add_max.max(summary.elapsed_ms);
            }
        }
        let churn_secs = t_churn.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let p50 = percentile(&latencies, 0.50);
        let max = percentile(&latencies, 1.0);
        let speedup = cold.elapsed_ms / p50.max(1e-9);
        let req_per_s = r as f64 / churn_secs.max(1e-9);
        assert!(
            speedup > 1.0,
            "n = {n}: warm deltas (p50 {p50:.2} ms) must beat the cold plan ({:.1} ms)",
            cold.elapsed_ms
        );
        // Adding rounds take the rebuild path (a fresh network and
        // candidate sets, no cold plan); each must still beat the cold plan.
        assert!(
            add_max < cold.elapsed_ms,
            "n = {n}: adding deltas (slowest {add_max:.2} ms) must beat the cold plan ({:.1} ms)",
            cold.elapsed_ms
        );
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
            "  serve: n = {n:>6}  cold {:>8.1} ms  delta p50 {p50:>7.2} ms  max {max:>7.2} ms  \
             adding max {add_max:>7.2} ms  speedup {speedup:>6.1}x  {req_per_s:>6.1} req/s",
            cold.elapsed_ms
        );
    }
    client
        .shutdown()
        .expect("serve bench: shutdown transport")
        .expect("serve bench: shutdown rejected");
    server.join();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.notes = format!(
        "One warm session per point; deltas kill max(2, n/1000) deterministic sensors per \
         round and add one sensor every 4th round (rebuild path included). Latencies are \
         server-side planning/repair wall time; req_per_s is client wall-clock over the \
         churn stream including protocol overhead. speedup_p50 = cold_ms / delta_p50_ms; \
         the run fails unless it exceeds 1 and every adding delta is faster than cold_ms \
         at every n. Host had {cores} CPU core(s) available; mdg-par ran {} worker \
         thread(s).",
        mdg_par::threads()
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_churn_beats_cold_plan() {
        let t = serve(&Params::smoke());
        assert_eq!(t.rows.len(), 1);
        let p50 = t.col("delta_p50_ms").unwrap();
        let max = t.col("delta_max_ms").unwrap();
        for row in &t.rows {
            assert!(row[p50] <= row[max], "the median cannot exceed the max");
        }
    }
}
