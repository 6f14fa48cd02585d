//! `plan_200k`: the `mdg plan --hier` path, timed whole.
//!
//! One pass is what the CLI does: generate → [`Network::build`] →
//! [`HierPlanner::plan_with_stats`] → [`GatheringPlan::validate`] →
//! serialise the plan bundle to JSON. Every pass draws a fresh deployment
//! from the run seed, so no pass can reuse another's result.

use crate::{allocs, ms_since, peak_rss_mb, side_for, sorted, Layers, Outcome, RANGE};
use mdg_core::{GatheringPlan, HierConfig, HierPlanner};
use mdg_net::{Deployment, DeploymentConfig, Network};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The bundle `mdg plan --out` writes: deployment, range and plan.
#[derive(Serialize)]
struct PlanBundle {
    deployment: Deployment,
    range: f64,
    plan: GatheringPlan,
}

/// Size and length of a `plan_*` run.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Sensors per deployment.
    pub n: usize,
    /// Seconds of timed passes (the run goes on until [`MIN_PASSES`]).
    pub seconds: f64,
}

/// Fewest timed passes a run makes.
pub const MIN_PASSES: usize = 3;

/// The seed of pass `j` of a run seeded `seed` (SplitMix64 of the pair).
pub fn pass_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one pass produced.
struct Pass {
    tour_m: f64,
    udg_edges: usize,
    tiles_occupied: usize,
    bytes: usize,
}

/// One full CLI pass on the deployment drawn from `seed`, timing each
/// layer call into `layers`.
fn pass(n: usize, seed: u64, layers: &mut Layers) -> Result<Pass, String> {
    let dep = layers.time("net.generate_ms", || {
        DeploymentConfig::uniform(n, side_for(n)).generate(seed)
    });
    let net = layers.time("net.build_ms", || Network::build(dep.clone(), RANGE));
    let (plan, stats) = layers
        .time("core.hier_plan_ms", || {
            HierPlanner::with_config(HierConfig::default()).plan_with_stats(&net)
        })
        .map_err(|e| format!("hier plan failed: {e}"))?;
    layers
        .time("core.validate_ms", || {
            plan.validate(&net.deployment.sensors, RANGE)
        })
        .map_err(|e| format!("plan failed validation: {e}"))?;
    let tour_m = plan.tour_length;
    let udg_edges = net.sensor_graph.m() + net.full_graph.m();
    let bundle = PlanBundle {
        deployment: dep,
        range: RANGE,
        plan,
    };
    let json = layers
        .time("serde_json.serialize_ms", || {
            serde_json::to_string_pretty(&bundle)
        })
        .map_err(|e| format!("bundle serialisation failed: {e}"))?;
    Ok(Pass {
        tour_m,
        udg_edges,
        tiles_occupied: stats.n_occupied,
        bytes: black_box(json).len(),
    })
}

/// Runs the workload: one untimed set-up pass (the cold process a one-shot
/// CLI user pays for), then timed passes for `spec.seconds`.
pub fn run(spec: &PlanSpec, seed: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    mdg_obs::alloc::set_counting(trace);

    let t_setup = Instant::now();
    let first = out
        .tally
        .count(pass(spec.n, pass_seed(seed, 0), &mut Layers::default()));
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    let mut pass_ms = Vec::new();
    let mut last = None;
    let mut allocs_cold = 0;
    let t_run = Instant::now();
    let mut j = 1;
    while pass_ms.len() < MIN_PASSES || t_run.elapsed().as_secs_f64() < spec.seconds {
        let (t, a0) = (Instant::now(), allocs());
        let Some(p) = out
            .tally
            .count(pass(spec.n, pass_seed(seed, j), &mut layers))
        else {
            break;
        };
        pass_ms.push(ms_since(t));
        if j == 1 {
            allocs_cold = allocs() - a0;
        }
        last = Some(p);
        j += 1;
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let s = sorted(&pass_ms);
    let e = &mut out.e2e;
    e.set("op_ms_p50", crate::percentile(&s, 0.5));
    e.set("op_ms_p90", crate::percentile(&s, 0.9));
    e.set("read_ms_p50", layers.pct("serde_json.serialize_ms", 0.5));
    e.set("ops_per_s", pass_ms.len() as f64 / run_s);
    e.set("setup_s", setup_s);
    e.set("tour_m", first.map_or(0.0, |p| p.tour_m));
    e.set("peak_rss_mb", peak_rss_mb());
    out.samples.insert("op", pass_ms.len());
    out.samples.insert("read", pass_ms.len());
    out.samples.insert("setup", 1);

    if trace {
        let l = &mut out.layers;
        for name in [
            "net.generate_ms",
            "net.build_ms",
            "core.hier_plan_ms",
            "core.validate_ms",
            "serde_json.serialize_ms",
        ] {
            l.set(name, layers.pct(name, 0.5));
        }
        if let Some(p) = &last {
            l.set("net.udg_edges", p.udg_edges as f64);
            l.set("core.tiles_occupied", p.tiles_occupied as f64);
            l.set("serde_json.bytes", p.bytes as f64);
        }
        l.set("obs.allocs_cold", allocs_cold as f64);
    }
    out
}
