//! `serve_*`: an in-process daemon with the default [`ServeConfig`],
//! driven by one [`Client`] over loopback in a closed loop.
//!
//! Set-up starts the server, connects and sends a cold `plan` with the
//! seeded deployment's positions. Churn follows on that daemon: each
//! `delta` comes from [`Field::next_delta`], and every
//! [`GET_PLAN_EVERY`]th delta is followed by a `get_plan` whose plan the
//! client checks with `validate_live` against its own model of the field.
//! The set-up is then repeated on fresh daemons, for
//! [`SETUPS`] set-up timings in all.
//!
//! A traced run then replays the same deltas in process, calling the
//! layer functions in the order `FieldSession` calls them, and requires
//! the replica's final plan to equal the served one.

use crate::churn::{Delta, Field};
use crate::{allocs, ms_since, peak_rss_mb, percentile, reply, side_for, sorted};
use crate::{Layers, Metrics, Outcome, Tally, RANGE};
use mdg_core::{GatheringPlan, HierConfig, HierPlan, PlannerConfig, ShdgPlanner, UNASSIGNED};
use mdg_cover::CoverageInstance;
use mdg_geom::Aabb;
use mdg_net::{Deployment, DeploymentConfig, Network};
use mdg_runtime::{repair_plan, RepairConfig};
use mdg_serve::protocol::GetPlanResponse;
use mdg_serve::{Client, ServeConfig, Server};
use std::time::Instant;

/// Session name the workloads plan under.
const FIELD: &str = "bench";
/// A `get_plan` follows every this-many deltas.
pub const GET_PLAN_EVERY: usize = 8;
/// Fewest deltas a run sends: 100 leave ten samples beyond the p90.
pub const MIN_DELTAS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The churn phase never runs longer than this, whatever [`MIN_DELTAS`] asks.
const MAX_CHURN_S: f64 = 100.0;

/// Size and length of a `serve_*` run.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Sensors in the cold plan.
    pub n: usize,
    /// Seconds of churn (the run goes on until [`MIN_DELTAS`]).
    pub seconds: f64,
    /// The daemon's `hier_threshold` (the default unless a test shrinks
    /// the field).
    pub hier_threshold: usize,
}

impl ServeSpec {
    /// The workload shape at `n` sensors under the default daemon config.
    pub fn new(n: usize, seconds: f64) -> Self {
        ServeSpec {
            n,
            seconds,
            hier_threshold: ServeConfig::default().hier_threshold,
        }
    }
}

/// A started daemon with its one client.
struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    /// Starts a server, connects and plans `dep` cold; returns the daemon
    /// and the cold plan's tour length.
    fn start(dep: &Deployment, hier_threshold: usize) -> Result<(Daemon, f64), String> {
        let server = Server::start(ServeConfig {
            hier_threshold,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start failed: {e}"))?;
        let planned = Client::connect(server.local_addr())
            .map_err(|e| format!("connect failed: {e}"))
            .and_then(|mut client| {
                let cold = reply(
                    "plan",
                    client.plan_sensors(FIELD, dep.sensors.clone(), Some(dep.sink), RANGE),
                )?;
                if cold.mode != "cold" || cold.n_sensors != dep.sensors.len() as u64 {
                    return Err(format!(
                        "cold plan summary is off: mode {}, {} sensors",
                        cold.mode, cold.n_sensors
                    ));
                }
                Ok((client, cold.tour_m))
            });
        match planned {
            Ok((client, tour)) => Ok((Daemon { server, client }, tour)),
            Err(e) => {
                server.shutdown();
                server.join();
                Err(e)
            }
        }
    }

    fn stop(mut self) -> Result<(), String> {
        let r = reply("shutdown", self.client.shutdown()).map(drop);
        self.server.join();
        r
    }
}

/// The client's checks on a `get_plan` reply after `deltas` deltas.
fn check_plan(resp: &GetPlanResponse, field: &Field) -> Result<(), String> {
    if resp.generation != field.deltas() {
        return Err(format!(
            "get_plan generation {} after {} deltas",
            resp.generation,
            field.deltas()
        ));
    }
    resp.plan
        .validate_live(field.sensors(), resp.range, field.alive())
        .map_err(|e| format!("served plan failed validate_live: {e}"))
}

/// Runs the workload. A traced run also counts allocations and replays
/// the churn in process for the per-layer split.
pub fn run(spec: &ServeSpec, seed: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    mdg_obs::alloc::set_counting(trace);
    let side = side_for(spec.n);
    let mut layers = Layers::default();
    let dep = layers.time("net.generate_ms", || {
        DeploymentConfig::uniform(spec.n, side).generate(seed)
    });

    // The first set-up's daemon serves the churn. The process's peak
    // resident set is read before the repeated set-ups: which allocator
    // arenas a later cold plan lands in varies from run to run, and so
    // would the peak.
    let t = Instant::now();
    let Some((mut d, cold_tour)) = out.tally.count(Daemon::start(&dep, spec.hier_threshold)) else {
        return out;
    };
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let churn = churn(&mut d.client, &dep, side, spec, seed, &mut out.tally);
    let served = if trace {
        out.tally.count(reply("get_plan", d.client.get_plan(FIELD)))
    } else {
        None
    };
    let peak_rss = peak_rss_mb();
    out.tally.count(d.stop());
    for _ in 1..SETUPS {
        let t = Instant::now();
        let Some((d, tour)) = out.tally.count(Daemon::start(&dep, spec.hier_threshold)) else {
            break;
        };
        setup_s.push(t.elapsed().as_secs_f64());
        out.tally.count(d.stop());
        if tour.to_bits() != cold_tour.to_bits() {
            out.tally.count::<()>(Err(format!(
                "cold plans of one deployment differ: {tour} vs {cold_tour}"
            )));
        }
    }

    let e = &mut out.e2e;
    let delta_sorted = sorted(&churn.delta_ms);
    // The median is taken over the deltas that only report deaths. At
    // 10k up to half of all deltas are expensive (additions rebuild the
    // network, deaths of polling-point anchors splice the tour), so the
    // median of all deltas sits on the edge of the cheap mode and jumps
    // between runs.
    let deaths_only: Vec<f64> = churn
        .delta_ms
        .iter()
        .zip(&churn.deltas)
        .filter(|(_, d)| d.added.is_empty())
        .map(|(&ms, _)| ms)
        .collect();
    e.set("op_ms_p50", percentile(&sorted(&deaths_only), 0.5));
    e.set("op_ms_p90", percentile(&delta_sorted, 0.9));
    e.set("read_ms_p50", percentile(&sorted(&churn.get_ms), 0.5));
    let busy_s = (churn.delta_ms.iter().sum::<f64>() + churn.get_ms.iter().sum::<f64>()) / 1e3;
    e.set(
        "ops_per_s",
        (churn.delta_ms.len() + churn.get_ms.len()) as f64 / busy_s.max(1e-9),
    );
    e.set("setup_s", percentile(&sorted(&setup_s), 0.5));
    e.set("tour_m", churn.tour_m);
    e.set("peak_rss_mb", peak_rss);
    out.samples.insert("op", churn.delta_ms.len());
    out.samples.insert("op_p50", deaths_only.len());
    out.samples.insert("read", churn.get_ms.len());
    out.samples.insert("setup", setup_s.len());

    if trace {
        let l = &mut out.layers;
        l.set("net.generate_ms", layers.pct("net.generate_ms", 0.5));
        l.set(
            "serve.server_ms_p50",
            percentile(&sorted(&churn.server_ms), 0.5),
        );
        let overhead: Vec<f64> = churn
            .delta_ms
            .iter()
            .zip(&churn.server_ms)
            .map(|(rt, server)| rt - server)
            .collect();
        l.set("serve.overhead_ms_p50", percentile(&sorted(&overhead), 0.5));
        let replayed = out
            .tally
            .count(replay(&dep, &churn.deltas, spec.hier_threshold, l));
        if let (Some(served), Some(replayed)) = (served, replayed) {
            out.tally.count(if served.plan == replayed {
                Ok(())
            } else {
                Err(format!(
                    "replayed plan differs from the served one (tour {} vs {})",
                    replayed.tour_length, served.plan.tour_length
                ))
            });
        }
    }
    out
}

/// What the churn phase measured.
#[derive(Default)]
struct Churn {
    deltas: Vec<Delta>,
    delta_ms: Vec<f64>,
    server_ms: Vec<f64>,
    get_ms: Vec<f64>,
    /// Tour after the [`MIN_DELTAS`]th delta (the same on every run of a seed).
    tour_m: f64,
}

/// The closed churn loop: deltas until `spec.seconds` have passed and
/// [`MIN_DELTAS`] were sent, with a `get_plan` every
/// [`GET_PLAN_EVERY`] deltas. Stops at the first failure.
fn churn(
    client: &mut Client,
    dep: &Deployment,
    side: f64,
    spec: &ServeSpec,
    seed: u64,
    tally: &mut Tally,
) -> Churn {
    let mut field = Field::new(dep, side, seed);
    let mut c = Churn::default();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if (c.deltas.len() >= MIN_DELTAS && elapsed >= spec.seconds) || elapsed > MAX_CHURN_S {
            break;
        }
        let delta = field.next_delta();
        let t = Instant::now();
        let r = client.delta(FIELD, delta.died.clone(), delta.added.clone(), None);
        let rt = ms_since(t);
        let summary = reply("delta", r).and_then(|s| {
            if s.generation == field.deltas()
                && s.n_sensors == field.sensors().len() as u64
                && s.live == field.n_live() as u64
            {
                Ok(s)
            } else {
                Err(format!(
                    "delta {} summary disagrees with the client's field: generation {}, {} sensors, {} live",
                    field.deltas(), s.generation, s.n_sensors, s.live
                ))
            }
        });
        let Some(summary) = tally.count(summary) else {
            break;
        };
        c.delta_ms.push(rt);
        c.server_ms.push(summary.elapsed_ms);
        c.deltas.push(delta);
        if c.deltas.len() == MIN_DELTAS {
            c.tour_m = summary.tour_m;
        }
        if c.deltas.len() % GET_PLAN_EVERY == 0 {
            let t = Instant::now();
            let r = client.get_plan(FIELD);
            let rt = ms_since(t);
            let checked = reply("get_plan", r).and_then(|p| check_plan(&p, &field));
            if tally.count(checked).is_none() {
                break;
            }
            c.get_ms.push(rt);
        }
    }
    c
}

/// Replays `deltas` on `dep` in process, calling the layers in the order
/// `FieldSession` calls them for a session of this size, and records the
/// per-layer metrics into `l`. Returns the final plan.
fn replay(
    dep: &Deployment,
    deltas: &[Delta],
    hier_threshold: usize,
    l: &mut Metrics,
) -> Result<GatheringPlan, String> {
    let mut layers = Layers::default();
    let sensors = dep.sensors.clone();
    let field = Aabb::from_points(&sensors).ok_or("empty deployment")?;
    let mut alive = vec![true; sensors.len()];
    let mut serialized = 0usize;
    let a0 = allocs();
    let mut delta_allocs = 0u64;

    let plan = if sensors.len() > hier_threshold {
        let mut sensors = sensors;
        let mut hier = layers
            .time("core.hier_plan_ms", || {
                HierPlan::build(&sensors, dep.sink, RANGE, HierConfig::default())
            })
            .map_err(|e| format!("replay hier plan failed: {e}"))?;
        layers
            .time("core.validate_ms", || hier.plan().validate(&sensors, RANGE))
            .map_err(|e| format!("replay cold plan invalid: {e}"))?;
        l.set("obs.allocs_cold", (allocs() - a0) as f64);
        l.set("core.tiles_occupied", hier.stats().n_occupied as f64);
        let (mut dirty, mut replanned, mut stops, mut rebuilds) = (0, 0, 0, 0);
        for (k, d) in deltas.iter().enumerate() {
            let a = allocs();
            let newly_dead: Vec<u32> = d
                .died
                .iter()
                .filter(|&&s| std::mem::replace(&mut alive[s as usize], false))
                .map(|&s| s as u32)
                .collect();
            sensors.extend_from_slice(&d.added);
            alive.resize(sensors.len(), true);
            let report = layers
                .time("core.hier_delta_ms", || {
                    hier.apply_delta(&sensors, &alive, &newly_dead, None)
                })
                .map_err(|e| format!("replay delta {} failed: {e}", k + 1))?;
            layers
                .time("core.validate_live_ms", || {
                    hier.plan().validate_live(&sensors, RANGE, &alive)
                })
                .map_err(|e| format!("replay delta {} invalid: {e}", k + 1))?;
            delta_allocs += allocs() - a;
            dirty += report.dirty_tiles;
            replanned += report.replanned_stops;
            stops += hier.plan().n_polling_points();
            rebuilds += usize::from(report.full_rebuild);
            if (k + 1) % GET_PLAN_EVERY == 0 {
                serialized = serialize(&mut layers, hier.plan(), k + 1)?;
            }
        }
        let n = deltas.len().max(1) as f64;
        l.set("core.dirty_tiles_per_delta", dirty as f64 / n);
        l.set(
            "core.replanned_share",
            replanned as f64 / stops.max(1) as f64,
        );
        l.set("core.full_rebuilds", rebuilds as f64);
        hier.into_plan_and_stats().0
    } else {
        let deployment = Deployment {
            sensors,
            sink: dep.sink,
            field,
        };
        let mut net = layers.time("net.build_ms", || Network::build(deployment, RANGE));
        let mut inst = layers.time("cover.instance_ms", || {
            CoverageInstance::sensor_sites(&net.deployment.sensors, RANGE)
        });
        let mut plan = layers
            .time("core.flat_plan_ms", || {
                ShdgPlanner::with_config(PlannerConfig::default()).plan(&net)
            })
            .map_err(|e| format!("replay flat plan failed: {e}"))?;
        layers
            .time("core.validate_ms", || {
                plan.validate(&net.deployment.sensors, RANGE)
            })
            .map_err(|e| format!("replay cold plan invalid: {e}"))?;
        l.set("obs.allocs_cold", (allocs() - a0) as f64);
        let repair_cfg = RepairConfig::default();
        let mut full_replans = 0;
        for (k, d) in deltas.iter().enumerate() {
            let a = allocs();
            for &s in &d.died {
                alive[s as usize] = false;
            }
            if !d.added.is_empty() {
                let mut sensors = net.deployment.sensors.clone();
                sensors.extend_from_slice(&d.added);
                let field = d
                    .added
                    .iter()
                    .fold(net.deployment.field, |f, &p| f.union(&Aabb::new(p, p)));
                let deployment = Deployment {
                    sensors,
                    sink: net.deployment.sink,
                    field,
                };
                net = layers.time("net.build_ms", || Network::build(deployment, RANGE));
                inst = layers.time("cover.instance_ms", || {
                    CoverageInstance::sensor_sites(&net.deployment.sensors, RANGE)
                });
                alive.resize(net.n_sensors(), true);
                plan.assignment.resize(net.n_sensors(), UNASSIGNED);
            }
            let report = layers.time("runtime.repair_ms", || {
                repair_plan(&mut plan, &net, &inst, &alive, &repair_cfg)
            });
            layers
                .time("core.validate_live_ms", || {
                    plan.validate_live(&net.deployment.sensors, RANGE, &alive)
                })
                .map_err(|e| format!("replay delta {} invalid: {e}", k + 1))?;
            delta_allocs += allocs() - a;
            full_replans += usize::from(report.full_replan);
            if (k + 1) % GET_PLAN_EVERY == 0 {
                serialized = serialize(&mut layers, &plan, k + 1)?;
            }
        }
        l.set(
            "net.udg_edges",
            (net.sensor_graph.m() + net.full_graph.m()) as f64,
        );
        l.set("runtime.full_replans", full_replans as f64);
        plan
    };

    for name in [
        "net.build_ms",
        "cover.instance_ms",
        "core.hier_plan_ms",
        "core.flat_plan_ms",
        "core.validate_ms",
        "serde_json.serialize_ms",
    ] {
        l.set(name, layers.pct(name, 0.5));
    }
    l.set(
        "core.hier_delta_ms_p50",
        layers.pct("core.hier_delta_ms", 0.5),
    );
    l.set(
        "core.validate_live_ms_p50",
        layers.pct("core.validate_live_ms", 0.5),
    );
    l.set(
        "runtime.repair_ms_p50",
        layers.pct("runtime.repair_ms", 0.5),
    );
    l.set(
        "runtime.repair_ms_p90",
        layers.pct("runtime.repair_ms", 0.9),
    );
    l.set("serde_json.bytes", serialized as f64);
    l.set(
        "obs.allocs_per_delta",
        delta_allocs as f64 / deltas.len().max(1) as f64,
    );
    Ok(plan)
}

/// Serialises `plan` as the daemon's `get_plan` reply; returns its length.
fn serialize(
    layers: &mut Layers,
    plan: &GatheringPlan,
    generation: usize,
) -> Result<usize, String> {
    let resp = GetPlanResponse {
        ok: true,
        field: FIELD.to_string(),
        generation: generation as u64,
        range: RANGE,
        plan: plan.clone(),
    };
    layers
        .time("serde_json.serialize_ms", || serde_json::to_string(&resp))
        .map(|json| json.len())
        .map_err(|e| format!("plan serialisation failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rejected_request_counts_as_failed() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut tally = Tally::default();
        let dep = DeploymentConfig::uniform(50, side_for(50)).generate(1);
        let plan = client.plan_sensors(FIELD, dep.sensors.clone(), Some(dep.sink), RANGE);
        tally.count(reply("plan", plan)).unwrap();
        // An id past the field and an unknown session are both `ok: false`.
        tally.count(reply("delta", client.delta(FIELD, vec![50], vec![], None)));
        tally.count(reply("delta", client.delta("nope", vec![1], vec![], None)));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally
            .first_error
            .as_deref()
            .unwrap()
            .contains("bad_request"));
        assert!((tally.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
        client.shutdown().unwrap().unwrap();
        server.join();
    }
}
