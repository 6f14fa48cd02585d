//! Warm per-field planning sessions.
//!
//! A [`FieldSession`] is the reason the daemon exists: it keeps everything
//! that is expensive to build and slow to change resident between
//! requests, so a `delta` request runs over warm state instead of
//! planning cold. A session comes in two flavors, chosen at creation:
//!
//! * **Flat** (the default up to [`FieldSession::plan_cold_auto`]'s threshold): the
//!   deployment, unit-disk graph and spatial grid ([`Network`]), the
//!   sensor-site coverage instance, the alive mask, and the current plan.
//!   Deltas run `mdg-runtime`'s adopt/splice/cheapest-insertion repair.
//! * **Hier** (large fields): a retained [`HierPlan`] — tiling, per-tile
//!   member lists and sub-tours — plus the raw sensor positions and the
//!   alive mask. Deltas run [`HierPlan::apply_delta`]'s dirty-tile
//!   replan: only tiles touched by the delta are re-planned, so a small
//!   delta on a million-sensor field costs its dirty tiles, one `O(live)`
//!   pass that rewrites the plan's assignment, and the closing
//!   [`GatheringPlan::validate_live`], not a field-wide re-plan.
//!   No field-wide network or coverage lists (the flat session's
//!   `O(pairs)` bytes) are built, which keeps warm million-sensor
//!   sessions small.
//!
//! ## Repair-vs-replan decision
//!
//! A delta takes one of three paths, in increasing cost:
//!
//! 1. **Repair** (the common case): flat sessions flip the alive mask and
//!    patch the tour locally with [`repair_plan`]; hier sessions re-plan
//!    only the dirty tiles and re-stitch.
//! 2. **Rebuild + repair** (flat only): sensors were added or the range
//!    changed. The spatial structures are rebuilt for the new geometry —
//!    `O(n)` spatial work, still far from a cold plan — then repair runs.
//!    Hier sessions absorb additions through the dirty-tile path
//!    directly (the tile lattice maps new positions without a rebuild).
//! 3. **Full replan**: flat repair escalates when it lost too much of
//!    the tour ([`RepairConfig::full_replan_stop_fraction`]); hier deltas
//!    escalate when ≥ 50% of occupied tiles are dirty or the range
//!    changed. The session reports the delta as `mode: "replan"`.
//!
//! Every delta ends with [`GatheringPlan::validate_live`]: an invalid
//! repaired plan is a hard error, never silently served. The error type
//! distinguishes the two failure worlds — [`DeltaError::Invalid`] (the
//! request was rejected before any mutation; the session is fine) versus
//! [`DeltaError::Corrupt`] (the session mutated and then failed
//! validation; the server evicts it rather than serve corrupt state).

use crate::protocol::SessionInfo;
use mdg_core::{
    CandidateMode, GatheringPlan, HierConfig, HierPlan, PlannerConfig, ShdgPlanner, UNASSIGNED,
};
use mdg_cover::CoverageInstance;
use mdg_geom::{Aabb, Point, MAX_COORD};
use mdg_net::{Deployment, Network};
use mdg_runtime::{repair_plan, RepairConfig};
use std::time::Instant;

/// Why a delta failed — and, critically, whether the session survived it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The request was rejected during validation, before any state
    /// changed. The session is still consistent and must be retained;
    /// the client gets a `bad_request`.
    Invalid(String),
    /// The session mutated and the repaired plan then failed validation.
    /// Its state can no longer be trusted: the caller MUST evict it (the
    /// client gets an `internal` error and re-plans cold).
    Corrupt(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Invalid(msg) => write!(f, "{msg}"),
            DeltaError::Corrupt(msg) => write!(f, "session corrupted: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// How a delta was resolved (the `mode` field of a `delta` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMode {
    /// The delta required no plan change.
    Noop,
    /// Incremental repair: adopt/splice for flat sessions, dirty-tile
    /// replan for hier sessions.
    Repair,
    /// Repair escalated to a full re-plan.
    Replan,
}

impl DeltaMode {
    /// Wire name of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaMode::Noop => "noop",
            DeltaMode::Repair => "repair",
            DeltaMode::Replan => "replan",
        }
    }
}

/// What one [`FieldSession::apply_delta`] call did.
#[derive(Debug, Clone, Copy)]
pub struct DeltaOutcome {
    /// Resolution path.
    pub mode: DeltaMode,
    /// Wall time spent applying the delta, milliseconds.
    pub elapsed_ms: f64,
}

/// Cumulative per-session statistics (reported by `metrics`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Wall time of the cold plan that created the session, ms.
    pub cold_plan_ms: f64,
    /// Delta requests applied.
    pub deltas: u64,
    /// Deltas resolved by incremental repair.
    pub repairs: u64,
    /// Deltas that escalated to a full re-plan.
    pub full_replans: u64,
}

/// The per-flavor warm state behind a [`FieldSession`].
enum State {
    /// Flat planning: full spatial structures + adopt/splice repair.
    Flat {
        net: Box<Network>,
        inst: CoverageInstance,
        plan: GatheringPlan,
        repair_cfg: RepairConfig,
    },
    /// Hierarchical planning: retained tiled plan + dirty-tile replan.
    /// Sensor positions live here (dead slots keep their position so ids
    /// stay stable); the plan itself is inside [`HierPlan`].
    Hier { sensors: Vec<Point>, hier: HierPlan },
}

/// A warm planning session for one named field.
pub struct FieldSession {
    /// Session name (the protocol's `field`).
    pub name: String,
    alive: Vec<bool>,
    state: State,
    /// Monotonic plan generation (0 = the cold plan).
    pub generation: u64,
    /// Cumulative statistics.
    pub stats: SessionStats,
}

impl FieldSession {
    /// Plans `deployment` cold with the flat planner and wraps the result
    /// in a warm session. The plan is made over the session's own
    /// sensor-site instance, which repair keeps reading, so grid
    /// candidates are rejected.
    pub fn plan_cold(
        name: impl Into<String>,
        deployment: Deployment,
        range: f64,
        planner_cfg: PlannerConfig,
    ) -> Result<Self, String> {
        if let CandidateMode::Grid { .. } = planner_cfg.candidates {
            return Err("flat sessions require sensor-site candidates \
                        (repair anchors each stop at a sensor)"
                .into());
        }
        let t0 = Instant::now();
        let _sp = mdg_obs::span("cold_plan");
        let net = Network::build(deployment, range);
        let inst = {
            let _sp = mdg_obs::span("instance");
            CoverageInstance::sensor_sites(&net.deployment.sensors, range)
        };
        let plan = ShdgPlanner::with_config(planner_cfg)
            .plan_instance(&inst, net.deployment.sink)
            .map_err(|e| e.to_string())?;
        plan.validate(&net.deployment.sensors, range)
            .map_err(|e| format!("cold plan failed validation: {e}"))?;
        let alive = vec![true; net.n_sensors()];
        Ok(FieldSession {
            name: name.into(),
            alive,
            state: State::Flat {
                net: Box::new(net),
                inst,
                plan,
                repair_cfg: RepairConfig::default(),
            },
            generation: 0,
            stats: SessionStats {
                cold_plan_ms: t0.elapsed().as_secs_f64() * 1e3,
                ..SessionStats::default()
            },
        })
    }

    /// Plans `deployment` cold with the hierarchical tiled planner and
    /// wraps the retained [`HierPlan`] in a warm session. Deltas on this
    /// session run the dirty-tile incremental path.
    pub fn plan_cold_hier(
        name: impl Into<String>,
        deployment: Deployment,
        range: f64,
        hier_cfg: HierConfig,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let _sp = mdg_obs::span("cold_plan");
        let Deployment { sensors, sink, .. } = deployment;
        let hier = HierPlan::build(&sensors, sink, range, hier_cfg).map_err(|e| e.to_string())?;
        hier.plan()
            .validate(&sensors, range)
            .map_err(|e| format!("cold hier plan failed validation: {e}"))?;
        let alive = vec![true; sensors.len()];
        Ok(FieldSession {
            name: name.into(),
            alive,
            state: State::Hier { sensors, hier },
            generation: 0,
            stats: SessionStats {
                cold_plan_ms: t0.elapsed().as_secs_f64() * 1e3,
                ..SessionStats::default()
            },
        })
    }

    /// Plans cold, picking the session flavor by size: fields larger than
    /// `hier_threshold` sensors get a hierarchical session (the flat
    /// planner's superlinear time and its field-wide graphs and coverage
    /// lists are the scaling wall), smaller fields get the flat planner's
    /// better tours.
    pub fn plan_cold_auto(
        name: impl Into<String>,
        deployment: Deployment,
        range: f64,
        planner_cfg: PlannerConfig,
        hier_threshold: usize,
    ) -> Result<Self, String> {
        if deployment.sensors.len() > hier_threshold {
            let hier_cfg = HierConfig {
                base: planner_cfg,
                ..HierConfig::default()
            };
            Self::plan_cold_hier(name, deployment, range, hier_cfg)
        } else {
            Self::plan_cold(name, deployment, range, planner_cfg)
        }
    }

    /// The session's current plan.
    pub fn plan(&self) -> &GatheringPlan {
        match &self.state {
            State::Flat { plan, .. } => plan,
            State::Hier { hier, .. } => hier.plan(),
        }
    }

    /// All sensor positions the session tracks (dead slots included).
    pub fn sensors(&self) -> &[Point] {
        match &self.state {
            State::Flat { net, .. } => &net.deployment.sensors,
            State::Hier { sensors, .. } => sensors,
        }
    }

    /// The data sink (tour start/end).
    pub fn sink(&self) -> Point {
        match &self.state {
            State::Flat { net, .. } => net.deployment.sink,
            State::Hier { hier, .. } => hier.plan().sink,
        }
    }

    /// The transmission range the current plan covers at.
    pub fn range(&self) -> f64 {
        match &self.state {
            State::Flat { net, .. } => net.range,
            State::Hier { hier, .. } => hier.range(),
        }
    }

    /// Session flavor: `"flat"` or `"hier"`.
    pub fn kind(&self) -> &'static str {
        match &self.state {
            State::Flat { .. } => "flat",
            State::Hier { .. } => "hier",
        }
    }

    /// The session's alive mask.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of live sensors.
    pub fn n_live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Rough heap footprint of the warm state, in bytes. Feeds the
    /// server's byte-aware LRU eviction; an estimate, not an audit.
    ///
    /// The flat estimate counts what the session holds: the coverage
    /// lists at 4 bytes per covering pair, both unit-disk graphs at 24
    /// bytes per edge, a fixed share per sensor (positions, grid, list
    /// and row starts, alive mask) and the plan, so it grows with the
    /// pairs within range. The hier estimate is linear in `n`.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.alive.len() as u64;
        match &self.state {
            State::Flat {
                net, inst, plan, ..
            } => {
                let pairs: usize = (0..inst.n_candidates()).map(|c| inst.covers(c).len()).sum();
                let edges = net.sensor_graph.m() + net.full_graph.m();
                n * 105 + pairs as u64 * 4 + edges as u64 * 24 + plan.approx_bytes()
            }
            State::Hier { hier, .. } => n * 17 + hier.approx_bytes(),
        }
    }

    /// Applies a field mutation — `died` sensor ids, `added` sensor
    /// positions, and/or a new transmission `range` — and restores full
    /// live coverage via incremental repair (full-replan fallback).
    ///
    /// Validation errors ([`DeltaError::Invalid`]: out-of-range ids,
    /// non-finite or astronomically large positions, invalid range)
    /// leave the session untouched. A repair-level failure after the
    /// session has mutated surfaces as [`DeltaError::Corrupt`]; the
    /// caller MUST evict the session — its state is no longer trusted.
    pub fn apply_delta(
        &mut self,
        died: &[u64],
        added: &[Point],
        new_range: Option<f64>,
    ) -> Result<DeltaOutcome, DeltaError> {
        let t0 = Instant::now();
        // Validate everything before mutating anything.
        let n = self.alive.len();
        for &s in died {
            if s as usize >= n {
                return Err(DeltaError::Invalid(format!(
                    "died id {s} out of range (session has {n} sensors)"
                )));
            }
        }
        for p in added {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(DeltaError::Invalid(format!(
                    "added sensor at non-finite position ({}, {})",
                    p.x, p.y
                )));
            }
            if p.x.abs() > MAX_COORD || p.y.abs() > MAX_COORD {
                return Err(DeltaError::Invalid(format!(
                    "added sensor at ({}, {}) exceeds the ±{MAX_COORD:e} m coordinate bound",
                    p.x, p.y
                )));
            }
        }
        if let Some(r) = new_range {
            if !(r.is_finite() && r > 0.0) {
                return Err(DeltaError::Invalid(format!(
                    "range must be a positive number, got {r}"
                )));
            }
            if r > MAX_COORD {
                return Err(DeltaError::Invalid(format!(
                    "range {r} exceeds the {MAX_COORD:e} m bound"
                )));
            }
        }
        let range_changed = new_range.is_some_and(|r| (r - self.range()).abs() > 1e-12);
        if died.is_empty() && added.is_empty() && !range_changed {
            // Nothing to apply, but the delta is acknowledged like any
            // other: its generation is how a client detects a missed one.
            self.generation += 1;
            self.stats.deltas += 1;
            return Ok(DeltaOutcome {
                mode: DeltaMode::Noop,
                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }

        let alive = &mut self.alive;
        let mode = match &mut self.state {
            State::Flat {
                net,
                inst,
                plan,
                repair_cfg,
            } => {
                for &s in died {
                    alive[s as usize] = false;
                }

                // Structural changes (growth, range change) invalidate the
                // spatial structures; rebuild them — O(n) grid/UDG work,
                // no planning.
                if !added.is_empty() || range_changed {
                    let _sp = mdg_obs::span("delta/rebuild");
                    let range = new_range.unwrap_or(net.range);
                    let mut sensors = net.deployment.sensors.clone();
                    sensors.extend_from_slice(added);
                    let field = added
                        .iter()
                        .fold(net.deployment.field, |f, &p| f.union(&Aabb::new(p, p)));
                    **net = Network::build(
                        Deployment {
                            sensors,
                            sink: net.deployment.sink,
                            field,
                        },
                        range,
                    );
                    // Free the old lists (an empty instance holds none)
                    // before building their replacement, so the two never
                    // coexist.
                    *inst = CoverageInstance::sensor_sites(&[], range);
                    *inst = {
                        let _sp = mdg_obs::span("instance");
                        CoverageInstance::sensor_sites(&net.deployment.sensors, range)
                    };
                    alive.resize(net.n_sensors(), true);
                    plan.assignment.resize(net.n_sensors(), UNASSIGNED);
                    if range_changed {
                        unassign_out_of_range(plan, &net.deployment.sensors, net.range);
                    }
                }

                let report = {
                    let _sp = mdg_obs::span("delta/repair");
                    repair_plan(plan, net, inst, alive, repair_cfg)
                };

                // Past this point the session has mutated: a validation
                // failure is corruption, not a rejectable request.
                plan.validate_live(&net.deployment.sensors, net.range, alive)
                    .map_err(|e| {
                        DeltaError::Corrupt(format!("repaired plan failed validation: {e}"))
                    })?;

                if report.full_replan {
                    DeltaMode::Replan
                } else if report.changed() {
                    DeltaMode::Repair
                } else {
                    DeltaMode::Noop
                }
            }
            State::Hier { sensors, hier } => {
                // The dirty-tile path wants *newly* dead ids (a repeated
                // death must not dirty its tile again) and appended
                // positions; the retained HierPlan does the rest.
                let mut newly_dead: Vec<u32> = Vec::with_capacity(died.len());
                for &s in died {
                    if alive[s as usize] {
                        alive[s as usize] = false;
                        newly_dead.push(s as u32);
                    }
                }
                sensors.extend_from_slice(added);
                alive.resize(sensors.len(), true);

                let report = hier
                    .apply_delta(sensors, alive, &newly_dead, new_range)
                    .map_err(|e| DeltaError::Corrupt(format!("dirty-tile replan failed: {e}")))?;

                hier.plan()
                    .validate_live(sensors, hier.range(), alive)
                    .map_err(|e| {
                        DeltaError::Corrupt(format!("hier delta plan failed validation: {e}"))
                    })?;

                if report.full_rebuild {
                    DeltaMode::Replan
                } else if !report.is_noop() {
                    DeltaMode::Repair
                } else {
                    DeltaMode::Noop
                }
            }
        };

        self.generation += 1;
        self.stats.deltas += 1;
        match mode {
            DeltaMode::Replan => self.stats.full_replans += 1,
            DeltaMode::Repair => self.stats.repairs += 1,
            DeltaMode::Noop => {}
        }
        Ok(DeltaOutcome {
            mode,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Per-session summary for the `metrics` response.
    pub fn info(&self) -> SessionInfo {
        SessionInfo {
            field: self.name.clone(),
            kind: self.kind().to_string(),
            n_sensors: self.alive.len() as u64,
            live: self.n_live() as u64,
            polling_points: self.plan().n_polling_points() as u64,
            tour_m: self.plan().tour_length,
            generation: self.generation,
            approx_bytes: self.approx_bytes(),
            cold_plan_ms: self.stats.cold_plan_ms,
            deltas: self.stats.deltas,
            repairs: self.stats.repairs,
            full_replans: self.stats.full_replans,
        }
    }
}

/// After a range change, drops every assignment the new range no longer
/// supports; the orphans re-enter coverage through repair.
fn unassign_out_of_range(plan: &mut GatheringPlan, sensors: &[Point], range: f64) {
    let GatheringPlan {
        polling_points,
        assignment,
        ..
    } = plan;
    for (k, pp) in polling_points.iter_mut().enumerate() {
        pp.covered.retain(|&s| {
            let keep = sensors[s as usize].dist(pp.pos) <= range + 1e-9;
            if !keep {
                debug_assert_eq!(assignment[s as usize], k);
                assignment[s as usize] = UNASSIGNED;
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::DeploymentConfig;

    fn session(n: usize, seed: u64) -> FieldSession {
        FieldSession::plan_cold(
            "t",
            DeploymentConfig::uniform(n, 200.0).generate(seed),
            30.0,
            PlannerConfig::default(),
        )
        .unwrap()
    }

    fn hier_session(n: usize, seed: u64) -> FieldSession {
        let cfg = HierConfig {
            tile_cells: Some(5.0),
            ..HierConfig::default()
        };
        FieldSession::plan_cold_hier(
            "h",
            DeploymentConfig::uniform(n, 400.0).generate(seed),
            30.0,
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn cold_plan_builds_a_valid_session() {
        let s = session(120, 1);
        assert_eq!(s.generation, 0);
        assert_eq!(s.n_live(), 120);
        assert_eq!(s.kind(), "flat");
        assert!(s.plan().n_polling_points() > 0);
        assert!(s.stats.cold_plan_ms >= 0.0);
    }

    #[test]
    fn grid_candidates_are_rejected() {
        let cfg = PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 20.0 },
            ..PlannerConfig::default()
        };
        let dep = DeploymentConfig::uniform(50, 200.0).generate(1);
        assert!(FieldSession::plan_cold("g", dep, 30.0, cfg).is_err());
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut s = session(100, 2);
        let out = s.apply_delta(&[], &[], None).unwrap();
        assert_eq!(out.mode, DeltaMode::Noop);
        assert_eq!(s.generation, 1);
    }

    #[test]
    fn every_acknowledged_noop_advances_the_generation() {
        for mut s in [session(100, 2), hier_session(400, 2)] {
            let victim = 0;
            s.apply_delta(&[victim], &[], None).unwrap();
            let (generation, deltas) = (s.generation, s.stats.deltas);
            let tour = s.plan().tour_length;
            let empty = s.apply_delta(&[], &[], None).unwrap();
            assert_eq!(empty.mode, DeltaMode::Noop, "{}", s.kind());
            assert_eq!((s.generation, s.stats.deltas), (generation + 1, deltas + 1));
            let repeated = s.apply_delta(&[victim], &[], None).unwrap();
            assert_eq!(repeated.mode, DeltaMode::Noop, "{}", s.kind());
            assert_eq!((s.generation, s.stats.deltas), (generation + 2, deltas + 2));
            assert_eq!(s.plan().tour_length.to_bits(), tour.to_bits());
        }
    }

    #[test]
    fn deaths_repair_in_place() {
        let mut s = session(150, 3);
        let victims: Vec<u64> = s.plan().polling_points[..2]
            .iter()
            .map(|pp| pp.candidate as u64)
            .collect();
        let out = s.apply_delta(&victims, &[], None).unwrap();
        assert_eq!(out.mode, DeltaMode::Repair);
        assert_eq!(s.generation, 1);
        assert_eq!(s.n_live(), 148);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn additions_grow_the_session_and_stay_covered() {
        let mut s = session(100, 4);
        let added = vec![Point::new(10.0, 10.0), Point::new(195.0, 195.0)];
        let out = s.apply_delta(&[], &added, None).unwrap();
        assert_eq!(out.mode, DeltaMode::Repair);
        assert_eq!(s.alive().len(), 102);
        assert_eq!(s.n_live(), 102);
        // Every live sensor (including the new ones) is covered again.
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn range_shrink_recovers_coverage() {
        let mut s = session(150, 5);
        let out = s.apply_delta(&[], &[], Some(20.0)).unwrap();
        assert!(matches!(out.mode, DeltaMode::Repair | DeltaMode::Replan));
        assert!((s.range() - 20.0).abs() < 1e-12);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn mass_death_escalates_to_replan() {
        let mut s = session(150, 6);
        let victims: Vec<u64> = s
            .plan()
            .polling_points
            .iter()
            .map(|pp| pp.candidate as u64)
            .collect();
        let out = s.apply_delta(&victims, &[], None).unwrap();
        assert_eq!(out.mode, DeltaMode::Replan);
        assert_eq!(s.stats.full_replans, 1);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn bad_delta_leaves_the_session_untouched() {
        let mut s = session(80, 7);
        let before_gen = s.generation;
        for err in [
            s.apply_delta(&[80], &[], None).unwrap_err(),
            s.apply_delta(&[], &[Point::new(f64::NAN, 0.0)], None)
                .unwrap_err(),
            s.apply_delta(&[], &[], Some(-1.0)).unwrap_err(),
        ] {
            assert!(
                matches!(err, DeltaError::Invalid(_)),
                "pre-mutation rejection must be Invalid, got {err:?}"
            );
        }
        assert_eq!(s.generation, before_gen);
        assert_eq!(s.n_live(), 80);
    }

    #[test]
    fn huge_finite_coordinates_are_rejected_before_mutation() {
        // 1e300 is finite, but its squared distances overflow to inf and
        // used to corrupt the session *after* it had mutated. The
        // magnitude guard now rejects it in the validation phase.
        let mut s = session(60, 9);
        let before = s.plan().clone();
        for bad in [
            Point::new(1e300, 0.0),
            Point::new(0.0, -1e300),
            Point::new(MAX_COORD * 2.0, 0.0),
        ] {
            let err = s.apply_delta(&[], &[bad], None).unwrap_err();
            assert!(matches!(err, DeltaError::Invalid(_)), "{bad:?}: {err:?}");
        }
        // Session fully intact and still serving the same plan.
        assert_eq!(s.generation, 0);
        assert_eq!(s.alive().len(), 60);
        assert_eq!(*s.plan(), before);
        s.apply_delta(&[], &[Point::new(50.0, 50.0)], None).unwrap();
    }

    #[test]
    fn repeated_deltas_keep_generations_monotone() {
        let mut s = session(200, 8);
        let mut killed = 0u64;
        for i in 0..5 {
            let victim = s
                .alive()
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a)
                .map(|(i, _)| i as u64)
                .nth(i * 7)
                .unwrap();
            s.apply_delta(&[victim], &[], None).unwrap();
            killed += 1;
            assert_eq!(s.generation, killed);
        }
        assert_eq!(s.n_live(), 195);
    }

    #[test]
    fn hier_session_plans_cold_and_absorbs_deltas() {
        let mut s = hier_session(600, 11);
        assert_eq!(s.kind(), "hier");
        assert_eq!(s.n_live(), 600);
        s.plan().validate(s.sensors(), s.range()).unwrap();

        // Deaths run the dirty-tile path.
        let victims: Vec<u64> = s.plan().polling_points[..2]
            .iter()
            .map(|pp| pp.candidate as u64)
            .collect();
        let out = s.apply_delta(&victims, &[], None).unwrap();
        assert_eq!(out.mode, DeltaMode::Repair);
        assert_eq!(s.generation, 1);
        assert_eq!(s.stats.repairs, 1);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();

        // Additions extend the session through the same path.
        let added = vec![Point::new(15.0, 15.0), Point::new(390.0, 390.0)];
        let out = s.apply_delta(&[], &added, None).unwrap();
        assert_eq!(out.mode, DeltaMode::Repair);
        assert_eq!(s.alive().len(), 602);
        assert_eq!(s.n_live(), 600);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn hier_session_range_change_is_a_full_replan() {
        let mut s = hier_session(500, 12);
        let out = s.apply_delta(&[], &[], Some(25.0)).unwrap();
        assert_eq!(out.mode, DeltaMode::Replan);
        assert_eq!(s.stats.full_replans, 1);
        assert!((s.range() - 25.0).abs() < 1e-12);
        s.plan()
            .validate_live(s.sensors(), s.range(), s.alive())
            .unwrap();
    }

    #[test]
    fn hier_session_rejects_bad_deltas_pre_mutation() {
        let mut s = hier_session(400, 13);
        for err in [
            s.apply_delta(&[400], &[], None).unwrap_err(),
            s.apply_delta(&[], &[Point::new(f64::INFINITY, 0.0)], None)
                .unwrap_err(),
            s.apply_delta(&[], &[], Some(0.0)).unwrap_err(),
        ] {
            assert!(matches!(err, DeltaError::Invalid(_)), "{err:?}");
        }
        assert_eq!(s.generation, 0);
        assert_eq!(s.n_live(), 400);
    }

    #[test]
    fn auto_selection_picks_the_flavor_by_size() {
        let small = FieldSession::plan_cold_auto(
            "s",
            DeploymentConfig::uniform(100, 200.0).generate(1),
            30.0,
            PlannerConfig::default(),
            200,
        )
        .unwrap();
        assert_eq!(small.kind(), "flat");
        let big = FieldSession::plan_cold_auto(
            "b",
            DeploymentConfig::uniform(300, 300.0).generate(1),
            30.0,
            PlannerConfig::default(),
            200,
        )
        .unwrap();
        assert_eq!(big.kind(), "hier");
        big.plan().validate(big.sensors(), big.range()).unwrap();
    }
}
