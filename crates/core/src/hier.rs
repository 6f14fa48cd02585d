//! Hierarchical (tiled) SHDG planning for very large fields.
//!
//! The flat planner's time is superlinear in the sensor count — S1 reads
//! 0.90 s at 20 000 sensors and 23.8 s at 100 000 — which walls it off
//! somewhere past 100k sensors. The standard escape hatch in the
//! mobile-sink literature is spatial decomposition: partition the field
//! geometrically, solve each region as an independent sub-problem, and
//! join the regional tours. This module implements that pipeline:
//!
//! 1. **Tiling** — a [`mdg_geom::Tiling`] lattice of square tiles sized
//!    so each holds roughly 2 048 sensors (or explicitly via
//!    [`HierConfig::tile_cells`]); [`HierPlan`] groups the live sensors
//!    into per-tile member lists by [`mdg_geom::Tiling::tile_of`].
//! 2. **Per-tile planning** — every non-empty tile runs the flat
//!    planner's own cover → prune → tour → assign pipeline on a
//!    *tile-local* sensor-site instance, in parallel across tiles on
//!    `mdg-par`. Two inputs differ from a flat plan: cover ties break
//!    toward the tile center instead of the sink, and the sink is not a
//!    tour vertex (the tile is toured as a cycle over its own stops).
//!    Costs are quadratic in the tile, not the field.
//! 3. **Stitching** — sub-tours are concatenated in serpentine tile
//!    order: each is opened at its longest edge and oriented to shorten
//!    the seam; tiles with fewer than three stops are spliced into the
//!    growing cycle via [`mdg_tour::cheapest_insertion_position`].
//! 4. **Touch-up** — candidate-list 2-opt and Or-opt seeded *only at the
//!    seam vertices* ([`mdg_tour::two_opt_neighbors_seeded`],
//!    [`mdg_tour::or_opt_neighbors_seeded`]) repair cross-tile crossings
//!    at a cost proportional to the seams.
//!
//! ## Incremental replanning
//!
//! The pipeline's intermediate state — the tiling, each tile's member
//! sensors, and each tile's pre-stitch sub-tour — is retained in
//! [`HierPlan`], which makes deltas local: a sensor death or addition
//! dirties only the tile that owns its position ([`mdg_geom::Tiling::tile_of`]),
//! [`HierPlan::apply_delta`] re-runs cover → prune → tour → assign on
//! the dirty tiles only, re-stitches from the retained sub-tours (an
//! `O(stops)` concatenation), re-polishes only the seams adjacent to
//! dirty tiles (computing k-NN rows only for the stops the polish reads),
//! and patches the served plan: clean tiles' polling points move over as
//! they are and the assignment is rewritten in one `O(live)` pass. A
//! delta thus costs its dirty tiles plus that pass, not a field-wide
//! rebuild. When a delta dirties at least half the occupied tiles — or
//! changes the transmission range, which invalidates every cover — the
//! incremental path escalates to a full re-plan.
//!
//! ## Determinism
//!
//! Hierarchical plans — cold and after any delta sequence — are
//! bit-identical at any thread count. The tile fan-out uses the
//! order-preserving `mdg_par::par_map`, nested parallel calls inside a
//! tile fall back inline (so per-tile arithmetic never depends on
//! sibling tiles), and stitching consumes the tile results in serpentine
//! (index-derived) order with strict-inequality tie-breaks. Dirty tiles
//! are re-planned in the same serpentine order.
//!
//! ## Quality
//!
//! The price of locality is a slightly longer tour: each tile is toured
//! in isolation, so only the seams are globally optimized. The S5 sweep
//! (`BENCH_scale_hier.json`) gates the regression at ≤ 1.25× the flat
//! tour on fields both planners can solve; the serve-layer equivalence
//! suite additionally bounds post-churn incremental plans against a cold
//! re-plan of the same field.

use crate::error::PlanError;
use crate::mutate::UNASSIGNED;
use crate::plan::{GatheringPlan, PollingPoint};
use crate::planner::{check_capacity, plan_stops, CandidateMode, PlannerConfig};
use mdg_cover::CoverageInstance;
use mdg_geom::{Aabb, Point, Tiling};
use mdg_net::Network;
use mdg_tour::{
    cheapest_insertion_position, or_opt_neighbors_seeded, two_opt_neighbors_seeded, NeighborLists,
    Tour,
};

/// Neighbors per city in the seam touch-up's candidate lists. Seam
/// repairs are local, so a short list suffices.
const TOUCH_UP_NEIGHBORS: usize = 8;

/// Sensors per tile that automatic tile sizing aims at: small enough that
/// a tile plans in milliseconds, large enough that seams are rare.
const TARGET_PER_TILE: usize = 2048;

/// Hierarchical planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HierConfig {
    /// Per-tile planning configuration. `candidates` must be
    /// [`CandidateMode::SensorSites`]; tile instances are sensor-site by
    /// construction, which also guarantees per-tile feasibility.
    pub base: PlannerConfig,
    /// Explicit tile side, in multiples of the transmission range
    /// (`Some(8.0)` with a 30 m range gives 240 m tiles). `None` sizes
    /// tiles automatically from the field density so each holds about
    /// 2 048 sensors.
    pub tile_cells: Option<f64>,
}

/// How a hierarchical plan came together, for logs and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierStats {
    /// Total tiles in the lattice (including empty ones).
    pub n_tiles: usize,
    /// Tiles that contained at least one sensor (and thus a sub-plan).
    pub n_occupied: usize,
    /// Stops from degenerate (< 3 stop) tiles spliced individually.
    pub spliced_stops: usize,
    /// Effective tile side in meters.
    pub tile_side: f64,
}

/// What [`HierPlan::apply_delta`] did, for session stats and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierDeltaReport {
    /// The delta escalated to a full re-plan (≥ 50% of occupied tiles
    /// dirty, or a range change).
    pub full_rebuild: bool,
    /// Tiles dirtied by the delta (0 = the delta was a no-op).
    pub dirty_tiles: usize,
    /// Occupied tiles after the delta.
    pub occupied_tiles: usize,
    /// Polling points re-planned (dirty tiles' stops, or the whole plan
    /// on escalation).
    pub replanned_stops: usize,
}

impl HierDeltaReport {
    /// True when the delta changed nothing (no dirty tiles, no rebuild).
    pub fn is_noop(&self) -> bool {
        !self.full_rebuild && self.dirty_tiles == 0
    }
}

/// The hierarchical tiled planner. See the module docs for the pipeline.
///
/// ```
/// use mdg_core::hier::HierPlanner;
/// use mdg_net::{DeploymentConfig, Network};
///
/// let net = Network::build(DeploymentConfig::uniform(400, 400.0).generate(7), 30.0);
/// let plan = HierPlanner::new().plan(&net).unwrap();
/// assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HierPlanner {
    config: HierConfig,
}

/// A planned tile: its stops in cycle order plus the assignment choices,
/// all in *global* sensor ids.
#[derive(Debug, Clone)]
struct TilePlan {
    /// Stop positions, cycle order.
    stops: Vec<Point>,
    /// Global sensor id of each stop, parallel to `stops`.
    cands: Vec<u32>,
    /// For each live tile member (member order): global sensor id of the
    /// stop it uploads to.
    chosen: Vec<u32>,
}

impl HierPlanner {
    /// Planner with the default configuration.
    pub fn new() -> Self {
        HierPlanner::default()
    }

    /// Planner with an explicit configuration.
    pub fn with_config(config: HierConfig) -> Self {
        HierPlanner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierConfig {
        &self.config
    }

    /// Plans a single-collector gathering tour hierarchically.
    pub fn plan(&self, net: &Network) -> Result<GatheringPlan, PlanError> {
        self.plan_with_stats(net).map(|(plan, _)| plan)
    }

    /// Like [`HierPlanner::plan`], also reporting tiling statistics.
    pub fn plan_with_stats(&self, net: &Network) -> Result<(GatheringPlan, HierStats), PlanError> {
        HierPlan::build(
            &net.deployment.sensors,
            net.deployment.sink,
            net.range,
            self.config,
        )
        .map(HierPlan::into_plan_and_stats)
    }
}

/// A retained hierarchical plan: the finished [`GatheringPlan`] plus the
/// intermediate state needed to update it incrementally — the tile
/// lattice, each tile's live member sensors (the only membership table),
/// each tile's pre-stitch sub-tour, and where each stop sits in the served
/// plan.
///
/// `HierPlan` does **not** own the sensor coordinates: the caller (a
/// warm serving session, typically) keeps the growing `Vec<Point>` and
/// alive mask and passes them to [`HierPlan::apply_delta`], so a
/// million-sensor field is stored once, not twice.
///
/// ```
/// use mdg_core::hier::{HierConfig, HierPlan};
/// use mdg_net::DeploymentConfig;
/// use mdg_geom::Point;
///
/// let dep = DeploymentConfig::uniform(500, 500.0).generate(3);
/// let mut sensors = dep.sensors.clone();
/// let mut alive = vec![true; sensors.len()];
/// let cfg = HierConfig { tile_cells: Some(5.0), ..HierConfig::default() };
/// let mut hp = HierPlan::build(&sensors, dep.sink, 30.0, cfg).unwrap();
///
/// alive[7] = false;
/// sensors.push(Point::new(250.0, 250.0));
/// alive.push(true);
/// let report = hp.apply_delta(&sensors, &alive, &[7], None).unwrap();
/// assert!(!report.full_rebuild);
/// hp.plan().validate_live(&sensors, hp.range(), &alive).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct HierPlan {
    cfg: HierConfig,
    sink: Point,
    range: f64,
    tiling: Tiling,
    /// Per-tile live member sensor ids, ascending; indexed by tile. Every
    /// live id sits in the list of the tile `tiling.tile_of` maps its
    /// position to.
    members: Vec<Vec<u32>>,
    /// Per-tile retained sub-plans; `None` = no live members.
    tiles: Vec<Option<TilePlan>>,
    /// Sensor id slots the plan's assignment spans (live + dead).
    n_sensors: usize,
    /// Per sensor id slot: the index in `plan.polling_points` of the stop
    /// at that sensor, for every stop of the current plan (other slots hold
    /// stale values). Lets a delta find a clean tile's polling points
    /// without an id-indexed pass.
    stop_index: Vec<u32>,
    plan: GatheringPlan,
    stats: HierStats,
}

impl HierPlan {
    /// Plans `sensors` (all considered alive) hierarchically and retains
    /// the per-tile state for incremental updates: the full re-plan a
    /// delta escalates to, run over an all-alive field.
    pub fn build(
        sensors: &[Point],
        sink: Point,
        range: f64,
        cfg: HierConfig,
    ) -> Result<Self, PlanError> {
        if let CandidateMode::Grid { .. } = cfg.base.candidates {
            return Err(PlanError::Unsupported(
                "hierarchical planning requires sensor-site candidates \
                 (per-tile instances are sensor-site by construction)"
                    .into(),
            ));
        }
        check_capacity(&cfg.base)?;
        let mut sp_hier = mdg_obs::span("hier");
        sp_hier.add_items(sensors.len() as u64);
        let mut hp = HierPlan {
            cfg,
            sink,
            range,
            tiling: Tiling::build(&[], 1.0),
            members: Vec::new(),
            tiles: Vec::new(),
            n_sensors: sensors.len(),
            stop_index: Vec::new(),
            plan: GatheringPlan::new(sink, Vec::new(), Vec::new()),
            stats: HierStats {
                n_tiles: 0,
                n_occupied: 0,
                spliced_stops: 0,
                tile_side: 0.0,
            },
        };
        hp.rebuild_full(sensors, &vec![true; sensors.len()])?;
        Ok(hp)
    }

    /// The current gathering plan. Its `assignment` spans every sensor id
    /// slot ever planned; dead sensors are [`UNASSIGNED`], so validate
    /// with [`GatheringPlan::validate_live`] once deltas have run.
    pub fn plan(&self) -> &GatheringPlan {
        &self.plan
    }

    /// Tiling statistics for the current plan.
    pub fn stats(&self) -> HierStats {
        self.stats
    }

    /// The transmission range the current plan covers at.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Sensor id slots the plan spans (live + dead).
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Consumes the retained state, yielding the plan and its stats.
    pub fn into_plan_and_stats(self) -> (GatheringPlan, HierStats) {
        (self.plan, self.stats)
    }

    /// Rough heap footprint of the retained state in bytes (the stop
    /// index, member lists, sub-tours, and the materialized plan) — the
    /// serving layer's byte-aware session eviction reads this.
    pub fn approx_bytes(&self) -> u64 {
        let stop_index = self.stop_index.len() as u64 * 4;
        let members: u64 = self
            .members
            .iter()
            .map(|m| 24 + m.len() as u64 * 4)
            .sum::<u64>();
        let tiles: u64 = self
            .tiles
            .iter()
            .flatten()
            .map(|tp| 72 + tp.stops.len() as u64 * 20 + tp.chosen.len() as u64 * 4)
            .sum::<u64>();
        stop_index + members + tiles + self.plan.approx_bytes()
    }

    /// Applies a delta — sensor deaths, appended sensors, and/or a range
    /// change — by re-planning only the tiles it dirties.
    ///
    /// `sensors`/`alive` are the caller's full arrays *after* the delta:
    /// ids past the previous length are taken as newly added (and must be
    /// alive); `died` lists the ids newly marked dead (already-dead ids
    /// are tolerated and ignored). Deaths and additions dirty the owning
    /// tile of their position; dirty tiles re-run cover → prune → tour →
    /// assign in serpentine order on `mdg-par`, the cycle is re-stitched
    /// from the retained sub-tours, and the seam touch-up is seeded only
    /// at seams adjacent to dirty tiles. If at least half the occupied tiles are
    /// dirty — or the range changed, which invalidates every tile's
    /// cover — the whole plan is rebuilt (fresh tiling included) by the
    /// function [`HierPlan::build`] runs.
    ///
    /// The result is bit-identical at any thread count, and identical to
    /// replaying the same delta sequence on any other machine.
    pub fn apply_delta(
        &mut self,
        sensors: &[Point],
        alive: &[bool],
        died: &[u32],
        new_range: Option<f64>,
    ) -> Result<HierDeltaReport, PlanError> {
        assert_eq!(sensors.len(), alive.len(), "alive mask size");
        assert!(
            sensors.len() >= self.n_sensors,
            "sensor id slots never shrink (deaths are mask flips)"
        );
        let n_new = sensors.len();
        let _sp_hier = mdg_obs::span("hier");
        let mut sp = mdg_obs::span("delta");
        let n_added = n_new - self.n_sensors;
        sp.add_items((died.len() + n_added) as u64);

        let range_changed = new_range.is_some_and(|r| (r - self.range).abs() > 1e-12);
        let occupied_before = self.stats.n_occupied;

        // 1. Route the delta to its dirty tiles via the position → tile
        //    lattice map, updating the member lists (the full rebuild
        //    recomputes them if the delta escalates).
        let mut dirty = vec![false; self.tiling.n_tiles()];
        let mut n_dirty = 0usize;
        {
            let _sp = mdg_obs::span("dirty_map");
            for &d in died {
                let s = d as usize;
                if s >= n_new {
                    continue;
                }
                let t = self.tiling.tile_of(sensors[s]);
                if let Ok(i) = self.members[t].binary_search(&d) {
                    self.members[t].remove(i);
                    if !dirty[t] {
                        dirty[t] = true;
                        n_dirty += 1;
                    }
                }
            }
            for g in self.n_sensors..n_new {
                debug_assert!(alive[g], "appended sensors must be alive");
                let t = self.tiling.tile_of(sensors[g]);
                // Appended ids exceed every existing member id and arrive
                // in ascending order, so pushing keeps the list sorted.
                self.members[t].push(g as u32);
                if !dirty[t] {
                    dirty[t] = true;
                    n_dirty += 1;
                }
            }
        }
        self.n_sensors = n_new;
        if let Some(r) = new_range {
            self.range = r;
        }

        if n_dirty == 0 && !range_changed {
            return Ok(HierDeltaReport {
                full_rebuild: false,
                dirty_tiles: 0,
                occupied_tiles: occupied_before,
                replanned_stops: 0,
            });
        }

        // 2. Escalate when locality is gone: a range change invalidates
        //    every tile's cover, and once half the occupied tiles are
        //    dirty a fresh tiling (re-sized to the live density) beats
        //    patching the old one.
        if range_changed || 2 * n_dirty >= occupied_before.max(1) {
            mdg_obs::counter("hier/delta_full_replans").add(1);
            let _sp = mdg_obs::span("rebuild");
            self.rebuild_full(sensors, alive)?;
            return Ok(HierDeltaReport {
                full_rebuild: true,
                dirty_tiles: n_dirty,
                occupied_tiles: self.stats.n_occupied,
                replanned_stops: self.plan.n_polling_points(),
            });
        }

        // 3. Re-plan the dirty tiles only, fanned out in serpentine order.
        mdg_obs::counter("hier/dirty_tiles").add(n_dirty as u64);
        let dirty_list: Vec<usize> = self.tiling.serpentine().filter(|&t| dirty[t]).collect();
        let replanned: Vec<Option<TilePlan>> = {
            let mut sp = mdg_obs::span("replan_tiles");
            sp.add_items(dirty_list.len() as u64);
            let members = &self.members;
            let tiling = &self.tiling;
            let range = self.range;
            let base = self.cfg.base;
            mdg_par::par_map(dirty_list.len(), |k| {
                let t = dirty_list[k];
                if members[t].is_empty() {
                    None
                } else {
                    Some(plan_tile(
                        sensors,
                        &members[t],
                        range,
                        tiling.tile_center(t),
                        &base,
                    ))
                }
            })
        };
        let mut replanned_stops = 0usize;
        for (k, tp) in replanned.into_iter().enumerate() {
            if let Some(tp) = &tp {
                replanned_stops += tp.stops.len();
            }
            self.tiles[dirty_list[k]] = tp;
        }

        // 4. Re-stitch from the retained sub-tours and polish only the
        //    dirty-adjacent seams.
        self.materialize(Some(&dirty));
        Ok(HierDeltaReport {
            full_rebuild: false,
            dirty_tiles: n_dirty,
            occupied_tiles: self.stats.n_occupied,
            replanned_stops,
        })
    }

    /// Full re-plan of the live field: tile side from the live density,
    /// a fresh lattice, the member lists, every occupied tile, then the
    /// stitched plan with every seam polished. [`HierPlan::build`] is this
    /// over an all-alive field.
    fn rebuild_full(&mut self, sensors: &[Point], alive: &[bool]) -> Result<(), PlanError> {
        let side = tile_side_for(&self.cfg, sensors, alive, self.range)?;
        {
            let _sp = mdg_obs::span("tiling");
            // The lattice spans every slot, dead sensors included (geometry
            // only); the member lists hold the alive ids.
            self.tiling = Tiling::build(sensors, side);
            self.members = members_of(&self.tiling, sensors, alive);
        }
        self.tiles = plan_all_tiles(
            sensors,
            &self.tiling,
            &self.members,
            self.range,
            &self.cfg.base,
        );
        self.materialize(None);
        Ok(())
    }

    /// Brings the materialized [`GatheringPlan`] up to date with the
    /// retained per-tile sub-tours: serpentine stitch, seam touch-up, then
    /// [`HierPlan::assemble`].
    ///
    /// `dirty`: `None` marks every tile dirty (cold build / full rebuild)
    /// and polishes every seam; `Some(mask)` seeds the touch-up only at
    /// seam stops whose tour neighborhood touches a dirty tile, and keeps
    /// the clean tiles' polling points.
    fn materialize(&mut self, dirty: Option<&[bool]>) {
        let ordered: Vec<&TilePlan> = self
            .tiling
            .serpentine()
            .filter_map(|t| self.tiles[t].as_ref())
            .collect();
        let n_occupied = ordered.len();
        let (mut cycle_pts, mut cands, seam, spliced) = {
            let _sp = mdg_obs::span("stitch");
            stitch(self.sink, &ordered)
        };
        mdg_obs::counter("hier/spliced_stops").add(spliced as u64);

        if self.cfg.base.improve_passes > 0 && cycle_pts.len() >= 5 {
            let mut sp = mdg_obs::span("touch_up");
            sp.add_items(cycle_pts.len() as u64);
            let m = cands.len();
            let mut seeds: Vec<usize> = Vec::new();
            match dirty {
                None => {
                    // The sink joins two seams; every flagged stop is one.
                    seeds.push(0);
                    seeds.extend(
                        seam.iter()
                            .enumerate()
                            .filter_map(|(k, &s)| s.then_some(k + 1)),
                    );
                }
                Some(mask) => {
                    // Only seams whose tour neighborhood touches a dirty
                    // tile need re-polishing; clean seams were polished
                    // when their tiles last changed.
                    let stop_dirty: Vec<bool> = cycle_pts[1..]
                        .iter()
                        .map(|&p| mask[self.tiling.tile_of(p)])
                        .collect();
                    if stop_dirty[0] || stop_dirty[m - 1] {
                        seeds.push(0);
                    }
                    for k in 0..m {
                        if !seam[k] {
                            continue;
                        }
                        let prev = if k == 0 { m - 1 } else { k - 1 };
                        let next = if k + 1 == m { 0 } else { k + 1 };
                        if stop_dirty[k] || stop_dirty[prev] || stop_dirty[next] {
                            seeds.push(k + 1);
                        }
                    }
                }
            };
            if !seeds.is_empty() {
                // The seeded passes read the k-NN rows of the cities they
                // visit, a few per seam; rows are computed on first read.
                let mut nl = NeighborLists::build(&cycle_pts, TOUCH_UP_NEIGHBORS);
                let tour = two_opt_neighbors_seeded(
                    &cycle_pts,
                    Tour::identity(cycle_pts.len()),
                    &mut nl,
                    &seeds,
                );
                let tour = or_opt_neighbors_seeded(&cycle_pts, tour, &mut nl, &seeds);
                mdg_obs::counter("hier/knn_rows").add(nl.rows_computed() as u64);
                let order = tour.order();
                debug_assert_eq!(order[0], 0, "normalized tours lead with the depot");
                cycle_pts = order.iter().map(|&i| cycle_pts[i]).collect();
                cands = order[1..].iter().map(|&i| cands[i - 1]).collect();
            }
        }

        self.plan = {
            let _sp = mdg_obs::span("assign");
            self.assemble(&cycle_pts[1..], &cands, dirty)
        };
        debug_assert!(
            (self.plan.tour_length - mdg_geom::closed_tour_length(&cycle_pts)).abs() < 1e-6
        );
        self.stats = HierStats {
            n_tiles: self.tiling.n_tiles(),
            n_occupied,
            spliced_stops: spliced,
            tile_side: self.tiling.side(),
        };
    }

    /// Builds the served plan for the stop order `cands` (global sensor
    /// ids in tour order, at positions `stops`) by patching the previous
    /// plan.
    ///
    /// A clean tile's members and sub-plan have not changed since the last
    /// assembly, so its stops' [`PollingPoint`]s, covered lists included,
    /// move over as they are. Only dirty tiles' stops get fresh covered
    /// lists, filled from their members in ascending id order. The
    /// assignment is then rewritten in place in one pass over the new stop
    /// order: the sensors of the dropped (dirty-tile) stops are cleared
    /// first, so newly dead ids end up [`UNASSIGNED`], and the id space
    /// grows to take appended sensors. `dirty: None` runs the same code
    /// with every tile dirty. The cost is the dirty tiles plus `O(stops +
    /// live sensors)`, and the result equals a from-scratch assembly.
    fn assemble(
        &mut self,
        stops: &[Point],
        cands: &[u32],
        dirty: Option<&[bool]>,
    ) -> GatheringPlan {
        let n = self.n_sensors;
        let tile_dirty = |t: usize| dirty.is_none_or(|mask| mask[t]);
        let mut old = std::mem::take(&mut self.plan.polling_points);
        let mut assignment = std::mem::take(&mut self.plan.assignment);
        self.stop_index.resize(n, u32::MAX);
        let mut polling_points = Vec::with_capacity(cands.len());
        for (k, (&c, &pos)) in cands.iter().zip(stops).enumerate() {
            let slot = &mut self.stop_index[c as usize];
            let covered = if tile_dirty(self.tiling.tile_of(pos)) {
                Vec::new()
            } else {
                std::mem::take(&mut old[*slot as usize].covered)
            };
            *slot = k as u32;
            polling_points.push(PollingPoint {
                pos,
                candidate: c as usize,
                covered,
            });
        }
        // Only dirty tiles' stops still hold covered lists in `old`; each
        // of their sensors is dead now or gets a fresh stop below.
        for pp in &old {
            for &s in &pp.covered {
                assignment[s as usize] = UNASSIGNED;
            }
        }
        drop(old);
        assignment.resize(n, UNASSIGNED);

        // Dirty tiles' covered lists, each allocated once at its size.
        let dirty_tiles = || {
            (0..self.tiles.len())
                .filter(|&t| tile_dirty(t))
                .filter_map(|t| Some((self.tiles[t].as_ref()?, &self.members[t])))
        };
        let mut load = vec![0u32; cands.len()];
        for (tp, _) in dirty_tiles() {
            for &c in &tp.chosen {
                load[self.stop_index[c as usize] as usize] += 1;
            }
        }
        for (tp, members) in dirty_tiles() {
            for (&g, &c) in members.iter().zip(&tp.chosen) {
                let k = self.stop_index[c as usize] as usize;
                let covered = &mut polling_points[k].covered;
                if covered.is_empty() {
                    covered.reserve_exact(load[k] as usize);
                }
                covered.push(g);
            }
        }

        for (k, pp) in polling_points.iter().enumerate() {
            for &s in &pp.covered {
                assignment[s as usize] = k;
            }
        }
        GatheringPlan::new(self.sink, polling_points, assignment)
    }
}

/// Resolves the tile side in meters: explicit `tile_cells × range`, or
/// auto-sized so the expected tile population of the live sensors is
/// [`TARGET_PER_TILE`]. Auto tiles never drop below `2 × range` — tiles
/// narrower than a coverage disk fragment the cover badly.
fn tile_side_for(
    cfg: &HierConfig,
    sensors: &[Point],
    alive: &[bool],
    range: f64,
) -> Result<f64, PlanError> {
    if let Some(cells) = cfg.tile_cells {
        let side = cells * range;
        if !(cells > 0.0 && side > 0.0 && side.is_finite()) {
            return Err(PlanError::Unsupported(format!(
                "tile size must be a positive number of range-cells whose side in meters \
                 is positive and finite, got {cells:?} × {range:?} m"
            )));
        }
        return Ok(side);
    }
    let live = sensors
        .iter()
        .zip(alive)
        .filter_map(|(&p, &a)| a.then_some(p));
    let Some(bb) = live.map(|p| Aabb::new(p, p)).reduce(|a, b| a.union(&b)) else {
        return Ok((2.0 * range).max(1.0));
    };
    let n_live = alive.iter().filter(|&&a| a).count();
    let area = (bb.width() * bb.height()).max(1e-12);
    let side = (TARGET_PER_TILE as f64 * area / n_live as f64).sqrt();
    Ok(side.max(2.0 * range))
}

/// Each tile's live member ids, ascending: one pass counts every tile's
/// live sensors so each list is allocated once at its size, and one pass
/// in id order fills them.
fn members_of(tiling: &Tiling, sensors: &[Point], alive: &[bool]) -> Vec<Vec<u32>> {
    let live_tiles = || {
        sensors
            .iter()
            .zip(alive)
            .enumerate()
            .filter(|&(_, (_, &a))| a)
            .map(|(g, (&p, _))| (g as u32, tiling.tile_of(p)))
    };
    let mut counts = vec![0usize; tiling.n_tiles()];
    for (_, t) in live_tiles() {
        counts[t] += 1;
    }
    let mut members: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (g, t) in live_tiles() {
        members[t].push(g);
    }
    members
}

/// Plans every occupied tile (non-empty member list), fanned out across
/// tiles in serpentine order. Each tile is a pure function of its own
/// members; `par_map` preserves order and nested parallel calls inside a
/// tile run inline, so the result is bit-identical at any thread count.
fn plan_all_tiles(
    sensors: &[Point],
    tiling: &Tiling,
    members: &[Vec<u32>],
    range: f64,
    base: &PlannerConfig,
) -> Vec<Option<TilePlan>> {
    let occupied: Vec<usize> = tiling
        .serpentine()
        .filter(|&t| !members[t].is_empty())
        .collect();
    mdg_obs::counter("hier/tiles").add(occupied.len() as u64);
    let planned: Vec<TilePlan> = {
        let mut sp = mdg_obs::span("tiles");
        sp.add_items(occupied.len() as u64);
        mdg_par::par_map(occupied.len(), |k| {
            let t = occupied[k];
            plan_tile(sensors, &members[t], range, tiling.tile_center(t), base)
        })
    };
    let mut tiles: Vec<Option<TilePlan>> = vec![None; tiling.n_tiles()];
    for (k, tp) in planned.into_iter().enumerate() {
        tiles[occupied[k]] = Some(tp);
    }
    tiles
}

/// Plans one tile: `plan_stops` over a tile-local sensor-site instance
/// (always feasible: each sensor covers itself), anchored at the tile
/// center with no depot, mapped back to global sensor ids.
fn plan_tile(
    sensors: &[Point],
    subset: &[u32],
    range: f64,
    anchor: Point,
    base: &PlannerConfig,
) -> TilePlan {
    let mut sp = mdg_obs::span("tile");
    sp.add_items(subset.len() as u64);
    let inst = {
        let _sp = mdg_obs::span("instance");
        CoverageInstance::sensor_sites_subset(sensors, subset, range)
    };
    let (tour, assignment) = plan_stops(&inst, anchor, None, base);
    TilePlan {
        stops: tour.iter().map(|&c| inst.pos(c)).collect(),
        cands: tour.iter().map(|&c| subset[c]).collect(),
        chosen: assignment.iter().map(|&k| subset[tour[k]]).collect(),
    }
}

/// Concatenates tile sub-tours into one depot-anchored cycle.
///
/// Tiles arrive in serpentine order, so consecutive sub-tours are
/// spatial neighbors. Each sub-tour with ≥ 3 stops is opened at its
/// longest edge (ties: earliest cycle position) and appended in the
/// orientation whose entry point is nearer the current cycle tail
/// (ties: forward). Sub-tours with 1–2 stops are deferred and spliced
/// individually at their cheapest insertion position — an "empty-ish
/// tile" never panics, it just rides the splice path.
///
/// Returns the cycle's positions with the sink first, the global sensor
/// id per stop, a seam flag per stop, and the spliced stop count.
fn stitch(sink: Point, tile_plans: &[&TilePlan]) -> (Vec<Point>, Vec<u32>, Vec<bool>, usize) {
    let total: usize = tile_plans.iter().map(|tp| tp.stops.len()).sum();
    let mut cycle_pts = Vec::with_capacity(total + 1);
    cycle_pts.push(sink);
    let mut cands = Vec::with_capacity(total);
    let mut seam = Vec::with_capacity(total);
    let mut deferred: Vec<(Point, u32)> = Vec::new();

    let mut path: Vec<usize> = Vec::new();
    for &tp in tile_plans {
        let m = tp.stops.len();
        if m == 0 {
            continue;
        }
        if m <= 2 {
            deferred.extend(tp.stops.iter().copied().zip(tp.cands.iter().copied()));
            continue;
        }
        // Open the sub-tour at its longest edge: the cheapest edge to
        // sacrifice for the two seams this tile contributes.
        let mut cut = 0;
        let mut cut_len = tp.stops[0].dist(tp.stops[1 % m]);
        for i in 1..m {
            let len = tp.stops[i].dist(tp.stops[(i + 1) % m]);
            if len > cut_len {
                cut = i;
                cut_len = len;
            }
        }
        path.clear();
        path.extend((1..=m).map(|j| (cut + j) % m));
        let tail = *cycle_pts.last().expect("cycle starts with the sink");
        if tail.dist(tp.stops[path[m - 1]]) < tail.dist(tp.stops[path[0]]) {
            path.reverse();
        }
        let start = cands.len();
        for &i in &path {
            cycle_pts.push(tp.stops[i]);
            cands.push(tp.cands[i]);
            seam.push(false);
        }
        seam[start] = true;
        *seam.last_mut().expect("just pushed") = true;
    }

    // Splice the stragglers one by one.
    let spliced = deferred.len();
    for &(p, c) in &deferred {
        let (idx, _) = cheapest_insertion_position(&cycle_pts, p);
        cycle_pts.insert(idx, p);
        cands.insert(idx - 1, c);
        seam.insert(idx - 1, true);
        // A splice also perturbs the stops it lands between.
        if idx >= 2 {
            seam[idx - 2] = true;
        }
        if idx < seam.len() {
            seam[idx] = true;
        }
    }
    (cycle_pts, cands, seam, spliced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{CoveringStrategy, ShdgPlanner};
    use mdg_net::DeploymentConfig;

    fn net(n: usize, side: f64, seed: u64) -> Network {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0)
    }

    #[test]
    fn hier_plan_is_valid_and_covers_everything() {
        let net = net(600, 600.0, 3);
        let (plan, stats) = HierPlanner::with_config(HierConfig {
            tile_cells: Some(6.0), // 180 m tiles → a real multi-tile field
            ..HierConfig::default()
        })
        .plan_with_stats(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(stats.n_occupied > 1, "field must actually be tiled");
        assert_eq!(plan.assignment.len(), 600);
    }

    #[test]
    fn hier_tracks_flat_quality_on_small_fields() {
        for seed in [1u64, 5, 9] {
            let net = net(500, 500.0, seed);
            let flat = ShdgPlanner::new().plan(&net).unwrap();
            let hier = HierPlanner::with_config(HierConfig {
                tile_cells: Some(5.0),
                ..HierConfig::default()
            })
            .plan(&net)
            .unwrap();
            assert!(
                hier.tour_length <= flat.tour_length * 1.25 + 1e-9,
                "seed {seed}: hier {} vs flat {}",
                hier.tour_length,
                flat.tour_length
            );
        }
    }

    #[test]
    fn single_tile_degenerates_to_near_flat_quality() {
        // Auto sizing on a small field yields one tile; the only
        // structural difference from flat is the tile anchor and the
        // stitched sink, so quality must stay close.
        let net = net(200, 250.0, 11);
        let flat = ShdgPlanner::new().plan(&net).unwrap();
        let (hier, stats) = HierPlanner::new().plan_with_stats(&net).unwrap();
        assert_eq!(stats.n_occupied, 1);
        hier.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(hier.tour_length <= flat.tour_length * 1.25 + 1e-9);
    }

    #[test]
    fn empty_and_tiny_networks() {
        let empty = Network::build(DeploymentConfig::uniform(0, 100.0).generate(1), 30.0);
        let plan = HierPlanner::new().plan(&empty).unwrap();
        assert_eq!(plan.n_polling_points(), 0);
        assert_eq!(plan.tour_length, 0.0);

        let one = Network::build(DeploymentConfig::uniform(1, 100.0).generate(1), 30.0);
        let plan = HierPlanner::new().plan(&one).unwrap();
        plan.validate(&one.deployment.sensors, one.range).unwrap();
        assert_eq!(plan.n_polling_points(), 1);

        let three = Network::build(DeploymentConfig::uniform(3, 400.0).generate(2), 30.0);
        let plan = HierPlanner::new().plan(&three).unwrap();
        plan.validate(&three.deployment.sensors, three.range)
            .unwrap();
    }

    #[test]
    fn sparse_tiles_ride_the_splice_path() {
        // Tiny tiles force many 1–2 stop sub-tours through `stitch`'s
        // deferred splice branch; the plan must still validate.
        let net = net(120, 500.0, 4);
        let (plan, stats) = HierPlanner::with_config(HierConfig {
            tile_cells: Some(2.0), // 60 m tiles over a 500 m field
            ..HierConfig::default()
        })
        .plan_with_stats(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(stats.spliced_stops > 0, "want the splice path exercised");
    }

    #[test]
    fn a_collinear_field_tiles_in_proportion_to_its_sensors() {
        // 1 000 sensors 1e5 m apart on a 1e8 m line. The tile side used to
        // grow only with the field's (zero) area, so the 60 m auto side
        // made 1 666 667 tiles; the per-axis cap bounds them by the count.
        let sensors: Vec<Point> = (0..1000).map(|i| Point::new(i as f64 * 1e5, 0.0)).collect();
        let hp =
            HierPlan::build(&sensors, Point::new(5e7, 0.0), 30.0, HierConfig::default()).unwrap();
        let n_tiles = hp.stats().n_tiles;
        assert!(n_tiles <= 3 * 1000 + 1, "{n_tiles} tiles");
        hp.plan().validate(&sensors, 30.0).unwrap();
        assert_eq!(hp.plan().n_polling_points(), 1000);
    }

    #[test]
    fn empty_tiles_flow_through_stitching_without_panicking() {
        // A tile that selected no polling points (and true empty tiles)
        // must ride through `stitch` as a no-op.
        let sink = Point::new(0.0, 0.0);
        let square = TilePlan {
            stops: vec![
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(20.0, 10.0),
                Point::new(10.0, 10.0),
            ],
            cands: vec![0, 1, 2, 3],
            chosen: vec![],
        };
        let empty = || TilePlan {
            stops: vec![],
            cands: vec![],
            chosen: vec![],
        };
        let (e1, e2, e3) = (empty(), empty(), empty());
        let lone = TilePlan {
            stops: vec![Point::new(30.0, 5.0)],
            cands: vec![4],
            chosen: vec![],
        };
        let (pts, cands, seam, spliced) = stitch(sink, &[&e1, &square, &e2, &lone, &e3]);
        assert_eq!(pts.len(), 6, "sink + 4 square stops + 1 spliced");
        assert_eq!(cands.len(), 5);
        assert_eq!(seam.len(), 5);
        assert_eq!(spliced, 1);
        assert!(cands.contains(&4), "the lone stop was spliced in");

        // All tiles empty: just the sink, nothing spliced.
        let (pts, cands, _, spliced) = stitch(sink, &[&e1]);
        assert_eq!(pts, vec![sink]);
        assert!(cands.is_empty());
        assert_eq!(spliced, 0);
    }

    #[test]
    fn grid_candidates_are_rejected() {
        let net = net(50, 200.0, 1);
        let err = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                candidates: CandidateMode::Grid { spacing: 20.0 },
                ..PlannerConfig::default()
            },
            ..HierConfig::default()
        })
        .plan(&net)
        .unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)));
    }

    #[test]
    fn bad_tile_cells_is_a_clean_error() {
        let net = net(50, 200.0, 1);
        // 1e308 range-cells is finite, but its side in meters is not.
        for cells in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e308] {
            let err = HierPlanner::with_config(HierConfig {
                tile_cells: Some(cells),
                ..HierConfig::default()
            })
            .plan(&net)
            .unwrap_err();
            assert!(matches!(err, PlanError::Unsupported(_)), "cells={cells}");
        }
    }

    #[test]
    fn capacitated_hier_respects_the_buffer_bound() {
        let net = net(300, 400.0, 6);
        let cap = 5;
        let plan = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                max_sensors_per_pp: Some(cap),
                ..PlannerConfig::default()
            },
            tile_cells: Some(5.0),
        })
        .plan(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        for pp in &plan.polling_points {
            assert!(pp.covered.len() <= cap, "buffer bound violated");
        }
    }

    #[test]
    fn greedy_covering_works_per_tile() {
        let net = net(400, 450.0, 8);
        let plan = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                covering: CoveringStrategy::Greedy,
                ..PlannerConfig::default()
            },
            tile_cells: Some(5.0),
        })
        .plan(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
    }

    #[test]
    fn hier_is_deterministic_across_runs() {
        let net = net(700, 600.0, 12);
        let cfg = HierConfig {
            tile_cells: Some(6.0),
            ..HierConfig::default()
        };
        let a = HierPlanner::with_config(cfg).plan(&net).unwrap();
        let b = HierPlanner::with_config(cfg).plan(&net).unwrap();
        assert_eq!(a, b);
    }

    // ---- retained HierPlan / apply_delta -------------------------------

    /// A multi-tile field with its (initially all-alive) mask.
    fn field(n: usize, side: f64, seed: u64) -> (Vec<Point>, Point, Vec<bool>) {
        let dep = DeploymentConfig::uniform(n, side).generate(seed);
        let alive = vec![true; n];
        (dep.sensors, dep.sink, alive)
    }

    fn multi_tile_cfg() -> HierConfig {
        HierConfig {
            tile_cells: Some(6.0), // 180 m tiles
            ..HierConfig::default()
        }
    }

    #[test]
    fn retained_build_matches_planner_output() {
        let net = net(600, 600.0, 3);
        let cfg = multi_tile_cfg();
        let (via_planner, stats_p) = HierPlanner::with_config(cfg).plan_with_stats(&net).unwrap();
        let hp =
            HierPlan::build(&net.deployment.sensors, net.deployment.sink, net.range, cfg).unwrap();
        assert_eq!(hp.plan(), &via_planner);
        assert_eq!(hp.stats(), stats_p);
        assert!(hp.approx_bytes() > 0);
    }

    #[test]
    fn clustered_death_replans_only_owning_tiles() {
        let (mut_sensors, sink, mut alive) = field(800, 600.0, 3);
        let sensors = mut_sensors;
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(hp.stats().n_occupied > 4, "need a real multi-tile field");

        // Kill the three lowest-id sensors in one corner tile.
        let t0 = hp.tiling.tile_of(sensors[0]);
        let died: Vec<u32> = sensors
            .iter()
            .enumerate()
            .filter(|&(_, &p)| hp.tiling.tile_of(p) == t0)
            .take(3)
            .map(|(s, _)| s as u32)
            .collect();
        assert!(!died.is_empty());
        for &d in &died {
            alive[d as usize] = false;
        }
        let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.dirty_tiles, 1, "one tile owns all three deaths");
        assert!(report.replanned_stops < hp.plan().n_polling_points());
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        assert!(hp.plan().unassigned_sensors(&alive).is_empty());
    }

    #[test]
    fn additions_extend_the_plan_incrementally() {
        let (mut sensors, sink, mut alive) = field(700, 600.0, 5);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        sensors.push(Point::new(300.0, 310.0));
        sensors.push(Point::new(302.0, 308.0));
        alive.extend([true, true]);
        let report = hp.apply_delta(&sensors, &alive, &[], None).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.dirty_tiles, 1, "co-located additions share a tile");
        assert_eq!(hp.plan().assignment.len(), 702);
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
    }

    #[test]
    fn noop_delta_leaves_the_plan_untouched() {
        let (sensors, sink, alive) = field(500, 500.0, 9);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        let before = hp.plan().clone();
        // Already-dead / unknown ids are tolerated and ignored; a range
        // "change" within tolerance is a no-op too.
        let report = hp.apply_delta(&sensors, &alive, &[], Some(30.0)).unwrap();
        assert!(report.is_noop());
        assert_eq!(hp.plan(), &before);
    }

    #[test]
    fn range_change_escalates_to_full_rebuild() {
        let (sensors, sink, alive) = field(600, 600.0, 4);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        let report = hp.apply_delta(&sensors, &alive, &[], Some(45.0)).unwrap();
        assert!(report.full_rebuild);
        assert_eq!(hp.range(), 45.0);
        hp.plan().validate_live(&sensors, 45.0, &alive).unwrap();
        // The rebuilt plan matches a cold build at the new range exactly.
        let cold = HierPlan::build(&sensors, sink, 45.0, multi_tile_cfg()).unwrap();
        assert_eq!(hp.plan(), cold.plan());
    }

    #[test]
    fn mass_death_escalates_to_full_rebuild() {
        let (sensors, sink, mut alive) = field(600, 600.0, 8);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        // Kill every other sensor — that dirties essentially every tile.
        let died: Vec<u32> = (0..600u32).step_by(2).collect();
        for &d in &died {
            alive[d as usize] = false;
        }
        let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        assert!(report.full_rebuild, "half the field must escalate");
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
    }

    #[test]
    fn delta_sequence_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            mdg_par::set_threads(threads);
            let (mut sensors, sink, mut alive) = field(800, 650.0, 21);
            let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
            for round in 0..5u64 {
                let died: Vec<u32> = (0..4u64)
                    .map(|i| ((round * 7919 + i * 104_729) % 800) as u32)
                    .filter(|&d| alive[d as usize])
                    .collect();
                for &d in &died {
                    alive[d as usize] = false;
                }
                if round % 2 == 1 {
                    let g = sensors.len();
                    sensors.push(Point::new(
                        (g as f64 * 37.0) % 650.0,
                        (g as f64 * 53.0) % 650.0,
                    ));
                    alive.push(true);
                }
                hp.apply_delta(&sensors, &alive, &died, None).unwrap();
                hp.plan()
                    .validate_live(&sensors, hp.range(), &alive)
                    .unwrap();
            }
            mdg_par::set_threads(0);
            hp.plan().clone()
        };
        let single = run(1);
        let quad = run(4);
        assert_eq!(single, quad, "delta replans must be thread-invariant");
    }

    #[test]
    fn churned_plan_tracks_a_cold_replan() {
        let (mut sensors, sink, mut alive) = field(900, 700.0, 30);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        for round in 0..8u64 {
            let died: Vec<u32> = (0..5u64)
                .map(|i| ((round * 6151 + i * 92_821) % 900) as u32)
                .filter(|&d| alive[d as usize])
                .collect();
            for &d in &died {
                alive[d as usize] = false;
            }
            let g = sensors.len();
            sensors.push(Point::new(
                (g as f64 * 41.0) % 700.0,
                (g as f64 * 59.0) % 700.0,
            ));
            alive.push(true);
            hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        }
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        // Cold re-plan of the live field as the quality yardstick.
        let live: Vec<Point> = sensors
            .iter()
            .zip(&alive)
            .filter_map(|(&p, &a)| a.then_some(p))
            .collect();
        let cold = HierPlan::build(&live, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(
            hp.plan().tour_length <= cold.plan().tour_length * 1.3 + 1e-9,
            "incremental {} vs cold {}",
            hp.plan().tour_length,
            cold.plan().tour_length
        );
    }

    /// The from-scratch assembly [`HierPlan::assemble`] patches: every
    /// tile's choices scattered into an id-indexed table, mapped to the
    /// positions of the served stop order, and fresh covered lists for
    /// every stop.
    fn assemble_from_scratch(hp: &HierPlan, sensors: &[Point]) -> GatheringPlan {
        let n = hp.n_sensors;
        let cands: Vec<u32> = hp
            .plan
            .polling_points
            .iter()
            .map(|pp| pp.candidate as u32)
            .collect();
        let mut chosen = vec![u32::MAX; n];
        for (t, tp) in hp.tiles.iter().enumerate() {
            if let Some(tp) = tp {
                for (i, &g) in hp.members[t].iter().enumerate() {
                    chosen[g as usize] = tp.chosen[i];
                }
            }
        }
        let mut pp_of = vec![u32::MAX; n];
        for (k, &c) in cands.iter().enumerate() {
            pp_of[c as usize] = k as u32;
        }
        let assignment: Vec<usize> = chosen
            .iter()
            .map(|&c| {
                if c == u32::MAX {
                    UNASSIGNED
                } else {
                    pp_of[c as usize] as usize
                }
            })
            .collect();
        let mut covered: Vec<Vec<u32>> = vec![Vec::new(); cands.len()];
        for (s, &k) in assignment.iter().enumerate() {
            if k != UNASSIGNED {
                covered[k].push(s as u32);
            }
        }
        let polling_points = cands
            .iter()
            .zip(covered)
            .map(|(&c, covered)| PollingPoint {
                pos: sensors[c as usize],
                candidate: c as usize,
                covered,
            })
            .collect();
        GatheringPlan::new(hp.sink, polling_points, assignment)
    }

    /// Each tile's live member ids recomputed from scratch: the ascending
    /// live ids whose position `tile_of` maps to that tile.
    fn members_from_scratch(hp: &HierPlan, sensors: &[Point], alive: &[bool]) -> Vec<Vec<u32>> {
        (0..hp.tiling.n_tiles())
            .map(|t| {
                (0..sensors.len() as u32)
                    .filter(|&g| alive[g as usize] && hp.tiling.tile_of(sensors[g as usize]) == t)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn patched_plans_equal_the_from_scratch_assembly_through_a_delta_sequence() {
        let (mut sensors, sink, mut alive) = field(1500, 900.0, 17);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(hp.stats().n_occupied >= 20, "need a many-tile field");
        assert_eq!(hp.plan(), &assemble_from_scratch(&hp, &sensors), "cold");
        assert_eq!(
            hp.members,
            members_from_scratch(&hp, &sensors, &alive),
            "cold"
        );

        // The occupied tile with the fewest members is emptied in the
        // fourth round and re-occupied in the fifth.
        let smallest = (0..hp.tiling.n_tiles())
            .filter(|&t| !hp.members[t].is_empty())
            .min_by_key(|&t| hp.members[t].len())
            .unwrap();
        let emptied: Vec<u32> = hp.members[smallest].clone();
        let reoccupy = sensors[emptied[0] as usize];
        let kill_half: Vec<u32> = (0..1500u32).step_by(2).collect();
        let rounds: [(&str, Vec<u32>, Vec<Point>, bool); 7] = [
            ("a few deaths", vec![3, 4, 900], vec![], false),
            (
                "additions and a death",
                vec![77],
                vec![Point::new(450.0, 455.0), Point::new(20.0, 880.0)],
                false,
            ),
            ("a repeated death", vec![3, 1200], vec![], false),
            ("a tile emptied", emptied, vec![], false),
            (
                "the emptied tile re-occupied",
                vec![],
                vec![reoccupy],
                false,
            ),
            ("escalation", kill_half, vec![], true),
            (
                "a delta after the rebuild",
                vec![1, 1499],
                vec![Point::new(300.0, 300.0)],
                false,
            ),
        ];
        for (name, died, added, escalates) in rounds {
            for &d in &died {
                alive[d as usize] = false;
            }
            sensors.extend(&added);
            alive.resize(sensors.len(), true);
            let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
            assert_eq!(report.full_rebuild, escalates, "{name}");
            hp.plan()
                .validate_live(&sensors, hp.range(), &alive)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                hp.plan(),
                &assemble_from_scratch(&hp, &sensors),
                "{name}: the patched plan differs from the from-scratch assembly"
            );
            assert_eq!(
                hp.members,
                members_from_scratch(&hp, &sensors, &alive),
                "{name}: the member lists differ from the live ids per tile"
            );
            if name == "a tile emptied" {
                assert!(hp.tiles[smallest].is_none(), "the tile has no plan left");
            }
        }
    }

    #[test]
    fn empty_build_grows_via_escalation() {
        let sink = Point::new(50.0, 50.0);
        let mut hp = HierPlan::build(&[], sink, 30.0, HierConfig::default()).unwrap();
        assert_eq!(hp.plan().n_polling_points(), 0);
        let sensors: Vec<Point> = (0..40)
            .map(|i| Point::new((i as f64 * 17.0) % 100.0, (i as f64 * 29.0) % 100.0))
            .collect();
        let alive = vec![true; 40];
        let report = hp.apply_delta(&sensors, &alive, &[], None).unwrap();
        assert!(report.full_rebuild, "growth from empty must re-tile");
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        assert_eq!(hp.plan().assignment.len(), 40);
    }
}
