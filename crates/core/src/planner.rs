//! The SHDG heuristic planner.

use crate::error::PlanError;
use crate::plan::{GatheringPlan, PollingPoint};
use crate::tour_aware::tour_aware_cover;
use mdg_cover::{capacitated_greedy_cover, greedy_cover, prune_cover, CoverageInstance};
use mdg_geom::Point;
use mdg_net::Network;
use mdg_tour::{
    cheapest_insertion, improve, improve_neighbors, EuclideanCost, MatrixCost, NeighborLists, Tour,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where candidate polling points come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CandidateMode {
    /// Candidates are the sensor positions themselves (the paper's
    /// default: the collector pauses at a sensor and collects from it and
    /// its radio neighbors). Always feasible.
    SensorSites,
    /// Candidates are lattice points with the given spacing over the
    /// field ("predefined positions" on a grid). May be infeasible if the
    /// spacing exceeds `√2 · range`.
    Grid {
        /// Lattice spacing in meters.
        spacing: f64,
    },
}

/// How the cover is selected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoveringStrategy {
    /// Classic greedy max-coverage, ties broken toward the sink.
    Greedy,
    /// Tour-aware greedy: maximize coverage per meter of tour insertion
    /// cost (the planner default).
    TourAware,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Candidate generation mode.
    pub candidates: CandidateMode,
    /// Covering strategy.
    pub covering: CoveringStrategy,
    /// Whether to reverse-delete polling points made redundant by later
    /// selections, prioritized by their actual tour detour cost.
    pub prune: bool,
    /// Maximum local-search passes for tour polishing (0 disables
    /// improvement entirely).
    pub improve_passes: usize,
    /// Buffer bound: the maximum number of sensors any single polling
    /// point may serve (`None` = unbounded). When set, the planner uses
    /// capacitated covering and a capacity-respecting assignment; pruning
    /// is skipped (the capacitated selection is already assignment-tight).
    /// `Some(0)` is rejected with [`PlanError::Unsupported`].
    pub max_sensors_per_pp: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            candidates: CandidateMode::SensorSites,
            covering: CoveringStrategy::TourAware,
            prune: true,
            improve_passes: 64,
            max_sensors_per_pp: None,
        }
    }
}

/// The SHDG heuristic planner. See the crate docs for the pipeline.
///
/// ```
/// use mdg_core::ShdgPlanner;
/// use mdg_net::{DeploymentConfig, Network};
///
/// let net = Network::build(DeploymentConfig::uniform(100, 200.0).generate(42), 30.0);
/// let plan = ShdgPlanner::new().plan(&net).unwrap();
/// assert!(plan.n_polling_points() < net.n_sensors(), "polling points aggregate");
/// assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShdgPlanner {
    config: PlannerConfig,
}

impl ShdgPlanner {
    /// Planner with the default configuration (sensor-site candidates,
    /// tour-aware covering, pruning, full tour polishing).
    pub fn new() -> Self {
        ShdgPlanner::default()
    }

    /// Planner with an explicit configuration.
    pub fn with_config(config: PlannerConfig) -> Self {
        ShdgPlanner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Builds the coverage instance for `net` per the candidate mode.
    pub fn coverage_instance(&self, net: &Network) -> CoverageInstance {
        match self.config.candidates {
            CandidateMode::SensorSites => {
                CoverageInstance::sensor_sites(&net.deployment.sensors, net.range)
            }
            CandidateMode::Grid { spacing } => CoverageInstance::grid_candidates(
                &net.deployment.sensors,
                &net.deployment.field,
                spacing,
                net.range,
            ),
        }
    }

    /// Plans a single-collector data-gathering tour for `net`: builds the
    /// coverage instance for the candidate mode, then
    /// [`ShdgPlanner::plan_instance`].
    pub fn plan(&self, net: &Network) -> Result<GatheringPlan, PlanError> {
        let mut sp_plan = mdg_obs::span("plan");
        sp_plan.add_items(net.n_sensors() as u64);
        let inst = {
            let _sp = mdg_obs::span("instance");
            self.coverage_instance(net)
        };
        self.plan_instance(&inst, net.deployment.sink)
    }

    /// Plans a tour from `sink` over a prebuilt coverage instance, whose
    /// candidates replace the configured [`CandidateMode`]. Callers that
    /// keep the instance warm (a serving session) plan without building
    /// a second one.
    pub fn plan_instance(
        &self,
        inst: &CoverageInstance,
        sink: Point,
    ) -> Result<GatheringPlan, PlanError> {
        check_capacity(&self.config)?;
        if inst.n_targets() == 0 {
            return Ok(GatheringPlan::new(sink, Vec::new(), Vec::new()));
        }
        let uncoverable = inst.uncoverable_targets();
        if !uncoverable.is_empty() {
            return Err(PlanError::Uncoverable(uncoverable));
        }
        let (tour, assignment) = plan_stops(inst, sink, Some(sink), &self.config);
        let mut covered: Vec<Vec<u32>> = vec![Vec::new(); tour.len()];
        for (s, &k) in assignment.iter().enumerate() {
            covered[k].push(s as u32);
        }
        let polling_points: Vec<PollingPoint> = tour
            .iter()
            .zip(covered)
            .map(|(&c, covered)| PollingPoint {
                pos: inst.pos(c),
                candidate: c,
                covered,
            })
            .collect();
        Ok(GatheringPlan::new(sink, polling_points, assignment))
    }
}

/// Rejects a zero buffer bound: no polling point could take a sensor.
pub(crate) fn check_capacity(cfg: &PlannerConfig) -> Result<(), PlanError> {
    if cfg.max_sensors_per_pp == Some(0) {
        return Err(PlanError::Unsupported(
            "max_sensors_per_pp must be at least 1".into(),
        ));
    }
    Ok(())
}

/// Vertex count (including a depot) above which a tour switches from
/// the dense matrix pipeline to neighbor-list local search.
const DENSE_TOUR_LIMIT: usize = 512;

/// The SHDG pipeline over one feasible coverage instance: cover → prune
/// → tour → assign. Flat plans run it over the whole field and hier
/// plans once per tile.
///
/// Cover ties break toward `anchor`, which also seeds the tour-aware
/// cover. `depot`, when given, is the tour's first vertex (the sink of a
/// flat plan); a tile passes `None` and is toured as a cycle over its
/// own stops, which the hier stitch opens later. Pruning (uncapacitated
/// only) drops redundant stops costliest-detour first, the detours read
/// off a preliminary unpolished tour.
///
/// Returns the selected candidates in tour order, depot excluded, and
/// for each target the index into that order of the stop it uploads to.
pub(crate) fn plan_stops(
    inst: &CoverageInstance,
    anchor: Point,
    depot: Option<Point>,
    cfg: &PlannerConfig,
) -> (Vec<usize>, Vec<usize>) {
    const FEASIBLE: &str = "the caller checked feasibility";
    let near_anchor = |c: usize| inst.pos(c).dist_sq(anchor);
    let (mut selected, cap_assignment) = {
        let mut sp = mdg_obs::span("cover");
        sp.add_items(inst.n_candidates() as u64);
        match (cfg.max_sensors_per_pp, cfg.covering) {
            // The capacitated cover carries its own capacity-feasible
            // assignment and is assignment-tight, so it skips pruning.
            (Some(cap), _) => {
                let cover = capacitated_greedy_cover(inst, cap, near_anchor).expect(FEASIBLE);
                (cover.selected, Some(cover.assignment))
            }
            (None, CoveringStrategy::Greedy) => {
                (greedy_cover(inst, near_anchor).expect(FEASIBLE), None)
            }
            (None, CoveringStrategy::TourAware) => {
                (tour_aware_cover(inst, anchor).expect(FEASIBLE), None)
            }
        }
    };

    // Detours come from a preliminary tour: the final tour's removal
    // gains would be circular, since pruning decides what it visits.
    if cap_assignment.is_none() && cfg.prune && selected.len() > 1 {
        let _sp = mdg_obs::span("prune");
        let first = usize::from(depot.is_some());
        let prelim = tour_stops(inst, depot, &selected, 0);
        let mut cycle: Vec<Point> = Vec::with_capacity(prelim.len() + first);
        cycle.extend(depot);
        cycle.extend(prelim.iter().map(|&c| inst.pos(c)));
        let m = cycle.len();
        let mut detour = vec![0.0; inst.n_candidates()];
        for (k, &c) in prelim.iter().enumerate() {
            let i = k + first;
            let (prev, p, next) = (cycle[(i + m - 1) % m], cycle[i], cycle[(i + 1) % m]);
            detour[c] = prev.dist(p) + p.dist(next) - prev.dist(next);
        }
        selected = prune_cover(inst, &selected, |c| detour[c]);
    }

    let tour = {
        let mut sp = mdg_obs::span("tour");
        sp.add_items(selected.len() as u64);
        tour_stops(inst, depot, &selected, cfg.improve_passes)
    };

    let _sp = mdg_obs::span("assign");
    let assignment = match cap_assignment {
        // The capacitated assignment indexes the cover's selection; map
        // it to tour positions.
        Some(a) => {
            let tour_pos: HashMap<usize, usize> =
                tour.iter().enumerate().map(|(k, &c)| (c, k)).collect();
            a.iter().map(|&k| tour_pos[&selected[k]]).collect()
        }
        None => inst.assign(&tour).expect("selection is a cover"),
    };
    (tour, assignment)
}

/// Orders `selected` into a closed tour, from `depot` when given,
/// polished by up to `improve_passes` local-search passes. Returns the
/// candidates in tour order, depot excluded; without a depot the tour
/// starts at `selected[0]`.
///
/// Up to [`DENSE_TOUR_LIMIT`] vertices this runs cheapest insertion and
/// the 2-opt/Or-opt polish over a precomputed cost matrix; beyond it the
/// `O(vertices²)` matrix and the quadratic sweeps give way to on-the-fly
/// Euclidean costs and neighbor-list local search, which is how
/// 100k-sensor fields stay plannable.
fn tour_stops(
    inst: &CoverageInstance,
    depot: Option<Point>,
    selected: &[usize],
    improve_passes: usize,
) -> Vec<usize> {
    let first = usize::from(depot.is_some());
    let mut pts: Vec<Point> = Vec::with_capacity(selected.len() + first);
    pts.extend(depot);
    pts.extend(selected.iter().map(|&c| inst.pos(c)));
    let tour = if pts.len() <= 2 {
        Tour::identity(pts.len())
    } else if pts.len() <= DENSE_TOUR_LIMIT {
        let cost = MatrixCost::from_points(&pts);
        let tour = cheapest_insertion(&cost);
        if improve_passes > 0 {
            improve(&cost, tour, improve_passes)
        } else {
            tour.normalized()
        }
    } else {
        let tour = cheapest_insertion(&EuclideanCost::new(&pts));
        if improve_passes > 0 {
            let mut nl = NeighborLists::build(&pts, 10);
            improve_neighbors(&pts, tour, improve_passes, &mut nl)
        } else {
            tour.normalized()
        }
    };
    let order = tour.order();
    debug_assert_eq!(order[0], 0, "normalized tours lead with vertex 0");
    order[first..]
        .iter()
        .map(|&i| selected[i - first])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::DeploymentConfig;

    fn net(n: usize, side: f64, range: f64, seed: u64) -> Network {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), range)
    }

    #[test]
    fn default_plan_is_valid() {
        let net = net(120, 200.0, 30.0, 1);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(plan.n_polling_points() > 0);
        assert!(
            plan.n_polling_points() < net.n_sensors(),
            "polling points must aggregate"
        );
        assert!(plan.tour_length > 0.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let net = net(80, 200.0, 30.0, 7);
        let a = ShdgPlanner::new().plan(&net).unwrap();
        let b = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_strategies_produce_valid_plans() {
        let net = net(100, 150.0, 25.0, 3);
        for covering in [CoveringStrategy::Greedy, CoveringStrategy::TourAware] {
            for prune in [false, true] {
                let cfg = PlannerConfig {
                    covering,
                    prune,
                    ..PlannerConfig::default()
                };
                let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
                plan.validate(&net.deployment.sensors, net.range).unwrap();
            }
        }
    }

    #[test]
    fn grid_candidates_work_with_fine_spacing() {
        let net = net(60, 100.0, 25.0, 5);
        let cfg = PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 15.0 },
            ..PlannerConfig::default()
        };
        let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
    }

    #[test]
    fn grid_candidates_report_uncoverable() {
        let net = net(10, 300.0, 10.0, 2);
        let cfg = PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 100.0 },
            ..PlannerConfig::default()
        };
        match ShdgPlanner::with_config(cfg).plan(&net) {
            Err(PlanError::Uncoverable(ids)) => assert!(!ids.is_empty()),
            other => panic!("expected Uncoverable, got {other:?}"),
        }
    }

    #[test]
    fn improvement_shortens_or_matches() {
        let net = net(150, 250.0, 30.0, 11);
        let raw = ShdgPlanner::with_config(PlannerConfig {
            improve_passes: 0,
            ..PlannerConfig::default()
        })
        .plan(&net)
        .unwrap();
        let polished = ShdgPlanner::new().plan(&net).unwrap();
        assert!(polished.tour_length <= raw.tour_length + 1e-6);
    }

    #[test]
    fn pruning_never_increases_polling_points() {
        for seed in 0..5 {
            let net = net(100, 200.0, 30.0, seed);
            let with = ShdgPlanner::with_config(PlannerConfig {
                prune: true,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            let without = ShdgPlanner::with_config(PlannerConfig {
                prune: false,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            assert!(
                with.n_polling_points() <= without.n_polling_points(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_sensor_plan() {
        let net = net(1, 100.0, 20.0, 0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(plan.n_polling_points(), 1);
        assert_eq!(plan.assignment, vec![0]);
        // Tour = sink → sensor → sink.
        let d = net.deployment.sink.dist(net.deployment.sensors[0]);
        assert!((plan.tour_length - 2.0 * d).abs() < 1e-9);
    }

    #[test]
    fn empty_network_plan() {
        let net = net(0, 100.0, 20.0, 0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(plan.n_polling_points(), 0);
        assert_eq!(plan.tour_length, 0.0);
    }

    #[test]
    fn disconnected_network_is_still_planned() {
        use mdg_net::{SinkPlacement, Topology};
        let cfg = DeploymentConfig {
            field_side: 300.0,
            sink: SinkPlacement::Center,
            topology: Topology::Corridors {
                bands: 3,
                per_band: 30,
                band_height: 15.0,
            },
        };
        let net = Network::build(cfg.generate(4), 30.0);
        assert!(!net.is_connected());
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert_eq!(
            plan.n_sensors(),
            90,
            "mobile collection serves disconnected fields"
        );
    }

    #[test]
    fn larger_range_means_fewer_polling_points() {
        let base = DeploymentConfig::uniform(200, 200.0).generate(9);
        let small = ShdgPlanner::new()
            .plan(&Network::build(base.clone(), 20.0))
            .unwrap();
        let large = ShdgPlanner::new()
            .plan(&Network::build(base, 45.0))
            .unwrap();
        assert!(large.n_polling_points() < small.n_polling_points());
        assert!(large.tour_length < small.tour_length);
    }

    #[test]
    fn capacitated_plans_respect_the_buffer_bound() {
        let net = net(150, 200.0, 30.0, 21);
        for cap in [1usize, 3, 8, 20] {
            let cfg = PlannerConfig {
                max_sensors_per_pp: Some(cap),
                ..PlannerConfig::default()
            };
            let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
            plan.validate(&net.deployment.sensors, net.range).unwrap();
            assert!(
                plan.max_sensors_per_pp() <= cap,
                "cap {cap} violated: {}",
                plan.max_sensors_per_pp()
            );
        }
    }

    #[test]
    fn tighter_buffers_need_more_polling_points() {
        let net = net(200, 200.0, 30.0, 23);
        let plan_with = |cap: Option<usize>| {
            ShdgPlanner::with_config(PlannerConfig {
                max_sensors_per_pp: cap,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap()
        };
        let unbounded = plan_with(None);
        let cap5 = plan_with(Some(5));
        let cap1 = plan_with(Some(1));
        assert!(cap5.n_polling_points() > unbounded.n_polling_points());
        assert_eq!(
            cap1.n_polling_points(),
            net.n_sensors(),
            "cap 1 degenerates to visit-all"
        );
        // And the tour grows as buffers tighten.
        assert!(cap5.tour_length >= unbounded.tour_length - 1e-6);
        assert!(cap1.tour_length > cap5.tour_length);
    }

    #[test]
    fn a_zero_buffer_bound_is_an_error_not_a_panic() {
        let net = net(50, 100.0, 30.0, 31);
        let base = PlannerConfig {
            max_sensors_per_pp: Some(0),
            ..PlannerConfig::default()
        };
        let unsupported =
            |r: Result<GatheringPlan, PlanError>| matches!(r, Err(PlanError::Unsupported(_)));
        assert!(unsupported(ShdgPlanner::with_config(base).plan(&net)));
        let hier = crate::HierConfig {
            base,
            ..crate::HierConfig::default()
        };
        assert!(unsupported(
            crate::HierPlanner::with_config(hier).plan(&net)
        ));
    }

    #[test]
    fn capacitated_plan_is_deterministic() {
        let net = net(80, 150.0, 30.0, 29);
        let cfg = PlannerConfig {
            max_sensors_per_pp: Some(6),
            ..PlannerConfig::default()
        };
        let a = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        let b = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        assert_eq!(a, b);
    }
}
