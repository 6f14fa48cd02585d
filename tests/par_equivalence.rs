//! Cross-thread-count equivalence suite for the `mdg-par` layer.
//!
//! The hard invariant of the parallel planner: **plans are bit-identical
//! at any thread count**. Parallel stages only compute; every selection
//! and tie-break stays in a deterministic sequential reducer. This suite
//! re-plans the same fields at 1, 2 and 8 worker threads and requires
//! `GatheringPlan` equality (derived `PartialEq` — exact f64 comparison,
//! no tolerances) across:
//!
//! * both covering strategies (`Greedy` and `TourAware`),
//! * both tour-improvement paths (dense 2-opt/Or-opt below the planner's
//!   512-stop limit, neighbor-list passes above it),
//! * ≥ 20 random fields,
//! * a tour-aware field of 5 000 candidates, wider than one block of
//!   the cover's parallel selection scan and insertion-cache update.
//!
//! Thread counts are driven through `mdg_par::set_threads`, which is
//! process-global — every test that touches it serializes on [`lock`].
//!
//! The planner's input is held to the same standard: `Network::build`
//! fills both unit-disk graphs in parallel, so the graph tests require
//! the same nodes, edges and per-row `(target, weight bits)` at every
//! thread count as the edge-list construction the row builder replaced
//! (kept here as the oracle). Row order matters: BFS parents, and with
//! them both multi-hop baselines, break ties by neighbour order. The
//! sinks include the edges of the sensors' bounding box, where the build
//! switches between deriving the sensor graph from the full graph and
//! filling it on its own grid; the `udg/*` spans pin which path ran.
//!
//! A plan builds its working buffers afresh and frees them when it
//! returns (`tests/retained_bytes.rs` holds a dropped plan to the live
//! bytes of before it), so the plans run back to back here share no
//! state: none can read what an earlier plan or thread count left behind.

use mobile_collectors::core::{CoveringStrategy, GatheringPlan, PlannerConfig, ShdgPlanner};
use mobile_collectors::geom::{Aabb, Point, SpatialGrid};
use mobile_collectors::net::{Csr, Deployment, DeploymentConfig, Network, SinkPlacement, Topology};
use mobile_collectors::{obs, par};
use std::sync::{Mutex, MutexGuard, OnceLock};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Serializes tests around the process-global thread-count override.
/// Also honors `MDG_COUNT_ALLOC` (CI's test job re-runs this suite
/// under the counting allocator — counting must never change a plan).
fn lock() -> MutexGuard<'static, ()> {
    mobile_collectors::obs::alloc::counting_from_env();
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn plan_with(cfg: &PlannerConfig, net: &Network, threads: usize) -> GatheringPlan {
    par::set_threads(threads);
    let plan = ShdgPlanner::with_config(*cfg)
        .plan(net)
        .expect("field is feasible");
    par::set_threads(0);
    plan
}

/// Plans `net` at every thread count and asserts all plans are identical
/// to the single-thread one. Returns the reference plan.
fn assert_thread_count_invariant(cfg: &PlannerConfig, net: &Network, label: &str) -> GatheringPlan {
    let reference = plan_with(cfg, net, THREAD_COUNTS[0]);
    for &t in &THREAD_COUNTS[1..] {
        let plan = plan_with(cfg, net, t);
        assert_eq!(
            reference, plan,
            "{label}: plan at {t} threads differs from single-threaded plan"
        );
    }
    reference
}

fn greedy_cfg() -> PlannerConfig {
    PlannerConfig {
        covering: CoveringStrategy::Greedy,
        ..PlannerConfig::default()
    }
}

fn tour_aware_cfg() -> PlannerConfig {
    PlannerConfig {
        covering: CoveringStrategy::TourAware,
        ..PlannerConfig::default()
    }
}

#[test]
fn dense_path_bit_identical_across_thread_counts() {
    let _g = lock();
    // Small dense fields: few polling points, so the planner takes the
    // dense DistMatrix + 2-opt/Or-opt path (≤ 512 stops). 20 seeds × both
    // strategies.
    for seed in 0..20u64 {
        let n = 150 + (seed as usize % 5) * 40;
        let side = 300.0 + (seed as f64 % 3.0) * 100.0;
        let net = Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0);
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan = assert_thread_count_invariant(&cfg, &net, &format!("{label} seed {seed}"));
            assert!(
                plan.n_polling_points() <= 512,
                "seed {seed}: expected the dense tour path"
            );
            plan.validate(&net.deployment.sensors, net.range)
                .expect("plan is valid");
        }
    }
}

#[test]
fn neighbor_list_path_bit_identical_across_thread_counts() {
    let _g = lock();
    // Sparse fields: enough polling points to exceed the planner's
    // 512-stop dense limit, forcing cheapest insertion + neighbor-list
    // improvement. 4 seeds × both strategies (each plan runs 6× here, so
    // the fields are kept moderate).
    for seed in 100..104u64 {
        let net = Network::build(DeploymentConfig::uniform(700, 2_300.0).generate(seed), 30.0);
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan =
                assert_thread_count_invariant(&cfg, &net, &format!("{label} NL seed {seed}"));
            assert!(
                plan.n_polling_points() > 512,
                "seed {seed}: got {} stops, expected the neighbor-list path",
                plan.n_polling_points()
            );
        }
    }
}

#[test]
fn tour_aware_multi_block_path_bit_identical_across_thread_counts() {
    let _g = lock();
    // 5 000 sensor-site candidates: the tour-aware cover's grid holds a
    // few hundred cells, sized from the instance alone, so the cells (and
    // which of them a selection visits) must not depend on the thread
    // count.
    let net = Network::build(DeploymentConfig::uniform(5_000, 707.0).generate(7), 30.0);
    assert!(net.n_sensors() > 4_096);
    let plan = assert_thread_count_invariant(&tour_aware_cfg(), &net, "tour-aware n = 5000");
    plan.validate(&net.deployment.sensors, net.range)
        .expect("plan is valid");
}

#[test]
fn dense_improve_parallel_branch_matches_sequential() {
    use mobile_collectors::geom::Point;
    use mobile_collectors::tour::{improve, EuclideanCost, Tour};
    let _g = lock();
    // Drive `improve` directly at n = 600, past the planner's dense limit,
    // with EuclideanCost. Its candidate scans run inline on the calling
    // thread, so the improved tour must be identical at every thread
    // count.
    let mut state = 0xD1CEu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 1_000.0
    };
    let pts: Vec<Point> = (0..600).map(|_| Point::new(next(), next())).collect();
    let cost = EuclideanCost::new(&pts);
    par::set_threads(1);
    let reference = improve(&cost, Tour::identity(600), 2);
    for &t in &THREAD_COUNTS[1..] {
        par::set_threads(t);
        let tour = improve(&cost, Tour::identity(600), 2);
        assert_eq!(
            reference.order(),
            tour.order(),
            "dense improve diverged at {t} threads"
        );
    }
    par::set_threads(0);
}

#[test]
fn env_thread_override_is_respected() {
    let _g = lock();
    // `set_threads` beats the environment; 0 restores auto.
    par::set_threads(3);
    assert_eq!(par::threads(), 3);
    par::set_threads(1);
    assert_eq!(par::threads(), 1);
    par::set_threads(0);
    assert!(par::threads() >= 1);
}

/// The unit-disk graph as the edge-list construction built it: every pair
/// `i < j` in grid query order, scattered into rows by `Csr::from_edges`.
fn reference_udg(points: &[Point], range: f64) -> Csr {
    if points.is_empty() {
        return Csr::from_edges(0, &[]);
    }
    let grid = SpatialGrid::build(points, range);
    let mut edges = Vec::new();
    for (i, &p) in points.iter().enumerate() {
        grid.for_each_within_d(p, range, |j, d_sq| {
            if (i as u32) < j {
                edges.push((i as u32, j, d_sq.sqrt()));
            }
        });
    }
    Csr::from_edges(points.len(), &edges)
}

fn row(g: &Csr, u: usize) -> Vec<(u32, u64)> {
    g.neighbors_weighted(u)
        .map(|(v, w)| (v, w.to_bits()))
        .collect()
}

fn assert_same_graph(got: &Csr, want: &Csr, label: &str) {
    assert_eq!(got.n(), want.n(), "{label}: node count");
    assert_eq!(got.m(), want.m(), "{label}: edge count");
    for u in 0..want.n() {
        assert_eq!(row(got, u), row(want, u), "{label}: row {u}");
    }
}

/// Builds `dep`'s network at every thread count and compares both graphs
/// with the edge-list oracle, row by row and bit by bit.
fn assert_graphs_match_reference(dep: &Deployment, range: f64, label: &str) {
    let sensors = reference_udg(&dep.sensors, range);
    let mut all = dep.sensors.clone();
    all.push(dep.sink);
    let full = reference_udg(&all, range);
    for &t in &THREAD_COUNTS {
        par::set_threads(t);
        let net = Network::build(dep.clone(), range);
        par::set_threads(0);
        assert_same_graph(
            &net.sensor_graph,
            &sensors,
            &format!("{label} sensors, {t} threads"),
        );
        assert_same_graph(
            &net.full_graph,
            &full,
            &format!("{label} full, {t} threads"),
        );
    }
}

fn sink_placements(side: f64) -> [(SinkPlacement, &'static str); 3] {
    [
        (SinkPlacement::Center, "centre sink"),
        (SinkPlacement::Corner, "corner sink"),
        (
            SinkPlacement::At(Point::new(-0.4 * side, 1.3 * side)),
            "outside sink",
        ),
    ]
}

/// `x` one ulp up, for positive `x`.
fn next_up(x: f64) -> f64 {
    assert!(x > 0.0);
    f64::from_bits(x.to_bits() + 1)
}

/// Sinks where `Network::build` picks its path, on `dep`'s sensors:
/// exactly on their bounding box's max corner, one ulp beyond it, and on
/// a sensor (a zero-weight edge to the sink).
fn boundary_sinks(dep: &Deployment) -> Vec<(Point, &'static str)> {
    let Some(bb) = Aabb::from_points(&dep.sensors) else {
        return Vec::new();
    };
    vec![
        (bb.max, "max-corner sink"),
        (
            Point::new(next_up(bb.max.x), next_up(bb.max.y)),
            "sink one ulp beyond the max corner",
        ),
        (dep.sensors[dep.n() / 2], "sink on a sensor"),
    ]
}

#[test]
fn graphs_bit_identical_to_the_edge_list_build_across_thread_counts() {
    let _g = lock();
    // Below, at and above the grid's 64-cell floor (4 cells per point),
    // then past one 2 048-row fill block.
    for n in [0, 1, 2, 15, 16, 17, 5_000] {
        let side = if n > 100 { 700.0 } else { 100.0 };
        for (sink, where_) in sink_placements(side) {
            let cfg = DeploymentConfig {
                sink,
                ..DeploymentConfig::uniform(n, side)
            };
            let dep = cfg.generate(n as u64 + 3);
            assert_graphs_match_reference(&dep, 30.0, &format!("n={n}, {where_}"));
        }
        let dep = DeploymentConfig::uniform(n, side).generate(n as u64 + 3);
        for (sink, where_) in boundary_sinks(&dep) {
            let dep = Deployment {
                sink,
                ..dep.clone()
            };
            assert_graphs_match_reference(&dep, 30.0, &format!("n={n}, {where_}"));
        }
    }
    // Clustered: dense cells next to empty ones, over three blocks.
    let clusters = DeploymentConfig {
        field_side: 900.0,
        sink: SinkPlacement::Corner,
        topology: Topology::GaussianClusters {
            clusters: 6,
            per_cluster: 900,
            sigma: 40.0,
        },
    };
    assert_graphs_match_reference(&clusters.generate(11), 30.0, "clusters");
}

#[test]
fn graphs_bit_identical_at_extreme_ranges_and_colocated_sensors() {
    let _g = lock();
    let dep = DeploymentConfig::uniform(300, 300.0).generate(21);
    // A 1 mm range: the grid's cell-count cap binds, almost no edges.
    assert_graphs_match_reference(&dep, 0.001, "0.001 m range");
    // A range wider than the field: a complete graph in one cell.
    assert_graphs_match_reference(&dep, 500.0, "range wider than the field");
    // Co-located sensors: zero-weight edges, identical grid slots.
    let mut stacked = dep.clone();
    stacked.sensors = dep.sensors[..100]
        .iter()
        .flat_map(|&p| [p, p, p])
        .chain(std::iter::repeat_n(Point::new(150.0, 150.0), 40))
        .collect();
    stacked.sink = Point::new(150.0, 150.0);
    assert_graphs_match_reference(&stacked, 30.0, "co-located sensors");
}

#[test]
fn graphs_bit_identical_where_the_two_grids_disagree() {
    let _g = lock();
    // Sensors 1 and 2 are exactly one range apart in floating point
    // (2 - (1 - 2⁻⁵³) rounds to 1). The sensor grid puts them two cells
    // apart and never pairs them; the full grid, shifted by the sink at
    // x = -0.5, puts them in adjacent cells and does. The offsets read
    // off the full graph then reserve a pair the sensor grid never finds,
    // and the sensor grid counts its own rows.
    let dep = Deployment {
        sensors: vec![
            Point::new(0.0, 0.0),
            Point::new(1.0 - f64::EPSILON / 2.0, 0.0),
            Point::new(2.0, 0.0),
        ],
        sink: Point::new(-0.5, 0.0),
        field: Aabb::square(2.0),
    };
    let mut all = dep.sensors.clone();
    all.push(dep.sink);
    assert!(!reference_udg(&dep.sensors, 1.0).has_edge(1, 2));
    assert!(reference_udg(&all, 1.0).has_edge(1, 2));
    assert_eq!(build_path(&dep, 1.0), (false, 2));
    assert_graphs_match_reference(&dep, 1.0, "grids disagree");
}

/// Builds `dep`'s network with spans on; returns whether the sensor graph
/// was cut out of the full graph, and how many times a grid was counted.
fn build_path(dep: &Deployment, range: f64) -> (bool, u64) {
    obs::reset();
    obs::set_enabled(true);
    Network::build(dep.clone(), range);
    obs::set_enabled(false);
    let spans = obs::snapshot().spans;
    let calls = |path: &str| spans.iter().find(|s| s.path == path).map_or(0, |s| s.calls);
    (calls("udg/derive") == 1, calls("udg/count"))
}

#[test]
fn a_sink_on_the_sensor_lattice_derives_the_sensor_graph() {
    let _g = lock();
    // The fast path is chosen by the grids alone; the spans show which
    // one ran, so it cannot be lost without a test failing.
    let field = |sink| {
        DeploymentConfig {
            sink,
            ..DeploymentConfig::uniform(2_000, 447.0)
        }
        .generate(5)
    };
    assert_eq!(build_path(&field(SinkPlacement::Center), 30.0), (true, 1));
    assert_eq!(build_path(&field(SinkPlacement::Corner), 30.0), (false, 1));

    // Sensors spanning one ulp short of two 30 m cells each way. A sink
    // on their max corner keeps the sensor grid's 2 × 2 lattice. One ulp
    // beyond it in x adds a column, in y a row; one ulp before the origin
    // on either axis moves the origin alone. The lattices are compared bit
    // for bit.
    let w = f64::from_bits(60.0f64.to_bits() - 1);
    assert_eq!(
        ((w / 30.0).floor(), (next_up(w) / 30.0).floor()),
        (1.0, 2.0)
    );
    let sensors = vec![
        Point::new(0.0, 0.0),
        Point::new(29.0, 31.0),
        Point::new(30.0, 30.0),
        Point::new(w, 45.0),
        Point::new(w, w),
    ];
    for (sink, derived, label) in [
        (Point::new(w, w), true, "max-corner sink on a cell boundary"),
        (
            Point::new(next_up(w), w),
            false,
            "sink one ulp past the last column",
        ),
        (
            Point::new(w, next_up(w)),
            false,
            "sink one ulp past the last row",
        ),
        (
            Point::new(-f64::from_bits(1), 30.0),
            false,
            "sink one ulp left of the origin",
        ),
        (
            Point::new(30.0, -f64::from_bits(1)),
            false,
            "sink one ulp below the origin",
        ),
    ] {
        let dep = Deployment {
            sensors: sensors.clone(),
            sink,
            field: Aabb::square(60.0),
        };
        assert_eq!(build_path(&dep, 30.0), (derived, 1), "{label}");
        assert_graphs_match_reference(&dep, 30.0, label);
    }

    // A range far below the spacing: the cell-count cap sizes the two
    // grids' cells apart, though the sink sits inside the sensors' box.
    let sparse = DeploymentConfig::uniform(300, 300.0).generate(21);
    assert_eq!(build_path(&sparse, 0.001), (false, 1));
}
