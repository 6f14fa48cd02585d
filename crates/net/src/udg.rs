//! Unit-disk communication graphs over a deployment.
//!
//! Two radios can communicate iff they are within transmission range `R` of
//! each other — the standard connectivity model of the paper. [`Network`]
//! bundles a [`Deployment`], the range, and two CSR graphs: one over the
//! sensors only (used for connectivity statistics and local aggregation
//! structure) and one that additionally includes the sink as node
//! `n_sensors` (used by the multi-hop routing baseline).
//!
//! # Row builder
//!
//! The full graph is written once, straight into exact-size CSR arrays,
//! on `mdg-par`, from a grid over the sensors and the sink: one parallel
//! pass counts every node's neighbours with
//! [`SpatialGrid::count_within`], a checked prefix sum turns the
//! counts into offsets, and a fill pass writes the rows over fixed
//! 2 048-row blocks, each block owning a disjoint slice of the arrays.
//!
//! The sensor graph is the full graph without the sink. When the sensor
//! grid lies on the full grid's lattice (a sink inside the sensors'
//! bounding box), it is cut out of the full graph: the rows the sink's
//! row lists lose their sink entry, and the rows between them are copied
//! as runs. Otherwise it is filled on its own grid, with offsets read off
//! the full graph. The graphs are bit-identical at any thread count.
//!
//! Row `u` lists its lower-index neighbours in ascending order, then its
//! higher-index ones in the grid's slot order. This is the order an edge
//! list of the pairs `i < j` in query order, scattered by
//! [`Csr::from_edges`], produces, and it is part of the output:
//! [`crate::bfs_tree`] (both multi-hop baselines) and CME's relay forest
//! break BFS parent ties by neighbour order.

use crate::deployment::Deployment;
use crate::graph::Csr;
use mdg_geom::{Point, SpatialGrid};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{self, AtomicBool};

/// Rows per fill block. Fixed, so block boundaries never depend on the
/// thread count.
const ROW_BLOCK: usize = 2048;

fn assert_range(range: f64) {
    assert!(
        range > 0.0 && range.is_finite(),
        "transmission range must be positive"
    );
}

/// The unit-disk graph over `points` with range `range`, edge weights the
/// Euclidean distances, from a prebuilt grid indexing exactly `points`.
fn build_udg_with_grid(points: &[Point], range: f64, grid: &SpatialGrid) -> Csr {
    debug_assert_eq!(grid.len(), points.len(), "grid must index `points`");
    let offsets = row_offsets(points, range, grid);
    fill_rows(points, range, grid, offsets).expect("one grid fills its rows as it counted them")
}

/// `acc + degree`, the next CSR offset.
///
/// # Panics
/// Panics if the graph holds more than `u32::MAX` adjacency entries.
fn next_offset(acc: u32, degree: u32) -> u32 {
    acc.checked_add(degree)
        .expect("unit-disk graph exceeds u32::MAX adjacency entries")
}

/// CSR offsets of the unit-disk graph over `points`: one parallel pass
/// counts each point's neighbours (itself excluded).
fn row_offsets(points: &[Point], range: f64, grid: &SpatialGrid) -> Vec<u32> {
    let _sp = mdg_obs::span("udg/count");
    let mut offsets = vec![0u32; points.len() + 1];
    mdg_par::par_chunks_mut(&mut offsets[1..], ROW_BLOCK, |start, degrees| {
        for (&p, degree) in points[start..].iter().zip(degrees.iter_mut()) {
            // The query counts `p` itself exactly when the predicate holds
            // for it; a non-finite `p` meets nobody, itself included.
            let own = usize::from(p.dist_sq(p) <= range * range);
            *degree = (grid.count_within(p, range) - own) as u32;
        }
    });
    for u in 0..points.len() {
        offsets[u + 1] = next_offset(offsets[u], offsets[u + 1]);
    }
    offsets
}

/// Offsets of the sensor graph from the full graph (the sensors, then
/// the sink as its last node): a sensor's row loses the sink when the
/// sink's row lists it. The sink's row holds only lower-index nodes, so
/// it lists them in ascending order.
fn offsets_without_sink(full: &Csr) -> Vec<u32> {
    let sink = full.n() - 1;
    let listed = full.neighbors(sink);
    let mut dropped = 0;
    full.rows().0[..=sink]
        .iter()
        .enumerate()
        .map(|(u, &offset)| {
            while listed.get(dropped).is_some_and(|&s| (s as usize) < u) {
                dropped += 1;
            }
            offset - dropped as u32
        })
        .collect()
}

/// The sensor graph cut out of the full graph, on `offsets` from
/// [`offsets_without_sink`]: every sensor row without the sink, and no
/// sink row. Only the rows the sink's row lists change, so the rows
/// between them are copied as runs.
fn drop_sink(full: &Csr, offsets: Vec<u32>) -> Csr {
    let _sp = mdg_obs::span("udg/derive");
    let (full_offsets, full_targets, full_weights) = full.rows();
    let sink = full.n() - 1;
    let len = offsets[sink] as usize;
    let (mut targets, mut weights) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let mut run = 0;
    for &u in full.neighbors(sink) {
        let row = full_offsets[u as usize] as usize..full_offsets[u as usize + 1] as usize;
        let at = row.start
            + full_targets[row]
                .iter()
                .position(|&v| v as usize == sink)
                .expect("a row the sink lists lists the sink");
        targets.extend_from_slice(&full_targets[run..at]);
        weights.extend_from_slice(&full_weights[run..at]);
        run = at + 1;
    }
    let end = full_offsets[sink] as usize;
    targets.extend_from_slice(&full_targets[run..end]);
    weights.extend_from_slice(&full_weights[run..end]);
    Csr::from_rows(offsets, targets, weights)
}

/// Fills the rows `offsets` lays out, one [`ROW_BLOCK`]-row block per
/// task, into exact-size arrays. Returns `None` if some row's query finds
/// a different number of neighbours than `offsets` reserved for it.
fn fill_rows(points: &[Point], range: f64, grid: &SpatialGrid, offsets: Vec<u32>) -> Option<Csr> {
    let _sp = mdg_obs::span("udg/fill");
    let n = points.len();
    let mut targets = vec![0u32; offsets[n] as usize];
    let mut weights = vec![0.0f64; offsets[n] as usize];
    let exact = AtomicBool::new(true);
    {
        // Cut the arrays into each block's slice up front, so every task
        // owns its output outright.
        let mut blocks = Vec::with_capacity(n.div_ceil(ROW_BLOCK));
        let (mut targets, mut weights) = (&mut targets[..], &mut weights[..]);
        for start in (0..n).step_by(ROW_BLOCK) {
            let rows = start..(start + ROW_BLOCK).min(n);
            let len = (offsets[rows.end] - offsets[rows.start]) as usize;
            let (t, rest) = std::mem::take(&mut targets).split_at_mut(len);
            targets = rest;
            let (w, rest) = std::mem::take(&mut weights).split_at_mut(len);
            weights = rest;
            blocks.push((rows, t, w));
        }
        mdg_par::par_chunks_mut(&mut blocks, 1, |_, block| {
            let (rows, targets, weights) = &mut block[0];
            if !fill_block(
                points,
                range,
                grid,
                &offsets,
                rows.clone(),
                targets,
                weights,
            ) {
                exact.store(false, atomic::Ordering::Relaxed);
            }
        });
    }
    exact
        .into_inner()
        .then(|| Csr::from_rows(offsets, targets, weights))
}

/// Fills `rows` into the block's slices `targets`/`weights`, which start
/// at entry `offsets[rows.start]`. Returns `false` at the first row whose
/// query disagrees with its reserved length.
fn fill_block(
    points: &[Point],
    range: f64,
    grid: &SpatialGrid,
    offsets: &[u32],
    rows: Range<usize>,
    targets: &mut [u32],
    weights: &mut [f64],
) -> bool {
    let base = offsets[rows.start] as usize;
    let (mut lower, mut higher) = (Vec::new(), Vec::new());
    for u in rows {
        lower.clear();
        higher.clear();
        // The grid hands the squared distance back from its (SoA,
        // contiguous) scan; `d_sq.sqrt()` is bit-identical to
        // `p.dist(points[j])` because `dist` is defined as
        // `dist_sq().sqrt()` and squaring is sign-symmetric.
        grid.for_each_within_d(points[u], range, |j, d_sq| match (j as usize).cmp(&u) {
            Ordering::Less => lower.push((j, d_sq.sqrt())),
            Ordering::Greater => higher.push((j, d_sq.sqrt())),
            Ordering::Equal => {}
        });
        let row = offsets[u] as usize - base..offsets[u + 1] as usize - base;
        if lower.len() + higher.len() != row.len() {
            return false;
        }
        lower.sort_unstable_by_key(|&(j, _)| j);
        for (k, &(j, w)) in row.zip(lower.iter().chain(&higher)) {
            targets[k] = j;
            weights[k] = w;
        }
    }
    true
}

/// A sensor network: deployment + transmission range + adjacency.
#[derive(Debug, Clone)]
pub struct Network {
    /// The underlying deployment.
    pub deployment: Deployment,
    /// Radio transmission range in meters.
    pub range: f64,
    /// Unit-disk graph over sensors only (node ids = sensor ids).
    pub sensor_graph: Csr,
    /// Unit-disk graph over sensors *plus the sink* as node
    /// [`Network::sink_node`].
    pub full_graph: Csr,
    /// Spatial index over the sensor positions, kept for the lifetime of
    /// the network so point-radius queries
    /// ([`Network::sensors_within_range_of`]) cost `O(local density)`
    /// instead of `O(n)` — those queries run once per stop per repair
    /// round in the online runtime.
    grid: SpatialGrid,
}

impl Network {
    /// Builds the network graphs for `deployment` with transmission range
    /// `range`.
    pub fn build(deployment: Deployment, range: f64) -> Self {
        assert_range(range);
        let sensors = &deployment.sensors;
        let mut all = Vec::with_capacity(sensors.len() + 1);
        all.extend_from_slice(sensors);
        all.push(deployment.sink);
        let (grid, full_grid) = {
            let _sp = mdg_obs::span("udg/grid");
            (
                SpatialGrid::build(sensors, range),
                SpatialGrid::build(&all, range),
            )
        };
        let full_graph = build_udg_with_grid(&all, range, &full_grid);
        let offsets = offsets_without_sink(&full_graph);
        // On one lattice both grids hold the same buckets in the same slot
        // order, the sink last in its own: the sensor grid's scan from a
        // sensor is the full grid's without the sink, row order and
        // weights included. On two lattices a pair of sensors within an
        // ulp of the range can straddle the cell boundaries of one grid
        // and not the other's; the sensor grid then counts its own rows.
        let sensor_graph = if grid.same_lattice(&full_grid) {
            drop_sink(&full_graph, offsets)
        } else {
            fill_rows(sensors, range, &grid, offsets)
                .unwrap_or_else(|| build_udg_with_grid(sensors, range, &grid))
        };
        Network {
            deployment,
            range,
            sensor_graph,
            full_graph,
            grid,
        }
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.deployment.n()
    }

    /// Node id of the sink in [`Network::full_graph`].
    pub fn sink_node(&self) -> usize {
        self.n_sensors()
    }

    /// Position of a node in the *full* graph (sensor or sink).
    pub fn position(&self, node: usize) -> Point {
        if node == self.sink_node() {
            self.deployment.sink
        } else {
            self.deployment.sensors[node]
        }
    }

    /// Sensors within `range` of an arbitrary point — i.e. the sensors that
    /// could upload in a single hop to a collector pausing at `p`. Indices
    /// are returned in ascending order.
    ///
    /// Answered from the stored [`SpatialGrid`]; the grid applies the same
    /// `dist² ≤ range²` predicate a linear scan would, so the result is
    /// identical — just `O(local density)` instead of `O(n)`.
    pub fn sensors_within_range_of(&self, p: Point) -> Vec<u32> {
        let mut near = self.grid.neighbors_within(p, self.range);
        near.sort_unstable();
        near
    }

    /// Returns `true` if the sensor-only graph is connected (vacuously true
    /// for ≤ 1 sensors).
    pub fn is_connected(&self) -> bool {
        let (count, _) = crate::components::components(&self.sensor_graph);
        count <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{DeploymentConfig, SinkPlacement, Topology};
    use mdg_geom::Aabb;

    fn line_deployment() -> Deployment {
        // Sensors at x = 0, 10, 20, 35 on a line; sink at 5.
        Deployment {
            sensors: vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(35.0, 0.0),
            ],
            sink: Point::new(5.0, 0.0),
            field: Aabb::square(40.0),
        }
    }

    #[test]
    fn udg_edges_respect_range() {
        let g = Network::build(line_deployment(), 10.0).sensor_graph;
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2), "20 m apart > 10 m range");
        assert!(!g.has_edge(2, 3), "15 m apart > 10 m range");
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn udg_matches_brute_force_on_random_field() {
        let d = DeploymentConfig::uniform(150, 200.0).generate(9);
        let r = 30.0;
        let g = Network::build(d.clone(), r).sensor_graph;
        let mut brute = 0usize;
        for i in 0..d.n() {
            for j in (i + 1)..d.n() {
                let within = d.sensors[i].dist(d.sensors[j]) <= r;
                assert_eq!(g.has_edge(i, j), within, "pair ({i},{j})");
                brute += within as usize;
            }
        }
        assert_eq!(g.m(), brute);
    }

    #[test]
    fn udg_weights_are_distances() {
        let d = line_deployment();
        let g = Network::build(d.clone(), 10.0).sensor_graph;
        for (u, v, w) in g.edges() {
            let expect = d.sensors[u as usize].dist(d.sensors[v as usize]);
            assert!((w - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn network_full_graph_includes_sink() {
        let net = Network::build(line_deployment(), 10.0);
        assert_eq!(net.n_sensors(), 4);
        assert_eq!(net.sink_node(), 4);
        // Sink at x=5 is within 10 m of sensors at 0 and 10.
        assert!(net.full_graph.has_edge(4, 0));
        assert!(net.full_graph.has_edge(4, 1));
        assert!(!net.full_graph.has_edge(4, 2));
        assert_eq!(net.position(4), Point::new(5.0, 0.0));
        assert_eq!(net.position(0), Point::new(0.0, 0.0));
    }

    #[test]
    fn sensors_within_range_matches_linear_scan() {
        // The grid-backed query must reproduce the brute-force predicate
        // (dist² ≤ range²) exactly, in ascending index order.
        let d = DeploymentConfig::uniform(200, 250.0).generate(17);
        let net = Network::build(d, 30.0);
        let r_sq = net.range * net.range;
        for probe in 0..40usize {
            let p = Point::new((probe * 7 % 251) as f64, (probe * 13 % 241) as f64);
            let brute: Vec<u32> = net
                .deployment
                .sensors
                .iter()
                .enumerate()
                .filter(|(_, s)| s.dist_sq(p) <= r_sq)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(net.sensors_within_range_of(p), brute, "probe {probe}");
        }
    }

    #[test]
    fn sensors_within_range_of_point() {
        let net = Network::build(line_deployment(), 10.0);
        let mut near = net.sensors_within_range_of(Point::new(15.0, 0.0));
        near.sort_unstable();
        assert_eq!(near, vec![1, 2]);
        assert!(net
            .sensors_within_range_of(Point::new(100.0, 100.0))
            .is_empty());
    }

    #[test]
    fn connectivity_detection() {
        let connected = Network::build(line_deployment(), 15.0);
        assert!(connected.is_connected());
        let disconnected = Network::build(line_deployment(), 10.0);
        assert!(!disconnected.is_connected(), "sensor 3 is isolated at R=10");
    }

    #[test]
    fn corridors_are_disconnected_at_small_range() {
        let cfg = DeploymentConfig {
            field_side: 300.0,
            sink: SinkPlacement::Center,
            topology: Topology::Corridors {
                bands: 3,
                per_band: 40,
                band_height: 15.0,
            },
        };
        let net = Network::build(cfg.generate(3), 30.0);
        let (count, _) = crate::components::components(&net.sensor_graph);
        assert!(
            count >= 3,
            "bands 85 m apart cannot link at R=30, got {count} components"
        );
    }

    #[test]
    fn a_non_finite_sensor_meets_nobody() {
        // The count pass subtracts a point's own hit only when the
        // predicate holds for it, which it never does for NaN or ∞: the
        // degrees stay a linear scan's, with no underflow, and the fill
        // agrees with the count.
        let r = 30.0;
        for bad in [
            Point::new(f64::NAN, 40.0),
            Point::new(60.0, f64::NAN),
            Point::new(f64::INFINITY, 10.0),
        ] {
            let mut d = DeploymentConfig::uniform(200, 150.0).generate(4);
            d.sensors[17] = bad;
            let net = Network::build(d.clone(), r);
            for (u, &p) in d.sensors.iter().enumerate() {
                let degree = (d.sensors.iter().enumerate())
                    .filter(|&(j, q)| j != u && q.dist_sq(p) <= r * r)
                    .count();
                assert_eq!(net.sensor_graph.degree(u), degree, "{bad}: sensor {u}");
            }
            assert_eq!(net.sensor_graph.degree(17), 0);
            assert!(net.sensor_graph.m() > 0);
        }
    }

    #[test]
    fn empty_network() {
        let d = Deployment {
            sensors: vec![],
            sink: Point::ORIGIN,
            field: Aabb::square(10.0),
        };
        let net = Network::build(d, 5.0);
        assert_eq!(net.n_sensors(), 0);
        assert!(net.is_connected());
        assert_eq!(net.full_graph.n(), 1, "just the sink");
    }
}
