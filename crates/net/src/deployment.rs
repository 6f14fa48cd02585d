//! Seeded sensor deployment generators.
//!
//! Each generator takes a [`DeploymentConfig`] and a 64-bit seed and returns
//! a [`Deployment`] — sensor coordinates plus the static data sink. The
//! paper's evaluation uses uniform random placements over square fields with
//! the sink at the center; the other topologies exercise the planner on
//! structured and *disconnected* networks (one of the paper's motivating
//! advantages of mobile collection: it works where multi-hop routing
//! cannot).

use mdg_geom::{Aabb, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A static sensor deployment: positions plus the data sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Sensor positions; index `i` is sensor `i` throughout the workspace.
    pub sensors: Vec<Point>,
    /// The static data sink (tour start/end, destination of multi-hop
    /// routing).
    pub sink: Point,
    /// The deployment field.
    pub field: Aabb,
}

impl Deployment {
    /// Number of sensors.
    pub fn n(&self) -> usize {
        self.sensors.len()
    }

    /// Sensor density in sensors per square meter (0 for a degenerate
    /// field).
    pub fn density(&self) -> f64 {
        let a = self.field.area();
        if a <= 0.0 {
            0.0
        } else {
            self.n() as f64 / a
        }
    }
}

/// Where the static data sink sits relative to the field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SinkPlacement {
    /// Field center — the paper's default.
    Center,
    /// The field's minimum corner (origin for `Aabb::square`).
    Corner,
    /// An explicit position (may be outside the field; the paper allows
    /// sinks "either inside or outside the sensing field").
    At(Point),
}

impl SinkPlacement {
    fn resolve(&self, field: &Aabb) -> Point {
        match *self {
            SinkPlacement::Center => field.center(),
            SinkPlacement::Corner => field.min,
            SinkPlacement::At(p) => p,
        }
    }
}

/// Sensor placement pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// `n` sensors i.i.d. uniform over the field — the paper's evaluation
    /// topology.
    UniformRandom { n: usize },
    /// `nx × ny` grid with per-sensor uniform jitter of up to `jitter`
    /// meters in each axis (clamped to the field).
    GridJitter { nx: usize, ny: usize, jitter: f64 },
    /// `clusters` Gaussian clusters of `per_cluster` sensors each, with
    /// standard deviation `sigma`; cluster centers uniform over the field.
    /// Positions are clamped to the field.
    GaussianClusters {
        clusters: usize,
        per_cluster: usize,
        sigma: f64,
    },
    /// `bands` horizontal strips of sensors separated by empty gaps wider
    /// than any practical transmission range — a deliberately
    /// *disconnected* network.
    Corridors {
        bands: usize,
        per_band: usize,
        band_height: f64,
    },
}

/// Full deployment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Side of the square field in meters.
    pub field_side: f64,
    /// Sink placement.
    pub sink: SinkPlacement,
    /// Sensor placement pattern.
    pub topology: Topology,
}

impl DeploymentConfig {
    /// Uniform random deployment over an `side × side` field with the sink
    /// at the center — the paper's standard setup.
    ///
    /// ```
    /// use mdg_net::DeploymentConfig;
    ///
    /// let dep = DeploymentConfig::uniform(200, 200.0).generate(42);
    /// assert_eq!(dep.n(), 200);
    /// assert_eq!(dep.sink, mdg_geom::Point::new(100.0, 100.0));
    /// // Same seed, same deployment — the whole evaluation relies on it.
    /// assert_eq!(dep.sensors, DeploymentConfig::uniform(200, 200.0).generate(42).sensors);
    /// ```
    pub fn uniform(n: usize, side: f64) -> Self {
        DeploymentConfig {
            field_side: side,
            sink: SinkPlacement::Center,
            topology: Topology::UniformRandom { n },
        }
    }

    /// Generates the deployment for `seed`. Deterministic: equal
    /// `(config, seed)` pairs produce identical deployments.
    pub fn generate(&self, seed: u64) -> Deployment {
        assert!(self.field_side > 0.0, "field side must be positive");
        let field = Aabb::square(self.field_side);
        let mut rng = StdRng::seed_from_u64(seed);
        let sensors = match self.topology {
            Topology::UniformRandom { n } => uniform_random(&mut rng, &field, n),
            Topology::GridJitter { nx, ny, jitter } => {
                grid_jitter(&mut rng, &field, nx, ny, jitter)
            }
            Topology::GaussianClusters {
                clusters,
                per_cluster,
                sigma,
            } => gaussian_clusters(&mut rng, &field, clusters, per_cluster, sigma),
            Topology::Corridors {
                bands,
                per_band,
                band_height,
            } => corridors(&mut rng, &field, bands, per_band, band_height),
        };
        Deployment {
            sensors,
            sink: self.sink.resolve(&field),
            field,
        }
    }
}

fn uniform_random(rng: &mut StdRng, field: &Aabb, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(field.min.x..=field.max.x),
                rng.gen_range(field.min.y..=field.max.y),
            )
        })
        .collect()
}

fn grid_jitter(rng: &mut StdRng, field: &Aabb, nx: usize, ny: usize, jitter: f64) -> Vec<Point> {
    assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
    assert!(jitter >= 0.0, "jitter must be non-negative");
    let dx = field.width() / nx as f64;
    let dy = field.height() / ny as f64;
    let mut out = Vec::with_capacity(nx * ny);
    for gy in 0..ny {
        for gx in 0..nx {
            let base = Point::new(
                field.min.x + (gx as f64 + 0.5) * dx,
                field.min.y + (gy as f64 + 0.5) * dy,
            );
            let jittered = if jitter > 0.0 {
                base + Point::new(
                    rng.gen_range(-jitter..=jitter),
                    rng.gen_range(-jitter..=jitter),
                )
            } else {
                base
            };
            out.push(field.clamp(jittered));
        }
    }
    out
}

/// Standard-normal sample via Box–Muller (avoids a `rand_distr` dependency).
fn std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn gaussian_clusters(
    rng: &mut StdRng,
    field: &Aabb,
    clusters: usize,
    per_cluster: usize,
    sigma: f64,
) -> Vec<Point> {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    let mut out = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let center = Point::new(
            rng.gen_range(field.min.x..=field.max.x),
            rng.gen_range(field.min.y..=field.max.y),
        );
        for _ in 0..per_cluster {
            let p = center + Point::new(std_normal(rng) * sigma, std_normal(rng) * sigma);
            out.push(field.clamp(p));
        }
    }
    out
}

fn corridors(
    rng: &mut StdRng,
    field: &Aabb,
    bands: usize,
    per_band: usize,
    band_height: f64,
) -> Vec<Point> {
    assert!(bands > 0, "need at least one band");
    assert!(band_height > 0.0, "band height must be positive");
    let slot = field.height() / bands as f64;
    let h = band_height.min(slot);
    let mut out = Vec::with_capacity(bands * per_band);
    for b in 0..bands {
        let y0 = field.min.y + b as f64 * slot;
        for _ in 0..per_band {
            out.push(Point::new(
                rng.gen_range(field.min.x..=field.max.x),
                rng.gen_range(y0..=(y0 + h)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_in_field() {
        let cfg = DeploymentConfig::uniform(200, 200.0);
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert_eq!(a.sensors.len(), 200);
        assert_eq!(a.sensors, b.sensors, "same seed ⇒ same deployment");
        for p in &a.sensors {
            assert!(a.field.contains(*p));
        }
        assert_eq!(a.sink, Point::new(100.0, 100.0));
        let c = cfg.generate(43);
        assert_ne!(
            a.sensors, c.sensors,
            "different seed ⇒ different deployment"
        );
    }

    #[test]
    fn density() {
        let d = DeploymentConfig::uniform(400, 200.0).generate(1);
        assert!((d.density() - 400.0 / 40_000.0).abs() < 1e-12);
    }

    #[test]
    fn grid_jitter_counts_and_bounds() {
        let cfg = DeploymentConfig {
            field_side: 100.0,
            sink: SinkPlacement::Corner,
            topology: Topology::GridJitter {
                nx: 5,
                ny: 4,
                jitter: 3.0,
            },
        };
        let d = cfg.generate(7);
        assert_eq!(d.n(), 20);
        assert_eq!(d.sink, Point::ORIGIN);
        for p in &d.sensors {
            assert!(d.field.contains(*p));
        }
    }

    #[test]
    fn grid_without_jitter_is_regular() {
        let cfg = DeploymentConfig {
            field_side: 100.0,
            sink: SinkPlacement::Center,
            topology: Topology::GridJitter {
                nx: 2,
                ny: 2,
                jitter: 0.0,
            },
        };
        let d = cfg.generate(0);
        assert_eq!(d.sensors[0], Point::new(25.0, 25.0));
        assert_eq!(d.sensors[3], Point::new(75.0, 75.0));
    }

    #[test]
    fn clusters_stay_in_field() {
        let cfg = DeploymentConfig {
            field_side: 300.0,
            sink: SinkPlacement::Center,
            topology: Topology::GaussianClusters {
                clusters: 4,
                per_cluster: 25,
                sigma: 15.0,
            },
        };
        let d = cfg.generate(11);
        assert_eq!(d.n(), 100);
        for p in &d.sensors {
            assert!(d.field.contains(*p));
        }
    }

    #[test]
    fn corridors_form_separated_bands() {
        let cfg = DeploymentConfig {
            field_side: 300.0,
            sink: SinkPlacement::Center,
            topology: Topology::Corridors {
                bands: 3,
                per_band: 30,
                band_height: 20.0,
            },
        };
        let d = cfg.generate(5);
        assert_eq!(d.n(), 90);
        // Every sensor lies inside one of the three 20 m-tall bands at the
        // bottoms of 100 m slots; gaps of 80 m separate the bands.
        for p in &d.sensors {
            let slot = (p.y / 100.0).floor();
            let offset = p.y - slot * 100.0;
            assert!(offset <= 20.0 + 1e-9, "sensor at y={} outside band", p.y);
        }
    }

    #[test]
    fn explicit_sink_outside_field() {
        let cfg = DeploymentConfig {
            field_side: 100.0,
            sink: SinkPlacement::At(Point::new(-50.0, -50.0)),
            topology: Topology::UniformRandom { n: 10 },
        };
        let d = cfg.generate(1);
        assert_eq!(d.sink, Point::new(-50.0, -50.0));
        assert!(!d.field.contains(d.sink));
    }

    #[test]
    #[should_panic(expected = "field side")]
    fn zero_field_panics() {
        DeploymentConfig::uniform(10, 0.0).generate(0);
    }
}
