//! The serve workloads' churn: a seeded stream of field mutations, and the
//! client's own model of the field it reports them against.

use mdg_geom::Point;
use mdg_net::Deployment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sensors each delta kills.
pub const DEATHS_PER_DELTA: usize = 4;
/// Every this-many deltas (the 4th, 8th, …) also adds sensors.
pub const ADD_EVERY: u64 = 4;
/// Sensors an adding delta places in the field.
pub const ADDS_PER_DELTA: usize = 2;

/// Mixed into the workload seed so the churn stream is independent of the
/// deployment drawn from the same seed.
const CHURN_SALT: u64 = 0xC3A5_C85C_97CB_3127;

/// One `delta` request's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Ids of sensors that died (each live before this delta).
    pub died: Vec<u64>,
    /// Positions of sensors added by this delta (ids continue the id space).
    pub added: Vec<Point>,
}

/// The client's model of a churning field: positions, alive mask and the
/// live ids the next deaths are drawn from. [`Field::next_delta`] draws a
/// delta and applies it to the model, so after the daemon acknowledges the
/// delta both sides describe the same field.
pub struct Field {
    rng: StdRng,
    side: f64,
    sensors: Vec<Point>,
    alive: Vec<bool>,
    live: Vec<u32>,
    deltas: u64,
}

impl Field {
    /// Starts from `deployment` with every sensor alive; `seed` seeds the
    /// churn stream, `side` bounds the positions of added sensors.
    pub fn new(deployment: &Deployment, side: f64, seed: u64) -> Self {
        let n = deployment.sensors.len();
        Field {
            rng: StdRng::seed_from_u64(seed ^ CHURN_SALT),
            side,
            sensors: deployment.sensors.clone(),
            alive: vec![true; n],
            live: (0..n as u32).collect(),
            deltas: 0,
        }
    }

    /// Draws the next delta — [`DEATHS_PER_DELTA`] distinct live sensors
    /// die, and every [`ADD_EVERY`]th delta adds [`ADDS_PER_DELTA`] sensors
    /// at uniform in-field positions — and applies it to the model.
    pub fn next_delta(&mut self) -> Delta {
        self.deltas += 1;
        let kills = DEATHS_PER_DELTA.min(self.live.len());
        let mut died = Vec::with_capacity(kills);
        for _ in 0..kills {
            let id = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.alive[id as usize] = false;
            died.push(id as u64);
        }
        let mut added = Vec::new();
        if self.deltas.is_multiple_of(ADD_EVERY) {
            for _ in 0..ADDS_PER_DELTA {
                let p = Point::new(
                    self.rng.gen_range(0.0..=self.side),
                    self.rng.gen_range(0.0..=self.side),
                );
                self.live.push(self.sensors.len() as u32);
                self.sensors.push(p);
                self.alive.push(true);
                added.push(p);
            }
        }
        Delta { died, added }
    }

    /// Every sensor position the field has had (dead ones included).
    pub fn sensors(&self) -> &[Point] {
        &self.sensors
    }

    /// Alive mask, parallel to [`Field::sensors`].
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Sensors currently alive.
    pub fn n_live(&self) -> usize {
        self.live.len()
    }

    /// Deltas drawn so far.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::DeploymentConfig;

    fn stream(seed: u64, len: usize) -> Vec<Delta> {
        let dep = DeploymentConfig::uniform(300, 170.0).generate(seed);
        let mut field = Field::new(&dep, 170.0, seed);
        (0..len).map(|_| field.next_delta()).collect()
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        assert_eq!(stream(5, 40), stream(5, 40));
        assert_ne!(stream(5, 40), stream(6, 40));
    }

    #[test]
    fn churn_only_kills_live_in_range_ids_and_adds_in_field() {
        let side = 170.0;
        let dep = DeploymentConfig::uniform(300, side).generate(9);
        let mut field = Field::new(&dep, side, 9);
        let mut alive = vec![true; 300];
        for k in 1..=60u64 {
            let d = field.next_delta();
            assert_eq!(d.died.len(), DEATHS_PER_DELTA);
            for &id in &d.died {
                let id = id as usize;
                assert!(id < alive.len(), "delta {k}: id {id} out of range");
                assert!(alive[id], "delta {k}: id {id} already dead");
                alive[id] = false;
            }
            let adds = if k % ADD_EVERY == 0 {
                ADDS_PER_DELTA
            } else {
                0
            };
            assert_eq!(d.added.len(), adds);
            for p in &d.added {
                assert!((0.0..=side).contains(&p.x) && (0.0..=side).contains(&p.y));
                alive.push(true);
            }
            assert_eq!(field.alive(), &alive[..]);
            assert_eq!(field.n_live(), alive.iter().filter(|&&a| a).count());
        }
    }
}
