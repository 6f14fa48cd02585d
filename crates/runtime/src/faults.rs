//! Seeded, deterministic fault plans.
//!
//! A [`FaultConfig`] plus a seed fully determines every fault the runtime
//! injects: which nodes die and when, which upload attempts are lost, and
//! when the collector's drive degrades. Replaying the same seed replays
//! the same faults bit-for-bit — the foundation of the determinism
//! regression tests.
//!
//! Per-round randomness is drawn from a PRNG reseeded from
//! `(seed, round)`, so a round's fault draws do not depend on how many
//! draws earlier rounds consumed (repairing the plan changes the number
//! of uploads per round; it must not change later rounds' faults).

use mdg_sim::{RoundHooks, SimEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A window of degraded collector speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slowdown {
    /// Simulation time when the degradation starts, seconds.
    pub start_secs: f64,
    /// How long it lasts, seconds (`f64::INFINITY` = permanent).
    pub duration_secs: f64,
    /// Speed multiplier while active (`0 < factor ≤ 1`; small values
    /// model a near-stall).
    pub factor: f64,
}

/// Configuration of the injected faults. All faults are derived
/// deterministically from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for every fault draw.
    pub seed: u64,
    /// Fraction of sensors that die within the death window.
    pub death_rate: f64,
    /// Deaths are scheduled uniformly in `[0, death_horizon_secs)`.
    pub death_horizon_secs: f64,
    /// Per-attempt probability that an upload is lost.
    pub loss_rate: f64,
    /// Retries allowed after a failed upload attempt.
    pub max_retries: u32,
    /// Base backoff before a retry; retry `k` waits `backoff · 2^(k-1)`
    /// (capped at 64× base).
    pub backoff_secs: f64,
    /// Optional collector speed degradation window.
    pub slowdown: Option<Slowdown>,
}

/// Largest accepted [`FaultConfig::backoff_secs`], about 31 700 years. A
/// retry waits at most 64× this, so a round's waits stay finite for any
/// retry budget and sensor count that fit in memory, where a base near
/// `f64::MAX` makes the curve infinite.
const MAX_BACKOFF_SECS: f64 = 1e12;

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            death_rate: 0.0,
            death_horizon_secs: 0.0,
            loss_rate: 0.0,
            max_retries: 3,
            backoff_secs: 0.5,
            slowdown: None,
        }
    }
}

impl FaultConfig {
    /// Checks parameter sanity: rates in `[0, 1]`, a finite non-negative
    /// death horizon, a backoff in `[0, MAX_BACKOFF_SECS]`, and a
    /// slowdown window with non-negative times and a factor in `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.death_rate) {
            return Err(format!(
                "death rate must be in [0, 1], got {:?}",
                self.death_rate
            ));
        }
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(format!(
                "loss rate must be in [0, 1], got {:?}",
                self.loss_rate
            ));
        }
        if !(self.death_horizon_secs.is_finite() && self.death_horizon_secs >= 0.0) {
            return Err(format!(
                "death horizon must be finite and ≥ 0, got {:?}",
                self.death_horizon_secs
            ));
        }
        if !(0.0..=MAX_BACKOFF_SECS).contains(&self.backoff_secs) {
            return Err(format!(
                "backoff must be in [0, {MAX_BACKOFF_SECS:e}] s, got {:?}",
                self.backoff_secs
            ));
        }
        if let Some(s) = self.slowdown {
            if !(s.start_secs >= 0.0 && s.duration_secs >= 0.0) {
                return Err("slowdown window times must be ≥ 0".into());
            }
            if !(s.factor > 0.0 && s.factor <= 1.0) {
                return Err(format!(
                    "slowdown factor must be in (0, 1], got {:?}",
                    s.factor
                ));
            }
        }
        Ok(())
    }

    /// Materializes the fault plan for `n` sensors: victims and death
    /// times are drawn once, here, from `seed`.
    ///
    /// # Panics
    /// Panics if [`FaultConfig::validate`] rejects the config.
    pub fn plan(&self, n: usize) -> FaultPlan {
        if let Err(e) = self.validate() {
            panic!("invalid fault config: {e}");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_deaths = ((self.death_rate * n as f64).round() as usize).min(n);
        // Partial Fisher–Yates: the first `n_deaths` entries are a uniform
        // sample without replacement.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..n_deaths {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        let mut death_time = vec![None; n];
        for &victim in &ids[..n_deaths] {
            let t = if self.death_horizon_secs > 0.0 {
                rng.gen_range(0.0..self.death_horizon_secs)
            } else {
                0.0
            };
            death_time[victim] = Some(t);
        }
        FaultPlan {
            death_time,
            cfg: *self,
        }
    }
}

/// A fully materialized fault schedule for one run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Absolute death time per sensor (`None` = survives).
    pub death_time: Vec<Option<f64>>,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// The configuration this plan was drawn from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Sensors whose scheduled death time has passed by `t`.
    pub fn due_deaths(&self, t: f64) -> impl Iterator<Item = usize> + '_ {
        self.death_time
            .iter()
            .enumerate()
            .filter(move |(_, dt)| matches!(dt, Some(d) if *d <= t))
            .map(|(i, _)| i)
    }

    /// Collector speed factor at simulation time `t`.
    pub fn speed_factor_at(&self, t: f64) -> f64 {
        match self.cfg.slowdown {
            Some(s) if t >= s.start_secs && t < s.start_secs + s.duration_secs => s.factor,
            _ => 1.0,
        }
    }

    /// Builds the per-round fault hooks for round `round` starting at
    /// simulation time `round_start_secs`. The hooks' PRNG is derived
    /// from `(seed, round)` only.
    pub fn round_hooks(&self, round: u64, round_start_secs: f64) -> RoundFaults<'_> {
        RoundFaults {
            plan: self,
            rng: StdRng::seed_from_u64(
                self.cfg
                    .seed
                    .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            speed: self.speed_factor_at(round_start_secs),
            counters: FaultCounters::default(),
            events: Vec::new(),
            record_events: false,
        }
    }
}

/// Per-round fault tallies, accumulated by [`RoundFaults::observe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Packets delivered to the collector.
    pub delivered: u64,
    /// Upload attempts lost to the loss process.
    pub attempt_failures: u64,
    /// Retransmissions performed (attempts beyond each packet's first).
    pub retries: u64,
    /// Packets abandoned after exhausting retries.
    pub drops: u64,
    /// Packets lost mid-relay to a dead hop.
    pub relay_losses: u64,
}

/// [`RoundHooks`] implementation injecting one round's faults and
/// tallying what happened.
#[derive(Debug)]
pub struct RoundFaults<'a> {
    plan: &'a FaultPlan,
    rng: StdRng,
    speed: f64,
    /// Tallies of this round's fault outcomes.
    pub counters: FaultCounters,
    /// Observed events (only populated when `record_events` is set).
    pub events: Vec<SimEvent>,
    /// Whether to keep the full event list (for event-level tracing).
    pub record_events: bool,
}

impl RoundHooks for RoundFaults<'_> {
    fn speed_factor(&mut self, _leg: usize) -> f64 {
        self.speed
    }

    fn upload_succeeds(&mut self, _s: usize, _u: usize, _st: usize, _attempt: u32) -> bool {
        let p = self.plan.cfg.loss_rate;
        p <= 0.0 || !self.rng.gen_bool(p)
    }

    fn max_retries(&mut self) -> u32 {
        self.plan.cfg.max_retries
    }

    fn retry_backoff_secs(&mut self, attempt: u32) -> f64 {
        let exp = (attempt.saturating_sub(1)).min(6);
        self.plan.cfg.backoff_secs * f64::from(1u32 << exp)
    }

    fn observe(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::UploadDelivered { attempts, .. } => {
                self.counters.delivered += 1;
                self.counters.retries += u64::from(attempts.saturating_sub(1));
            }
            SimEvent::UploadAttemptFailed { .. } => self.counters.attempt_failures += 1,
            SimEvent::UploadDropped { attempts, .. } => {
                self.counters.drops += 1;
                self.counters.retries += u64::from(attempts.saturating_sub(1));
            }
            SimEvent::PacketLostInRelay { .. } => self.counters.relay_losses += 1,
            SimEvent::CollectorArrived { .. } | SimEvent::CollectorReturned { .. } => {}
        }
        if self.record_events {
            self.events.push(*event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic() {
        let cfg = FaultConfig {
            seed: 7,
            death_rate: 0.3,
            death_horizon_secs: 1000.0,
            ..FaultConfig::default()
        };
        let a = cfg.plan(50);
        let b = cfg.plan(50);
        assert_eq!(a.death_time, b.death_time);
        assert_eq!(a.death_time.iter().filter(|d| d.is_some()).count(), 15);
        for d in a.death_time.iter().flatten() {
            assert!((0.0..1000.0).contains(d));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let base = FaultConfig {
            death_rate: 0.5,
            death_horizon_secs: 100.0,
            ..FaultConfig::default()
        };
        let a = FaultConfig { seed: 1, ..base }.plan(40);
        let b = FaultConfig { seed: 2, ..base }.plan(40);
        assert_ne!(a.death_time, b.death_time);
    }

    #[test]
    fn due_deaths_respects_time() {
        let mut plan = FaultConfig::default().plan(4);
        plan.death_time = vec![Some(10.0), None, Some(20.0), None];
        let at_15: Vec<usize> = plan.due_deaths(15.0).collect();
        assert_eq!(at_15, vec![0]);
        let at_25: Vec<usize> = plan.due_deaths(25.0).collect();
        assert_eq!(at_25, vec![0, 2]);
    }

    #[test]
    fn slowdown_window() {
        let cfg = FaultConfig {
            slowdown: Some(Slowdown {
                start_secs: 100.0,
                duration_secs: 50.0,
                factor: 0.25,
            }),
            ..FaultConfig::default()
        };
        let plan = cfg.plan(1);
        assert_eq!(plan.speed_factor_at(99.0), 1.0);
        assert_eq!(plan.speed_factor_at(100.0), 0.25);
        assert_eq!(plan.speed_factor_at(149.9), 0.25);
        assert_eq!(plan.speed_factor_at(150.0), 1.0);
    }

    #[test]
    fn round_hooks_reseed_per_round() {
        let cfg = FaultConfig {
            seed: 3,
            loss_rate: 0.5,
            ..FaultConfig::default()
        };
        let plan = cfg.plan(10);
        let draw = |round: u64, k: usize| {
            let mut h = plan.round_hooks(round, 0.0);
            (0..k)
                .map(|_| h.upload_succeeds(0, 0, 0, 1))
                .collect::<Vec<bool>>()
        };
        // Same round replays the same draws regardless of history.
        assert_eq!(draw(5, 20), draw(5, 20));
        // Different rounds draw independently.
        assert_ne!(draw(5, 20), draw(6, 20));
    }

    #[test]
    fn exponential_backoff_is_capped() {
        let cfg = FaultConfig {
            backoff_secs: 1.0,
            ..FaultConfig::default()
        };
        let plan = cfg.plan(1);
        let mut h = plan.round_hooks(0, 0.0);
        assert_eq!(h.retry_backoff_secs(1), 1.0);
        assert_eq!(h.retry_backoff_secs(2), 2.0);
        assert_eq!(h.retry_backoff_secs(4), 8.0);
        assert_eq!(h.retry_backoff_secs(100), 64.0, "capped at 64× base");
    }

    #[test]
    #[should_panic(expected = "death rate")]
    fn invalid_rate_rejected() {
        FaultConfig {
            death_rate: 1.5,
            ..FaultConfig::default()
        }
        .plan(10);
    }

    #[test]
    fn zero_loss_never_fails() {
        let plan = FaultConfig::default().plan(5);
        let mut h = plan.round_hooks(1, 0.0);
        assert!((0..100).all(|_| h.upload_succeeds(0, 0, 0, 1)));
    }
}
