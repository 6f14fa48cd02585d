//! # mdg-sim — discrete-event simulation of data-gathering schemes
//!
//! The paper's evaluation is simulation-only; this crate is the substrate
//! that stands in for the authors' simulator. It provides:
//!
//! * [`queue::EventQueue`] — a time-ordered, FIFO-stable event queue (the
//!   DES core).
//! * [`mobile::MobileGatheringSim`] — simulates one collection round of any
//!   *mobile* scheme: a collector drives a closed tour from the sink,
//!   pauses at stops, and receives packet uploads; packets may first travel
//!   multi-hop relay paths to their uploading node (SHDG uses empty relay
//!   paths — pure single-hop; the CME baseline uses multi-hop relays to
//!   track-adjacent nodes; visit-all uses one stop per sensor).
//! * [`multihop::MultihopRoutingSim`] — simulates rounds of classic
//!   multi-hop relay routing to the static sink over min-hop trees,
//!   rebuilt as nodes die.
//! * [`lifetime`] — drives any [`RoundScheme`] against per-node batteries
//!   until death milestones, producing the network-lifetime figures.
//!
//! Energy accounting uses the first-order radio model from `mdg-energy`;
//! latency uses a configurable per-hop relay delay and collector speed
//! (defaults: 1 m/s collector, 5 ms/hop relay — packet relay is orders of
//! magnitude faster than the collector, the paper's premise).

pub mod bridge;
#[cfg(test)]
mod fleet_sim;
pub mod hooks;
pub mod lifetime;
pub mod mobile;
pub mod multihop;
pub mod queue;
pub mod report;

pub use bridge::scenario_from_plan;
pub use hooks::{NoFaults, RoundHooks, SimEvent};
pub use lifetime::{simulate_lifetime, LifetimeReport, RoundScheme};
pub use mobile::{MobileGatheringSim, MobileScenario, Stop, Upload};
pub use multihop::MultihopRoutingSim;
pub use queue::EventQueue;
pub use report::RoundReport;

use mdg_energy::RadioModel;
use serde::{Deserialize, Serialize};

/// Common timing/energy parameters of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Mobile collector speed in m/s (practical systems: 0.1–2 m/s).
    pub speed_mps: f64,
    /// Pause per packet upload at a stop, seconds.
    pub upload_secs: f64,
    /// Per relay hop forwarding delay, seconds.
    pub hop_secs: f64,
    /// Radio energy model.
    pub radio: RadioModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            speed_mps: 1.0,
            upload_secs: 0.5,
            hop_secs: 0.005,
            radio: RadioModel::default(),
        }
    }
}

impl SimConfig {
    /// Checks parameter sanity: a finite positive speed, finite
    /// non-negative delays and the radio model's own rules.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.speed_mps.is_finite() && self.speed_mps > 0.0) {
            return Err(format!(
                "collector speed must be positive, got {:?}",
                self.speed_mps
            ));
        }
        if !(self.upload_secs.is_finite() && self.upload_secs >= 0.0) {
            return Err(format!(
                "upload time must be non-negative, got {:?}",
                self.upload_secs
            ));
        }
        if !(self.hop_secs.is_finite() && self.hop_secs >= 0.0) {
            return Err(format!(
                "hop delay must be non-negative, got {:?}",
                self.hop_secs
            ));
        }
        self.radio.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_speed_rejected() {
        let err = SimConfig {
            speed_mps: 0.0,
            ..SimConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("speed"), "{err}");
    }

    #[test]
    fn radio_rules_apply() {
        let err = SimConfig {
            radio: RadioModel {
                packet_bits: 0.0,
                ..RadioModel::default()
            },
            ..SimConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("packet_bits"), "{err}");
    }
}
