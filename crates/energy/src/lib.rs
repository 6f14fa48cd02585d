//! # mdg-energy — radio energy model, batteries and energy ledgers
//!
//! Implements the **first-order radio model** standard in the WSN
//! literature (Heinzelman et al.), used by every energy experiment in the
//! reproduction:
//!
//! * transmitting `b` bits over distance `d` costs
//!   `E_tx(b, d) = E_elec · b + ε_amp · b · d^α`,
//! * receiving `b` bits costs `E_rx(b) = E_elec · b`.
//!
//! A relayed packet therefore costs every intermediate hop one reception
//! *and* one transmission — the overhead the mobile collector eliminates by
//! picking packets up in a single hop.
//!
//! [`ledger::EnergyLedger`] accumulates per-node expenditure during a
//! simulation; [`stats`] summarizes distributions (mean, standard
//! deviation, Jain's fairness index) for the uniformity experiments.

pub mod battery;
pub mod ledger;
pub mod radio;
pub mod stats;

pub use battery::Battery;
pub use ledger::EnergyLedger;
pub use radio::RadioModel;
pub use stats::{jain_index, Summary};
