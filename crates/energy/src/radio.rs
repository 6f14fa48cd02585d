//! The first-order radio energy model.

use serde::{Deserialize, Serialize};

/// First-order radio model parameters.
///
/// Defaults follow the values ubiquitous in the WSN literature
/// (Heinzelman et al.): `E_elec = 50 nJ/bit`, `ε_amp = 100 pJ/bit/m²`,
/// free-space path loss exponent `α = 2`, 4000-bit packets.
/// ```
/// use mdg_energy::RadioModel;
///
/// let radio = RadioModel::default();
/// // A relayed hop costs the relay both a reception and a transmission —
/// // the overhead single-hop mobile collection eliminates.
/// assert!(radio.rx_cost() + radio.tx_cost(20.0) > radio.tx_cost(20.0));
/// assert!(radio.tx_cost(40.0) > radio.tx_cost(20.0), "amplifier cost grows with d^α");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioModel {
    /// Electronics energy per bit, joules (runs for both TX and RX).
    pub e_elec: f64,
    /// Amplifier energy per bit per m^α, joules.
    pub e_amp: f64,
    /// Path-loss exponent (2 for free space, up to 4 for multi-path).
    pub alpha: f64,
    /// Packet size in bits.
    pub packet_bits: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel {
            e_elec: 50e-9,
            e_amp: 100e-12,
            alpha: 2.0,
            packet_bits: 4000.0,
        }
    }
}

impl RadioModel {
    /// Creates a model, validating parameters.
    ///
    /// # Panics
    /// Panics with [`RadioModel::validate`]'s message if a parameter is
    /// out of range.
    pub fn new(e_elec: f64, e_amp: f64, alpha: f64, packet_bits: f64) -> Self {
        let model = RadioModel {
            e_elec,
            e_amp,
            alpha,
            packet_bits,
        };
        if let Err(e) = model.validate() {
            panic!("{e}");
        }
        model
    }

    /// Checks the parameters: finite non-negative energies, a finite path
    /// loss exponent of at least 1 and a finite positive packet size. A
    /// deserialized model (a trace manifest's, say) has not been checked.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.e_elec >= 0.0 && self.e_elec.is_finite()) {
            return Err(format!(
                "e_elec must be non-negative, got {:?}",
                self.e_elec
            ));
        }
        if !(self.e_amp >= 0.0 && self.e_amp.is_finite()) {
            return Err(format!("e_amp must be non-negative, got {:?}", self.e_amp));
        }
        if !(self.alpha >= 1.0 && self.alpha.is_finite()) {
            return Err(format!("alpha must be >= 1, got {:?}", self.alpha));
        }
        if !(self.packet_bits > 0.0 && self.packet_bits.is_finite()) {
            return Err(format!(
                "packet_bits must be positive, got {:?}",
                self.packet_bits
            ));
        }
        Ok(())
    }

    /// Energy to transmit one packet over distance `d` meters.
    #[inline]
    pub fn tx_cost(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0, "distance must be non-negative");
        self.packet_bits * (self.e_elec + self.e_amp * d.powf(self.alpha))
    }

    /// Energy to receive one packet.
    #[inline]
    pub fn rx_cost(&self) -> f64 {
        self.packet_bits * self.e_elec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_sane() {
        let m = RadioModel::default();
        // 4000 bits at 50 nJ/bit = 0.2 mJ of electronics energy per op.
        assert!((m.rx_cost() - 0.0002).abs() < 1e-12);
        // TX at d = 0 equals the electronics-only cost.
        assert!((m.tx_cost(0.0) - m.rx_cost()).abs() < 1e-15);
    }

    #[test]
    fn tx_grows_quadratically_at_alpha2() {
        let m = RadioModel::default();
        let amp10 = m.tx_cost(10.0) - m.rx_cost();
        let amp20 = m.tx_cost(20.0) - m.rx_cost();
        assert!((amp20 / amp10 - 4.0).abs() < 1e-9, "d² scaling");
    }

    #[test]
    fn alpha4_model() {
        let m = RadioModel::new(50e-9, 100e-12, 4.0, 4000.0);
        let amp10 = m.tx_cost(10.0) - m.rx_cost();
        let amp20 = m.tx_cost(20.0) - m.rx_cost();
        assert!((amp20 / amp10 - 16.0).abs() < 1e-9, "d⁴ scaling");
    }

    #[test]
    fn validate_rejects_each_out_of_range_parameter() {
        assert_eq!(RadioModel::default().validate(), Ok(()));
        for (field, value) in [
            ("e_elec", -1e-9),
            ("e_elec", f64::NAN),
            ("e_amp", -1.0),
            ("e_amp", f64::INFINITY),
            ("alpha", 0.5),
            ("alpha", -2.0),
            ("alpha", f64::INFINITY),
            ("packet_bits", 0.0),
            ("packet_bits", f64::NAN),
        ] {
            let mut bad = RadioModel::default();
            *match field {
                "e_elec" => &mut bad.e_elec,
                "e_amp" => &mut bad.e_amp,
                "alpha" => &mut bad.alpha,
                _ => &mut bad.packet_bits,
            } = value;
            let err = bad.validate().unwrap_err();
            assert!(err.starts_with(field), "{field} = {value}: {err}");
        }
        // The edges of each range are valid.
        assert_eq!(RadioModel::new(0.0, 0.0, 1.0, 1e-300).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "packet_bits must be positive")]
    fn new_panics_through_validate() {
        RadioModel::new(50e-9, 100e-12, 2.0, 0.0);
    }

    #[test]
    fn single_hop_beats_two_relays_of_same_total_length() {
        // Core premise of mobile collection: one short hop beats a relayed
        // path because every relay pays the electronics cost twice.
        let m = RadioModel::default();
        let hop = |d: f64| m.tx_cost(d) + m.rx_cost();
        assert!(hop(15.0) < hop(7.5) + hop(7.5));
    }

    #[test]
    #[should_panic(expected = "packet_bits")]
    fn zero_packet_panics() {
        RadioModel::new(50e-9, 100e-12, 2.0, 0.0);
    }
}
