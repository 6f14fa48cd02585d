//! Property-based tests for the energy model.

use mdg_energy::{jain_index, Battery, EnergyLedger, RadioModel, Summary};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = RadioModel> {
    (
        1e-10..1e-7f64,
        1e-13..1e-10f64,
        2.0..4.0f64,
        100.0..10_000.0f64,
    )
        .prop_map(|(e_elec, e_amp, alpha, bits)| RadioModel::new(e_elec, e_amp, alpha, bits))
}

proptest! {
    #[test]
    fn tx_cost_is_monotone_in_distance(model in arb_model(), d1 in 0.0..500.0f64, d2 in 0.0..500.0f64) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(model.tx_cost(lo) <= model.tx_cost(hi) + 1e-18);
        prop_assert!(model.tx_cost(0.0) >= model.rx_cost() - 1e-18, "tx includes the electronics cost");
    }

    #[test]
    fn ledger_totals_equal_sum_of_events(
        model in arb_model(),
        events in proptest::collection::vec((0usize..10, 0.0..100.0f64, any::<bool>()), 0..100),
    ) {
        let mut ledger = EnergyLedger::new(10, model);
        let mut expect = 0.0;
        let mut tx = 0u64;
        let mut rx = 0u64;
        for (node, dist, is_tx) in events {
            if is_tx {
                expect += ledger.record_tx(node, dist);
                tx += 1;
            } else {
                expect += ledger.record_rx(node);
                rx += 1;
            }
        }
        prop_assert!((ledger.total_joules() - expect).abs() < 1e-12 * (1.0 + expect));
        prop_assert_eq!(ledger.total_tx(), tx);
        prop_assert_eq!(ledger.total_rx(), rx);
        // Per-node joules sum to the total.
        let per_node: f64 = (0..10).map(|n| ledger.joules_of(n)).sum();
        prop_assert!((per_node - ledger.total_joules()).abs() < 1e-15 * (1.0 + per_node));
    }

    #[test]
    fn battery_never_goes_negative(capacity in 0.0..10.0f64, drains in proptest::collection::vec(0.0..1.0f64, 0..50)) {
        let mut b = Battery::new(capacity);
        let mut deaths = 0;
        for d in drains {
            if b.drain(d) {
                deaths += 1;
            }
            prop_assert!(b.remaining() >= 0.0);
            prop_assert!(b.remaining() <= capacity);
            prop_assert!((b.remaining() + b.consumed() - capacity).abs() < 1e-9);
        }
        prop_assert!(deaths <= 1, "a battery dies at most once");
    }

    #[test]
    fn jain_index_bounds(xs in proptest::collection::vec(0.0..100.0f64, 1..50)) {
        let j = jain_index(&xs);
        prop_assert!(j <= 1.0 + 1e-12);
        prop_assert!(j >= 1.0 / xs.len() as f64 - 1e-12);
        // Scale invariance.
        let scaled: Vec<f64> = xs.iter().map(|x| x * 7.5).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
    }

    #[test]
    fn summary_is_consistent(xs in proptest::collection::vec(-50.0..50.0f64, 1..60)) {
        let s = Summary::of(&xs);
        prop_assert_eq!(s.n, xs.len());
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        // Std-dev is bounded by the half-range.
        prop_assert!(s.std_dev <= (s.max - s.min) + 1e-9);
    }
}
