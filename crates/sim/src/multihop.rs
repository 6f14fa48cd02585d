//! Simulation of classic multi-hop relay routing to a static sink.
//!
//! Every alive sensor generates one packet per round and forwards it along
//! the minimum-hop tree toward the sink (the paper's baseline: what the
//! network does *without* a mobile collector). Dead nodes force tree
//! rebuilds; sensors disconnected from the sink (by death or by the
//! topology itself) cannot deliver at all — the structural weakness mobile
//! collection removes.

use crate::report::RoundReport;
use crate::{RoundScheme, SimConfig};
use mdg_energy::EnergyLedger;
use mdg_geom::Point;
use mdg_net::{bfs_tree, Csr, Network, UNREACHABLE};

/// Multi-hop routing round simulator over a fixed deployment.
#[derive(Debug, Clone)]
pub struct MultihopRoutingSim {
    positions: Vec<Point>, // sensors then sink
    n_sensors: usize,
    full_graph: Csr,
    config: SimConfig,
}

impl MultihopRoutingSim {
    /// Builds the simulator from a network (uses the graph that includes
    /// the sink).
    ///
    /// # Panics
    /// Panics if [`SimConfig::validate`] rejects `config`.
    pub fn new(net: &Network, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid sim config: {e}");
        }
        let mut positions = net.deployment.sensors.clone();
        positions.push(net.deployment.sink);
        MultihopRoutingSim {
            positions,
            n_sensors: net.n_sensors(),
            full_graph: net.full_graph.clone(),
            config,
        }
    }

    /// Node id of the sink.
    fn sink(&self) -> usize {
        self.n_sensors
    }

    /// Runs one routing round with all sensors alive.
    pub fn run(&self) -> RoundReport {
        self.run_round(&vec![true; self.n_sensors])
    }

    /// Runs one round over the subgraph induced by alive sensors (the sink
    /// never dies). Each alive sensor routes one packet along its current
    /// min-hop path; unreachable sensors deliver nothing and spend
    /// nothing.
    pub fn run_round(&self, alive: &[bool]) -> RoundReport {
        assert_eq!(alive.len(), self.n_sensors, "alive mask size mismatch");
        // Induced subgraph over alive sensors + sink.
        let keep: Vec<usize> = (0..self.n_sensors)
            .filter(|&v| alive[v])
            .chain(std::iter::once(self.sink()))
            .collect();
        let (sub, map) = self.full_graph.induced_subgraph(&keep);
        let sink_new = keep.len() - 1;
        let tree = bfs_tree(&sub, sink_new);

        let mut ledger = EnergyLedger::new(self.n_sensors, self.config.radio);
        let mut delivered = 0usize;
        let mut expected = 0usize;
        let mut max_hops = 0u32;
        for new_id in 0..sink_new {
            expected += 1;
            if tree.hops[new_id] == UNREACHABLE {
                continue; // Disconnected: the packet can never leave.
            }
            let path = tree.path_to_source(new_id).expect("reachable");
            max_hops = max_hops.max(tree.hops[new_id]);
            // path = [sensor, …, sink] in new ids; walk the hops.
            for w in path.windows(2) {
                let from = map[w[0] as usize];
                let to = map[w[1] as usize];
                let d = self.positions[from].dist(self.positions[to]);
                ledger.record_tx(from, d);
                if to != self.sink() {
                    ledger.record_rx(to);
                }
            }
            delivered += 1;
        }
        RoundReport {
            // All packets flow concurrently; the round lasts as long as
            // the deepest relay chain.
            duration_secs: max_hops as f64 * self.config.hop_secs,
            packets_delivered: delivered,
            packets_expected: expected,
            ledger,
        }
    }

    /// Mean hop count to the sink over reachable sensors (all alive) — the
    /// paper's "average relay hops" metric for static routing.
    pub fn mean_hops(&self) -> f64 {
        let tree = bfs_tree(&self.full_graph, self.sink());
        tree.mean_hops()
    }
}

impl RoundScheme for MultihopRoutingSim {
    fn n_nodes(&self) -> usize {
        self.n_sensors
    }

    fn round(&mut self, alive: &[bool]) -> RoundReport {
        self.run_round(alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::{Deployment, DeploymentConfig};

    /// Chain: sink at 0, sensors at 10, 20, 30 (R = 12).
    fn chain() -> Network {
        let dep = Deployment {
            sensors: vec![
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(30.0, 0.0),
            ],
            sink: Point::ORIGIN,
            field: mdg_geom::Aabb::square(40.0),
        };
        Network::build(dep, 12.0)
    }

    #[test]
    fn chain_routing_counts() {
        let sim = MultihopRoutingSim::new(&chain(), SimConfig::default());
        let r = sim.run();
        assert_eq!(r.packets_expected, 3);
        assert_eq!(r.packets_delivered, 3);
        // Transmissions: sensor 0 forwards 3 packets (its own + 2 relayed),
        // sensor 1 forwards 2, sensor 2 forwards 1 → 6 tx.
        assert_eq!(r.ledger.tx_of(0), 3);
        assert_eq!(r.ledger.tx_of(1), 2);
        assert_eq!(r.ledger.tx_of(2), 1);
        // Receptions: sensor 0 receives 2, sensor 1 receives 1.
        assert_eq!(r.ledger.rx_of(0), 2);
        assert_eq!(r.ledger.rx_of(1), 1);
        assert_eq!(r.ledger.rx_of(2), 0);
        // Duration: deepest chain is 3 hops.
        assert!((r.duration_secs - 3.0 * SimConfig::default().hop_secs).abs() < 1e-12);
        assert!((sim.mean_hops() - 2.0).abs() < 1e-12, "(1+2+3)/3");
    }

    #[test]
    fn energy_hotspot_near_sink() {
        // The funneling effect: the sensor adjacent to the sink spends the
        // most energy — the non-uniformity mobile collection eliminates.
        let sim = MultihopRoutingSim::new(&chain(), SimConfig::default());
        let r = sim.run();
        assert!(r.ledger.joules_of(0) > r.ledger.joules_of(1));
        assert!(r.ledger.joules_of(1) > r.ledger.joules_of(2));
        assert!(r.ledger.fairness() < 1.0);
    }

    #[test]
    fn dead_relay_disconnects_downstream() {
        let sim = MultihopRoutingSim::new(&chain(), SimConfig::default());
        // Kill the middle sensor: sensor 2 (at 30 m) loses its route.
        let r = sim.run_round(&[true, false, true]);
        assert_eq!(r.packets_expected, 2);
        assert_eq!(r.packets_delivered, 1, "only sensor 0 can still deliver");
        assert_eq!(r.ledger.tx_of(2), 0, "unreachable sensors spend nothing");
    }

    #[test]
    fn disconnected_topology_never_delivers_fully() {
        let dep = Deployment {
            sensors: vec![Point::new(10.0, 0.0), Point::new(200.0, 0.0)],
            sink: Point::ORIGIN,
            field: mdg_geom::Aabb::square(250.0),
        };
        let net = Network::build(dep, 12.0);
        let sim = MultihopRoutingSim::new(&net, SimConfig::default());
        let r = sim.run();
        assert_eq!(r.packets_delivered, 1);
        assert!(r.delivery_ratio() < 1.0);
    }

    #[test]
    fn random_field_delivers_everything_when_connected() {
        let net = Network::build(DeploymentConfig::uniform(150, 200.0).generate(3), 35.0);
        let sim = MultihopRoutingSim::new(&net, SimConfig::default());
        let r = sim.run();
        if net.is_connected() {
            assert_eq!(r.packets_delivered, r.packets_expected);
        }
        // Conservation: every delivered packet's tx count ≥ rx count + …
        assert!(r.ledger.total_tx() >= r.packets_delivered as u64);
        assert_eq!(
            r.ledger.total_tx() as i64 - r.ledger.total_rx() as i64,
            r.packets_delivered as i64,
            "each packet's final hop lands on the (untracked) sink"
        );
    }

    #[test]
    fn empty_network() {
        let dep = Deployment {
            sensors: vec![],
            sink: Point::ORIGIN,
            field: mdg_geom::Aabb::square(10.0),
        };
        let sim = MultihopRoutingSim::new(&Network::build(dep, 10.0), SimConfig::default());
        let r = sim.run();
        assert_eq!(r.packets_expected, 0);
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.duration_secs, 0.0);
    }
}
