//! Discrete-event simulation of mobile data-gathering rounds.
//!
//! One round: the collector departs the sink at `t = 0`, drives the closed
//! tour, pauses at each stop until every packet scheduled there has been
//! uploaded, and returns to the sink. Concurrently, packets whose upload
//! node differs from their source travel their relay paths hop by hop
//! (local aggregation). The collector waits at a stop for packets still in
//! flight — with realistic parameters relays (milliseconds per hop) always
//! beat the collector (~1 m/s), but the simulator does not assume it.

use crate::hooks::{NoFaults, RoundHooks, SimEvent};
use crate::queue::EventQueue;
use crate::report::RoundReport;
use crate::{RoundScheme, SimConfig};
use mdg_energy::EnergyLedger;
use mdg_geom::Point;

/// A packet's journey to its upload point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upload {
    /// Originating sensor.
    pub source: usize,
    /// Relay chain from the source to the uploading node, inclusive of
    /// both (singleton = the source uploads its own packet). Sensors in
    /// this list transmit (and all but the source also receive) the
    /// packet.
    pub relay_path: Vec<usize>,
}

impl Upload {
    /// Single-hop upload: the source itself uploads (the SHDG case).
    pub fn direct(source: usize) -> Self {
        Upload {
            source,
            relay_path: vec![source],
        }
    }

    /// The node that transmits to the collector.
    pub fn uploader(&self) -> usize {
        *self
            .relay_path
            .last()
            .expect("relay path includes the source")
    }
}

/// One collector stop: a pause position and the packets uploaded there.
#[derive(Debug, Clone, PartialEq)]
pub struct Stop {
    /// Pause position.
    pub pos: Point,
    /// Packets uploaded at this stop.
    pub uploads: Vec<Upload>,
}

/// A full mobile-collection scenario: sensor positions, the sink, and the
/// tour with its upload schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MobileScenario {
    /// Sensor positions (node ids index this).
    pub sensors: Vec<Point>,
    /// The sink (tour start/end).
    pub sink: Point,
    /// Stops in visiting order (excluding the sink itself).
    pub stops: Vec<Stop>,
}

impl MobileScenario {
    /// Validates structural invariants: every relay path non-empty, hops
    /// reference valid sensors, each sensor uploads at most once.
    pub fn validate(&self) -> Result<(), String> {
        let mut uploads_seen = vec![false; self.sensors.len()];
        for (si, stop) in self.stops.iter().enumerate() {
            for u in &stop.uploads {
                if u.relay_path.is_empty() {
                    return Err(format!("stop {si}: empty relay path"));
                }
                if u.relay_path[0] != u.source {
                    return Err(format!("stop {si}: relay path must start at the source"));
                }
                for &h in &u.relay_path {
                    if h >= self.sensors.len() {
                        return Err(format!("stop {si}: relay hop {h} out of range"));
                    }
                }
                if uploads_seen[u.source] {
                    return Err(format!("sensor {} uploads twice", u.source));
                }
                uploads_seen[u.source] = true;
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The collector arrives at stop `stop`.
    CollectorArrive { stop: usize },
    /// Packet `upload` (global index) completes relay hop `hop`
    /// (0-based; hop `h` lands on `relay_path[h + 1]`).
    RelayHopDone { upload: usize, hop: usize },
    /// The collector finishes receiving packet `upload` at stop `stop`.
    UploadDone { stop: usize, upload: usize },
    /// The collector is back at the sink.
    CollectorReturn,
}

/// Simulator for mobile gathering rounds. Construct once per scenario;
/// [`MobileGatheringSim::run_round`] may be called repeatedly (for
/// lifetime studies) with the current alive mask.
#[derive(Debug, Clone)]
pub struct MobileGatheringSim {
    scenario: MobileScenario,
    config: SimConfig,
}

impl MobileGatheringSim {
    /// Creates the simulator.
    ///
    /// # Panics
    /// Panics if the scenario or config is invalid.
    pub fn new(scenario: MobileScenario, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid sim config: {e}");
        }
        if let Err(e) = scenario.validate() {
            panic!("invalid scenario: {e}");
        }
        MobileGatheringSim { scenario, config }
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &MobileScenario {
        &self.scenario
    }

    /// Runs one collection round with all sensors alive.
    pub fn run(&self) -> RoundReport {
        let alive = vec![true; self.scenario.sensors.len()];
        self.run_round(&alive)
    }

    /// Runs one round. Dead sensors generate no packets; a packet whose
    /// relay path crosses a dead node is lost (counted as undelivered,
    /// energy spent only on hops actually taken).
    pub fn run_round(&self, alive: &[bool]) -> RoundReport {
        self.run_round_with(alive, &mut NoFaults)
    }

    /// Runs one round with fault-injection/observation hooks: uploads may
    /// fail per attempt (bounded retry with backoff, energy spent on every
    /// attempt) and the collector's speed may be degraded per leg. See
    /// [`RoundHooks`]; with [`NoFaults`] this is exactly [`Self::run_round`].
    pub fn run_round_with<H: RoundHooks>(&self, alive: &[bool], hooks: &mut H) -> RoundReport {
        assert_eq!(
            alive.len(),
            self.scenario.sensors.len(),
            "alive mask size mismatch"
        );
        let mut sp = mdg_obs::span("sim_round");
        sp.add_items(self.scenario.stops.len() as u64);
        let cfg = &self.config;
        let scen = &self.scenario;
        let mut ledger = EnergyLedger::new(scen.sensors.len(), cfg.radio);
        let mut queue: EventQueue<Event> = EventQueue::new();

        // Flatten uploads and index them globally.
        struct Flat {
            stop: usize,
            upload: Upload,
            ready: Option<f64>, // None while relaying or lost
            lost: bool,
            attempts: u32,
        }
        let mut flats: Vec<Flat> = Vec::new();
        for (si, stop) in scen.stops.iter().enumerate() {
            for u in &stop.uploads {
                flats.push(Flat {
                    stop: si,
                    upload: u.clone(),
                    ready: None,
                    lost: false,
                    attempts: 0,
                });
            }
        }

        let mut expected = 0usize;
        // Kick off relays at t = 0.
        for (fi, f) in flats.iter_mut().enumerate() {
            if !alive[f.upload.source] {
                f.lost = true;
                continue; // Dead sources generate nothing.
            }
            expected += 1;
            if f.upload.relay_path.len() == 1 {
                f.ready = Some(0.0);
            } else {
                queue.schedule(cfg.hop_secs, Event::RelayHopDone { upload: fi, hop: 0 });
                // First hop's transmission energy is charged when the hop
                // completes (below) so lost-in-flight accounting is exact.
            }
        }

        // Travel time over `dist` meters on `leg`, honoring the hook's
        // per-leg speed degradation.
        macro_rules! leg_secs {
            ($dist:expr, $leg:expr) => {{
                let factor = hooks.speed_factor($leg);
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "speed factor must be positive and finite, got {factor}"
                );
                $dist / (cfg.speed_mps * factor)
            }};
        }

        // Collector arrival time at stop 0.
        if scen.stops.is_empty() {
            queue.schedule(0.0, Event::CollectorReturn);
        } else {
            let first_leg = leg_secs!(scen.sink.dist(scen.stops[0].pos), 0);
            queue.schedule(first_leg, Event::CollectorArrive { stop: 0 });
        }

        // Per-stop bookkeeping: pending upload indices and arrival state.
        let n_stops = scen.stops.len();
        let mut stop_uploads: Vec<Vec<usize>> = vec![Vec::new(); n_stops];
        for (fi, f) in flats.iter().enumerate() {
            stop_uploads[f.stop].push(fi);
        }
        let mut collector_at: Option<usize> = None;
        let mut uploading: Option<usize> = None;
        let mut delivered = 0usize;
        let mut return_time = 0.0;

        // Helper performed inline below: start the next ready upload at
        // the current stop, or depart if none remain.
        macro_rules! advance_stop {
            ($queue:expr, $stop:expr) => {{
                let stop: usize = $stop;
                // Find a ready, not-yet-delivered packet at this stop.
                let next = stop_uploads[stop]
                    .iter()
                    .copied()
                    .find(|&fi| flats[fi].ready.is_some() && !flats[fi].lost);
                match next {
                    Some(fi) => {
                        uploading = Some(fi);
                        $queue.schedule_in(cfg.upload_secs, Event::UploadDone { stop, upload: fi });
                    }
                    None => {
                        // All remaining packets here are either in flight
                        // (wait for their RelayHopDone) or lost. Depart only
                        // when none are in flight.
                        let in_flight = stop_uploads[stop].iter().any(|&fi| {
                            !flats[fi].lost
                                && flats[fi].ready.is_none()
                                && alive[flats[fi].upload.source]
                        });
                        if !in_flight {
                            collector_at = None;
                            uploading = None;
                            let from = scen.stops[stop].pos;
                            if stop + 1 < n_stops {
                                let leg = leg_secs!(from.dist(scen.stops[stop + 1].pos), stop + 1);
                                $queue.schedule_in(leg, Event::CollectorArrive { stop: stop + 1 });
                            } else {
                                let leg = leg_secs!(from.dist(scen.sink), n_stops);
                                $queue.schedule_in(leg, Event::CollectorReturn);
                            }
                        }
                    }
                }
            }};
        }

        while let Some((t, ev)) = queue.pop() {
            match ev {
                Event::RelayHopDone { upload: fi, hop } => {
                    let path_len;
                    let (tx_node, rx_node, lost_mid);
                    {
                        let f = &flats[fi];
                        if f.lost {
                            continue;
                        }
                        path_len = f.upload.relay_path.len();
                        tx_node = f.upload.relay_path[hop];
                        rx_node = f.upload.relay_path[hop + 1];
                        lost_mid = !alive[rx_node] || !alive[tx_node];
                    }
                    if lost_mid {
                        flats[fi].lost = true;
                        hooks.observe(&SimEvent::PacketLostInRelay {
                            source: flats[fi].upload.source,
                            t,
                        });
                        // The collector may be waiting at this packet's
                        // stop with nothing else pending.
                        if collector_at == Some(flats[fi].stop) && uploading.is_none() {
                            advance_stop!(queue, flats[fi].stop);
                        }
                        continue;
                    }
                    let d = scen.sensors[tx_node].dist(scen.sensors[rx_node]);
                    ledger.record_tx(tx_node, d);
                    ledger.record_rx(rx_node);
                    if hop + 2 == path_len {
                        flats[fi].ready = Some(t);
                        // Wake the collector if it is idling at this stop.
                        if collector_at == Some(flats[fi].stop) && uploading.is_none() {
                            advance_stop!(queue, flats[fi].stop);
                        }
                    } else {
                        queue.schedule_in(
                            cfg.hop_secs,
                            Event::RelayHopDone {
                                upload: fi,
                                hop: hop + 1,
                            },
                        );
                    }
                }
                Event::CollectorArrive { stop } => {
                    collector_at = Some(stop);
                    uploading = None;
                    hooks.observe(&SimEvent::CollectorArrived { stop, t });
                    advance_stop!(queue, stop);
                }
                Event::UploadDone { stop, upload: fi } => {
                    debug_assert_eq!(collector_at, Some(stop));
                    let uploader = flats[fi].upload.uploader();
                    let source = flats[fi].upload.source;
                    if !alive[uploader] {
                        flats[fi].lost = true;
                        stop_uploads[stop].retain(|&x| x != fi);
                        uploading = None;
                        advance_stop!(queue, stop);
                        continue;
                    }
                    // The uploader spent transmission energy whether or not
                    // the collector decoded the packet.
                    let d = scen.sensors[uploader].dist(scen.stops[stop].pos);
                    ledger.record_tx(uploader, d);
                    flats[fi].attempts += 1;
                    let attempts = flats[fi].attempts;
                    if hooks.upload_succeeds(source, uploader, stop, attempts) {
                        delivered += 1;
                        hooks.observe(&SimEvent::UploadDelivered {
                            source,
                            stop,
                            t,
                            attempts,
                        });
                    } else {
                        hooks.observe(&SimEvent::UploadAttemptFailed {
                            source,
                            stop,
                            t,
                            attempt: attempts,
                        });
                        if attempts <= hooks.max_retries() {
                            // Back off, then retransmit; the collector
                            // keeps waiting on this packet.
                            let backoff = hooks.retry_backoff_secs(attempts);
                            assert!(backoff >= 0.0, "backoff must be non-negative");
                            queue.schedule_in(
                                backoff + cfg.upload_secs,
                                Event::UploadDone { stop, upload: fi },
                            );
                            continue;
                        }
                        flats[fi].lost = true;
                        hooks.observe(&SimEvent::UploadDropped {
                            source,
                            stop,
                            t,
                            attempts,
                        });
                    }
                    // Mark consumed (delivered or dropped).
                    stop_uploads[stop].retain(|&x| x != fi);
                    uploading = None;
                    advance_stop!(queue, stop);
                }
                Event::CollectorReturn => {
                    return_time = t;
                    hooks.observe(&SimEvent::CollectorReturned { t });
                }
            }
        }

        RoundReport {
            duration_secs: return_time,
            packets_delivered: delivered,
            packets_expected: expected,
            ledger,
        }
    }
}

impl RoundScheme for MobileGatheringSim {
    fn n_nodes(&self) -> usize {
        self.scenario.sensors.len()
    }

    fn round(&mut self, alive: &[bool]) -> RoundReport {
        self.run_round(alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::closed_tour_length;

    /// Sink at origin; two stops; three sensors. Sensor 2 relays through
    /// sensor 1 to stop 1.
    fn scenario() -> MobileScenario {
        MobileScenario {
            sensors: vec![
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(28.0, 0.0),
            ],
            sink: Point::ORIGIN,
            stops: vec![
                Stop {
                    pos: Point::new(10.0, 0.0),
                    uploads: vec![Upload::direct(0)],
                },
                Stop {
                    pos: Point::new(20.0, 0.0),
                    uploads: vec![
                        Upload::direct(1),
                        Upload {
                            source: 2,
                            relay_path: vec![2, 1],
                        },
                    ],
                },
            ],
        }
    }

    fn config() -> SimConfig {
        SimConfig {
            speed_mps: 1.0,
            upload_secs: 0.5,
            hop_secs: 0.005,
            ..SimConfig::default()
        }
    }

    #[test]
    fn full_round_timing() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let r = sim.run();
        assert_eq!(r.packets_expected, 3);
        assert_eq!(r.packets_delivered, 3);
        assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
        // Travel: 0→10→20→0 = 40 s at 1 m/s; pauses: 3 uploads × 0.5 s.
        let tour =
            closed_tour_length(&[Point::ORIGIN, Point::new(10.0, 0.0), Point::new(20.0, 0.0)]);
        assert!(
            (r.duration_secs - (tour + 1.5)).abs() < 1e-9,
            "got {}",
            r.duration_secs
        );
    }

    #[test]
    fn energy_accounting_matches_model() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let r = sim.run();
        let m = config().radio;
        // Sensor 0: one tx at distance 0 (collector at its position).
        assert!((r.ledger.joules_of(0) - m.tx_cost(0.0)).abs() < 1e-15);
        // Sensor 2: one relay tx over 8 m.
        assert!((r.ledger.joules_of(2) - m.tx_cost(8.0)).abs() < 1e-15);
        // Sensor 1: rx of sensor 2's packet + two uploads at distance 0
        // (its own + the relayed one).
        let expect1 = m.rx_cost() + 2.0 * m.tx_cost(0.0);
        assert!((r.ledger.joules_of(1) - expect1).abs() < 1e-15);
        assert_eq!(r.total_transmissions(), 4, "3 uploads + 1 relay hop");
    }

    #[test]
    fn pure_single_hop_has_one_tx_per_sensor() {
        // The SHDG invariant: every sensor transmits exactly once.
        let mut scen = scenario();
        scen.stops[1].uploads[1] = Upload::direct(2); // no more relay
        let sim = MobileGatheringSim::new(scen, config());
        let r = sim.run();
        for node in 0..3 {
            assert_eq!(r.ledger.tx_of(node), 1, "node {node}");
            assert_eq!(r.ledger.rx_of(node), 0, "node {node}");
        }
    }

    #[test]
    fn dead_source_loses_its_packet_only() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let r = sim.run_round(&[true, true, false]);
        assert_eq!(r.packets_expected, 2);
        assert_eq!(r.packets_delivered, 2);
        assert_eq!(r.ledger.tx_of(2), 0);
        assert_eq!(r.ledger.rx_of(1), 0, "no relay happened");
    }

    #[test]
    fn dead_relay_loses_the_packet_but_round_completes() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let r = sim.run_round(&[true, false, true]);
        // Sensor 1 is dead: its own packet is not generated, and sensor
        // 2's relayed packet is lost mid-path.
        assert_eq!(
            r.packets_expected, 2,
            "sensors 0 and 2 are alive and generate packets"
        );
        assert_eq!(
            r.packets_delivered, 1,
            "sensor 0 delivers; sensor 2's packet dies in relay"
        );
        assert!(r.duration_secs > 0.0);
    }

    #[test]
    fn empty_scenario() {
        let sim = MobileGatheringSim::new(
            MobileScenario {
                sensors: vec![],
                sink: Point::ORIGIN,
                stops: vec![],
            },
            config(),
        );
        let r = sim.run();
        assert_eq!(r.packets_expected, 0);
        assert_eq!(r.duration_secs, 0.0);
        assert_eq!(r.delivery_ratio(), 1.0);
    }

    #[test]
    fn slow_relay_makes_collector_wait() {
        // Relay takes 100 s per hop; collector arrives at stop 1 after
        // 20 s and must wait for the relayed packet.
        let cfg = SimConfig {
            hop_secs: 100.0,
            ..config()
        };
        let sim = MobileGatheringSim::new(scenario(), cfg);
        let r = sim.run();
        assert_eq!(r.packets_delivered, 3);
        // Upload of relayed packet cannot start before t = 100.
        assert!(r.duration_secs > 100.0, "got {}", r.duration_secs);
    }

    #[test]
    #[should_panic(expected = "uploads twice")]
    fn duplicate_upload_rejected() {
        let mut scen = scenario();
        scen.stops[0].uploads.push(Upload::direct(0));
        MobileGatheringSim::new(scen, config());
    }

    #[test]
    fn determinism() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let a = sim.run();
        let b = sim.run();
        assert_eq!(a.duration_secs, b.duration_secs);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.ledger.total_joules(), b.ledger.total_joules());
    }

    /// Hooks that fail the first `fail_first` attempts of every upload,
    /// allow `retries` retries with a fixed backoff, and log events.
    struct TestFaults {
        fail_first: u32,
        retries: u32,
        backoff: f64,
        speed: f64,
        events: Vec<SimEvent>,
    }

    impl RoundHooks for TestFaults {
        fn speed_factor(&mut self, _leg: usize) -> f64 {
            self.speed
        }
        fn upload_succeeds(&mut self, _s: usize, _u: usize, _st: usize, attempt: u32) -> bool {
            attempt > self.fail_first
        }
        fn max_retries(&mut self) -> u32 {
            self.retries
        }
        fn retry_backoff_secs(&mut self, _attempt: u32) -> f64 {
            self.backoff
        }
        fn observe(&mut self, event: &SimEvent) {
            self.events.push(*event);
        }
    }

    #[test]
    fn no_faults_hooks_match_plain_round() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let plain = sim.run();
        let hooked = sim.run_round_with(&[true; 3], &mut NoFaults);
        assert_eq!(plain.duration_secs, hooked.duration_secs);
        assert_eq!(plain.packets_delivered, hooked.packets_delivered);
        assert_eq!(plain.ledger.total_joules(), hooked.ledger.total_joules());
    }

    #[test]
    fn retry_recovers_lost_upload_and_charges_energy() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let mut h = TestFaults {
            fail_first: 1,
            retries: 2,
            backoff: 1.0,
            speed: 1.0,
            events: Vec::new(),
        };
        let r = sim.run_round_with(&[true; 3], &mut h);
        assert_eq!(r.packets_delivered, 3, "every packet recovered on retry");
        // Each packet: 1 failed + 1 successful attempt = 2 transmissions.
        assert_eq!(r.total_transmissions(), 7, "6 uploads + 1 relay hop");
        // Round stretches by 3 × (backoff + retransmission).
        let baseline = sim.run();
        let stretch = 3.0 * (1.0 + config().upload_secs);
        assert!(
            (r.duration_secs - baseline.duration_secs - stretch).abs() < 1e-9,
            "got {} vs {}",
            r.duration_secs,
            baseline.duration_secs
        );
        let failed = h
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::UploadAttemptFailed { .. }))
            .count();
        assert_eq!(failed, 3);
    }

    #[test]
    fn exhausted_retries_drop_the_packet() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let mut h = TestFaults {
            fail_first: u32::MAX,
            retries: 2,
            backoff: 0.0,
            speed: 1.0,
            events: Vec::new(),
        };
        let r = sim.run_round_with(&[true; 3], &mut h);
        assert_eq!(r.packets_delivered, 0);
        assert_eq!(r.packets_expected, 3);
        let dropped = h
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::UploadDropped { attempts: 3, .. }))
            .count();
        assert_eq!(dropped, 3, "each packet dropped after 1 + 2 attempts");
        // The round still terminates and the collector returns.
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::CollectorReturned { .. })));
    }

    #[test]
    fn degraded_speed_stretches_travel_only() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let baseline = sim.run();
        let mut h = TestFaults {
            fail_first: 0,
            retries: 0,
            backoff: 0.0,
            speed: 0.5,
            events: Vec::new(),
        };
        let r = sim.run_round_with(&[true; 3], &mut h);
        assert_eq!(r.packets_delivered, 3);
        // Travel doubles (40 s → 80 s); the 1.5 s of uploads does not.
        let travel = baseline.duration_secs - 1.5;
        assert!(
            (r.duration_secs - (2.0 * travel + 1.5)).abs() < 1e-9,
            "got {}",
            r.duration_secs
        );
    }

    #[test]
    fn events_observed_in_time_order() {
        let sim = MobileGatheringSim::new(scenario(), config());
        let mut h = TestFaults {
            fail_first: 1,
            retries: 1,
            backoff: 0.25,
            speed: 1.0,
            events: Vec::new(),
        };
        sim.run_round_with(&[true; 3], &mut h);
        let times: Vec<f64> = h
            .events
            .iter()
            .map(|e| match e {
                SimEvent::CollectorArrived { t, .. }
                | SimEvent::UploadDelivered { t, .. }
                | SimEvent::UploadAttemptFailed { t, .. }
                | SimEvent::UploadDropped { t, .. }
                | SimEvent::PacketLostInRelay { t, .. }
                | SimEvent::CollectorReturned { t } => *t,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert!(matches!(
            h.events.last(),
            Some(SimEvent::CollectorReturned { .. })
        ));
    }
}
