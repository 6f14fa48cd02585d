//! The data-gathering plan produced by SHDG planning.

use mdg_geom::{closed_tour_length, Point};
use serde::{Deserialize, Serialize};

/// A polling point: a pause location of the mobile collector together with
/// the sensors that upload to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PollingPoint {
    /// Pause position of the collector.
    pub pos: Point,
    /// Index of the originating candidate. For sensor-site candidates this
    /// is the sensor id the collector pauses at; for grid candidates it is
    /// the retained grid-candidate index.
    pub candidate: usize,
    /// Sensor ids assigned to upload at this polling point.
    pub covered: Vec<u32>,
}

/// A complete single-collector data-gathering plan.
///
/// Polling points are stored **in tour order**: the collector drives
/// `sink → polling_points[0] → polling_points[1] → … → sink`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatheringPlan {
    /// The static data sink (tour start and end).
    pub sink: Point,
    /// Polling points in visiting order.
    pub polling_points: Vec<PollingPoint>,
    /// `assignment[sensor] = index into polling_points` of the polling
    /// point the sensor uploads to.
    pub assignment: Vec<usize>,
    /// Closed tour length in meters.
    pub tour_length: f64,
}

impl GatheringPlan {
    /// Builds a plan from tour-ordered polling points, recomputing the tour
    /// length.
    pub fn new(sink: Point, polling_points: Vec<PollingPoint>, assignment: Vec<usize>) -> Self {
        let mut plan = GatheringPlan {
            sink,
            polling_points,
            assignment,
            tour_length: 0.0,
        };
        plan.tour_length = closed_tour_length(&plan.tour_positions());
        plan
    }

    /// Number of polling points.
    pub fn n_polling_points(&self) -> usize {
        self.polling_points.len()
    }

    /// Number of sensors served.
    pub fn n_sensors(&self) -> usize {
        self.assignment.len()
    }

    /// Tour vertices: the sink followed by the polling points in order.
    /// The tour closes back to the sink.
    pub fn tour_positions(&self) -> Vec<Point> {
        let mut pts = Vec::with_capacity(self.polling_points.len() + 1);
        pts.push(self.sink);
        pts.extend(self.polling_points.iter().map(|pp| pp.pos));
        pts
    }

    /// Distance each sensor transmits over when uploading (sensor → its
    /// polling point).
    pub fn upload_distances(&self, sensors: &[Point]) -> Vec<f64> {
        self.assignment
            .iter()
            .enumerate()
            .map(|(s, &pp)| sensors[s].dist(self.polling_points[pp].pos))
            .collect()
    }

    /// Largest number of sensors uploading at a single polling point — the
    /// collector's per-stop buffer requirement (0 for a sensorless plan).
    pub fn max_sensors_per_pp(&self) -> usize {
        self.polling_points
            .iter()
            .map(|pp| pp.covered.len())
            .max()
            .unwrap_or(0)
    }

    /// Time for one full collection round: travel at `speed_mps` plus
    /// `upload_secs` of pause per *sensor served* (each sensor uploads its
    /// packet while the collector pauses at its polling point).
    pub fn collection_time(&self, speed_mps: f64, upload_secs: f64) -> f64 {
        assert!(speed_mps > 0.0, "collector speed must be positive");
        self.tour_length / speed_mps + upload_secs * self.n_sensors() as f64
    }

    /// Rough heap footprint of the plan in bytes — polling-point structs,
    /// covered lists, and the assignment table. Used by the serving
    /// layer's byte-aware session eviction; an estimate, not an audit.
    pub fn approx_bytes(&self) -> u64 {
        let pps: u64 = self
            .polling_points
            .iter()
            .map(|pp| 48 + pp.covered.len() as u64 * 4)
            .sum();
        64 + pps + self.assignment.len() as u64 * 8
    }

    /// Validates internal consistency against the deployment: assignments
    /// in range, every sensor assigned exactly once and within `range` of
    /// its polling point, and the `covered` lists matching the assignment.
    ///
    /// This is [`GatheringPlan::validate_live`] with every sensor alive,
    /// which puts each sensor in its own polling point's covered list,
    /// plus the count that makes the covered lists an exact partition: `n`
    /// entries in all, so no list holds a sensor twice, a stranger or an
    /// id past the deployment.
    pub fn validate(&self, sensors: &[Point], range: f64) -> Result<(), String> {
        self.validate_live(sensors, range, &vec![true; sensors.len()])?;
        let listed: usize = self.polling_points.iter().map(|pp| pp.covered.len()).sum();
        if listed != sensors.len() {
            return Err(format!(
                "covered lists contain {listed} entries for {} sensors",
                sensors.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> (GatheringPlan, Vec<Point>, f64) {
        let sensors = vec![
            Point::new(0.0, 10.0),
            Point::new(5.0, 10.0),
            Point::new(40.0, 10.0),
        ];
        let pps = vec![
            PollingPoint {
                pos: Point::new(0.0, 10.0),
                candidate: 0,
                covered: vec![0, 1],
            },
            PollingPoint {
                pos: Point::new(40.0, 10.0),
                candidate: 2,
                covered: vec![2],
            },
        ];
        let plan = GatheringPlan::new(Point::new(20.0, 0.0), pps, vec![0, 0, 1]);
        (plan, sensors, 10.0)
    }

    #[test]
    fn tour_positions_and_length() {
        let (plan, _, _) = sample_plan();
        let pts = plan.tour_positions();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], Point::new(20.0, 0.0));
        let expect = closed_tour_length(&pts);
        assert!((plan.tour_length - expect).abs() < 1e-12);
        assert!(plan.tour_length > 0.0);
    }

    #[test]
    fn validate_accepts_consistent_plan() {
        let (plan, sensors, range) = sample_plan();
        plan.validate(&sensors, range).unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_assignment() {
        let (plan, sensors, _) = sample_plan();
        let err = plan.validate(&sensors, 1.0).unwrap_err();
        assert!(err.contains("from its polling point"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_sensor_count() {
        let (plan, sensors, range) = sample_plan();
        let err = plan.validate(&sensors[..2], range).unwrap_err();
        assert!(err.contains("deployment has 2"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_covered_list() {
        let (mut plan, sensors, range) = sample_plan();
        plan.polling_points[0].covered = vec![0]; // dropped sensor 1
        assert!(plan.validate(&sensors, range).is_err());
    }

    #[test]
    fn validate_rejects_stale_tour_length() {
        let (mut plan, sensors, range) = sample_plan();
        plan.tour_length += 5.0;
        let err = plan.validate(&sensors, range).unwrap_err();
        assert!(err.contains("tour length"), "{err}");
    }

    #[test]
    fn upload_distances_and_buffer() {
        let (plan, sensors, _) = sample_plan();
        let d = plan.upload_distances(&sensors);
        assert!((d[0] - 0.0).abs() < 1e-12);
        assert!((d[1] - 5.0).abs() < 1e-12);
        assert!((d[2] - 0.0).abs() < 1e-12);
        assert_eq!(plan.max_sensors_per_pp(), 2);
    }

    #[test]
    fn collection_time_travel_plus_uploads() {
        let (plan, _, _) = sample_plan();
        let t = plan.collection_time(1.0, 2.0);
        assert!(
            (t - (plan.tour_length + 6.0)).abs() < 1e-9,
            "travel + 3 sensors × 2 s"
        );
    }

    #[test]
    fn empty_plan() {
        let plan = GatheringPlan::new(Point::ORIGIN, vec![], vec![]);
        assert_eq!(plan.tour_length, 0.0);
        assert_eq!(plan.max_sensors_per_pp(), 0);
        plan.validate(&[], 10.0).unwrap();
        assert_eq!(plan.collection_time(1.0, 5.0), 0.0);
    }
}
