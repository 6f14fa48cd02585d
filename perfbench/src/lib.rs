//! End-to-end benchmark of the two paths users run: a cold `mdg plan
//! --hier` pass ([`plan`]) and a warm `mdg serve` daemon under churn
//! ([`serve`]).
//!
//! Each workload reports the same end-to-end metrics ([`E2E_METRICS`]),
//! measured untraced; a traced run reports the per-layer split
//! ([`LAYER_METRICS`]) by timing calls into each crate's public functions
//! from this package. `README.md` in this directory says why each
//! workload exists and which layer should move which metric.

pub mod churn;
pub mod plan;
pub mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

/// Transmission range of every workload (the paper's R = 30 m).
pub(crate) const RANGE: f64 = 30.0;

/// Side of the square field that holds `n` sensors at the paper's density.
pub(crate) fn side_for(n: usize) -> f64 {
    (n as f64).sqrt() * 10.0
}

/// End-to-end metrics every workload reports on an untraced run, with
/// their units.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("read_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("tour_m", "m"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports on a traced run, with their
/// units. A layer the workload never calls reads 0. The traced run also
/// reports each end-to-end metric under `trace.<name>`, so traced minus
/// untraced gives the tracing overhead.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("net.generate_ms", "ms"),
    ("net.build_ms", "ms"),
    ("net.udg_edges", "count"),
    ("core.hier_plan_ms", "ms"),
    ("core.tiles_occupied", "count"),
    ("core.hier_delta_ms_p50", "ms"),
    ("core.dirty_tiles_per_delta", "count"),
    ("core.replanned_share", "ratio"),
    ("core.full_rebuilds", "count"),
    ("core.flat_plan_ms", "ms"),
    ("cover.instance_ms", "ms"),
    ("runtime.repair_ms_p50", "ms"),
    ("runtime.repair_ms_p90", "ms"),
    ("runtime.full_replans", "count"),
    ("core.validate_ms", "ms"),
    ("core.validate_live_ms_p50", "ms"),
    ("serde_json.serialize_ms", "ms"),
    ("serde_json.bytes", "bytes"),
    ("serve.server_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("obs.allocs_per_delta", "count"),
    ("obs.allocs_cold", "count"),
];

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least a `q` share of the sample at or below it. 0 when empty.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `v` sorted ascending.
pub(crate) fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Attempted and failed operations of a run. An operation fails on an
/// `ok: false` reply, a transport error or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why the first failure happened.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one operation and passes its value through when it succeeded.
    pub fn count<T>(&mut self, op: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match op {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Turns a daemon reply into an operation result: both a transport error
/// and an `ok: false` reply are failures.
pub(crate) fn reply<T>(what: &str, r: mdg_serve::client::Reply<T>) -> Result<T, String> {
    match r {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(body)) => Err(format!("{what} rejected: {}: {}", body.code, body.message)),
        Err(e) => Err(format!("{what} transport error: {e}")),
    }
}

/// Wall-time samples of calls into the layers, in ms, by name.
#[derive(Debug, Default)]
pub(crate) struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Runs `f`, recording its wall time under `name`.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(name, ms_since(t));
        out
    }

    /// Records one sample under `name`.
    fn record(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    /// The samples recorded under `name`.
    fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Nearest-rank percentile of the samples under `name` (0 if none).
    pub(crate) fn pct(&self, name: &str, q: f64) -> f64 {
        percentile(&sorted(self.samples(name)), q)
    }
}

/// Allocations counted so far (0 while the counting allocator is off).
pub(crate) fn allocs() -> u64 {
    mdg_obs::alloc::totals().count
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics ([`E2E_METRICS`]).
    pub e2e: Metrics,
    /// Per-layer metrics ([`LAYER_METRICS`]); filled on traced runs.
    pub layers: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Sample count behind each timing, by metric family.
    pub samples: BTreeMap<&'static str, usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0, 8.0, 9.0], 0.5), 8.0);
        assert_eq!(percentile(&[7.0, 8.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 100 samples leave exactly ten beyond the p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.count::<u8>(Ok(1)), Some(1));
        assert_eq!(t.count::<u8>(Err("first".into())), None);
        assert_eq!(t.count::<u8>(Err("second".into())), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.first_error.as_deref(), Some("first"));
        assert!((t.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
