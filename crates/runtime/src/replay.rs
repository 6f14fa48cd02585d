//! Counterfactual replay: re-run a recorded trace bundle side-effect-free
//! under an alternate repair policy and report exactly where and how the
//! outcome diverges.
//!
//! Modeled on franken_node's bd-2fa counterfactual-replay contract. The
//! hard invariant is `INV-CF-DETERMINISTIC`: same bundle + same policy
//! inputs ⇒ bit-identical divergence output, at any worker-thread count.
//! It holds because the whole pipeline is pure computation over the
//! bundle — the engine rebuilds the network and initial plan from the
//! manifest ([`crate::trace::ReplayManifest`]), replays the rounds through
//! the same [`GatheringRuntime`] that recorded them (every trace-visible
//! quantity is a function of `(seed, config)`), and fans parameter sweeps
//! out on `mdg-par`'s order-preserving `par_map`.
//!
//! The second contract is the **self-check**: replaying the *original*
//! policy must reproduce the recorded trace byte-for-byte
//! ([`ReplayEngine::self_check`]). CI runs it on a freshly recorded
//! trace; a non-empty report means the bundle, the runtime, or the
//! planner drifted — exactly the silent breakage the check exists to
//! catch.
//!
//! What counterfactuals can vary (the *policy*), and what they cannot
//! (the *world*): [`PolicyOverrides`] changes how the collector reacts —
//! retry budget, backoff curve, repair-vs-replan escalation, static-vs-
//! repair drop policy. The fault plan's node deaths are drawn up front
//! from the fault seed and are identical in every counterfactual. The
//! per-attempt loss process keeps the same seed and per-round PRNG
//! stream; a different retry budget consumes a different number of draws,
//! which is the correct counterfactual semantics (same stochastic law,
//! same seed — not the same per-packet luck).
//!
//! ```
//! use mdg_core::ShdgPlanner;
//! use mdg_net::{DeploymentConfig, Network};
//! use mdg_runtime::replay::{PolicyOverrides, ReplayEngine};
//! use mdg_runtime::{
//!     FaultConfig, GatheringRuntime, ReplayManifest, RuntimeConfig, TopologyManifest,
//!     TraceHeader, TraceWriter,
//! };
//!
//! // Record a lossy run into a headered bundle...
//! let manifest = ReplayManifest {
//!     topology: TopologyManifest::Uniform { n: 50, side: 200.0, seed: 3 },
//!     range: 30.0,
//!     config: RuntimeConfig {
//!         faults: FaultConfig { seed: 3, loss_rate: 0.3, ..FaultConfig::default() },
//!         max_rounds: 4,
//!         ..RuntimeConfig::default()
//!     },
//! };
//! let net = manifest.network();
//! let plan = ShdgPlanner::new().plan(&net).unwrap();
//! let mut tw = TraceWriter::with_header(Vec::new(), &TraceHeader::new(manifest)).unwrap();
//! GatheringRuntime::new(net, plan, mdg_runtime::RuntimeConfig {
//!     faults: FaultConfig { seed: 3, loss_rate: 0.3, ..FaultConfig::default() },
//!     max_rounds: 4,
//!     ..RuntimeConfig::default()
//! }).run_traced(&mut tw).unwrap();
//! let text = String::from_utf8(tw.into_inner().unwrap()).unwrap();
//!
//! // ...then ask: what if we had no retry budget at all?
//! let bundle = mdg_runtime::parse_bundle(&text).unwrap();
//! let engine = ReplayEngine::from_bundle(&bundle).unwrap();
//! assert!(engine.self_check().ok(), "original policy must reproduce the trace");
//! let zero_retries = PolicyOverrides { max_retries: Some(0), ..PolicyOverrides::default() };
//! let result = engine.replay(&zero_retries);
//! assert!(result.counterfactual.drops >= result.original.drops);
//! ```

use crate::faults::FaultConfig;
use crate::runtime::{GatheringRuntime, RepairPolicy, RuntimeConfig};
use crate::trace::{
    ReplayManifest, RoundRecord, TopologyManifest, TraceBundle, TraceWriter, TRACE_VERSION,
};
use mdg_core::{GatheringPlan, ShdgPlanner};
use mdg_geom::MAX_COORD;
use mdg_net::Network;
use serde::{Deserialize, Serialize};

/// Upper bound on values per swept knob (mirrors bd-2fa's
/// `ParameterSweep` cap): a sweep is a bounded evaluation, not an
/// unbounded search.
pub const MAX_SWEEP_VALUES: usize = 20;

/// Why a bundle cannot be replayed (or a sweep cannot be built).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace has no bundle header: it was recorded before format v1.
    MissingHeader,
    /// The header carries no [`ReplayManifest`].
    MissingManifest,
    /// The manifest's topology/config could not be turned into a plan.
    Plan(String),
    /// Unknown sweep knob name.
    BadKnob(String),
    /// Malformed sweep value specification.
    BadSweep(String),
    /// More than [`MAX_SWEEP_VALUES`] values requested.
    TooManyValues(usize),
    /// An override value is out of its knob's domain.
    BadValue(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingHeader => write!(
                f,
                "trace has no bundle header (recorded before trace format v{TRACE_VERSION}); \
                 re-record it with a current `mdg runtime --trace` to get a replayable bundle"
            ),
            ReplayError::MissingManifest => write!(
                f,
                "trace header carries no replay manifest; the recorder did not embed the \
                 topology/config needed to reconstruct the run"
            ),
            ReplayError::Plan(e) => write!(f, "cannot rebuild the recorded run's plan: {e}"),
            ReplayError::BadKnob(k) => write!(
                f,
                "unknown sweep knob `{k}` (expected retry_budget, backoff_secs, \
                 replan_threshold or improve_passes)"
            ),
            ReplayError::BadSweep(s) => write!(
                f,
                "bad sweep spec `{s}` (expected KNOB=LO..HI or KNOB=V1,V2,...)"
            ),
            ReplayError::TooManyValues(n) => write!(
                f,
                "sweep asks for {n} values; the bound is {MAX_SWEEP_VALUES} per knob"
            ),
            ReplayError::BadValue(e) => write!(f, "bad policy value: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The counterfactual policy: every knob is optional, `None` = keep the
/// recorded run's value. An all-`None` override replays the original
/// policy (which is what [`ReplayEngine::self_check`] does).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyOverrides {
    /// Reaction policy (`Static` = never repair, dropping orphans'
    /// data; `Repair` = incremental repair every round).
    pub policy: Option<RepairPolicy>,
    /// Retry budget after a failed upload attempt.
    pub max_retries: Option<u32>,
    /// Base backoff before a retry, seconds (the curve stays
    /// exponential, capped at 64× base).
    pub backoff_secs: Option<f64>,
    /// Stale-stop fraction at which repair escalates to a full re-plan.
    pub full_replan_stop_fraction: Option<f64>,
    /// Local-search passes in the post-splice tour touch-up.
    pub improve_passes: Option<usize>,
}

impl PolicyOverrides {
    /// Whether every knob keeps its recorded value.
    pub fn is_noop(&self) -> bool {
        *self == PolicyOverrides::default()
    }

    /// The recorded config with these overrides applied. Only policy
    /// knobs change; the world (topology, faults, sim parameters) is
    /// untouched by construction.
    pub fn apply(&self, base: &RuntimeConfig) -> RuntimeConfig {
        let mut cfg = *base;
        if let Some(p) = self.policy {
            cfg.policy = p;
        }
        if let Some(r) = self.max_retries {
            cfg.faults.max_retries = r;
        }
        if let Some(b) = self.backoff_secs {
            cfg.faults.backoff_secs = b;
        }
        if let Some(t) = self.full_replan_stop_fraction {
            cfg.repair.full_replan_stop_fraction = t;
        }
        if let Some(p) = self.improve_passes {
            cfg.repair.improve_passes = p;
        }
        cfg
    }

    /// Sets a numeric knob by its sweep name. Knobs: `retry_budget`,
    /// `backoff_secs`, `replan_threshold`, `improve_passes`.
    pub fn set(&mut self, knob: &str, value: f64) -> Result<(), ReplayError> {
        let non_negative_int = |v: f64, knob: &str| -> Result<u64, ReplayError> {
            if v < 0.0 || v.fract() != 0.0 || !v.is_finite() {
                return Err(ReplayError::BadValue(format!(
                    "{knob} wants a non-negative integer, got {v}"
                )));
            }
            Ok(v as u64)
        };
        match knob {
            "retry_budget" => {
                let v = non_negative_int(value, knob)?;
                if v > u32::MAX as u64 {
                    return Err(ReplayError::BadValue(format!(
                        "retry_budget {v} exceeds u32::MAX"
                    )));
                }
                self.max_retries = Some(v as u32);
            }
            "backoff_secs" => {
                FaultConfig {
                    backoff_secs: value,
                    ..FaultConfig::default()
                }
                .validate()
                .map_err(ReplayError::BadValue)?;
                self.backoff_secs = Some(value);
            }
            "replan_threshold" => {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(ReplayError::BadValue(format!(
                        "replan_threshold must be a finite non-negative fraction, got {value}"
                    )));
                }
                self.full_replan_stop_fraction = Some(value);
            }
            "improve_passes" => {
                self.improve_passes = Some(non_negative_int(value, knob)? as usize);
            }
            other => return Err(ReplayError::BadKnob(other.to_string())),
        }
        Ok(())
    }

    /// Human-readable summary of the overridden knobs (`"(original)"`
    /// when none are).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(p) = self.policy {
            parts.push(format!("policy={p:?}"));
        }
        if let Some(r) = self.max_retries {
            parts.push(format!("retry_budget={r}"));
        }
        if let Some(b) = self.backoff_secs {
            parts.push(format!("backoff_secs={b}"));
        }
        if let Some(t) = self.full_replan_stop_fraction {
            parts.push(format!("replan_threshold={t}"));
        }
        if let Some(p) = self.improve_passes {
            parts.push(format!("improve_passes={p}"));
        }
        if parts.is_empty() {
            "(original)".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// What one policy made of one round, as a compact decision label:
/// `hold` / `repair(-r+a)` / `full_replan(+a)`, with `,drop:{k}` appended
/// when packets were abandoned. Deterministic function of the record.
fn decision_of(r: &RoundRecord) -> String {
    let mut s = if r.full_replan {
        format!("full_replan(+{})", r.stops_added)
    } else if r.repaired {
        format!("repair(-{}+{})", r.stops_removed, r.stops_added)
    } else {
        "hold".to_string()
    };
    if r.drops > 0 {
        s.push_str(&format!(",drop:{}", r.drops));
    }
    s
}

/// One divergent round: what each policy decided and the outcome deltas
/// (counterfactual − original). Emitted as JSONL by `mdg replay`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceRecord {
    /// Round number.
    pub round: u64,
    /// The recorded run's decision label (`"(absent)"` when the
    /// counterfactual ran longer than the recording).
    pub original_decision: String,
    /// The counterfactual's decision label (`"(absent)"` when it ended
    /// earlier).
    pub counterfactual_decision: String,
    /// Tour length delta, meters.
    pub d_tour_length_m: f64,
    /// Delivered-packets delta.
    pub d_delivered: i64,
    /// Dropped-packets delta.
    pub d_drops: i64,
    /// Retransmissions delta.
    pub d_retries: i64,
    /// Cumulative orphaned live-sensor-seconds delta.
    pub d_orphan_secs: f64,
    /// Deterministic repair-work delta.
    pub d_repair_ops: i64,
}

/// Aggregate outcome of one replayed policy, summed over its rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Rounds executed.
    pub rounds: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets expected.
    pub expected: u64,
    /// Packets abandoned after exhausting retries.
    pub drops: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Rounds in which repair changed the plan.
    pub repairs: u64,
    /// Repairs that escalated to a full re-plan.
    pub full_replans: u64,
    /// Final cumulative orphaned live-sensor-seconds.
    pub orphan_secs: f64,
    /// Deterministic repair work.
    pub repair_ops: u64,
    /// Tour length after the last round, meters.
    pub final_tour_length_m: f64,
}

impl ReplayOutcome {
    /// Sums `records` into an outcome.
    pub fn of(records: &[RoundRecord]) -> Self {
        let mut o = ReplayOutcome::default();
        for r in records {
            o.rounds += 1;
            o.delivered += r.delivered as u64;
            o.expected += r.expected as u64;
            o.drops += r.drops;
            o.retries += r.retries;
            o.repairs += u64::from(r.repaired);
            o.full_replans += u64::from(r.full_replan);
            o.repair_ops += r.repair_ops;
        }
        if let Some(last) = records.last() {
            o.orphan_secs = last.orphan_secs_total;
            o.final_tour_length_m = last.tour_length_m;
        }
        o
    }

    /// Delivery ratio (1 when nothing was expected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// The full outcome of one counterfactual replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterfactualResult {
    /// Which knobs were overridden ([`PolicyOverrides::describe`]).
    pub overrides: String,
    /// The recorded run, summarized.
    pub original: ReplayOutcome,
    /// The counterfactual run, summarized.
    pub counterfactual: ReplayOutcome,
    /// Every divergent round, in round order.
    pub divergences: Vec<DivergenceRecord>,
}

/// Result of [`ReplayEngine::self_check`]: original-policy replay vs the
/// recorded trace, compared round-by-round on canonical JSON bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfCheckReport {
    /// Rounds in the recorded trace.
    pub rounds_recorded: usize,
    /// Rounds the replay produced.
    pub rounds_replayed: usize,
    /// Rounds whose canonical JSON differs (also set when the round
    /// counts differ).
    pub divergent_rounds: Vec<u64>,
    /// The first differing pair, `(recorded_line, replayed_line)`, for
    /// diagnostics.
    pub first_diff: Option<(String, String)>,
}

impl SelfCheckReport {
    /// Whether the replay reproduced the recording exactly.
    pub fn ok(&self) -> bool {
        self.rounds_recorded == self.rounds_replayed && self.divergent_rounds.is_empty()
    }
}

/// One point of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept knob's name.
    pub knob: String,
    /// The value this point ran at.
    pub value: f64,
    /// The counterfactual replay at that value.
    pub result: CounterfactualResult,
}

/// A divergence tagged with its sweep coordinates — the JSONL line format
/// of `mdg replay --sweep --out`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepDivergenceRecord {
    /// The swept knob's name.
    pub knob: String,
    /// The knob value whose replay produced this divergence.
    pub value: f64,
    /// The divergence itself.
    pub divergence: DivergenceRecord,
}

/// A bounded numeric parameter sweep: one knob, ≤ [`MAX_SWEEP_VALUES`]
/// values (mirrors bd-2fa's `ParameterSweep` mode).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Knob name ([`PolicyOverrides::set`] names).
    pub knob: String,
    /// Values to replay, in order.
    pub values: Vec<f64>,
}

impl SweepSpec {
    /// Builds a spec, validating the knob name and the value bound.
    pub fn new(knob: &str, values: Vec<f64>) -> Result<Self, ReplayError> {
        // Validate the knob name (and each value's domain) up front so a
        // bad sweep fails before any replay work starts.
        if values.is_empty() {
            return Err(ReplayError::BadSweep(format!("{knob}= (no values)")));
        }
        if values.len() > MAX_SWEEP_VALUES {
            return Err(ReplayError::TooManyValues(values.len()));
        }
        for &v in &values {
            PolicyOverrides::default().set(knob, v)?;
        }
        Ok(SweepSpec {
            knob: knob.to_string(),
            values,
        })
    }

    /// Parses a CLI spec: `KNOB=LO..HI` (inclusive integer range) or
    /// `KNOB=V1,V2,...` (explicit list).
    pub fn parse(spec: &str) -> Result<Self, ReplayError> {
        let (knob, rest) = spec
            .split_once('=')
            .ok_or_else(|| ReplayError::BadSweep(spec.to_string()))?;
        let values: Vec<f64> = if let Some((lo, hi)) = rest.split_once("..") {
            let lo: i64 = lo
                .trim()
                .parse()
                .map_err(|_| ReplayError::BadSweep(spec.to_string()))?;
            let hi: i64 = hi
                .trim()
                .parse()
                .map_err(|_| ReplayError::BadSweep(spec.to_string()))?;
            if hi < lo {
                return Err(ReplayError::BadSweep(spec.to_string()));
            }
            // Guard the subtraction: the bound check below would catch it
            // anyway, but not before a capacity overflow on i64::MIN..MAX.
            if (hi - lo) as u64 >= MAX_SWEEP_VALUES as u64 * 2 {
                return Err(ReplayError::TooManyValues((hi - lo + 1) as usize));
            }
            (lo..=hi).map(|v| v as f64).collect()
        } else {
            rest.split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .map_err(|_| ReplayError::BadSweep(spec.to_string()))
                })
                .collect::<Result<_, _>>()?
        };
        SweepSpec::new(knob.trim(), values)
    }
}

/// The counterfactual replay engine: a parsed bundle plus the
/// reconstructed world (network + initial plan), ready to re-run rounds
/// under any policy. Construction does the expensive reconstruction
/// once; every replay after that is a pure function of
/// `(engine, overrides)`.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    manifest: ReplayManifest,
    recorded: Vec<RoundRecord>,
    net: Network,
    plan: GatheringPlan,
}

/// Checks a manifest read from a trace file before it reaches the
/// library's asserts: a positive range and field side and finite explicit
/// positions, all within [`MAX_COORD`], a finite non-negative battery, and
/// the fault and simulation configs' own rules.
fn check_manifest(m: &ReplayManifest) -> Result<(), String> {
    if !(m.range > 0.0 && m.range <= MAX_COORD) {
        return Err(format!(
            "range must be positive and at most {MAX_COORD:e} m, got {:?}",
            m.range
        ));
    }
    match &m.topology {
        TopologyManifest::Uniform { side, .. } => {
            if !(*side > 0.0 && *side <= MAX_COORD) {
                return Err(format!(
                    "field side must be positive and at most {MAX_COORD:e} m, got {side:?}"
                ));
            }
        }
        TopologyManifest::Explicit { deployment } => {
            let mut points = deployment.sensors.iter().chain([&deployment.sink]);
            if let Some(p) = points.find(|p| !(p.x.abs() <= MAX_COORD && p.y.abs() <= MAX_COORD)) {
                return Err(format!(
                    "position {p:?} must be finite and within ±{MAX_COORD:e} m"
                ));
            }
        }
    }
    if let Some(b) = m.config.battery_j {
        if !(b.is_finite() && b >= 0.0) {
            return Err(format!("battery must be finite and ≥ 0 J, got {b:?}"));
        }
    }
    m.config.faults.validate()?;
    m.config.sim.validate()
}

impl ReplayEngine {
    /// Builds the engine from a parsed bundle. Fails with a clear error
    /// on legacy headerless traces, on headers without a manifest, and on
    /// a manifest whose values the runtime would reject.
    pub fn from_bundle(bundle: &TraceBundle) -> Result<Self, ReplayError> {
        let header = bundle.header.as_ref().ok_or(ReplayError::MissingHeader)?;
        let manifest = header
            .manifest
            .as_ref()
            .ok_or(ReplayError::MissingManifest)?
            .clone();
        check_manifest(&manifest).map_err(ReplayError::Plan)?;
        let _sp = mdg_obs::span("replay/build");
        let net = manifest.network();
        let plan = ShdgPlanner::new()
            .plan(&net)
            .map_err(|e| ReplayError::Plan(e.to_string()))?;
        Ok(ReplayEngine {
            manifest,
            recorded: bundle.records.clone(),
            net,
            plan,
        })
    }

    /// The bundle's manifest.
    pub fn manifest(&self) -> &ReplayManifest {
        &self.manifest
    }

    /// The recorded rounds.
    pub fn recorded(&self) -> &[RoundRecord] {
        &self.recorded
    }

    /// Re-runs the recorded rounds under `cfg`, side-effect-free: the
    /// engine's own state is untouched, nothing is written anywhere, and
    /// the result is a pure function of `(manifest, cfg)`.
    fn rerun(&self, cfg: &RuntimeConfig) -> Vec<RoundRecord> {
        let mut sp = mdg_obs::span("replay/run");
        let mut rt = GatheringRuntime::new(self.net.clone(), self.plan.clone(), *cfg);
        let mut tw = TraceWriter::new(Vec::new());
        rt.run_traced(&mut tw).expect("in-memory trace write");
        let bytes = tw.into_inner().expect("in-memory trace flush");
        let records = crate::trace::parse_trace(std::str::from_utf8(&bytes).expect("utf8 trace"))
            .expect("replay emits valid trace lines");
        sp.add_items(records.len() as u64);
        records
    }

    /// Replays the recorded rounds under `overrides` applied to the
    /// recorded config.
    pub fn replay_records(&self, overrides: &PolicyOverrides) -> Vec<RoundRecord> {
        self.rerun(&overrides.apply(&self.manifest.config))
    }

    /// Replays the *original* policy and checks the result against the
    /// recording, round by round, on canonical JSON bytes. A non-empty
    /// report means the determinism contract is broken somewhere between
    /// recorder and replayer.
    pub fn self_check(&self) -> SelfCheckReport {
        let _sp = mdg_obs::span("replay/self_check");
        let replayed = self.rerun(&self.manifest.config);
        let canon = |r: &RoundRecord| serde_json::to_string(r).expect("record serializes");
        let mut divergent = Vec::new();
        let mut first_diff = None;
        let rounds = self.recorded.len().max(replayed.len());
        for i in 0..rounds {
            match (self.recorded.get(i), replayed.get(i)) {
                (Some(a), Some(b)) => {
                    let (la, lb) = (canon(a), canon(b));
                    if la != lb {
                        divergent.push(a.round);
                        if first_diff.is_none() {
                            first_diff = Some((la, lb));
                        }
                    }
                }
                (Some(a), None) => {
                    divergent.push(a.round);
                    if first_diff.is_none() {
                        first_diff = Some((canon(a), "(absent)".to_string()));
                    }
                }
                (None, Some(b)) => {
                    divergent.push(b.round);
                    if first_diff.is_none() {
                        first_diff = Some(("(absent)".to_string(), canon(b)));
                    }
                }
                (None, None) => unreachable!(),
            }
        }
        mdg_obs::counter("replay/self_check_divergences").add(divergent.len() as u64);
        SelfCheckReport {
            rounds_recorded: self.recorded.len(),
            rounds_replayed: replayed.len(),
            divergent_rounds: divergent,
            first_diff,
        }
    }

    /// Runs one counterfactual and diffs it against the recording. A
    /// round diverges when its canonical JSON differs; each divergence
    /// carries both decision labels and the outcome deltas.
    pub fn replay(&self, overrides: &PolicyOverrides) -> CounterfactualResult {
        let cf = self.replay_records(overrides);
        let canon = |r: &RoundRecord| serde_json::to_string(r).expect("record serializes");
        let mut divergences = Vec::new();
        for i in 0..self.recorded.len().max(cf.len()) {
            match (self.recorded.get(i), cf.get(i)) {
                (Some(o), Some(c)) => {
                    if canon(o) != canon(c) {
                        divergences.push(DivergenceRecord {
                            round: o.round,
                            original_decision: decision_of(o),
                            counterfactual_decision: decision_of(c),
                            d_tour_length_m: c.tour_length_m - o.tour_length_m,
                            d_delivered: c.delivered as i64 - o.delivered as i64,
                            d_drops: c.drops as i64 - o.drops as i64,
                            d_retries: c.retries as i64 - o.retries as i64,
                            d_orphan_secs: c.orphan_secs_total - o.orphan_secs_total,
                            d_repair_ops: c.repair_ops as i64 - o.repair_ops as i64,
                        });
                    }
                }
                (Some(o), None) => divergences.push(DivergenceRecord {
                    round: o.round,
                    original_decision: decision_of(o),
                    counterfactual_decision: "(absent)".to_string(),
                    d_tour_length_m: -o.tour_length_m,
                    d_delivered: -(o.delivered as i64),
                    d_drops: -(o.drops as i64),
                    d_retries: -(o.retries as i64),
                    d_orphan_secs: -o.orphan_secs_total,
                    d_repair_ops: -(o.repair_ops as i64),
                }),
                (None, Some(c)) => divergences.push(DivergenceRecord {
                    round: c.round,
                    original_decision: "(absent)".to_string(),
                    counterfactual_decision: decision_of(c),
                    d_tour_length_m: c.tour_length_m,
                    d_delivered: c.delivered as i64,
                    d_drops: c.drops as i64,
                    d_retries: c.retries as i64,
                    d_orphan_secs: c.orphan_secs_total,
                    d_repair_ops: c.repair_ops as i64,
                }),
                (None, None) => unreachable!(),
            }
        }
        mdg_obs::counter("replay/divergent_rounds").add(divergences.len() as u64);
        CounterfactualResult {
            overrides: overrides.describe(),
            original: ReplayOutcome::of(&self.recorded),
            counterfactual: ReplayOutcome::of(&cf),
            divergences,
        }
    }

    /// Replays every value of a bounded numeric sweep, fanned out on
    /// `mdg-par`'s order-preserving `par_map` — the output order (and
    /// every byte of it) is identical at any worker-thread count.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<Vec<SweepPoint>, ReplayError> {
        let mut sp = mdg_obs::span("replay/sweep");
        sp.add_items(spec.values.len() as u64);
        // Validate every value before spawning any work (SweepSpec::new
        // already did for its own constructor, but a hand-built spec may
        // not have gone through it).
        let overrides: Vec<PolicyOverrides> = spec
            .values
            .iter()
            .map(|&v| {
                let mut o = PolicyOverrides::default();
                o.set(&spec.knob, v)?;
                Ok(o)
            })
            .collect::<Result<_, ReplayError>>()?;
        if overrides.len() > MAX_SWEEP_VALUES {
            return Err(ReplayError::TooManyValues(overrides.len()));
        }
        let results = mdg_par::par_map(overrides.len(), |i| self.replay(&overrides[i]));
        Ok(results
            .into_iter()
            .zip(&spec.values)
            .map(|(result, &value)| SweepPoint {
                knob: spec.knob.clone(),
                value,
                result,
            })
            .collect())
    }
}

/// Renders sweep results as [`SweepDivergenceRecord`] JSON Lines — the
/// machine-readable artifact `mdg replay --sweep --out` writes and the CI
/// thread-determinism gate compares byte-for-byte.
pub fn sweep_to_jsonl(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    for p in points {
        for d in &p.result.divergences {
            let line = serde_json::to_string(&SweepDivergenceRecord {
                knob: p.knob.clone(),
                value: p.value,
                divergence: d.clone(),
            })
            .expect("sweep divergence serializes");
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Renders one replay's divergences as [`DivergenceRecord`] JSON Lines.
pub fn divergences_to_jsonl(divergences: &[DivergenceRecord]) -> String {
    let mut out = String::new();
    for d in divergences {
        out.push_str(&serde_json::to_string(d).expect("divergence serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::trace::{parse_bundle, TopologyManifest, TraceHeader};
    use mdg_geom::Point;

    fn record_bundle(seed: u64, loss: f64, deaths: f64, rounds: u64) -> String {
        let manifest = ReplayManifest {
            topology: TopologyManifest::Uniform {
                n: 40,
                side: 180.0,
                seed,
            },
            range: 30.0,
            config: RuntimeConfig {
                faults: FaultConfig {
                    seed,
                    loss_rate: loss,
                    death_rate: deaths,
                    death_horizon_secs: if deaths > 0.0 { 3_000.0 } else { 0.0 },
                    max_retries: 3,
                    backoff_secs: 0.2,
                    ..FaultConfig::default()
                },
                max_rounds: rounds,
                ..RuntimeConfig::default()
            },
        };
        let net = manifest.network();
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let mut tw =
            TraceWriter::with_header(Vec::new(), &TraceHeader::new(manifest.clone())).unwrap();
        GatheringRuntime::new(net, plan, manifest.config)
            .run_traced(&mut tw)
            .unwrap();
        String::from_utf8(tw.into_inner().unwrap()).unwrap()
    }

    fn engine(seed: u64, loss: f64, deaths: f64, rounds: u64) -> ReplayEngine {
        let text = record_bundle(seed, loss, deaths, rounds);
        ReplayEngine::from_bundle(&parse_bundle(&text).unwrap()).unwrap()
    }

    #[test]
    fn self_check_passes_on_fresh_bundle() {
        let e = engine(11, 0.2, 0.15, 6);
        let report = e.self_check();
        assert!(report.ok(), "first diff: {:?}", report.first_diff);
        assert_eq!(report.rounds_recorded, 6);
        assert_eq!(report.rounds_replayed, 6);
    }

    #[test]
    fn noop_overrides_produce_no_divergence() {
        let e = engine(4, 0.25, 0.1, 5);
        let r = e.replay(&PolicyOverrides::default());
        assert!(r.divergences.is_empty());
        assert_eq!(r.original, r.counterfactual);
        assert_eq!(r.overrides, "(original)");
    }

    #[test]
    fn zero_retry_budget_diverges_on_a_lossy_run() {
        let e = engine(7, 0.3, 0.0, 5);
        let r = e.replay(&PolicyOverrides {
            max_retries: Some(0),
            ..PolicyOverrides::default()
        });
        assert!(
            !r.divergences.is_empty(),
            "removing the retry budget on a 30% loss run must change outcomes"
        );
        assert!(
            r.counterfactual.drops > r.original.drops,
            "cf {} vs orig {}",
            r.counterfactual.drops,
            r.original.drops
        );
        assert!(r.counterfactual.retries < r.original.retries);
        // The world is fixed: both runs expected the same packet count.
        assert_eq!(r.counterfactual.expected, r.original.expected);
    }

    #[test]
    fn static_policy_override_stops_repairing() {
        let e = engine(9, 0.0, 0.25, 10);
        assert!(
            e.replay(&PolicyOverrides::default()).original.repairs > 0,
            "the recorded run must have repaired"
        );
        let r = e.replay(&PolicyOverrides {
            policy: Some(RepairPolicy::Static),
            ..PolicyOverrides::default()
        });
        assert_eq!(r.counterfactual.repairs, 0);
        assert!(r.counterfactual.orphan_secs > r.original.orphan_secs);
    }

    #[test]
    fn replay_is_side_effect_free() {
        let e = engine(5, 0.2, 0.1, 4);
        let a = e.replay(&PolicyOverrides {
            max_retries: Some(1),
            ..PolicyOverrides::default()
        });
        let b = e.replay(&PolicyOverrides {
            max_retries: Some(1),
            ..PolicyOverrides::default()
        });
        assert_eq!(a, b, "same engine + same overrides = identical results");
        assert!(e.self_check().ok(), "replays must not mutate the engine");
    }

    #[test]
    fn sweep_is_ordered_and_bounded() {
        let e = engine(3, 0.3, 0.0, 4);
        let spec = SweepSpec::parse("retry_budget=0..3").unwrap();
        assert_eq!(spec.values, vec![0.0, 1.0, 2.0, 3.0]);
        let points = e.sweep(&spec).unwrap();
        assert_eq!(points.len(), 4);
        for (p, v) in points.iter().zip([0.0, 1.0, 2.0, 3.0]) {
            assert_eq!(p.value, v);
            assert_eq!(p.knob, "retry_budget");
        }
        // More retries never deliver less on the same world.
        let delivered: Vec<u64> = points
            .iter()
            .map(|p| p.result.counterfactual.delivered)
            .collect();
        assert!(
            delivered.windows(2).all(|w| w[0] <= w[1]),
            "delivery must be monotone in retry budget: {delivered:?}"
        );
    }

    #[test]
    fn sweep_spec_rejections() {
        assert!(matches!(
            SweepSpec::parse("retry_budget=0..40"),
            Err(ReplayError::TooManyValues(_))
        ));
        assert!(matches!(
            SweepSpec::parse("nope=1,2"),
            Err(ReplayError::BadKnob(_))
        ));
        assert!(matches!(
            SweepSpec::parse("retry_budget"),
            Err(ReplayError::BadSweep(_))
        ));
        assert!(matches!(
            SweepSpec::parse("retry_budget=5..1"),
            Err(ReplayError::BadSweep(_))
        ));
        assert!(matches!(
            SweepSpec::parse("retry_budget=1.5,2"),
            Err(ReplayError::BadValue(_))
        ));
        assert!(matches!(
            SweepSpec::new("backoff_secs", (0..21).map(f64::from).collect()),
            Err(ReplayError::TooManyValues(21))
        ));
        assert!(SweepSpec::parse("backoff_secs=0.1,0.2,0.4").is_ok());
    }

    #[test]
    fn legacy_headerless_trace_is_rejected_clearly() {
        let text = record_bundle(2, 0.1, 0.0, 3);
        // Strip the header to fake a legacy file.
        let legacy: String = text
            .lines()
            .skip(1)
            .flat_map(|l| [l, "\n"])
            .collect::<Vec<_>>()
            .concat();
        let bundle = parse_bundle(&legacy).unwrap();
        assert!(bundle.header.is_none());
        let err = ReplayEngine::from_bundle(&bundle).unwrap_err();
        assert_eq!(err, ReplayError::MissingHeader);
        assert!(err.to_string().contains("re-record"));
    }

    #[test]
    fn header_without_manifest_is_rejected() {
        let mut header = TraceHeader::new(ReplayManifest {
            topology: TopologyManifest::Uniform {
                n: 5,
                side: 50.0,
                seed: 0,
            },
            range: 10.0,
            config: RuntimeConfig::default(),
        });
        header.manifest = None;
        let w = TraceWriter::with_header(Vec::new(), &header).unwrap();
        let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
        let bundle = parse_bundle(&text).unwrap();
        assert_eq!(
            ReplayEngine::from_bundle(&bundle).unwrap_err(),
            ReplayError::MissingManifest
        );
    }

    #[test]
    fn explicit_positions_beyond_max_coord_are_rejected() {
        let deployment = mdg_net::DeploymentConfig::uniform(5, 50.0).generate(1);
        for far in [Point::new(1e300, 0.0), Point::new(0.0, -2e12)] {
            let mut sensors = deployment.clone();
            sensors.sensors[2] = far;
            let mut sink = deployment.clone();
            sink.sink = far;
            for deployment in [sensors, sink] {
                let header = TraceHeader::new(ReplayManifest {
                    topology: TopologyManifest::Explicit { deployment },
                    range: 10.0,
                    config: RuntimeConfig::default(),
                });
                let w = TraceWriter::with_header(Vec::new(), &header).unwrap();
                let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
                let bundle = parse_bundle(&text).unwrap();
                match ReplayEngine::from_bundle(&bundle) {
                    Err(ReplayError::Plan(msg)) => assert!(msg.contains("position"), "{msg}"),
                    other => panic!("{far:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn divergence_jsonl_round_trips() {
        let e = engine(8, 0.3, 0.0, 4);
        let points = e
            .sweep(&SweepSpec::parse("retry_budget=0,3").unwrap())
            .unwrap();
        let jsonl = sweep_to_jsonl(&points);
        for line in jsonl.lines() {
            let back: SweepDivergenceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(back.knob, "retry_budget");
        }
        let flat: Vec<DivergenceRecord> = points
            .iter()
            .flat_map(|p| p.result.divergences.clone())
            .collect();
        let flat_jsonl = divergences_to_jsonl(&flat);
        assert_eq!(flat_jsonl.lines().count(), jsonl.lines().count());
    }
}
