//! The replay determinism contract (`INV-CF-DETERMINISTIC`), regression-
//! tested: original-policy replay reproduces the recorded trace
//! byte-for-byte across many seeded fields and at different worker-thread
//! counts, and counterfactual divergence output is bit-identical at any
//! thread count. Also locks in the bundle-format guard rails: legacy
//! headerless traces and future versions are rejected with clear errors.

use mdg_core::ShdgPlanner;
use mdg_runtime::replay::{sweep_to_jsonl, MAX_SWEEP_VALUES};
use mdg_runtime::{
    parse_bundle, FaultConfig, GatheringRuntime, PolicyOverrides, ReplayEngine, ReplayError,
    ReplayManifest, RuntimeConfig, SweepSpec, TopologyManifest, TraceHeader, TraceWriter,
};

/// Records a headered bundle on a uniform field fully determined by
/// `seed` (the deployment seed and the fault seed are both derived from
/// it, matching what `mdg runtime --trace` does).
fn record(seed: u64) -> String {
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
                death_rate: 0.15,
                death_horizon_secs: 2_500.0,
                loss_rate: 0.2,
                max_retries: 2,
                backoff_secs: 0.2,
                ..FaultConfig::default()
            },
            max_rounds: 5,
            ..RuntimeConfig::default()
        },
    };
    let net = manifest.network();
    let plan = ShdgPlanner::new().plan(&net).unwrap();
    let mut tw = TraceWriter::with_header(Vec::new(), &TraceHeader::new(manifest.clone())).unwrap();
    GatheringRuntime::new(net, plan, manifest.config)
        .run_traced(&mut tw)
        .unwrap();
    String::from_utf8(tw.into_inner().unwrap()).unwrap()
}

fn engine_for(text: &str) -> ReplayEngine {
    ReplayEngine::from_bundle(&parse_bundle(text).unwrap()).unwrap()
}

/// Original-policy replay reproduces the recording exactly on 20
/// independently seeded fields — the CI self-check gate, in miniature,
/// across enough worlds to catch a seed-dependent drift.
#[test]
fn self_check_holds_across_twenty_seeded_fields() {
    for seed in 0..20u64 {
        let text = record(seed);
        let report = engine_for(&text).self_check();
        assert!(
            report.ok(),
            "seed {seed}: {} divergent rounds, first diff {:?}",
            report.divergent_rounds.len(),
            report.first_diff
        );
    }
}

/// Self-check and divergence output are bit-identical at 1 and 4 worker
/// threads. One test drives both counts because the thread policy is a
/// process-wide global; interleaving with other tests would make the
/// counts unobservable (the *results* stay identical either way — that
/// is the invariant).
#[test]
fn replay_output_is_bit_identical_across_thread_counts() {
    let text = record(33);
    let engine = engine_for(&text);
    let spec = SweepSpec::parse("retry_budget=0..4").unwrap();

    let run_all = || {
        let ok = engine.self_check().ok();
        let cf = engine.replay(&PolicyOverrides {
            max_retries: Some(0),
            ..PolicyOverrides::default()
        });
        let jsonl = sweep_to_jsonl(&engine.sweep(&spec).unwrap());
        (ok, cf, jsonl)
    };

    mdg_par::set_threads(1);
    let at_1 = run_all();
    mdg_par::set_threads(4);
    let at_4 = run_all();
    mdg_par::set_threads(0);

    assert!(at_1.0 && at_4.0, "self-check must pass at any thread count");
    assert_eq!(
        at_1.1, at_4.1,
        "counterfactual result must not depend on threads"
    );
    assert_eq!(
        at_1.2, at_4.2,
        "sweep JSONL must be byte-identical at 1 vs 4 threads"
    );
    assert!(
        !at_1.2.is_empty(),
        "a 20% loss run must diverge somewhere in the sweep"
    );
}

/// Replaying the recorded policy explicitly (not via self_check) yields
/// zero divergences — the no-op counterfactual is exact.
#[test]
fn noop_counterfactual_is_exact() {
    let text = record(7);
    let engine = engine_for(&text);
    let r = engine.replay(&PolicyOverrides::default());
    assert!(r.divergences.is_empty());
    assert_eq!(r.original, r.counterfactual);
}

/// A legacy headerless trace parses fine as records but cannot be
/// replayed, and the error tells the user to re-record.
#[test]
fn legacy_trace_parses_but_cannot_replay() {
    let text = record(1);
    let legacy: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let bundle = parse_bundle(&legacy).unwrap();
    assert!(bundle.header.is_none(), "stripped trace must look legacy");
    assert_eq!(bundle.records.len(), 5);
    let err = ReplayEngine::from_bundle(&bundle).unwrap_err();
    assert_eq!(err, ReplayError::MissingHeader);
    assert!(err.to_string().contains("re-record"), "{err}");
}

/// A bundle stamped with a future format version is rejected at parse
/// time with a message naming the problem.
#[test]
fn future_format_version_is_rejected() {
    let text = record(1);
    let bumped = text.replacen("\"version\":1", "\"version\":99", 1);
    let err = parse_bundle(&bumped).unwrap_err();
    assert!(err.contains("newer than this binary supports"), "{err}");
}

/// Sweep bounds are enforced: the 21st value is one too many, matching
/// the bd-2fa ParameterSweep cap of 20.
#[test]
fn sweep_bound_is_twenty_values() {
    assert_eq!(MAX_SWEEP_VALUES, 20);
    assert!(SweepSpec::new("retry_budget", (0..20).map(f64::from).collect()).is_ok());
    assert!(matches!(
        SweepSpec::new("retry_budget", (0..21).map(f64::from).collect()),
        Err(ReplayError::TooManyValues(21))
    ));
    assert!(matches!(
        SweepSpec::parse("retry_budget=0..20"),
        Err(ReplayError::TooManyValues(21))
    ));
}

/// A trace is a file from outside the program: a header value the runtime
/// would reject is a `ReplayError`, not a panic, and so is a backoff
/// override whose 64× retry wait would overflow to infinity.
#[test]
fn out_of_range_manifest_values_are_errors_not_panics() {
    let text = record(7);
    let (header, records) = text.split_once('\n').unwrap();
    for (field, bad, expect) in [
        ("\"loss_rate\":0.2", "\"loss_rate\":2.0", "loss rate"),
        (
            "\"death_horizon_secs\":2500.0",
            "\"death_horizon_secs\":-1.0",
            "death horizon",
        ),
        ("\"speed_mps\":1.0", "\"speed_mps\":0.0", "speed"),
        ("\"upload_secs\":0.5", "\"upload_secs\":-1.0", "upload time"),
        ("\"range\":30.0", "\"range\":-1.0", "range"),
        ("\"range\":30.0", "\"range\":1e300", "range"),
        ("\"side\":180.0", "\"side\":-5.0", "side"),
        // Finite, but every distance overflows: the tour build used to
        // index out of bounds.
        ("\"side\":180.0", "\"side\":1e300", "side"),
        (
            "\"packet_bits\":4000.0",
            "\"packet_bits\":0.0",
            "packet_bits",
        ),
        ("\"e_amp\":0.0000000001", "\"e_amp\":-1.0", "e_amp"),
        ("\"alpha\":2.0", "\"alpha\":-2.0", "alpha"),
        ("\"backoff_secs\":0.2", "\"backoff_secs\":1e308", "backoff"),
        ("\"battery_j\":null", "\"battery_j\":-1.0", "battery"),
    ] {
        assert_eq!(header.matches(field).count(), 1, "{field} in {header}");
        let edited = format!("{}\n{records}", header.replace(field, bad));
        let bundle = parse_bundle(&edited).unwrap();
        match ReplayEngine::from_bundle(&bundle) {
            Err(ReplayError::Plan(msg)) => assert!(msg.contains(expect), "{bad}: {msg}"),
            Err(other) => panic!("{bad}: unexpected error {other}"),
            Ok(_) => panic!("{bad}: the manifest was accepted"),
        }
    }
    // `mdg replay --backoff` and `--sweep backoff_secs=…` set the knob.
    let mut overrides = PolicyOverrides::default();
    assert!(matches!(
        overrides.set("backoff_secs", 1e308),
        Err(ReplayError::BadValue(_))
    ));
    assert!(matches!(
        SweepSpec::parse("backoff_secs=0.5,1e308"),
        Err(ReplayError::BadValue(_))
    ));
    assert!(
        overrides.set("backoff_secs", 1e12).is_ok(),
        "the bound itself"
    );
}
