//! Smoke-sized runs of every workload shape: each completes, checks its
//! outputs without a failure and reports every metric.

use mdg_perfbench::plan::{self, PlanSpec};
use mdg_perfbench::serve::{self, ServeSpec};
use mdg_perfbench::{Outcome, E2E_METRICS};

fn assert_clean(out: &Outcome, trace: bool) {
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.first_error);
    assert!(out.tally.attempted > 0);
    for &(name, _) in E2E_METRICS {
        assert!(out.e2e.get(name) > 0.0, "{name} is 0");
    }
    if trace {
        assert!(out.layers.get("core.validate_ms") > 0.0);
    }
}

#[test]
fn plan_workload_smoke() {
    let spec = PlanSpec {
        n: 2_000,
        seconds: 0.01,
    };
    for trace in [false, true] {
        let out = plan::run(&spec, 3, trace);
        assert_clean(&out, trace);
        if trace {
            assert!(out.layers.get("net.build_ms") > 0.0);
            assert!(out.layers.get("serde_json.bytes") > 0.0);
        }
    }
}

#[test]
fn flat_serve_workload_smoke() {
    let spec = ServeSpec::new(400, 0.01);
    let out = serve::run(&spec, 4, true);
    assert_clean(&out, true);
    assert!(out.layers.get("core.flat_plan_ms") > 0.0);
    assert!(out.layers.get("runtime.repair_ms_p50") > 0.0);
    assert_eq!(out.layers.get("core.hier_plan_ms"), 0.0);
}

#[test]
fn hier_serve_workload_smoke() {
    // A small field that still gets a hier session.
    let spec = ServeSpec {
        hier_threshold: 1_000,
        ..ServeSpec::new(3_000, 0.01)
    };
    let out = serve::run(&spec, 5, true);
    assert_clean(&out, true);
    assert!(out.layers.get("core.hier_plan_ms") > 0.0);
    assert!(out.layers.get("core.hier_delta_ms_p50") > 0.0);
    // The hier path never builds a network.
    assert_eq!(out.layers.get("net.build_ms"), 0.0);
    let untraced = serve::run(&spec, 5, false);
    assert_clean(&untraced, false);
}
