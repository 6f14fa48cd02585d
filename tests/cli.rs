//! Integration tests for the `mdg` command-line tool, driven through the
//! compiled binary (`CARGO_BIN_EXE_mdg`).

use mobile_collectors::serve::MetricsResponse;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mdg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdg"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `mdg` like [`mdg`], but a process still running after `limit` is
/// killed and fails the test, so a daemon that should have refused to
/// start cannot hang the suite.
fn mdg_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdg"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("kill the child");
            child.wait().expect("reap the child");
            panic!("`mdg {}` still running after {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdg_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn plan_prints_metrics_and_writes_a_bundle() {
    let bundle = tmp("bundle.json");
    let out = mdg(&[
        "plan",
        "--n",
        "80",
        "--side",
        "150",
        "--range",
        "30",
        "--seed",
        "7",
        "--out",
        bundle.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("polling points"), "{text}");
    assert!(text.contains("tour"), "{text}");
    let json = std::fs::read_to_string(&bundle).unwrap();
    assert!(json.contains("\"plan\""));
    assert!(json.contains("\"deployment\""));
    assert!(json.contains("\"range\""));
}

#[test]
fn full_pipeline_plan_fleet_simulate_render() {
    let bundle = tmp("pipeline.json");
    let svg = tmp("pipeline.svg");
    assert!(mdg(&[
        "plan",
        "--n",
        "60",
        "--side",
        "150",
        "--range",
        "30",
        "--out",
        bundle.to_str().unwrap(),
    ])
    .status
    .success());

    let fleet = mdg(&["fleet", "--bundle", bundle.to_str().unwrap(), "--k", "3"]);
    assert!(fleet.status.success(), "{}", stderr(&fleet));
    assert!(stdout(&fleet).contains("collector(s)"));

    let sim = mdg(&["simulate", "--bundle", bundle.to_str().unwrap()]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    let sim_out = stdout(&sim);
    assert!(
        sim_out.contains("60/60"),
        "all packets collected: {sim_out}"
    );

    let render = mdg(&[
        "render",
        "--bundle",
        bundle.to_str().unwrap(),
        "--out",
        svg.to_str().unwrap(),
    ]);
    assert!(render.status.success(), "{}", stderr(&render));
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));
    assert!(svg_text.contains("<circle"));
}

#[test]
fn deadline_fleet_and_lifetime() {
    let bundle = tmp("deadline.json");
    assert!(mdg(&[
        "plan",
        "--n",
        "100",
        "--side",
        "250",
        "--range",
        "30",
        "--out",
        bundle.to_str().unwrap(),
    ])
    .status
    .success());

    let fleet = mdg(&[
        "fleet",
        "--bundle",
        bundle.to_str().unwrap(),
        "--deadline",
        "600",
        "--speed",
        "1",
        "--upload",
        "0.5",
    ]);
    assert!(fleet.status.success(), "{}", stderr(&fleet));

    let life = mdg(&[
        "simulate",
        "--bundle",
        bundle.to_str().unwrap(),
        "--battery",
        "0.01",
    ]);
    assert!(life.status.success(), "{}", stderr(&life));
    assert!(stdout(&life).contains("first death"));
}

#[test]
fn stats_subcommand() {
    let out = mdg(&["stats", "--n", "120", "--side", "200", "--range", "30"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("components"));
    assert!(text.contains("sink reach"));
}

#[test]
fn capacitated_plan_flag() {
    let out = mdg(&[
        "plan", "--n", "100", "--side", "150", "--range", "30", "--cap", "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Buffer line reports a max/pp within the cap.
    let buffer_line = text.lines().find(|l| l.contains("buffer")).unwrap();
    let max: usize = buffer_line
        .rsplit(' ')
        .next()
        .unwrap()
        .trim()
        .parse()
        .expect("numeric buffer");
    assert!(max <= 5, "{buffer_line}");
}

#[test]
fn a_zero_cap_is_an_error_not_a_panic() {
    // No polling point could take a sensor: both planners refuse the
    // bound with `error: …` and exit 1 instead of tripping an assert.
    for extra in [&[][..], &["--hier"][..]] {
        let mut args = vec![
            "plan", "--n", "100", "--side", "150", "--range", "30", "--cap", "0",
        ];
        args.extend_from_slice(extra);
        let out = mdg(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {err}");
        assert!(err.starts_with("error: "), "{extra:?}: {err}");
        assert!(err.contains("max_sensors_per_pp"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?}: {err}");
    }
}

#[test]
fn bad_numeric_flags_are_errors_not_panics() {
    // Collector counts, speeds, deadlines, upload pauses and batteries
    // out of range used to reach library asserts (exit 101) or, for a NaN
    // upload, be taken as a number. Each is `error: …` naming the flag
    // and exit 1.
    let bundle = tmp("bad_numbers.json");
    let out = mdg(&[
        "plan",
        "--n",
        "60",
        "--side",
        "150",
        "--range",
        "30",
        "--out",
        bundle.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let b = bundle.to_str().unwrap();
    let cases: [(&[&str], &str); 13] = [
        (&["fleet", "--k", "0"], "--k"),
        (&["fleet", "--k", "3", "--speed", "-1"], "--speed"),
        (&["fleet", "--k", "3", "--speed", "0"], "--speed"),
        (&["fleet", "--deadline", "100", "--speed", "0"], "--speed"),
        (&["fleet", "--deadline", "-5"], "--deadline"),
        (&["fleet", "--deadline", "inf"], "--deadline"),
        (
            &["fleet", "--deadline", "100", "--upload", "nan"],
            "--upload",
        ),
        (&["fleet", "--k", "2", "--upload", "-1"], "--upload"),
        (&["simulate", "--speed", "0"], "--speed"),
        (&["simulate", "--speed", "nan"], "--speed"),
        (&["simulate", "--upload", "-1"], "--upload"),
        (&["simulate", "--battery", "-5"], "--battery"),
        (&["simulate", "--battery", "nan"], "--battery"),
    ];
    for (args, flag) in cases {
        let mut cmd = vec![args[0], "--bundle", b];
        cmd.extend_from_slice(&args[1..]);
        let out = mdg(&cmd);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{cmd:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(flag),
            "{cmd:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{cmd:?}: {err}");
    }
    // `mdg runtime` reads `--battery` the same way.
    let out = mdg(&[
        "runtime",
        "--n",
        "30",
        "--side",
        "100",
        "--range",
        "30",
        "--rounds",
        "1",
        "--battery",
        "-5",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: --battery"), "{err}");
    // `--tile-cells 1e308` is finite, but its tile side in meters is not.
    let out = mdg(&[
        "plan",
        "--n",
        "200",
        "--side",
        "200",
        "--range",
        "30",
        "--hier",
        "--tile-cells",
        "1e308",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("error: ") && err.contains("tile size"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    // A zero upload pause is a valid setting.
    let out = mdg(&["simulate", "--bundle", b, "--upload", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn a_huge_side_is_an_error_not_a_panic() {
    // A 1e200 m side overflows every distance to infinity. Lengths get the
    // bundle and daemon bound instead: `error: …` and exit 1.
    let lp = tmp("huge.lp");
    for cmd in [
        vec!["plan"],
        vec!["runtime", "--rounds", "2"],
        vec!["stats"],
        vec!["export-ilp", "--out", lp.to_str().unwrap()],
    ] {
        for (side, range) in [("1e200", "30"), ("100", "1e200")] {
            let mut args = cmd.clone();
            args.extend(["--n", "10", "--side", side, "--range", range]);
            let out = mdg(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(err.starts_with("error: "), "{args:?}: {err}");
            assert!(err.contains("exceeds the 1e12 m bound"), "{args:?}: {err}");
        }
    }
    // The bound itself still plans.
    let out = mdg(&["plan", "--n", "10", "--side", "1e12", "--range", "30"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn plan_auto_selects_hier_above_the_threshold() {
    // Above the (lowered) threshold the planner goes hierarchical on its
    // own, says so on stderr, and reports tiling stats on stdout.
    let auto = mdg(&[
        "plan",
        "--n",
        "300",
        "--side",
        "300",
        "--range",
        "30",
        "--hier-threshold",
        "200",
    ]);
    assert!(auto.status.success(), "{}", stderr(&auto));
    assert!(
        stderr(&auto).contains("planning hierarchically"),
        "{}",
        stderr(&auto)
    );
    assert!(stdout(&auto).contains("tiles"), "{}", stdout(&auto));

    // --no-hier opts out at any size.
    let flat = mdg(&[
        "plan",
        "--n",
        "300",
        "--side",
        "300",
        "--range",
        "30",
        "--hier-threshold",
        "200",
        "--no-hier",
    ]);
    assert!(flat.status.success(), "{}", stderr(&flat));
    assert!(!stderr(&flat).contains("planning hierarchically"));
    assert!(!stdout(&flat).contains("tiles"), "{}", stdout(&flat));

    // Below the threshold nothing changes.
    let small = mdg(&["plan", "--n", "80", "--side", "150", "--range", "30"]);
    assert!(small.status.success());
    assert!(!stdout(&small).contains("tiles"));

    // The two forcing flags cannot be combined.
    let both = mdg(&[
        "plan",
        "--n",
        "80",
        "--side",
        "150",
        "--range",
        "30",
        "--hier",
        "--no-hier",
    ]);
    assert!(!both.status.success());
    assert!(stderr(&both).contains("mutually exclusive"));
}

#[test]
fn errors_are_reported_cleanly() {
    // Missing required flag.
    let out = mdg(&["plan", "--n", "50"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--side"));
    // Unknown subcommand.
    let out = mdg(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown subcommand"));
    // Nonexistent bundle.
    let out = mdg(&["simulate", "--bundle", "/nonexistent/x.json"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
    // Fleet without k or deadline.
    let bundle = tmp("err.json");
    assert!(mdg(&[
        "plan",
        "--n",
        "20",
        "--side",
        "100",
        "--range",
        "30",
        "--out",
        bundle.to_str().unwrap()
    ])
    .status
    .success());
    let out = mdg(&["fleet", "--bundle", bundle.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--k or --deadline"));
}

#[test]
fn malformed_bundles_are_rejected_cleanly() {
    // A hand-edited bundle gets the daemon's `plan` checks: `error: …` and
    // exit 1, never a panic inside the graph build.
    let good = tmp("malformed_src.json");
    let out = mdg(&[
        "plan",
        "--n",
        "30",
        "--side",
        "100",
        "--range",
        "30",
        "--out",
        good.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let base = std::fs::read_to_string(&good).unwrap();
    assert!(base.contains("\"range\": 30.0"), "{base}");
    let svg = tmp("malformed.svg");
    type Edit = fn(&str) -> String;
    let cases: [(&str, Edit, &str); 4] = [
        (
            "range_zero",
            |b| b.replace("\"range\": 30.0", "\"range\": 0"),
            "range must be positive",
        ),
        (
            "range_negative",
            |b| b.replace("\"range\": 30.0", "\"range\": -5"),
            "range must be positive",
        ),
        (
            // The first `"x"` in the file is sensor 0's.
            "far_sensor",
            |b| {
                let x = b.find("\"x\": ").unwrap() + 5;
                let end = x + b[x..].find(',').unwrap();
                format!("{}1e13{}", &b[..x], &b[end..])
            },
            "sensor positions must be finite and within",
        ),
        (
            // 200 000 `[` used to overflow the parser's stack: exit 134.
            "deep_nesting",
            |_| "[".repeat(200_000),
            "nests deeper than 128",
        ),
    ];
    for (name, edit, expected) in cases {
        let path = tmp(&format!("{name}.json"));
        std::fs::write(&path, edit(&base)).unwrap();
        let path = path.to_str().unwrap();
        for cmd in [
            vec!["simulate", "--bundle", path],
            vec!["fleet", "--bundle", path, "--k", "2"],
            vec!["render", "--bundle", path, "--out", svg.to_str().unwrap()],
        ] {
            let out = mdg(&cmd);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {cmd:?}: {err}");
            assert!(
                err.starts_with("error: bad bundle") && err.contains(expected),
                "{name} {cmd:?}: {err}"
            );
        }
    }
}

#[test]
fn export_ilp_writes_a_model() {
    let lp = tmp("model.lp");
    let out = mdg(&[
        "export-ilp",
        "--n",
        "8",
        "--side",
        "70",
        "--range",
        "25",
        "--out",
        lp.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let model = std::fs::read_to_string(&lp).unwrap();
    assert!(model.contains("Minimize"));
    assert!(model.contains("Binary"));
    assert!(model.trim_end().ends_with("End"));
}

#[test]
fn plans_are_reproducible_across_invocations() {
    let a = stdout(&mdg(&[
        "plan", "--n", "70", "--side", "180", "--range", "30", "--seed", "5",
    ]));
    let b = stdout(&mdg(&[
        "plan", "--n", "70", "--side", "180", "--range", "30", "--seed", "5",
    ]));
    assert_eq!(a, b);
    let c = stdout(&mdg(&[
        "plan", "--n", "70", "--side", "180", "--range", "30", "--seed", "6",
    ]));
    assert_ne!(a, c);
}

#[test]
fn threads_clamp_emits_a_warning_with_requested_and_effective() {
    let out = mdg(&[
        "plan",
        "--n",
        "30",
        "--side",
        "100",
        "--range",
        "30",
        "--threads",
        "9999",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning") && err.contains("9999") && err.contains("128"),
        "clamp warning must name requested and effective counts: {err}"
    );
    assert!(err.contains("(128 threads)"), "{err}");
    // An in-range request stays silent.
    let ok = mdg(&[
        "plan",
        "--n",
        "30",
        "--side",
        "100",
        "--range",
        "30",
        "--threads",
        "2",
    ]);
    assert!(ok.status.success());
    assert!(!stderr(&ok).contains("warning"), "{}", stderr(&ok));
}

#[test]
fn plan_profile_prints_a_phase_tree_on_stderr() {
    let out = mdg(&[
        "plan",
        "--n",
        "200",
        "--side",
        "200",
        "--range",
        "30",
        "--profile",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    for phase in ["plan", "cover", "tour", "assign"] {
        assert!(err.contains(phase), "missing phase `{phase}` in: {err}");
    }
    // `network` splits into the build's phases under a `udg` row of its
    // own; the centre sink derives the sensor graph from the full one.
    for phase in ["network", "udg", "grid", "count", "fill", "derive"] {
        assert!(
            err.lines()
                .any(|l| l.split_whitespace().next() == Some(phase)),
            "missing phase row `{phase}` in: {err}"
        );
    }
    // Profiling must not leak into the deterministic stdout report.
    let plain = mdg(&["plan", "--n", "200", "--side", "200", "--range", "30"]);
    assert_eq!(stdout(&out), stdout(&plain), "profiling changed stdout");
}

#[test]
fn hier_profile_splits_each_tile_into_instance_and_cover_rows() {
    let out = mdg(&[
        "plan",
        "--hier",
        "--n",
        "3000",
        "--side",
        "550",
        "--range",
        "30",
        "--profile",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    // Each tile's coverage instance is built under a span of its own,
    // a child of `tile` beside `cover`.
    let rows: Vec<&str> = err.lines().collect();
    let tile = rows
        .iter()
        .position(|l| l.split_whitespace().next() == Some("tile"))
        .unwrap_or_else(|| panic!("missing phase row `tile` in: {err}"));
    let indent = |l: &str| l.len() - l.trim_start().len();
    let children: Vec<&str> = rows[tile + 1..]
        .iter()
        .take_while(|l| indent(l) > indent(rows[tile]))
        .filter(|l| indent(l) == indent(rows[tile]) + 2)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for phase in ["instance", "cover"] {
        assert!(
            children.contains(&phase),
            "no `{phase}` row under `tile` in: {err}"
        );
    }
}

#[test]
fn plan_count_allocs_annotates_timing_without_changing_stdout() {
    let counted = mdg(&[
        "plan",
        "--n",
        "150",
        "--side",
        "200",
        "--range",
        "30",
        "--count-allocs",
    ]);
    assert!(counted.status.success(), "{}", stderr(&counted));
    let err = stderr(&counted);
    let timing = err
        .lines()
        .find(|l| l.contains("planning time"))
        .unwrap_or_else(|| panic!("no timing line in: {err}"));
    assert!(
        timing.contains("alloc=") && timing.contains("MiB"),
        "timing line must carry the alloc tally: {timing}"
    );

    // Counting must not leak into the deterministic stdout report, and a
    // plain run's timing line must stay alloc-free.
    let plain = mdg(&["plan", "--n", "150", "--side", "200", "--range", "30"]);
    assert!(plain.status.success());
    assert_eq!(stdout(&counted), stdout(&plain), "counting changed stdout");
    assert!(
        !stderr(&plain).contains("alloc="),
        "plain run must not report allocs: {}",
        stderr(&plain)
    );

    // The MDG_COUNT_ALLOC env var reaches the same switch (CI uses it).
    let via_env = Command::new(env!("CARGO_BIN_EXE_mdg"))
        .args(["plan", "--n", "150", "--side", "200", "--range", "30"])
        .env("MDG_COUNT_ALLOC", "1")
        .output()
        .expect("binary runs");
    assert!(via_env.status.success());
    assert!(stderr(&via_env).contains("alloc="), "{}", stderr(&via_env));
}

#[test]
fn plan_profile_json_writes_parseable_jsonl() {
    let path = tmp("profile.jsonl");
    let bundle = tmp("profile_bundle.json");
    let out = mdg(&[
        "plan",
        "--n",
        "150",
        "--side",
        "200",
        "--range",
        "30",
        "--profile-json",
        path.to_str().unwrap(),
        "--out",
        bundle.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.is_empty());
    let mut saw_span = false;
    let mut roots = Vec::new();
    for line in text.lines() {
        let v = serde_json::parse_value(line).expect("every line parses");
        let kind = match v.get("kind") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("missing kind field: {other:?}"),
        };
        assert!(
            matches!(kind.as_str(), "span" | "counter" | "hist"),
            "{kind}"
        );
        assert!(v.get("path").is_some(), "{line}");
        saw_span |= kind == "span";
        if let (true, Some(serde::Value::Str(p))) = (kind == "span", v.get("path")) {
            if !p.contains('/') {
                roots.push(p.clone());
            }
        }
    }
    assert!(saw_span, "profile must contain span records");
    // The whole CLI path is split, the bundle write included.
    assert_eq!(roots, ["generate", "network", "plan", "validate", "write"]);
}

#[test]
fn profile_json_without_a_path_is_an_error() {
    let out = mdg(&[
        "plan",
        "--n",
        "20",
        "--side",
        "100",
        "--range",
        "30",
        "--profile-json",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--profile-json needs a file path"));
}

#[test]
fn runtime_profile_covers_repair_and_sim_phases() {
    let out = mdg(&[
        "runtime",
        "--n",
        "80",
        "--side",
        "200",
        "--range",
        "30",
        "--rounds",
        "5",
        "--deaths",
        "0.2",
        "--profile",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    for phase in ["runtime", "round", "repair", "sim_round"] {
        assert!(err.contains(phase), "missing phase `{phase}` in: {err}");
    }
}

/// Full daemon round trip through the binary: start `serve --listen` on an
/// ephemeral port, drive plan → delta → metrics → shutdown with `serve
/// --connect` one-shots, and check the daemon exits cleanly.
#[test]
fn serve_daemon_round_trip_over_a_socket() {
    use std::io::BufRead;
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mdg"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    let mut first_line = String::new();
    std::io::BufReader::new(daemon.stdout.take().expect("stdout piped"))
        .read_line(&mut first_line)
        .expect("daemon prints its address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();

    let one_shot = |request: &str| -> (Output, String) {
        let out = mdg(&["serve", "--connect", &addr, "--request", request]);
        let text = stdout(&out);
        (out, text)
    };

    let (out, text) =
        one_shot(r#"{"cmd":"plan","field":"cli","n":200,"side":200,"range":30,"seed":5}"#);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("\"mode\":\"cold\""), "{text}");

    let (out, text) = one_shot(r#"{"cmd":"delta","field":"cli","died":[0,1,2]}"#);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("\"generation\":1"), "{text}");

    let (out, text) = one_shot(r#"{"cmd":"metrics"}"#);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("\"sessions\""), "{text}");
    assert!(text.contains("\"cli\""), "{text}");
    // The daemon is its own process, so its obs counters count exactly
    // the requests above.
    let metrics: MetricsResponse = serde_json::from_str(text.trim()).expect("metrics parses");
    assert!(
        metrics
            .counters
            .iter()
            .any(|c| c.path == "serve/requests/delta" && c.value == 1),
        "{text}"
    );
    assert!(
        metrics
            .hists
            .iter()
            .any(|h| h.path == "serve/latency_us/delta" && h.count == 1),
        "{text}"
    );

    // A malformed request errors without killing the daemon (exit 1 from
    // the client, but the daemon must still answer afterwards).
    let (out, text) = one_shot("{not json");
    assert!(!out.status.success());
    assert!(text.contains("bad_json"), "{text}");

    let (out, text) = one_shot(r#"{"cmd":"shutdown"}"#);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("\"draining\":true"), "{text}");

    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must drain cleanly: {status:?}");
}

/// Record a trace with `mdg runtime --trace`, then hold `mdg replay` to
/// its determinism contract: the self-check reproduces the recording, and
/// a retry-budget sweep writes byte-identical divergence JSONL at 1 and 4
/// worker threads.
#[test]
fn serve_limits_that_no_request_could_meet_are_errors() {
    // A 0-byte line limit answers every request, `shutdown` included, with
    // `oversized`, so only a signal would end that daemon. 2^44 MiB is
    // 2^64 bytes, which wraps to the same 0-byte limit. A session cap of
    // 0 would silently run as 1.
    for (flag, value) in [
        ("--max-line-mb", "0"),
        ("--max-line-mb", "17592186044416"),
        ("--max-sessions", "0"),
    ] {
        let out = mdg_within(
            &["serve", "--listen", "127.0.0.1:0", flag, value],
            Duration::from_secs(10),
        );
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
        assert!(!err.contains("panicked"), "{flag} {value}: {err}");
    }
}

/// A trace header is a file from outside the program: a field side whose
/// distances overflow, or a radio model `RadioModel::new` would refuse, is
/// `error: …` and exit 1, not a panic or a replay of free transmissions.
#[test]
fn replay_rejects_out_of_range_manifests() {
    let trace = tmp("replay_bad_src.jsonl");
    let out = mdg(&[
        "runtime",
        "--n",
        "30",
        "--side",
        "100",
        "--range",
        "30",
        "--seed",
        "5",
        "--rounds",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&trace).unwrap();
    for (field, bad, name) in [
        ("\"side\":100.0", "\"side\":1e300", "side"),
        (
            "\"packet_bits\":4000.0",
            "\"packet_bits\":0.0",
            "packet_bits",
        ),
        ("\"e_amp\":0.0000000001", "\"e_amp\":-1.0", "e_amp"),
    ] {
        assert_eq!(text.matches(field).count(), 1, "{field}");
        let path = tmp(&format!("replay_bad_{name}.jsonl"));
        std::fs::write(&path, text.replace(field, bad)).unwrap();
        let out = mdg(&["replay", "--trace", path.to_str().unwrap(), "--self-check"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{bad}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(name),
            "{bad}: {err}"
        );
    }
}

#[test]
fn replay_self_checks_and_sweeps_identically_across_thread_counts() {
    let trace = tmp("replay_trace.jsonl");
    let trace = trace.to_str().unwrap();
    let out = mdg(&[
        "runtime", "--n", "300", "--side", "170", "--range", "30", "--seed", "42", "--rounds", "8",
        "--deaths", "0.1", "--loss", "0.2", "--trace", trace,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = mdg(&["replay", "--trace", trace, "--self-check"]);
    assert!(out.status.success(), "{}", stderr(&out));

    let sweep = |threads: &str| -> Vec<u8> {
        let path = tmp(&format!("divergence_t{threads}.jsonl"));
        let out = mdg(&[
            "replay",
            "--trace",
            trace,
            "--sweep",
            "retry_budget=0..2",
            "--threads",
            threads,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        std::fs::read(&path).unwrap()
    };
    let one = sweep("1");
    assert!(!one.is_empty(), "the sweep wrote no divergence records");
    assert_eq!(
        one,
        sweep("4"),
        "sweep output differs between 1 and 4 threads"
    );
}
