//! Golden plan corpus: pins the planners' output from one commit to the
//! next.
//!
//! The equivalence suites compare thread counts, arenas and profiling
//! within one build; this file compares a build against a committed
//! table. Each row of [`GOLDEN`] holds a scenario id, the plan's
//! polling-point count, `tour_length.to_bits()` and the FNV-1a 64 digest
//! of the plan's `serde_json` bytes. Multi-step scenarios (a delta
//! sequence, a serving session) digest the plan after every step, so an
//! intermediate change cannot hide behind an identical end state. The
//! last three rows digest the bytes of files the `mdg` binary writes: a
//! `runtime --trace` bundle, the `replay --sweep` JSONL over it and the
//! pretty-printed `plan --out` bundle; their count and tour columns are 0.
//!
//! Re-bless rule: a change that alters plans pastes in the fresh rows
//! this test prints on a mismatch, and its CHANGES entry names each
//! changed scenario and why. Every other change leaves the table as it
//! is.
//!
//! Plans are deterministic at any thread count and with allocation
//! counting on (`MDG_COUNT_ALLOC=1`), so the table holds under any
//! `MDG_THREADS` and in debug and release builds alike.

use mobile_collectors::core::{
    exact_plan, plan_fleet, plan_fleet_for_deadline, CandidateMode, CoveringStrategy,
    GatheringPlan, HierConfig, HierPlan, HierPlanner, PlannerConfig, ShdgPlanner,
};
use mobile_collectors::geom::Point;
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::serve::{DeltaMode, FieldSession};
use std::process::Command;

/// `(scenario, polling points, tour_length.to_bits(), FNV-1a 64 digest)`.
type Row = (&'static str, usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("e1_heuristic", 5, 0x4065c57b87021bf1, 0x87402e69c943e316),
    ("e1_exact", 5, 0x4065c57b87021bf1, 0x87402e69c943e316),
    ("flat_n200_default", 25, 0x408bbaf523b4769b, 0x59851f832f53b2d6),
    ("flat_n200_greedy", 22, 0x408b2caa119156b6, 0x2848f4727a32938c),
    ("flat_n200_noprune", 42, 0x408f0af96dcd2e88, 0x810e4225e354e33c),
    ("flat_n200_cap5", 47, 0x4091549c1033c307, 0x51d77c9f83dde096),
    ("flat_n200_grid", 25, 0x408b80f7953f55f0, 0x89dc319c23369905),
    ("flat_n2000_default", 420, 0x40d1ae56fd4fbe51, 0x931f4edd71a8acd3),
    ("flat_n2000_greedy", 407, 0x40d1c6beec841455, 0xceff0217623af345),
    ("flat_n2000_noprune", 588, 0x40d355ff71317e8c, 0x9990dbf12147d5da),
    ("flat_n2000_cap5", 517, 0x40d380b7c3c61042, 0xe0c6d6522ee73184),
    ("flat_n2000_grid", 424, 0x40d15bc06df17fb1, 0xce10075a1632aa4f),
    ("flat_n5000_default", 296, 0x40c3e1ed53c22cbf, 0xc98586a9854fdf15),
    ("hier_t1_tour_aware", 417, 0x40d1631014dd4a6b, 0x8fe4f6007f52f4d9),
    ("hier_t1_greedy", 399, 0x40d1a151747b072d, 0xe10c3542ee5d8b05),
    ("hier_t1_cap5", 519, 0x40d329c2b352ee52, 0xc27f2310c2a2f4cc),
    ("hier_t4_tour_aware", 422, 0x40d226a3f97466bd, 0xa23c5341a00d3017),
    ("hier_t4_greedy", 403, 0x40d20afac0a9a669, 0x1bab3d2841fee429),
    ("hier_t4_cap5", 532, 0x40d3f8cd3c0273da, 0x1579d503efe1c85e),
    ("hier_t16_tour_aware", 443, 0x40d2ee72c59a120b, 0x077210cf6516bc28),
    ("hier_t16_greedy", 427, 0x40d2de851ae08f35, 0x2fbe85fae0480428),
    ("hier_t16_cap5", 558, 0x40d48b8204bc5dfa, 0x690d3a95f902bf6c),
    ("hier_delta_20_rounds", 507, 0x40d73423be46f3ed, 0x731004ec0b643095),
    ("session_cold", 31, 0x4093f04faa84a2dd, 0x933f22ccf3aa45a1),
    ("session_churn", 31, 0x4093ca1a3a8dab0f, 0xb6aeabce69aed9b8),
    ("session_range", 60, 0x40973c1ef57d5d37, 0xf535bdb02e628d85),
    ("session_mass_death", 45, 0x4099171380043301, 0xf3767537569f57c4),
    ("fleet_k3", 25, 0x40922db4d4be5fba, 0xa4ade6a70865f759),
    ("fleet_deadline", 25, 0x4091988437f8b15c, 0xa50365c131fed601),
    ("fleet_hier_k4", 443, 0x40d58ca9104a33dc, 0xcc0fbd9333a9acad),
    ("fleet_hier_deadline", 443, 0x40d4da77b647d87b, 0x8047d7a8463c9d3c),
    ("cli_runtime_trace", 0, 0x0000000000000000, 0x65afe956302a31ab),
    ("cli_replay_sweep", 0, 0x0000000000000000, 0xa924d7bd2b5f2af3),
    ("cli_plan_bundle", 0, 0x0000000000000000, 0x15e8b0f022220de6),
];

const RANGE: f64 = 30.0;

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn plan_bytes(plan: &GatheringPlan) -> Vec<u8> {
    serde_json::to_string(plan)
        .expect("plans serialize")
        .into_bytes()
}

fn plan_row(id: &'static str, plan: &GatheringPlan) -> Row {
    (
        id,
        plan.n_polling_points(),
        plan.tour_length.to_bits(),
        fnv1a(FNV_OFFSET, &plan_bytes(plan)),
    )
}

fn uniform(n: usize, side: f64, range: f64, seed: u64) -> Network {
    Network::build(DeploymentConfig::uniform(n, side).generate(seed), range)
}

/// Compares `fresh` with the committed rows whose id starts with one of
/// `prefixes`, printing the fresh rows on a mismatch.
fn check(prefixes: &[&str], fresh: &[Row]) {
    let pinned: Vec<Row> = GOLDEN
        .iter()
        .copied()
        .filter(|r| prefixes.iter().any(|p| r.0.starts_with(p)))
        .collect();
    if pinned == fresh {
        return;
    }
    let mut msg = String::from("plans differ from the golden corpus; fresh rows:\n");
    for r in fresh {
        msg += &format!("    ({:?}, {}, {:#018x}, {:#018x}),\n", r.0, r.1, r.2, r.3);
    }
    let changed: Vec<&str> = fresh
        .iter()
        .filter(|r| !pinned.contains(r))
        .map(|r| r.0)
        .collect();
    msg += &format!("changed or new scenarios: {changed:?}");
    panic!("{msg}");
}

/// Default, greedy, no-prune, cap-5 and grid-candidate planners.
fn flat_configs() -> [PlannerConfig; 5] {
    let d = PlannerConfig::default();
    [
        d,
        PlannerConfig {
            covering: CoveringStrategy::Greedy,
            ..d
        },
        PlannerConfig { prune: false, ..d },
        PlannerConfig {
            max_sensors_per_pp: Some(5),
            ..d
        },
        PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 20.0 },
            ..d
        },
    ]
}

#[test]
fn flat_plans_match_the_golden_corpus() {
    mobile_collectors::obs::alloc::counting_from_env();
    let mut fresh = Vec::new();

    // E1's worked example: 16 sensors on a 70 m field, R = 25 m.
    let e1 = uniform(16, 70.0, 25.0, 42);
    fresh.push(plan_row(
        "e1_heuristic",
        &ShdgPlanner::new().plan(&e1).unwrap(),
    ));
    fresh.push(plan_row("e1_exact", &exact_plan(&e1).unwrap()));

    for (n, side, ids) in [
        (
            200usize,
            200.0,
            [
                "flat_n200_default",
                "flat_n200_greedy",
                "flat_n200_noprune",
                "flat_n200_cap5",
                "flat_n200_grid",
            ],
        ),
        (
            2000,
            1000.0,
            [
                "flat_n2000_default",
                "flat_n2000_greedy",
                "flat_n2000_noprune",
                "flat_n2000_cap5",
                "flat_n2000_grid",
            ],
        ),
    ] {
        let net = uniform(n, side, RANGE, 7);
        for (id, cfg) in ids.into_iter().zip(flat_configs()) {
            let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
            plan.validate(&net.deployment.sensors, RANGE).unwrap();
            fresh.push(plan_row(id, &plan));
        }
    }

    // More candidates than one block of the tour-aware cover's parallel
    // scan (2 048) and cache update (4 096), so its block boundaries
    // are pinned too.
    let net = uniform(5000, 707.0, RANGE, 7);
    let plan = ShdgPlanner::new().plan(&net).unwrap();
    plan.validate(&net.deployment.sensors, RANGE).unwrap();
    fresh.push(plan_row("flat_n5000_default", &plan));
    check(&["e1_", "flat_"], &fresh);
}

#[test]
fn hier_plans_match_the_golden_corpus() {
    mobile_collectors::obs::alloc::counting_from_env();
    let net = uniform(2000, 1000.0, RANGE, 11);
    let [tour_aware, greedy, _, cap5, _] = flat_configs();
    let ids = [
        ["hier_t1_tour_aware", "hier_t1_greedy", "hier_t1_cap5"],
        ["hier_t4_tour_aware", "hier_t4_greedy", "hier_t4_cap5"],
        ["hier_t16_tour_aware", "hier_t16_greedy", "hier_t16_cap5"],
    ];
    let mut fresh = Vec::new();
    // 1200 m, 600 m and 300 m tiles over the ~1000 m field.
    for ((cells, occupied), ids) in [(40.0, 1usize), (20.0, 4), (10.0, 16)].into_iter().zip(ids) {
        for (id, base) in ids.into_iter().zip([tour_aware, greedy, cap5]) {
            let cfg = HierConfig {
                base,
                tile_cells: Some(cells),
            };
            let (plan, stats) = HierPlanner::with_config(cfg).plan_with_stats(&net).unwrap();
            assert_eq!(stats.n_occupied, occupied, "{id}");
            plan.validate(&net.deployment.sensors, RANGE).unwrap();
            fresh.push(plan_row(id, &plan));
        }
    }

    // A 20-round delta sequence on the 16-tile field: scattered deaths
    // every round, additions on odd rounds, a range change at round 10
    // and a mass death at round 15 (both escalate to a full rebuild).
    let cfg = HierConfig {
        tile_cells: Some(10.0),
        ..HierConfig::default()
    };
    let mut sensors = net.deployment.sensors.clone();
    let mut alive = vec![true; sensors.len()];
    let mut hp = HierPlan::build(&sensors, net.deployment.sink, RANGE, cfg).unwrap();
    let mut digest = FNV_OFFSET;
    let mut incremental = 0;
    for round in 0..20u64 {
        let n = sensors.len() as u64;
        let mut died: Vec<u32> = if round == 15 {
            (0..n as u32).step_by(3).collect()
        } else {
            (0..4u64)
                .map(|i| ((round * 7919 + i * 104_729) % n) as u32)
                .collect()
        };
        died.retain(|&d| alive[d as usize]);
        died.sort_unstable();
        died.dedup();
        for &d in &died {
            alive[d as usize] = false;
        }
        if round % 2 == 1 {
            for k in 0..2u64 {
                let g = (sensors.len() as u64 + k) as f64;
                sensors.push(Point::new((g * 37.0) % 1000.0, (g * 53.0) % 1000.0));
                alive.push(true);
            }
        }
        let range = (round == 10).then_some(25.0);
        let report = hp.apply_delta(&sensors, &alive, &died, range).unwrap();
        if round == 10 || round == 15 {
            assert!(report.full_rebuild, "round {round} must escalate");
        } else if !report.full_rebuild {
            incremental += 1;
        }
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        digest = fnv1a(digest, &plan_bytes(hp.plan()));
    }
    assert!(incremental >= 12, "only {incremental} dirty-tile rounds");
    fresh.push((
        "hier_delta_20_rounds",
        hp.plan().n_polling_points(),
        hp.plan().tour_length.to_bits(),
        digest,
    ));
    check(&["hier_"], &fresh);
}

#[test]
fn sessions_and_fleets_match_the_golden_corpus() {
    mobile_collectors::obs::alloc::counting_from_env();
    let mut fresh = Vec::new();

    // A flat serving session through churn (deaths of two stop anchors
    // and a covered sensor, plus three additions), a range change and a
    // mass death that escalates repair to a full re-plan.
    let dep = DeploymentConfig::uniform(300, 250.0).generate(5);
    let mut s = FieldSession::plan_cold("golden", dep, RANGE, PlannerConfig::default()).unwrap();
    fresh.push(plan_row("session_cold", s.plan()));
    let plan = s.plan();
    let mut died: Vec<u64> = plan.polling_points[..2]
        .iter()
        .map(|pp| pp.candidate as u64)
        .collect();
    let anchors: Vec<usize> = plan.polling_points.iter().map(|pp| pp.candidate).collect();
    died.push((0..300).find(|s| !anchors.contains(s)).unwrap() as u64);
    let added = [
        Point::new(5.0, 5.0),
        Point::new(245.0, 12.0),
        Point::new(125.0, 240.0),
    ];
    assert_eq!(
        s.apply_delta(&died, &added, None).unwrap().mode,
        DeltaMode::Repair
    );
    fresh.push(plan_row("session_churn", s.plan()));
    s.apply_delta(&[], &[], Some(25.0)).unwrap();
    fresh.push(plan_row("session_range", s.plan()));
    let anchors: Vec<u64> = s
        .plan()
        .polling_points
        .iter()
        .map(|pp| pp.candidate as u64)
        .collect();
    assert_eq!(
        s.apply_delta(&anchors, &[], None).unwrap().mode,
        DeltaMode::Replan
    );
    s.plan()
        .validate_live(s.sensors(), s.range(), s.alive())
        .unwrap();
    fresh.push(plan_row("session_mass_death", s.plan()));

    // Fleets split the n = 200 default plan, then the retained plan of
    // the 16-tile hier field.
    let net = uniform(200, 200.0, RANGE, 7);
    let flat = ShdgPlanner::new().plan(&net).unwrap();
    let net = uniform(2000, 1000.0, RANGE, 11);
    let cfg = HierConfig {
        tile_cells: Some(10.0),
        ..HierConfig::default()
    };
    let hier = HierPlan::build(&net.deployment.sensors, net.deployment.sink, RANGE, cfg).unwrap();
    for (ids, k, plan) in [
        (["fleet_k3", "fleet_deadline"], 3, &flat),
        (["fleet_hier_k4", "fleet_hier_deadline"], 4, hier.plan()),
    ] {
        let deadline = plan.collection_time(1.0, 0.5) / (k - 1) as f64;
        for (id, fleet) in ids.into_iter().zip([
            plan_fleet(plan, k),
            plan_fleet_for_deadline(plan, deadline, 1.0, 0.5).unwrap(),
        ]) {
            fleet.validate(plan).unwrap();
            let stops = fleet
                .collectors
                .iter()
                .map(|c| c.polling_points.len())
                .sum();
            let json = serde_json::to_string(&fleet).unwrap();
            fresh.push((
                id,
                stops,
                fleet.total_length().to_bits(),
                fnv1a(FNV_OFFSET, json.as_bytes()),
            ));
        }
    }
    check(&["session_", "fleet_"], &fresh);
}

#[test]
fn cli_artifacts_match_the_golden_corpus() {
    mobile_collectors::obs::alloc::counting_from_env();
    let dir = std::env::temp_dir().join(format!("mdg_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let sweep = dir.join("sweep.jsonl");
    let bundle = dir.join("bundle.json");
    let mdg = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mdg"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    mdg(&[
        "runtime",
        "--n",
        "300",
        "--side",
        "170",
        "--range",
        "30",
        "--seed",
        "42",
        "--rounds",
        "8",
        "--deaths",
        "0.1",
        "--loss",
        "0.2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    mdg(&[
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--sweep",
        "retry_budget=0..2",
        "--out",
        sweep.to_str().unwrap(),
    ]);
    mdg(&[
        "plan",
        "--n",
        "300",
        "--side",
        "170",
        "--range",
        "30",
        "--seed",
        "42",
        "--out",
        bundle.to_str().unwrap(),
    ]);
    let fresh: Vec<Row> = [
        ("cli_runtime_trace", &trace),
        ("cli_replay_sweep", &sweep),
        ("cli_plan_bundle", &bundle),
    ]
    .into_iter()
    .map(|(id, path)| (id, 0, 0, fnv1a(FNV_OFFSET, &std::fs::read(path).unwrap())))
    .collect();
    std::fs::remove_dir_all(&dir).ok();
    check(&["cli_"], &fresh);
}
