//! `mdg` — command-line front end for mobile-collector data gathering.
//!
//! ```text
//! mdg plan     --n 200 --side 200 --range 30 [--seed 42] [--cap K]
//!              [--greedy] [--hier] [--tile-cells F] [--out bundle.json]
//!              [--profile] [--profile-json PATH] [--count-allocs]
//! mdg fleet    --bundle bundle.json (--k K | --deadline SECS)
//!              [--speed M/S] [--upload SECS] [--out fleet.json]
//! mdg simulate --bundle bundle.json [--speed M/S] [--upload SECS]
//!              [--battery JOULES]
//! mdg runtime  --n 200 --side 200 --range 30 [--seed 42] [--rounds R]
//!              [--deaths RATE] [--loss RATE] [--policy static|repair]
//!              [--battery JOULES] [--trace out.jsonl] [--profile] [--profile-json PATH]
//! mdg replay   --trace run.jsonl (--self-check | --sweep KNOB=SPEC | [policy knobs])
//!              [--out divergence.jsonl] [--threads T]
//! mdg render   --bundle bundle.json --out figure.svg [--edges]
//! mdg stats    --n 200 --side 200 --range 30 [--seed 42]
//! mdg serve    --listen 127.0.0.1:7717 [--max-sessions 64] [--threads T]
//! mdg serve    --connect 127.0.0.1:7717 --request '{"cmd":"metrics"}'
//! ```
//!
//! `plan` writes a self-contained JSON *bundle* (deployment + range +
//! plan) that the other subcommands consume, so a pipeline like
//! `plan → fleet → render` needs no other state.

use mobile_collectors::core::{fleet, PlanMetrics, PlannerConfig, ShdgPlanner};
use mobile_collectors::geom::MAX_COORD;
use mobile_collectors::net::{DeploymentConfig, Network, TopologyStats};
use mobile_collectors::prelude::*;
use mobile_collectors::render::{render_plan_svg, RenderOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Self-contained planning artifact passed between subcommands.
#[derive(Serialize, Deserialize)]
struct PlanBundle {
    deployment: Deployment,
    range: f64,
    plan: GatheringPlan,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("missing subcommand");
    }
    let cmd = args.remove(0);
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let result = match cmd.as_str() {
        "plan" => cmd_plan(&flags),
        "fleet" => cmd_fleet(&flags),
        "simulate" => cmd_simulate(&flags),
        "runtime" => cmd_runtime(&flags),
        "replay" => cmd_replay(&flags),
        "render" => cmd_render(&flags),
        "stats" => cmd_stats(&flags),
        "export-ilp" => cmd_export_ilp(&flags),
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage(&format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mdg plan     --n N --side METERS --range METERS [--seed S] [--cap K] [--greedy] [--threads T]
               [--hier] [--no-hier] [--hier-threshold N] [--tile-cells F] [--out bundle.json]
               [--profile] [--profile-json PATH] [--count-allocs]
  mdg fleet    --bundle bundle.json (--k K | --deadline SECS) [--speed M/S] [--upload SECS] [--out fleet.json]
  mdg simulate --bundle bundle.json [--speed M/S] [--upload SECS] [--battery JOULES]
  mdg runtime  --n N --side METERS --range METERS [--seed S] [--rounds R] [--deaths RATE]
               [--loss RATE] [--policy static|repair] [--battery JOULES] [--trace out.jsonl]
               [--threads T] [--profile] [--profile-json PATH]
  mdg replay   --trace run.jsonl --self-check
  mdg replay   --trace run.jsonl [--policy static|repair] [--retries N] [--backoff SECS]
               [--replan-threshold F] [--improve-passes P] [--out divergence.jsonl] [--threads T]
  mdg replay   --trace run.jsonl --sweep KNOB=LO..HI|KNOB=V1,V2,... [--out divergence.jsonl]
               [--threads T]
  mdg render   --bundle bundle.json --out figure.svg [--edges]
  mdg stats    --n N --side METERS --range METERS [--seed S]
  mdg export-ilp --n N --side METERS --range METERS [--seed S] --out model.lp
  mdg serve    --listen ADDR[:PORT] [--max-sessions N] [--max-line-mb MB] [--threads T]
               [--count-allocs]
  mdg serve    --connect ADDR:PORT --request JSON

--threads T sets the planner worker-thread count (0 or omitted = auto:
MDG_THREADS env, else all cores). Plans are bit-identical at any T.
--hier plans hierarchically (tile the field, plan tiles in parallel,
stitch + seam touch-up) — the mode for 100k+ sensors. Fields above
--hier-threshold sensors (default 50000) pick --hier automatically;
--no-hier forces the flat planner at any size. --tile-cells F sets the
tile side to F × range (omitted = auto-sized by density).
--profile prints a per-phase timing tree on stderr; --profile-json PATH
writes the same data as JSONL. Profiling never changes results.
--count-allocs (or MDG_COUNT_ALLOC=1) tallies heap allocations and
appends alloc=<count>/<MiB> to the stderr timing lines; combined with
--profile the tree gains per-phase alloc columns. Never changes plans.
replay re-runs a recorded trace bundle (from `runtime --trace`) under an
alternate repair policy and reports per-round divergences; --self-check
verifies the original policy reproduces the recording byte-for-byte, and
--sweep replays up to 20 values of one knob (retry_budget, backoff_secs,
replan_threshold or improve_passes). Trace format: docs/TRACE_FORMAT.md.";

/// Applies `--threads` (0 = auto) to the global `mdg-par` policy and
/// returns the effective thread count for the stderr report. An explicit
/// request beyond the pool limit is clamped *with a warning* — silently
/// reporting only the effective count hid the clamp from the user.
fn apply_threads(flags: &Flags) -> Result<usize, String> {
    let t: usize = opt(flags, "threads", 0)?;
    mobile_collectors::par::set_threads(t);
    let effective = mobile_collectors::par::threads();
    if t > 0 && effective != t {
        eprintln!(
            "warning: --threads {t} exceeds the pool limit; clamped to {effective} (max {})",
            mobile_collectors::par::MAX_THREADS
        );
    }
    Ok(effective)
}

/// Turns profiling on (cleanly) when `--profile` or `--profile-json` is
/// present. Returns whether it did.
fn apply_profile(flags: &Flags) -> bool {
    let on = flags.contains_key("profile") || flags.contains_key("profile-json");
    if on {
        mobile_collectors::obs::reset();
        mobile_collectors::obs::set_enabled(true);
    }
    on
}

/// Turns the counting allocator on when `--count-allocs` is present (the
/// `MDG_COUNT_ALLOC` env var works too, so tests and CI can reach child
/// processes). Returns whether counting is now on.
fn apply_alloc_counting(flags: &Flags) -> bool {
    if flags.contains_key("count-allocs") {
        mobile_collectors::obs::alloc::set_counting(true);
    }
    mobile_collectors::obs::alloc::counting_from_env()
}

/// ` alloc=<count>/<MiB>` suffix for stderr timing lines: the allocation
/// count and bytes since `base`. Empty when counting is off, so the
/// timing lines stay byte-stable for existing consumers.
fn alloc_suffix(base: &mobile_collectors::obs::alloc::AllocTotals) -> String {
    if !mobile_collectors::obs::alloc::counting() {
        return String::new();
    }
    let d = mobile_collectors::obs::alloc::totals().since(base);
    format!(
        " alloc={}/{:.1}MiB",
        d.count,
        d.bytes as f64 / (1024.0 * 1024.0)
    )
}

/// Emits the recorded profile: the summary tree on stderr for `--profile`,
/// JSONL to the `--profile-json` path.
fn emit_profile(flags: &Flags) -> Result<(), String> {
    let prof = mobile_collectors::obs::snapshot();
    if flags.contains_key("profile") {
        eprint!("{}", prof.render_tree());
    }
    if let Some(path) = flags.get("profile-json") {
        if path.is_empty() {
            return Err("--profile-json needs a file path".into());
        }
        std::fs::write(path, prof.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("  profile json   : {path}");
    }
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n{USAGE}");
    ExitCode::FAILURE
}

type Flags = HashMap<String, String>;

/// Parses `--key value` pairs; bare `--flag` (no value, or followed by
/// another flag) stores an empty string.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(flags)
}

fn req<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String> {
    flags
        .get(key)
        .ok_or_else(|| format!("missing required flag --{key}"))?
        .parse()
        .map_err(|_| format!("invalid value for --{key}"))
}

fn opt<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}")),
    }
}

/// `v` if it is finite and strictly positive (field sides, radio ranges,
/// speeds, deadlines, batteries); a clean error for `--{key}` otherwise,
/// instead of a library assert tripping on it later.
fn positive(key: &str, v: f64) -> Result<f64, String> {
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("--{key} must be a positive number, got {v}"));
    }
    Ok(v)
}

/// A required flag that must be a finite, strictly positive number.
fn req_positive(flags: &Flags, key: &str) -> Result<f64, String> {
    positive(key, req(flags, key)?)
}

/// An optional finite, strictly positive number.
fn opt_positive(flags: &Flags, key: &str, default: f64) -> Result<f64, String> {
    positive(key, opt(flags, key, default)?)
}

/// An optional finite, non-negative number (upload pauses).
fn opt_non_negative(flags: &Flags, key: &str, default: f64) -> Result<f64, String> {
    let v: f64 = opt(flags, key, default)?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("--{key} must be a non-negative number, got {v}"));
    }
    Ok(v)
}

/// A required length flag (field side or radio range): finite, positive
/// and at most `MAX_COORD`, the bound bundles and the daemon apply. A
/// longer one overflows every distance to infinity.
fn req_length(flags: &Flags, key: &str) -> Result<f64, String> {
    let v = req_positive(flags, key)?;
    if v > MAX_COORD {
        return Err(format!("--{key} {v} exceeds the {MAX_COORD:e} m bound"));
    }
    Ok(v)
}

fn load_bundle(flags: &Flags) -> Result<PlanBundle, String> {
    let path: PathBuf = req(flags, "bundle")?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bundle: PlanBundle =
        serde_json::from_str(&text).map_err(|e| format!("bad bundle {}: {e}", path.display()))?;
    check_bundle(&bundle).map_err(|e| format!("bad bundle {}: {e}", path.display()))?;
    Ok(bundle)
}

/// The daemon's rules for a `plan` request, applied to a bundle read from
/// disk: the range is positive, finite and at most `MAX_COORD`, and every
/// position is finite and within ±`MAX_COORD`.
fn check_bundle(bundle: &PlanBundle) -> Result<(), String> {
    let range = bundle.range;
    if !(range.is_finite() && range > 0.0) {
        return Err(format!("range must be positive, got {range}"));
    }
    if range > MAX_COORD {
        return Err(format!("range {range} exceeds the {MAX_COORD:e} m bound"));
    }
    let in_bounds = |p: &Point| {
        p.x.is_finite() && p.y.is_finite() && p.x.abs() <= MAX_COORD && p.y.abs() <= MAX_COORD
    };
    if !bundle.deployment.sensors.iter().all(in_bounds) {
        return Err(format!(
            "sensor positions must be finite and within ±{MAX_COORD:e} m"
        ));
    }
    if !in_bounds(&bundle.deployment.sink) {
        return Err(format!(
            "sink position must be finite and within ±{MAX_COORD:e} m"
        ));
    }
    Ok(())
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let n: usize = req(flags, "n")?;
    let side = req_length(flags, "side")?;
    let range = req_length(flags, "range")?;
    let seed: u64 = opt(flags, "seed", 42)?;
    let threads = apply_threads(flags)?;
    let profiling = apply_profile(flags);
    apply_alloc_counting(flags);
    let alloc_base = mobile_collectors::obs::alloc::totals();
    let deployment = {
        let _sp = mobile_collectors::obs::span("generate");
        DeploymentConfig::uniform(n, side).generate(seed)
    };
    let network = {
        let _sp = mobile_collectors::obs::span("network");
        Network::build(deployment.clone(), range)
    };

    let mut cfg = PlannerConfig::default();
    if flags.contains_key("greedy") {
        cfg.covering = mobile_collectors::core::CoveringStrategy::Greedy;
    }
    if let Some(cap) = flags.get("cap") {
        let cap: usize = cap
            .parse()
            .map_err(|_| "invalid value for --cap".to_string())?;
        cfg.max_sensors_per_pp = Some(cap);
    }
    let hier_flag = flags.contains_key("hier");
    let no_hier = flags.contains_key("no-hier");
    if hier_flag && no_hier {
        return Err("--hier and --no-hier are mutually exclusive".into());
    }
    let hier_threshold: usize = opt(flags, "hier-threshold", 50_000)?;
    let hier = hier_flag || (!no_hier && n > hier_threshold);
    if hier && !hier_flag {
        // The note goes to stderr: stdout stays byte-deterministic.
        eprintln!(
            "  note: {n} sensors exceeds --hier-threshold {hier_threshold}; \
             planning hierarchically (--no-hier forces the flat planner)"
        );
    }
    if flags.contains_key("tile-cells") && !hier {
        return Err("--tile-cells only makes sense with --hier".into());
    }
    let t_plan = std::time::Instant::now();
    let (plan, hier_stats) = if hier {
        let mut hcfg = mobile_collectors::core::HierConfig {
            base: cfg,
            ..mobile_collectors::core::HierConfig::default()
        };
        if flags.contains_key("tile-cells") {
            hcfg.tile_cells = Some(req_positive(flags, "tile-cells")?);
        }
        let (plan, stats) = mobile_collectors::core::HierPlanner::with_config(hcfg)
            .plan_with_stats(&network)
            .map_err(|e| e.to_string())?;
        (plan, Some(stats))
    } else {
        let plan = ShdgPlanner::with_config(cfg)
            .plan(&network)
            .map_err(|e| e.to_string())?;
        (plan, None)
    };
    let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
    {
        let _sp = mobile_collectors::obs::span("validate");
        plan.validate(&network.deployment.sensors, range)
            .map_err(|e| format!("internal: {e}"))?;
    }

    let m = PlanMetrics::of(&plan, &network.deployment.sensors);
    println!(
        "planned {} sensors on a {side:.0} m field (R = {range:.0} m, seed {seed})",
        n
    );
    // Timing goes to stderr: stdout stays byte-deterministic per seed.
    eprintln!(
        "  planning time  : {plan_ms:.1} ms ({threads} threads){}",
        alloc_suffix(&alloc_base)
    );
    if let Some(s) = hier_stats {
        println!(
            "  tiles          : {} occupied / {} total, {:.0} m side, {} spliced stop(s)",
            s.n_occupied, s.n_tiles, s.tile_side, s.spliced_stops
        );
    }
    println!("  polling points : {}", m.n_polling_points);
    println!("  tour           : {:.1} m", m.tour_length);
    println!(
        "  mean upload    : {:.1} m (max {:.1})",
        m.mean_upload_dist, m.max_upload_dist
    );
    println!("  buffer (max/pp): {}", m.max_sensors_per_pp);

    if let Some(out) = flags.get("out") {
        let mut sp = mobile_collectors::obs::span("write");
        let bundle = PlanBundle {
            deployment,
            range,
            plan,
        };
        let json = serde_json::to_string_pretty(&bundle).map_err(|e| e.to_string())?;
        sp.add_items(json.len() as u64);
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("  bundle         : {out}");
    }
    if profiling {
        emit_profile(flags)?;
    }
    Ok(())
}

fn cmd_fleet(flags: &Flags) -> Result<(), String> {
    let bundle = load_bundle(flags)?;
    let speed = opt_positive(flags, "speed", 1.0)?;
    let upload = opt_non_negative(flags, "upload", 0.5)?;
    let fleet_plan = if flags.contains_key("k") {
        let k: usize = req(flags, "k")?;
        if k == 0 {
            return Err("--k must be at least 1".into());
        }
        fleet::plan_fleet(&bundle.plan, k)
    } else if flags.contains_key("deadline") {
        let deadline = req_positive(flags, "deadline")?;
        fleet::plan_fleet_for_deadline(&bundle.plan, deadline, speed, upload)
            .ok_or("no fleet can meet this deadline (a polling point alone misses it)")?
    } else {
        return Err("fleet needs --k or --deadline".into());
    };
    fleet_plan
        .validate(&bundle.plan)
        .map_err(|e| format!("internal: {e}"))?;
    println!("fleet of {} collector(s)", fleet_plan.n_collectors());
    println!("  max sub-tour : {:.1} m", fleet_plan.max_length());
    println!("  total travel : {:.1} m", fleet_plan.total_length());
    println!(
        "  makespan     : {:.1} s at {speed} m/s + {upload} s/upload",
        fleet_plan.makespan(speed, upload)
    );
    for (i, c) in fleet_plan.collectors.iter().enumerate() {
        println!(
            "  collector {i}: {} stops, {} sensors, {:.1} m",
            c.polling_points.len(),
            c.sensors_served,
            c.length
        );
    }
    if let Some(out) = flags.get("out") {
        let json = serde_json::to_string_pretty(&fleet_plan).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("  fleet json   : {out}");
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let bundle = load_bundle(flags)?;
    let speed = opt_positive(flags, "speed", 1.0)?;
    let upload = opt_non_negative(flags, "upload", 0.5)?;
    let cfg = SimConfig {
        speed_mps: speed,
        upload_secs: upload,
        ..SimConfig::default()
    };
    let scen = scenario_from_plan(&bundle.plan, &bundle.deployment.sensors);
    if flags.contains_key("battery") {
        let battery = req_positive(flags, "battery")?;
        let mut sim = MobileGatheringSim::new(scen, cfg);
        let life = simulate_lifetime(&mut sim, battery, 1_000_000);
        println!("lifetime with {battery} J batteries:");
        println!("  first death : {:?}", life.first_death_round);
        println!("  10% dead    : {:?}", life.ten_pct_death_round);
        println!("  50% dead    : {:?}", life.half_death_round);
        println!("  packets     : {}", life.total_delivered);
    } else {
        let round = MobileGatheringSim::new(scen, cfg).run();
        println!("one collection round:");
        println!(
            "  duration : {:.1} s ({:.1} min)",
            round.duration_secs,
            round.duration_secs / 60.0
        );
        println!(
            "  packets  : {}/{}",
            round.packets_delivered, round.packets_expected
        );
        println!(
            "  energy   : {:.3} mJ across sensors",
            round.total_joules() * 1e3
        );
        println!("  fairness : {:.3} (Jain)", round.ledger.fairness());
    }
    Ok(())
}

fn cmd_runtime(flags: &Flags) -> Result<(), String> {
    let n: usize = req(flags, "n")?;
    let side = req_length(flags, "side")?;
    let range = req_length(flags, "range")?;
    let seed: u64 = opt(flags, "seed", 42)?;
    let rounds: u64 = opt(flags, "rounds", 20)?;
    let deaths: f64 = opt(flags, "deaths", 0.1)?;
    if !(0.0..=1.0).contains(&deaths) {
        return Err(format!("--deaths must be in [0, 1], got {deaths}"));
    }
    let loss: f64 = opt(flags, "loss", 0.05)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--loss must be in [0, 1], got {loss}"));
    }
    let battery_j = flags
        .contains_key("battery")
        .then(|| req_positive(flags, "battery"))
        .transpose()?;
    let policy = match flags.get("policy").map(String::as_str) {
        None | Some("repair") => RepairPolicy::Repair,
        Some("static") => RepairPolicy::Static,
        Some(other) => return Err(format!("unknown policy `{other}` (static|repair)")),
    };

    let threads = apply_threads(flags)?;
    let profiling = apply_profile(flags);
    let network = Network::build(DeploymentConfig::uniform(n, side).generate(seed), range);
    let t_plan = std::time::Instant::now();
    let plan = ShdgPlanner::new()
        .plan(&network)
        .map_err(|e| e.to_string())?;
    let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
    eprintln!("  planning time  : {plan_ms:.1} ms ({threads} threads)");
    // Deaths spread over the first ~60% of the run, so repair has rounds
    // left in which to recover.
    let horizon = plan.collection_time(1.0, 0.5) * rounds as f64 * 0.6;
    let cfg = RuntimeConfig {
        faults: FaultConfig {
            seed,
            death_rate: deaths,
            death_horizon_secs: horizon,
            loss_rate: loss,
            ..FaultConfig::default()
        },
        policy,
        max_rounds: rounds,
        battery_j,
        ..RuntimeConfig::default()
    };
    let mut rt = GatheringRuntime::new(network, plan, cfg);
    let report = if let Some(path) = flags.get("trace") {
        // The header makes the trace a self-describing bundle `mdg replay`
        // can reconstruct; the compact Uniform manifest suffices because
        // this command always deploys uniformly from (n, side, seed).
        let header = TraceHeader::new(ReplayManifest {
            topology: TopologyManifest::Uniform { n, side, seed },
            range,
            config: cfg,
        });
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut trace = TraceWriter::with_header(std::io::BufWriter::new(file), &header)
            .map_err(|e| format!("trace write failed: {e}"))?;
        let report = rt
            .run_traced(&mut trace)
            .map_err(|e| format!("trace write failed: {e}"))?;
        trace.into_inner().map_err(|e| e.to_string())?;
        println!("trace    : {path} ({} rounds)", report.rounds);
        report
    } else {
        rt.run()
    };
    if profiling {
        emit_profile(flags)?;
    }

    println!(
        "runtime  : {n} sensors, {rounds} rounds, {deaths:.0}% deaths, {loss:.0}% loss, {policy:?}",
        deaths = deaths * 100.0,
        loss = loss * 100.0
    );
    println!(
        "  delivery     : {}/{} packets ({:.1}%)",
        report.delivered,
        report.expected,
        report.delivery_ratio() * 100.0
    );
    println!(
        "  orphan time  : {:.0} sensor-seconds over {} sensor-rounds",
        report.orphan_secs, report.orphan_sensor_rounds
    );
    println!(
        "  repairs      : {} ({} full re-plans, {} stops removed, {} added, {} µs wall)",
        report.repairs,
        report.full_replans,
        report.stops_removed,
        report.stops_added,
        report.repair_wall_micros
    );
    println!(
        "  deaths       : {} by fault, {} by battery; {} sensors alive after {:.0} s",
        report.fault_deaths, report.energy_deaths, report.final_alive, report.elapsed_secs
    );
    println!(
        "  retries/drops: {} / {}; final tour {:.1} m",
        report.retries, report.drops, report.final_tour_length
    );
    Ok(())
}

/// `mdg replay`: counterfactual replay of a recorded trace bundle. Three
/// modes — `--self-check` (verify the original policy reproduces the
/// recording byte-for-byte), single counterfactual (policy-knob flags),
/// and `--sweep KNOB=SPEC` (bounded fan-out over one knob). Divergence
/// records go to `--out` as JSONL; summaries go to stdout.
fn cmd_replay(flags: &Flags) -> Result<(), String> {
    use mobile_collectors::runtime::replay::{divergences_to_jsonl, sweep_to_jsonl};

    let path: PathBuf = req(flags, "trace")?;
    let threads = apply_threads(flags)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bundle = parse_bundle(&text).map_err(|e| format!("bad trace {}: {e}", path.display()))?;
    let engine = ReplayEngine::from_bundle(&bundle).map_err(|e| e.to_string())?;
    let m = engine.manifest();
    println!(
        "replay   : {} ({} rounds, {} sensors, seed {}, {:?})",
        path.display(),
        engine.recorded().len(),
        m.topology.n_sensors(),
        m.config.faults.seed,
        m.config.policy
    );

    if flags.contains_key("self-check") {
        let report = engine.self_check();
        if report.ok() {
            println!(
                "  self-check   : OK — {} rounds reproduced byte-for-byte",
                report.rounds_recorded
            );
            return Ok(());
        }
        if let Some((rec, rep)) = &report.first_diff {
            eprintln!("  recorded : {rec}");
            eprintln!("  replayed : {rep}");
        }
        return Err(format!(
            "self-check FAILED: {} of {} rounds diverge (replayed {}) — the determinism \
             contract is broken between recorder and replayer",
            report.divergent_rounds.len(),
            report.rounds_recorded,
            report.rounds_replayed
        ));
    }

    if let Some(spec) = flags.get("sweep") {
        let spec = SweepSpec::parse(spec).map_err(|e| e.to_string())?;
        let points = engine.sweep(&spec).map_err(|e| e.to_string())?;
        println!(
            "  sweep        : {} = {:?} ({} threads)",
            spec.knob, spec.values, threads
        );
        println!(
            "  {:>12} {:>10} {:>8} {:>8} {:>12} {:>10}",
            "value", "delivered", "drops", "diverged", "orphan_s", "tour_m"
        );
        for p in &points {
            let c = &p.result.counterfactual;
            println!(
                "  {:>12} {:>10} {:>8} {:>8} {:>12.0} {:>10.1}",
                p.value,
                c.delivered,
                c.drops,
                p.result.divergences.len(),
                c.orphan_secs,
                c.final_tour_length_m
            );
        }
        if let Some(out) = flags.get("out") {
            let jsonl = sweep_to_jsonl(&points);
            std::fs::write(out, &jsonl).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("  divergences  : {out} ({} records)", jsonl.lines().count());
        }
        return Ok(());
    }

    let mut overrides = PolicyOverrides::default();
    if let Some(p) = flags.get("policy") {
        overrides.policy = Some(match p.as_str() {
            "repair" => RepairPolicy::Repair,
            "static" => RepairPolicy::Static,
            other => return Err(format!("unknown policy `{other}` (static|repair)")),
        });
    }
    for (flag, knob) in [
        ("retries", "retry_budget"),
        ("backoff", "backoff_secs"),
        ("replan-threshold", "replan_threshold"),
        ("improve-passes", "improve_passes"),
    ] {
        if flags.contains_key(flag) {
            let v: f64 = req(flags, flag)?;
            overrides.set(knob, v).map_err(|e| e.to_string())?;
        }
    }
    let result = engine.replay(&overrides);
    println!("  policy       : {}", result.overrides);
    let orig = &result.original;
    let cf = &result.counterfactual;
    println!(
        "  delivery     : {}/{} → {}/{} ({:+.1} pp)",
        orig.delivered,
        orig.expected,
        cf.delivered,
        cf.expected,
        (cf.delivery_ratio() - orig.delivery_ratio()) * 100.0
    );
    println!(
        "  drops/retries: {}/{} → {}/{}",
        orig.drops, orig.retries, cf.drops, cf.retries
    );
    println!(
        "  repairs      : {} ({} full) → {} ({} full); orphan {:.0} s → {:.0} s",
        orig.repairs,
        orig.full_replans,
        cf.repairs,
        cf.full_replans,
        orig.orphan_secs,
        cf.orphan_secs
    );
    println!(
        "  divergences  : {} of {} rounds",
        result.divergences.len(),
        orig.rounds.max(cf.rounds)
    );
    if let Some(out) = flags.get("out") {
        let jsonl = divergences_to_jsonl(&result.divergences);
        std::fs::write(out, &jsonl).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("  records      : {out}");
    }
    Ok(())
}

fn cmd_render(flags: &Flags) -> Result<(), String> {
    let bundle = load_bundle(flags)?;
    let out: PathBuf = req(flags, "out")?;
    let network = Network::build(bundle.deployment.clone(), bundle.range);
    let opts = RenderOptions {
        draw_edges: flags.contains_key("edges"),
        ..RenderOptions::default()
    };
    let svg = render_plan_svg(&network, &bundle.plan, &opts);
    std::fs::write(&out, svg).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn cmd_export_ilp(flags: &Flags) -> Result<(), String> {
    let n: usize = req(flags, "n")?;
    let side = req_length(flags, "side")?;
    let range = req_length(flags, "range")?;
    let seed: u64 = opt(flags, "seed", 42)?;
    let out: PathBuf = req(flags, "out")?;
    let network = Network::build(DeploymentConfig::uniform(n, side).generate(seed), range);
    let ilp = mobile_collectors::core::IlpInstance::from_network(&network);
    let lp = ilp.to_lp();
    std::fs::write(&out, &lp).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} candidates, {} lines) — feed it to any LP-format MIP solver",
        out.display(),
        n,
        lp.lines().count()
    );
    Ok(())
}

/// `mdg serve`: either run the planning daemon in the foreground
/// (`--listen`) or act as a one-shot protocol client (`--connect` +
/// `--request`), which makes the daemon scriptable from CI and shells
/// without another binary.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    match (flags.get("listen"), flags.get("connect")) {
        (Some(addr), None) => {
            if addr.is_empty() {
                return Err("--listen needs an address, e.g. 127.0.0.1:7717".into());
            }
            // A zero-byte line limit answers every request, `shutdown`
            // included, with `oversized`, and a zero session cap would run
            // as one: neither daemon is what was asked for.
            let max_sessions: usize = opt(flags, "max-sessions", 64)?;
            if max_sessions == 0 {
                return Err("--max-sessions must be at least 1".into());
            }
            let max_line_mb: usize = opt(flags, "max-line-mb", 32)?;
            let max_line_bytes = max_line_mb
                .checked_mul(1 << 20)
                .filter(|&b| b > 0)
                .ok_or_else(|| {
                    format!(
                        "--max-line-mb must be between 1 and {}, got {max_line_mb}",
                        usize::MAX >> 20
                    )
                })?;
            let threads = apply_threads(flags)?;
            apply_alloc_counting(flags);
            let alloc_base = mobile_collectors::obs::alloc::totals();
            let cfg = mobile_collectors::serve::ServeConfig {
                addr: addr.clone(),
                max_sessions,
                max_line_bytes,
                ..mobile_collectors::serve::ServeConfig::default()
            };
            let server = mobile_collectors::serve::Server::start(cfg)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            // The address line goes to stdout (scripts parse it to find an
            // ephemeral port); everything else is stderr.
            println!("listening on {}", server.local_addr());
            eprintln!("  {threads} planner thread(s); send {{\"cmd\":\"shutdown\"}} to stop");
            server.join();
            eprintln!("drained; bye{}", alloc_suffix(&alloc_base));
            Ok(())
        }
        (None, Some(addr)) => {
            let request = flags
                .get("request")
                .filter(|r| !r.is_empty())
                .ok_or("--connect needs --request JSON")?;
            let mut client = mobile_collectors::serve::Client::connect(addr)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let response = client
                .send_raw(request)
                .map_err(|e| format!("request failed: {e}"))?;
            println!("{response}");
            // Exit nonzero on a server-side error so shell pipelines fail.
            let ack: mobile_collectors::serve::protocol::Ack = serde_json::from_str(&response)
                .map_err(|e| format!("unparseable response: {e}"))?;
            if ack.ok {
                Ok(())
            } else {
                Err("server returned an error response".into())
            }
        }
        _ => Err("serve needs exactly one of --listen or --connect".into()),
    }
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let n: usize = req(flags, "n")?;
    let side = req_length(flags, "side")?;
    let range = req_length(flags, "range")?;
    let seed: u64 = opt(flags, "seed", 42)?;
    let network = Network::build(DeploymentConfig::uniform(n, side).generate(seed), range);
    let s = TopologyStats::of_network(&network);
    let mh = MultihopMetrics::of(&network);
    println!("topology: {n} sensors, {side:.0} m field, R = {range:.0} m, seed {seed}");
    println!("  edges            : {}", s.m);
    println!(
        "  degree           : mean {:.1}, min {}, max {}",
        s.mean_degree, s.min_degree, s.max_degree
    );
    println!("  isolated sensors : {}", s.isolated);
    println!(
        "  components       : {} (largest {})",
        s.components, s.largest_component
    );
    println!(
        "  sink reach       : {}/{} sensors, mean {:.1} hops",
        mh.reachable, n, mh.mean_hops
    );
    Ok(())
}
