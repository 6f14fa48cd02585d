//! Runs one benchmark workload and prints its result record.
//!
//! ```text
//! perfbench --workload plan_200k|serve_200k|serve_10k --seed N --seconds S
//!           --trace 0|1 [--commit ID]
//! ```
//!
//! Prints a human-readable table on stderr and two JSON lines on stdout:
//! a record with the run's metadata and sample counts, then the result
//! (`correct`, `attempted`, `failed`, `metrics`). Exits 1 if any output
//! check failed, 2 on bad arguments.

use mdg_perfbench::{plan, serve, Outcome, E2E_METRICS, LAYER_METRICS};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let seconds = num("seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        commit: flags
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

/// Sensors in each workload's field.
fn workload_n(name: &str) -> Option<usize> {
    match name {
        "plan_200k" | "serve_200k" => Some(200_000),
        "serve_10k" => Some(10_000),
        _ => None,
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(n) = workload_n(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let out: Outcome = if args.workload.starts_with("plan") {
        let spec = plan::PlanSpec {
            n,
            seconds: args.seconds,
        };
        plan::run(&spec, args.seed, args.trace)
    } else {
        serve::run(
            &serve::ServeSpec::new(n, args.seconds),
            args.seed,
            args.trace,
        )
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit) in LAYER_METRICS {
            metrics.push((name.to_string(), out.layers.get(name), unit));
        }
        for &(name, unit) in E2E_METRICS {
            metrics.push((format!("trace.{name}"), out.e2e.get(name), unit));
        }
    } else {
        for &(name, unit) in E2E_METRICS {
            metrics.push((name.to_string(), out.e2e.get(name), unit));
        }
    }
    let t = &out.tally;
    let correct = t.failed == 0 && t.attempted > 0;

    eprintln!(
        "{} seed {} (n = {n}, trace {}): {} ops, {} failed (failed_ratio {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        t.attempted,
        t.failed,
        t.failed_ratio()
    );
    if let Some(e) = &t.first_error {
        eprintln!("  first failure: {e}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<30} {value:>14.4} {unit}");
    }

    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"n\": {n}, \"trace\": {}, \
         \"seconds\": {}, \"available_parallelism\": {parallelism}, \"mdg_par_threads\": {}, \
         \"commit\": {}, \"samples\": {{{}}}, \"failed_ratio\": {}, \"first_error\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        args.seconds,
        mdg_par::threads(),
        json_str(&args.commit),
        samples.join(", "),
        t.failed_ratio(),
        t.first_error.as_deref().map_or("null".into(), json_str),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
