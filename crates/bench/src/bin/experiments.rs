//! Experiment harness CLI.
//!
//! ```text
//! experiments <id>... [--quick | --full] [--seed S] [--replicates N] [--out DIR]
//! experiments all [flags]
//! experiments list
//! ```
//!
//! Each experiment prints a markdown table to stdout and writes it as
//! `<id>.csv` and `<id>.json` into the output directory (default
//! `results/`). After each experiment the binary applies the post-run
//! gates of [`mdg_bench::gate`]; if any fails it exits non-zero, naming
//! each violation.

use mdg_bench::{gate, run_experiment, Params, ALL_EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id|all|list>... [--quick|--full] [--seed S] [--replicates N] [--out DIR]\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    let mut params = Params::default();
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => params = Params::smoke(),
            "--full" => params = Params::full(),
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => params.base_seed = s,
                None => return usage(),
            },
            "--replicates" => match it.next().and_then(|s| s.parse().ok()) {
                Some(r) if r > 0 => params.replicates = r,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            flag if flag.starts_with("--") => return usage(),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        return usage();
    }

    println!(
        "running {} experiment(s), {} replicates per point, base seed {}\n",
        ids.len(),
        params.replicates,
        params.base_seed
    );
    let mut violations = Vec::new();
    for id in &ids {
        let start = std::time::Instant::now();
        let Some(table) = run_experiment(id, &params) else {
            eprintln!("unknown experiment: {id}");
            return usage();
        };
        println!("{}", table.to_markdown());
        for written in [table.write_csv(&out_dir), table.write_json(&out_dir)] {
            match written {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write results for {id}: {e}"),
            }
        }
        println!("({:.1} s)\n", start.elapsed().as_secs_f64());
        violations.extend(gate::check(&table));
    }
    if violations.is_empty() {
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("gate FAILED: {v}");
    }
    ExitCode::FAILURE
}
