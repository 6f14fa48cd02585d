//! # mdg-bench — experiment harness reproducing the paper's evaluation
//!
//! One function per table/figure of the evaluation (reconstructed — see the
//! repository's `DESIGN.md` and `EXPERIMENTS.md` for the per-experiment
//! index). Each function sweeps the figure's parameter, replays every
//! scheme over identical seeded topologies, averages across replicates in
//! parallel (std threads), and returns a [`table::Table`] that the `experiments`
//! binary prints as markdown and writes as CSV and JSON. Gates that hold
//! under `cargo test` are asserts inside the experiments; the two that need
//! a quiet process live in [`gate`], which the binary applies to every
//! table.

pub mod alloc;
pub mod faults;
pub mod figures;
pub mod gate;
pub mod params;
pub mod profile;
pub mod replay;
pub mod runner;
pub mod scale;
pub mod scale_hier;
pub mod scale_par;
pub mod schemes;
pub mod serve;
pub mod serve_hier;
pub mod surface;
pub mod table;

pub use params::Params;
pub use table::Table;

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1",
    "t1",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "f6",
    "f7",
    "f8",
    "f9",
    "f10",
    "f11",
    "f12",
    "a1",
    "a2",
    "a3",
    "faults",
    "scale",
    "scale_hier",
    "scale_par",
    "serve",
    "serve_hier",
    "alloc",
    "replay",
    "profile",
    "surface",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, params: &Params) -> Option<Table> {
    match id {
        "e1" => Some(figures::e1(params)),
        "t1" => Some(figures::t1(params)),
        "f1" => Some(figures::f1(params)),
        "f2" => Some(figures::f2(params)),
        "f3" => Some(figures::f3(params)),
        "f4" => Some(figures::f4(params)),
        "f5" => Some(figures::f5(params)),
        "f6" => Some(figures::f6(params)),
        "f7" => Some(figures::f7(params)),
        "f8" => Some(figures::f8(params)),
        "f9" => Some(figures::f9(params)),
        "f10" => Some(figures::f10(params)),
        "f11" => Some(figures::f11(params)),
        "f12" => Some(figures::f12(params)),
        "a1" => Some(figures::a1(params)),
        "a2" => Some(figures::a2(params)),
        "a3" => Some(figures::a3(params)),
        "faults" => Some(faults::faults(params)),
        "scale" => Some(scale::scale(params)),
        "scale_hier" => Some(scale_hier::scale_hier(params)),
        "scale_par" => Some(scale_par::scale_par(params)),
        "serve" => Some(serve::serve(params)),
        "serve_hier" => Some(serve_hier::serve_hier(params)),
        "alloc" => Some(alloc::alloc(params)),
        "replay" => Some(replay::replay(params)),
        "profile" => Some(profile::profile(params)),
        "surface" => Some(surface::surface(params)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs() {
        let p = Params::smoke();
        for id in ALL_EXPERIMENTS {
            let t = run_experiment(id, &p).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!t.rows.is_empty(), "{id} produced no rows");
            assert!(
                t.rows.iter().all(|r| r.len() == t.columns.len()),
                "{id} ragged rows"
            );
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", &Params::smoke()).is_none());
    }
}
