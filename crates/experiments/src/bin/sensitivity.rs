//! Model-mismatch sensitivity experiment (extension of Section VII-B):
//! the heuristics — whose criteria assume Markov availability — are run on
//! semi-Markov (Weibull / log-normal) traces with matched mean sojourns.
//! One point per `wmin` at the suite's first `m` and middle `ncom`
//! ([`sensitivity_slice`]); the Weibull shape is the suite's
//! `trials semi(SHAPE)`, else 0.7.
//!
//! ```text
//! cargo run --release --bin sensitivity -- [--scenarios N] [--trials N] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! The binary is a shape (the slice and its default eight heuristics) and a
//! renderer over the shared launch sequence, [`dg_experiments::cli::launch`].

use dg_experiments::cli::launch;
use dg_experiments::sensitivity::{render_sensitivity, sensitivity_slice, SensitivityOutcome};

/// The heuristics the study compares unless `--heuristics` replaces them.
const SENSITIVITY_HEURISTICS: [&str; 8] =
    ["IE", "IAY", "IY", "IP", "Y-IE", "P-IE", "E-IAY", "RANDOM"];

fn main() {
    let launched = launch::<SensitivityOutcome>("Sensitivity campaign", |opts, config| {
        sensitivity_slice(config).with_heuristics(opts.heuristics_or(&SENSITIVITY_HEURISTICS))
    });
    let Some((_, config, outcome)) = launched else { return };
    let names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();
    println!("{}", render_sensitivity(&outcome.results, "IE", &names));
}
