//! Regenerates the paper's **Figure 2**: `%diff` (vs the reference IE) as a
//! function of `wmin` for the suite's largest `m` (the paper's `m = 10`
//! tasks), for the eight heuristics reported in Table II
//! ([`FIGURE2_HEURISTICS`]: E-IAY, E-IP, E-IY, IAY, IE, IY, P-IE, Y-IE).
//!
//! ```text
//! cargo run --release --bin figure2 -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! `--heuristics` replaces the paper's eight plotted heuristics with an
//! explicit list. The binary is a shape (the largest `m`, the plotted
//! heuristics) and a renderer over the shared launch sequence,
//! [`dg_experiments::cli::launch`].

use dg_experiments::cli::launch;
use dg_experiments::executor::CampaignOutcome;
use dg_experiments::figures::{Figure, FIGURE2_HEURISTICS};

fn main() {
    let launched = launch::<CampaignOutcome>("Figure 2 campaign", |opts, config| {
        let m = *config.m_values.iter().max().expect("suites have at least one m value");
        config.with_m(m).with_heuristics(opts.heuristics_or(&FIGURE2_HEURISTICS))
    });
    let Some((_, config, outcome)) = launched else { return };
    let names = outcome.results.heuristic_names();
    let figure = Figure::compute(&outcome.results, config.m_values[0], "IE", &names);
    println!("{}", figure.render());
    println!("CSV:\n{}", figure.to_csv());
}
