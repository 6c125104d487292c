//! Runs the whole evaluation campaign once (the suite's smallest and largest
//! `m`, the paper's `m = 5` and `m = 10`) and prints every paper artifact
//! produced from it: Table I, Table II and the Figure 2 series.
//!
//! ```text
//! cargo run --release --bin report -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! Its Table I equals `table1`'s at the same flags, but its Table II and
//! Figure 2 do not equal `table2`'s and `figure2`'s: scenario `s` of point
//! `p` is seeded from `(p << 20) | s`, and the largest `m`'s points come
//! after the smallest `m`'s here. The binary is a shape (both `m`) and a
//! renderer over the shared launch sequence, [`dg_experiments::cli::launch`].

use dg_experiments::cli::launch;
use dg_experiments::executor::CampaignOutcome;
use dg_experiments::figures::{Figure, FIGURE2_HEURISTICS};
use dg_experiments::tables::{filter_by_diff, render_table, table_comparison};

fn main() {
    // Only the suite's smallest and largest m are reported; don't simulate
    // the points in between. (The paper suite's {5, 10} is unaffected.)
    let launched = launch::<CampaignOutcome>("Full campaign", |_, mut config| {
        let m_small = *config.m_values.iter().min().expect("suites have at least one m value");
        let m_large = *config.m_values.iter().max().expect("suites have at least one m value");
        config.m_values = if m_small == m_large { vec![m_small] } else { vec![m_small, m_large] };
        config
    });
    let Some((opts, config, outcome)) = launched else { return };
    let (m_small, m_large) = (config.m_values[0], config.m_values[config.m_values.len() - 1]);
    let results = outcome.results;
    let names = results.heuristic_names();

    let table1 = table_comparison(&results.for_m(m_small), "IE", &names);
    println!("{}", render_table(&format!("TABLE I. RESULTS WITH m = {m_small} TASKS."), &table1));

    let table2 = table_comparison(&results.for_m(m_large), "IE", &names);
    let title =
        format!("TABLE II. RESULTS WITH m = {m_large} TASKS (heuristics with %diff <= 50%).");
    println!("{}", render_table(&title, &filter_by_diff(&table2, 50.0)));
    println!("{}", render_table(&format!("All heuristics, m = {m_large}:"), &table2));

    // The figure plots the paper's eight series; under --heuristics it plots
    // the requested list instead (absent heuristics would render no series).
    let figure_names: Vec<String> =
        opts.heuristics_or(&FIGURE2_HEURISTICS).iter().map(|h| h.name()).collect();
    let figure = Figure::compute(&results, m_large, "IE", &figure_names);
    println!("{}", figure.render());
}
