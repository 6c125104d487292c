//! Regenerates the paper's **Table II**: comparison for the suite's largest
//! `m` (the paper's `m = 10` tasks per iteration), reporting (like the
//! paper) only the heuristics whose `%diff` stays below +50 % — plus the
//! full table for completeness.
//!
//! ```text
//! cargo run --release --bin table2 -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! The binary is a shape (the largest `m`) and a renderer over the shared
//! launch sequence, [`dg_experiments::cli::launch`].

use dg_experiments::cli::launch;
use dg_experiments::executor::CampaignOutcome;
use dg_experiments::tables::{filter_by_diff, render_table, table_comparison};

fn main() {
    let launched = launch::<CampaignOutcome>("Table II campaign", |_, config| {
        let m = *config.m_values.iter().max().expect("suites have at least one m value");
        config.with_m(m)
    });
    let Some((_, config, outcome)) = launched else { return };
    let m = config.m_values[0];
    let results = outcome.results;
    let subset: Vec<_> = results.results.iter().collect();
    let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
    let title = format!("TABLE II. RESULTS WITH m = {m} TASKS (heuristics with %diff <= 50%).");
    println!("{}", render_table(&title, &filter_by_diff(&comparison, 50.0)));
    println!("{}", render_table(&format!("All heuristics, m = {m}:"), &comparison));
}
