//! Regenerates the paper's **Table I**: comparison of all 17 heuristics
//! against the reference IE for the suite's smallest `m` (the paper's
//! `m = 5` tasks per iteration).
//!
//! ```text
//! cargo run --release --bin table1 -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! The binary is a shape (the smallest `m`) and a renderer over the shared
//! launch sequence, [`dg_experiments::cli::launch`].

use dg_experiments::cli::{launch, print};
use dg_experiments::executor::CampaignOutcome;
use dg_experiments::tables::{render_table, table_comparison};

fn main() {
    let launched = launch::<CampaignOutcome>("Table I campaign", |_, config| {
        let m = *config.m_values.iter().min().expect("suites have at least one m value");
        config.with_m(m)
    });
    let Some((_, config, outcome)) = launched else { return };
    let results = outcome.results;
    let subset: Vec<_> = results.results.iter().collect();
    let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
    let title = format!("TABLE I. RESULTS WITH m = {} TASKS.", config.m_values[0]);
    print(&render_table(&title, &comparison));
}
