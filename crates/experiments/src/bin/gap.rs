//! Reports the **optimality gap** of every online heuristic: each realized
//! trial is projected onto the paper's offline assumptions (availability
//! known in advance, `Tprog = Tdata = 0`, homogeneous `w = min wq`) and the
//! `dg-offline` makespan oracle bounds what any schedule could have achieved
//! on that realization — exactly up to `m = 10` tasks, greedily beyond.
//! The table lists per-heuristic `online / offline` makespan ratios; with
//! the exact oracle every ratio is a true optimality gap (`>= 1.000`).
//!
//! ```text
//! cargo run --release --bin gap -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--threads N] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```
//!
//! The binary is a renderer over the shared launch sequence,
//! [`dg_experiments::cli::launch`], on the whole campaign.

use dg_experiments::cli::{launch, print};
use dg_experiments::gap::{render_gap_table, GapOutcome};

fn main() {
    let Some((_, config, outcome)) = launch::<GapOutcome>("Gap sweep", |_, config| config) else {
        return;
    };
    let title = format!(
        "OPTIMALITY GAP vs OFFLINE ORACLE ({} suite, online/offline makespan ratios).",
        config.suite
    );
    print(&render_gap_table(&title, &outcome.aggregates));
}
