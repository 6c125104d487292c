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
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--threads N] [--out DIR] [--resume]
//! ```

use dg_experiments::cli::{progress_reporter, CliOptions};
use dg_experiments::distrib::{run_distributed, DistribOutcome};
use dg_experiments::executor::resolve_threads;
use dg_experiments::gap::{gap_fingerprint, render_gap_table, run_gap_with, EXACT_M_MAX};

fn main() {
    let opts = match CliOptions::from_env() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let config = match opts.campaign() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "Gap sweep ({} suite): {} points x {} scenarios x {} trials x {} heuristics = {} comparisons (cap {}, {} engine, {} threads, exact oracle at m <= {})",
        config.suite,
        config.points().len(),
        config.scenarios_per_point,
        config.trials_per_scenario,
        config.heuristics.len(),
        config.total_runs(),
        config.max_slots,
        config.engine,
        resolve_threads(config.threads),
        EXACT_M_MAX,
    );
    let dispatch =
        run_distributed(&opts, &gap_fingerprint(&config), config.points().len(), |options| {
            run_gap_with(&config, options, progress_reporter(opts.quiet))
        });
    let outcome = match dispatch {
        Ok(DistribOutcome::Ran(outcome)) => outcome,
        Ok(DistribOutcome::WorkerDone { .. }) => return,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &opts.out {
        eprintln!(
            "  artifacts: {} ({} comparisons resumed, {} executed)",
            dir.display(),
            outcome.stats.resumed_instances,
            outcome.stats.executed_instances,
        );
    }
    eprintln!("  {}", outcome.stats.oracle_summary());
    println!(
        "{}",
        render_gap_table(
            &format!(
                "OPTIMALITY GAP vs OFFLINE ORACLE ({} suite, online/offline makespan ratios).",
                config.suite
            ),
            &outcome.aggregates,
        )
    );
}
