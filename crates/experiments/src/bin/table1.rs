//! Regenerates the paper's **Table I**: comparison of all 17 heuristics
//! against the reference IE for the suite's smallest `m` (the paper's
//! `m = 5` tasks per iteration).
//!
//! ```text
//! cargo run --release --bin table1 -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume] \
//!     [--worker-shard I/N | --spawn-workers N]
//! ```

use dg_experiments::cli::{progress_reporter, CliOptions};
use dg_experiments::distrib::{run_distributed, DistribOutcome};
use dg_experiments::executor::{config_fingerprint, resolve_threads, run_campaign_with};
use dg_experiments::tables::{render_table, table_comparison};

fn main() {
    let opts = match CliOptions::from_env() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = opts.require_reference("IE") {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    let config = match opts.campaign() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let m = *config.m_values.iter().min().expect("suites have at least one m value");
    let config = config.with_m(m);
    eprintln!(
        "Table I campaign ({} suite): {} points x {} scenarios x {} trials x {} heuristics = {} runs (cap {}, {} engine, {} threads)",
        config.suite,
        config.points().len(),
        config.scenarios_per_point,
        config.trials_per_scenario,
        config.heuristics.len(),
        config.total_runs(),
        config.max_slots,
        config.engine,
        resolve_threads(config.threads),
    );
    let dispatch =
        run_distributed(&opts, &config_fingerprint(&config), config.points().len(), |options| {
            run_campaign_with(&config, options, progress_reporter(opts.quiet))
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
            "  artifacts: {} ({} instances resumed, {} executed)",
            dir.display(),
            outcome.stats.resumed_instances,
            outcome.stats.executed_instances,
        );
    }
    eprintln!("  {}", outcome.stats.eval_cache_summary());
    let results = outcome.results;
    let subset: Vec<_> = results.results.iter().collect();
    let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
    println!("{}", render_table(&format!("TABLE I. RESULTS WITH m = {m} TASKS."), &comparison));
}
