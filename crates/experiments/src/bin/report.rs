//! Runs the whole evaluation campaign once (both `m = 5` and `m = 10`) and
//! prints every paper artifact produced from it: Table I, Table II and the
//! Figure 2 series.
//!
//! ```text
//! cargo run --release -p dg-experiments --bin report -- [--scenarios N] [--trials N] [--full] \
//!     [--heuristics NAME[,NAME...]] [--out DIR] [--resume]
//! ```

use dg_experiments::cli::{progress_reporter, CliOptions};
use dg_experiments::distrib::{run_distributed, DistribOutcome};
use dg_experiments::executor::{config_fingerprint, resolve_threads, run_campaign_with};
use dg_experiments::figures::Figure;
use dg_experiments::tables::{filter_by_diff, render_table, table_comparison};

const FIGURE2_HEURISTICS: [&str; 8] = ["E-IAY", "E-IP", "E-IY", "IAY", "IE", "IY", "P-IE", "Y-IE"];

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
    let mut config = match opts.campaign() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // Only the suite's smallest and largest m are reported; don't simulate
    // the points in between. (The paper suite's {5, 10} is unaffected.)
    let m_small = *config.m_values.iter().min().expect("suites have at least one m value");
    let m_large = *config.m_values.iter().max().expect("suites have at least one m value");
    config.m_values = if m_small == m_large { vec![m_small] } else { vec![m_small, m_large] };
    eprintln!(
        "Full campaign ({} suite): {} points x {} scenarios x {} trials x {} heuristics = {} runs (cap {}, {} engine, {} threads)",
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
    let start = std::time::Instant::now();
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
    eprintln!(
        "campaign finished in {:.1} s ({} trial realizations for {} instances{})",
        start.elapsed().as_secs_f64(),
        outcome.stats.trials_realized,
        outcome.stats.total_instances,
        if opts.out.is_some() {
            format!(", {} resumed", outcome.stats.resumed_instances)
        } else {
            String::new()
        },
    );
    eprintln!("  {}", outcome.stats.eval_cache_summary());
    let results = outcome.results;

    let names = results.heuristic_names();

    let small: Vec<_> = results.for_m(m_small);
    let table1 = table_comparison(&small, "IE", &names);
    println!("{}", render_table(&format!("TABLE I. RESULTS WITH m = {m_small} TASKS."), &table1));

    let large: Vec<_> = results.for_m(m_large);
    let table2 = table_comparison(&large, "IE", &names);
    println!(
        "{}",
        render_table(
            &format!("TABLE II. RESULTS WITH m = {m_large} TASKS (heuristics with %diff <= 50%)."),
            &filter_by_diff(&table2, 50.0)
        )
    );
    println!("{}", render_table(&format!("All heuristics, m = {m_large}:"), &table2));

    // The figure plots the paper's eight series; under --heuristics it plots
    // the requested list instead (absent heuristics would render no series).
    let figure_names: Vec<String> =
        opts.heuristics_or(&FIGURE2_HEURISTICS).iter().map(|h| h.name()).collect();
    let figure = Figure::compute(&results, m_large, "IE", &figure_names);
    println!("{}", figure.render());
}
