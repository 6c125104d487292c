//! Regenerates the paper's **Figure 2**: `%diff` (vs the reference IE) as a
//! function of `wmin` for the suite's largest `m` (the paper's `m = 10`
//! tasks), for the eight heuristics reported in Table II (E-IAY, E-IP, E-IY,
//! IAY, IE, IY, P-IE, Y-IE).
//!
//! ```text
//! cargo run --release --bin figure2 -- [--scenarios N] [--trials N] [--full] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume]
//!
//! `--heuristics` replaces the paper's eight plotted heuristics with an
//! explicit list.
//! ```

use dg_experiments::cli::{progress_reporter, CliOptions};
use dg_experiments::distrib::{run_distributed, DistribOutcome};
use dg_experiments::executor::{config_fingerprint, resolve_threads, run_campaign_with};
use dg_experiments::figures::Figure;
use dg_heuristics::HeuristicSpec;

/// The eight heuristics plotted in the paper's Figure 2.
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
    // --heuristics overrides the paper's eight plotted heuristics.
    let heuristics: Vec<HeuristicSpec> = opts.heuristics_or(&FIGURE2_HEURISTICS);
    let config = match opts.campaign() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let m = *config.m_values.iter().max().expect("suites have at least one m value");
    let config = config.with_m(m).with_heuristics(heuristics);
    eprintln!(
        "Figure 2 campaign ({} suite): {} points x {} scenarios x {} trials x {} heuristics = {} runs (cap {}, {} engine, {} threads)",
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
    let names: Vec<String> = results.heuristic_names();
    let figure = Figure::compute(&results, m, "IE", &names);
    println!("{}", figure.render());
    println!("CSV:\n{}", figure.to_csv());
}
