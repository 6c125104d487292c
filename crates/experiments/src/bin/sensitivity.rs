//! Model-mismatch sensitivity experiment (extension of Section VII-B):
//! the heuristics — whose criteria assume Markov availability — are run on
//! semi-Markov (Weibull / log-normal) traces with matched mean sojourns.
//!
//! ```text
//! cargo run --release -p dg-experiments --bin sensitivity -- [--scenarios N] [--trials N] \
//!     [--suite NAME|FILE] [--heuristics NAME[,NAME...]] [--out DIR] [--resume]
//! ```

use dg_experiments::cli::CliOptions;
use dg_experiments::distrib::{run_distributed, DistribOutcome};
use dg_experiments::executor::resolve_threads;
use dg_experiments::sensitivity::{
    render_sensitivity, run_sensitivity_with, sensitivity_fingerprint, SensitivityConfig,
};
use dg_heuristics::HeuristicSpec;
use dg_platform::ScenarioParams;

fn main() {
    let opts = match CliOptions::from_env() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let suite = match opts.suite() {
        Ok(suite) => suite,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = opts.require_reference("IE") {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    // --heuristics overrides the experiment's default eight-heuristic slice.
    let heuristic_specs: Vec<HeuristicSpec> =
        opts.heuristics_or(&["IE", "IAY", "IY", "IP", "Y-IE", "P-IE", "E-IAY", "RANDOM"]);
    let heuristic_names: Vec<String> = heuristic_specs.iter().map(|h| h.name()).collect();
    // One point per wmin at the suite's first m and middle ncom (the paper
    // suite gives the historical m = 5, ncom = 10 slice).
    let m = suite.m_values[0];
    let ncom = suite.ncom_values[suite.ncom_values.len() / 2];
    // A suite declaring `trials semi(SHAPE)` fixes the semi-Markov arm's
    // Weibull shape; otherwise the historical 0.7 applies.
    let weibull_shape = match suite.model.trials {
        dg_platform::TrialModel::SemiMarkov { shape } => shape,
        dg_platform::TrialModel::Markov => 0.7,
    };
    let config = SensitivityConfig {
        points: suite
            .wmin_values
            .iter()
            .map(|&wmin| ScenarioParams {
                num_workers: suite.workers,
                tasks_per_iteration: m,
                ncom,
                wmin,
                iterations: suite.iterations,
            })
            .collect(),
        scenarios_per_point: opts.scenarios,
        trials_per_scenario: opts.trials,
        max_slots: opts.max_slots,
        heuristics: heuristic_specs,
        base_seed: opts.seed,
        epsilon: dg_analysis::DEFAULT_EPSILON,
        weibull_shape,
        engine: opts.engine,
        threads: opts.threads,
        suite: suite.name.clone(),
        model: suite.model,
    };
    let runs = match config.checked_total_runs() {
        Ok(runs) => runs,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "Sensitivity campaign ({} suite): {} points x {} scenarios x {} trials x {} heuristics x 2 models = {} runs ({} engine, {} threads)",
        config.suite,
        config.points.len(),
        config.scenarios_per_point,
        config.trials_per_scenario,
        config.heuristics.len(),
        runs,
        config.engine,
        resolve_threads(config.threads),
    );
    let dispatch =
        run_distributed(&opts, &sensitivity_fingerprint(&config), config.points.len(), |options| {
            run_sensitivity_with(&config, options)
        });
    let results = match dispatch {
        Ok(DistribOutcome::Ran(results)) => results,
        Ok(DistribOutcome::WorkerDone { .. }) => return,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &opts.out {
        eprintln!("  artifacts: {}", dir.display());
    }
    println!("{}", render_sensitivity(&results, "IE", &heuristic_names));
}
