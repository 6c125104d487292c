//! Quick start: generate a paper-style scenario, run two heuristics on the
//! same availability realization and compare their makespans.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use desktop_grid_scheduling::prelude::*;

fn main() {
    // A scenario following the paper's Section VII-A methodology:
    // p = 20 workers, m = 5 tasks per iteration, ncom = 10, wmin = 2
    // (worker speeds in [2, 20], Tdata = 2, Tprog = 10), 10 iterations.
    let params = ScenarioParams::paper(5, 10, 2);
    let scenario = Scenario::generate(params, 42);

    println!(
        "Scenario: {} workers, m = {}, ncom = {}, Tprog = {}, Tdata = {}",
        scenario.platform.num_workers(),
        scenario.application.tasks_per_iteration,
        scenario.master.ncom,
        scenario.master.t_prog,
        scenario.master.t_data
    );
    println!(
        "Worker speeds: {:?}",
        scenario.platform.workers().iter().map(|w| w.speed).collect::<Vec<_>>()
    );
    println!();

    // Run a few heuristics on the *same* availability realization (trial seed 7),
    // exactly how the paper compares them, scoring through one scenario cache.
    let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
    for name in ["RANDOM", "IE", "IAY", "Y-IE", "P-IE"] {
        let availability = scenario.availability_for_trial(7);
        let mut scheduler = build_heuristic_with_cache(name, 123, &cache).expect("known heuristic");
        let (outcome, _) = Simulator::new(&scenario, availability)
            .with_limits(SimulationLimits::with_max_slots(200_000).unwrap())
            .run(scheduler.as_mut());
        match outcome.makespan {
            Some(makespan) => println!(
                "{name:<8} completed {} iterations in {makespan} slots \
                 ({} configurations, {} aborts, {} proactive changes)",
                outcome.completed_iterations,
                outcome.stats.configurations_selected,
                outcome.stats.iterations_aborted,
                outcome.stats.proactive_changes,
            ),
            None => println!(
                "{name:<8} FAILED: only {} of {} iterations before the cap",
                outcome.completed_iterations, outcome.target_iterations
            ),
        }
    }
}
