//! Differential test of the optimality-gap layer: no online heuristic may
//! ever beat the **exact** offline oracle on the projected instance of the
//! very availability realization it ran on.
//!
//! This is the load-bearing invariant of the `gap` binary — every relaxation
//! in the projection (full lookahead, free communication, the fastest speed
//! for every worker, any enrollment size `k <= m`) favors the offline
//! schedule, so `online >= exact bound` must hold for all 17 heuristics, on
//! both simulation engines, at every completed-iteration count. A violation
//! would mean either an oracle bug or an online run that "used" resources
//! the model says it cannot have, and the failure message prints the offline
//! witness schedule to make the disagreement inspectable.

use desktop_grid_scheduling::analysis::EvalCache;
use desktop_grid_scheduling::availability::RealizedTrial;
use desktop_grid_scheduling::experiments::gap::{online_slots, project_trial};
use desktop_grid_scheduling::experiments::runner::{run_instance_on, trial_seed, InstanceSpec};
use desktop_grid_scheduling::heuristics::HeuristicSpec;
use desktop_grid_scheduling::offline::{
    chain_iterations, earliest_finish_exact, schedule_exact, OracleVariant,
};
use desktop_grid_scheduling::platform::{Scenario, ScenarioParams};
use desktop_grid_scheduling::sim::SimMode;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_online_heuristic_beats_the_exact_offline_bound(
        seed in 0u64..100_000,
        wmin in 1u64..=4,
        engine_first in any::<bool>(),
    ) {
        let params = ScenarioParams {
            num_workers: 8,
            tasks_per_iteration: 3,
            ncom: 5,
            wmin,
            iterations: 3,
        };
        let scenario = Scenario::generate(params, seed);
        let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
        let max_slots = 20_000;
        let ts = trial_seed(seed, scenario.seed, 0);
        let trial = RealizedTrial::new(scenario.realize_trial(ts, max_slots));
        let engines = if engine_first {
            [SimMode::EventDriven, SimMode::SlotStepped]
        } else {
            [SimMode::SlotStepped, SimMode::EventDriven]
        };
        for mode in engines {
            // Run all 17 heuristics on the shared realization.
            let mut runs = Vec::new();
            for heuristic in HeuristicSpec::all() {
                let spec = InstanceSpec { scenario_index: 0, trial_index: 0, heuristic };
                let (outcome, log, _) = run_instance_on(
                    &scenario, &spec, trial.replay(), &cache, seed, max_slots, mode,
                );
                let online = online_slots(&outcome, &log.iteration_completions());
                prop_assert_eq!(
                    online.is_some(),
                    outcome.completed_iterations > 0,
                    "{}: numerator/completion mismatch", heuristic.name()
                );
                runs.push((heuristic.name(), outcome.completed_iterations, online));
            }
            let horizon = runs.iter().filter_map(|(_, _, online)| *online).max().unwrap_or(0);
            let max_count = runs.iter().map(|(_, c, _)| *c).max().unwrap_or(0);
            if horizon == 0 || max_count == 0 {
                continue; // nothing completed on this realization
            }
            let instance = project_trial(&scenario, &mut trial.replay(), horizon);
            let bounds: Vec<u64> = chain_iterations(
                &instance, max_count, OracleVariant::MuUnbounded, earliest_finish_exact,
            )
            .iter()
            .map(|sol| sol.finish_time())
            .collect();
            // The exact oracle must cover every count some online run reached
            // within the same horizon.
            prop_assert_eq!(bounds.len() as u64, max_count);
            for (name, completed, online) in &runs {
                let (Some(online), true) = (*online, *completed >= 1) else { continue };
                let bound = bounds[*completed as usize - 1];
                prop_assert!(
                    online >= bound,
                    "{name} ({mode:?} engine, seed {seed}, wmin {wmin}) finished {completed} \
                     iterations in {online} slots, beating the exact offline bound {bound}; \
                     offline witness schedule: {:?}",
                    schedule_exact(&instance, *completed, OracleVariant::MuUnbounded)
                );
            }
        }
    }
}
