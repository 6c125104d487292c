//! Execution of a single experiment instance.

use dg_analysis::EvalCache;
use dg_availability::rng::derive_seed;
use dg_availability::AvailabilityModel;
use dg_heuristics::HeuristicSpec;
use dg_platform::Scenario;
use dg_sim::{EngineReport, EventLog, SimMode, SimOutcome, SimulationLimits, Simulator};
use serde::{Deserialize, Serialize};

/// Identifies one `(scenario, trial, heuristic)` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Index of the scenario within its experiment point.
    pub scenario_index: usize,
    /// Index of the trial (availability realization) within the scenario.
    pub trial_index: usize,
    /// The heuristic to drive the run with.
    pub heuristic: HeuristicSpec,
}

/// Derive the availability-realization seed of a trial. All heuristics of the
/// same `(scenario, trial)` pair share this seed, so they face exactly the same
/// realization of processor availability — the comparison the paper makes.
pub fn trial_seed(base_seed: u64, scenario_seed: u64, trial_index: usize) -> u64 {
    derive_seed(base_seed ^ scenario_seed, 0xA11C_E000 + trial_index as u64)
}

/// Derive the scheduler seed of a trial's instances: the trial seed on its
/// own stream, so the RANDOM heuristic's draws are not correlated with the
/// availability realization. This is the exact derivation
/// [`run_instance_on`] performs; the scheduling service
/// ([`crate::service`]) shares it so a served decision is seeded identically
/// to the simulation it stands in for.
pub fn scheduler_seed(base_seed: u64, scenario_seed: u64, trial_index: usize) -> u64 {
    derive_seed(trial_seed(base_seed, scenario_seed, trial_index), 0x5EED)
}

/// Run one instance: realize the scenario's availability for the trial
/// (according to the scenario's [`dg_platform::TrialModel`], with the slot
/// cap as the trace horizon), build the heuristic over a fresh evaluation
/// cache of precision `epsilon`, and simulate under [`run_instance_on`].
///
/// # Panics
/// Panics if `max_slots` is zero (see [`SimulationLimits::with_max_slots`]);
/// the CLI layer validates the cap before it reaches this point.
pub fn run_instance(
    scenario: &Scenario,
    spec: &InstanceSpec,
    base_seed: u64,
    max_slots: u64,
    epsilon: f64,
    mode: SimMode,
) -> (SimOutcome, EventLog, EngineReport) {
    let seed = trial_seed(base_seed, scenario.seed, spec.trial_index);
    let availability = scenario.realize_trial(seed, max_slots);
    let cache = EvalCache::new(&scenario.platform, &scenario.master, epsilon);
    run_instance_on(scenario, spec, availability, &cache, base_seed, max_slots, mode)
}

/// Run one instance on a **pre-realized** availability model and a
/// **caller-supplied** evaluation cache until completion or the slot cap
/// under the engine `mode`: the one runner of the campaign, gap and
/// sensitivity sweeps. A sweep job shares one
/// [`dg_availability::RealizedTrial`] across the heuristics of a trial
/// (handing each a replay) *and* one [`EvalCache`] across the whole
/// heuristic × trial fan-out, so each Section V group set is computed once
/// per scenario. The scheduler seed is [`scheduler_seed`], and every cached
/// quantity is a pure function of the scenario, so for an availability model
/// equivalent to the trial's canonical realization the outcome is identical
/// no matter how the cache is shared. The series precision is the one
/// `cache` was built with.
///
/// Returns the outcome, the run's [`EventLog`] (its iteration completions,
/// which bound a capped run in the optimality gap) and the [`EngineReport`]
/// of how many slots the engine executed.
///
/// # Panics
/// Panics if `max_slots` is zero (see [`SimulationLimits::with_max_slots`]).
pub fn run_instance_on<A: AvailabilityModel>(
    scenario: &Scenario,
    spec: &InstanceSpec,
    availability: A,
    cache: &EvalCache,
    base_seed: u64,
    max_slots: u64,
    mode: SimMode,
) -> (SimOutcome, EventLog, EngineReport) {
    let seed = scheduler_seed(base_seed, scenario.seed, spec.trial_index);
    let mut scheduler = spec.heuristic.build_with_cache(seed, cache);
    let limits = SimulationLimits::with_max_slots(max_slots).expect("slot cap must be positive");
    let simulator = Simulator::new(scenario, availability).with_limits(limits).with_mode(mode);
    simulator.run_with_report(scheduler.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_platform::ScenarioParams;

    #[test]
    fn same_trial_same_heuristic_is_reproducible() {
        let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 3);
        let spec = InstanceSpec {
            scenario_index: 0,
            trial_index: 0,
            heuristic: HeuristicSpec::parse("IE").unwrap(),
        };
        let a = run_instance(&scenario, &spec, 42, 50_000, 1e-7, SimMode::EventDriven).0;
        let b = run_instance(&scenario, &spec, 42, 50_000, 1e-7, SimMode::EventDriven).0;
        assert_eq!(a, b);
    }

    #[test]
    fn different_trials_differ() {
        let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 3);
        let mk = |trial| InstanceSpec {
            scenario_index: 0,
            trial_index: trial,
            heuristic: HeuristicSpec::parse("IE").unwrap(),
        };
        let a = run_instance(&scenario, &mk(0), 42, 50_000, 1e-7, SimMode::EventDriven).0;
        let b = run_instance(&scenario, &mk(1), 42, 50_000, 1e-7, SimMode::EventDriven).0;
        // Different availability realizations essentially never give the same
        // makespan and statistics.
        assert_ne!(a, b);
    }

    #[test]
    fn ie_completes_easy_scenario() {
        let scenario = Scenario::generate(ScenarioParams::paper(5, 20, 1), 11);
        let spec = InstanceSpec {
            scenario_index: 0,
            trial_index: 0,
            heuristic: HeuristicSpec::parse("IE").unwrap(),
        };
        let (outcome, ..) = run_instance(&scenario, &spec, 1, 200_000, 1e-7, SimMode::EventDriven);
        assert!(outcome.success(), "IE failed an easy wmin=1 scenario: {outcome:?}");
        assert_eq!(outcome.completed_iterations, 10);
    }

    #[test]
    fn engine_modes_agree_for_every_heuristic() {
        // The headline equivalence guarantee, across all 17 heuristics on a
        // seeded stochastic scenario: slot-stepped and event-driven runs
        // produce byte-identical outcomes, and the event engine executes no
        // more slots than the slot-stepper.
        let scenario = Scenario::generate(
            ScenarioParams {
                num_workers: 10,
                tasks_per_iteration: 4,
                ncom: 5,
                wmin: 2,
                iterations: 3,
            },
            17,
        );
        for heuristic in HeuristicSpec::all() {
            let spec = InstanceSpec { scenario_index: 0, trial_index: 0, heuristic };
            let (slot, _, slot_report) =
                run_instance(&scenario, &spec, 5, 30_000, 1e-6, SimMode::SlotStepped);
            let (event, _, event_report) =
                run_instance(&scenario, &spec, 5, 30_000, 1e-6, SimMode::EventDriven);
            assert_eq!(slot, event, "{} disagrees between engine modes", heuristic.name());
            assert_eq!(slot_report.executed_slots, slot_report.simulated_slots);
            assert!(
                event_report.executed_slots <= slot_report.executed_slots,
                "{}: event engine executed more slots ({}) than the slot-stepper ({})",
                heuristic.name(),
                event_report.executed_slots,
                slot_report.executed_slots
            );
        }
    }

    #[test]
    fn shared_trial_replay_matches_per_instance_realization() {
        // One RealizedTrial serving several heuristics produces exactly the
        // outcomes per-heuristic realization does — the equivalence the
        // campaign executor's availability reuse rests on. The shared runs
        // also share one EvalCache, exercising both reuse axes at once.
        use dg_availability::RealizedTrial;
        let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 2), 9);
        let seed = trial_seed(42, scenario.seed, 0);
        let trial = RealizedTrial::new(scenario.availability_for_trial(seed));
        let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
        for name in ["IE", "Y-IE", "E-IAY", "RANDOM"] {
            let spec = InstanceSpec {
                scenario_index: 0,
                trial_index: 0,
                heuristic: HeuristicSpec::parse(name).unwrap(),
            };
            let fresh = run_instance(&scenario, &spec, 42, 30_000, 1e-7, SimMode::EventDriven).0;
            let (shared, ..) = run_instance_on(
                &scenario,
                &spec,
                trial.replay(),
                &cache,
                42,
                30_000,
                SimMode::EventDriven,
            );
            assert_eq!(fresh, shared, "{name} diverged on a shared realization");
        }
        assert_eq!(trial.replay_count(), 4);
    }

    #[test]
    fn shared_eval_cache_matches_fresh_estimators_for_all_heuristics() {
        // The tentpole equivalence guarantee: one EvalCache serving all 17
        // heuristics across several trials — under both engine modes —
        // produces SimOutcomes byte-identical to per-instance fresh
        // estimators. The heuristics run in sequence, so every instance after
        // the first sees a pre-warmed cache populated by *other* heuristics
        // and *other* trials.
        let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 2), 23);
        for mode in [SimMode::EventDriven, SimMode::SlotStepped] {
            let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
            for trial_index in 0..2 {
                let seed = trial_seed(42, scenario.seed, trial_index);
                for heuristic in HeuristicSpec::all() {
                    let spec = InstanceSpec { scenario_index: 0, trial_index, heuristic };
                    let fresh = run_instance(&scenario, &spec, 42, 30_000, 1e-6, mode).0;
                    let (shared, ..) = run_instance_on(
                        &scenario,
                        &spec,
                        scenario.realize_trial(seed, 30_000),
                        &cache,
                        42,
                        30_000,
                        mode,
                    );
                    assert_eq!(
                        fresh,
                        shared,
                        "{} diverged between shared and fresh estimators ({mode:?}, trial {trial_index})",
                        heuristic.name()
                    );
                }
            }
            // The cache was genuinely shared: far more lookups were served
            // than sets computed, and each distinct set was computed once.
            let stats = cache.stats();
            assert_eq!(stats.group_misses as usize, cache.cached_sets());
            assert!(stats.group_hits > stats.group_misses);
        }
    }

    #[test]
    fn trial_seed_depends_on_all_inputs() {
        let a = trial_seed(1, 2, 3);
        assert_ne!(a, trial_seed(2, 2, 3));
        assert_ne!(a, trial_seed(1, 3, 3));
        assert_ne!(a, trial_seed(1, 2, 4));
        assert_eq!(a, trial_seed(1, 2, 3));
    }
}
