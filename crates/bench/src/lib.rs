//! # dg-bench
//!
//! Criterion benchmark targets for the reproduction's ablations and layers.
//! End-to-end performance is measured by the repository benchmark
//! (`perfbench/`, declared in `BENCHMARK.json`), whose `table1-golden`
//! workload times the paper's Table I campaign; these targets time parts.
//!
//! | Bench | Paper artifact | What is measured |
//! |---|---|---|
//! | `analysis` | Theorem 5.1 (ablation) | cost of the `Eu/A/P₊/E_c` series vs precision `ε` and set size |
//! | `heuristic_cost` | Section VI (ablation) | per-decision cost of passive and proactive heuristics |
//! | `simulator` | Section III substrate | simulator slot throughput |
//! | `offline` | Theorem 4.1 | exact vs greedy OFF-LINE-COUPLED solvers, ENCD reduction |
//! | `engine_event_vs_slot` | Section III substrate | event-driven vs slot-stepped engine on identical workloads |
//! | `campaign_throughput` | Section VII harness | shared-trial realization accounting + multi-process (1/2/4 workers × threads) byte-identical scaling matrix; writes `BENCH_campaign.json` |
//! | `scaling` | scaling layer (ablation) | indexed-scan decision cost vs platform size, `p` up to 10⁶; writes `BENCH_scaling.json` |
//! | `service_latency` | service layer | cold vs warm `serve` decision latency and a warm `op:batch`; writes `BENCH_service.json` |
//!
//! The paper's tables and figures are produced by the `dg-experiments`
//! binaries (`table1`, `table2`, `figure2`, `report`, `sensitivity`).
//!
//! This library crate only hosts shared helpers for those benches.

#![warn(missing_docs)]

use dg_heuristics::HeuristicSpec;
use dg_platform::{Scenario, ScenarioParams};
use dg_sim::{EngineReport, SimMode, SimOutcome, SimulationLimits, Simulator};

/// Build a small paper-style scenario used by several benches.
pub fn bench_scenario(m: usize, ncom: usize, wmin: u64, iterations: u64, seed: u64) -> Scenario {
    let params = ScenarioParams { num_workers: 20, tasks_per_iteration: m, ncom, wmin, iterations };
    Scenario::generate(params, seed)
}

/// Run one heuristic on one trial of a scenario with the given slot cap
/// under an explicit engine mode, returning the outcome together with the
/// engine's work report. Used by the `engine_event_vs_slot` bench to contrast
/// executed-slot counts.
pub fn run_one_mode(
    scenario: &Scenario,
    heuristic: &str,
    trial_seed: u64,
    cap: u64,
    mode: SimMode,
) -> (SimOutcome, EngineReport) {
    let availability = scenario.availability_for_trial(trial_seed, false);
    let mut scheduler =
        HeuristicSpec::parse(heuristic).expect("known heuristic").build(trial_seed, 1e-7);
    let (outcome, _, report) = Simulator::new(scenario, availability)
        .with_limits(SimulationLimits::with_max_slots(cap).expect("positive cap"))
        .with_mode(mode)
        .run_with_report(scheduler.as_mut());
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_helpers_produce_runnable_instances() {
        let scenario = bench_scenario(5, 10, 1, 2, 3);
        let (outcome, _) = run_one_mode(&scenario, "IE", 1, 50_000, SimMode::default());
        assert!(outcome.completed_iterations <= 2);
    }
}
