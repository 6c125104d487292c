//! End-to-end integration tests: scenario generation → heuristic → simulator →
//! metrics, across crates.

use desktop_grid_scheduling::experiments::campaign::{run_campaign, CampaignConfig};
use desktop_grid_scheduling::experiments::metrics::ReferenceComparison;
use desktop_grid_scheduling::experiments::runner::{run_instance, InstanceSpec};
use desktop_grid_scheduling::heuristics::HeuristicSpec;
use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::SimMode;

fn easy_scenario(seed: u64) -> Scenario {
    // m = 5 tasks, generous bandwidth, fast workers: every reasonable heuristic
    // completes this quickly.
    Scenario::generate(ScenarioParams::paper(5, 20, 1), seed)
}

#[test]
fn every_heuristic_completes_an_easy_scenario() {
    let scenario = easy_scenario(101);
    for spec in HeuristicSpec::all() {
        let (outcome, ..) = run_instance(
            &scenario,
            &InstanceSpec { scenario_index: 0, trial_index: 0, heuristic: spec },
            9,
            500_000,
            1e-6,
            SimMode::EventDriven,
        );
        assert!(
            outcome.success(),
            "{} failed the easy scenario: {} of {} iterations",
            spec.name(),
            outcome.completed_iterations,
            outcome.target_iterations
        );
        assert_eq!(outcome.completed_iterations, 10);
        // Sanity: the makespan is bounded below by the pure computation time of
        // the fastest possible single-iteration schedule.
        assert!(outcome.makespan_or_panic() >= 10);
    }
}

#[test]
fn informed_heuristics_beat_random_on_average() {
    let config = CampaignConfig {
        m_values: vec![5],
        ncom_values: vec![10],
        wmin_values: vec![1, 2],
        num_workers: 20,
        iterations: 5,
        scenarios_per_point: 2,
        trials_per_scenario: 1,
        max_slots: 100_000,
        heuristics: vec![
            HeuristicSpec::parse("IE").unwrap(),
            HeuristicSpec::parse("Y-IE").unwrap(),
            HeuristicSpec::parse("RANDOM").unwrap(),
        ],
        base_seed: 555,
        epsilon: 1e-6,
        threads: 1,
        engine: SimMode::EventDriven,
        suite: "paper".to_string(),
        model: ScenarioModel::paper(),
    };
    let results = run_campaign(&config, |_, _| {});
    let refs: Vec<_> = results.results.iter().collect();
    let cmp = ReferenceComparison::compute(&refs, "IE", &results.heuristic_names());
    let random = cmp.summary_of("RANDOM").expect("RANDOM summary");
    let yie = cmp.summary_of("Y-IE").expect("Y-IE summary");
    // The paper's headline qualitative result: RANDOM is far worse than the
    // informed heuristics, and the proactive Y-IE is competitive with IE.
    assert!(
        random.pct_diff > 50.0,
        "RANDOM should be much worse than IE, got %diff = {}",
        random.pct_diff
    );
    assert!(
        yie.pct_diff < random.pct_diff,
        "Y-IE ({}) should beat RANDOM ({})",
        yie.pct_diff,
        random.pct_diff
    );
}

#[test]
fn simulation_is_deterministic_across_crate_boundaries() {
    let scenario = easy_scenario(77);
    let spec = InstanceSpec {
        scenario_index: 0,
        trial_index: 3,
        heuristic: HeuristicSpec::parse("E-IAY").unwrap(),
    };
    let a = run_instance(&scenario, &spec, 2024, 100_000, 1e-7, SimMode::EventDriven).0;
    let b = run_instance(&scenario, &spec, 2024, 100_000, 1e-7, SimMode::EventDriven).0;
    assert_eq!(a, b);
}

#[test]
fn harder_instances_never_panic_and_respect_the_cap() {
    // A deliberately hard corner (slow workers, narrow bandwidth): heuristics
    // may fail, but must terminate exactly at the cap and never panic.
    let scenario = Scenario::generate(ScenarioParams::paper(10, 5, 8), 13);
    for name in ["IE", "Y-IE", "RANDOM"] {
        let (outcome, ..) = run_instance(
            &scenario,
            &InstanceSpec {
                scenario_index: 0,
                trial_index: 0,
                heuristic: HeuristicSpec::parse(name).unwrap(),
            },
            1,
            5_000,
            1e-6,
            SimMode::EventDriven,
        );
        assert!(outcome.simulated_slots <= 5_000);
        if !outcome.success() {
            assert!(outcome.completed_iterations < outcome.target_iterations);
        }
    }
}

#[test]
fn prelude_workflow_from_crate_docs_compiles_and_runs() {
    let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 42);
    let availability = scenario.availability_for_trial(7, false);
    let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
    let mut scheduler = build_heuristic_with_cache("Y-IE", 0, &cache).unwrap();
    let (outcome, _log) = Simulator::new(&scenario, availability)
        .with_limits(SimulationLimits::with_max_slots(200_000).unwrap())
        .run(scheduler.as_mut());
    assert!(outcome.completed_iterations <= 10);
}

#[test]
fn a_binary_whose_reader_closes_stdout_exits_quietly() {
    use std::process::{Command, Stdio};
    let args = ["--scenarios", "1", "--trials", "1", "--wmin", "1", "--ncom", "5"];
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .args(["--heuristics", "IE", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table1 starts");
    // The only reader of its stdout goes away before the table is printed.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("table1 ends");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
