//! Smoke test mirroring `examples/quickstart.rs` with a small slot cap, so the
//! quick-start flow (scenario generation → heuristic → simulator → outcome) is
//! exercised on every `cargo test`. CI additionally runs the example binary
//! itself (`cargo run --release --example quickstart`).

use desktop_grid_scheduling::prelude::*;

#[test]
fn quickstart_flow_completes_under_a_small_cap() {
    // Same scenario as examples/quickstart.rs: p = 20, m = 5, ncom = 10,
    // wmin = 2, seed 42 — but capped at 20k slots instead of 200k.
    let params = ScenarioParams::paper(5, 10, 2);
    let scenario = Scenario::generate(params, 42);
    assert_eq!(scenario.platform.num_workers(), 20);

    let mut completed = 0usize;
    let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
    for name in ["RANDOM", "IE", "IAY", "Y-IE", "P-IE"] {
        let availability = scenario.availability_for_trial(7);
        let mut scheduler = build_heuristic_with_cache(name, 123, &cache).expect("known heuristic");
        let (outcome, _) = Simulator::new(&scenario, availability)
            .with_limits(SimulationLimits::with_max_slots(20_000).unwrap())
            .run(scheduler.as_mut());
        assert!(outcome.simulated_slots <= 20_000);
        assert!(outcome.completed_iterations <= outcome.target_iterations);
        if outcome.success() {
            completed += 1;
            assert_eq!(outcome.makespan_or_panic(), outcome.simulated_slots);
        }
    }
    // The informed heuristics finish this easy scenario well under the cap;
    // at worst RANDOM might straggle.
    assert!(completed >= 4, "only {completed}/5 heuristics completed the quickstart scenario");
}
