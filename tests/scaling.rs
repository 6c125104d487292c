//! The indexed candidate scan at scale: one `IE` decision on an all-`UP`
//! massive-model platform, pinned by its group-lookup counts from paper size
//! (p = 20) to the massive preset's 20 000 workers.
//!
//! The exhaustive scan's lookups grow as `p · m²`; the indexed scan's stay
//! near 2.7·10⁵ once the platform's equivalence classes saturate. The counts
//! are exact, so any change to the scan's lookups or to the accumulator-chain
//! sharing behind its misses shows here and has to be re-pinned on purpose.
//! The p = 2 000 row keeps the accumulator cliff visible: about 11× the
//! accumulators of p = 20 000 for fewer misses, because the winning workers
//! interleave badly with the class representatives in sorted member order.

use desktop_grid_scheduling::heuristics::passive::build_incremental;
use desktop_grid_scheduling::heuristics::{ScanStrategy, SchedulingContext};
use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::view::{SimView, WorkerView};
use desktop_grid_scheduling::sim::worker_state::WorkerDynamicState;

/// Tasks per iteration of the massive preset.
const TASKS: usize = 50;

/// What one decision cost on the shared cache.
#[derive(Debug, PartialEq)]
struct Counts {
    lookups: u64,
    misses: u64,
    accumulators_built: u64,
}

/// One `IE` decision under the forced indexed scan, on a fresh cache whose
/// candidate scans use `decision_threads` threads.
fn decide(scenario: &Scenario, decision_threads: usize) -> (Assignment, Counts) {
    let workers: Vec<WorkerView> = (0..scenario.platform.num_workers())
        .map(|_| WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() })
        .collect();
    let view = SimView {
        time: 0,
        iteration: 0,
        completed_iterations: 0,
        iteration_started_at: 0,
        workers: &workers,
        platform: &scenario.platform,
        application: &scenario.application,
        master: &scenario.master,
        current: None,
    };
    let mut cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
    cache.set_decision_threads(decision_threads);
    let mut context = SchedulingContext::new(cache.clone());
    context.set_scan_strategy(ScanStrategy::Indexed);
    let assignment = build_incremental(&mut context, &view, PassiveKind::IE)
        .expect("an all-UP platform holds the massive workload");
    let stats = cache.stats();
    let counts = Counts {
        lookups: stats.group_hits + stats.group_misses,
        misses: stats.group_misses,
        accumulators_built: cache.accumulators_built(),
    };
    (assignment, counts)
}

#[test]
fn indexed_scan_lookups_at_scale_are_pinned_and_thread_independent() {
    let model = ScenarioModel {
        speeds: SpeedProfile::Clustered { fast_fraction: 0.3, slow_factor: 8 },
        availability: AvailabilityRegime::Pooled { classes: 16 },
        ..ScenarioModel::paper()
    };
    // (p, lookups, misses, accumulators built)
    let pinned: [(usize, u64, u64, u64); 4] = [
        (20, 10_417, 200, 521),
        (200, 189_354, 5_779, 46_697),
        (2_000, 272_862, 8_793, 98_026),
        (20_000, 274_850, 8_849, 8_633),
    ];
    for (p, lookups, misses, accumulators_built) in pinned {
        let params = ScenarioParams {
            num_workers: p,
            tasks_per_iteration: TASKS,
            ncom: 50,
            wmin: 1,
            iterations: 3,
        };
        let scenario = Scenario::generate_with(params, &model, 20_130_520);
        let (assignment, counts) = decide(&scenario, 1);
        assert_eq!(assignment.total_tasks(), TASKS, "p = {p}: every task is placed");
        assert_eq!(counts, Counts { lookups, misses, accumulators_built }, "p = {p}");

        // The threaded scan reduces its chunks in a fixed order, so it picks
        // the same winner after the same lookups. Which thread extends a
        // shared accumulator chain first is a race, so that count may move.
        if p == 2_000 {
            let (threaded, threaded_counts) = decide(&scenario, 2);
            assert_eq!(threaded, assignment, "p = {p}: the 2-thread scan chose another winner");
            assert_eq!(threaded_counts.lookups, lookups, "p = {p}: 2-thread lookups");
        }
    }
}
