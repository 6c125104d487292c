//! # desktop-grid-scheduling
//!
//! A from-scratch Rust reproduction of *"Scheduling Tightly-Coupled
//! Applications on Heterogeneous Desktop Grids"* (Henri Casanova, Fanny
//! Dufossé, Yves Robert, Frédéric Vivien — HCW/IPDPS 2013, hal-00788606).
//!
//! The paper studies how to run a **tightly-coupled iterative master–worker
//! application** (every task of an iteration must progress in lock-step, so
//! all enrolled workers must be simultaneously available) on a **desktop
//! grid** whose processors alternate between `UP`, `RECLAIMED` and `DOWN`
//! states, under a **bounded multi-port** master whose bandwidth limits how
//! many workers can download the program and task data at once.
//!
//! This facade crate re-exports the individual building blocks:
//!
//! | Module | Contents |
//! |---|---|
//! | [`availability`] | 3-state Markov / semi-Markov availability models, traces, matrices |
//! | [`platform`] | workers, master, application, experimental scenarios |
//! | [`sim`] | the time-slot discrete-event simulator (Section III) |
//! | [`analysis`] | success-probability / expected-time approximations (Section V) |
//! | [`heuristics`] | RANDOM, IP, IE, IY, IAY and the 12 proactive C-H heuristics (Section VI) |
//! | [`offline`] | the NP-hard off-line problem, ENCD reductions, exact and greedy earliest-finish searches and the chained makespan oracles (Section IV) |
//! | [`experiments`] | campaign harness, %diff/%wins metrics, Table I/II, Figure 2 and the optimality-gap sweep (Section VII) |
//!
//! ## Quick start
//!
//! ```
//! use desktop_grid_scheduling::prelude::*;
//!
//! // A paper-style scenario: 20 workers, m = 5 tasks, ncom = 10, wmin = 1.
//! let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 42);
//! // One availability realization (trial).
//! let availability = scenario.availability_for_trial(7);
//! // The paper's best heuristic, Y-IE, scoring through the scenario's cache.
//! let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
//! let mut scheduler = build_heuristic_with_cache("Y-IE", 0, &cache).unwrap();
//! let (outcome, _log) = Simulator::new(&scenario, availability)
//!     .with_limits(SimulationLimits::with_max_slots(200_000).unwrap())
//!     .run(scheduler.as_mut());
//! assert!(outcome.completed_iterations <= 10);
//! ```

pub use dg_analysis as analysis;
pub use dg_availability as availability;
pub use dg_experiments as experiments;
pub use dg_heuristics as heuristics;
pub use dg_offline as offline;
pub use dg_platform as platform;
pub use dg_sim as sim;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use dg_analysis::{EvalCache, GroupComputation, IterationEstimate};
    pub use dg_availability::trace::{AvailabilityModel, RealizedAvailability};
    pub use dg_availability::{MarkovChain3, ProcState, SemiMarkovModel, StateTrace};
    pub use dg_heuristics::{
        build_heuristic_with_cache, HeuristicSpec, PassiveKind, PassiveScheduler,
        ProactiveCriterion, ProactiveScheduler, RandomScheduler,
    };
    pub use dg_offline::{
        earliest_finish_exact, earliest_finish_greedy, schedule_exact, schedule_greedy,
        EncdInstance, OfflineInstance, OfflineSchedule, OfflineSolution, OracleVariant,
    };
    pub use dg_platform::{
        AppShape, ApplicationSpec, AvailabilityRegime, MasterSpec, Platform, Scenario,
        ScenarioModel, ScenarioParams, SpeedProfile, TrialModel, WorkerSpec,
    };
    pub use dg_sim::{
        Assignment, Decision, EventKind, FixedAssignmentScheduler, Scheduler, SimOutcome,
        SimulationLimits, Simulator,
    };
}
