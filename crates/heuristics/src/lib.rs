//! # dg-heuristics
//!
//! The on-line scheduling heuristics of Section VI of *"Scheduling
//! Tightly-Coupled Applications on Heterogeneous Desktop Grids"* (Casanova,
//! Dufossé, Robert, Vivien — HCW/IPDPS 2013).
//!
//! All heuristics implement the [`dg_sim::Scheduler`] trait and are driven by
//! the `dg-sim` engine once per time-slot. The paper's 17 heuristics are:
//!
//! * **RANDOM** — the baseline: tasks are assigned to `UP` workers uniformly at
//!   random ([`RandomScheduler`]).
//! * Four **passive** incremental heuristics ([`PassiveScheduler`]): tasks are
//!   assigned one by one, each to the worker that optimizes a criterion over
//!   the partial configuration —
//!   **IP** (probability of success), **IE** (expected completion time),
//!   **IY** (yield), **IAY** (apparent yield). A passive heuristic only selects
//!   a configuration when none is active (start of iteration or after a
//!   failure).
//! * Twelve **proactive** heuristics ([`ProactiveScheduler`]), written `C-H`
//!   with criterion `C ∈ {P, E, Y}` and building block `H ∈ {IP, IE, IY, IAY}`:
//!   at every slot a candidate configuration equal to the from-scratch build
//!   of `H` (whose estimates are taken from the previous build's probe log
//!   wherever the probe's communication time did not move) replaces the
//!   current one if it is strictly better according to `C` (the current
//!   configuration being re-evaluated on its *remaining* work).
//!
//! Every heuristic scores its candidates through a [`dg_analysis::EvalCache`]
//! built for the scenario it schedules. The [`registry`] module enumerates
//! all heuristics by their paper names (`"Y-IE"`, `"IAY"`, `"RANDOM"`, …)
//! and builds them from a name string over such a cache
//! ([`build_heuristic_with_cache`]); clones of one cache handle share its
//! memo tables, so a campaign evaluating many heuristics and trials on one
//! scenario computes each Section V group set once.
//!
//! Every heuristic also declares, through [`dg_sim::Reevaluation`], when its
//! decisions can change while the observable simulation state does not — the
//! contract that lets the event-driven engine ([`dg_sim::SimMode`]) skip
//! idle stretches without changing any decision.
//!
//! ```
//! use dg_analysis::EvalCache;
//! use dg_heuristics::build_heuristic_with_cache;
//! use dg_platform::{Scenario, ScenarioParams};
//! use dg_sim::{SimulationLimits, Simulator};
//!
//! // Build the paper's headline proactive heuristic by name over the
//! // scenario's cache and drive one seeded trial of a small paper-style
//! // scenario with it.
//! let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 42);
//! let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
//! let mut scheduler = build_heuristic_with_cache("Y-IE", 0, &cache).unwrap();
//! let (outcome, _log) = Simulator::new(&scenario, scenario.availability_for_trial(7))
//!     .with_limits(SimulationLimits::with_max_slots(200_000).unwrap())
//!     .run(scheduler.as_mut());
//! assert_eq!(scheduler.name(), "Y-IE");
//! assert!(outcome.completed_iterations <= 10);
//! ```

#![warn(missing_docs)]

pub mod candidate;
pub mod context;
pub mod index;
pub mod passive;
pub mod proactive;
pub mod random;
pub mod registry;

pub use candidate::CandidateConfig;
pub use context::SchedulingContext;
pub use index::{ScanStrategy, WorkerIndex, INDEX_THRESHOLD};
pub use passive::{PassiveKind, PassiveScheduler};
pub use proactive::{ProactiveCriterion, ProactiveScheduler};
pub use random::RandomScheduler;
pub use registry::{
    all_heuristic_names, build_heuristic_with_cache, parse_heuristic_named, HeuristicSpec,
};
