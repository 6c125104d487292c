//! # dg-sim
//!
//! Discrete-event simulator for tightly-coupled iterative master–worker
//! applications on volatile desktop grids, implementing the execution model of
//! Section III of *"Scheduling Tightly-Coupled Applications on Heterogeneous
//! Desktop Grids"* (Casanova, Dufossé, Robert, Vivien — HCW/IPDPS 2013).
//!
//! The simulated semantics are defined slot by slot. At every time-slot the
//! engine:
//!
//! 1. reads the availability state of every worker from an
//!    [`dg_availability::AvailabilityModel`];
//! 2. applies the consequences of `DOWN` workers (loss of program, data and
//!    any partially completed iteration);
//! 3. consults a [`Scheduler`] (implemented in `dg-heuristics`), which may keep
//!    the current configuration or select a new one;
//! 4. executes the slot: allocates the master's bounded multi-port bandwidth
//!    (`ncom` simultaneous transfers) to enrolled `UP` workers that still need
//!    the program or task data, or — once every enrolled worker has everything —
//!    advances the lock-step computation by one slot when *all* enrolled
//!    workers are simultaneously `UP`.
//!
//! An iteration completes once `max_q x_q·w_q` slots of simultaneous
//! computation have been accumulated; the application completes after the
//! configured number of iterations. Runs are bounded by a configurable
//! time-slot cap (the paper uses 10⁶) after which the run is declared failed.
//!
//! ## Engine modes
//!
//! Two engines execute those semantics (see [`SimMode`]): the literal
//! slot-stepper, and the default **event-driven** engine, which jumps from
//! event to event — availability transitions, phase completions, scheduler
//! re-evaluation points ([`view::Reevaluation`]) — and accounts for the
//! skipped slots in bulk. Both produce byte-identical [`SimOutcome`]s;
//! [`EngineReport`] says how many slots the engine actually executed.
//!
//! ```
//! use dg_platform::{ApplicationSpec, MasterSpec, Platform};
//! use dg_availability::RealizedAvailability;
//! use dg_sim::{Assignment, FixedAssignmentScheduler, SimMode, Simulator};
//!
//! // One worker (speed 4), one task, one iteration, no communication cost;
//! // the worker is reclaimed for three slots in the middle of the run.
//! let run = |mode: SimMode| {
//!     let platform = Platform::reliable_homogeneous(1, 4);
//!     let availability = RealizedAvailability::from_codes(&["UURRRUUUU"]);
//!     let mut scheduler = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
//!     Simulator::from_parts(
//!         platform,
//!         ApplicationSpec::new(1, 1),
//!         MasterSpec::from_slots(1, 0, 0),
//!         availability,
//!     )
//!     .with_mode(mode)
//!     .run_with_report(&mut scheduler)
//! };
//! let (slot_outcome, _, slot_report) = run(SimMode::SlotStepped);
//! let (event_outcome, _, event_report) = run(SimMode::EventDriven);
//! // 4 compute slots + 3 reclaimed slots -> makespan 7, in both modes...
//! assert_eq!(slot_outcome.makespan, Some(7));
//! assert_eq!(slot_outcome, event_outcome);
//! // ...but the event engine skipped the frozen interior of each span.
//! assert_eq!(slot_report.executed_slots, 7);
//! assert!(event_report.executed_slots < slot_report.executed_slots);
//! ```

#![warn(missing_docs)]

pub mod assignment;
pub mod config;
pub mod decision;
pub mod engine;
pub mod events;
pub mod fixed;
pub mod metrics;
pub mod view;
pub mod worker_state;

pub use assignment::Assignment;
pub use config::ActiveConfiguration;
pub use decision::DecisionContext;
pub use engine::{EngineReport, InvalidLimits, SimMode, SimulationLimits, Simulator};
pub use events::{Event, EventKind, EventLog};
pub use fixed::FixedAssignmentScheduler;
pub use metrics::{SimOutcome, SimStats};
pub use view::{Decision, Reevaluation, Scheduler, SimView, WorkerView};
pub use worker_state::WorkerDynamicState;
