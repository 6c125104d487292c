//! # dg-platform
//!
//! Platform, application and experimental-scenario models for the reproduction
//! of *"Scheduling Tightly-Coupled Applications on Heterogeneous Desktop
//! Grids"* (Casanova, Dufossé, Robert, Vivien — HCW/IPDPS 2013).
//!
//! The crate defines the static description of an experiment:
//!
//! * [`WorkerSpec`] — one volatile processor: its speed `w_q` (time-slots per
//!   task) and its concurrency bound `µ_q`;
//! * [`MasterSpec`] — the master's communication capacity: the bounded
//!   multi-port limit `ncom` and the program / data transfer durations
//!   `Tprog`, `Tdata`;
//! * [`ApplicationSpec`] — the tightly-coupled iterative application: `m`
//!   tasks per iteration and the number of iterations to complete;
//! * [`Platform`] — the collection of workers plus their availability chains;
//! * [`Scenario`] / [`ScenarioParams`] — a fully instantiated experimental
//!   scenario following the methodology of Section VII-A;
//! * [`generator`] — composable generator axes ([`SpeedProfile`],
//!   [`AvailabilityRegime`], [`TrialModel`], [`AppShape`]) that generalize
//!   the paper's synthetic space into arbitrary scenario suites; the paper's
//!   space is the [`ScenarioModel::paper`] point of the axis cross-product.
//!
//! Dynamic behaviour (who is UP when, what the scheduler decides, how an
//! iteration progresses) lives in `dg-availability`, `dg-heuristics` and
//! `dg-sim` respectively.

#![warn(missing_docs)]

pub mod application;
pub mod generator;
pub mod master;
pub mod platform;
pub mod scenario;
pub mod worker;

pub use application::ApplicationSpec;
pub use generator::{AppShape, AvailabilityRegime, ScenarioModel, SpeedProfile, TrialModel};
pub use master::MasterSpec;
pub use platform::Platform;
pub use scenario::{Scenario, ScenarioParams};
pub use worker::WorkerSpec;
