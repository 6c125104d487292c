//! # dg-analysis
//!
//! Analytical approximations from Section V of *"Scheduling Tightly-Coupled
//! Applications on Heterogeneous Desktop Grids"* (Casanova, Dufossé, Robert,
//! Vivien — HCW/IPDPS 2013).
//!
//! Given a set `S` of workers that are all `UP` now, each governed by a 3-state
//! Markov availability chain, the crate computes:
//!
//! * `P₊^(S)` — the probability that all workers of `S` are simultaneously `UP`
//!   again at some later time-slot before any of them goes `DOWN`
//!   ([`group::GroupQuantities::p_plus`]);
//! * `E^(S)(W)` — the expectation, conditioned on success, of the number of
//!   time-slots needed to accumulate `W` slots of simultaneous `UP` time
//!   ([`group::GroupQuantities::expected_completion_time`]);
//! * `E_comm^(S)` and `P_comm^(S)` — the coarser estimates of the
//!   communication-phase duration and success probability under the master's
//!   `ncom` bound ([`comm`]);
//! * the four scheduling criteria built on these quantities — probability of
//!   success, expected completion time, yield and apparent yield
//!   ([`criteria`]);
//! * a scenario-scoped evaluation layer ([`estimator`]): one `Arc`-clonable,
//!   concurrently usable [`EvalCache`] over the scenario's immutable tables
//!   memoizes the group quantities, so one cache serves every heuristic and
//!   every trial of a scenario, and it is the one place that scores a
//!   candidate ([`EvalCache::estimate`], [`EvalCache::comm_estimate`]);
//! * streaming accumulators for campaign-scale result reduction ([`streaming`]):
//!   online mean/stdev (Welford, mergeable), per-trial win/fail tallies and
//!   per-scenario relative differences, letting the experiment harness
//!   aggregate its tables in O(points × heuristics) memory.
//!
//! The quantities are computed by truncating geometric-tail series up to a
//! configurable precision `ε`, exactly as Theorem 5.1 prescribes; an
//! independent first-return recurrence implementation is provided for
//! validation and for the degenerate case of sets that cannot fail.

#![warn(missing_docs)]

pub mod comm;
pub mod criteria;
pub mod estimator;
pub mod group;
pub mod series;
pub mod streaming;

pub use comm::CommEstimate;
pub use criteria::{apparent_yield, yield_metric, IterationEstimate};
pub use estimator::{EvalCache, EvalCacheStats};
pub use group::{GroupAccumulator, GroupComputation, GroupQuantities};
pub use series::WorkerSeries;
pub use streaming::{OnlineStats, ScenarioAccumulator, StreamingComparison, TrialTally};

/// Default precision `ε` for the truncated series of Theorem 5.1.
pub const DEFAULT_EPSILON: f64 = 1e-7;
