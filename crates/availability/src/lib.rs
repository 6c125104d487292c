//! # dg-availability
//!
//! Processor availability models for volatile desktop-grid platforms.
//!
//! This crate implements the availability substrate of the paper
//! *"Scheduling Tightly-Coupled Applications on Heterogeneous Desktop Grids"*
//! (Casanova, Dufossé, Robert, Vivien — HCW/IPDPS 2013):
//!
//! * a three-state availability model ([`ProcState`]: `Up`, `Reclaimed`, `Down`),
//! * a per-processor discrete-time Markov chain over those states
//!   ([`MarkovChain3`]), parameterized exactly as in Section VII-A of the paper,
//! * run-length availability traces ([`StateTrace`]) and one lazily extended
//!   realization for Markov, semi-Markov and scripted trials
//!   ([`RealizedAvailability`], in [`trace`]),
//! * small dense matrix utilities used both by the samplers and by the
//!   analytical approximations of Section V ([`matrix`]),
//! * a semi-Markov extension with Weibull / log-normal holding times
//!   ([`semi_markov`]), used for the "model mismatch" sensitivity study the
//!   paper lists as future work,
//! * deterministic seeding helpers ([`rng`]),
//! * shared per-trial realizations ([`shared`]): realize a trial once and
//!   replay it for every heuristic of the trial via cheap [`TrialReplay`]
//!   handles instead of re-sampling the realization per heuristic.
//!
//! The crate is intentionally free of any scheduling logic: it only answers
//! two questions — *"in which state is processor `q` at time-slot `t`?"*
//! ([`AvailabilityModel::state`]) and *"when does processor `q` next change
//! state?"* ([`AvailabilityModel::next_transition`], the primitive behind the
//! event-driven simulator's jumps) — and provides the probabilistic
//! quantities needed to reason about them.
//!
//! ```
//! use dg_availability::{AvailabilityModel, MarkovChain3, ProcState, RealizedAvailability};
//!
//! // One processor whose self-loop probabilities follow the paper's rule:
//! // P(x -> x) given, remaining mass split evenly between the other states.
//! let chain = MarkovChain3::from_self_loop_probs(0.95, 0.90, 0.90).unwrap();
//! let mut model = RealizedAvailability::markov(vec![chain], 42);
//!
//! // Realizations start UP and are deterministic in the seed.
//! assert_eq!(model.state(0, 0), ProcState::Up);
//!
//! // next_transition jumps straight to the next state change and is always
//! // consistent with per-slot state queries.
//! let (when, new_state) = model.next_transition(0, 0).expect("chain is not absorbing");
//! assert!(when > 0);
//! for t in 0..when {
//!     assert_eq!(model.state(0, t), ProcState::Up);
//! }
//! assert_eq!(model.state(0, when), new_state);
//! assert_ne!(new_state, ProcState::Up);
//! ```

#![warn(missing_docs)]

pub mod markov;
pub mod matrix;
pub mod rng;
pub mod semi_markov;
pub mod shared;
pub mod state;
pub mod trace;

pub use markov::MarkovChain3;
pub use matrix::{Matrix2, Matrix3};
pub use semi_markov::{HoldingTime, SemiMarkovModel};
pub use shared::{RealizedTrial, TrialReplay};
pub use state::{ProcState, StateTrace};
pub use trace::{AvailabilityModel, RealizedAvailability};
