//! # dg-offline
//!
//! The *off-line* version of the scheduling problem studied in Section IV of
//! *"Scheduling Tightly-Coupled Applications on Heterogeneous Desktop Grids"*
//! (Casanova, Dufossé, Robert, Vivien — HCW/IPDPS 2013): processor
//! availability is known in advance, communication is free
//! (`Tprog = Tdata = 0`) and the workers are identical (`w_q = w`).
//!
//! The paper proves that even this restricted problem is NP-hard, for both the
//! `µ = 1` variant (OFF-LINE-COUPLED(µ=1): find `m` processors simultaneously
//! `UP` during `w` common time-slots) and the `µ = ∞` variant
//! (OFF-LINE-COUPLED(µ=∞): find, for some `k ≤ m`, `k` processors
//! simultaneously `UP` during `⌈m/k⌉·w` common time-slots), by reduction from
//! the Exact Node Cardinality Decision problem (ENCD) on bipartite graphs.
//!
//! This crate provides:
//!
//! * [`problem`] — the instance representation (an availability matrix) and
//!   the witness type with its validity check;
//! * [`oracle`] — the two earliest-finish searches, an exact subset search
//!   (exponential-time, practical for the small instances used in tests,
//!   examples and at the paper's `m ≤ 10`) and a polynomial greedy chain.
//!   From slot 0 they answer the paper's decision question ("can one
//!   iteration run at all?"); chained over iterations they are the makespan
//!   oracles (exact lower bounds, greedy upper bounds) consumed by the `gap`
//!   experiment binary;
//! * [`encd`] — bipartite graphs, bi-clique checking and the two reductions of
//!   Theorem 4.1, with machinery to verify them experimentally.
//!
//! ```
//! use dg_offline::{earliest_finish_exact, OfflineInstance, OracleVariant};
//!
//! // 3 processors over 4 slots; find m = 2 processors UP during w = 2 slots.
//! let up = vec![
//!     vec![true, true, false, true],
//!     vec![false, true, true, true],
//!     vec![true, false, false, false],
//! ];
//! let instance = OfflineInstance::new(up, 2, 2);
//! let solution = earliest_finish_exact(&instance, 0, OracleVariant::Mu1)
//!     .expect("processors 0 and 1 share slots 1 and 3");
//! assert_eq!(solution.processors, vec![0, 1]);
//! assert!(solution.is_valid(&instance, OracleVariant::Mu1));
//! ```

#![warn(missing_docs)]

pub mod encd;
pub mod oracle;
pub mod problem;

pub use encd::{BipartiteGraph, EncdInstance};
pub use oracle::{
    earliest_finish_exact, earliest_finish_greedy, schedule_exact, schedule_greedy,
    OfflineSchedule, OracleVariant,
};
pub use problem::{OfflineInstance, OfflineSolution};
