//! Shared per-trial availability realizations.
//!
//! The paper's campaigns compare every heuristic on **the same** availability
//! realization of a trial: all heuristics of one `(scenario, trial)` pair see
//! the identical sequence of `UP`/`RECLAIMED`/`DOWN` states. Before this
//! module existed the campaign harness achieved that by re-realizing the
//! trial from its seed once per heuristic — deterministic, but the sojourn
//! sampling work was repeated ~17× per trial (once per heuristic).
//!
//! [`RealizedTrial`] realizes a trial **once** and hands out any number of
//! cheap [`TrialReplay`] handles, each of which implements
//! [`AvailabilityModel`] by reading the shared realization. Because lazily
//! realized models ([`crate::RealizedAvailability`]) extend their realization
//! deterministically and monotonically — query order never changes the
//! sampled segments — every replay observes exactly the states a fresh
//! per-heuristic realization from the same seed would have produced. The
//! equivalence tests below pin that guarantee.
//!
//! Handles are reference-counted within one thread (`Rc`); a campaign worker
//! creates the `RealizedTrial` for its trial locally and runs the trial's
//! heuristics sequentially, so no cross-thread sharing is needed.
//!
//! ```
//! use dg_availability::{AvailabilityModel, MarkovChain3, RealizedAvailability, RealizedTrial};
//!
//! let chain = MarkovChain3::from_self_loop_probs(0.95, 0.9, 0.9).unwrap();
//! let trial = RealizedTrial::new(RealizedAvailability::markov(vec![chain], 7, false));
//!
//! // Two replays (e.g. two heuristics) observe the same realization.
//! let mut a = trial.replay();
//! let mut b = trial.replay();
//! for t in 0..100 {
//!     assert_eq!(a.state(0, t), b.state(0, t));
//! }
//! assert_eq!(trial.replay_count(), 2);
//! ```

use crate::state::ProcState;
use crate::trace::AvailabilityModel;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// One availability realization, realized once and shared by any number of
/// [`TrialReplay`] handles.
///
/// Wraps any [`AvailabilityModel`]; for lazily realized models the underlying
/// realization keeps extending on demand, shared by all replays.
#[derive(Debug)]
pub struct RealizedTrial<M: AvailabilityModel> {
    inner: Rc<RefCell<M>>,
    replays: Cell<usize>,
}

impl<M: AvailabilityModel> RealizedTrial<M> {
    /// Wrap a freshly realized availability model.
    pub fn new(model: M) -> Self {
        RealizedTrial { inner: Rc::new(RefCell::new(model)), replays: Cell::new(0) }
    }

    /// Number of processors the shared realization describes.
    pub fn num_procs(&self) -> usize {
        self.inner.borrow().num_procs()
    }

    /// Hand out a replay handle onto the shared realization.
    pub fn replay(&self) -> TrialReplay<M> {
        self.replays.set(self.replays.get() + 1);
        TrialReplay { inner: Rc::clone(&self.inner) }
    }

    /// How many replay handles were handed out so far: the instances this one
    /// realization served, each of which per-instance realization would have
    /// realized again.
    pub fn replay_count(&self) -> usize {
        self.replays.get()
    }

    /// Unwrap the shared model. Returns `None` while replay handles are alive.
    pub fn into_inner(self) -> Option<M> {
        Rc::try_unwrap(self.inner).ok().map(RefCell::into_inner)
    }
}

/// A cheap view of a [`RealizedTrial`], implementing [`AvailabilityModel`] by
/// delegating to the shared realization.
#[derive(Debug)]
pub struct TrialReplay<M: AvailabilityModel> {
    inner: Rc<RefCell<M>>,
}

impl<M: AvailabilityModel> AvailabilityModel for TrialReplay<M> {
    fn num_procs(&self) -> usize {
        self.inner.borrow().num_procs()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.inner.borrow_mut().state(q, t)
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.inner.borrow_mut().next_transition(q, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::MarkovChain3;
    use crate::rng::sub_rng;
    use crate::trace::RealizedAvailability;

    fn paper_model(procs: usize, chain_seed: u64, trial_seed: u64) -> RealizedAvailability {
        let mut rng = sub_rng(chain_seed, 9);
        let chains = (0..procs).map(|_| MarkovChain3::sample_paper_model(&mut rng)).collect();
        RealizedAvailability::markov(chains, trial_seed, false)
    }

    #[test]
    fn replay_matches_fresh_per_heuristic_realization() {
        // The headline equivalence: a replay of a shared realization observes
        // exactly the states a dedicated realization from the same seed does,
        // for both per-slot and transition queries.
        let shared = RealizedTrial::new(paper_model(4, 21, 5));
        let mut fresh = paper_model(4, 21, 5);
        let mut replay = shared.replay();
        for q in 0..4 {
            for t in (0..1_000).step_by(7) {
                assert_eq!(replay.state(q, t), fresh.state(q, t));
            }
            let mut after = 0u64;
            for _ in 0..50 {
                let a = replay.next_transition(q, after);
                let b = fresh.next_transition(q, after);
                assert_eq!(a, b);
                match a {
                    Some((when, _)) => after = when,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn interleaved_replays_agree_with_independent_realizations() {
        // Two replays exploring different time ranges in an interleaved order
        // (as two heuristics with different makespans would) each agree with
        // an independent realization: sharing never perturbs the sample path.
        let shared = RealizedTrial::new(paper_model(3, 3, 11));
        let mut a = shared.replay();
        let mut b = shared.replay();
        let mut solo = paper_model(3, 3, 11);
        // `a` jumps far ahead first, then `b` reads the early slots.
        assert_eq!(a.state(0, 5_000), solo.state(0, 5_000));
        for t in 0..200 {
            assert_eq!(b.state(0, t), solo.state(0, t));
            assert_eq!(b.state(2, t), solo.state(2, t));
        }
        assert_eq!(a.next_transition(1, 100), solo.next_transition(1, 100));
        assert_eq!(shared.replay_count(), 2);
    }

    #[test]
    fn works_for_any_availability_backend() {
        // The handle is generic: scripted traces share the same way.
        let shared = RealizedTrial::new(RealizedAvailability::from_codes(&["UURD", "RRUU"]));
        assert_eq!(shared.num_procs(), 2);
        let mut r = shared.replay();
        assert_eq!(r.num_procs(), 2);
        assert_eq!(r.state(0, 2), ProcState::Reclaimed);
        assert_eq!(r.next_transition(1, 0), Some((2, ProcState::Up)));
    }

    #[test]
    fn into_inner_requires_all_replays_dropped() {
        let shared = RealizedTrial::new(RealizedAvailability::from_codes(&["U"]));
        let replay = shared.replay();
        drop(replay);
        assert!(shared.into_inner().is_some());
    }
}
