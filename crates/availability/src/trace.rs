//! Availability realizations.
//!
//! The simulator needs to answer two questions about processor availability:
//! "in which state is processor `q` at time-slot `t`?" ([`AvailabilityModel::
//! state`]) and "when does processor `q` next *change* state?"
//! ([`AvailabilityModel::next_transition`], the primitive behind the
//! event-driven engine's jumps over idle stretches).
//!
//! [`RealizedAvailability`] answers both for every kind of trial. It keeps
//! one run-length [`StateTrace`] per processor and extends it on demand by
//! drawing whole runs from the processor's sojourn source: a [`MarkovChain3`]
//! ([`MarkovChain3::sample_transition`], the paper's model), a
//! [`SemiMarkovModel`] (Weibull / log-normal holding times, the sensitivity
//! study's model), or none for scripted traces, whose last state repeats
//! forever. A realization is fully determined by its seed, query order never
//! changes it, and both queries cost `O(log runs)` after amortized
//! `O(transitions)` draws — whatever the slot values involved.

use crate::markov::MarkovChain3;
use crate::rng::sub_rng;
use crate::semi_markov::SemiMarkovModel;
use crate::state::{ProcState, StateTrace};
use rand::rngs::SmallRng;

/// Source of processor availability information for the simulator.
///
/// Time is explored monotonically by the simulator but implementations must
/// answer queries for any `t` (lazily generated models cache their history).
pub trait AvailabilityModel {
    /// Number of processors described by this model.
    fn num_procs(&self) -> usize;

    /// State of processor `q` at time-slot `t`.
    ///
    /// # Panics
    /// Implementations may panic if `q >= self.num_procs()`.
    fn state(&mut self, q: usize, t: u64) -> ProcState;

    /// First time-slot strictly after `after` at which processor `q` is in a
    /// different state than at `after`, together with that new state.
    ///
    /// Returns `None` when the processor never changes state again (a
    /// scripted trace past its horizon, or a Markov chain caught in an
    /// absorbing state). The event-driven simulator uses this to jump
    /// directly to the next instant at which anything can happen, so
    /// implementations must be consistent with [`AvailabilityModel::state`]:
    /// `state(q, u)` equals `state(q, after)` for every
    /// `after < u < transition_slot`, and equals the returned state at the
    /// returned slot.
    ///
    /// # Panics
    /// Implementations may panic if `q >= self.num_procs()`.
    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)>;

    /// `true` if every processor in `procs` is `UP` at time-slot `t`.
    fn all_up(&mut self, procs: &[usize], t: u64) -> bool {
        procs.iter().all(|&q| self.state(q, t).is_up())
    }

    /// Project the model onto a boolean `UP` matrix over `0..horizon`:
    /// `matrix[q][t]` is `true` exactly when processor `q` is `UP` at slot
    /// `t`. This is the paper's offline view of a realized trial — `RECLAIMED`
    /// and `DOWN` both project to `false`, because the offline problem only
    /// distinguishes available from unavailable.
    fn up_matrix(&mut self, horizon: u64) -> Vec<Vec<bool>> {
        (0..self.num_procs())
            .map(|q| (0..horizon).map(|t| self.state(q, t).is_up()).collect())
            .collect()
    }
}

/// Lazily realized availability: one run-length [`StateTrace`] per
/// processor, extended on demand from that processor's sojourn source.
///
/// A trace *closes* when its source is absorbing, when its next run would
/// start at or past the realization's horizon, or from the start when it is
/// scripted. A closed trace repeats its last state forever and draws no more
/// random numbers.
#[derive(Debug, Clone)]
pub struct RealizedAvailability {
    lanes: Vec<Lane>,
    /// No run starts at or past this slot (`u64::MAX` unless semi-Markov).
    horizon: u64,
}

/// One processor's trace and where its next run comes from (`None` once the
/// trace is closed).
#[derive(Debug, Clone)]
struct Lane {
    trace: StateTrace,
    source: Option<(Sojourns, SmallRng)>,
}

/// A per-processor source of runs.
#[derive(Debug, Clone)]
enum Sojourns {
    Markov(MarkovChain3),
    SemiMarkov(SemiMarkovModel),
}

impl Sojourns {
    /// The length of the run of `state` and the state after it, or `None`
    /// when the run never ends or lasts at least `room` slots.
    fn next_run(
        &self,
        state: ProcState,
        room: u64,
        rng: &mut SmallRng,
    ) -> Option<(u64, ProcState)> {
        match self {
            Sojourns::Markov(chain) => {
                chain.sample_transition(state, rng).filter(|&(sojourn, _)| sojourn < room)
            }
            Sojourns::SemiMarkov(model) => model.sample_run(state, room, rng),
        }
    }
}

impl RealizedAvailability {
    /// Realize per-processor Markov chains, every processor starting `UP` at
    /// time-slot 0 and processor `q` drawing from the stream
    /// `sub_rng(seed, q)`.
    pub fn markov(chains: Vec<MarkovChain3>, seed: u64) -> Self {
        let lanes = chains
            .into_iter()
            .enumerate()
            .map(|(q, chain)| Lane {
                trace: StateTrace::constant(ProcState::Up, 1),
                source: Some((Sojourns::Markov(chain), sub_rng(seed, q as u64))),
            })
            .collect();
        RealizedAvailability { lanes, horizon: u64::MAX }
    }

    /// Realize per-processor semi-Markov models, every processor starting
    /// `UP` and processor `q` drawing from the stream `sub_rng(seed, q)`.
    ///
    /// The last run to reach `horizon` (the run's slot cap) is cut there and
    /// repeats forever, so the answers past the horizon are the state at
    /// `horizon - 1`.
    pub fn semi_markov(models: &[SemiMarkovModel], seed: u64, horizon: u64) -> Self {
        let lanes = models
            .iter()
            .enumerate()
            .map(|(q, &model)| Lane {
                trace: StateTrace::constant(ProcState::Up, 1),
                source: Some((Sojourns::SemiMarkov(model), sub_rng(seed, q as u64))),
            })
            .collect();
        RealizedAvailability { lanes, horizon }
    }

    /// Replay explicit traces written as strings of `U`/`R`/`D` codes; past
    /// its end each trace repeats its last state.
    ///
    /// # Panics
    /// Panics if any string is empty or contains an invalid code.
    pub fn from_codes(codes: &[&str]) -> Self {
        RealizedAvailability::scripted(
            codes.iter().map(|c| StateTrace::parse(c).expect("invalid availability code string")),
        )
    }

    fn scripted(traces: impl IntoIterator<Item = StateTrace>) -> Self {
        let lanes = traces.into_iter().map(|trace| Lane { trace, source: None }).collect();
        RealizedAvailability { lanes, horizon: u64::MAX }
    }

    /// The trace realized so far for processor `q`.
    pub fn trace(&self, q: usize) -> &StateTrace {
        &self.lanes[q].trace
    }

    /// The first `horizon` time-slots (at least one) of every processor, as
    /// scripted traces.
    pub fn materialize(&mut self, horizon: u64) -> RealizedAvailability {
        let cap = horizon.max(1);
        let procs = 0..self.num_procs();
        RealizedAvailability::scripted(procs.map(|q| self.realize_past(q, cap - 1).truncated(cap)))
    }

    /// Extend processor `q`'s trace until its last run starts after `t` (so
    /// the state at `t` is final) or the trace closes.
    #[inline]
    fn realize_past(&mut self, q: usize, t: u64) -> &StateTrace {
        let lane = &mut self.lanes[q];
        while let Some((sojourns, rng)) = &mut lane.source {
            let (start, state) = lane.trace.last_run();
            if start > t {
                break;
            }
            match sojourns.next_run(state, self.horizon - start, rng) {
                Some((len, next)) => lane.trace.push_run(start + len, next),
                None => lane.source = None,
            }
        }
        &lane.trace
    }
}

impl AvailabilityModel for RealizedAvailability {
    fn num_procs(&self) -> usize {
        self.lanes.len()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.realize_past(q, t).state_at(t)
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.realize_past(q, after).next_change(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi_markov::{HoldingTime, SemiMarkovState};

    fn paper_chains(n: usize, seed: u64) -> Vec<MarkovChain3> {
        let mut rng = sub_rng(seed, 1000);
        (0..n).map(|_| MarkovChain3::sample_paper_model(&mut rng)).collect()
    }

    fn markov(n: usize, chain_seed: u64, seed: u64) -> RealizedAvailability {
        RealizedAvailability::markov(paper_chains(n, chain_seed), seed)
    }

    #[test]
    fn markov_availability_is_reproducible() {
        let (mut a, mut b) = (markov(5, 17, 42), markov(5, 17, 42));
        for t in 0..500 {
            for q in 0..5 {
                assert_eq!(a.state(q, t), b.state(q, t));
            }
        }
    }

    #[test]
    fn markov_availability_different_seeds_differ() {
        let (mut a, mut b) = (markov(5, 17, 1), markov(5, 17, 2));
        let same = (0..500u64)
            .flat_map(|t| (0..5).map(move |q| (q, t)))
            .filter(|&(q, t)| a.state(q, t) == b.state(q, t))
            .count();
        assert!(same < 5 * 500, "two different seeds produced identical realizations");
    }

    #[test]
    fn markov_availability_starts_up() {
        let mut a = markov(8, 3, 7);
        for q in 0..8 {
            assert_eq!(a.state(q, 0), ProcState::Up);
        }
    }

    #[test]
    fn markov_availability_out_of_order_queries_consistent() {
        let mut a = markov(3, 11, 5);
        let late = a.state(1, 300);
        let early = a.state(1, 10);
        let mut b = markov(3, 11, 5);
        // query in the opposite order
        let early2 = b.state(1, 10);
        let late2 = b.state(1, 300);
        assert_eq!(early, early2);
        assert_eq!(late, late2);
    }

    #[test]
    fn scripted_availability_replays_exactly() {
        let mut s = RealizedAvailability::from_codes(&["UURD", "RRUU"]);
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.state(0, 0), ProcState::Up);
        assert_eq!(s.state(0, 2), ProcState::Reclaimed);
        assert_eq!(s.state(0, 3), ProcState::Down);
        assert_eq!(s.state(1, 0), ProcState::Reclaimed);
        assert_eq!(s.state(1, 3), ProcState::Up);
        // past the horizon the last state persists
        assert_eq!(s.state(0, 99), ProcState::Down);
        assert!(!s.all_up(&[0, 1], 0));
        assert!(s.all_up(&[0, 1], 10).eq(&false));
    }

    #[test]
    fn all_up_helper() {
        let mut s = RealizedAvailability::from_codes(&["UU", "UU", "UR"]);
        assert!(s.all_up(&[0, 1], 0));
        assert!(s.all_up(&[0, 1, 2], 0));
        assert!(!s.all_up(&[0, 1, 2], 1));
        assert!(s.all_up(&[], 1));
    }

    #[test]
    fn up_matrix_projects_up_only() {
        // RECLAIMED and DOWN both project to `false`.
        let mut s = RealizedAvailability::from_codes(&["UURD", "RRUU"]);
        assert_eq!(
            s.up_matrix(4),
            vec![vec![true, true, false, false], vec![false, false, true, true]]
        );
        // A shorter horizon truncates columns, not rows.
        assert_eq!(s.up_matrix(2), vec![vec![true, true], vec![false, false]]);
        // The projection agrees with the Markov backend's state queries.
        let (mut a, mut b) = (markov(3, 17, 11), markov(3, 17, 11));
        let matrix = a.up_matrix(64);
        for (q, row) in matrix.iter().enumerate() {
            for (t, &up) in row.iter().enumerate() {
                assert_eq!(up, b.state(q, t as u64).is_up());
            }
        }
    }

    #[test]
    fn next_transition_is_consistent_with_state_queries() {
        let mut a = markov(4, 31, 9);
        for q in 0..4 {
            let mut t = 0u64;
            while t < 2_000 {
                let here = a.state(q, t);
                match a.next_transition(q, t) {
                    Some((when, state)) => {
                        assert!(when > t);
                        assert_ne!(state, here, "transition to the same state");
                        for u in t + 1..when {
                            assert_eq!(a.state(q, u), here, "state changed before the transition");
                        }
                        assert_eq!(a.state(q, when), state);
                        t = when;
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn next_transition_on_absorbing_chain_is_none() {
        let mut a = RealizedAvailability::markov(vec![MarkovChain3::always_up()], 5);
        assert_eq!(a.state(0, 1_000_000), ProcState::Up);
        assert_eq!(a.next_transition(0, 0), None);
        assert_eq!(a.next_transition(0, 99), None);
    }

    #[test]
    fn scripted_next_transition_reads_the_runs() {
        let mut s = RealizedAvailability::from_codes(&["UURD", "RRRR", "UDU"]);
        assert_eq!(s.next_transition(0, 0), Some((2, ProcState::Reclaimed)));
        assert_eq!(s.next_transition(0, 2), Some((3, ProcState::Down)));
        // Past the horizon the last state persists: no more transitions.
        assert_eq!(s.next_transition(0, 3), None);
        assert_eq!(s.next_transition(1, 0), None);
        assert_eq!(s.next_transition(2, 0), Some((1, ProcState::Down)));
        assert_eq!(s.next_transition(2, 1), Some((2, ProcState::Up)));
        assert_eq!(s.next_transition(2, 2), None);
    }

    #[test]
    fn query_order_does_not_change_the_realization() {
        // next_transition and state share the same lazily generated
        // realization, so interleaving them in any order must agree.
        let (mut a, mut b) = (markov(2, 7, 3), markov(2, 7, 3));
        // `a` explores via transitions first, `b` via dense state queries.
        let mut hops = Vec::new();
        let mut t = 0;
        for _ in 0..50 {
            match a.next_transition(0, t) {
                Some((when, state)) => {
                    hops.push((when, state));
                    t = when;
                }
                None => break,
            }
        }
        for (when, state) in hops {
            assert_eq!(b.state(0, when), state);
        }
    }

    #[test]
    fn materialize_matches_lazy_queries() {
        let mut a = RealizedAvailability::markov(paper_chains(4, 23), 99);
        let expected: Vec<Vec<ProcState>> =
            (0..4).map(|q| (0..100).map(|t| a.state(q, t)).collect()).collect();
        let mut set = a.materialize(100);
        assert_eq!(set.num_procs(), 4);
        for (q, states) in expected.iter().enumerate() {
            assert_eq!(set.trace(q).to_code_string().len(), 100);
            for t in 0..100u64 {
                assert_eq!(set.state(q, t), states[t as usize]);
            }
        }
    }

    #[test]
    fn empirical_matrix_recovers_generating_chain() {
        // A run of length `len` holds `len - 1` self-loops, and each run
        // boundary is one transition between two different states.
        let chain = MarkovChain3::from_self_loop_probs(0.93, 0.9, 0.95).unwrap();
        let traces = RealizedAvailability::markov(vec![chain], 11).materialize(300_000);
        let runs: Vec<(ProcState, u64)> = traces.trace(0).runs().collect();
        let mut counts = [[0u64; 3]; 3];
        for &(state, len) in &runs {
            counts[state.index()][state.index()] += len - 1;
        }
        for pair in runs.windows(2) {
            counts[pair[0].0.index()][pair[1].0.index()] += 1;
        }
        for (i, row) in counts.iter().enumerate() {
            let total: u64 = row.iter().sum();
            for (j, &count) in row.iter().enumerate() {
                let emp = count as f64 / total as f64;
                let theo = chain.transition_matrix().m[i][j];
                assert!((emp - theo).abs() < 0.02, "entry ({i},{j}): empirical {emp} vs {theo}");
            }
        }
    }

    #[test]
    fn sojourns_reaching_u64_max_close_the_trace_instead_of_wrapping() {
        // Mean sojourns of ~3·10^15 slots: the run starts pass u64::MAX after
        // some 6,000 sojourns, where a wrapping start would break the order.
        let p = 1.0 - 3e-16;
        let chain = MarkovChain3::from_self_loop_probs(p, p, p).unwrap();
        let mut a = RealizedAvailability::markov(vec![chain], 1);
        let last = a.state(0, u64::MAX);
        let mut after = 0;
        for _ in 0..10_000 {
            let Some((when, state)) = a.next_transition(0, after) else { break };
            assert!(when > after, "hop to {when} after {after}");
            assert_eq!(a.state(0, when), state);
            after = when;
        }
        assert!(after > u64::MAX / 2, "the walk stopped early, at {after}");
        assert_eq!(a.next_transition(0, after), None);
        assert_eq!(a.state(0, after), last);
    }

    #[test]
    fn a_semi_markov_hold_of_u64_max_slots_closes_the_trace() {
        let hold = SemiMarkovState {
            holding: HoldingTime::Fixed { slots: u64::MAX },
            to_up: 0.0,
            to_reclaimed: 1.0,
            to_down: 0.0,
        };
        let model = SemiMarkovModel { up: hold, reclaimed: hold, down: hold };
        let mut a = RealizedAvailability::semi_markov(&[model], 3, u64::MAX);
        for t in [0, 1, u64::MAX] {
            assert_eq!(a.state(0, t), ProcState::Up);
            assert_eq!(a.next_transition(0, t), None);
        }
    }
}
