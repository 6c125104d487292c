//! Empirical statistics over availability traces.
//!
//! These are used to sanity-check generated traces against their generating
//! model (e.g. that a Markov realization's empirical transition frequencies
//! match the chain) and to characterize semi-Markov traces in the sensitivity
//! experiment.

use crate::matrix::Matrix3;
use crate::state::{ProcState, StateTrace};
use serde::{Deserialize, Serialize};

/// Summary statistics of a single availability trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of time-slots spent in each state (canonical order U, R, D).
    pub slots_in_state: [u64; 3],
    /// Number of observed transitions between each ordered pair of states.
    pub transitions: [[u64; 3]; 3],
    /// Lengths of maximal intervals spent in each state, in time-slots.
    pub interval_lengths: [Vec<u64>; 3],
    /// Total number of recorded slots.
    pub total_slots: u64,
}

impl TraceStats {
    /// Compute statistics over a full trace.
    pub fn from_trace(trace: &StateTrace) -> Self {
        let mut slots_in_state = [0u64; 3];
        let mut transitions = [[0u64; 3]; 3];
        let mut interval_lengths: [Vec<u64>; 3] = Default::default();
        let mut prev: Option<ProcState> = None;
        for (state, len) in trace.runs() {
            slots_in_state[state.index()] += len;
            interval_lengths[state.index()].push(len);
            if let Some(p) = prev {
                transitions[p.index()][state.index()] += 1;
            }
            prev = Some(state);
        }
        let total_slots = slots_in_state.iter().sum();
        TraceStats { slots_in_state, transitions, interval_lengths, total_slots }
    }

    /// Fraction of time-slots spent in `state`.
    pub fn fraction(&self, state: ProcState) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        self.slots_in_state[state.index()] as f64 / self.total_slots as f64
    }

    /// Mean length of the maximal intervals spent in `state`, if any occurred.
    pub fn mean_interval(&self, state: ProcState) -> Option<f64> {
        let v = &self.interval_lengths[state.index()];
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<u64>() as f64 / v.len() as f64)
        }
    }

    /// Number of completed visits to `state` (maximal intervals).
    pub fn num_intervals(&self, state: ProcState) -> usize {
        self.interval_lengths[state.index()].len()
    }

    /// Number of transitions into the `DOWN` state (crash events).
    pub fn crash_count(&self) -> u64 {
        self.transitions[ProcState::Up.index()][ProcState::Down.index()]
            + self.transitions[ProcState::Reclaimed.index()][ProcState::Down.index()]
    }

    /// Maximum-likelihood estimate of the 3×3 transition matrix, where rows
    /// with no observed transition fall back to a self-loop of probability 1.
    pub fn empirical_transition_matrix(&self) -> Matrix3 {
        let mut m = [[0.0f64; 3]; 3];
        // The slot-by-slot transition counts include self-loops only implicitly
        // (run lengths); reconstruct self-loop counts from interval lengths.
        let mut counts = self.transitions;
        for (i, lengths) in self.interval_lengths.iter().enumerate() {
            let self_loops: u64 = lengths.iter().map(|&l| l.saturating_sub(1)).sum();
            counts[i][i] += self_loops;
        }
        for i in 0..3 {
            let total: u64 = counts[i].iter().sum();
            if total == 0 {
                m[i][i] = 1.0;
            } else {
                for j in 0..3 {
                    m[i][j] = counts[i][j] as f64 / total as f64;
                }
            }
        }
        Matrix3::new(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::MarkovChain3;
    use crate::rng::rng_from_seed;
    use crate::trace::RealizedAvailability;

    #[test]
    fn stats_on_simple_trace() {
        let t = StateTrace::parse("UUURRDUU").unwrap();
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.total_slots, 8);
        assert_eq!(s.slots_in_state, [5, 2, 1]);
        assert_eq!(s.num_intervals(ProcState::Up), 2);
        assert_eq!(s.num_intervals(ProcState::Reclaimed), 1);
        assert_eq!(s.num_intervals(ProcState::Down), 1);
        assert_eq!(s.mean_interval(ProcState::Up), Some(2.5));
        assert_eq!(s.mean_interval(ProcState::Reclaimed), Some(2.0));
        assert_eq!(s.crash_count(), 1);
        assert!((s.fraction(ProcState::Up) - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_constant_trace() {
        let t = StateTrace::constant(ProcState::Up, 10);
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.slots_in_state, [10, 0, 0]);
        assert_eq!(s.crash_count(), 0);
        assert_eq!(s.mean_interval(ProcState::Down), None);
        let m = s.empirical_transition_matrix();
        assert!((m.m[0][0] - 1.0).abs() < 1e-12);
        // unobserved rows fall back to self-loops
        assert!((m.m[1][1] - 1.0).abs() < 1e-12);
        assert!((m.m[2][2] - 1.0).abs() < 1e-12);
        assert!(m.is_row_stochastic());
    }

    #[test]
    fn empirical_matrix_recovers_generating_chain() {
        let chain = MarkovChain3::from_self_loop_probs(0.93, 0.9, 0.95).unwrap();
        let traces = RealizedAvailability::markov(vec![chain], 11, false).materialize(300_000);
        let stats = TraceStats::from_trace(traces.trace(0));
        let emp = stats.empirical_transition_matrix();
        for i in 0..3 {
            for j in 0..3 {
                let theo = chain.transition_matrix().m[i][j];
                assert!(
                    (emp.m[i][j] - theo).abs() < 0.02,
                    "entry ({i},{j}): empirical {} vs {}",
                    emp.m[i][j],
                    theo
                );
            }
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let t = StateTrace::parse("URDURDUUUURRRDDD").unwrap();
        let s = TraceStats::from_trace(&t);
        let total: f64 = ProcState::ALL.iter().map(|&st| s.fraction(st)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_distribution_matches_long_run_fractions() {
        let chain = MarkovChain3::from_self_loop_probs(0.96, 0.92, 0.9).unwrap();
        let mut rng = rng_from_seed(42);
        let mut s = ProcState::Up;
        let mut counts = [0u64; 3];
        let n = 500_000u64;
        for _ in 0..n {
            counts[s.index()] += 1;
            s = chain.next_state(s, &mut rng);
        }
        let pi = chain.stationary_distribution();
        for i in 0..3 {
            let emp = counts[i] as f64 / n as f64;
            assert!((emp - pi[i]).abs() < 0.01, "state {i}: {emp} vs {}", pi[i]);
        }
    }
}
