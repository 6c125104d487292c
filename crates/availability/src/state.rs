//! The three-state processor availability model and per-processor state traces.

use serde::{Deserialize, Serialize};
use std::fmt;

/// State of a processor during one time-slot.
///
/// The paper (Section III-B) uses a three-state model:
///
/// * [`ProcState::Up`] — the processor is available and may communicate or compute.
/// * [`ProcState::Reclaimed`] — the processor has been reclaimed by its owner.
///   Its memory content (program, task data, partial computation) is preserved,
///   but it can make no progress until it is `Up` again.
/// * [`ProcState::Down`] — the processor has crashed. It loses the application
///   program, all task data and any partial computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcState {
    /// Available: may receive data and compute.
    Up,
    /// Temporarily preempted by its owner; keeps its state.
    Reclaimed,
    /// Crashed; loses program, data, and ongoing computation.
    Down,
}

impl ProcState {
    /// All states, in the canonical order used for matrix indexing
    /// (`Up` = 0, `Reclaimed` = 1, `Down` = 2).
    pub const ALL: [ProcState; 3] = [ProcState::Up, ProcState::Reclaimed, ProcState::Down];

    /// Canonical index of the state (`Up` = 0, `Reclaimed` = 1, `Down` = 2).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ProcState::Up => 0,
            ProcState::Reclaimed => 1,
            ProcState::Down => 2,
        }
    }

    /// Inverse of [`ProcState::index`].
    ///
    /// # Panics
    /// Panics if `idx >= 3`.
    #[inline]
    pub fn from_index(idx: usize) -> ProcState {
        match idx {
            0 => ProcState::Up,
            1 => ProcState::Reclaimed,
            2 => ProcState::Down,
            _ => panic!("invalid processor state index {idx}"),
        }
    }

    /// `true` if the processor is available for communication and computation.
    #[inline]
    pub fn is_up(self) -> bool {
        matches!(self, ProcState::Up)
    }

    /// `true` if the processor is crashed.
    #[inline]
    pub fn is_down(self) -> bool {
        matches!(self, ProcState::Down)
    }

    /// One-letter code used in textual traces: `U`, `R` or `D`.
    pub fn code(self) -> char {
        match self {
            ProcState::Up => 'U',
            ProcState::Reclaimed => 'R',
            ProcState::Down => 'D',
        }
    }

    /// Parse a one-letter code (`U`/`R`/`D`, case-insensitive).
    pub fn from_code(c: char) -> Option<ProcState> {
        match c.to_ascii_uppercase() {
            'U' => Some(ProcState::Up),
            'R' => Some(ProcState::Reclaimed),
            'D' => Some(ProcState::Down),
            _ => None,
        }
    }
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// The availability vector `S_q` of one processor: its state at every time-slot
/// starting from time-slot 0, stored as run-length segments.
///
/// A trace is a list of `(start, state)` runs whose starts strictly increase
/// from 0 and whose adjacent states always differ, so every run boundary is a
/// transition. It also records how many slots it covers. Queries past the
/// last run's start are answered by the *last* state, which makes finite
/// traces usable as (eventually constant) infinite ones — handy for scripted
/// test scenarios such as the paper's Figure 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateTrace {
    runs: Vec<(u64, ProcState)>,
    len: u64,
}

impl StateTrace {
    /// Create a trace that is constant over `len` recorded slots (at least one).
    pub fn constant(state: ProcState, len: u64) -> Self {
        StateTrace { runs: vec![(0, state)], len: len.max(1) }
    }

    /// Parse a trace from a string of one-letter codes, e.g. `"UURRDUU"`.
    ///
    /// Returns `None` if the string is empty or contains an invalid character.
    pub fn parse(codes: &str) -> Option<Self> {
        let mut runs: Vec<(u64, ProcState)> = Vec::new();
        let mut len = 0;
        for c in codes.chars() {
            let state = ProcState::from_code(c)?;
            if runs.last().is_none_or(|&(_, last)| last != state) {
                runs.push((len, state));
            }
            len += 1;
        }
        (len > 0).then_some(StateTrace { runs, len })
    }

    /// Index of the run covering slot `t`.
    #[inline]
    fn run_at(&self, t: u64) -> usize {
        self.runs.partition_point(|&(start, _)| start <= t) - 1
    }

    /// State at time-slot `t`. Queries beyond the last run's start return the
    /// last state.
    #[inline]
    pub fn state_at(&self, t: u64) -> ProcState {
        self.runs[self.run_at(t)].1
    }

    /// First time-slot strictly after `after` at which the state differs from
    /// the state at `after`, together with the new state: the start of the
    /// following run.
    ///
    /// Returns `None` when the state never changes again: the last run
    /// repeats forever. This is the primitive behind
    /// [`crate::trace::AvailabilityModel::next_transition`], letting the
    /// event-driven simulator jump over idle stretches instead of probing
    /// [`StateTrace::state_at`] slot by slot.
    pub fn next_change(&self, after: u64) -> Option<(u64, ProcState)> {
        self.runs.get(self.run_at(after) + 1).copied()
    }

    /// The maximal runs of the recorded slots, as `(state, length)` pairs in
    /// time order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (ProcState, u64)> + '_ {
        let ends = self.runs[1..].iter().map(|&(start, _)| start).chain([self.len]);
        self.runs.iter().zip(ends).map(|(&(start, state), end)| (state, end - start))
    }

    /// Render the recorded slots as a string of one-letter codes.
    pub fn to_code_string(&self) -> String {
        self.runs()
            .flat_map(|(state, len)| std::iter::repeat_n(state.code(), len as usize))
            .collect()
    }

    /// The last run, as `(start, state)`.
    pub(crate) fn last_run(&self) -> (u64, ProcState) {
        self.runs[self.runs.len() - 1]
    }

    /// Append a run of `state` starting at `start`, after the last run's start
    /// and in a different state, recording through its first slot.
    pub(crate) fn push_run(&mut self, start: u64, state: ProcState) {
        debug_assert!(self.last_run().0 < start && self.last_run().1 != state);
        self.runs.push((start, state));
        self.len = start + 1;
    }

    /// The first `len` slots (at least one) of this trace.
    pub(crate) fn truncated(&self, len: u64) -> StateTrace {
        let len = len.max(1);
        let runs = self.runs.iter().take_while(|&&(start, _)| start < len).copied().collect();
        StateTrace { runs, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_index_roundtrip() {
        for s in ProcState::ALL {
            assert_eq!(ProcState::from_index(s.index()), s);
        }
    }

    #[test]
    #[should_panic]
    fn state_from_invalid_index_panics() {
        let _ = ProcState::from_index(3);
    }

    #[test]
    fn state_predicates() {
        assert!(ProcState::Up.is_up());
        assert!(!ProcState::Up.is_down());
        assert!(ProcState::Down.is_down());
        assert!(!ProcState::Reclaimed.is_up());
    }

    #[test]
    fn code_roundtrip() {
        for s in ProcState::ALL {
            assert_eq!(ProcState::from_code(s.code()), Some(s));
            assert_eq!(ProcState::from_code(s.code().to_ascii_lowercase()), Some(s));
        }
        assert_eq!(ProcState::from_code('x'), None);
    }

    #[test]
    fn trace_parse_and_query() {
        let t = StateTrace::parse("UURDU").unwrap();
        assert_eq!(t.state_at(0), ProcState::Up);
        assert_eq!(t.state_at(2), ProcState::Reclaimed);
        assert_eq!(t.state_at(3), ProcState::Down);
        // beyond the horizon: last state persists
        assert_eq!(t.state_at(100), ProcState::Up);
        assert_eq!(t.state_at(u64::MAX), ProcState::Up);
        assert_eq!(t.to_code_string(), "UURDU");
        let runs: Vec<_> = t.runs().collect();
        assert_eq!(runs[0], (ProcState::Up, 2));
        assert_eq!(runs.len(), 4);
    }

    #[test]
    fn trace_parse_rejects_bad_input() {
        assert!(StateTrace::parse("").is_none());
        assert!(StateTrace::parse("UUX").is_none());
    }

    #[test]
    fn next_change_finds_transitions_and_stops_at_constant_tail() {
        let t = StateTrace::parse("UURRDUU").unwrap();
        assert_eq!(t.next_change(0), Some((2, ProcState::Reclaimed)));
        assert_eq!(t.next_change(1), Some((2, ProcState::Reclaimed)));
        assert_eq!(t.next_change(2), Some((4, ProcState::Down)));
        assert_eq!(t.next_change(4), Some((5, ProcState::Up)));
        // The trailing UP run repeats forever, so there is no change after it.
        assert_eq!(t.next_change(5), None);
        assert_eq!(t.next_change(u64::MAX), None);
        assert_eq!(StateTrace::constant(ProcState::Down, 4).next_change(0), None);
    }

    #[test]
    fn constant_and_truncated_traces_record_at_least_one_slot() {
        assert_eq!(StateTrace::constant(ProcState::Up, 0).to_code_string(), "U");
        assert_eq!(StateTrace::constant(ProcState::Down, 3).to_code_string(), "DDD");
        let t = StateTrace::parse("UURRDUU").unwrap();
        assert_eq!(t.truncated(3).to_code_string(), "UUR");
        assert_eq!(t.truncated(0).to_code_string(), "U");
        assert_eq!(t.truncated(9).to_code_string(), "UURRDUUUU");
    }
}
