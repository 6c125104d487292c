//! Discrete-time 3-state Markov model of processor availability (Section V).
//!
//! Each processor `P_q` is described by a 3×3 row-stochastic transition matrix
//! over the states `UP`, `RECLAIMED`, `DOWN`. Transitions happen independently
//! at every time-slot. The module also exposes the two quantities the paper's
//! analytical approximations are built on:
//!
//! * the restriction `M_q` of the chain to the *non-failed* states
//!   `{UP, RECLAIMED}` (a sub-stochastic 2×2 matrix), and
//! * the probability `P^(q)_{u →t→ u}` that a processor which is `UP` at time 0
//!   is `UP` again at time `t` **without having been `DOWN` in between**, which
//!   equals `(M_q^t)[0][0]` and admits the closed form `µ·λ₁ᵗ + ν·λ₂ᵗ` through
//!   the eigen-decomposition of `M_q`.

use crate::matrix::{Matrix2, Matrix3, STOCHASTIC_TOL};
use crate::state::ProcState;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Errors produced when building a [`MarkovChain3`].
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A transition probability is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Source state of the offending entry.
        from: ProcState,
        /// Destination state of the offending entry.
        to: ProcState,
        /// Offending value.
        value: f64,
    },
    /// A row of the transition matrix does not sum to 1.
    RowNotStochastic {
        /// Source state whose outgoing probabilities are inconsistent.
        from: ProcState,
        /// Actual row sum.
        sum: f64,
    },
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::ProbabilityOutOfRange { from, to, value } => {
                write!(f, "transition probability {from}->{to} = {value} is outside [0,1]")
            }
            MarkovError::RowNotStochastic { from, sum } => {
                write!(f, "outgoing probabilities of state {from} sum to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for MarkovError {}

/// A 3-state discrete-time Markov chain describing one processor's availability.
///
/// States are indexed in the canonical order `UP = 0`, `RECLAIMED = 1`, `DOWN = 2`
/// (see [`ProcState::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain3 {
    transition: Matrix3,
}

/// Closed-form representation of `t ↦ P^(q)_{u →t→ u}` (probability of being UP
/// at time `t` without visiting DOWN, starting UP at time 0):
/// `P(t) = µ·λ₁ᵗ + ν·λ₂ᵗ` with `λ₁ ≥ λ₂`.
///
/// Produced by [`MarkovChain3::up_up_series`]; consumed by the analytical
/// approximations in the `dg-analysis` crate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpUpSeries {
    /// Coefficient of the dominant eigenvalue.
    pub mu: f64,
    /// Coefficient of the sub-dominant eigenvalue.
    pub nu: f64,
    /// Dominant eigenvalue of the `{UP, RECLAIMED}` sub-matrix.
    pub lambda1: f64,
    /// Sub-dominant eigenvalue of the `{UP, RECLAIMED}` sub-matrix.
    pub lambda2: f64,
}

impl UpUpSeries {
    /// Evaluate `P_{u →t→ u}` at time `t` using the closed form.
    ///
    /// The exponent saturates at `i32::MAX` instead of wrapping negative
    /// (which turned a vanished probability into 1 at `t = 2³¹`), so past
    /// `2³¹` slots the powers are those of `t = i32::MAX`.
    #[inline]
    pub fn eval(&self, t: u64) -> f64 {
        let t = t.min(i32::MAX as u64) as i32;
        self.combine(self.lambda1.powi(t), self.lambda2.powi(t))
    }

    /// [`UpUpSeries::eval`] at `t = 1 ..= len`: entry `t − 1` has the bits
    /// `eval(t)` returns.
    ///
    /// The powers `λ₁ᵗ` and `λ₂ᵗ` come from two power tables made by
    /// doubling, one multiplication each instead of a `powi` call, in
    /// `powi`'s own multiplication order, so every entry keeps its bits.
    ///
    /// # Panics
    /// Panics if `len` exceeds `i32::MAX`, past which `eval` saturates its
    /// exponent.
    pub fn table(&self, len: usize) -> Vec<f64> {
        assert!(len <= i32::MAX as usize, "a series table holds at most 2³¹ − 1 terms");
        let (p1, p2) = (powers(self.lambda1, len), powers(self.lambda2, len));
        p1[1..].iter().zip(&p2[1..]).map(|(&a, &b)| self.combine(a, b)).collect()
    }

    /// `µ·λ₁ᵗ + ν·λ₂ᵗ` from the two powers, clamped to a probability.
    #[inline]
    fn combine(&self, lambda1_pow: f64, lambda2_pow: f64) -> f64 {
        (self.mu * lambda1_pow + self.nu * lambda2_pow).clamp(0.0, 1.0)
    }
}

/// `baseᵗ` for `t = 0 ..= len`, each with the bits of `base.powi(t)`.
///
/// `powi` (`__powidf2`, in both compiler-builtins and libgcc) multiplies the
/// repeated squarings `base^(2ᵏ)` of `t`'s set bits in ascending order of
/// `k`. So `base^(2ʰ)` is the square of `base^(2ʰ⁻¹)`, and every other `t`
/// is `base^(t − 2ʰ) · base^(2ʰ)` for its top bit `2ʰ`: the same products
/// in the same order, one multiplication per entry.
fn powers(base: f64, len: usize) -> Vec<f64> {
    let mut p = Vec::with_capacity(len + 1);
    p.push(1.0);
    let mut top = 1; // the largest power of two at most `t`
    for t in 1..=len {
        let v = if t == 1 {
            base
        } else if t == 2 * top {
            top = t;
            p[t / 2] * p[t / 2]
        } else {
            p[t - top] * p[top]
        };
        p.push(v);
    }
    p
}

impl MarkovChain3 {
    /// Build a chain from an explicit row-stochastic transition matrix.
    pub fn new(transition: Matrix3) -> Result<Self, MarkovError> {
        for (i, row) in transition.m.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                if !(-STOCHASTIC_TOL..=1.0 + STOCHASTIC_TOL).contains(&p) || !p.is_finite() {
                    return Err(MarkovError::ProbabilityOutOfRange {
                        from: ProcState::from_index(i),
                        to: ProcState::from_index(j),
                        value: p,
                    });
                }
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(MarkovError::RowNotStochastic { from: ProcState::from_index(i), sum });
            }
        }
        Ok(MarkovChain3 { transition })
    }

    /// Build a chain from the three "self-loop" probabilities, splitting the
    /// remaining mass evenly between the two other states:
    /// `P(x → y) = 0.5·(1 − P(x → x))` for `y ≠ x`.
    ///
    /// This is exactly the parameterization used in Section VII-A of the paper.
    pub fn from_self_loop_probs(p_uu: f64, p_rr: f64, p_dd: f64) -> Result<Self, MarkovError> {
        let row = |p: f64, idx: usize| -> [f64; 3] {
            let other = 0.5 * (1.0 - p);
            let mut r = [other; 3];
            r[idx] = p;
            r
        };
        MarkovChain3::new(Matrix3::new([row(p_uu, 0), row(p_rr, 1), row(p_dd, 2)]))
    }

    /// Sample a chain with the paper's random parameterization: each self-loop
    /// probability is drawn uniformly in `[0.90, 0.99]` and the remaining mass
    /// is split evenly between the two other states.
    pub fn sample_paper_model<R: Rng + ?Sized>(rng: &mut R) -> Self {
        MarkovChain3::sample_self_loops_in(0.90, 0.99, rng)
    }

    /// Sample a chain whose three self-loop probabilities are drawn uniformly
    /// in `[lo, hi]`, the remaining mass split evenly between the two other
    /// states (the paper's rule with a configurable range). The paper's own
    /// parameterization is the `[0.90, 0.99]` special case; the suite
    /// generator's *volatile* and *stable* regimes use other ranges.
    ///
    /// # Panics
    /// Panics unless `0 <= lo <= hi < 1`.
    pub fn sample_self_loops_in<R: Rng + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..1.0).contains(&lo) && (0.0..1.0).contains(&hi) && lo <= hi,
            "self-loop range must satisfy 0 <= lo <= hi < 1, got [{lo}, {hi}]"
        );
        let p_uu = rng.gen_range(lo..=hi);
        let p_rr = rng.gen_range(lo..=hi);
        let p_dd = rng.gen_range(lo..=hi);
        MarkovChain3::from_self_loop_probs(p_uu, p_rr, p_dd)
            .expect("self-loop parameters in [0, 1) are always valid")
    }

    /// A chain for a processor that is always `UP` (never reclaimed, never down).
    pub fn always_up() -> Self {
        MarkovChain3::new(Matrix3::new([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
            .expect("always-up matrix is stochastic")
    }

    /// Transition probability `P(from → to)`.
    #[inline]
    pub fn prob(&self, from: ProcState, to: ProcState) -> f64 {
        self.transition.m[from.index()][to.index()]
    }

    /// The full 3×3 transition matrix.
    pub fn transition_matrix(&self) -> &Matrix3 {
        &self.transition
    }

    /// The sub-stochastic 2×2 matrix `M_q` restricted to `{UP, RECLAIMED}`
    /// (the paper deletes the `DOWN` row and column).
    pub fn up_reclaimed_submatrix(&self) -> Matrix2 {
        self.transition.minor(2, 2)
    }

    /// `P^(q)_{u →t→ u}`: probability of being `UP` at time `t` without having
    /// been `DOWN` in between, starting `UP` at time 0. Computed exactly as
    /// `(M_q^t)[0][0]`.
    pub fn up_to_up_avoiding_down(&self, t: u64) -> f64 {
        self.up_reclaimed_submatrix().pow(t).m[0][0]
    }

    /// Probability of not visiting `DOWN` during `t` transitions, starting `UP`:
    /// the total mass remaining in `{UP, RECLAIMED}` after `t` steps of `M_q`.
    /// This is the quantity `P^(P_q)_{ND}(t)` of Section V-B.
    pub fn prob_no_down_within(&self, t: u64) -> f64 {
        let p = self.up_reclaimed_submatrix().pow(t);
        (p.m[0][0] + p.m[0][1]).clamp(0.0, 1.0)
    }

    /// Closed-form eigen-decomposition of `t ↦ P^(q)_{u →t→ u}`.
    ///
    /// Returns `None` when the `{UP, RECLAIMED}` sub-matrix has (numerically)
    /// non-real or equal eigenvalues; callers should then fall back to
    /// [`MarkovChain3::up_to_up_avoiding_down`].
    pub fn up_up_series(&self) -> Option<UpUpSeries> {
        let m = self.up_reclaimed_submatrix();
        let (l1, l2) = m.eigenvalues()?;
        if (l1 - l2).abs() < 1e-12 {
            return None;
        }
        // M = λ1·P1 + λ2·P2 with P1 = (M − λ2 I)/(λ1 − λ2), P2 = (λ1 I − M)/(λ1 − λ2).
        let mu = (m.m[0][0] - l2) / (l1 - l2);
        let nu = (l1 - m.m[0][0]) / (l1 - l2);
        Some(UpUpSeries { mu, nu, lambda1: l1, lambda2: l2 })
    }

    /// Dominant eigenvalue `λ₁` of the `{UP, RECLAIMED}` sub-matrix. It bounds
    /// the geometric decay of `P_{u →t→ u}` and drives the series-truncation
    /// length of the analytical approximations (Theorem 5.1).
    pub fn dominant_up_eigenvalue(&self) -> f64 {
        match self.up_reclaimed_submatrix().eigenvalues() {
            Some((l1, _)) => l1.clamp(0.0, 1.0),
            // Degenerate (complex) case — bound by the row sums.
            None => {
                let m = self.up_reclaimed_submatrix();
                (m.m[0][0] + m.m[0][1]).max(m.m[1][0] + m.m[1][1]).clamp(0.0, 1.0)
            }
        }
    }

    /// Per-slot probability of going `DOWN` from any non-failed state; zero iff
    /// the processor can never fail while enrolled.
    pub fn can_fail(&self) -> bool {
        self.prob(ProcState::Up, ProcState::Down) > 0.0
            || self.prob(ProcState::Reclaimed, ProcState::Down) > 0.0
    }

    /// Sample how long the chain stays in `current` and which state it jumps
    /// to afterwards, in one shot.
    ///
    /// Returns `(sojourn, next)`: the chain spends `sojourn ≥ 1` consecutive
    /// slots in `current` (counting the present slot) and is in `next ≠
    /// current` from slot `sojourn` on. The sojourn is geometric with per-slot
    /// continuation probability `P(current → current)` and the jump target is
    /// drawn from the outgoing probabilities conditioned on leaving, so the
    /// sampled process has exactly the same distribution as repeated
    /// [`MarkovChain3::next_state`] calls — but costs two RNG draws per
    /// *transition* instead of one per *slot*. This is what makes the
    /// event-driven simulator's jumps over long availability runs affordable.
    ///
    /// Returns `None` when `current` is absorbing (self-loop probability 1,
    /// e.g. the `UP` state of [`MarkovChain3::always_up`]): the chain never
    /// leaves, so there is no next transition.
    pub fn sample_transition<R: Rng + ?Sized>(
        &self,
        current: ProcState,
        rng: &mut R,
    ) -> Option<(u64, ProcState)> {
        let row = self.transition.m[current.index()];
        let stay = row[current.index()].clamp(0.0, 1.0);
        let leave = 1.0 - stay;
        if leave <= f64::EPSILON {
            return None;
        }
        // Sojourn = 1 + Geometric(leave) extra slots, by inversion.
        let u: f64 = rng.gen::<f64>().max(1e-300);
        let extra = if stay <= f64::EPSILON { 0.0 } else { (u.ln() / stay.ln()).floor() };
        let sojourn = 1 + if extra.is_finite() && extra > 0.0 { extra as u64 } else { 0 };
        // Jump target, conditioned on leaving `current`.
        let others: [ProcState; 2] = match current {
            ProcState::Up => [ProcState::Reclaimed, ProcState::Down],
            ProcState::Reclaimed => [ProcState::Up, ProcState::Down],
            ProcState::Down => [ProcState::Up, ProcState::Reclaimed],
        };
        let first = row[others[0].index()].clamp(0.0, 1.0);
        let x: f64 = rng.gen::<f64>() * leave;
        let next = if x < first { others[0] } else { others[1] };
        Some((sojourn, next))
    }

    /// Sample the state at `t + 1` given the state at `t`.
    pub fn next_state<R: Rng + ?Sized>(&self, current: ProcState, rng: &mut R) -> ProcState {
        let row = self.transition.m[current.index()];
        let x: f64 = rng.gen();
        if x < row[0] {
            ProcState::Up
        } else if x < row[0] + row[1] {
            ProcState::Reclaimed
        } else {
            ProcState::Down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn closed_form_exponent_saturates_past_i32() {
        // `t as i32` used to wrap: t = 2³¹ became a negative power and 2³²
        // the zeroth, so a probability that had long vanished read as 1.
        let s =
            MarkovChain3::from_self_loop_probs(0.95, 0.92, 0.9).unwrap().up_up_series().unwrap();
        let last = (1u64 << 31) - 1;
        assert_eq!(s.eval(last), 0.0);
        for t in [1u64 << 31, (1 << 31) + 1, 1 << 32, u64::MAX] {
            assert_eq!(s.eval(t), s.eval(last), "t = {t}");
        }
    }

    #[test]
    fn power_tables_have_the_bits_of_powi() {
        // Lengths end on, just past and between several powers of two.
        let bases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            -0.37,
            0.999_999_999_999,
            1.0 - 1e-12,
            0.9573,
            1.000_001,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
        ];
        for base in bases {
            for len in [0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 1023, 4097, 70_000] {
                let p = powers(base, len);
                assert_eq!(p.len(), len + 1);
                for (t, v) in p.iter().enumerate() {
                    let expected = base.powi(t as i32);
                    assert_eq!(v.to_bits(), expected.to_bits(), "{base:e}^{t}");
                }
            }
        }
    }

    #[test]
    fn from_self_loop_probs_matches_paper_rule() {
        let c = MarkovChain3::from_self_loop_probs(0.9, 0.94, 0.98).unwrap();
        assert!(approx(c.prob(ProcState::Up, ProcState::Up), 0.9, 1e-12));
        assert!(approx(c.prob(ProcState::Up, ProcState::Reclaimed), 0.05, 1e-12));
        assert!(approx(c.prob(ProcState::Up, ProcState::Down), 0.05, 1e-12));
        assert!(approx(c.prob(ProcState::Reclaimed, ProcState::Up), 0.03, 1e-12));
        assert!(approx(c.prob(ProcState::Down, ProcState::Down), 0.98, 1e-12));
        assert!(c.transition_matrix().is_row_stochastic());
    }

    #[test]
    fn invalid_matrices_rejected() {
        let bad = Matrix3::new([[0.5, 0.4, 0.0], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]);
        assert!(matches!(MarkovChain3::new(bad), Err(MarkovError::RowNotStochastic { .. })));
        let neg = Matrix3::new([[1.2, -0.2, 0.0], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]);
        assert!(matches!(MarkovChain3::new(neg), Err(MarkovError::ProbabilityOutOfRange { .. })));
        assert!(MarkovChain3::from_self_loop_probs(1.5, 0.9, 0.9).is_err());
    }

    #[test]
    fn always_up_never_leaves_up() {
        let c = MarkovChain3::always_up();
        let mut rng = rng_from_seed(1);
        let mut s = ProcState::Up;
        for _ in 0..100 {
            s = c.next_state(s, &mut rng);
            assert_eq!(s, ProcState::Up);
        }
        assert!(!c.can_fail());
        assert!(approx(c.up_to_up_avoiding_down(50), 1.0, 1e-12));
        assert!(approx(c.prob_no_down_within(50), 1.0, 1e-12));
    }

    #[test]
    fn up_up_closed_form_matches_matrix_power() {
        let c = MarkovChain3::from_self_loop_probs(0.93, 0.91, 0.97).unwrap();
        let series = c.up_up_series().expect("distinct real eigenvalues");
        for t in 0..200u64 {
            let exact = c.up_to_up_avoiding_down(t);
            let closed = series.eval(t);
            assert!(approx(exact, closed, 1e-9), "t={t}: exact={exact} closed={closed}");
        }
        // t = 0 must give 1 (the processor is UP now).
        assert!(approx(series.eval(0), 1.0, 1e-12));
    }

    #[test]
    fn up_up_probability_decreases_with_horizon_bound() {
        let c = MarkovChain3::from_self_loop_probs(0.95, 0.92, 0.9).unwrap();
        // Not necessarily monotone slot-by-slot, but bounded by λ1^t.
        let l1 = c.dominant_up_eigenvalue();
        for t in 1..100u64 {
            assert!(c.up_to_up_avoiding_down(t) <= l1.powi(t as i32) + 1e-12);
        }
    }

    #[test]
    fn prob_no_down_is_monotone_nonincreasing() {
        let c = MarkovChain3::from_self_loop_probs(0.9, 0.9, 0.9).unwrap();
        let mut prev = 1.0;
        for t in 0..200u64 {
            let p = c.prob_no_down_within(t);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn empirical_transitions_match_probabilities() {
        let c = MarkovChain3::from_self_loop_probs(0.92, 0.95, 0.9).unwrap();
        let mut rng = rng_from_seed(99);
        let mut counts = [[0u64; 3]; 3];
        let mut s = ProcState::Up;
        let n = 200_000;
        for _ in 0..n {
            let next = c.next_state(s, &mut rng);
            counts[s.index()][next.index()] += 1;
            s = next;
        }
        for (i, row) in counts.iter().enumerate() {
            let row_total: u64 = row.iter().sum();
            if row_total < 1000 {
                continue;
            }
            for (j, &count) in row.iter().enumerate() {
                let emp = count as f64 / row_total as f64;
                let theo = c.transition_matrix().m[i][j];
                assert!(
                    approx(emp, theo, 0.02),
                    "transition {i}->{j}: empirical {emp} vs theoretical {theo}"
                );
            }
        }
    }

    #[test]
    fn sample_transition_matches_per_slot_statistics() {
        // The sojourn/jump decomposition must reproduce the per-slot chain's
        // distribution: mean UP sojourn 1/(1-p_uu) and the conditional jump
        // split p_ur : p_ud.
        let c = MarkovChain3::from_self_loop_probs(0.92, 0.9, 0.9).unwrap();
        let mut rng = rng_from_seed(11);
        let n = 100_000;
        let mut total_sojourn = 0u64;
        let mut to_reclaimed = 0u64;
        for _ in 0..n {
            let (sojourn, next) =
                c.sample_transition(ProcState::Up, &mut rng).expect("UP is not absorbing");
            assert!(sojourn >= 1);
            assert_ne!(next, ProcState::Up);
            total_sojourn += sojourn;
            if next == ProcState::Reclaimed {
                to_reclaimed += 1;
            }
        }
        let mean = total_sojourn as f64 / n as f64;
        assert!((mean - 1.0 / 0.08).abs() < 0.2, "mean UP sojourn {mean}, expected 12.5");
        let frac = to_reclaimed as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "jump split {frac}, expected 0.5");
    }

    #[test]
    fn sample_transition_absorbing_state_returns_none() {
        let c = MarkovChain3::always_up();
        let mut rng = rng_from_seed(1);
        assert_eq!(c.sample_transition(ProcState::Up, &mut rng), None);
        // DOWN is not absorbing in always_up (it jumps straight back to UP).
        let (sojourn, next) = c.sample_transition(ProcState::Down, &mut rng).unwrap();
        assert_eq!(sojourn, 1);
        assert_eq!(next, ProcState::Up);
    }

    #[test]
    fn sample_self_loops_in_respects_the_range() {
        let mut rng = rng_from_seed(8);
        for (lo, hi) in [(0.60, 0.85), (0.995, 0.999), (0.90, 0.99), (0.5, 0.5)] {
            for _ in 0..50 {
                let c = MarkovChain3::sample_self_loops_in(lo, hi, &mut rng);
                assert!(c.transition_matrix().is_row_stochastic());
                for s in ProcState::ALL {
                    let p = c.prob(s, s);
                    assert!((lo..=hi).contains(&p), "self-loop {p} outside [{lo},{hi}]");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn sample_self_loops_in_rejects_inverted_range() {
        let mut rng = rng_from_seed(8);
        let _ = MarkovChain3::sample_self_loops_in(0.9, 0.8, &mut rng);
    }

    #[test]
    fn sample_paper_model_is_valid_and_biased_to_self_loops() {
        let mut rng = rng_from_seed(5);
        for _ in 0..100 {
            let c = MarkovChain3::sample_paper_model(&mut rng);
            assert!(c.transition_matrix().is_row_stochastic());
            for s in ProcState::ALL {
                let p = c.prob(s, s);
                assert!((0.90..=0.99).contains(&p), "self-loop {p} outside [0.90,0.99]");
            }
        }
    }
}
