//! Per-worker series `t ↦ P^(q)_{u →t→ u}`.
//!
//! For each worker the quantity of interest is the probability of being `UP`
//! at time `t` without having been `DOWN` in between, starting `UP` at time 0.
//! It is `(M_q^t)[0][0]` for the `{UP, RECLAIMED}` sub-matrix `M_q`, and has
//! the closed form `µ·λ₁ᵗ + ν·λ₂ᵗ`. This module wraps both evaluations, the
//! per-worker data needed for series truncation, and the tabulation of the
//! series up to the longest truncation any set containing the worker needs.

use crate::group::series_len;
use dg_availability::markov::UpUpSeries;
use dg_availability::MarkovChain3;
use serde::{Deserialize, Serialize};

/// Pre-processed per-worker data for evaluating `P^(q)_{u →t→ u}` cheaply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerSeries {
    chain: MarkovChain3,
    closed_form: Option<UpUpSeries>,
    lambda1: f64,
    can_fail: bool,
}

impl WorkerSeries {
    /// Pre-process one worker's availability chain.
    pub fn new(chain: &MarkovChain3) -> Self {
        WorkerSeries {
            chain: *chain,
            closed_form: chain.up_up_series(),
            lambda1: chain.dominant_up_eigenvalue(),
            can_fail: chain.can_fail(),
        }
    }

    /// Dominant eigenvalue `λ₁` of the `{UP, RECLAIMED}` sub-matrix.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// `true` if the worker has a non-zero probability of going `DOWN`.
    pub fn can_fail(&self) -> bool {
        self.can_fail
    }

    /// Evaluate `P^(q)_{u →t→ u}`, preferring the closed form and falling back
    /// to an exact matrix power when the eigen-decomposition is degenerate.
    #[inline]
    pub fn up_to_up(&self, t: u64) -> f64 {
        match &self.closed_form {
            Some(s) => s.eval(t),
            None => self.chain.up_to_up_avoiding_down(t),
        }
    }

    /// `P^(q)_{u →t→ u}` for `t = 1 ..= series_len(ε, min(λ₁, fail_lambda))`
    /// at precision `epsilon`, where `fail_lambda` is the largest `λ₁` among
    /// the platform's workers that can fail; entry `t − 1` is the value
    /// [`WorkerSeries::up_to_up`] returns for `t`.
    ///
    /// A truncated series only exists for a set that can fail, so for a set
    /// holding one of those workers and this one. Its joint `Λ = Π λ₁` is at
    /// most each factor's `λ₁` (each is at most 1, and so is every rounded
    /// product), and [`series_len`] is monotone in `Λ`, so the table covers
    /// every term such a series evaluates. The bound only binds for a worker
    /// that cannot fail (`λ₁ = 1`), which would otherwise tabulate the whole
    /// [`crate::group::MAX_SERIES_TERMS`] cap.
    ///
    /// The closed form is tabulated from power tables ([`UpUpSeries::table`]),
    /// one multiplication per power; a degenerate chain is evaluated term by
    /// term.
    pub fn tabulate(&self, epsilon: f64, fail_lambda: f64) -> Vec<f64> {
        let len = series_len(epsilon, self.lambda1.min(fail_lambda));
        match &self.closed_form {
            Some(s) => s.table(len as usize),
            None => (1..=len).map(|t| self.chain.up_to_up_avoiding_down(t)).collect(),
        }
    }

    /// `P^(q)_{ND}(t)`: probability of not going `DOWN` within `t` slots,
    /// starting `UP`.
    #[inline]
    pub fn no_down_within(&self, t: u64) -> f64 {
        self.chain.prob_no_down_within(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_agrees_with_matrix_power() {
        let chain = MarkovChain3::from_self_loop_probs(0.94, 0.92, 0.9).unwrap();
        let s = WorkerSeries::new(&chain);
        assert!(s.can_fail());
        for t in 0..300 {
            let a = s.up_to_up(t);
            let b = chain.up_to_up_avoiding_down(t);
            assert!((a - b).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn table_holds_the_series_values_up_to_the_workers_own_truncation() {
        let mut rng = dg_availability::rng::rng_from_seed(26);
        let mut chains = vec![
            MarkovChain3::from_self_loop_probs(0.97, 0.95, 0.96).unwrap(),
            // λ₂ < 0: the sub-dominant powers alternate in sign.
            MarkovChain3::from_self_loop_probs(0.3, 0.2, 0.5).unwrap(),
            // M_q = [[0.75, 0], [0.125, 0.75]] has the double eigenvalue 0.75,
            // so no closed form: the table is evaluated term by term.
            MarkovChain3::new(dg_availability::Matrix3::new([
                [0.75, 0.0, 0.25],
                [0.125, 0.75, 0.125],
                [0.1, 0.1, 0.8],
            ]))
            .unwrap(),
        ];
        for _ in 0..2 {
            chains.push(MarkovChain3::sample_self_loops_in(0.60, 0.85, &mut rng));
            chains.push(MarkovChain3::sample_paper_model(&mut rng));
            chains.push(MarkovChain3::sample_self_loops_in(0.995, 0.999, &mut rng));
        }
        assert!(chains[1].up_up_series().unwrap().lambda2 < 0.0);
        assert!(chains[2].up_up_series().is_none());
        let mut longest = 0;
        for chain in &chains {
            let s = WorkerSeries::new(chain);
            for epsilon in [1e-3, 1e-7, 1e-12] {
                let table = s.tabulate(epsilon, 1.0);
                assert_eq!(table.len() as u64, series_len(epsilon, s.lambda1()));
                longest = longest.max(table.len());
                for (i, &v) in table.iter().enumerate() {
                    assert_eq!(v.to_bits(), s.up_to_up(i as u64 + 1).to_bits(), "t = {}", i + 1);
                }
            }
        }
        // A stable chain's table crosses many powers of two.
        assert!(longest > 1 << 13, "longest table {longest}");
    }

    #[test]
    fn always_up_worker() {
        let chain = MarkovChain3::always_up();
        let s = WorkerSeries::new(&chain);
        assert!(!s.can_fail());
        assert!((s.lambda1() - 1.0).abs() < 1e-12);
        for t in [0, 1, 10, 1000] {
            assert!((s.up_to_up(t) - 1.0).abs() < 1e-12);
            assert!((s.no_down_within(t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn values_bounded_and_decaying() {
        let chain = MarkovChain3::from_self_loop_probs(0.9, 0.95, 0.93).unwrap();
        let s = WorkerSeries::new(&chain);
        assert!(s.lambda1() < 1.0);
        for t in 0..500u64 {
            let v = s.up_to_up(t);
            assert!((0.0..=1.0).contains(&v));
            assert!(v <= s.lambda1().powi(t as i32) + 1e-12);
        }
    }
}
