//! Group-level quantities: `Eu(S)`, `A(S)`, `P₊^(S)`, `E_c^(S)` and `E^(S)(W)`.
//!
//! Following the proof of Theorem 5.1, for a set `S` of workers that are all
//! `UP` at time 0 let
//!
//! * `P^(S)_{u →t→ u} = Π_q P^(q)_{u →t→ u}` — probability that all workers of
//!   `S` are `UP` at time `t` with none having been `DOWN` in between,
//! * `Eu(S) = Σ_{t>0} P^(S)_{u →t→ u}` — expected number of future all-`UP`
//!   slots before the first failure,
//! * `A(S)  = Σ_{t>0} t·P^(S)_{u →t→ u}`.
//!
//! Then the probability that `S` is simultaneously `UP` again before any
//! failure is `P₊^(S) = Eu(S) / (1 + Eu(S))` (1 if no worker of `S` can fail),
//! and the sub-probabilistic expectation of the first return time is
//! `E_c^(S) = A(S)·(1 − P₊^(S)) / (1 + Eu(S))`.
//!
//! Because every return to "all workers `UP`" puts the joint availability chain
//! back in exactly the same state, returns form a renewal process: the
//! completion of a workload of `W` slots of simultaneous computation succeeds
//! with probability `(P₊^(S))^(W−1)` and, conditioned on success, takes
//! `1 + (W−1)·E_c^(S)/P₊^(S)` slots in expectation. The literal formula printed
//! in the paper, `(1 + (W−1)·E_c^(S)) / (P₊^(S))^(W−1)`, is also provided for
//! comparison; both are monotone in the same direction and lead to the same
//! heuristic rankings in our experiments.
//!
//! All series are truncated once their geometric tail bound drops below the
//! requested precision `ε`, which yields the fully-polynomial approximation of
//! Theorem 5.1.
//!
//! Each factor `P^(q)_{u →t→ u}` depends only on the worker and on `t`. The
//! incremental path ([`GroupAccumulator`], what the evaluation cache runs)
//! reads it from the worker's table ([`WorkerSeries::tabulate`]), which
//! reaches the truncation point of every failing set containing that worker:
//! a set's `Λ` never exceeds a member's `λ₁` and [`series_len`] is monotone
//! in `Λ`.
//! The batch path ([`GroupComputation::compute`]) evaluates every factor
//! term by term; it is the reference the incremental path matches bit for
//! bit.

use crate::series::WorkerSeries;
use serde::{Deserialize, Serialize};

/// Hard cap on series truncation length, protecting against pathological
/// near-1 dominant eigenvalues.
pub const MAX_SERIES_TERMS: u64 = 200_000;

/// Hard cap on the first-return recurrence length used for sets that cannot
/// fail (where the geometric tail bound does not apply).
pub const MAX_RECURRENCE_TERMS: u64 = 20_000;

/// The group-level quantities of Section V-A for a fixed set `S`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupQuantities {
    /// `Eu(S)`: expected number of future all-`UP` slots before a failure.
    pub eu: f64,
    /// `A(S) = Σ_{t>0} t·P^(S)_{u →t→ u}`.
    pub a: f64,
    /// `P₊^(S)`: probability of a joint return to `UP` before any failure.
    pub p_plus: f64,
    /// `E_c^(S)`: sub-probabilistic expectation of the first joint return time.
    pub e_c: f64,
    /// `true` if at least one worker of `S` can go `DOWN`.
    pub can_fail: bool,
    /// Number of series terms evaluated (for the precision/cost ablation).
    pub terms_evaluated: u64,
}

impl GroupQuantities {
    /// Quantities for an empty set (vacuously succeeds instantly).
    pub fn empty() -> Self {
        GroupQuantities {
            eu: f64::INFINITY,
            a: f64::INFINITY,
            p_plus: 1.0,
            e_c: 1.0,
            can_fail: false,
            terms_evaluated: 0,
        }
    }

    /// Probability that the set completes `w` slots of simultaneous
    /// computation without any worker going `DOWN`: `(P₊^(S))^(w−1)`
    /// (the first slot happens now, while everyone is known to be `UP`).
    /// The exponent saturates at `i32::MAX` instead of wrapping negative
    /// (which would score a near-certain failure as a sure success), so past
    /// `2³¹` slots the result is an upper bound.
    pub fn prob_success(&self, w: u64) -> f64 {
        if w <= 1 {
            1.0
        } else {
            self.p_plus.powi((w - 1).min(i32::MAX as u64) as i32)
        }
    }

    /// `E^(S)(W)`: expected number of time-slots to complete `w` slots of
    /// simultaneous computation, conditioned on success (renewal form
    /// `1 + (W−1)·E_c/P₊`).
    pub fn expected_completion_time(&self, w: u64) -> f64 {
        if w == 0 {
            return 0.0;
        }
        if w == 1 || self.p_plus <= 0.0 {
            return if w == 1 { 1.0 } else { f64::INFINITY };
        }
        1.0 + (w - 1) as f64 * self.e_c / self.p_plus
    }

    /// `E^(S)(W)` using the formula exactly as printed in the paper,
    /// `(1 + (W−1)·E_c) / (P₊)^(W−1)`.
    pub fn expected_completion_time_paper(&self, w: u64) -> f64 {
        if w == 0 {
            return 0.0;
        }
        let p = self.prob_success(w);
        if p <= 0.0 {
            return f64::INFINITY;
        }
        (1.0 + (w - 1) as f64 * self.e_c) / p
    }
}

/// Computes [`GroupQuantities`] for a set of workers.
#[derive(Debug, Clone)]
pub struct GroupComputation {
    epsilon: f64,
}

impl GroupComputation {
    /// Create a computation context with precision `ε`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "precision must lie in (0, 1)");
        GroupComputation { epsilon }
    }

    /// The configured precision.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Joint probability `P^(S)_{u →t→ u}` for the given workers.
    pub fn joint_up_to_up(&self, workers: &[&WorkerSeries], t: u64) -> f64 {
        workers.iter().map(|w| w.up_to_up(t)).product()
    }

    /// Compute the group quantities for `workers` (all assumed `UP` now).
    ///
    /// For sets containing at least one worker that can fail, the truncated
    /// series of Theorem 5.1 are used. For sets that cannot fail the
    /// first-return recurrence is used instead (the geometric tail bound
    /// degenerates), with `P₊ = 1`.
    pub fn compute(&self, workers: &[&WorkerSeries]) -> GroupQuantities {
        if workers.is_empty() {
            return GroupQuantities::empty();
        }
        let can_fail = workers.iter().any(|w| w.can_fail());
        if can_fail {
            self.compute_series(workers)
        } else {
            self.compute_recurrence(workers)
        }
    }

    /// Truncated-series evaluation (Theorem 5.1). Requires that at least one
    /// worker can fail so that `Λ = Π λ₁ < 1`.
    fn compute_series(&self, workers: &[&WorkerSeries]) -> GroupQuantities {
        let lambda: f64 = workers.iter().map(|w| w.lambda1()).product();
        let t_final = series_len(self.epsilon, lambda);
        fold_series((1..=t_final).map(|t| self.joint_up_to_up(workers, t)), t_final)
    }

    /// First-return recurrence, used when no worker of the set can fail
    /// (`P₊ = 1`): `P₊(t) = P^(S)(t) − Σ_{0<t'<t} P₊(t')·P^(S)(t−t')`.
    fn compute_recurrence(&self, workers: &[&WorkerSeries]) -> GroupQuantities {
        let mut joint = vec![1.0f64]; // joint[t] = P^(S)_{u →t→ u}
        let mut first_return: Vec<f64> = vec![0.0];
        let mut cumulative = 0.0;
        let mut e_c = 0.0;
        let mut t = 1u64;
        while cumulative < 1.0 - self.epsilon && t <= MAX_RECURRENCE_TERMS {
            joint.push(self.joint_up_to_up(workers, t));
            let mut p_t = joint[t as usize];
            for tp in 1..t {
                p_t -= first_return[tp as usize] * joint[(t - tp) as usize];
            }
            let p_t = p_t.max(0.0);
            first_return.push(p_t);
            cumulative += p_t;
            e_c += t as f64 * p_t;
            t += 1;
        }
        GroupQuantities {
            eu: f64::INFINITY,
            a: f64::INFINITY,
            p_plus: 1.0,
            e_c,
            can_fail: false,
            terms_evaluated: t - 1,
        }
    }

    /// Reference implementation of `P₊` and `E_c` through the first-return
    /// recurrence even when the set can fail. Quadratic in the truncation
    /// length; used for cross-validation of the closed forms in tests.
    pub fn first_return_reference(&self, workers: &[&WorkerSeries]) -> (f64, f64) {
        if workers.is_empty() {
            return (1.0, 1.0);
        }
        let mut joint = vec![1.0f64];
        let mut first_return: Vec<f64> = vec![0.0];
        let mut p_plus = 0.0;
        let mut e_c = 0.0;
        // For failing sets the first-return mass converges to P₊ < 1; stop when
        // the joint probability itself is negligible (its tail bounds the
        // remaining first-return mass).
        let mut t = 1u64;
        loop {
            let j = self.joint_up_to_up(workers, t);
            joint.push(j);
            let mut p_t = j;
            for tp in 1..t {
                p_t -= first_return[tp as usize] * joint[(t - tp) as usize];
            }
            let p_t = p_t.max(0.0);
            first_return.push(p_t);
            p_plus += p_t;
            e_c += t as f64 * p_t;
            if (j < self.epsilon && p_t < self.epsilon) || t >= MAX_RECURRENCE_TERMS {
                break;
            }
            t += 1;
        }
        (p_plus, e_c)
    }
}

impl Default for GroupComputation {
    fn default() -> Self {
        GroupComputation::new(crate::DEFAULT_EPSILON)
    }
}

/// The truncation length of Theorem 5.1's series for a set with joint
/// dominant eigenvalue `raw_lambda` at precision `epsilon`.
///
/// The break condition of the truncation loop depends **only** on `Λ` and
/// `t` — never on the evaluated joint probabilities — so the term count is a
/// pure scalar function of `(ε, Λ)`: the batch and the incremental paths
/// decide the same truncation point up front.
pub fn series_len(epsilon: f64, raw_lambda: f64) -> u64 {
    let lambda = raw_lambda.min(1.0 - 1e-12);
    let one_minus = 1.0 - lambda;
    let mut t = 1u64;
    let mut lambda_pow = lambda; // Λ^t
    loop {
        // Tail bounds after summing term t:
        //   Σ_{s>t} Λ^s           = Λ^{t+1} / (1 − Λ)
        //   Σ_{s>t} s·Λ^s         = Λ^{t+1}·( (t+1)/(1−Λ) + Λ/(1−Λ)² )
        let tail_eu = lambda_pow * lambda / one_minus;
        let tail_a =
            lambda_pow * lambda * ((t + 1) as f64 / one_minus + lambda / (one_minus * one_minus));
        if (tail_eu <= epsilon && tail_a <= epsilon) || t >= MAX_SERIES_TERMS {
            return t;
        }
        lambda_pow *= lambda;
        t += 1;
    }
}

/// Fold the evaluated joint products into the Section V quantities, strictly
/// in `t` order. Shared by the batch and the extension paths so the
/// floating-point accumulation order — and hence the result, bit for bit — is
/// identical on both.
fn fold_series(terms: impl IntoIterator<Item = f64>, t_final: u64) -> GroupQuantities {
    let mut eu = 0.0;
    let mut a = 0.0;
    for (i, p) in terms.into_iter().enumerate() {
        eu += p;
        a += (i + 1) as f64 * p;
    }
    let p_plus = eu / (1.0 + eu);
    let e_c = a * (1.0 - p_plus) / (1.0 + eu);
    GroupQuantities { eu, a, p_plus, e_c, can_fail: true, terms_evaluated: t_final }
}

/// Incremental state of one truncated-series evaluation: the per-`t` joint
/// products `P^(S)_{u →t→ u}` and the running `Λ = Π λ₁`, alongside the set's
/// [`GroupQuantities`].
///
/// Extending a set by one worker multiplies the stored products by that
/// worker's tabulated series ([`WorkerSeries::tabulate`]), so it costs
/// O(terms) multiplications instead of the O(terms × |S|) series evaluations
/// of a batch [`GroupComputation::compute`]. The table holds the very values
/// [`WorkerSeries::up_to_up`] returns and the stored products are the exact
/// left-fold prefixes of the batch product, so an accumulator built by
/// extending workers in slice order yields quantities **bit-identical** to
/// the batch evaluation of that slice — the `EvalCache` keys prefix
/// accumulators on this guarantee without perturbing any cached value.
///
/// Because `Λ` only shrinks under extension (every `λ₁ ≤ 1`) and the tail
/// bounds grow with `Λ`, an extended series never needs more terms than its
/// base stored, nor more than the new worker's table holds.
///
/// Only sets that can fail have a truncated series: [`GroupAccumulator::extend`]
/// returns `None` when the extended set cannot fail (callers fall back to the
/// first-return recurrence of [`GroupComputation::compute`]).
#[derive(Debug, Clone)]
pub struct GroupAccumulator {
    /// `joint[i] = P^(S)_{u →(i+1)→ u}` for `t = 1..=terms_evaluated`.
    joint: Vec<f64>,
    /// Raw (un-capped) `Π_q λ₁^(q)`.
    raw_lambda: f64,
    /// Number of workers folded in.
    members: usize,
    quantities: GroupQuantities,
    epsilon: f64,
}

impl GroupAccumulator {
    /// The accumulator of the empty set: the starting point of every chain.
    ///
    /// # Panics
    /// Panics unless `epsilon` lies in `(0, 1)`.
    pub fn empty(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "precision must lie in (0, 1)");
        GroupAccumulator {
            joint: Vec::new(),
            raw_lambda: 1.0,
            members: 0,
            quantities: GroupQuantities::empty(),
            epsilon,
        }
    }

    /// The group quantities of the accumulated set.
    pub fn quantities(&self) -> GroupQuantities {
        self.quantities
    }

    /// `true` if no worker has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Number of per-`t` joint products currently stored (the memory cost of
    /// keeping this accumulator around).
    pub fn stored_terms(&self) -> usize {
        self.joint.len()
    }

    /// Extend the accumulated set by one worker in O(stored terms), or `None`
    /// if the extended set cannot fail (its quantities come from the
    /// first-return recurrence, which this accumulator does not model).
    ///
    /// `table` is `worker`'s [`WorkerSeries::tabulate`] at this accumulator's
    /// `ε`: the terms are read from it, never evaluated, and the empty
    /// accumulator extended by one worker folds that worker's table. A
    /// `None` extension reads nothing, so it may be given an empty table.
    ///
    /// # Panics
    /// Panics if `table` is shorter than the extended series, which a table
    /// built at this accumulator's `ε` never is.
    pub fn extend(&self, worker: &WorkerSeries, table: &[f64]) -> Option<GroupAccumulator> {
        if !(self.quantities.can_fail || worker.can_fail()) {
            return None;
        }
        let raw_lambda = self.raw_lambda * worker.lambda1();
        let mut t_final = series_len(self.epsilon, raw_lambda);
        if !self.is_empty() {
            // Λ only shrinks under extension, so the base always stores
            // enough terms; the clamp is belt-and-braces for release builds.
            debug_assert!(
                self.joint.len() as u64 >= t_final,
                "extension needs {t_final} terms but the base stored {}",
                self.joint.len()
            );
            t_final = t_final.min(self.joint.len() as u64);
        }
        let terms = &table[..t_final as usize];
        // The stored prefix product is the exact left fold of the base slice;
        // multiplying the new worker last reproduces the batch fold
        // `(..((1·u₁)·u₂)..)·u_k` bitwise (`1·u₁ = u₁` exactly).
        let joint: Vec<f64> = if self.is_empty() {
            terms.to_vec()
        } else {
            self.joint.iter().zip(terms).map(|(prefix, u)| prefix * u).collect()
        };
        let quantities = fold_series(joint.iter().copied(), t_final);
        Some(GroupAccumulator {
            joint,
            raw_lambda,
            members: self.members + 1,
            quantities,
            epsilon: self.epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::MarkovChain3;

    fn series(p_uu: f64, p_rr: f64, p_dd: f64) -> WorkerSeries {
        WorkerSeries::new(&MarkovChain3::from_self_loop_probs(p_uu, p_rr, p_dd).unwrap())
    }

    #[test]
    fn empty_set_is_trivial() {
        let g = GroupComputation::default().compute(&[]);
        assert_eq!(g.p_plus, 1.0);
        assert_eq!(g.prob_success(100), 1.0);
        assert_eq!(g.expected_completion_time(0), 0.0);
        assert_eq!(g.expected_completion_time(1), 1.0);
    }

    #[test]
    fn always_up_set_completes_in_exactly_w() {
        let w1 = WorkerSeries::new(&MarkovChain3::always_up());
        let w2 = WorkerSeries::new(&MarkovChain3::always_up());
        let g = GroupComputation::default().compute(&[&w1, &w2]);
        assert!(!g.can_fail);
        assert_eq!(g.p_plus, 1.0);
        assert!((g.e_c - 1.0).abs() < 1e-9);
        for w in 1..20u64 {
            assert!((g.expected_completion_time(w) - w as f64).abs() < 1e-6);
            assert_eq!(g.prob_success(w), 1.0);
        }
    }

    #[test]
    fn probabilities_are_valid_and_decrease_with_set_size() {
        let comp = GroupComputation::default();
        let workers: Vec<WorkerSeries> =
            vec![series(0.95, 0.92, 0.9), series(0.93, 0.96, 0.94), series(0.9, 0.9, 0.9)];
        let mut prev = 1.0;
        for k in 1..=workers.len() {
            let refs: Vec<&WorkerSeries> = workers[..k].iter().collect();
            let g = comp.compute(&refs);
            assert!(g.p_plus > 0.0 && g.p_plus < 1.0);
            assert!(
                g.p_plus <= prev + 1e-12,
                "adding a worker must not increase P+ ({} > {prev})",
                g.p_plus
            );
            prev = g.p_plus;
        }
    }

    #[test]
    fn expected_completion_time_at_least_w() {
        let comp = GroupComputation::default();
        let workers = [series(0.95, 0.93, 0.9), series(0.92, 0.9, 0.96)];
        let refs: Vec<&WorkerSeries> = workers.iter().collect();
        let g = comp.compute(&refs);
        for w in 1..50u64 {
            let e = g.expected_completion_time(w);
            assert!(e >= w as f64 - 1e-9, "E({w}) = {e} < {w}");
            let ep = g.expected_completion_time_paper(w);
            assert!(ep >= w as f64 - 1e-9);
        }
    }

    #[test]
    fn closed_form_p_plus_matches_first_return_reference() {
        let comp = GroupComputation::new(1e-9);
        let configs = [
            vec![series(0.95, 0.92, 0.9)],
            vec![series(0.95, 0.92, 0.9), series(0.9, 0.95, 0.93)],
            vec![series(0.98, 0.9, 0.97), series(0.9, 0.98, 0.9), series(0.94, 0.94, 0.94)],
        ];
        for workers in &configs {
            let refs: Vec<&WorkerSeries> = workers.iter().collect();
            let g = comp.compute(&refs);
            let (p_ref, ec_ref) = comp.first_return_reference(&refs);
            assert!(
                (g.p_plus - p_ref).abs() < 1e-4,
                "P+: closed {} vs reference {}",
                g.p_plus,
                p_ref
            );
            assert!((g.e_c - ec_ref).abs() < 1e-3, "E_c: closed {} vs reference {}", g.e_c, ec_ref);
        }
    }

    #[test]
    fn tighter_epsilon_never_reduces_terms() {
        let workers = [series(0.97, 0.95, 0.96), series(0.96, 0.97, 0.95)];
        let refs: Vec<&WorkerSeries> = workers.iter().collect();
        let loose = GroupComputation::new(1e-3).compute(&refs);
        let tight = GroupComputation::new(1e-12).compute(&refs);
        assert!(tight.terms_evaluated >= loose.terms_evaluated);
        assert!((loose.p_plus - tight.p_plus).abs() < 1e-3);
    }

    #[test]
    fn prob_success_decreases_with_workload() {
        let workers = [series(0.95, 0.92, 0.9), series(0.93, 0.9, 0.94)];
        let refs: Vec<&WorkerSeries> = workers.iter().collect();
        let g = GroupComputation::default().compute(&refs);
        let mut prev = 1.0;
        for w in 1..100u64 {
            let p = g.prob_success(w);
            assert!(p <= prev + 1e-15);
            assert!(p >= 0.0);
            prev = p;
        }
    }

    #[test]
    fn prob_success_exponent_saturates_past_i32() {
        // A 2³¹-slot exponent used to wrap to a negative power: P₊ = 0.95 then
        // scored a near-certain failure as probability `inf`, clamped to 1.
        let w = 1u64 << 31;
        for p_plus in [0.95, 1.0 - f64::EPSILON] {
            let g = GroupQuantities { p_plus, ..GroupQuantities::empty() };
            let (at, past) = (g.prob_success(w), g.prob_success(w + 1));
            assert!((0.0..=at).contains(&past), "p₊ = {p_plus}: {past} vs {at}");
            assert!(g.prob_success(3_000_000_000) <= at);
        }
        assert_eq!(GroupQuantities::empty().prob_success(w + 1), 1.0);
    }

    #[test]
    fn reclaim_only_set_uses_recurrence() {
        // Workers that can be reclaimed but never go down.
        let chain = MarkovChain3::new(dg_availability::Matrix3::new([
            [0.9, 0.1, 0.0],
            [0.3, 0.7, 0.0],
            [0.0, 0.0, 1.0],
        ]))
        .unwrap();
        let w1 = WorkerSeries::new(&chain);
        let w2 = WorkerSeries::new(&chain);
        let g = GroupComputation::default().compute(&[&w1, &w2]);
        assert!(!g.can_fail);
        assert_eq!(g.p_plus, 1.0);
        // Expected return time must exceed 1 (reclaiming delays the return)...
        assert!(g.e_c > 1.0);
        // ...and E(W) grows linearly with slope e_c.
        let e10 = g.expected_completion_time(10);
        let e20 = g.expected_completion_time(20);
        assert!((e20 - e10 - 10.0 * g.e_c).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn invalid_epsilon_rejected() {
        let _ = GroupComputation::new(0.0);
    }

    #[test]
    fn accumulator_extension_matches_batch_bit_for_bit() {
        let comp = GroupComputation::default();
        let workers = [
            series(0.95, 0.92, 0.9),
            series(0.93, 0.96, 0.94),
            series(0.9, 0.9, 0.9),
            series(0.97, 0.91, 0.95),
        ];
        let mut acc = GroupAccumulator::empty(comp.epsilon());
        assert!(acc.is_empty());
        assert_eq!(acc.quantities(), GroupQuantities::empty());
        for k in 1..=workers.len() {
            let table = workers[k - 1].tabulate(comp.epsilon(), 1.0);
            acc = acc.extend(&workers[k - 1], &table).expect("all workers can fail");
            let refs: Vec<&WorkerSeries> = workers[..k].iter().collect();
            let batch = comp.compute(&refs);
            // Same fold order, same truncation loop: exact equality, not just
            // closeness. The EvalCache's prefix chains rely on this.
            assert_eq!(acc.quantities(), batch);
            assert_eq!(acc.stored_terms() as u64, batch.terms_evaluated);
        }
    }

    #[test]
    fn accumulator_rejects_sets_that_cannot_fail() {
        let always_up = WorkerSeries::new(&MarkovChain3::always_up());
        let empty = GroupAccumulator::empty(1e-7);
        assert!(empty.extend(&always_up, &[]).is_none());

        // Reclaim-only workers use the recurrence, not the series.
        let chain = MarkovChain3::new(dg_availability::Matrix3::new([
            [0.9, 0.1, 0.0],
            [0.3, 0.7, 0.0],
            [0.0, 0.0, 1.0],
        ]))
        .unwrap();
        let reclaim_only = WorkerSeries::new(&chain);
        assert!(empty.extend(&reclaim_only, &[]).is_none());

        // But a can-fail base absorbs no-fail extensions fine.
        let failing = series(0.95, 0.92, 0.9);
        let base = empty.extend(&failing, &failing.tabulate(1e-7, 1.0)).unwrap();
        let mixed = base
            .extend(&reclaim_only, &reclaim_only.tabulate(1e-7, failing.lambda1()))
            .expect("the union can still fail");
        let batch = GroupComputation::default().compute(&[&failing, &reclaim_only]);
        assert_eq!(mixed.quantities(), batch);
    }
}
