//! Communication-phase estimates (Section V-B).
//!
//! Exact counterparts of `P₊`/`E(W)` for the communication phase are out of
//! reach because of the master's `ncom` bound, so the paper uses coarser
//! estimates:
//!
//! * every worker `P_q` needs `n_q` slots of communication (program if missing
//!   plus one data message per missing task input);
//! * if at most `ncom` workers communicate, each worker's transfer is treated
//!   like a single-worker "computation" of `n_q` slots, so its expected
//!   duration is `E^({P_q})(n_q)`, and the phase estimate is the maximum over
//!   workers;
//! * if more than `ncom` workers must communicate, the estimate is the maximum
//!   of the per-worker expectation and of the serialization bound
//!   `Σ_q n_q / ncom`;
//! * the success probability multiplies, for every worker, the probability of
//!   not going `DOWN` during the estimated phase duration.
//!
//! [`crate::EvalCache::comm_estimate`] computes the estimate, through the
//! memoized single-worker group quantities and `P_ND` values.

use serde::{Deserialize, Serialize};

/// Estimated duration and success probability of a communication phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommEstimate {
    /// `E_comm^(S)`: estimated duration of the communication phase, in slots.
    pub expected_duration: f64,
    /// `P_comm^(S)`: estimated probability that no enrolled worker goes `DOWN`
    /// during the phase.
    pub success_probability: f64,
}

impl CommEstimate {
    /// The estimate for a configuration that needs no communication at all.
    pub fn nothing_to_send() -> Self {
        CommEstimate { expected_duration: 0.0, success_probability: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalCache, GroupComputation, WorkerSeries};
    use dg_availability::MarkovChain3;
    use dg_platform::{MasterSpec, Platform, Scenario, ScenarioParams, WorkerSpec};

    fn chain(p_uu: f64, p_rr: f64, p_dd: f64) -> MarkovChain3 {
        MarkovChain3::from_self_loop_probs(p_uu, p_rr, p_dd).unwrap()
    }

    fn reliable() -> MarkovChain3 {
        MarkovChain3::always_up()
    }

    /// A cache over one worker per chain (speeds play no part in the
    /// communication phase) behind a master with bound `ncom`.
    fn cache(chains: Vec<MarkovChain3>, ncom: usize) -> EvalCache {
        let platform = Platform::new(vec![WorkerSpec::new(1); chains.len()], chains);
        EvalCache::with_default_epsilon(&platform, &MasterSpec::from_slots(ncom, 1, 1))
    }

    #[test]
    fn no_communication_needed() {
        let cache = cache(vec![reliable()], 2);
        let est = cache.comm_estimate(&[0], &[0]);
        assert_eq!(est.expected_duration, 0.0);
        assert_eq!(est.success_probability, 1.0);
        let empty = cache.comm_estimate(&[], &[]);
        assert_eq!(empty.expected_duration, 0.0);
    }

    #[test]
    fn reliable_workers_under_ncom_take_max_volume() {
        let est = cache(vec![reliable(); 3], 3).comm_estimate(&[0, 1, 2], &[3, 7, 2]);
        assert!((est.expected_duration - 7.0).abs() < 1e-6);
        assert!((est.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_bound_kicks_in_when_over_ncom() {
        // 4 workers, ncom = 2, volumes sum to 12 -> aggregated bound 6 > max 4.
        let est = cache(vec![reliable(); 4], 2).comm_estimate(&[0, 1, 2, 3], &[4, 4, 2, 2]);
        assert!((est.expected_duration - 6.0).abs() < 1e-6);
    }

    #[test]
    fn per_worker_expectation_dominates_when_larger() {
        // max volume 10 > total/ncom = 16/2 = 8.
        let est = cache(vec![reliable(); 4], 2).comm_estimate(&[0, 1, 2, 3], &[10, 2, 2, 2]);
        assert!((est.expected_duration - 10.0).abs() < 1e-6);
    }

    #[test]
    fn volatile_workers_lower_success_probability() {
        let risky = cache(vec![chain(0.9, 0.9, 0.9); 2], 2);
        let est = risky.comm_estimate(&[0, 1], &[5, 5]);
        assert!(est.success_probability < 1.0);
        assert!(est.success_probability > 0.0);
        // Expected duration exceeds the raw volume because of reclaiming.
        assert!(est.expected_duration > 5.0);

        // Workers with a higher failure rate fare worse.
        let safer = cache(vec![chain(0.99, 0.99, 0.9); 2], 2);
        let est_safe = safer.comm_estimate(&[0, 1], &[5, 5]);
        assert!(est_safe.success_probability > est.success_probability);
    }

    #[test]
    fn idle_enrolled_worker_still_risks_failure() {
        // Only the reliable worker downloads, but the volatile one must survive.
        let est = cache(vec![chain(0.9, 0.9, 0.9), reliable()], 2).comm_estimate(&[0, 1], &[0, 6]);
        assert!(est.success_probability < 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = cache(vec![reliable()], 2).comm_estimate(&[0], &[1, 2]);
    }

    /// The V-B formula written out from the uncached pieces.
    fn written_out(s: &Scenario, members: &[usize], comm_slots: &[u64]) -> CommEstimate {
        if comm_slots.iter().all(|&n| n == 0) {
            return CommEstimate::nothing_to_send();
        }
        let computation = GroupComputation::new(crate::DEFAULT_EPSILON);
        let series: Vec<WorkerSeries> =
            members.iter().map(|&q| WorkerSeries::new(s.platform.chain(q))).collect();
        let mut max_single = 0.0f64;
        for (w, &n) in series.iter().zip(comm_slots) {
            if n > 0 {
                max_single = max_single.max(computation.compute(&[w]).expected_completion_time(n));
            }
        }
        let total: u64 = comm_slots.iter().sum();
        let ncom = s.master.ncom;
        let expected_duration = if members.len() <= ncom {
            max_single
        } else {
            max_single.max(total as f64 / ncom as f64)
        };
        let horizon = expected_duration.ceil() as u64;
        let success_probability =
            series.iter().map(|w| w.no_down_within(horizon)).product::<f64>().clamp(0.0, 1.0);
        CommEstimate { expected_duration, success_probability }
    }

    #[test]
    fn cached_estimate_matches_the_written_out_formula_bit_for_bit() {
        let s = Scenario::generate(ScenarioParams::paper(5, 5, 2), 42);
        assert_eq!(s.master.ncom, 5);
        let probes: [(&[usize], &[u64]); 5] = [
            (&[0, 3, 7], &[12, 0, 7]),
            (&[2, 4, 6, 8, 10], &[5, 5, 5, 5, 5]),
            (&[1, 2, 5, 9, 11, 13, 17], &[15, 3, 0, 15, 15, 3, 9]),
            (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], &[4; 12]),
            (&[6, 19], &[0, 0]),
        ];
        let bits =
            |e: CommEstimate| (e.expected_duration.to_bits(), e.success_probability.to_bits());
        let warm = EvalCache::with_default_epsilon(&s.platform, &s.master);
        for &(members, comm_slots) in &probes {
            warm.comm_estimate(members, comm_slots);
        }
        for &(members, comm_slots) in &probes {
            let expected = bits(written_out(&s, members, comm_slots));
            let cold = EvalCache::with_default_epsilon(&s.platform, &s.master);
            assert_eq!(bits(cold.comm_estimate(members, comm_slots)), expected, "cold {members:?}");
            let before = warm.stats();
            assert_eq!(bits(warm.comm_estimate(members, comm_slots)), expected, "warm {members:?}");
            assert_eq!(warm.stats().since(&before).group_misses, 0, "warm {members:?}");
        }
    }
}
