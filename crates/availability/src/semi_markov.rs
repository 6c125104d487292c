//! Semi-Markov availability with non-exponential holding times.
//!
//! The paper acknowledges (Sections V and VII-B) that real desktop-grid
//! availability intervals are not geometrically distributed and that
//! Weibull or log-normal holding times are closer to reality. This module
//! implements that extension: a 3-state *semi-Markov* process in which the
//! embedded jump chain chooses the next state and a per-state holding-time
//! distribution chooses how long the processor stays there.
//!
//! It is used by the "model mismatch" sensitivity experiment: heuristics whose
//! probabilistic criteria assume the Markov model are run against
//! realizations of this process
//! ([`RealizedAvailability::semi_markov`](crate::RealizedAvailability::semi_markov)).

use crate::state::ProcState;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A holding-time distribution over positive integer numbers of time-slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HoldingTime {
    /// Geometric distribution with per-slot continuation probability `p`
    /// (mean `1 / (1 − p)` slots). This is the Markov special case.
    Geometric {
        /// Per-slot probability of remaining in the current state.
        continue_prob: f64,
    },
    /// Weibull distribution with the given `scale` and `shape`, rounded up to
    /// an integer number of slots.
    Weibull {
        /// Scale parameter (λ) in time-slots.
        scale: f64,
        /// Shape parameter (k). `k < 1` gives heavy-tailed holding times.
        shape: f64,
    },
    /// Log-normal distribution with the given parameters of the underlying
    /// normal (`mu`, `sigma`), rounded up to an integer number of slots.
    LogNormal {
        /// Mean of the underlying normal distribution.
        mu: f64,
        /// Standard deviation of the underlying normal distribution.
        sigma: f64,
    },
    /// Deterministic holding time of exactly `slots` time-slots.
    Fixed {
        /// Holding time in slots.
        slots: u64,
    },
}

impl HoldingTime {
    /// Sample a holding time (always at least one slot).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            HoldingTime::Geometric { continue_prob } => {
                let p = continue_prob.clamp(0.0, 1.0 - 1e-12);
                // Number of slots spent in the state: 1 + Geom(1 - p).
                let u: f64 = rng.gen::<f64>().max(1e-300);
                let extra = (u.ln() / p.ln()).floor();
                1 + if extra.is_finite() && extra > 0.0 { extra as u64 } else { 0 }
            }
            HoldingTime::Weibull { scale, shape } => {
                // Inverse-CDF sampling: X = scale * (-ln U)^(1/shape).
                let u: f64 = rng.gen::<f64>().max(1e-300);
                let x = scale * (-u.ln()).powf(1.0 / shape);
                x.ceil().max(1.0) as u64
            }
            HoldingTime::LogNormal { mu, sigma } => {
                // Box-Muller for the underlying normal.
                let u1: f64 = rng.gen::<f64>().max(1e-300);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let x = (mu + sigma * z).exp();
                x.ceil().max(1.0) as u64
            }
            HoldingTime::Fixed { slots } => slots.max(1),
        }
    }

    /// Expected holding time in slots (exact for geometric/fixed, analytic for
    /// Weibull and log-normal before integer rounding).
    pub fn mean(&self) -> f64 {
        match *self {
            HoldingTime::Geometric { continue_prob } => {
                1.0 / (1.0 - continue_prob.min(1.0 - 1e-12))
            }
            HoldingTime::Weibull { scale, shape } => scale * gamma(1.0 + 1.0 / shape),
            HoldingTime::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            HoldingTime::Fixed { slots } => slots.max(1) as f64,
        }
    }
}

/// Lanczos approximation of the gamma function, used for Weibull means.
fn gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Per-state description of a semi-Markov availability process: a holding-time
/// distribution and the jump probabilities to the two other states.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemiMarkovState {
    /// Distribution of the sojourn duration in this state.
    pub holding: HoldingTime,
    /// Probability of jumping to `UP` when the sojourn ends (ignored for the
    /// `UP` state itself, where the mass is split between the other two).
    pub to_up: f64,
    /// Probability of jumping to `RECLAIMED` when the sojourn ends.
    pub to_reclaimed: f64,
    /// Probability of jumping to `DOWN` when the sojourn ends.
    pub to_down: f64,
}

impl SemiMarkovState {
    fn sample_jump<R: Rng + ?Sized>(&self, rng: &mut R) -> ProcState {
        let x: f64 = rng.gen::<f64>() * (self.to_up + self.to_reclaimed + self.to_down);
        if x < self.to_up {
            ProcState::Up
        } else if x < self.to_up + self.to_reclaimed {
            ProcState::Reclaimed
        } else {
            ProcState::Down
        }
    }
}

/// A 3-state semi-Markov availability model for one processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemiMarkovModel {
    /// Sojourn/jump behaviour while `UP`.
    pub up: SemiMarkovState,
    /// Sojourn/jump behaviour while `RECLAIMED`.
    pub reclaimed: SemiMarkovState,
    /// Sojourn/jump behaviour while `DOWN`.
    pub down: SemiMarkovState,
}

impl SemiMarkovModel {
    /// A model with Weibull UP durations (shape < 1, heavy tail, as observed in
    /// desktop-grid measurement studies) and log-normal RECLAIMED/DOWN
    /// durations. `mean_up` is the target mean sojourn in the `UP` state, in
    /// slots; `down_fraction` the probability that an interruption is a crash
    /// rather than a preemption.
    pub fn weibull_lognormal(mean_up: f64, shape: f64, down_fraction: f64) -> Self {
        let scale = mean_up / gamma(1.0 + 1.0 / shape);
        SemiMarkovModel {
            up: SemiMarkovState {
                holding: HoldingTime::Weibull { scale, shape },
                to_up: 0.0,
                to_reclaimed: 1.0 - down_fraction,
                to_down: down_fraction,
            },
            reclaimed: SemiMarkovState {
                holding: HoldingTime::LogNormal { mu: (mean_up / 4.0).ln().max(0.0), sigma: 0.7 },
                to_up: 0.95,
                to_reclaimed: 0.0,
                to_down: 0.05,
            },
            down: SemiMarkovState {
                holding: HoldingTime::LogNormal { mu: (mean_up / 2.0).ln().max(0.0), sigma: 1.0 },
                to_up: 1.0,
                to_reclaimed: 0.0,
                to_down: 0.0,
            },
        }
    }

    fn state_params(&self, s: ProcState) -> &SemiMarkovState {
        match s {
            ProcState::Up => &self.up,
            ProcState::Reclaimed => &self.reclaimed,
            ProcState::Down => &self.down,
        }
    }

    /// Draw the run that begins in `state`: a holding time, then a jump, and
    /// again while the jump lands back in `state`, which extends the run.
    /// Returns the run's length and the state after it, or `None` once the
    /// run lasts at least `room` slots.
    pub(crate) fn sample_run<R: Rng + ?Sized>(
        &self,
        state: ProcState,
        room: u64,
        rng: &mut R,
    ) -> Option<(u64, ProcState)> {
        let params = self.state_params(state);
        let mut run = 0;
        loop {
            let hold = params.holding.sample(rng);
            if hold >= room - run {
                return None;
            }
            run += hold;
            let next = params.sample_jump(rng);
            if next != state {
                return Some((run, next));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::trace::{AvailabilityModel, RealizedAvailability};

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma(3.0) - 2.0).abs() < 1e-9);
        assert!((gamma(4.0) - 6.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn holding_time_samples_are_positive() {
        let mut rng = rng_from_seed(1);
        let dists = [
            HoldingTime::Geometric { continue_prob: 0.9 },
            HoldingTime::Weibull { scale: 10.0, shape: 0.7 },
            HoldingTime::LogNormal { mu: 2.0, sigma: 1.0 },
            HoldingTime::Fixed { slots: 4 },
        ];
        for d in dists {
            for _ in 0..1000 {
                assert!(d.sample(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn geometric_mean_matches_samples() {
        let mut rng = rng_from_seed(2);
        let d = HoldingTime::Geometric { continue_prob: 0.95 };
        let n = 50_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = total as f64 / n as f64;
        assert!((emp - d.mean()).abs() / d.mean() < 0.05, "emp {emp} vs mean {}", d.mean());
    }

    #[test]
    fn weibull_mean_roughly_matches_samples() {
        let mut rng = rng_from_seed(3);
        let d = HoldingTime::Weibull { scale: 20.0, shape: 1.5 };
        let n = 50_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = total as f64 / n as f64;
        // ceil() rounding biases the empirical mean up by at most ~1 slot
        assert!(emp >= d.mean() - 0.5 && emp <= d.mean() + 1.5, "emp {emp} vs {}", d.mean());
    }

    #[test]
    fn fixed_holding_time_is_exact() {
        let mut rng = rng_from_seed(4);
        let d = HoldingTime::Fixed { slots: 7 };
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 7);
        }
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn semi_markov_trace_visits_every_state() {
        let m = SemiMarkovModel::weibull_lognormal(50.0, 0.8, 0.3);
        let mut realized = RealizedAvailability::semi_markov(&[m], 5, 5000);
        let codes = realized.materialize(5000).trace(0).to_code_string();
        assert_eq!(codes.len(), 5000);
        assert_eq!(realized.state(0, 0), ProcState::Up);
        // All three states should occur over a long horizon.
        assert!(codes.contains('U'));
        assert!(codes.contains('R') || codes.contains('D'));
    }

    #[test]
    fn semi_markov_realizations_are_reproducible() {
        let models = vec![SemiMarkovModel::weibull_lognormal(30.0, 0.7, 0.5); 3];
        let codes = |seed| {
            let traces = RealizedAvailability::semi_markov(&models, seed, 1000).materialize(1000);
            (0..3).map(|q| traces.trace(q).to_code_string()).collect::<Vec<_>>()
        };
        assert_eq!(codes(77), codes(77));
        assert_ne!(codes(77)[0], codes(78)[0]);
    }

    #[test]
    fn geometric_special_case_mean_up_interval() {
        // With continue_prob 0.9 the mean UP sojourn is 10 slots; the jump
        // mass is split evenly between the other two states, as in the
        // paper's Markov parameterization.
        let state = |to_up, to_reclaimed, to_down| SemiMarkovState {
            holding: HoldingTime::Geometric { continue_prob: 0.9 },
            to_up,
            to_reclaimed,
            to_down,
        };
        let m = SemiMarkovModel {
            up: state(0.0, 0.5, 0.5),
            reclaimed: state(0.5, 0.0, 0.5),
            down: state(0.5, 0.5, 0.0),
        };
        let traces = RealizedAvailability::semi_markov(&[m], 6, 200_000).materialize(200_000);
        let up_runs: Vec<u64> = traces
            .trace(0)
            .runs()
            .filter(|&(state, _)| state == ProcState::Up)
            .map(|(_, len)| len)
            .collect();
        let mean_up = up_runs.iter().sum::<u64>() as f64 / up_runs.len() as f64;
        assert!((mean_up - 10.0).abs() < 1.0, "mean UP interval {mean_up} expected ~10");
    }
}
