//! Composable scenario-generator axes.
//!
//! The paper evaluates one synthetic space (Section VII-A): 20 workers with
//! speeds `U[wmin, 10·wmin]`, availability self-loops `U[0.90, 0.99]`,
//! `Tprog = 5·wmin`, `Tdata = wmin`. This module generalizes each of those
//! hard-coded choices into an explicit *axis*:
//!
//! * [`SpeedProfile`] — how worker speeds are drawn (the paper's uniform
//!   range, clustered/bimodal fleets, power-law long tails);
//! * [`AvailabilityRegime`] — how the per-worker Markov chains are sampled
//!   (paper, volatile, stable, or an explicit self-loop range);
//! * [`TrialModel`] — how trial availability is *realized* from a scenario:
//!   from its Markov chains (the model the heuristics assume) or from
//!   matched semi-Markov (Weibull/log-normal) traces, the model-mismatch
//!   setting of Section VII-B;
//! * [`AppShape`] — how the application's transfer costs scale with `wmin`
//!   (compute-heavy vs communication-heavy workloads).
//!
//! A [`ScenarioModel`] bundles one choice per axis;
//! [`ScenarioModel::paper`] reproduces the paper's space exactly —
//! [`crate::Scenario::generate_with`] under the paper model draws the very
//! same RNG sequence as [`crate::Scenario::generate`], so the reproduction's
//! byte-identical-output guarantees are preserved. The campaign-level
//! cross-product of axes (a *suite*) lives in `dg-experiments`.

use crate::scenario::Scenario;
use dg_availability::semi_markov::SemiMarkovModel;
use dg_availability::{MarkovChain3, ProcState};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How worker speeds `w_q` are drawn, as a function of the difficulty
/// parameter `wmin`. Every profile keeps `w_q ≥ wmin`, so `wmin` remains the
/// lower bound the analytical criteria assume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedProfile {
    /// The paper's rule: `w_q ~ U[wmin, 10·wmin]`.
    PaperUniform,
    /// `w_q ~ U[wmin, max_factor·wmin]` — the paper's rule with a
    /// configurable heterogeneity spread.
    Uniform {
        /// Upper bound factor (`≥ 1`); the paper uses 10.
        max_factor: u64,
    },
    /// A clustered (bimodal) fleet: with probability `fast_fraction` the
    /// worker is *fast* (`U[wmin, 2·wmin]`), otherwise *slow*
    /// (`U[slow_factor·wmin, 2·slow_factor·wmin]`). Models grids mixing a
    /// modern cluster with donated office machines.
    Clustered {
        /// Probability of drawing a fast worker (in `[0, 1]`).
        fast_fraction: f64,
        /// Slowdown factor of the slow cluster (`≥ 1`).
        slow_factor: u64,
    },
    /// A bounded power-law (Pareto) factor: `w_q = wmin · f` with
    /// `f ∈ [1, max_factor]` drawn from a truncated Pareto of exponent
    /// `alpha`. Small `alpha` gives a long tail of very slow machines.
    PowerLaw {
        /// Pareto exponent (`> 0`); larger concentrates mass near `wmin`.
        alpha: f64,
        /// Largest speed factor (`≥ 1`).
        max_factor: u64,
    },
}

impl SpeedProfile {
    /// Inclusive `[min, max]` bounds every sampled speed respects, or `None`
    /// when the upper bound does not fit in `u64`.
    pub fn bounds(&self, wmin: u64) -> Option<(u64, u64)> {
        let factor = match *self {
            SpeedProfile::PaperUniform => 10,
            SpeedProfile::Uniform { max_factor } => max_factor.max(1),
            SpeedProfile::Clustered { slow_factor, .. } => slow_factor.max(1).checked_mul(2)?,
            SpeedProfile::PowerLaw { max_factor, .. } => max_factor.max(1),
        };
        Some((wmin, factor.checked_mul(wmin)?))
    }

    /// Draw one worker speed.
    ///
    /// # Panics
    /// Panics if `wmin` is zero (speeds must be positive).
    pub fn sample<R: Rng + ?Sized>(&self, wmin: u64, rng: &mut R) -> u64 {
        assert!(wmin > 0, "wmin must be at least 1");
        match *self {
            SpeedProfile::PaperUniform => rng.gen_range(wmin..=10 * wmin),
            SpeedProfile::Uniform { max_factor } => rng.gen_range(wmin..=max_factor.max(1) * wmin),
            SpeedProfile::Clustered { fast_fraction, slow_factor } => {
                let slow = slow_factor.max(1);
                if rng.gen_bool(fast_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(wmin..=2 * wmin)
                } else {
                    rng.gen_range(slow * wmin..=2 * slow * wmin)
                }
            }
            SpeedProfile::PowerLaw { alpha, max_factor } => {
                // Inverse-CDF of a Pareto(alpha) truncated to [1, H].
                let h = max_factor.max(1) as f64;
                let alpha = alpha.max(1e-3);
                let u: f64 = rng.gen();
                let factor = (1.0 - u * (1.0 - h.powf(-alpha))).powf(-1.0 / alpha);
                let factor = factor.floor().clamp(1.0, h) as u64;
                factor * wmin
            }
        }
    }
}

/// How the per-worker availability [`MarkovChain3`]s are sampled. All regimes
/// follow the paper's parameterization rule — draw the three self-loop
/// probabilities uniformly from a range and split the remaining mass evenly —
/// but over different ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AvailabilityRegime {
    /// The paper's `U[0.90, 0.99]` self-loops.
    Paper,
    /// Volatile machines: self-loops `U[0.60, 0.85]`, so state sojourns
    /// are several times shorter than under the paper's range and
    /// interruptions dominate the schedule.
    Volatile,
    /// Near-dedicated machines: self-loops `U[0.995, 0.999]`, whose mean
    /// sojourns span hundreds of slots.
    Stable,
    /// An explicit self-loop range `U[lo, hi]`.
    SelfLoops {
        /// Lower bound of the self-loop probabilities.
        lo: f64,
        /// Upper bound of the self-loop probabilities.
        hi: f64,
    },
    /// A pool of `classes` distinct chains spread evenly over the paper's
    /// `[0.90, 0.99]` self-loop range; each worker draws its class uniformly
    /// and all workers of a class share one chain *bitwise*. Models massive
    /// grids built from a few hardware/uptime profiles, and is what makes
    /// availability-class bucketing (the `dg-heuristics` worker index) and
    /// group-set memoization effective at `10⁴–10⁵` workers.
    Pooled {
        /// Number of distinct chains in the pool (`≥ 1`).
        classes: usize,
    },
}

impl AvailabilityRegime {
    /// The `[lo, hi]` range the three self-loop probabilities are drawn from
    /// (for [`AvailabilityRegime::Pooled`], the open range the pool's chains
    /// are spread over).
    pub fn self_loop_range(&self) -> (f64, f64) {
        match *self {
            AvailabilityRegime::Paper | AvailabilityRegime::Pooled { .. } => (0.90, 0.99),
            AvailabilityRegime::Volatile => (0.60, 0.85),
            AvailabilityRegime::Stable => (0.995, 0.999),
            AvailabilityRegime::SelfLoops { lo, hi } => (lo, hi),
        }
    }

    /// Sample one worker's availability chain.
    pub fn sample_chain<R: Rng + ?Sized>(&self, rng: &mut R) -> MarkovChain3 {
        match *self {
            AvailabilityRegime::Pooled { classes } => {
                let classes = classes.max(1);
                let idx = rng.gen_range(0..classes);
                let (lo, hi) = self.self_loop_range();
                // Deterministic interpolation strictly inside (lo, hi): class
                // membership is the only random draw, so two workers of one
                // class get byte-identical chains.
                let s = lo + (hi - lo) * (idx as f64 + 1.0) / (classes as f64 + 1.0);
                MarkovChain3::from_self_loop_probs(s, s, s)
                    .expect("pooled self-loops lie strictly inside (0.90, 0.99)")
            }
            _ => {
                let (lo, hi) = self.self_loop_range();
                MarkovChain3::sample_self_loops_in(lo, hi, rng)
            }
        }
    }
}

/// How a trial's availability realization is produced from a scenario.
///
/// The scenario always carries Markov chains — the heuristics' probabilistic
/// criteria are computed from them — but the *realized* states a trial
/// replays can come from a different process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrialModel {
    /// Realize the scenario's Markov chains (the paper's setting).
    Markov,
    /// Realize matched semi-Markov traces: Weibull `UP` sojourns of the given
    /// shape (`< 1` = heavy tail) and log-normal `RECLAIMED`/`DOWN` sojourns,
    /// with per-worker means matched to the Markov chains the heuristics
    /// believe in — the model-mismatch setting of Section VII-B.
    SemiMarkov {
        /// Weibull shape parameter of the `UP` sojourns.
        shape: f64,
    },
}

/// How the application's transfer costs scale with `wmin`:
/// `Tprog = prog_factor·wmin`, `Tdata = data_factor·wmin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppShape {
    /// Program-transfer factor (the paper uses 5).
    pub prog_factor: u64,
    /// Per-task data-transfer factor (the paper uses 1). Zero makes data
    /// transfers free — a pure compute-bound workload.
    pub data_factor: u64,
}

impl AppShape {
    /// The paper's shape: `Tprog = 5·wmin`, `Tdata = wmin`.
    pub fn paper() -> Self {
        AppShape { prog_factor: 5, data_factor: 1 }
    }

    /// A communication-heavy shape: `Tprog = 20·wmin`, `Tdata = 4·wmin`, so
    /// the `ncom` bound — not compute speed — dominates iteration length.
    pub fn comm_heavy() -> Self {
        AppShape { prog_factor: 20, data_factor: 4 }
    }
}

/// One choice per generator axis: everything beyond the factorial parameters
/// `(p, m, ncom, wmin, iterations)` that shapes a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioModel {
    /// Worker-speed profile.
    pub speeds: SpeedProfile,
    /// Availability-chain regime.
    pub availability: AvailabilityRegime,
    /// Trial-realization model.
    pub trials: TrialModel,
    /// Application transfer-cost shape.
    pub app: AppShape,
}

impl ScenarioModel {
    /// The paper's model on every axis. [`Scenario::generate_with`] under
    /// this model is draw-for-draw identical to [`Scenario::generate`].
    pub fn paper() -> Self {
        ScenarioModel {
            speeds: SpeedProfile::PaperUniform,
            availability: AvailabilityRegime::Paper,
            trials: TrialModel::Markov,
            app: AppShape::paper(),
        }
    }

    /// `true` iff this model equals [`ScenarioModel::paper`] on every axis.
    pub fn is_paper(&self) -> bool {
        *self == ScenarioModel::paper()
    }
}

impl Default for ScenarioModel {
    fn default() -> Self {
        ScenarioModel::paper()
    }
}

/// Build, for every worker of a scenario, a [`SemiMarkovModel`] whose mean
/// `UP` sojourn and crash-vs-preemption mix match the worker's Markov chain
/// (so the heuristics' assumed model is *calibrated* but *wrong in shape*).
pub fn matched_semi_markov_models(scenario: &Scenario, weibull_shape: f64) -> Vec<SemiMarkovModel> {
    scenario
        .platform
        .chains()
        .iter()
        .map(|chain| {
            let p_uu = chain.prob(ProcState::Up, ProcState::Up);
            let p_ur = chain.prob(ProcState::Up, ProcState::Reclaimed);
            let p_ud = chain.prob(ProcState::Up, ProcState::Down);
            let mean_up = 1.0 / (1.0 - p_uu).max(1e-6);
            let down_fraction = if p_ur + p_ud > 0.0 { p_ud / (p_ur + p_ud) } else { 0.0 };
            SemiMarkovModel::weibull_lognormal(mean_up, weibull_shape, down_fraction)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;
    use dg_availability::rng::rng_from_seed;

    #[test]
    fn paper_profile_matches_paper_bounds() {
        let mut rng = rng_from_seed(1);
        let p = SpeedProfile::PaperUniform;
        assert_eq!(p.bounds(3), Some((3, 30)));
        assert_eq!(p.bounds(u64::MAX / 10 + 1), None);
        for _ in 0..200 {
            let s = p.sample(3, &mut rng);
            assert!((3..=30).contains(&s));
        }
    }

    #[test]
    fn every_profile_stays_in_its_bounds() {
        let mut rng = rng_from_seed(2);
        let profiles = [
            SpeedProfile::PaperUniform,
            SpeedProfile::Uniform { max_factor: 4 },
            SpeedProfile::Clustered { fast_fraction: 0.3, slow_factor: 8 },
            SpeedProfile::PowerLaw { alpha: 1.5, max_factor: 16 },
        ];
        for profile in profiles {
            for wmin in [1u64, 2, 7] {
                let (lo, hi) = profile.bounds(wmin).expect("small bounds fit");
                assert!(lo >= wmin);
                for _ in 0..300 {
                    let s = profile.sample(wmin, &mut rng);
                    assert!((lo..=hi).contains(&s), "{profile:?}: speed {s} outside [{lo},{hi}]");
                }
            }
        }
    }

    #[test]
    fn clustered_profile_is_bimodal() {
        let mut rng = rng_from_seed(3);
        let p = SpeedProfile::Clustered { fast_fraction: 0.5, slow_factor: 10 };
        let (mut fast, mut slow) = (0, 0);
        for _ in 0..1000 {
            let s = p.sample(1, &mut rng);
            if s <= 2 {
                fast += 1;
            } else {
                assert!((10..=20).contains(&s), "speed {s} fell between the clusters");
                slow += 1;
            }
        }
        assert!(fast > 300 && slow > 300, "clusters unbalanced: {fast} fast / {slow} slow");
    }

    #[test]
    fn power_law_concentrates_near_wmin_for_large_alpha() {
        let mut rng = rng_from_seed(4);
        let p = SpeedProfile::PowerLaw { alpha: 5.0, max_factor: 100 };
        let near = (0..1000).filter(|_| p.sample(1, &mut rng) <= 2).count();
        assert!(near > 800, "only {near}/1000 samples near wmin under alpha = 5");
    }

    #[test]
    fn regime_ranges_are_exposed_and_sampled() {
        let mut rng = rng_from_seed(5);
        for regime in [
            AvailabilityRegime::Paper,
            AvailabilityRegime::Volatile,
            AvailabilityRegime::Stable,
            AvailabilityRegime::SelfLoops { lo: 0.7, hi: 0.9 },
            AvailabilityRegime::Pooled { classes: 4 },
        ] {
            let (lo, hi) = regime.self_loop_range();
            for _ in 0..50 {
                let chain = regime.sample_chain(&mut rng);
                for s in ProcState::ALL {
                    assert!((lo..=hi).contains(&chain.prob(s, s)));
                }
            }
        }
    }

    #[test]
    fn pooled_regime_draws_from_a_finite_bitwise_identical_pool() {
        let mut rng = rng_from_seed(6);
        let regime = AvailabilityRegime::Pooled { classes: 3 };
        let mut seen: Vec<u64> = Vec::new();
        for _ in 0..200 {
            let chain = regime.sample_chain(&mut rng);
            let bits = chain.prob(ProcState::Up, ProcState::Up).to_bits();
            if !seen.contains(&bits) {
                seen.push(bits);
            }
        }
        assert_eq!(seen.len(), 3, "200 draws over 3 classes must hit exactly 3 chains");
        // A degenerate pool is clamped to one class rather than panicking.
        let one = AvailabilityRegime::Pooled { classes: 0 };
        let a = one.sample_chain(&mut rng);
        let b = one.sample_chain(&mut rng);
        assert_eq!(
            a.prob(ProcState::Up, ProcState::Up).to_bits(),
            b.prob(ProcState::Up, ProcState::Up).to_bits()
        );
    }

    #[test]
    fn paper_model_is_paper() {
        assert!(ScenarioModel::paper().is_paper());
        assert!(ScenarioModel::default().is_paper());
        let mut volatile = ScenarioModel::paper();
        volatile.availability = AvailabilityRegime::Volatile;
        assert!(!volatile.is_paper());
    }

    #[test]
    fn matched_models_have_matching_means() {
        let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 1), 5);
        let models = matched_semi_markov_models(&scenario, 0.8);
        assert_eq!(models.len(), scenario.platform.num_workers());
        for (chain, model) in scenario.platform.chains().iter().zip(models.iter()) {
            let p_uu = chain.prob(ProcState::Up, ProcState::Up);
            let expected_mean = 1.0 / (1.0 - p_uu);
            let actual_mean = model.up.holding.mean();
            assert!(
                (actual_mean - expected_mean).abs() / expected_mean < 0.01,
                "mean UP sojourn {actual_mean} vs Markov {expected_mean}"
            );
        }
    }
}
