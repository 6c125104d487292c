//! Experimental scenarios (Section VII-A methodology).
//!
//! An experimental *scenario* fixes everything that is random across the
//! paper's experiment space except the realization of the availability Markov
//! chains: the platform (worker speeds, availability parameters), the
//! application, and the master's communication capacity. Multiple simulation
//! *trials* of the same scenario then differ only by the random seed used to
//! realize processor availability.

use crate::application::ApplicationSpec;
use crate::generator::{matched_semi_markov_models, ScenarioModel, TrialModel};
use crate::master::MasterSpec;
use crate::platform::Platform;
use dg_availability::rng::sub_rng;
use dg_availability::RealizedAvailability;
use serde::{Deserialize, Serialize};

/// The synthetic parameters that define one point of the paper's experiment
/// space (Section VII-A): `(m, ncom, wmin)` plus the platform size `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Number of workers `p` (the paper uses 20).
    pub num_workers: usize,
    /// Number of tasks per iteration `m` (the paper uses 5 and 10).
    pub tasks_per_iteration: usize,
    /// Master communication bound `ncom` (the paper uses 5, 10 and 20).
    pub ncom: usize,
    /// Synthetic difficulty parameter `wmin` (the paper sweeps 1..=10):
    /// worker speeds are drawn in `[wmin, 10·wmin]`, `Tdata = wmin` and
    /// `Tprog = 5·wmin`.
    pub wmin: u64,
    /// Number of iterations to complete (the paper uses 10).
    pub iterations: u64,
}

impl ScenarioParams {
    /// The paper's defaults: `p = 20`, 10 iterations.
    pub fn paper(m: usize, ncom: usize, wmin: u64) -> Self {
        ScenarioParams { num_workers: 20, tasks_per_iteration: m, ncom, wmin, iterations: 10 }
    }
}

/// A fully instantiated experimental scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The parameters this scenario was generated from.
    pub params: ScenarioParams,
    /// The platform (worker speeds and availability chains).
    pub platform: Platform,
    /// The application (`m` tasks per iteration, iteration count).
    pub application: ApplicationSpec,
    /// The master's communication capacity (`ncom`, `Tprog`, `Tdata`).
    pub master: MasterSpec,
    /// Seed used to generate this scenario (for provenance).
    pub seed: u64,
    /// How trial availability is realized from this scenario (Markov chains
    /// by default; see [`TrialModel`]).
    pub trial_model: TrialModel,
}

impl Scenario {
    /// Generate a scenario from parameters and a seed, following Section VII-A:
    /// `w_q ~ U[wmin, 10·wmin]`, availability self-loop probabilities
    /// `~ U[0.90, 0.99]` (remaining mass split evenly), `Tdata = wmin`,
    /// `Tprog = 5·wmin`.
    pub fn generate(params: ScenarioParams, seed: u64) -> Self {
        Scenario::generate_with(params, &ScenarioModel::paper(), seed)
    }

    /// Generate a scenario under explicit generator axes (see
    /// [`ScenarioModel`]): speeds from `model.speeds`, availability chains
    /// from `model.availability`, `Tprog`/`Tdata` scaled by `model.app` and
    /// trial realization governed by `model.trials`.
    ///
    /// Under [`ScenarioModel::paper`] this is draw-for-draw identical to
    /// [`Scenario::generate`] — the suite layer's `paper` preset therefore
    /// reproduces the original campaign byte-for-byte.
    pub fn generate_with(params: ScenarioParams, model: &ScenarioModel, seed: u64) -> Self {
        let mut rng = sub_rng(seed, 0x504C_4154); // "PLAT" stream
        let platform = Platform::sample_profile(
            params.num_workers,
            params.wmin,
            &model.speeds,
            &model.availability,
            &mut rng,
        );
        let application = ApplicationSpec::new(params.tasks_per_iteration, params.iterations);
        let master = MasterSpec::from_slots(
            params.ncom,
            model.app.prog_factor * params.wmin,
            model.app.data_factor * params.wmin,
        );
        Scenario { params, platform, application, master, seed, trial_model: model.trials }
    }

    /// Create the availability realization for one simulation trial, every
    /// worker starting `UP` at time 0 (as in the paper's example).
    pub fn availability_for_trial(&self, trial_seed: u64) -> RealizedAvailability {
        RealizedAvailability::markov(self.platform.chains().to_vec(), trial_seed)
    }

    /// Create the availability realization for one simulation trial according
    /// to the scenario's [`TrialModel`].
    ///
    /// * [`TrialModel::Markov`] — a lazy Markov realization of the chains,
    ///   exactly [`Scenario::availability_for_trial`] (every worker starts
    ///   `UP`); `horizon` is ignored.
    /// * [`TrialModel::SemiMarkov`] — a lazy realization of matched
    ///   semi-Markov models whose runs are cut at `horizon` (the slot cap of
    ///   the run); past it the last state persists.
    pub fn realize_trial(&self, trial_seed: u64, horizon: u64) -> RealizedAvailability {
        match self.trial_model {
            TrialModel::Markov => self.availability_for_trial(trial_seed),
            TrialModel::SemiMarkov { shape } => RealizedAvailability::semi_markov(
                &matched_semi_markov_models(self, shape),
                trial_seed,
                horizon,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_follows_paper_rules() {
        let params = ScenarioParams::paper(5, 10, 3);
        let s = Scenario::generate(params, 42);
        assert_eq!(s.platform.num_workers(), 20);
        assert_eq!(s.master.ncom, 10);
        assert_eq!(s.master.t_data, 3);
        assert_eq!(s.master.t_prog, 15);
        assert_eq!(s.application.tasks_per_iteration, 5);
        assert_eq!(s.application.iterations, 10);
        for q in 0..20 {
            assert!((3..=30).contains(&s.platform.worker(q).speed));
        }
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let params = ScenarioParams::paper(10, 5, 2);
        let a = Scenario::generate(params, 7);
        let b = Scenario::generate(params, 7);
        let c = Scenario::generate(params, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trial_availability_reproducible() {
        use dg_availability::trace::AvailabilityModel;
        let s = Scenario::generate(ScenarioParams::paper(5, 5, 1), 3);
        let mut a = s.availability_for_trial(11);
        let mut b = s.availability_for_trial(11);
        for t in 0..200 {
            for q in 0..s.platform.num_workers() {
                assert_eq!(a.state(q, t), b.state(q, t));
            }
        }
    }

    #[test]
    fn generate_with_paper_model_equals_generate() {
        let params = ScenarioParams::paper(10, 5, 4);
        let a = Scenario::generate(params, 99);
        let b = Scenario::generate_with(params, &ScenarioModel::paper(), 99);
        assert_eq!(a, b);
    }

    #[test]
    fn generate_with_applies_every_axis() {
        use crate::generator::{AppShape, AvailabilityRegime, SpeedProfile};
        let model = ScenarioModel {
            speeds: SpeedProfile::Uniform { max_factor: 3 },
            availability: AvailabilityRegime::Stable,
            trials: TrialModel::SemiMarkov { shape: 0.7 },
            app: AppShape::comm_heavy(),
        };
        let params = ScenarioParams::paper(5, 10, 2);
        let s = Scenario::generate_with(params, &model, 7);
        assert_eq!(s.master.t_prog, 40); // 20 * wmin
        assert_eq!(s.master.t_data, 8); // 4 * wmin
        assert_eq!(s.trial_model, TrialModel::SemiMarkov { shape: 0.7 });
        for q in 0..20 {
            assert!((2..=6).contains(&s.platform.worker(q).speed));
            let p_uu = s
                .platform
                .chain(q)
                .prob(dg_availability::ProcState::Up, dg_availability::ProcState::Up);
            assert!((0.995..=0.999).contains(&p_uu));
        }
    }

    #[test]
    fn realize_trial_matches_trial_model() {
        use dg_availability::trace::AvailabilityModel;
        let params = ScenarioParams::paper(5, 10, 1);
        let markov = Scenario::generate(params, 3);
        let mut m = markov.realize_trial(11, 500);
        let mut direct = markov.availability_for_trial(11);
        for t in 0..1_000 {
            assert_eq!(m.state(0, t), direct.state(0, t));
        }

        let mut model = ScenarioModel::paper();
        model.trials = TrialModel::SemiMarkov { shape: 0.7 };
        let semi = Scenario::generate_with(params, &model, 3);
        let mut t = semi.realize_trial(11, 500);
        assert_eq!(t.num_procs(), 20);
        // Runs are cut at the horizon: the state at slot 499 persists.
        for q in 0..20 {
            assert_eq!(t.next_transition(q, 499), None);
            assert_eq!(t.state(q, u64::MAX), t.state(q, 499));
        }
        // Same seed, same realization.
        let mut a = semi.realize_trial(11, 300);
        let mut b = semi.realize_trial(11, 300);
        for t in 0..300 {
            assert_eq!(a.state(3, t), b.state(3, t));
        }
    }
}
