//! The platform: workers and their availability chains.

use crate::generator::{AvailabilityRegime, SpeedProfile};
use crate::worker::WorkerSpec;
use dg_availability::MarkovChain3;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A desktop-grid platform: `p` volatile workers, each with a static
/// specification ([`WorkerSpec`]) and a 3-state Markov availability chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    workers: Vec<WorkerSpec>,
    chains: Vec<MarkovChain3>,
}

impl Platform {
    /// Build a platform from matching worker and chain lists.
    ///
    /// # Panics
    /// Panics if the two lists have different lengths or are empty.
    pub fn new(workers: Vec<WorkerSpec>, chains: Vec<MarkovChain3>) -> Self {
        assert_eq!(workers.len(), chains.len(), "each worker needs exactly one availability chain");
        assert!(!workers.is_empty(), "a platform needs at least one worker");
        Platform { workers, chains }
    }

    /// Build a homogeneous, perfectly reliable platform (useful for tests):
    /// `p` workers of speed `speed`, always `UP`.
    pub fn reliable_homogeneous(p: usize, speed: u64) -> Self {
        Platform::new(vec![WorkerSpec::new(speed); p], vec![MarkovChain3::always_up(); p])
    }

    /// Sample a platform following the paper's Section VII-A methodology:
    /// `p` workers with speed `w_q` drawn uniformly in `[wmin, 10·wmin]` and
    /// availability chains with self-loop probabilities uniform in
    /// `[0.90, 0.99]` (remaining mass split evenly). Equivalent to
    /// [`Platform::sample_profile`] with the paper profile and regime.
    pub fn sample_paper_model<R: Rng + ?Sized>(p: usize, wmin: u64, rng: &mut R) -> Self {
        Platform::sample_profile(
            p,
            wmin,
            &SpeedProfile::PaperUniform,
            &AvailabilityRegime::Paper,
            rng,
        )
    }

    /// Sample a platform under generalized generator axes: `p` workers whose
    /// speeds follow `speeds` and whose availability chains follow `regime`.
    /// All speeds are drawn first (one per worker, in index order), then all
    /// chains — the same draw order as the paper model, of which this is the
    /// `(PaperUniform, Paper)` generalization.
    pub fn sample_profile<R: Rng + ?Sized>(
        p: usize,
        wmin: u64,
        speeds: &SpeedProfile,
        regime: &AvailabilityRegime,
        rng: &mut R,
    ) -> Self {
        assert!(p > 0, "a platform needs at least one worker");
        assert!(wmin > 0, "wmin must be at least 1");
        let workers = (0..p).map(|_| WorkerSpec::new(speeds.sample(wmin, rng))).collect();
        let chains = (0..p).map(|_| regime.sample_chain(rng)).collect();
        Platform::new(workers, chains)
    }

    /// Number of workers `p`.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Specification of worker `q`.
    pub fn worker(&self, q: usize) -> &WorkerSpec {
        &self.workers[q]
    }

    /// All worker specifications.
    pub fn workers(&self) -> &[WorkerSpec] {
        &self.workers
    }

    /// Availability chain of worker `q`.
    pub fn chain(&self, q: usize) -> &MarkovChain3 {
        &self.chains[q]
    }

    /// All availability chains.
    pub fn chains(&self) -> &[MarkovChain3] {
        &self.chains
    }

    /// Total task capacity `Σ_q µ_q` when `m` tasks exist (used to check the
    /// feasibility condition `Σ µ_q ≥ m`).
    pub fn total_capacity(&self, m: usize) -> usize {
        self.workers.iter().map(|w| w.capacity_for(m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::rng::rng_from_seed;
    use dg_availability::ProcState;

    #[test]
    fn reliable_homogeneous_platform() {
        let p = Platform::reliable_homogeneous(4, 3);
        assert_eq!(p.num_workers(), 4);
        assert_eq!(p.worker(0).speed, 3);
        assert!(!p.chain(0).can_fail());
        assert_eq!(p.total_capacity(7), 28);
    }

    #[test]
    fn paper_model_ranges() {
        let mut rng = rng_from_seed(1);
        let wmin = 3;
        let p = Platform::sample_paper_model(20, wmin, &mut rng);
        assert_eq!(p.num_workers(), 20);
        for q in 0..20 {
            let w = p.worker(q).speed;
            assert!((wmin..=10 * wmin).contains(&w), "speed {w} outside [wmin, 10wmin]");
            for s in ProcState::ALL {
                let sl = p.chain(q).prob(s, s);
                assert!((0.90..=0.99).contains(&sl));
            }
        }
    }

    #[test]
    fn sample_profile_paper_axes_match_paper_model_exactly() {
        // The generalized sampler under the paper axes draws the very same
        // RNG sequence as the paper model — the byte-compat anchor.
        let a = Platform::sample_paper_model(20, 3, &mut rng_from_seed(7));
        let b = Platform::sample_profile(
            20,
            3,
            &SpeedProfile::PaperUniform,
            &AvailabilityRegime::Paper,
            &mut rng_from_seed(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sample_profile_non_paper_axes() {
        let mut rng = rng_from_seed(8);
        let p = Platform::sample_profile(
            30,
            2,
            &SpeedProfile::Clustered { fast_fraction: 0.5, slow_factor: 6 },
            &AvailabilityRegime::Volatile,
            &mut rng,
        );
        assert_eq!(p.num_workers(), 30);
        for q in 0..30 {
            assert!((2..=24).contains(&p.worker(q).speed));
            for s in ProcState::ALL {
                assert!((0.60..=0.85).contains(&p.chain(q).prob(s, s)));
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        let _ = Platform::new(vec![WorkerSpec::new(1)], vec![]);
    }

    #[test]
    fn total_capacity_with_bounds() {
        let workers = vec![
            WorkerSpec::with_capacity(1, 2),
            WorkerSpec::with_capacity(1, 3),
            WorkerSpec::new(1),
        ];
        let chains = vec![MarkovChain3::always_up(); 3];
        let p = Platform::new(workers, chains);
        assert_eq!(p.total_capacity(4), 2 + 3 + 4);
        assert_eq!(p.total_capacity(1), 1 + 1 + 1);
    }
}
