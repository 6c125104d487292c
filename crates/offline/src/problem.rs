//! Instance and solution representation of OFF-LINE-COUPLED.

use crate::oracle::OracleVariant;
use serde::{Deserialize, Serialize};

/// An OFF-LINE-COUPLED instance: a boolean availability matrix (`up[q][t]` is
/// `true` when processor `q` is `UP` at time-slot `t`), the per-task work `w`
/// (identical processors) and the number of tasks `m` per iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OfflineInstance {
    /// `up[q][t]`: processor `q` is `UP` at slot `t`.
    pub up: Vec<Vec<bool>>,
    /// Time-slots of simultaneous `UP` time needed per task (`w_q = w`).
    pub w: u64,
    /// Number of tasks per iteration.
    pub m: usize,
}

impl OfflineInstance {
    /// Build an instance from an explicit matrix.
    ///
    /// # Panics
    /// Panics if the matrix is empty or ragged, or if `w` or `m` is zero.
    pub fn new(up: Vec<Vec<bool>>, w: u64, m: usize) -> Self {
        assert!(!up.is_empty(), "an instance needs at least one processor");
        let horizon = up[0].len();
        assert!(horizon > 0, "an instance needs at least one time-slot");
        assert!(
            up.iter().all(|row| row.len() == horizon),
            "availability matrix must be rectangular"
        );
        assert!(w > 0, "per-task work w must be positive");
        assert!(m > 0, "the iteration must contain at least one task");
        OfflineInstance { up, w, m }
    }

    /// Number of processors `p`.
    pub fn num_procs(&self) -> usize {
        self.up.len()
    }

    /// Number of known time-slots `N`.
    pub fn horizon(&self) -> usize {
        self.up[0].len()
    }

    /// `true` if processor `q` is `UP` at slot `t`.
    pub fn is_up(&self, q: usize, t: usize) -> bool {
        self.up[q][t]
    }

    /// Slots of simultaneous `UP` time needed by `k` processors to run the
    /// iteration when each can hold any number of tasks: `⌈m/k⌉·w`.
    pub fn required_slots_for(&self, k: usize) -> u64 {
        assert!(k > 0);
        (self.m as u64).div_ceil(k as u64) * self.w
    }
}

/// A witness that an iteration can be executed: a set of processors and the
/// common `UP` slots they use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OfflineSolution {
    /// Enrolled processors.
    pub processors: Vec<usize>,
    /// Time-slots (strictly increasing) during which they are all `UP`.
    pub slots: Vec<usize>,
}

impl OfflineSolution {
    /// Check that this solution is valid for `instance` under `variant`: a
    /// number `k` of processors the variant admits, simultaneously `UP`
    /// during at least `⌈m/k⌉·w` distinct slots (`w` when `k = m`).
    pub fn is_valid(&self, instance: &OfflineInstance, variant: OracleVariant) -> bool {
        let k = self.processors.len();
        variant.admits(k, instance.m)
            && self.slots.len() as u64 >= instance.required_slots_for(k)
            && self.all_up(instance)
    }

    /// The slot right after the last one used — the iteration's finish time,
    /// directly comparable to a makespan in time-slots.
    ///
    /// ```
    /// use dg_offline::OfflineSolution;
    ///
    /// let sol = OfflineSolution { processors: vec![0, 2], slots: vec![1, 4] };
    /// assert_eq!(sol.finish_time(), 5);
    /// ```
    ///
    /// # Panics
    /// Panics on an empty witness (solvers never produce one).
    pub fn finish_time(&self) -> u64 {
        *self.slots.last().expect("a witness uses at least one slot") as u64 + 1
    }

    fn all_up(&self, instance: &OfflineInstance) -> bool {
        let mut distinct = self.slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len() == self.slots.len()
            && self.slots.iter().all(|&t| {
                t < instance.horizon() && self.processors.iter().all(|&q| instance.up[q][t])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::{AvailabilityModel, RealizedAvailability};

    fn small_instance() -> OfflineInstance {
        // 3 processors, 4 slots.
        OfflineInstance::new(
            vec![
                vec![true, true, false, true],
                vec![true, false, true, true],
                vec![true, true, true, false],
            ],
            1,
            2,
        )
    }

    #[test]
    fn accessors() {
        let inst = small_instance();
        assert_eq!(inst.num_procs(), 3);
        assert_eq!(inst.horizon(), 4);
        assert!(inst.is_up(0, 0));
        assert!(!inst.is_up(0, 2));
    }

    #[test]
    fn required_slots_balanced_assignment() {
        let inst = OfflineInstance::new(vec![vec![true; 10]; 4], 3, 5);
        assert_eq!(inst.required_slots_for(1), 15);
        assert_eq!(inst.required_slots_for(2), 9);
        assert_eq!(inst.required_slots_for(3), 6);
        assert_eq!(inst.required_slots_for(5), 3);
    }

    #[test]
    fn instances_from_realized_traces_count_up_only() {
        let mut traces = RealizedAvailability::from_codes(&["URDU", "U"]);
        let inst = OfflineInstance::new(traces.up_matrix(4), 2, 1);
        assert_eq!(inst.up[0], vec![true, false, false, true]);
        assert_eq!(inst.up[1], vec![true, true, true, true]);
    }

    #[test]
    fn solution_validation() {
        use OracleVariant::{Mu1, MuUnbounded};
        let inst = small_instance();
        let good = OfflineSolution { processors: vec![0, 1], slots: vec![0] };
        assert!(good.is_valid(&inst, Mu1));
        assert!(good.is_valid(&inst, MuUnbounded));
        // Wrong processor count for µ=1.
        let wrong_count = OfflineSolution { processors: vec![0], slots: vec![0] };
        assert!(!wrong_count.is_valid(&inst, Mu1));
        // µ=∞: a single processor needs m·w = 2 slots.
        assert!(!wrong_count.is_valid(&inst, MuUnbounded));
        let single_ok = OfflineSolution { processors: vec![0], slots: vec![0, 1] };
        assert!(single_ok.is_valid(&inst, MuUnbounded));
        // No processor, or more than m, is no witness.
        let none = OfflineSolution { processors: vec![], slots: vec![0] };
        assert!(!none.is_valid(&inst, MuUnbounded));
        let three = OfflineSolution { processors: vec![0, 1, 2], slots: vec![0] };
        assert!(!three.is_valid(&inst, MuUnbounded));
        // A slot where some processor is not UP is rejected.
        let bad_slot = OfflineSolution { processors: vec![0, 1], slots: vec![1] };
        assert!(!bad_slot.is_valid(&inst, Mu1));
        // Duplicate slots are rejected.
        let dup = OfflineSolution { processors: vec![0], slots: vec![0, 0] };
        assert!(!dup.is_valid(&inst, MuUnbounded));
    }

    #[test]
    #[should_panic]
    fn ragged_matrix_rejected() {
        let _ = OfflineInstance::new(vec![vec![true, true], vec![true]], 1, 1);
    }
}
