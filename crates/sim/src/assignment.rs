//! Task-to-worker assignments (configurations).

use dg_platform::{ApplicationSpec, Platform};
use serde::{Deserialize, Serialize};

/// A mapping of the `m` tasks of one iteration onto a set of enrolled workers.
///
/// The assignment lists each enrolled worker exactly once with a positive task
/// count; the counts sum to `m`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Assignment {
    entries: Vec<(usize, usize)>,
}

impl Assignment {
    /// Build an assignment from `(worker index, task count)` pairs.
    ///
    /// Entries with a zero task count are dropped; duplicate worker indices are
    /// merged. The result is kept sorted by worker index so that assignments
    /// can be compared structurally.
    pub fn new(entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut merged: Vec<(usize, usize)> = entries.into_iter().filter(|&(_, x)| x > 0).collect();
        merged.sort_unstable_by_key(|&(q, _)| q);
        merged.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        Assignment { entries: merged }
    }

    /// `(worker, task count)` pairs, sorted by worker index.
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }

    /// Enrolled worker indices, sorted, without allocating.
    pub fn members_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&(q, _)| q)
    }

    /// Total number of assigned tasks.
    pub fn total_tasks(&self) -> usize {
        self.entries.iter().map(|&(_, x)| x).sum()
    }

    /// Task count assigned to worker `q` (0 if not enrolled).
    pub fn tasks_of(&self, q: usize) -> usize {
        self.entries.binary_search_by_key(&q, |&(w, _)| w).map_or(0, |i| self.entries[i].1)
    }

    /// `true` if worker `q` is enrolled.
    pub fn contains(&self, q: usize) -> bool {
        self.tasks_of(q) > 0
    }

    /// `true` if no worker is enrolled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The lock-step computation workload of the configuration,
    /// `W = max_q x_q·w_q` (Section III-C), in slots of simultaneous `UP` time.
    pub fn workload(&self, platform: &Platform) -> u64 {
        self.entries.iter().map(|&(q, x)| platform.worker(q).compute_slots(x)).max().unwrap_or(0)
    }

    /// Check the structural validity of the assignment for a platform and
    /// application: every worker index exists, respects its capacity `µ_q`, and
    /// the task counts sum to `m`. Returns a human-readable error otherwise.
    pub fn validate(
        &self,
        platform: &Platform,
        application: &ApplicationSpec,
    ) -> Result<(), String> {
        let m = application.tasks_per_iteration;
        if self.total_tasks() != m {
            return Err(format!(
                "assignment places {} tasks but the iteration has {m}",
                self.total_tasks()
            ));
        }
        for &(q, x) in &self.entries {
            if q >= platform.num_workers() {
                return Err(format!(
                    "worker {q} does not exist (platform has {})",
                    platform.num_workers()
                ));
            }
            if !platform.worker(q).can_hold(x) {
                return Err(format!(
                    "worker {q} is assigned {x} tasks but its capacity is {:?}",
                    platform.worker(q).max_tasks
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::MarkovChain3;
    use dg_platform::WorkerSpec;

    fn platform() -> Platform {
        Platform::new(
            vec![
                WorkerSpec::new(1),
                WorkerSpec::new(2),
                WorkerSpec::new(3),
                WorkerSpec::with_capacity(4, 1),
                WorkerSpec::new(5),
            ],
            vec![MarkovChain3::always_up(); 5],
        )
    }

    #[test]
    fn construction_merges_and_sorts() {
        let a = Assignment::new([(3, 1), (1, 2), (3, 1), (0, 0)]);
        assert_eq!(a.entries(), &[(1, 2), (3, 2)]);
        assert_eq!(a.members_iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(a.total_tasks(), 4);
        assert_eq!(a.tasks_of(1), 2);
        assert_eq!(a.tasks_of(0), 0);
        assert!(a.contains(3));
        assert!(!a.contains(0));

        // Runs of more than two duplicates merge into one entry.
        let b = Assignment::new([(5, 1), (5, 2), (2, 1), (5, 3)]);
        assert_eq!(b.entries(), &[(2, 1), (5, 6)]);
    }

    #[test]
    fn workload_matches_figure1_example() {
        // Figure 1: w_i = i, two tasks on P2 (w=2), two on P3 (w=3), one on P4 (w=4)
        // -> workload max(4, 6, 4) = 6.
        let a = Assignment::new([(1, 2), (2, 2), (3, 1)]);
        assert_eq!(a.workload(&platform()), 6);
    }

    #[test]
    fn empty_assignment() {
        let a = Assignment::default();
        assert!(a.is_empty());
        assert_eq!(a.workload(&platform()), 0);
        assert_eq!(a.total_tasks(), 0);
    }

    #[test]
    fn validation_checks_total_and_capacity() {
        let p = platform();
        let app = ApplicationSpec::new(5, 10);
        let good = Assignment::new([(0, 2), (1, 2), (2, 1)]);
        assert!(good.validate(&p, &app).is_ok());

        let wrong_total = Assignment::new([(0, 2), (1, 2)]);
        assert!(wrong_total.validate(&p, &app).is_err());

        let over_capacity = Assignment::new([(3, 2), (0, 3)]);
        assert!(over_capacity.validate(&p, &app).is_err());

        let bad_worker = Assignment::new([(9, 5)]);
        assert!(bad_worker.validate(&p, &app).is_err());
    }

    #[test]
    fn equality_is_structural() {
        let a = Assignment::new([(2, 1), (0, 4)]);
        let b = Assignment::new([(0, 4), (2, 1)]);
        assert_eq!(a, b);
        let c = Assignment::new([(0, 4), (2, 2)]);
        assert_ne!(a, c);
    }
}
