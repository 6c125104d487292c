//! Candidate configurations built incrementally by the heuristics.

use dg_sim::Assignment;

/// A partial task-to-worker mapping under construction.
///
/// The incremental heuristics of Section VI-A add tasks one at a time; this
/// helper tracks per-worker task counts and converts the final result into a
/// [`dg_sim::Assignment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateConfig {
    counts: Vec<usize>,
    /// Workers holding at least one task, in ascending order. Maintained so
    /// that iterating the candidate costs `O(occupied)`, not `O(m)` — at
    /// massive platform sizes the greedy inner loop probes thousands of
    /// near-empty candidates per decision.
    occupied: Vec<usize>,
}

impl CandidateConfig {
    /// An empty candidate over a platform of `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        CandidateConfig { counts: vec![0; num_workers], occupied: Vec::new() }
    }

    /// Number of tasks currently assigned to worker `q`.
    pub fn tasks_of(&self, q: usize) -> usize {
        self.counts[q]
    }

    /// Assign one more task to worker `q`.
    pub fn add_task(&mut self, q: usize) {
        if self.counts[q] == 0 {
            let pos = self.occupied.binary_search(&q).unwrap_err();
            self.occupied.insert(pos, q);
        }
        self.counts[q] += 1;
    }

    /// Remove one task from worker `q` (used to undo a tentative assignment).
    ///
    /// # Panics
    /// Panics if worker `q` has no task.
    pub fn remove_task(&mut self, q: usize) {
        assert!(self.counts[q] > 0, "worker {q} has no task to remove");
        self.counts[q] -= 1;
        if self.counts[q] == 0 {
            let pos = self.occupied.binary_search(&q).expect("occupied tracks positive counts");
            self.occupied.remove(pos);
        }
    }

    /// Workers holding at least one task, in ascending order.
    pub fn occupied(&self) -> &[usize] {
        &self.occupied
    }

    /// `(worker, task count)` pairs for workers holding at least one task, in
    /// ascending worker order. Lazy and allocation-free: the greedy inner
    /// loop probes one candidate per `(task, worker)` pair, and this iterator
    /// feeds each probe straight into the evaluation scratch buffers. Costs
    /// `O(occupied)`, independent of the platform size.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.occupied.iter().map(|&q| (q, self.counts[q]))
    }

    /// Convert into a simulator assignment.
    pub fn to_assignment(&self) -> Assignment {
        Assignment::new(self.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_and_convert() {
        let mut c = CandidateConfig::new(4);
        c.add_task(2);
        c.add_task(2);
        c.add_task(0);
        assert_eq!(c.tasks_of(2), 2);
        assert_eq!(c.occupied(), &[0, 2]);
        assert_eq!(c.entries().collect::<Vec<_>>(), vec![(0, 1), (2, 2)]);
        c.remove_task(2);
        assert_eq!(c.entries().collect::<Vec<_>>(), vec![(0, 1), (2, 1)]);
        let a = c.to_assignment();
        assert_eq!(a.total_tasks(), 2);
        assert_eq!(a.members_iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn occupied_set_tracks_counts_through_undo() {
        let mut c = CandidateConfig::new(5);
        assert!(c.occupied().is_empty());
        c.add_task(3);
        c.add_task(1);
        c.add_task(3);
        assert_eq!(c.occupied(), &[1, 3]);
        c.remove_task(3);
        assert_eq!(c.occupied(), &[1, 3], "count 2 -> 1 keeps the worker occupied");
        c.remove_task(3);
        assert_eq!(c.occupied(), &[1], "count 1 -> 0 vacates the worker");
        c.remove_task(1);
        assert!(c.occupied().is_empty());
        assert_eq!(c.entries().count(), 0);
    }

    #[test]
    #[should_panic]
    fn removing_from_empty_worker_panics() {
        let mut c = CandidateConfig::new(2);
        c.remove_task(0);
    }
}
