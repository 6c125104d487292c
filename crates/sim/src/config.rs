//! The active configuration: the set of enrolled workers, their task
//! assignment and the progress of the current iteration.

use crate::assignment::Assignment;
use dg_platform::Platform;
use serde::{Deserialize, Serialize};

/// The configuration currently executing an iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveConfiguration {
    /// The task-to-worker mapping in force.
    pub assignment: Assignment,
    /// Total lock-step computation workload `W = max_q x_q·w_q`, in slots of
    /// simultaneous `UP` time.
    pub workload: u64,
    /// Slots of simultaneous computation already accumulated (`≤ workload`).
    pub computation_done: u64,
    /// Time-slot at which this configuration was selected.
    pub selected_at: u64,
}

impl ActiveConfiguration {
    /// Start a configuration for `assignment` at time `now`.
    pub fn new(assignment: Assignment, platform: &Platform, now: u64) -> Self {
        let workload = assignment.workload(platform);
        ActiveConfiguration { assignment, workload, computation_done: 0, selected_at: now }
    }

    /// Remaining lock-step computation, in slots.
    pub fn remaining_computation(&self) -> u64 {
        self.workload - self.computation_done
    }

    /// `true` once the computation of the iteration is finished.
    pub fn computation_complete(&self) -> bool {
        self.computation_done >= self.workload
    }

    /// Record one slot of simultaneous computation. Returns `true` if the
    /// iteration's computation is now complete.
    pub fn advance_computation(&mut self) -> bool {
        debug_assert!(self.computation_done < self.workload);
        self.computation_done += 1;
        self.computation_complete()
    }

    /// Record `slots` consecutive slots of simultaneous computation that are
    /// known not to finish the iteration. The event-driven engine uses this to
    /// account in bulk for the skipped interior of an uninterrupted
    /// computation run; the finishing slot is always executed individually.
    pub fn advance_computation_bulk(&mut self, slots: u64) {
        debug_assert!(self.computation_done + slots < self.workload);
        self.computation_done += slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::MarkovChain3;
    use dg_platform::WorkerSpec;

    fn platform() -> Platform {
        Platform::new(
            vec![WorkerSpec::new(1), WorkerSpec::new(2), WorkerSpec::new(3)],
            vec![MarkovChain3::always_up(); 3],
        )
    }

    #[test]
    fn workload_and_progress() {
        let a = Assignment::new([(1, 2), (2, 1)]);
        let mut c = ActiveConfiguration::new(a, &platform(), 5);
        assert_eq!(c.workload, 4);
        assert_eq!(c.selected_at, 5);
        assert_eq!(c.remaining_computation(), 4);
        assert!(!c.computation_complete());
        for i in 1..=4u64 {
            let done = c.advance_computation();
            assert_eq!(done, i == 4);
        }
        assert!(c.computation_complete());
        assert_eq!(c.remaining_computation(), 0);
    }
}
