//! Run outcome and aggregate statistics.

use serde::{Deserialize, Serialize};

/// Aggregate statistics collected over one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SimStats {
    /// Number of configurations selected over the whole run.
    pub configurations_selected: u64,
    /// Number of configuration changes that happened while a configuration was
    /// active and none of its workers had failed (proactive aborts).
    pub proactive_changes: u64,
    /// Number of iterations aborted because an enrolled worker went `DOWN`.
    pub iterations_aborted: u64,
    /// Total worker-slots of transfer served by the master.
    pub transfer_slots: u64,
    /// Total slots during which lock-step computation progressed.
    pub computation_slots: u64,
    /// Slots during which a configuration was active but made no progress
    /// (waiting for communication while reclaimed, or computation suspended).
    pub stalled_slots: u64,
    /// Slots during which no configuration was active.
    pub idle_slots: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Number of iterations completed before the run ended.
    pub completed_iterations: u64,
    /// Number of iterations the application required.
    pub target_iterations: u64,
    /// Time-slot at which the last required iteration completed, if the run
    /// succeeded (the makespan).
    pub makespan: Option<u64>,
    /// Total slots simulated (equals the cap for failed runs).
    pub simulated_slots: u64,
    /// Aggregate statistics.
    pub stats: SimStats,
}

impl SimOutcome {
    /// `true` if every required iteration completed before the slot cap.
    pub fn success(&self) -> bool {
        self.makespan.is_some()
    }

    /// Makespan of a successful run.
    ///
    /// # Panics
    /// Panics if the run failed; check [`SimOutcome::success`] first.
    pub fn makespan_or_panic(&self) -> u64 {
        self.makespan.expect("simulation run did not complete all iterations")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_success_accessors() {
        let ok = SimOutcome {
            completed_iterations: 10,
            target_iterations: 10,
            makespan: Some(431),
            simulated_slots: 431,
            stats: SimStats::default(),
        };
        assert!(ok.success());
        assert_eq!(ok.makespan_or_panic(), 431);

        let failed = SimOutcome {
            completed_iterations: 3,
            target_iterations: 10,
            makespan: None,
            simulated_slots: 1_000,
            stats: SimStats::default(),
        };
        assert!(!failed.success());
    }

    #[test]
    #[should_panic]
    fn makespan_of_failed_run_panics() {
        let failed = SimOutcome {
            completed_iterations: 0,
            target_iterations: 10,
            makespan: None,
            simulated_slots: 10,
            stats: SimStats::default(),
        };
        let _ = failed.makespan_or_panic();
    }
}
