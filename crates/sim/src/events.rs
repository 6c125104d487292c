//! The event log of a run.
//!
//! Every run keeps its iteration-completion events (at most one per
//! iteration: the optimality-gap experiment bounds a capped run by its last
//! one). Detailed logging of every event is disabled by default (experiment
//! campaigns run millions of slots); it is enabled for examples and tests
//! that need to inspect an execution slot by slot, such as the reproduction
//! of the paper's Figure 1.

use crate::assignment::Assignment;
use serde::{Deserialize, Serialize};

/// What happened during a time-slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A new iteration began.
    IterationStarted {
        /// 0-based iteration index.
        iteration: u64,
    },
    /// The scheduler selected a (new) configuration.
    ConfigurationSelected {
        /// The selected task-to-worker mapping.
        assignment: Assignment,
        /// `true` if a configuration was already active and was replaced
        /// without any of its workers having failed (a proactive change).
        proactive: bool,
    },
    /// A worker received one slot of transfer from the master.
    TransferSlot {
        /// The receiving worker.
        worker: usize,
        /// `true` if the slot carried program bytes, `false` for task data.
        program: bool,
    },
    /// A worker finished receiving the application program.
    ProgramReceived {
        /// The worker that now holds the program.
        worker: usize,
    },
    /// A worker finished receiving the data of one task.
    DataReceived {
        /// The worker that received the message.
        worker: usize,
        /// Total data messages it now holds for this iteration.
        total_messages: usize,
    },
    /// One slot of simultaneous (lock-step) computation was performed.
    ComputationSlot {
        /// Slots of computation accumulated so far in this iteration.
        done: u64,
        /// Total workload of the iteration.
        workload: u64,
    },
    /// The computation was suspended because an enrolled worker is `RECLAIMED`.
    ComputationSuspended,
    /// An enrolled worker went `DOWN`; the iteration restarts from scratch.
    IterationAborted {
        /// The workers whose failure caused the abort.
        failed_workers: Vec<usize>,
    },
    /// An iteration completed successfully.
    IterationCompleted {
        /// 0-based index of the completed iteration.
        iteration: u64,
    },
    /// The run finished (all iterations done or the slot cap was reached).
    RunFinished {
        /// `true` if all iterations completed before the cap.
        success: bool,
    },
}

/// A time-stamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Time-slot at which the event happened.
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only event log whose detailed logging can be disabled at
/// construction time. Iteration completions are recorded either way, so a
/// log's memory grows with every simulated slot only when it is enabled.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// An enabled log: records every event.
    pub fn enabled() -> Self {
        EventLog { enabled: true, events: Vec::new() }
    }

    /// A disabled log: records only [`EventKind::IterationCompleted`] events.
    pub fn disabled() -> Self {
        EventLog { enabled: false, events: Vec::new() }
    }

    /// Record an event (only an iteration completion when disabled).
    pub fn push(&mut self, time: u64, kind: EventKind) {
        if self.enabled || matches!(kind, EventKind::IterationCompleted { .. }) {
            self.events.push(Event { time, kind });
        }
    }

    /// All recorded events, in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Recorded events of the given iteration-completion kind, as a quick way
    /// to extract iteration boundaries.
    pub fn iteration_completions(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IterationCompleted { .. } => Some(e.time),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_only_completions() {
        let mut log = EventLog::disabled();
        log.push(0, EventKind::IterationStarted { iteration: 0 });
        log.push(2, EventKind::ComputationSuspended);
        log.push(4, EventKind::IterationCompleted { iteration: 0 });
        log.push(5, EventKind::RunFinished { success: true });
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.iteration_completions(), vec![4]);
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = EventLog::enabled();
        log.push(1, EventKind::IterationStarted { iteration: 0 });
        log.push(4, EventKind::IterationCompleted { iteration: 0 });
        log.push(9, EventKind::IterationCompleted { iteration: 1 });
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.iteration_completions(), vec![4, 9]);
    }
}
