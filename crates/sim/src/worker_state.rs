//! Per-worker dynamic state tracked by the simulator.

use serde::{Deserialize, Serialize};

/// What a worker currently holds and what it is currently downloading.
///
/// This state persists across scheduler decisions (Section III-C):
///
/// * the application program, once fully received, is kept until the worker
///   goes `DOWN`;
/// * fully received task-data messages for the *current iteration* are kept
///   until the worker goes `DOWN` or the iteration ends, and can be reused if
///   the scheduler re-assigns tasks to the worker;
/// * a partially received message is lost if the worker goes `DOWN` or is
///   removed from the configuration (interrupted communications restart from
///   scratch), but survives the worker being temporarily `RECLAIMED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct WorkerDynamicState {
    /// `true` once the worker holds a complete copy of the application program.
    pub has_program: bool,
    /// Number of complete task-data messages received for the current iteration.
    pub data_messages: usize,
    /// Slots of transfer already performed on the in-flight message
    /// (program or data), if any.
    pub partial_transfer: u64,
    /// `true` if the in-flight message is the program, `false` if it is a data
    /// message. Meaningless when `partial_transfer == 0`.
    pub partial_is_program: bool,
}

impl WorkerDynamicState {
    /// A worker that holds nothing.
    pub fn fresh() -> Self {
        WorkerDynamicState::default()
    }

    /// `true` if the worker holds or is downloading anything — i.e. its state
    /// differs from [`WorkerDynamicState::fresh`].
    pub fn holds_anything(&self) -> bool {
        *self != WorkerDynamicState::fresh()
    }

    /// Apply the consequences of the worker being `DOWN` during a slot: it
    /// loses the program, all task data and any in-flight transfer.
    pub fn crash(&mut self) {
        *self = WorkerDynamicState::fresh();
    }

    /// Drop the in-flight (partial) transfer, keeping completed messages.
    /// Used when the worker is removed from the configuration.
    pub fn abort_partial_transfer(&mut self) {
        self.partial_transfer = 0;
        self.partial_is_program = false;
    }

    /// Reset the per-iteration data (called at the start of a new iteration:
    /// each iteration needs fresh input data). The program is kept.
    pub fn new_iteration(&mut self) {
        self.data_messages = 0;
        self.abort_partial_transfer();
    }

    /// Number of communication slots the worker still needs before it can
    /// compute `assigned_tasks` tasks, given `t_prog`/`t_data` transfer times.
    /// In-flight progress counts toward the next message.
    pub fn comm_slots_remaining(&self, assigned_tasks: usize, t_prog: u64, t_data: u64) -> u64 {
        let prog = if self.has_program { 0 } else { t_prog };
        let missing_msgs = assigned_tasks.saturating_sub(self.data_messages) as u64;
        (prog + missing_msgs * t_data).saturating_sub(self.partial_transfer)
    }

    /// Advance the in-flight transfer by one slot. Returns `true` if a message
    /// completed during this slot.
    ///
    /// The worker downloads the program first (if missing), then data messages
    /// one by one. `t_prog` / `t_data` are the full transfer durations.
    pub fn advance_transfer(&mut self, t_prog: u64, t_data: u64) -> bool {
        if !self.has_program {
            if t_prog == 0 {
                self.has_program = true;
                // Fall through to data on the next call; this slot still counted
                // as a completed (zero-length) message.
                return true;
            }
            self.partial_is_program = true;
            self.partial_transfer += 1;
            if self.partial_transfer >= t_prog {
                self.has_program = true;
                self.partial_transfer = 0;
                return true;
            }
            return false;
        }
        // Data message.
        if t_data == 0 {
            self.data_messages += 1;
            return true;
        }
        self.partial_is_program = false;
        self.partial_transfer += 1;
        if self.partial_transfer >= t_data {
            self.data_messages += 1;
            self.partial_transfer = 0;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_needs_everything() {
        let s = WorkerDynamicState::fresh();
        assert!(!s.has_program);
        assert_eq!(s.comm_slots_remaining(2, 5, 1), 7);
        assert_eq!(s.comm_slots_remaining(0, 5, 1), 5);
    }

    #[test]
    fn program_then_data_transfer_sequence() {
        let mut s = WorkerDynamicState::fresh();
        // Tprog = 2, Tdata = 1, 2 tasks: expect 4 slots total.
        assert!(!s.advance_transfer(2, 1));
        assert!(s.partial_is_program);
        assert!(s.advance_transfer(2, 1));
        assert!(s.has_program);
        assert_eq!(s.data_messages, 0);
        assert!(s.advance_transfer(2, 1));
        assert_eq!(s.data_messages, 1);
        assert!(s.advance_transfer(2, 1));
        assert_eq!(s.data_messages, 2);
        assert_eq!(s.comm_slots_remaining(2, 2, 1), 0);
    }

    #[test]
    fn comm_slots_remaining_counts_partial_progress() {
        let mut s = WorkerDynamicState::fresh();
        s.advance_transfer(3, 2); // one slot of the 3-slot program done
        assert_eq!(s.comm_slots_remaining(1, 3, 2), 4);
        s.abort_partial_transfer();
        assert_eq!(s.comm_slots_remaining(1, 3, 2), 5);
    }

    #[test]
    fn crash_loses_everything() {
        let mut s = WorkerDynamicState::fresh();
        for _ in 0..5 {
            s.advance_transfer(2, 1);
        }
        assert!(s.has_program);
        assert!(s.data_messages > 0);
        assert!(s.holds_anything());
        s.crash();
        assert_eq!(s, WorkerDynamicState::fresh());
        assert!(!s.holds_anything());
    }

    #[test]
    fn new_iteration_keeps_program_drops_data() {
        let mut s = WorkerDynamicState::fresh();
        for _ in 0..4 {
            s.advance_transfer(2, 1);
        }
        assert!(s.has_program);
        assert_eq!(s.data_messages, 2);
        s.new_iteration();
        assert!(s.has_program);
        assert_eq!(s.data_messages, 0);
        assert_eq!(s.comm_slots_remaining(3, 2, 1), 3);
    }

    #[test]
    fn zero_length_transfers() {
        let mut s = WorkerDynamicState::fresh();
        assert!(s.advance_transfer(0, 0));
        assert!(s.has_program);
        assert!(s.advance_transfer(0, 0));
        assert_eq!(s.data_messages, 1);
        assert_eq!(s.comm_slots_remaining(1, 0, 0), 0);
    }

    #[test]
    fn excess_received_data_never_negative() {
        let mut s = WorkerDynamicState::fresh();
        s.has_program = true;
        s.data_messages = 4;
        assert_eq!(s.comm_slots_remaining(2, 5, 3), 0);
    }
}
