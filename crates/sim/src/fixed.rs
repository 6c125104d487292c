//! A trivial scheduler that always (re)installs one fixed assignment.
//!
//! Useful for engine tests, for replaying hand-crafted schedules such as the
//! paper's Figure 1 example, and as a minimal [`Scheduler`] implementation to
//! learn the interface from. The real heuristics live in `dg-heuristics`.

use crate::assignment::Assignment;
use crate::view::{Decision, Reevaluation, Scheduler, SimView};

/// Installs a fixed assignment whenever no configuration is active and every
/// worker of the assignment is `UP`; otherwise keeps the current state.
#[derive(Debug, Clone)]
pub struct FixedAssignmentScheduler {
    assignment: Assignment,
    name: String,
}

impl FixedAssignmentScheduler {
    /// Create a scheduler that always proposes `assignment`.
    pub fn new(assignment: Assignment) -> Self {
        FixedAssignmentScheduler { assignment, name: "FIXED".to_string() }
    }
}

impl Scheduler for FixedAssignmentScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        if view.current.is_some() {
            return Decision::KeepCurrent;
        }
        let all_up = self.assignment.entries().iter().all(|&(q, _)| view.is_up(q));
        if all_up {
            Decision::NewConfiguration(self.assignment.clone())
        } else {
            Decision::KeepCurrent
        }
    }

    fn reevaluation(&self) -> Reevaluation {
        // The decision depends only on the UP set and on whether a
        // configuration is active — never on the clock.
        Reevaluation::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::WorkerView;
    use crate::worker_state::WorkerDynamicState;
    use dg_availability::ProcState;
    use dg_platform::{ApplicationSpec, MasterSpec, Platform};

    #[test]
    fn proposes_only_when_members_up_and_idle() {
        let platform = Platform::reliable_homogeneous(2, 1);
        let application = ApplicationSpec::new(2, 1);
        let master = MasterSpec::from_slots(1, 1, 1);
        let assignment = Assignment::new([(0, 1), (1, 1)]);
        let mut sched = FixedAssignmentScheduler::new(assignment.clone());
        assert_eq!(sched.name(), "FIXED");

        let make_view = |states: [ProcState; 2]| -> Vec<WorkerView> {
            states
                .iter()
                .map(|&s| WorkerView { state: s, dynamic: WorkerDynamicState::fresh() })
                .collect()
        };

        // Both up, idle -> proposes.
        let workers = make_view([ProcState::Up, ProcState::Up]);
        let view = SimView {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: &workers,
            platform: &platform,
            application: &application,
            master: &master,
            current: None,
        };
        assert_eq!(sched.decide(&view), Decision::NewConfiguration(assignment.clone()));

        // One worker reclaimed -> keeps waiting.
        let workers = make_view([ProcState::Up, ProcState::Reclaimed]);
        let view = SimView { workers: &workers, ..view };
        assert_eq!(sched.decide(&view), Decision::KeepCurrent);

        // Config already active -> never changes it.
        let cfg = crate::config::ActiveConfiguration::new(assignment.clone(), &platform, 0);
        let workers = make_view([ProcState::Up, ProcState::Up]);
        let view = SimView { workers: &workers, current: Some(&cfg), ..view };
        assert_eq!(sched.decide(&view), Decision::KeepCurrent);
    }
}
