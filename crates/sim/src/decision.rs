//! The world state of one run: the facts a [`SimView`] lends to a scheduler,
//! owned in one place, with the rules that change them between decisions.
//!
//! A [`DecisionContext`] holds the clock, the iteration progress, every
//! worker's availability and holdings and the installed configuration. The
//! engine runs on one: it writes each slot's availability into the context,
//! applies [`DecisionContext::normalize`] (the `DOWN` rule), consults the
//! scheduler through [`DecisionContext::view`] and installs its choice with
//! [`DecisionContext::install`]. External callers (the `serve` daemon of
//! `dg-experiments`, tests, tools) build a context for an arbitrary world
//! state and call the same rules, so a scheduler consulted about it gives
//! exactly the answer the engine would give at the same view.

use crate::assignment::Assignment;
use crate::config::ActiveConfiguration;
use crate::view::{SimView, WorkerView};
use crate::worker_state::WorkerDynamicState;
use dg_availability::ProcState;
use dg_platform::{ApplicationSpec, MasterSpec, Platform};

/// An owned world state: everything a [`SimView`] borrows.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionContext {
    /// Current time-slot.
    pub time: u64,
    /// Index of the iteration currently being executed (0-based).
    pub iteration: u64,
    /// Number of iterations already completed.
    pub completed_iterations: u64,
    /// Time-slot at which the current iteration began.
    pub iteration_started_at: u64,
    /// Per-worker availability state and holdings.
    pub workers: Vec<WorkerView>,
    /// The configuration currently executing the iteration, if any.
    pub current: Option<ActiveConfiguration>,
}

impl DecisionContext {
    /// A context at time 0 with the given availability states and no
    /// holdings, progress or installed configuration — the world the engine
    /// sees at its first decision point.
    pub fn fresh(states: &[ProcState]) -> Self {
        DecisionContext {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: states
                .iter()
                .map(|&state| WorkerView { state, dynamic: WorkerDynamicState::fresh() })
                .collect(),
            current: None,
        }
    }

    /// Install `assignment` as the current configuration, selected at the
    /// context's current time with no accumulated computation. A worker
    /// that leaves the configuration loses its in-flight transfer
    /// (interrupted communications restart from scratch); its completed
    /// messages and program are kept.
    pub fn install(&mut self, assignment: Assignment, platform: &Platform) {
        if let Some(old) = &self.current {
            for q in old.assignment.members_iter() {
                if !assignment.contains(q) {
                    self.workers[q].dynamic.abort_partial_transfer();
                }
            }
        }
        self.current = Some(ActiveConfiguration::new(assignment, platform, self.time));
    }

    /// Apply the consequences of `DOWN` workers (step 2 of the slot
    /// semantics): every `DOWN` worker loses its program, data and in-flight
    /// transfer, and a configuration with a `DOWN` member is aborted — the
    /// tightly-coupled iteration cannot survive it. Returns the aborted
    /// configuration, if any.
    ///
    /// The engine applies exactly this before every
    /// [`Scheduler::decide`](crate::Scheduler::decide) call, so a context
    /// normalized at its current states yields the same view — and therefore
    /// the same decision — the engine would produce.
    pub fn normalize(&mut self) -> Option<ActiveConfiguration> {
        for w in &mut self.workers {
            if w.state.is_down() {
                w.dynamic.crash();
            }
        }
        let workers = &self.workers;
        self.current
            .take_if(|cfg| cfg.assignment.members_iter().any(|q| workers[q].state.is_down()))
    }

    /// Borrow the context as the [`SimView`] handed to a scheduler.
    ///
    /// # Panics
    /// Panics if the context's worker count differs from the platform's.
    pub fn view<'a>(
        &'a self,
        platform: &'a Platform,
        application: &'a ApplicationSpec,
        master: &'a MasterSpec,
    ) -> SimView<'a> {
        assert_eq!(
            self.workers.len(),
            platform.num_workers(),
            "decision context must describe every platform worker"
        );
        SimView {
            time: self.time,
            iteration: self.iteration,
            completed_iterations: self.completed_iterations,
            iteration_started_at: self.iteration_started_at,
            workers: &self.workers,
            platform,
            application,
            master,
            current: self.current.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedAssignmentScheduler;
    use crate::view::{Decision, Scheduler};
    use dg_availability::MarkovChain3;
    use dg_platform::WorkerSpec;

    fn fixture() -> (Platform, ApplicationSpec, MasterSpec) {
        (
            Platform::new(
                vec![WorkerSpec::new(1), WorkerSpec::new(2), WorkerSpec::new(3)],
                vec![MarkovChain3::always_up(); 3],
            ),
            ApplicationSpec::new(3, 10),
            MasterSpec::from_slots(2, 2, 1),
        )
    }

    #[test]
    fn fresh_context_views_like_the_engine_at_slot_zero() {
        let (platform, application, master) = fixture();
        let states = [ProcState::Up, ProcState::Reclaimed, ProcState::Up];
        let ctx = DecisionContext::fresh(&states);
        let view = ctx.view(&platform, &application, &master);
        assert_eq!(view.time, 0);
        assert_eq!(view.up_workers(), vec![0, 2]);
        assert!(view.current.is_none());
        assert_eq!(view.workers[1].dynamic, WorkerDynamicState::fresh());
        // A scheduler consulted through the view behaves normally.
        let a = Assignment::new([(0, 1), (2, 2)]);
        let mut fixed = FixedAssignmentScheduler::new(a.clone());
        assert_eq!(fixed.decide(&view), Decision::NewConfiguration(a));
    }

    #[test]
    fn install_and_normalize_mirror_the_engine_semantics() {
        let (platform, _application, _master) = fixture();
        let mut ctx = DecisionContext::fresh(&[ProcState::Up; 3]);
        ctx.time = 7;
        ctx.workers[1].dynamic.has_program = true;
        ctx.install(Assignment::new([(1, 1), (2, 2)]), &platform);
        let cfg = ctx.current.as_ref().unwrap();
        assert_eq!(cfg.selected_at, 7);
        assert_eq!(cfg.workload, Assignment::new([(1, 1), (2, 2)]).workload(&platform));
        // Nothing DOWN: normalize changes nothing.
        assert_eq!(ctx.normalize(), None);
        assert!(ctx.current.is_some());
        // A DOWN member crashes its holdings and aborts the configuration.
        let installed = ctx.current.clone();
        ctx.workers[1].state = ProcState::Down;
        assert_eq!(ctx.normalize(), installed);
        assert!(ctx.current.is_none());
        assert_eq!(ctx.workers[1].dynamic, WorkerDynamicState::fresh());
        // A DOWN outsider only loses its holdings.
        ctx.install(Assignment::new([(2, 3)]), &platform);
        ctx.workers[0].dynamic.data_messages = 2;
        ctx.workers[0].state = ProcState::Down;
        assert_eq!(ctx.normalize(), None);
        assert!(ctx.current.is_some());
        assert_eq!(ctx.workers[0].dynamic.data_messages, 0);
        // A worker the next configuration drops loses its in-flight transfer
        // and keeps its program; a worker that stays keeps both.
        let downloading = WorkerDynamicState {
            has_program: true,
            partial_transfer: 1,
            ..WorkerDynamicState::fresh()
        };
        ctx.workers[0].state = ProcState::Up;
        ctx.install(Assignment::new([(0, 1), (2, 2)]), &platform);
        ctx.workers[0].dynamic = downloading;
        ctx.workers[2].dynamic = downloading;
        ctx.install(Assignment::new([(1, 1), (2, 2)]), &platform);
        assert_eq!(ctx.workers[0].dynamic.partial_transfer, 0);
        assert!(ctx.workers[0].dynamic.has_program);
        assert_eq!(ctx.workers[2].dynamic, downloading);
    }

    #[test]
    #[should_panic(expected = "every platform worker")]
    fn view_rejects_a_worker_count_mismatch() {
        let (platform, application, master) = fixture();
        let ctx = DecisionContext::fresh(&[ProcState::Up; 2]);
        let _ = ctx.view(&platform, &application, &master);
    }
}
