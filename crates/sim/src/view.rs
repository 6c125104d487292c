//! The scheduler-facing view of the simulation and the scheduler interface.

use crate::assignment::Assignment;
use crate::config::ActiveConfiguration;
use crate::worker_state::WorkerDynamicState;
use dg_availability::ProcState;
use dg_platform::{ApplicationSpec, MasterSpec, Platform};

/// Per-worker information visible to the scheduler at the current slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerView {
    /// Availability state of the worker during the current slot.
    pub state: ProcState,
    /// What the worker currently holds (program, data, in-flight transfer).
    pub dynamic: WorkerDynamicState,
}

/// A read-only snapshot handed to the scheduler once per time-slot.
///
/// The view deliberately exposes **no future availability information**: the
/// on-line heuristics only see the present state of each worker, the static
/// platform description (including the per-worker Markov chains, which are the
/// published "availability statistics" the heuristics are allowed to use) and
/// the progress of the current iteration.
///
/// The view is `Copy` and — holding only shared references to immutable
/// state — `Send + Sync`, so a parallel candidate scan can share one `&SimView`
/// across the scoped threads of a single decision. Anything *mutable* a probe
/// needs (the partial candidate, evaluation scratch buffers) must be
/// per-thread; the view itself never is.
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    /// Current time-slot.
    pub time: u64,
    /// Index of the iteration currently being executed (0-based).
    pub iteration: u64,
    /// Number of iterations already completed.
    pub completed_iterations: u64,
    /// Time-slot at which the current iteration began (i.e., the slot after the
    /// previous iteration completed, or 0).
    pub iteration_started_at: u64,
    /// Per-worker state for the current slot.
    pub workers: &'a [WorkerView],
    /// Static platform description (speeds, capacities, availability chains).
    pub platform: &'a Platform,
    /// Application description (`m`, iteration count).
    pub application: &'a ApplicationSpec,
    /// Master communication capacity (`ncom`, `Tprog`, `Tdata`).
    pub master: &'a MasterSpec,
    /// The configuration currently executing the iteration, if any.
    pub current: Option<&'a ActiveConfiguration>,
}

// The parallel candidate scan in `dg-heuristics` shares one view across the
// scoped threads of a decision; fail the build, not the runtime, if a future
// field (e.g. interior mutability or a non-Sync handle) ever breaks that.
const _: () = {
    const fn assert_shareable<T: Send + Sync + Copy>() {}
    assert_shareable::<SimView<'static>>();
    assert_shareable::<WorkerView>();
};

impl<'a> SimView<'a> {
    /// Indices of the workers that are `UP` during the current slot.
    pub fn up_workers(&self) -> Vec<usize> {
        self.up_workers_iter().collect()
    }

    /// Allocation-free variant of [`SimView::up_workers`]: the `UP` worker
    /// indices as a lazy iterator, for schedulers that scan the set once (or
    /// fill a reused buffer) instead of materializing a fresh `Vec` per
    /// decision.
    pub fn up_workers_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.workers.iter().enumerate().filter(|(_, w)| w.state.is_up()).map(|(q, _)| q)
    }

    /// `true` if worker `q` is `UP` during the current slot.
    pub fn is_up(&self, q: usize) -> bool {
        self.workers[q].state.is_up()
    }

    /// Number of slots already spent on the current iteration (the `t` of the
    /// yield criterion `Y = P/(E + t)`).
    pub fn elapsed_in_iteration(&self) -> u64 {
        self.time - self.iteration_started_at
    }

    /// Communication slots worker `q` would still need to be ready to compute
    /// `tasks` tasks, given what it already holds.
    pub fn comm_slots_remaining(&self, q: usize, tasks: usize) -> u64 {
        self.workers[q].dynamic.comm_slots_remaining(tasks, self.master.t_prog, self.master.t_data)
    }
}

/// Scheduler decision for the current slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current configuration (or stay idle if there is none).
    KeepCurrent,
    /// Select a new configuration. If it equals the current one the simulator
    /// treats it as [`Decision::KeepCurrent`]; otherwise any partially
    /// completed computation of the current iteration is lost.
    NewConfiguration(Assignment),
}

/// When a scheduler's [`Scheduler::decide`] answer can change while the
/// observable simulation state does not.
///
/// The slot-stepped engine consults the scheduler at every slot, so any
/// decision rule is fine there. The event-driven engine
/// ([`crate::SimMode::EventDriven`]) skips runs of slots during which the
/// *world* is provably unchanged (no availability transition, no transfer
/// completion) or changes only monotonically (uninterrupted lock-step
/// computation). Skipping a slot also skips that slot's `decide` call, which
/// is only sound if the answer could not have differed from the previous
/// slot's. This struct is the scheduler's declaration of when that holds; the
/// engine re-consults every slot whenever the corresponding flag is `true`.
///
/// The default ([`Reevaluation::every_slot`]) is fully conservative: an
/// unknown scheduler is consulted at every slot of every span and the
/// event-driven engine degrades gracefully to slot granularity (while still
/// producing identical outcomes). Every heuristic in `dg-heuristics` falls in
/// one of the patterns below and opts out of the consultations it does not
/// need:
///
/// * passive-style schedulers (`RANDOM`, the passive heuristics `IP`/`IE`/
///   `IY`/`IAY`, the fixed-assignment scheduler) never reconsider an
///   installed configuration, so nothing beyond the configuration's own
///   events matters: [`Reevaluation::never`];
/// * proactive `P-*`/`E-*` heuristics over time-free bases are clock-free
///   but *do* watch the rest of the platform — a worker crossing the `UP`
///   boundary or an enrolled worker's download progressing can change the
///   candidate — so they set `on_outside_transitions` and `during_transfer`
///   while leaving the per-slot flags `false`;
/// * with a yield-style decay on top (`Y-IP`/`Y-IE`/`Y-IAY`): while
///   computation accumulates, the running configuration's yield can only
///   improve relative to the (fixed) candidate, so additionally only
///   *frozen* spans (suspension, stalled communication) need per-slot
///   re-evaluation — `during_stall: true`;
/// * when the candidate itself drifts with elapsed time (`*-IY`), every span
///   with an installed configuration needs per-slot re-evaluation, but idle
///   spans are still safe because whether a configuration *can* be built
///   depends only on the `UP` set and worker capacities, never on the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reevaluation {
    /// Consult `decide` every slot while an installed configuration is
    /// accumulating lock-step computation (all members `UP`).
    pub during_computation: bool,
    /// Consult `decide` every slot while a configuration is installed but
    /// frozen: computation suspended by a `RECLAIMED` member, or outstanding
    /// communication that cannot progress.
    pub during_stall: bool,
    /// Consult `decide` every slot while no configuration is installed and no
    /// worker changes state. Only needed by schedulers that may *start* a
    /// configuration based on the clock alone.
    pub while_idle: bool,
    /// Consult `decide` every slot while the installed configuration is
    /// downloading (transfers progressing). Transfer progress changes worker
    /// holdings slot by slot, which proactive schedulers read through the
    /// diff of their holdings snapshot and through their probe log (a moved
    /// holding re-estimates the probes whose communication time it moves);
    /// passive-style schedulers keep an installed configuration
    /// unconditionally and can leave this `false`, letting the engine jump
    /// between message completions.
    pub during_transfer: bool,
    /// While a configuration is installed, consult `decide` again when a
    /// worker *outside* the configuration crosses the `UP` boundary (enters
    /// or leaves `UP`). Proactive schedulers need this — a freshly available
    /// fast worker can make switching worthwhile — while passive-style
    /// schedulers never touch an installed configuration and can leave it
    /// `false`, letting the engine sleep through unrelated churn.
    ///
    /// Outside transitions that stay off the `UP` boundary
    /// (`RECLAIMED`↔`DOWN`) never change the candidate pool and never wake a
    /// scheduler, with or without this flag. [`Reevaluation::wakes_on`] is
    /// the whole rule, including the transitions that wake every scheduler.
    pub on_outside_transitions: bool,
}

impl Reevaluation {
    /// Decisions are a pure function of the world state *visible to a passive
    /// scheduler*: nothing depends on the clock, and an installed
    /// configuration is never reconsidered, so only events involving its
    /// members (or, while idle, workers entering `UP`) matter.
    pub const fn never() -> Self {
        Reevaluation {
            during_computation: false,
            during_stall: false,
            while_idle: false,
            on_outside_transitions: false,
            during_transfer: false,
        }
    }

    /// Conservative default: consult at every slot of every span.
    pub const fn every_slot() -> Self {
        Reevaluation {
            during_computation: true,
            during_stall: true,
            while_idle: true,
            on_outside_transitions: true,
            during_transfer: true,
        }
    }

    /// `true` if a worker's availability transition `from → to` can change
    /// this scheduler's answer, so the event-driven engine must execute its
    /// slot and a `serve` session must re-consult. The flags describe the
    /// worker just before the transition: `member` of the installed
    /// configuration, `idle` (no configuration installed) and
    /// `holds_anything` ([`WorkerDynamicState::holds_anything`]).
    ///
    /// Every scheduler wakes for the transitions of configuration members
    /// (suspension, abort and resumption hinge on them), for a worker
    /// entering `DOWN` while it holds program or data (the crash must be
    /// applied at its slot) and, while idle, for a worker entering `UP` (the
    /// only change that can make a configuration installable). An outside
    /// worker under an installed configuration wakes only schedulers that
    /// declared [`Reevaluation::on_outside_transitions`], and only when it
    /// crosses the `UP` boundary.
    pub fn wakes_on(
        &self,
        from: ProcState,
        to: ProcState,
        member: bool,
        idle: bool,
        holds_anything: bool,
    ) -> bool {
        if member || (to.is_down() && holds_anything) {
            true
        } else if idle {
            to.is_up()
        } else {
            self.on_outside_transitions && (from.is_up() || to.is_up())
        }
    }

    /// `true` if any of the six state changes can wake this scheduler for a
    /// worker in the given context ([`Reevaluation::wakes_on`] over every
    /// `from → to`). Only one context answers `false`: an empty-handed
    /// outside worker under an installed configuration, for a scheduler that
    /// ignores outside transitions. The event engine answers that context
    /// without walking the worker's transitions.
    pub fn can_wake(&self, member: bool, idle: bool, holds_anything: bool) -> bool {
        use ProcState::{Down, Reclaimed, Up};
        [
            (Up, Reclaimed),
            (Up, Down),
            (Reclaimed, Up),
            (Reclaimed, Down),
            (Down, Up),
            (Down, Reclaimed),
        ]
        .into_iter()
        .any(|(from, to)| self.wakes_on(from, to, member, idle, holds_anything))
    }
}

impl Default for Reevaluation {
    fn default() -> Self {
        Reevaluation::every_slot()
    }
}

/// The scheduling policy driven by the simulator.
///
/// The slot-stepped engine calls [`Scheduler::decide`] exactly once per
/// time-slot, before executing the slot. The event-driven engine calls it at
/// every *decision point* — any slot at which the scheduler's answer could
/// differ from the previous slot's, as declared by
/// [`Scheduler::reevaluation`] — and produces identical outcomes.
/// Implementations live in the `dg-heuristics` crate.
pub trait Scheduler {
    /// Human-readable name (e.g. `"Y-IE"`), used in reports.
    fn name(&self) -> &str;

    /// Decide what to do at the current slot.
    fn decide(&mut self, view: &SimView<'_>) -> Decision;

    /// Called when an iteration completes, so that stateful schedulers can
    /// reset per-iteration bookkeeping. The default does nothing.
    fn on_iteration_complete(&mut self, _completed: u64) {}

    /// Declare when [`Scheduler::decide`] must be re-consulted even though
    /// the observable simulation state did not change. The conservative
    /// default re-consults every slot; see [`Reevaluation`] for the contract
    /// and the patterns under which a scheduler may relax it.
    fn reevaluation(&self) -> Reevaluation {
        Reevaluation::every_slot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn view_helpers() {
        let (platform, application, master) = fixture();
        let workers = vec![
            WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() },
            WorkerView { state: ProcState::Reclaimed, dynamic: WorkerDynamicState::fresh() },
            WorkerView {
                state: ProcState::Up,
                dynamic: WorkerDynamicState {
                    has_program: true,
                    data_messages: 1,
                    ..Default::default()
                },
            },
        ];
        let view = SimView {
            time: 12,
            iteration: 2,
            completed_iterations: 2,
            iteration_started_at: 9,
            workers: &workers,
            platform: &platform,
            application: &application,
            master: &master,
            current: None,
        };
        assert_eq!(view.up_workers(), vec![0, 2]);
        assert_eq!(view.up_workers_iter().collect::<Vec<_>>(), view.up_workers());
        assert!(view.is_up(0));
        assert!(!view.is_up(1));
        assert_eq!(view.elapsed_in_iteration(), 3);
        // worker 0 holds nothing: program (2) + 2 tasks (2*1) = 4
        assert_eq!(view.comm_slots_remaining(0, 2), 4);
        // worker 2 has program and one data message: 2 tasks -> 1 more message
        assert_eq!(view.comm_slots_remaining(2, 2), 1);
    }

    #[test]
    fn wake_rule_covers_the_documented_cases() {
        use ProcState::{Down, Reclaimed, Up};
        let (passive, watching) = (
            Reevaluation::never(),
            Reevaluation { on_outside_transitions: true, ..Reevaluation::never() },
        );
        for reeval in [passive, watching] {
            // Every transition of a configuration member wakes.
            assert!(reeval.wakes_on(Reclaimed, Down, true, false, false));
            assert!(reeval.wakes_on(Up, Reclaimed, true, false, false));
            // Entering DOWN wakes only while holding something.
            assert!(reeval.wakes_on(Reclaimed, Down, false, false, true));
            assert!(reeval.wakes_on(Up, Down, false, true, true));
            assert!(!reeval.wakes_on(Reclaimed, Down, false, true, false));
            // While idle, only entering UP wakes.
            assert!(reeval.wakes_on(Down, Up, false, true, false));
            assert!(!reeval.wakes_on(Up, Reclaimed, false, true, false));
            // Outside churn off the UP boundary never wakes.
            assert!(!reeval.wakes_on(Reclaimed, Down, false, false, false));
            assert!(!reeval.wakes_on(Down, Reclaimed, false, false, false));
        }
        // An outside UP-boundary crossing wakes only a watching scheduler.
        for (from, to) in [(Up, Reclaimed), (Up, Down), (Reclaimed, Up), (Down, Up)] {
            assert!(!passive.wakes_on(from, to, false, false, false));
            assert!(watching.wakes_on(from, to, false, false, false));
        }
        // Of the eight contexts, only an empty-handed outsider under an
        // installed configuration can never wake a passive scheduler.
        for reeval in [passive, watching] {
            for ctx in 0..8u8 {
                let (member, idle, holds) = (ctx & 1 != 0, ctx & 2 != 0, ctx & 4 != 0);
                let silent = !member && !idle && !holds && reeval == passive;
                assert_eq!(reeval.can_wake(member, idle, holds), !silent, "{reeval:?} ctx {ctx}");
            }
        }
    }
}
