//! The simulation engine: slot-stepped and event-driven execution modes.
//!
//! Both modes implement exactly the same execution model (Section III of the
//! paper) and produce byte-identical [`SimOutcome`]s for the same inputs:
//!
//! * [`SimMode::SlotStepped`] executes every time-slot, as the paper's
//!   evaluation describes — simple, but most slots of a long run change
//!   nothing (a configuration computing undisturbed, every worker reclaimed,
//!   no configuration installable).
//! * [`SimMode::EventDriven`] (the default) executes a slot, classifies the
//!   span that follows it, and jumps straight to the next *event* — the next
//!   availability transition of any worker, the completion of the current
//!   computation phase, or a scheduler re-evaluation point declared through
//!   [`crate::view::Reevaluation`] — accounting for the skipped, provably
//!   unchanged slots in bulk. The next executed slot is the minimum of those
//!   wake-ups.
//!
//! Both run on one [`DecisionContext`], the world state the `serve` daemon
//! runs on too, so the `DOWN` rule ([`DecisionContext::normalize`]), the
//! install rule ([`DecisionContext::install`]) and the wake rule
//! ([`crate::view::Reevaluation::wakes_on`]) each exist once.
//!
//! The number of actually executed slots is reported per run in
//! [`EngineReport`]. Skipping slots pays off on runs that reach the slot cap
//! and costs time at paper scale, where runs end long before it: on a
//! 2-CPU host, a `table1` campaign whose RANDOM runs stop at the 200 000-slot
//! cap took 0.44 s event-driven against 0.49 s slot-stepped, while the paper's
//! `--wmin 1,2` campaign took 0.21 s against 0.19 s (docs/ARCHITECTURE.md,
//! "Slot-stepped vs event-driven simulation", gives the commands and samples).

use crate::assignment::Assignment;
use crate::config::ActiveConfiguration;
use crate::decision::DecisionContext;
use crate::events::{EventKind, EventLog};
use crate::metrics::{SimOutcome, SimStats};
use crate::view::{Decision, Scheduler, WorkerView};
use dg_availability::trace::AvailabilityModel;
use dg_availability::ProcState;
use dg_platform::{ApplicationSpec, MasterSpec, Platform, Scenario};
use serde::{Deserialize, Serialize};

/// How the simulator advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SimMode {
    /// Execute every time-slot. The paper's literal loop; kept as an escape
    /// hatch for slot-by-slot inspection (e.g. the Figure 1 trace) and as the
    /// reference the event-driven mode is tested against.
    SlotStepped,
    /// Jump from event to event, skipping slots during which nothing can
    /// change. Produces byte-identical [`SimOutcome`]s in far fewer engine
    /// iterations.
    #[default]
    EventDriven,
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimMode::SlotStepped => write!(f, "slot"),
            SimMode::EventDriven => write!(f, "event"),
        }
    }
}

impl std::str::FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "slot" | "slot-stepped" | "slotstepped" => Ok(SimMode::SlotStepped),
            "event" | "event-driven" | "eventdriven" => Ok(SimMode::EventDriven),
            other => Err(format!("unknown engine mode '{other}' (expected 'slot' or 'event')")),
        }
    }
}

/// Error returned when [`SimulationLimits`] are constructed from invalid
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLimits {
    /// The rejected slot-cap value.
    pub max_slots: u64,
}

impl std::fmt::Display for InvalidLimits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid simulation limits: the slot cap must be positive (got {})",
            self.max_slots
        )
    }
}

impl std::error::Error for InvalidLimits {}

/// Limits bounding a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationLimits {
    /// Maximum number of time-slots to simulate before declaring the run
    /// failed. The paper's evaluation uses 10⁶.
    pub max_slots: u64,
}

impl Default for SimulationLimits {
    fn default() -> Self {
        SimulationLimits { max_slots: 1_000_000 }
    }
}

impl SimulationLimits {
    /// Limits with the given slot cap.
    ///
    /// # Errors
    /// Returns [`InvalidLimits`] if `max_slots` is zero: a run must be allowed
    /// to simulate at least one slot.
    pub fn with_max_slots(max_slots: u64) -> Result<Self, InvalidLimits> {
        if max_slots == 0 {
            return Err(InvalidLimits { max_slots });
        }
        Ok(SimulationLimits { max_slots })
    }
}

/// Per-run engine telemetry, reported alongside the [`SimOutcome`].
///
/// Deliberately *not* part of [`SimOutcome`]: the outcome of a run is a
/// property of the simulated system and must be identical across engine
/// modes, while this report describes how hard the engine worked to produce
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineReport {
    /// The mode the run executed under.
    pub mode: SimMode,
    /// Number of slots the engine actually executed (availability read,
    /// scheduler consulted, slot semantics applied). Equals
    /// [`EngineReport::simulated_slots`] in slot-stepped mode.
    pub executed_slots: u64,
    /// Number of slots of simulated time the run covered.
    pub simulated_slots: u64,
}

/// What an executed slot did — and therefore what kind of span follows it
/// until the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotPhase {
    /// The application completed during this slot.
    Finished,
    /// An iteration completed during this slot; the next one starts at `t+1`.
    IterationBoundary,
    /// No configuration is installed and none could be started.
    Idle,
    /// The installed configuration received at least one slot of transfer.
    ActiveComm {
        /// Slots until the earliest in-flight message completes, when no
        /// message completed during this slot (the span until then is pure
        /// linear transfer progress). `None` when a message completed — the
        /// channel allocation may reshuffle at the next slot.
        boundary: Option<u64>,
    },
    /// Outstanding communication, but no enrolled worker could receive.
    StalledComm,
    /// Computation advanced; `remaining > 0` slots are still needed.
    Computing {
        /// Lock-step slots still needed after this slot.
        remaining: u64,
    },
    /// Ready to compute, but an enrolled worker is `RECLAIMED`.
    Suspended,
}

/// Memoized outcome of one relevance walk: `None` = not computed yet for
/// this context, `Some(None)` = no relevant transition ever again,
/// `Some(Some(slot))` = the slot of the next relevant transition.
type CachedTransition = Option<Option<u64>>;

/// Mutable per-run state shared by both engine modes.
struct RunState {
    /// What the scheduler sees: clock, iteration progress, per-worker
    /// availability and holdings, the installed configuration.
    world: DecisionContext,
    /// Per worker, the first slot at which its availability may differ from
    /// the state in `world`: [`AvailabilityModel::next_transition`] after the
    /// last read, `u64::MAX` when it never changes again, and 0 before the
    /// first read.
    next_change: Vec<u64>,
    stats: SimStats,
    makespan: Option<u64>,
    log: EventLog,
    /// Workers served during the last communication slot (scratch buffer;
    /// the event engine uses it to bulk-advance skipped transfer slots).
    served: Vec<usize>,
}

/// The discrete-event simulator.
///
/// A `Simulator` owns the availability realization for one trial and is
/// consumed by [`Simulator::run`], which drives a [`Scheduler`] until the
/// application completes or the slot cap is reached. The engine mode
/// (event-driven by default) is selected with [`Simulator::with_mode`].
pub struct Simulator<A: AvailabilityModel> {
    platform: Platform,
    application: ApplicationSpec,
    master: MasterSpec,
    availability: A,
    limits: SimulationLimits,
    log_events: bool,
    mode: SimMode,
}

impl<A: AvailabilityModel> Simulator<A> {
    /// Build a simulator from a scenario and an availability realization.
    pub fn new(scenario: &Scenario, availability: A) -> Self {
        Simulator::from_parts(
            scenario.platform.clone(),
            scenario.application,
            scenario.master,
            availability,
        )
    }

    /// Build a simulator from explicit components.
    ///
    /// # Panics
    /// Panics if the availability model and the platform disagree on the
    /// number of workers, or if the platform cannot hold the application
    /// (`Σ µ_q < m`).
    pub fn from_parts(
        platform: Platform,
        application: ApplicationSpec,
        master: MasterSpec,
        availability: A,
    ) -> Self {
        assert_eq!(
            availability.num_procs(),
            platform.num_workers(),
            "availability model and platform must describe the same workers"
        );
        assert!(
            platform.total_capacity(application.tasks_per_iteration)
                >= application.tasks_per_iteration,
            "platform cannot hold the application: Σ µ_q < m"
        );
        Simulator {
            platform,
            application,
            master,
            availability,
            limits: SimulationLimits::default(),
            log_events: false,
            mode: SimMode::default(),
        }
    }

    /// Set the slot cap and other limits.
    pub fn with_limits(mut self, limits: SimulationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enable or disable detailed event logging (the iteration completions
    /// are logged either way).
    ///
    /// Note that the event-driven engine executes (and therefore logs) only
    /// the slots at which something can change; for a complete slot-by-slot
    /// log combine this with [`SimMode::SlotStepped`].
    pub fn with_event_log(mut self, enabled: bool) -> Self {
        self.log_events = enabled;
        self
    }

    /// Select the engine mode (event-driven by default).
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Run the simulation to completion (or to the slot cap) under `scheduler`.
    pub fn run(self, scheduler: &mut dyn Scheduler) -> (SimOutcome, EventLog) {
        let (outcome, log, _) = self.run_with_report(scheduler);
        (outcome, log)
    }

    /// Run the simulation and additionally report how many slots the engine
    /// actually executed (see [`EngineReport`]).
    pub fn run_with_report(
        mut self,
        scheduler: &mut dyn Scheduler,
    ) -> (SimOutcome, EventLog, EngineReport) {
        let p = self.platform.num_workers();
        let mut st = RunState {
            world: DecisionContext::fresh(&vec![ProcState::Up; p]),
            next_change: vec![0; p],
            stats: SimStats::default(),
            makespan: None,
            log: if self.log_events { EventLog::enabled() } else { EventLog::disabled() },
            served: Vec::new(),
        };
        st.log.push(0, EventKind::IterationStarted { iteration: 0 });

        let (simulated, executed) = match self.mode {
            SimMode::SlotStepped => self.run_slot_stepped(&mut st, scheduler),
            SimMode::EventDriven => self.run_event_driven(&mut st, scheduler),
        };

        st.log.push(simulated, EventKind::RunFinished { success: st.makespan.is_some() });
        let outcome = SimOutcome {
            completed_iterations: st.world.completed_iterations,
            target_iterations: self.application.iterations,
            makespan: st.makespan,
            simulated_slots: simulated,
            stats: st.stats,
        };
        let report =
            EngineReport { mode: self.mode, executed_slots: executed, simulated_slots: simulated };
        (outcome, st.log, report)
    }

    /// The reference engine: execute every slot up to completion or the cap.
    /// Returns `(simulated_slots, executed_slots)`.
    fn run_slot_stepped(&mut self, st: &mut RunState, scheduler: &mut dyn Scheduler) -> (u64, u64) {
        let mut t: u64 = 0;
        let mut executed: u64 = 0;
        while t < self.limits.max_slots {
            let _ = self.execute_slot(st, scheduler, t);
            executed += 1;
            t += 1;
            if st.makespan.is_some() {
                break;
            }
        }
        (t, executed)
    }

    /// The event-driven engine: execute a slot, then jump to the earliest
    /// instant at which the simulation state can change again, accounting for
    /// the skipped slots in bulk. Returns `(simulated_slots, executed_slots)`.
    fn run_event_driven(&mut self, st: &mut RunState, scheduler: &mut dyn Scheduler) -> (u64, u64) {
        let p = self.platform.num_workers();
        let cap = self.limits.max_slots;
        let reeval = scheduler.reevaluation();
        // Memoized results of `next_relevant_transition`, per worker and per
        // relevance context (member? idle? holding anything? — 8 combinations).
        // A worker's realization is immutable, so a computed "next relevant
        // transition" stays correct for the same context until time passes it;
        // `Some(None)` ("never again relevant") stays correct forever. This
        // makes the relevance walk amortized O(1) per executed slot instead of
        // re-scanning the same irrelevant churn at every step. A context in
        // which no transition can wake the scheduler at all
        // (`Reevaluation::can_wake`) is "never" without a walk.
        let mut relevance_cache: Vec<[CachedTransition; 8]> = vec![[None; 8]; p];
        let mut t: u64 = 0;
        let mut executed: u64 = 0;
        while t < cap {
            let phase = self.execute_slot(st, scheduler, t);
            executed += 1;
            if st.makespan.is_some() {
                t += 1;
                break;
            }

            // The next executed slot is the earliest wake-up. Does the very
            // next slot need executing regardless of events?
            let mut wake = cap;
            let step_next = match phase {
                // `Finished` sets the makespan, handled above.
                SlotPhase::Finished => unreachable!("finished runs exit before classification"),
                // A fresh iteration's first decision: the world changes at
                // t+1 by construction.
                SlotPhase::IterationBoundary => true,
                // Mid-message transfer progress is linear until the earliest
                // served message completes; a completed message may reshuffle
                // the channel allocation at the very next slot.
                SlotPhase::ActiveComm { boundary } => match boundary {
                    Some(b) if !reeval.during_transfer => {
                        wake = wake.min(t + b);
                        false
                    }
                    _ => true,
                },
                SlotPhase::Computing { remaining } => {
                    wake = wake.min(t + remaining);
                    reeval.during_computation
                }
                SlotPhase::Suspended | SlotPhase::StalledComm => reeval.during_stall,
                SlotPhase::Idle => reeval.while_idle,
            };
            if step_next {
                wake = wake.min(t + 1);
            } else {
                let current = st.world.current.as_ref();
                let idle = current.is_none();
                for (q, (cached, w)) in
                    relevance_cache.iter_mut().zip(&st.world.workers).enumerate()
                {
                    let member = current.is_some_and(|cfg| cfg.assignment.contains(q));
                    let holds_anything = w.dynamic.holds_anything();
                    let ctx = usize::from(member)
                        | usize::from(idle) << 1
                        | usize::from(holds_anything) << 2;
                    let next = match cached[ctx] {
                        // "Never relevant again" holds forever for a context.
                        Some(None) => None,
                        // A future relevant transition stays the next one.
                        Some(Some(when)) if when > t => Some(when),
                        // No state change can wake the scheduler here.
                        None if !reeval.can_wake(member, idle, holds_anything) => {
                            cached[ctx] = Some(None);
                            None
                        }
                        _ => {
                            let result =
                                self.next_relevant_transition(q, t, w.state, |from, to| {
                                    reeval.wakes_on(from, to, member, idle, holds_anything)
                                });
                            cached[ctx] = Some(result);
                            result
                        }
                    };
                    if let Some(when) = next {
                        wake = wake.min(when);
                    }
                }
            }
            debug_assert!(wake > t, "wake-ups must move time forward");

            // The slots in (t, wake) are provably identical to slot t's span:
            // account for them in bulk exactly as the slot-stepper would.
            let skipped = wake - t - 1;
            if skipped > 0 {
                match phase {
                    SlotPhase::Computing { .. } => {
                        st.stats.computation_slots += skipped;
                        st.world
                            .current
                            .as_mut()
                            .expect("a computing span has an installed configuration")
                            .advance_computation_bulk(skipped);
                    }
                    SlotPhase::ActiveComm { .. } => {
                        // Every skipped slot repeats this slot's allocation:
                        // the same workers each receive one transfer slot of
                        // their (unfinished) in-flight message.
                        st.stats.transfer_slots += skipped * st.served.len() as u64;
                        for &q in &st.served {
                            st.world.workers[q].dynamic.partial_transfer += skipped;
                        }
                    }
                    SlotPhase::Idle => st.stats.idle_slots += skipped,
                    SlotPhase::Suspended | SlotPhase::StalledComm => {
                        st.stats.stalled_slots += skipped
                    }
                    SlotPhase::Finished | SlotPhase::IterationBoundary => {
                        unreachable!("these phases always execute the next slot")
                    }
                }
            }
            t = wake;
        }
        (t, executed)
    }

    /// Walk worker `q`'s availability transitions forward from `t` to the
    /// first one for which `relevant(from, to)` holds — the scheduler's
    /// [`crate::view::Reevaluation::wakes_on`] in the current span's
    /// context — and return its slot, skipping churn the scheduler provably
    /// cannot react to.
    ///
    /// The context stays valid along the walk: the span keeps its
    /// configuration, and while the worker holds nothing, passing through
    /// `DOWN` keeps it holding nothing; with holdings the walk stops at the
    /// first `DOWN` entry, before they could have been lost. The walk is
    /// bounded: after `MAX_IRRELEVANT_WALK` skipped transitions the next one
    /// is returned as a conservative wake-up — a spurious wake executes one
    /// extra slot and changes nothing. The engine walks only contexts in
    /// which some transition can wake the scheduler, so the cap serves the
    /// ones that can but rarely do.
    fn next_relevant_transition(
        &mut self,
        q: usize,
        t: u64,
        state_now: ProcState,
        relevant: impl Fn(ProcState, ProcState) -> bool,
    ) -> Option<u64> {
        const MAX_IRRELEVANT_WALK: u32 = 1024;
        let mut from = state_now;
        let mut after = t;
        let mut walked = 0u32;
        loop {
            let (when, to) = self.availability.next_transition(q, after)?;
            walked += 1;
            if relevant(from, to) || walked >= MAX_IRRELEVANT_WALK {
                return Some(when);
            }
            from = to;
            after = when;
        }
    }

    /// Execute the full semantics of time-slot `t`: read availability, apply
    /// crash consequences, consult the scheduler, and run one slot of
    /// communication or computation. Both engine modes funnel through this
    /// single method, which is what guarantees identical outcomes.
    fn execute_slot(
        &mut self,
        st: &mut RunState,
        scheduler: &mut dyn Scheduler,
        t: u64,
    ) -> SlotPhase {
        let target = self.application.iterations;
        let t_prog = self.master.t_prog;
        let t_data = self.master.t_data;

        // 1. Read availability for this slot, only where a run ended since
        //    the last read: the trait contract keeps every other worker's
        //    state constant until its next transition.
        st.world.time = t;
        for (q, (w, next)) in st.world.workers.iter_mut().zip(&mut st.next_change).enumerate() {
            if *next <= t {
                w.state = self.availability.state(q, t);
                *next = self.availability.next_transition(q, t).map_or(u64::MAX, |(when, _)| when);
            }
        }

        // 2. Consequences of DOWN workers: they lose program, data and any
        //    in-flight transfer; if one of them is enrolled, the whole
        //    iteration restarts from scratch.
        if let Some(aborted) = st.world.normalize() {
            let workers = &st.world.workers;
            let failed = aborted.assignment.members_iter().filter(|&q| workers[q].state.is_down());
            st.stats.iterations_aborted += 1;
            st.log.push(t, EventKind::IterationAborted { failed_workers: failed.collect() });
        }

        // 3. Ask the scheduler what to do.
        let decision =
            scheduler.decide(&st.world.view(&self.platform, &self.application, &self.master));

        // 4. Apply the decision.
        if let Decision::NewConfiguration(assignment) = decision {
            let same = st.world.current.as_ref().is_some_and(|c| c.assignment == assignment);
            if !same && !assignment.is_empty() {
                self.apply_new_configuration(assignment, st, t);
            }
        }

        // 5. Execute the slot.
        let world = &mut st.world;
        match world.current.as_mut() {
            None => {
                st.stats.idle_slots += 1;
                SlotPhase::Idle
            }
            Some(cfg) => {
                let ready = cfg.assignment.entries().iter().all(|&(q, x)| {
                    world.workers[q].dynamic.comm_slots_remaining(x, t_prog, t_data) == 0
                });
                if !ready {
                    let boundary = Self::run_communication_slot(
                        cfg,
                        &mut world.workers,
                        &mut st.served,
                        &self.master,
                        &mut st.stats,
                        &mut st.log,
                        t,
                    );
                    if st.served.is_empty() {
                        SlotPhase::StalledComm
                    } else {
                        SlotPhase::ActiveComm { boundary }
                    }
                } else {
                    let all_up =
                        cfg.assignment.members_iter().all(|q| world.workers[q].state.is_up());
                    if !all_up {
                        st.stats.stalled_slots += 1;
                        st.log.push(t, EventKind::ComputationSuspended);
                        SlotPhase::Suspended
                    } else {
                        let finished = cfg.advance_computation();
                        st.stats.computation_slots += 1;
                        st.log.push(
                            t,
                            EventKind::ComputationSlot {
                                done: cfg.computation_done,
                                workload: cfg.workload,
                            },
                        );
                        if finished {
                            let completed = world.completed_iterations;
                            st.log.push(t, EventKind::IterationCompleted { iteration: completed });
                            world.completed_iterations += 1;
                            world.iteration = world.completed_iterations;
                            scheduler.on_iteration_complete(world.completed_iterations);
                            if world.completed_iterations == target {
                                st.makespan = Some(t + 1);
                                SlotPhase::Finished
                            } else {
                                for w in &mut world.workers {
                                    w.dynamic.new_iteration();
                                }
                                world.current = None;
                                world.iteration_started_at = t + 1;
                                st.log.push(
                                    t + 1,
                                    EventKind::IterationStarted { iteration: world.iteration },
                                );
                                SlotPhase::IterationBoundary
                            }
                        } else {
                            SlotPhase::Computing { remaining: cfg.remaining_computation() }
                        }
                    }
                }
            }
        }
    }

    /// Install a new configuration selected by the scheduler.
    fn apply_new_configuration(&self, assignment: Assignment, st: &mut RunState, t: u64) {
        if let Err(e) = assignment.validate(&self.platform, &self.application) {
            panic!("scheduler produced an invalid assignment at slot {t}: {e}");
        }
        for q in assignment.members_iter() {
            assert!(
                st.world.workers[q].state.is_up(),
                "scheduler enrolled worker {q} at slot {t} but it is not UP"
            );
        }
        let proactive = st.world.current.is_some();
        if proactive {
            st.stats.proactive_changes += 1;
        }
        st.stats.configurations_selected += 1;
        st.log.push(
            t,
            EventKind::ConfigurationSelected { assignment: assignment.clone(), proactive },
        );
        st.world.install(assignment, &self.platform);
    }

    /// Serve one slot of master bandwidth to enrolled workers that need data.
    ///
    /// Fills `served` with the workers that received a transfer slot (empty
    /// when nothing could progress, which counts as a stalled slot). Returns
    /// the number of slots until the earliest in-flight message of a served
    /// worker completes — during which the channel allocation provably
    /// repeats itself — or `None` when a message completed this very slot
    /// (the allocation may reshuffle at the next one).
    fn run_communication_slot(
        cfg: &ActiveConfiguration,
        workers: &mut [WorkerView],
        served: &mut Vec<usize>,
        master: &MasterSpec,
        stats: &mut SimStats,
        log: &mut EventLog,
        t: u64,
    ) -> Option<u64> {
        let mut channels = master.ncom;
        let mut any_completion = false;
        let mut boundary = u64::MAX;
        served.clear();
        for &(q, x) in cfg.assignment.entries() {
            if channels == 0 {
                break;
            }
            let WorkerView { state, dynamic } = &mut workers[q];
            if !state.is_up() {
                continue;
            }
            if dynamic.comm_slots_remaining(x, master.t_prog, master.t_data) == 0 {
                continue;
            }
            let receiving_program = !dynamic.has_program;
            let message_done = dynamic.advance_transfer(master.t_prog, master.t_data);
            stats.transfer_slots += 1;
            served.push(q);
            channels -= 1;
            log.push(t, EventKind::TransferSlot { worker: q, program: receiving_program });
            let after = *dynamic;
            if message_done {
                any_completion = true;
                if receiving_program && after.has_program {
                    log.push(t, EventKind::ProgramReceived { worker: q });
                } else {
                    log.push(
                        t,
                        EventKind::DataReceived { worker: q, total_messages: after.data_messages },
                    );
                }
            } else {
                let full = if after.partial_is_program { master.t_prog } else { master.t_data };
                boundary = boundary.min(full - after.partial_transfer);
            }
        }
        if served.is_empty() {
            stats.stalled_slots += 1;
        }
        if any_completion || served.is_empty() {
            None
        } else {
            Some(boundary)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedAssignmentScheduler;
    use dg_availability::{MarkovChain3, RealizedAvailability};
    use dg_platform::WorkerSpec;
    use std::cell::Cell;

    fn reliable_platform(p: usize, speed: u64) -> Platform {
        Platform::reliable_homogeneous(p, speed)
    }

    fn always_up(p: usize) -> RealizedAvailability {
        RealizedAvailability::from_codes(&vec!["U"; p])
    }

    #[test]
    fn reliable_run_has_exact_makespan() {
        // 3 workers, speed 2, 3 tasks (one each), Tprog=2, Tdata=1, ncom=3.
        // Comm: each worker needs 3 slots, all in parallel -> 3 slots.
        // Compute: 1 task * speed 2 -> 2 slots. Iteration = 5 slots; 2 iterations:
        // second iteration needs no program (kept) -> comm 1 slot, compute 2 -> 3.
        // Total = 8 slots.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = reliable_platform(3, 2);
            let app = ApplicationSpec::new(3, 2);
            let master = MasterSpec::from_slots(3, 2, 1);
            let availability = always_up(3);
            let assignment = Assignment::new([(0, 1), (1, 1), (2, 1)]);
            let mut sched = FixedAssignmentScheduler::new(assignment);
            let sim = Simulator::from_parts(platform, app, master, availability)
                .with_event_log(true)
                .with_mode(mode);
            let (outcome, log) = sim.run(&mut sched);
            assert!(outcome.success());
            assert_eq!(outcome.makespan, Some(8));
            assert_eq!(outcome.completed_iterations, 2);
            assert_eq!(outcome.stats.iterations_aborted, 0);
            assert_eq!(outcome.stats.computation_slots, 4);
            // program (3 workers * 2) + data (3 workers * 1 * 2 iterations) = 12
            assert_eq!(outcome.stats.transfer_slots, 12);
            assert_eq!(log.iteration_completions().len(), 2);
        }
    }

    #[test]
    fn default_log_keeps_exactly_the_completions_of_the_full_log() {
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let assignment = Assignment::new([(0, 1), (1, 1), (2, 1)]);
            let full = Simulator::from_parts(
                reliable_platform(3, 2),
                ApplicationSpec::new(3, 2),
                MasterSpec::from_slots(3, 2, 1),
                always_up(3),
            )
            .with_event_log(true)
            .with_mode(mode);
            let (full_outcome, full_log) =
                full.run(&mut FixedAssignmentScheduler::new(assignment.clone()));
            let lean = Simulator::from_parts(
                reliable_platform(3, 2),
                ApplicationSpec::new(3, 2),
                MasterSpec::from_slots(3, 2, 1),
                always_up(3),
            )
            .with_mode(mode);
            let (lean_outcome, lean_log) = lean.run(&mut FixedAssignmentScheduler::new(assignment));
            assert_eq!(full_outcome, lean_outcome);
            assert_eq!(full_log.iteration_completions(), lean_log.iteration_completions());
            // Only the completion events were kept.
            assert_eq!(lean_log.events().len(), lean_log.iteration_completions().len());
            assert!(full_log.events().len() > lean_log.events().len());
            // The makespan is exactly 1 + the last completion slot.
            assert_eq!(
                lean_outcome.makespan,
                lean_log.iteration_completions().last().map(|&t| t + 1)
            );
        }
    }

    #[test]
    fn ncom_bound_serializes_communication() {
        // Same as above but ncom = 1: the 3 workers' 3-slot downloads serialize
        // -> 9 slots of comm for iteration 1, 3 for iteration 2, plus 2+2 compute.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = reliable_platform(3, 2);
            let app = ApplicationSpec::new(3, 2);
            let master = MasterSpec::from_slots(1, 2, 1);
            let availability = always_up(3);
            let assignment = Assignment::new([(0, 1), (1, 1), (2, 1)]);
            let mut sched = FixedAssignmentScheduler::new(assignment);
            let sim = Simulator::from_parts(platform, app, master, availability).with_mode(mode);
            let (outcome, _) = sim.run(&mut sched);
            assert_eq!(outcome.makespan, Some(9 + 2 + 3 + 2));
        }
    }

    #[test]
    fn reclaimed_worker_suspends_computation() {
        // One worker, 1 task, speed 3, no communication. Worker is reclaimed for
        // 2 slots in the middle: makespan = 3 + 2.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = Platform::new(vec![WorkerSpec::new(3)], vec![MarkovChain3::always_up()]);
            let app = ApplicationSpec::new(1, 1);
            let master = MasterSpec::from_slots(1, 0, 0);
            let availability = RealizedAvailability::from_codes(&["URRUUU"]);
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
            let sim = Simulator::from_parts(platform, app, master, availability)
                .with_event_log(true)
                .with_mode(mode);
            let (outcome, log) = sim.run(&mut sched);
            assert_eq!(outcome.makespan, Some(5));
            assert_eq!(outcome.stats.stalled_slots, 2);
            assert!(log.events().iter().any(|e| matches!(e.kind, EventKind::ComputationSuspended)));
        }
    }

    #[test]
    fn down_worker_restarts_iteration_from_scratch() {
        // One worker, 1 task, speed 2, no communication. It goes DOWN at slot 1
        // after one slot of computation: that progress is lost and the iteration
        // restarts when it is UP again.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = Platform::new(vec![WorkerSpec::new(2)], vec![MarkovChain3::always_up()]);
            let app = ApplicationSpec::new(1, 1);
            let master = MasterSpec::from_slots(1, 0, 0);
            let availability = RealizedAvailability::from_codes(&["UDUUU"]);
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
            let sim = Simulator::from_parts(platform, app, master, availability)
                .with_event_log(true)
                .with_mode(mode);
            let (outcome, log) = sim.run(&mut sched);
            // slot 0: compute (1/2); slot 1: DOWN -> abort; slot 2: re-enroll+compute;
            // slot 3: compute -> done at end of slot 3 -> makespan 4.
            assert_eq!(outcome.makespan, Some(4));
            assert_eq!(outcome.stats.iterations_aborted, 1);
            assert!(log
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::IterationAborted { .. })));
        }
    }

    #[test]
    fn down_worker_loses_program_and_data() {
        // Tprog=2, Tdata=1, one worker, 1 task, speed 1.
        // Slots 0-2: download program+data; slot 3: DOWN (loses everything);
        // slots 4-6: re-download; slot 7: compute. Makespan 8.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = Platform::new(vec![WorkerSpec::new(1)], vec![MarkovChain3::always_up()]);
            let app = ApplicationSpec::new(1, 1);
            let master = MasterSpec::from_slots(1, 2, 1);
            let availability = RealizedAvailability::from_codes(&["UUUDUUUUU"]);
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
            let sim = Simulator::from_parts(platform, app, master, availability).with_mode(mode);
            let (outcome, _) = sim.run(&mut sched);
            assert_eq!(outcome.makespan, Some(8));
            assert_eq!(outcome.stats.transfer_slots, 6);
        }
    }

    #[test]
    fn failed_run_reports_cap() {
        // The only worker is always DOWN after slot 0 -> the run cannot finish.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = Platform::new(vec![WorkerSpec::new(1)], vec![MarkovChain3::always_up()]);
            let app = ApplicationSpec::new(1, 1);
            let master = MasterSpec::from_slots(1, 1, 1);
            let availability = RealizedAvailability::from_codes(&["UD"]);
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
            let sim = Simulator::from_parts(platform, app, master, availability)
                .with_limits(SimulationLimits::with_max_slots(100).unwrap())
                .with_mode(mode);
            let (outcome, _) = sim.run(&mut sched);
            assert!(!outcome.success());
            assert_eq!(outcome.simulated_slots, 100);
            assert_eq!(outcome.completed_iterations, 0);
        }
    }

    #[test]
    fn program_is_kept_across_iterations_but_data_is_not() {
        // 1 worker, 2 tasks (both on it), 2 iterations, Tprog=3, Tdata=2, speed 1.
        // Iter 1: comm 3 + 2*2 = 7, compute 2 -> 9 slots.
        // Iter 2: comm 2*2 = 4 (program kept), compute 2 -> 6 slots. Total 15.
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let platform = Platform::new(vec![WorkerSpec::new(1)], vec![MarkovChain3::always_up()]);
            let app = ApplicationSpec::new(2, 2);
            let master = MasterSpec::from_slots(1, 3, 2);
            let availability = always_up(1);
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 2)]));
            let sim = Simulator::from_parts(platform, app, master, availability).with_mode(mode);
            let (outcome, _) = sim.run(&mut sched);
            assert_eq!(outcome.makespan, Some(15));
        }
    }

    #[test]
    #[should_panic(expected = "invalid assignment")]
    fn invalid_assignment_panics() {
        let platform = reliable_platform(2, 1);
        let app = ApplicationSpec::new(3, 1);
        let master = MasterSpec::from_slots(1, 0, 0);
        let availability = always_up(2);
        // Assignment only places 2 of the 3 tasks.
        let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1), (1, 1)]));
        let sim = Simulator::from_parts(platform, app, master, availability);
        let _ = sim.run(&mut sched);
    }

    #[test]
    #[should_panic(expected = "Σ µ_q < m")]
    fn infeasible_application_rejected() {
        let platform =
            Platform::new(vec![WorkerSpec::with_capacity(1, 1)], vec![MarkovChain3::always_up()]);
        let app = ApplicationSpec::new(2, 1);
        let master = MasterSpec::from_slots(1, 0, 0);
        let availability = always_up(1);
        let _ = Simulator::from_parts(platform, app, master, availability);
    }

    #[test]
    fn with_max_slots_rejects_zero() {
        assert_eq!(SimulationLimits::with_max_slots(0), Err(InvalidLimits { max_slots: 0 }));
        assert_eq!(SimulationLimits::with_max_slots(5).unwrap().max_slots, 5);
        let msg = InvalidLimits { max_slots: 0 }.to_string();
        assert!(msg.contains("must be positive"));
    }

    #[test]
    fn sim_mode_parse_and_display() {
        assert_eq!("slot".parse::<SimMode>().unwrap(), SimMode::SlotStepped);
        assert_eq!("EVENT".parse::<SimMode>().unwrap(), SimMode::EventDriven);
        assert_eq!("event-driven".parse::<SimMode>().unwrap(), SimMode::EventDriven);
        assert!("warp".parse::<SimMode>().is_err());
        assert_eq!(SimMode::SlotStepped.to_string(), "slot");
        assert_eq!(SimMode::EventDriven.to_string(), "event");
        assert_eq!(SimMode::default(), SimMode::EventDriven);
    }

    /// Run one scripted scenario through both engines and assert byte-identical
    /// outcomes, returning the two engine reports.
    fn assert_modes_agree(
        codes: &[&str],
        assignment: Assignment,
        app: ApplicationSpec,
        master: MasterSpec,
        speeds: &[u64],
        cap: u64,
    ) -> (EngineReport, EngineReport) {
        let platform = Platform::new(
            speeds.iter().map(|&s| WorkerSpec::new(s)).collect(),
            vec![MarkovChain3::always_up(); speeds.len()],
        );
        let run = |mode: SimMode| {
            let availability = RealizedAvailability::from_codes(codes);
            let mut sched = FixedAssignmentScheduler::new(assignment.clone());
            Simulator::from_parts(platform.clone(), app, master, availability)
                .with_limits(SimulationLimits::with_max_slots(cap).unwrap())
                .with_mode(mode)
                .run_with_report(&mut sched)
        };
        let (slot_outcome, _, slot_report) = run(SimMode::SlotStepped);
        let (event_outcome, _, event_report) = run(SimMode::EventDriven);
        assert_eq!(slot_outcome, event_outcome, "engine modes disagree");
        assert_eq!(slot_report.executed_slots, slot_report.simulated_slots);
        assert_eq!(event_report.simulated_slots, slot_report.simulated_slots);
        (slot_report, event_report)
    }

    #[test]
    fn event_mode_matches_slot_mode_on_scripted_scenarios() {
        // Mixed reclaimed/down periods across three workers.
        assert_modes_agree(
            &["UUUUUUURRUUUUUUUUUUU", "UURRUUUUUUUUDUUUUUUU", "UUUUUUUUUUUUUUUUUUUU"],
            Assignment::new([(0, 1), (1, 1), (2, 1)]),
            ApplicationSpec::new(3, 2),
            MasterSpec::from_slots(2, 2, 1),
            &[2, 3, 1],
            10_000,
        );
        // Long suspension in the middle of computation.
        assert_modes_agree(
            &["UUURRRRRRRRRRRRRRRRRRRRRRRRRRRRUUUUUUU"],
            Assignment::new([(0, 1)]),
            ApplicationSpec::new(1, 1),
            MasterSpec::from_slots(1, 1, 1),
            &[5],
            10_000,
        );
        // Failed run: worker goes down and never comes back.
        assert_modes_agree(
            &["UUUUD"],
            Assignment::new([(0, 1)]),
            ApplicationSpec::new(1, 1),
            MasterSpec::from_slots(1, 2, 2),
            &[9],
            1_000,
        );
    }

    #[test]
    fn event_mode_executes_far_fewer_slots() {
        // A long computation (speed 50) with one long reclaimed interruption:
        // the slot-stepper executes every slot, the event engine only the
        // handful of decision points.
        let codes = format!("UUU{}U", "R".repeat(200));
        let (slot, event) = assert_modes_agree(
            &[&codes, "UUUUUUUUUU"],
            Assignment::new([(0, 1), (1, 1)]),
            ApplicationSpec::new(2, 1),
            MasterSpec::from_slots(2, 1, 1),
            &[50, 1],
            100_000,
        );
        assert!(
            event.executed_slots * 10 < slot.executed_slots,
            "event engine executed {} of {} slots",
            event.executed_slots,
            slot.executed_slots
        );
        assert!(event.executed_slots < event.simulated_slots);
        assert_eq!(slot.executed_slots, slot.simulated_slots);
    }

    /// A scripted realization that counts its queries, per worker.
    struct Counting<'a> {
        inner: RealizedAvailability,
        states: &'a [Cell<u64>],
        transitions: &'a [Cell<u64>],
    }

    impl<'a> Counting<'a> {
        fn new(codes: &[&str], states: &'a [Cell<u64>], transitions: &'a [Cell<u64>]) -> Self {
            Counting { inner: RealizedAvailability::from_codes(codes), states, transitions }
        }
    }

    impl AvailabilityModel for Counting<'_> {
        fn num_procs(&self) -> usize {
            self.inner.num_procs()
        }

        fn state(&mut self, q: usize, t: u64) -> ProcState {
            self.states[q].set(self.states[q].get() + 1);
            self.inner.state(q, t)
        }

        fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
            self.transitions[q].set(self.transitions[q].get() + 1);
            self.inner.next_transition(q, after)
        }
    }

    /// `n` zeroed counters.
    fn counters(n: usize) -> Vec<Cell<u64>> {
        (0..n).map(|_| Cell::new(0)).collect()
    }

    fn total(counters: &[Cell<u64>]) -> u64 {
        counters.iter().map(Cell::get).sum()
    }

    #[test]
    fn availability_is_read_only_where_a_run_ended() {
        // Two enrolled workers (one of them reclaimed mid-computation, one
        // crashing once) and two bystanders churning between RECLAIMED and
        // DOWN while a long computation runs.
        let codes = [
            "UUUUUUUUUUURRRRUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU",
            "UUUUUUDUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU",
            "URDRDRDURRRDDDUUUUURRRRDDDDUUUUU",
            "RRRRRRRRRRRRRRRRRRRRRRRRUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU",
        ];
        let p = codes.len() as u64;
        let platform = Platform::new(
            [20, 3, 1, 1].iter().map(|&s| WorkerSpec::new(s)).collect(),
            vec![MarkovChain3::always_up(); codes.len()],
        );
        fn run<A: AvailabilityModel>(
            platform: &Platform,
            mode: SimMode,
            availability: A,
        ) -> (SimOutcome, EventLog, EngineReport) {
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1), (1, 1)]));
            Simulator::from_parts(
                platform.clone(),
                ApplicationSpec::new(2, 2),
                MasterSpec::from_slots(2, 1, 1),
                availability,
            )
            .with_mode(mode)
            .run_with_report(&mut sched)
        }
        for mode in [SimMode::SlotStepped, SimMode::EventDriven] {
            let (states, transitions) = (counters(codes.len()), counters(codes.len()));
            let counted = run(&platform, mode, Counting::new(&codes, &states, &transitions));
            let (outcome, _, report) =
                run(&platform, mode, RealizedAvailability::from_codes(&codes));
            assert_eq!(counted.0, outcome, "{mode}: counting changed the outcome");
            assert_eq!(counted.2, report);

            // Runs entered before the last executed slot, over all workers.
            let mut script = RealizedAvailability::from_codes(&codes);
            let mut entered = 0u64;
            for q in 0..codes.len() {
                let mut after = 0;
                while let Some((when, _)) = script.next_transition(q, after) {
                    if when >= report.simulated_slots {
                        break;
                    }
                    entered += 1;
                    after = when;
                }
            }
            assert!(
                total(&states) <= p + entered,
                "{mode}: {} state reads for {p} workers entering {entered} runs",
                total(&states)
            );
            // Reading every worker at every executed slot would break the bound.
            assert!(p * report.executed_slots > p + entered, "{mode}: the run is too short");
        }
    }

    #[test]
    fn a_bystander_no_transition_can_wake_costs_no_walk_step() {
        // One long computation on worker 0 under a scheduler that ignores
        // outside transitions, while worker 1, never UP and holding nothing,
        // churns between RECLAIMED and DOWN through far more transitions
        // than one relevance walk may skip.
        let churn = "RD".repeat(1500);
        let codes = ["U", churn.as_str()];
        let platform = Platform::new(
            vec![WorkerSpec::new(5000), WorkerSpec::new(1)],
            vec![MarkovChain3::always_up(); 2],
        );
        let run = |mode: SimMode, states: &[Cell<u64>], transitions: &[Cell<u64>]| {
            let mut sched = FixedAssignmentScheduler::new(Assignment::new([(0, 1)]));
            Simulator::from_parts(
                platform.clone(),
                ApplicationSpec::new(1, 1),
                MasterSpec::from_slots(1, 0, 0),
                Counting::new(&codes, states, transitions),
            )
            .with_mode(mode)
            .run_with_report(&mut sched)
        };
        let (slot, _, _) = run(SimMode::SlotStepped, &counters(2), &counters(2));
        let (states, transitions) = (counters(2), counters(2));
        let (event, _, report) = run(SimMode::EventDriven, &states, &transitions);
        assert_eq!(event, slot, "engine modes disagree");
        assert_eq!(event.makespan, Some(5000));
        assert!(report.executed_slots < 10, "{report:?}");
        // Step 1 asks for the next change once per state read; every
        // further query would be a walk step.
        assert_eq!(transitions[1].get(), states[1].get(), "the bystander was walked");
    }

    #[test]
    fn event_mode_matches_slot_mode_on_markov_scenarios() {
        use dg_availability::rng::sub_rng;
        // Seeded stochastic platforms: the two engines must agree on the exact
        // outcome because they share the availability realization.
        for seed in 0..10u64 {
            let mut rng = sub_rng(seed, 99);
            let chains: Vec<MarkovChain3> =
                (0..4).map(|_| MarkovChain3::sample_paper_model(&mut rng)).collect();
            let platform = Platform::new(
                vec![
                    WorkerSpec::new(2),
                    WorkerSpec::new(3),
                    WorkerSpec::new(4),
                    WorkerSpec::new(5),
                ],
                chains.clone(),
            );
            let run = |mode: SimMode| {
                let availability = RealizedAvailability::markov(chains.clone(), seed);
                let mut sched =
                    FixedAssignmentScheduler::new(Assignment::new([(0, 1), (1, 1), (2, 1)]));
                Simulator::from_parts(
                    platform.clone(),
                    ApplicationSpec::new(3, 3),
                    MasterSpec::from_slots(2, 3, 1),
                    availability,
                )
                .with_limits(SimulationLimits::with_max_slots(50_000).unwrap())
                .with_mode(mode)
                .run_with_report(&mut sched)
            };
            let (slot_outcome, _, _) = run(SimMode::SlotStepped);
            let (event_outcome, _, event_report) = run(SimMode::EventDriven);
            assert_eq!(slot_outcome, event_outcome, "seed {seed}: engine modes disagree");
            assert!(event_report.executed_slots <= event_report.simulated_slots);
        }
    }
}
