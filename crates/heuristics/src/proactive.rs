//! Proactive heuristics C-H (Section VI-B).
//!
//! A proactive heuristic `C-H` re-runs, at every time-slot, the passive
//! building block `H` to construct a candidate configuration from scratch,
//! then compares that candidate against the *remaining work* of the current
//! configuration according to the criterion `C`:
//!
//! * **P** — probability of success,
//! * **E** — expected completion time,
//! * **Y** — yield.
//!
//! The current configuration is abandoned (losing any partially completed
//! computation) only if the candidate is *strictly* better. Because the value
//! of the running configuration only improves as it makes progress (its
//! remaining work shrinks), this comparison cannot oscillate forever between
//! configurations — the divergence-avoidance constraint discussed in the paper.
//! The apparent-yield criterion is excluded, as in the paper, because it leads
//! to many unnecessary configuration changes.

use crate::context::SchedulingContext;
use crate::passive::{build_incremental, PassiveKind};
use dg_analysis::IterationEstimate;
use dg_sim::view::{Decision, Reevaluation, Scheduler, SimView};
use dg_sim::Assignment;
use serde::{Deserialize, Serialize};

/// Fingerprint of the scheduler-visible inputs that determine the candidate
/// configuration built by a (time-independent) passive base: which workers are
/// `UP` and what each of them already holds.
type CandidateFingerprint = Vec<(usize, bool, usize, u64)>;

/// The reconfiguration criteria retained by the paper for proactive heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProactiveCriterion {
    /// **P** — probability of success of the iteration.
    Probability,
    /// **E** — expected completion time of the iteration.
    ExpectedTime,
    /// **Y** — yield `P/(E + t)`.
    Yield,
}

impl ProactiveCriterion {
    /// All three criteria, in the paper's order.
    pub const ALL: [ProactiveCriterion; 3] = [
        ProactiveCriterion::Probability,
        ProactiveCriterion::ExpectedTime,
        ProactiveCriterion::Yield,
    ];

    /// The single-letter prefix used in the paper's heuristic names.
    pub fn paper_letter(&self) -> &'static str {
        match self {
            ProactiveCriterion::Probability => "P",
            ProactiveCriterion::ExpectedTime => "E",
            ProactiveCriterion::Yield => "Y",
        }
    }

    /// Score of an estimate under this criterion — **higher is better**.
    pub fn score(&self, estimate: &IterationEstimate, elapsed_in_iteration: u64) -> f64 {
        match self {
            ProactiveCriterion::Probability => estimate.success_probability,
            ProactiveCriterion::ExpectedTime => -estimate.expected_duration,
            ProactiveCriterion::Yield => estimate.yield_metric(elapsed_in_iteration),
        }
    }
}

impl std::str::FromStr for ProactiveCriterion {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "P" => Ok(ProactiveCriterion::Probability),
            "E" => Ok(ProactiveCriterion::ExpectedTime),
            "Y" => Ok(ProactiveCriterion::Yield),
            other => Err(format!("unknown proactive criterion '{other}'")),
        }
    }
}

/// A proactive scheduler `C-H`.
#[derive(Debug)]
pub struct ProactiveScheduler {
    criterion: ProactiveCriterion,
    base: PassiveKind,
    context: SchedulingContext,
    name: String,
    /// Memoized candidate for the last observed fingerprint. Only used for
    /// bases whose incremental construction does not depend on the time
    /// already spent in the iteration (IP, IE, IAY); IY is always rebuilt.
    last_candidate: Option<(CandidateFingerprint, Option<Assignment>)>,
}

impl ProactiveScheduler {
    /// Create the proactive scheduler `criterion-base` around `context`,
    /// whose (possibly shared) cache it scores candidates through.
    /// [`crate::HeuristicSpec::build_with_cache`] builds every registry
    /// scheduler this way; a context with a forced
    /// [`crate::index::ScanStrategy`] pins the candidate scan.
    pub fn with_context(
        criterion: ProactiveCriterion,
        base: PassiveKind,
        context: SchedulingContext,
    ) -> Self {
        let name = format!("{}-{}", criterion.paper_letter(), base.paper_name());
        ProactiveScheduler { criterion, base, context, name, last_candidate: None }
    }

    /// Build (or reuse) the candidate configuration for the current view.
    ///
    /// The result of the incremental construction is fully determined by the
    /// set of `UP` workers and by what each of them already holds, except for
    /// the IY base whose scores depend on the time spent in the iteration;
    /// for the other bases the candidate is memoized on that fingerprint so
    /// that long stretches of unchanged platform state (e.g. the computation
    /// phase) do not pay the full construction cost every slot.
    fn candidate_for(&mut self, view: &SimView<'_>) -> Option<Assignment> {
        if self.base == PassiveKind::IY {
            return build_incremental(&mut self.context, view, self.base);
        }
        let fingerprint: CandidateFingerprint = view
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state.is_up())
            .map(|(q, w)| {
                (q, w.dynamic.has_program, w.dynamic.data_messages, w.dynamic.partial_transfer)
            })
            .collect();
        if let Some((prev, candidate)) = &self.last_candidate {
            if *prev == fingerprint {
                return candidate.clone();
            }
        }
        let candidate = build_incremental(&mut self.context, view, self.base);
        self.last_candidate = Some((fingerprint, candidate.clone()));
        candidate
    }

    /// The reconfiguration criterion `C`.
    pub fn criterion(&self) -> ProactiveCriterion {
        self.criterion
    }

    /// The passive building block `H`.
    pub fn base(&self) -> PassiveKind {
        self.base
    }
}

impl Scheduler for ProactiveScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let candidate = self.candidate_for(view);
        let current = match view.current {
            None => {
                // No configuration active: behave exactly like the passive base.
                return match candidate {
                    Some(a) => Decision::NewConfiguration(a),
                    None => Decision::KeepCurrent,
                };
            }
            Some(c) => c,
        };
        let candidate = match candidate {
            Some(a) => a,
            None => return Decision::KeepCurrent,
        };
        if candidate == current.assignment {
            return Decision::KeepCurrent;
        }

        let elapsed = view.elapsed_in_iteration();
        let current_estimate = self.context.evaluate_remaining(view, current);
        let current_score = self.criterion.score(&current_estimate, elapsed);
        let candidate_estimate = self.context.evaluate(view, candidate.entries().iter().copied());
        let candidate_score = self.criterion.score(&candidate_estimate, elapsed);

        if candidate_score > current_score {
            Decision::NewConfiguration(candidate)
        } else {
            Decision::KeepCurrent
        }
    }

    fn reevaluation(&self) -> Reevaluation {
        // All proactive heuristics reconsider an installed configuration when
        // the platform around it changes, so workers outside the
        // configuration crossing the UP boundary are decision points
        // (`on_outside_transitions: true` throughout). When idle they behave
        // like their passive base: whether a configuration can be installed
        // is time-independent, so idle spans never need per-slot
        // re-evaluation (`while_idle: false` throughout).
        if self.base == PassiveKind::IY {
            // The IY building block scores candidates by yield, so the
            // *candidate itself* drifts as the iteration clock advances: any
            // span with an installed configuration may flip from keep to
            // switch at an arbitrary slot.
            return Reevaluation {
                during_computation: true,
                during_stall: true,
                while_idle: false,
                on_outside_transitions: true,
                during_transfer: true,
            };
        }
        match self.criterion {
            // P and E scores are clock-free and the memoized candidate only
            // changes when the worker fingerprint does; while the world is
            // frozen or computing, the running configuration's score can only
            // improve, so a keep decision stays a keep decision.
            ProactiveCriterion::Probability | ProactiveCriterion::ExpectedTime => Reevaluation {
                during_computation: false,
                during_stall: false,
                while_idle: false,
                on_outside_transitions: true,
                during_transfer: true,
            },
            // The yield criterion decays with elapsed time. While computation
            // accumulates, the running configuration improves relative to the
            // fixed candidate (keep cannot flip to switch), but during a
            // stall both scores decay and their order can cross mid-span.
            ProactiveCriterion::Yield => Reevaluation {
                during_computation: false,
                during_stall: true,
                while_idle: false,
                on_outside_transitions: true,
                during_transfer: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_analysis::EvalCache;
    use dg_availability::{MarkovChain3, ProcState};
    use dg_platform::{ApplicationSpec, MasterSpec, Platform, WorkerSpec};
    use dg_sim::config::ActiveConfiguration;
    use dg_sim::view::WorkerView;
    use dg_sim::worker_state::WorkerDynamicState;
    use dg_sim::Assignment;

    struct Fixture {
        platform: Platform,
        application: ApplicationSpec,
        master: MasterSpec,
        workers: Vec<WorkerView>,
    }

    impl Fixture {
        /// The scheduler `criterion-base` over a fresh cache of the fixture's
        /// platform.
        fn scheduler(
            &self,
            criterion: ProactiveCriterion,
            base: PassiveKind,
        ) -> ProactiveScheduler {
            let cache = EvalCache::with_default_epsilon(&self.platform, &self.master);
            ProactiveScheduler::with_context(criterion, base, SchedulingContext::new(cache))
        }

        fn view<'a>(&'a self, current: Option<&'a ActiveConfiguration>) -> SimView<'a> {
            SimView {
                time: 0,
                iteration: 0,
                completed_iterations: 0,
                iteration_started_at: 0,
                workers: &self.workers,
                platform: &self.platform,
                application: &self.application,
                master: &self.master,
                current,
            }
        }
    }

    /// Two reliable workers: worker 0 fast (speed 1), worker 1 slow (speed 5).
    fn fast_slow() -> Fixture {
        Fixture {
            platform: Platform::new(
                vec![WorkerSpec::new(1), WorkerSpec::new(5)],
                vec![MarkovChain3::always_up(); 2],
            ),
            application: ApplicationSpec::new(1, 10),
            master: MasterSpec::from_slots(2, 0, 0),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                2
            ],
        }
    }

    #[test]
    fn names_and_accessors() {
        let f = fast_slow();
        let s = f.scheduler(ProactiveCriterion::Yield, PassiveKind::IE);
        assert_eq!(s.name(), "Y-IE");
        assert_eq!(s.criterion(), ProactiveCriterion::Yield);
        assert_eq!(s.base(), PassiveKind::IE);
        assert_eq!(f.scheduler(ProactiveCriterion::Probability, PassiveKind::IAY).name(), "P-IAY");
        for c in ProactiveCriterion::ALL {
            let parsed: ProactiveCriterion = c.paper_letter().parse().unwrap();
            assert_eq!(parsed, c);
        }
        assert!("Q".parse::<ProactiveCriterion>().is_err());
    }

    #[test]
    fn behaves_like_passive_base_when_idle() {
        let f = fast_slow();
        let mut sched = f.scheduler(ProactiveCriterion::ExpectedTime, PassiveKind::IE);
        match sched.decide(&f.view(None)) {
            Decision::NewConfiguration(a) => {
                assert!(a.contains(0), "E-IE must start on the fast worker");
            }
            Decision::KeepCurrent => panic!("must select a configuration when idle"),
        }
    }

    #[test]
    fn switches_to_strictly_better_configuration() {
        let f = fast_slow();
        // The current configuration runs the single task on the *slow* worker
        // and has made no progress; the fast worker is UP.
        let poor = Assignment::new([(1, 1)]);
        let cfg = ActiveConfiguration::new(poor, &f.platform, 0);
        let mut sched = f.scheduler(ProactiveCriterion::ExpectedTime, PassiveKind::IE);
        match sched.decide(&f.view(Some(&cfg))) {
            Decision::NewConfiguration(a) => assert!(a.contains(0)),
            Decision::KeepCurrent => panic!("E-IE must abandon the slow worker"),
        }
    }

    #[test]
    fn keeps_configuration_that_is_nearly_done() {
        let f = fast_slow();
        // Slow worker has computed 4 of its 5 slots: only 1 slot remains, which
        // beats restarting on the fast worker (1 slot remaining vs 1 full slot
        // plus the abandoned work — the remaining expected times tie at 1, so
        // the strict comparison keeps the current configuration).
        let poor = Assignment::new([(1, 1)]);
        let mut cfg = ActiveConfiguration::new(poor, &f.platform, 0);
        for _ in 0..4 {
            cfg.advance_computation();
        }
        let mut sched = f.scheduler(ProactiveCriterion::ExpectedTime, PassiveKind::IE);
        assert_eq!(sched.decide(&f.view(Some(&cfg))), Decision::KeepCurrent);
    }

    #[test]
    fn keeps_identical_configuration() {
        let f = fast_slow();
        let best = Assignment::new([(0, 1)]);
        let cfg = ActiveConfiguration::new(best, &f.platform, 0);
        for criterion in ProactiveCriterion::ALL {
            let mut sched = f.scheduler(criterion, PassiveKind::IE);
            assert_eq!(sched.decide(&f.view(Some(&cfg))), Decision::KeepCurrent, "{criterion:?}");
        }
    }

    #[test]
    fn probability_criterion_switches_to_more_reliable_set() {
        // Worker 0: fast but unreliable (its 3-slot task may fail).
        // Worker 1: slow but perfectly reliable.
        let platform = Platform::new(
            vec![WorkerSpec::new(3), WorkerSpec::new(5)],
            vec![
                MarkovChain3::from_self_loop_probs(0.9, 0.9, 0.9).unwrap(),
                MarkovChain3::always_up(),
            ],
        );
        let f = Fixture {
            platform,
            application: ApplicationSpec::new(1, 10),
            master: MasterSpec::from_slots(2, 0, 0),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                2
            ],
        };
        // Current configuration: the unreliable fast worker, no progress yet.
        let risky = Assignment::new([(0, 1)]);
        let cfg = ActiveConfiguration::new(risky, &f.platform, 0);
        let mut sched = f.scheduler(ProactiveCriterion::Probability, PassiveKind::IP);
        match sched.decide(&f.view(Some(&cfg))) {
            Decision::NewConfiguration(a) => assert!(a.contains(1)),
            Decision::KeepCurrent => panic!("P-IP must switch to the reliable worker"),
        }
    }
}
