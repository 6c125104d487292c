//! Proactive heuristics C-H (Section VI-B).
//!
//! A proactive heuristic `C-H` takes, at every time-slot, the candidate
//! configuration the passive building block `H` would construct from
//! scratch, then compares that candidate against the *remaining work* of the
//! current configuration according to the criterion `C`:
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
//!
//! The candidate is always equal to the from-scratch build, but its
//! estimates are not always recomputed. From its second consult on, the
//! scheduler keeps a probe log: the `UP` set and holdings the last candidate
//! was built on, and every probe of that build's greedy rounds with its
//! communication time `E_comm` and its estimate. A later consult runs the
//! greedy loop again, taking a probe's estimate from the log unless a worker
//! it involves changed and its `E_comm` moved, and recomputes every score at
//! the current clock, so the IY base reads the log too (see
//! `ProactiveScheduler::candidate_for`). A clock-free base with an unchanged
//! view reuses the candidate outright.

use crate::context::SchedulingContext;
use crate::index::use_indexed_scan;
use crate::passive::{build_incremental, greedy_exhaustive, PassiveKind, ProbeLog};
use dg_analysis::IterationEstimate;
use dg_sim::view::{Decision, Reevaluation, Scheduler, SimView, WorkerView};
use dg_sim::Assignment;
use serde::{Deserialize, Serialize};

/// What a worker holds that a candidate's scores read — program, complete
/// data messages, in-flight transfer progress — or `None` when it is not
/// `UP` (and so is not a candidate at all).
type Holdings = Option<(bool, usize, u64)>;

fn holdings(w: &WorkerView) -> Holdings {
    let d = &w.dynamic;
    w.state.is_up().then_some((d.has_program, d.data_messages, d.partial_transfer))
}

/// The candidate of the last consult and how it was built.
#[derive(Debug)]
struct BuildLog {
    /// Every worker's [`Holdings`] in the view the candidate was built on.
    snapshot: Vec<Holdings>,
    /// Every probe of that build, or `None` for the indexed scan, whose
    /// candidate is rebuilt on any change.
    probes: Option<ProbeLog>,
    candidate: Option<Assignment>,
}

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
    /// Whether `decide` was called before: the first consult builds from
    /// scratch and writes no log, so a scheduler consulted once never pays
    /// for one.
    consulted: bool,
    /// The last candidate and its probe log, from the second consult on.
    log: Option<BuildLog>,
    /// Scratch: per worker, whether it changed since the log's snapshot.
    changed: Vec<bool>,
    /// Scratch: the probe log the next build writes.
    spare: ProbeLog,
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
        ProactiveScheduler {
            criterion,
            base,
            context,
            name,
            consulted: false,
            log: None,
            changed: Vec::new(),
            spare: ProbeLog::default(),
        }
    }

    /// The candidate configuration for the current view: always equal to
    /// the passive base's from-scratch build, whose estimates are taken from
    /// the probe log where that is exact.
    ///
    /// The first consult is that build and writes no log. Later consults
    /// diff the view against the log's snapshot, a worker counting as
    /// *changed* when it joined or left `UP` or its holdings moved. With
    /// nothing changed, a clock-free base (IP, IE, IAY) returns the logged
    /// candidate. Otherwise the greedy loop of
    /// [`crate::passive::build_incremental_exhaustive`] runs, fed the logged
    /// estimates while every earlier round's winner matches the log (see
    /// `passive::probe` for the rule), and the scores are computed at the
    /// current clock; the build's probes become the next log. The indexed
    /// scan keeps full rebuilds, reusing its candidate only for an unchanged
    /// snapshot under a clock-free base.
    fn candidate_for(&mut self, view: &SimView<'_>) -> Option<Assignment> {
        if !std::mem::replace(&mut self.consulted, true) {
            return build_incremental(&mut self.context, view, self.base);
        }
        let p = view.workers.len();
        let log = match &mut self.log {
            Some(log) if log.snapshot.len() == p => log,
            // The log of a build with nothing UP: every UP worker is a change.
            slot => slot.insert(BuildLog {
                snapshot: vec![None; p],
                probes: (!use_indexed_scan(self.context.scan_strategy(), p))
                    .then(ProbeLog::default),
                candidate: None,
            }),
        };
        self.changed.clear();
        let mut any_changed = false;
        for (then, w) in log.snapshot.iter_mut().zip(view.workers) {
            let now = holdings(w);
            let changed = *then != now;
            *then = now;
            any_changed |= changed;
            self.changed.push(changed);
        }
        if !any_changed && self.base != PassiveKind::IY {
            return log.candidate.clone();
        }
        let Some(probes) = &mut log.probes else {
            log.candidate = build_incremental(&mut self.context, view, self.base);
            return log.candidate.clone();
        };
        let previous = Some((&*probes, &self.changed[..]));
        log.candidate =
            greedy_exhaustive(&mut self.context, view, self.base, previous, Some(&mut self.spare));
        std::mem::swap(probes, &mut self.spare);
        log.candidate.clone()
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
            // P and E scores are clock-free and the candidate only changes
            // when the UP set or a worker's holdings do; while the world is
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

        /// A fresh cache of the fixture's platform.
        fn cache(&self) -> EvalCache {
            EvalCache::with_default_epsilon(&self.platform, &self.master)
        }

        fn view<'a>(&'a self, current: Option<&'a ActiveConfiguration>) -> SimView<'a> {
            self.view_at(0, current)
        }

        fn view_at<'a>(
            &'a self,
            time: u64,
            current: Option<&'a ActiveConfiguration>,
        ) -> SimView<'a> {
            SimView {
                time,
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

    /// Four `UP` workers of speeds 1 to 4, one of them unreliable, holding
    /// nothing; two tasks per iteration.
    fn four_speeds() -> Fixture {
        let mut chains = vec![MarkovChain3::always_up(); 4];
        chains[1] = MarkovChain3::from_self_loop_probs(0.9, 0.9, 0.9).unwrap();
        Fixture {
            platform: Platform::new((1..=4).map(WorkerSpec::new).collect(), chains),
            application: ApplicationSpec::new(2, 10),
            master: MasterSpec::from_slots(2, 2, 1),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                4
            ],
        }
    }

    /// All twelve proactive heuristics.
    fn proactive() -> impl Iterator<Item = (ProactiveCriterion, PassiveKind)> {
        ProactiveCriterion::ALL
            .into_iter()
            .flat_map(|c| PassiveKind::ALL.into_iter().map(move |k| (c, k)))
    }

    /// A scheduler over `cache`, past its first consult (which writes no
    /// log) on `view`.
    fn warmed_up(
        criterion: ProactiveCriterion,
        base: PassiveKind,
        cache: &EvalCache,
        view: &SimView<'_>,
    ) -> ProactiveScheduler {
        let mut sched = ProactiveScheduler::with_context(
            criterion,
            base,
            SchedulingContext::new(cache.clone()),
        );
        sched.decide(view);
        sched
    }

    #[test]
    fn a_first_consult_looks_up_what_a_fresh_build_looks_up() {
        let f = four_speeds();
        for (criterion, base) in proactive() {
            let cache = f.cache();
            let decision = f.scheduler(criterion, base).decide(&f.view(None));
            let mut sched = ProactiveScheduler::with_context(
                criterion,
                base,
                SchedulingContext::new(cache.clone()),
            );
            assert_eq!(sched.decide(&f.view(None)), decision);
            let passive_cache = f.cache();
            let context = SchedulingContext::new(passive_cache.clone());
            let passive =
                crate::PassiveScheduler::with_context(base, context).decide(&f.view(None));
            assert_eq!(decision, passive, "{}", sched.name());
            assert_eq!(cache.stats(), passive_cache.stats(), "{}", sched.name());
            assert!(sched.log.is_none(), "{}: a first consult writes no log", sched.name());
        }
    }

    #[test]
    fn a_leaving_worker_that_won_no_round_costs_no_lookup() {
        for (criterion, base) in proactive() {
            let mut f = four_speeds();
            let cache = f.cache();
            let mut sched = warmed_up(criterion, base, &cache, &f.view(None));
            let first = sched.decide(&f.view(None));
            let Decision::NewConfiguration(candidate) = &first else {
                panic!("{}: no candidate on an all-UP platform", sched.name());
            };
            let loser = (0..4).find(|&q| !candidate.contains(q)).expect("two tasks leave a loser");
            f.workers[loser].state = ProcState::Down;
            let before = cache.stats();
            let second = sched.decide(&f.view(None));
            assert_eq!(second, first, "{}", sched.name());
            assert_eq!(cache.stats().since(&before).lookups(), 0, "{}", sched.name());
            let fresh = f.scheduler(criterion, base).decide(&f.view(None));
            assert_eq!(second, fresh, "{}", sched.name());
        }
    }

    #[test]
    fn a_joining_loser_costs_fewer_lookups_than_a_fresh_build() {
        for (criterion, base) in proactive() {
            let mut f = four_speeds();
            // The slowest worker is away for the first consults.
            f.workers[3].state = ProcState::Reclaimed;
            let cache = f.cache();
            let mut sched = warmed_up(criterion, base, &cache, &f.view(None));
            sched.decide(&f.view(None));
            f.workers[3].state = ProcState::Up;
            let before = cache.stats();
            let repaired = sched.decide(&f.view(None));
            let repair_lookups = cache.stats().since(&before).lookups();

            let fresh_cache = f.cache();
            let mut fresh = ProactiveScheduler::with_context(
                criterion,
                base,
                SchedulingContext::new(fresh_cache.clone()),
            );
            assert_eq!(repaired, fresh.decide(&f.view(None)), "{}", sched.name());
            let Decision::NewConfiguration(candidate) = &repaired else {
                panic!("{}: no candidate on an all-UP platform", sched.name());
            };
            assert!(!candidate.contains(3), "{}: the joining worker must lose", sched.name());
            assert!(
                repair_lookups < fresh_cache.stats().lookups(),
                "{}: the repair looked up {repair_lookups} sets, a fresh build {}",
                sched.name(),
                fresh_cache.stats().lookups()
            );
        }
    }

    #[test]
    fn a_consult_after_a_clock_only_move_costs_no_lookup() {
        let f = four_speeds();
        for (criterion, base) in proactive() {
            let cache = f.cache();
            let mut sched = warmed_up(criterion, base, &cache, &f.view(None));
            sched.decide(&f.view_at(3, None));
            let before = cache.stats();
            let later = sched.decide(&f.view_at(40, None));
            assert_eq!(cache.stats().since(&before).lookups(), 0, "{}", sched.name());
            assert_eq!(later, f.scheduler(criterion, base).decide(&f.view_at(40, None)));
        }
    }

    #[test]
    fn an_enrolled_transfer_slot_costs_fewer_lookups_than_a_fresh_build() {
        for (criterion, base) in proactive() {
            let mut f = four_speeds();
            let cache = f.cache();
            let mut sched = warmed_up(criterion, base, &cache, &f.view(None));
            let Decision::NewConfiguration(candidate) = sched.decide(&f.view(None)) else {
                panic!("{}: no candidate on an all-UP platform", sched.name());
            };
            let cfg = ActiveConfiguration::new(candidate.clone(), &f.platform, 0);
            let enrolled = candidate.members_iter().next().expect("a member");
            f.workers[enrolled].dynamic.advance_transfer(f.master.t_prog, f.master.t_data);
            let before = cache.stats();
            let decision = sched.decide(&f.view_at(1, Some(&cfg)));
            let lookups = cache.stats().since(&before).lookups();

            let fresh_cache = f.cache();
            let mut fresh = ProactiveScheduler::with_context(
                criterion,
                base,
                SchedulingContext::new(fresh_cache.clone()),
            );
            assert_eq!(decision, fresh.decide(&f.view_at(1, Some(&cfg))), "{}", sched.name());
            assert!(
                lookups < fresh_cache.stats().lookups(),
                "{}: the consult looked up {lookups} sets, a fresh build {}",
                sched.name(),
                fresh_cache.stats().lookups()
            );
        }
    }
}
