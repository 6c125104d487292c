//! Passive incremental heuristics IP, IE, IY, IAY (Section VI-A).
//!
//! A passive heuristic selects a configuration only when none is active (at
//! the start of an iteration or after a worker failure destroyed the current
//! one). Tasks are assigned one at a time: the next task goes to the `UP`
//! worker that optimizes the heuristic's criterion evaluated on the partial
//! configuration extended with that worker.

use crate::candidate::CandidateConfig;
use crate::context::{EvalScratch, SchedulingContext};
use dg_analysis::IterationEstimate;
use dg_sim::view::{Decision, Reevaluation, Scheduler, SimView};
use dg_sim::Assignment;
use serde::{Deserialize, Serialize};

/// Minimum probe-list length before one greedy round spawns scoped threads;
/// below this the spawn/join overhead dwarfs the evaluations.
const PARALLEL_SCAN_MIN_PROBES: usize = 8;

/// The four incremental task-placement criteria of Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PassiveKind {
    /// **IP** — maximize the probability of success of the (partial)
    /// configuration.
    IP,
    /// **IE** — minimize the expected completion time of the iteration.
    IE,
    /// **IY** — maximize the yield `P/(E + t)`.
    IY,
    /// **IAY** — maximize the apparent yield `P/E`.
    IAY,
}

impl PassiveKind {
    /// All four kinds, in the paper's order.
    pub const ALL: [PassiveKind; 4] =
        [PassiveKind::IP, PassiveKind::IE, PassiveKind::IY, PassiveKind::IAY];

    /// The paper's name for the heuristic.
    pub fn paper_name(&self) -> &'static str {
        match self {
            PassiveKind::IP => "IP",
            PassiveKind::IE => "IE",
            PassiveKind::IY => "IY",
            PassiveKind::IAY => "IAY",
        }
    }

    /// Score of a candidate configuration: **higher is better** for every kind
    /// (expected completion time is negated).
    pub fn score(&self, estimate: &IterationEstimate, elapsed_in_iteration: u64) -> f64 {
        match self {
            PassiveKind::IP => estimate.success_probability,
            PassiveKind::IE => -estimate.expected_duration,
            PassiveKind::IY => estimate.yield_metric(elapsed_in_iteration),
            PassiveKind::IAY => estimate.apparent_yield(),
        }
    }
}

impl std::str::FromStr for PassiveKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "IP" => Ok(PassiveKind::IP),
            "IE" => Ok(PassiveKind::IE),
            "IY" => Ok(PassiveKind::IY),
            "IAY" => Ok(PassiveKind::IAY),
            other => Err(format!("unknown passive heuristic '{other}'")),
        }
    }
}

/// Build a full configuration with the incremental algorithm of Section VI-A.
///
/// Tasks are placed one at a time on the `UP` worker maximizing
/// `kind.score(...)`; ties are broken toward the lowest worker index. Returns
/// `None` when the `UP` workers cannot hold all `m` tasks (the scheduler then
/// waits for more workers to come back `UP`).
///
/// Candidate workers are enumerated either by the reference exhaustive scan
/// or through the bucketed [`crate::index::WorkerIndex`], as selected by the
/// context's [`crate::index::ScanStrategy`] — by default the index engages
/// only above [`crate::index::INDEX_THRESHOLD`] workers, where rescanning the
/// whole platform per task is the dominant cost.
pub fn build_incremental(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
) -> Option<Assignment> {
    if crate::index::use_indexed_scan(context.scan_strategy(), view.platform.num_workers()) {
        build_incremental_indexed(context, view, kind)
    } else {
        build_incremental_exhaustive(context, view, kind)
    }
}

/// The first strict maximizer of a sequence of `(worker, score)` offers: the
/// winner of one greedy round.
#[derive(Debug, Clone, Copy, Default)]
struct RoundBest {
    /// The winning offer, `None` when nothing was offered. An offer replaces
    /// the winner only if it scores strictly higher (`score > best`), so a
    /// tie keeps the earlier offer, a NaN offered first wins and a NaN
    /// offered later never does.
    winner: Option<(usize, f64)>,
    /// Whether any offer scored NaN.
    saw_nan: bool,
}

impl RoundBest {
    fn offer(&mut self, q: usize, score: f64) {
        self.saw_nan |= score.is_nan();
        if self.winner.is_none_or(|(_, best)| score > best) {
            self.winner = Some((q, score));
        }
    }
}

/// One greedy round: probe every worker of `probe` against the partial
/// `candidate` and return the winning `(worker, score)` under the serial
/// first-maximizer rule, or no winner if no probed worker can take another
/// task.
///
/// The serial reference walks `probe` in order and keeps the first strict
/// maximizer (`score > best_score`). The parallel path splits `probe` into
/// contiguous chunks, finds each chunk's first maximizer on its own scoped
/// thread (with a private [`CandidateConfig`] clone and [`EvalScratch`],
/// against the shared `Sync` cache), then folds the chunk winners **in
/// chunk order** under the same strict `>` — which selects exactly the
/// serial winner, because every score is a pure function of
/// `(worker, partial candidate, view)` and the first maximizer of a
/// concatenation is the fold of the chunks' first maximizers.
fn scan_round(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
    candidate: &mut CandidateConfig,
    probe: &[usize],
    elapsed: u64,
) -> RoundBest {
    let threads = context.cache().decision_threads().min(probe.len());
    if threads <= 1 || probe.len() < PARALLEL_SCAN_MIN_PROBES {
        let mut best = RoundBest::default();
        for &q in probe {
            if !view.platform.worker(q).can_hold(candidate.tasks_of(q) + 1) {
                continue;
            }
            candidate.add_task(q);
            let estimate = context.evaluate(view, candidate.entries());
            candidate.remove_task(q);
            best.offer(q, kind.score(&estimate, elapsed));
        }
        return best;
    }

    let cache = context.cache();
    let chunk = probe.len().div_ceil(threads);
    let chunk_best: Vec<RoundBest> = std::thread::scope(|scope| {
        let handles: Vec<_> = probe
            .chunks(chunk)
            .map(|part| {
                let mut local = candidate.clone();
                scope.spawn(move || {
                    let mut scratch = EvalScratch::default();
                    let mut best = RoundBest::default();
                    for &q in part {
                        if !view.platform.worker(q).can_hold(local.tasks_of(q) + 1) {
                            continue;
                        }
                        local.add_task(q);
                        let estimate = scratch.evaluate(cache, view, local.entries());
                        local.remove_task(q);
                        best.offer(q, kind.score(&estimate, elapsed));
                    }
                    best
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("candidate scan panicked")).collect()
    });
    let mut best = RoundBest::default();
    for part in chunk_best {
        best.saw_nan |= part.saw_nan;
        if let Some((q, score)) = part.winner {
            best.offer(q, score);
        }
    }
    best
}

/// What a greedy build decided, round by round.
#[derive(Debug, Clone, Default)]
pub(crate) struct GreedyLog {
    /// Each round's winner and winning score, in round order. Shorter than
    /// `m` when the build failed at round `won.len()`.
    pub(crate) won: Vec<(usize, f64)>,
    /// Whether any probe of the logged rounds scored NaN.
    pub(crate) saw_nan: bool,
}

/// The reference scan: every `UP` worker is probed for every task.
pub fn build_incremental_exhaustive(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
) -> Option<Assignment> {
    let empty = CandidateConfig::new(view.platform.num_workers());
    resume_exhaustive(context, view, kind, empty, &mut GreedyLog::default())
}

/// The greedy loop of [`build_incremental_exhaustive`], resumed after the
/// winners already in `log` (which `candidate` holds): every further round
/// probes every `UP` worker and appends its winner to `log`, until `m` tasks
/// are placed or a round finds no worker that can take another task
/// (`None`, the scheduler then waits for more workers to come back `UP`).
pub(crate) fn resume_exhaustive(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
    mut candidate: CandidateConfig,
    log: &mut GreedyLog,
) -> Option<Assignment> {
    let up: Vec<usize> = view.up_workers();
    if up.is_empty() {
        return None;
    }
    let elapsed = view.elapsed_in_iteration();
    while log.won.len() < view.application.tasks_per_iteration {
        let best = scan_round(context, view, kind, &mut candidate, &up, elapsed);
        log.saw_nan |= best.saw_nan;
        let (q, score) = best.winner?;
        candidate.add_task(q);
        log.won.push((q, score));
    }
    Some(candidate.to_assignment())
}

/// The indexed scan: `UP` workers are bucketed into equivalence classes once,
/// then each task probes one representative per class plus the occupied
/// workers — `O(classes + occupied)` evaluations instead of `O(p)`.
///
/// Selects the same worker as [`build_incremental_exhaustive`] whenever
/// same-class scores are bitwise equal (interchangeable workers probed at the
/// same position of the partial configuration), because the candidate list
/// always contains the exhaustive winner or a lower-indexed worker of its
/// class with an identical score, and the ascending strict-`>` probe then
/// settles on that same lowest index.
pub fn build_incremental_indexed(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
) -> Option<Assignment> {
    let m = view.application.tasks_per_iteration;
    let mut index = crate::index::WorkerIndex::build(view);
    if index.up_workers() == 0 {
        return None;
    }
    let elapsed = view.elapsed_in_iteration();
    let mut candidate = CandidateConfig::new(view.platform.num_workers());
    let mut probe: Vec<usize> = Vec::new();

    for _ in 0..m {
        index.candidates_into(candidate.occupied(), &mut probe);
        let (q, _) = scan_round(context, view, kind, &mut candidate, &probe, elapsed).winner?;
        candidate.add_task(q);
    }
    Some(candidate.to_assignment())
}

/// A passive scheduler: selects a configuration with [`build_incremental`]
/// only when no configuration is active.
#[derive(Debug)]
pub struct PassiveScheduler {
    kind: PassiveKind,
    context: SchedulingContext,
    name: String,
}

impl PassiveScheduler {
    /// Create a passive scheduler around `context`, whose (possibly shared)
    /// cache it scores candidates through.
    /// [`crate::HeuristicSpec::build_with_cache`] builds every registry
    /// scheduler this way; a context with a forced
    /// [`crate::index::ScanStrategy`] pins the candidate scan.
    pub fn with_context(kind: PassiveKind, context: SchedulingContext) -> Self {
        PassiveScheduler { kind, context, name: kind.paper_name().to_string() }
    }

    /// The incremental criterion used by this scheduler.
    pub fn kind(&self) -> PassiveKind {
        self.kind
    }
}

impl Scheduler for PassiveScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        if view.current.is_some() {
            return Decision::KeepCurrent;
        }
        match build_incremental(&mut self.context, view, self.kind) {
            Some(assignment) => Decision::NewConfiguration(assignment),
            None => Decision::KeepCurrent,
        }
    }

    fn reevaluation(&self) -> Reevaluation {
        // A passive heuristic acts only when no configuration is installed,
        // and whether it *can* build one then depends only on the UP set and
        // worker capacities (the criterion — even the time-dependent IY —
        // only picks between feasible placements). Nothing to re-check while
        // the world is frozen.
        Reevaluation::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_analysis::EvalCache;
    use dg_availability::{MarkovChain3, ProcState};
    use dg_platform::{ApplicationSpec, MasterSpec, Platform, WorkerSpec};
    use dg_sim::view::WorkerView;
    use dg_sim::worker_state::WorkerDynamicState;

    struct Fixture {
        platform: Platform,
        application: ApplicationSpec,
        master: MasterSpec,
        workers: Vec<WorkerView>,
    }

    impl Fixture {
        /// A context over a fresh cache of the fixture's platform.
        fn context(&self) -> SchedulingContext {
            SchedulingContext::new(EvalCache::with_default_epsilon(&self.platform, &self.master))
        }

        fn view(&self) -> SimView<'_> {
            SimView {
                time: 0,
                iteration: 0,
                completed_iterations: 0,
                iteration_started_at: 0,
                workers: &self.workers,
                platform: &self.platform,
                application: &self.application,
                master: &self.master,
                current: None,
            }
        }
    }

    fn heterogeneous_reliable(m: usize) -> Fixture {
        // Speeds 1..=4, all reliable and UP.
        let platform = Platform::new(
            (1..=4).map(WorkerSpec::new).collect(),
            vec![MarkovChain3::always_up(); 4],
        );
        Fixture {
            platform,
            application: ApplicationSpec::new(m, 10),
            master: MasterSpec::from_slots(4, 0, 0),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                4
            ],
        }
    }

    #[test]
    fn ie_prefers_fast_workers_on_reliable_platform() {
        let f = heterogeneous_reliable(2);
        let mut ctx = f.context();
        let a = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
        // With no communication cost and 2 tasks, the two fastest workers
        // (speeds 1 and 2) minimize max(x_q w_q): one task each, or both on the
        // speed-1 worker (workload 2 either way); it must not use worker 3 (speed 4).
        assert_eq!(a.total_tasks(), 2);
        assert!(!a.contains(3));
        assert_eq!(a.workload(&f.platform), 2);
    }

    #[test]
    fn all_kinds_produce_valid_assignments() {
        let f = heterogeneous_reliable(5);
        for kind in PassiveKind::ALL {
            let mut ctx = f.context();
            let a = build_incremental(&mut ctx, &f.view(), kind)
                .unwrap_or_else(|| panic!("{kind:?} failed to build"));
            assert!(a.validate(&f.platform, &f.application).is_ok(), "{kind:?}");
            for &(q, _) in a.entries() {
                assert!(f.view().is_up(q));
            }
        }
    }

    #[test]
    fn ip_prefers_reliable_workers() {
        // Worker 0: fast but failure-prone; worker 1: slower but never fails.
        // (Worker 0 needs 2 slots, so its success is not guaranteed.)
        let platform = Platform::new(
            vec![WorkerSpec::new(2), WorkerSpec::new(3)],
            vec![
                MarkovChain3::from_self_loop_probs(0.90, 0.90, 0.90).unwrap(),
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
        let mut ctx = f.context();
        let ip = build_incremental(&mut ctx, &f.view(), PassiveKind::IP).unwrap();
        assert!(ip.contains(1), "IP must pick the reliable worker");
        let ie = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
        assert!(ie.contains(0), "IE must pick the fast worker");
    }

    #[test]
    fn respects_capacity_and_reports_infeasible() {
        // Two workers with capacity 1 each cannot hold 3 tasks.
        let platform = Platform::new(
            vec![WorkerSpec::with_capacity(1, 1), WorkerSpec::with_capacity(2, 1)],
            vec![MarkovChain3::always_up(); 2],
        );
        let f = Fixture {
            platform,
            application: ApplicationSpec::new(3, 10),
            master: MasterSpec::from_slots(2, 0, 0),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                2
            ],
        };
        let mut ctx = f.context();
        assert!(build_incremental(&mut ctx, &f.view(), PassiveKind::IE).is_none());
    }

    #[test]
    fn ignores_non_up_workers() {
        let mut f = heterogeneous_reliable(2);
        // The two fastest workers are unavailable.
        f.workers[0].state = ProcState::Reclaimed;
        f.workers[1].state = ProcState::Down;
        let mut ctx = f.context();
        let a = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
        assert!(!a.contains(0));
        assert!(!a.contains(1));
        assert_eq!(a.total_tasks(), 2);
    }

    #[test]
    fn no_up_workers_yields_none_and_keepcurrent() {
        let mut f = heterogeneous_reliable(2);
        for w in f.workers.iter_mut() {
            w.state = ProcState::Down;
        }
        let mut sched = PassiveScheduler::with_context(PassiveKind::IE, f.context());
        assert_eq!(sched.decide(&f.view()), Decision::KeepCurrent);
        assert_eq!(sched.name(), "IE");
        assert_eq!(sched.kind(), PassiveKind::IE);
    }

    #[test]
    fn passive_never_changes_an_active_configuration() {
        let f = heterogeneous_reliable(2);
        let assignment = Assignment::new([(3, 2)]); // deliberately poor choice
        let cfg = dg_sim::config::ActiveConfiguration::new(assignment, &f.platform, 0);
        let view = SimView { current: Some(&cfg), ..f.view() };
        let mut sched = PassiveScheduler::with_context(PassiveKind::IE, f.context());
        assert_eq!(sched.decide(&view), Decision::KeepCurrent);
    }

    #[test]
    fn kind_parsing_and_names() {
        for kind in PassiveKind::ALL {
            let parsed: PassiveKind = kind.paper_name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("XYZ".parse::<PassiveKind>().is_err());
    }
}
