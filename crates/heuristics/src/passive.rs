//! Passive incremental heuristics IP, IE, IY, IAY (Section VI-A).
//!
//! A passive heuristic selects a configuration only when none is active (at
//! the start of an iteration or after a worker failure destroyed the current
//! one). Tasks are assigned one at a time: the next task goes to the `UP`
//! worker that optimizes the heuristic's criterion evaluated on the partial
//! configuration extended with that worker.

use crate::candidate::CandidateConfig;
use crate::context::{EvalScratch, SchedulingContext};
use dg_analysis::{EvalCache, IterationEstimate};
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
/// the configuration with its estimate, which the last round's winning probe
/// computed, or `None` when the `UP` workers cannot hold all `m` tasks (the
/// scheduler then waits for more workers to come back `UP`).
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
) -> Option<(Assignment, IterationEstimate)> {
    if crate::index::use_indexed_scan(context.scan_strategy(), view.platform.num_workers()) {
        build_incremental_indexed(context, view, kind)
    } else {
        build_incremental_exhaustive(context, view, kind)
    }
}

/// Offer a probe and its score to a greedy round's running winner, the first
/// strict maximizer: an offer replaces the winner only if it scores strictly
/// higher (`score > best`), so a tie keeps the earlier offer, a NaN offered
/// first wins and a NaN offered later never does.
fn offer(best: &mut Option<(Probe, f64)>, probe: Probe, score: f64) {
    if best.is_none_or(|(_, top)| score > top) {
        *best = Some((probe, score));
    }
}

/// One probe of a greedy round: the probed worker, the `E_comm` of the
/// probed candidate (the partial candidate plus one task on that worker) and
/// the candidate's estimate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    worker: usize,
    comm_time: f64,
    estimate: IterationEstimate,
}

/// Every probe of one greedy build, for the next build to read.
#[derive(Debug, Default)]
pub(crate) struct ProbeLog {
    /// The probes of every round, round after round, each round's in
    /// ascending worker order.
    probes: Vec<Probe>,
    /// Per round that placed a task: the end of its probes in `probes`, and
    /// its winner. A round that placed none (the build failed) is absent.
    rounds: Vec<(usize, usize)>,
}

impl ProbeLog {
    /// The probes of round `r`, if the build logged that round.
    fn round(&self, r: usize) -> Option<&[Probe]> {
        let &(end, _) = self.rounds.get(r)?;
        let start = r.checked_sub(1).map_or(0, |prev| self.rounds[prev].0);
        Some(&self.probes[start..end])
    }
}

/// What one greedy round may take from the previous build's log.
#[derive(Debug, Clone, Copy)]
struct Reuse<'a> {
    /// The same round's logged probes, in ascending worker order: the
    /// earlier rounds of both builds placed the same tasks.
    logged: &'a [Probe],
    /// Per worker, whether it joined or left `UP` or its holdings moved
    /// since the log was written.
    changed: &'a [bool],
    /// Whether a member of the partial candidate changed.
    prefix_changed: bool,
}

impl Reuse<'_> {
    /// Nothing to reuse: every probe is estimated.
    const NONE: Reuse<'static> = Reuse { logged: &[], changed: &[], prefix_changed: false };

    /// Worker `q`'s logged probe, if any. A scan asks in ascending worker
    /// order, so the probes before `q` are dropped as it goes.
    fn logged(&mut self, q: usize) -> Option<Probe> {
        while self.logged.first().is_some_and(|p| p.worker < q) {
            self.logged = &self.logged[1..];
        }
        self.logged.first().filter(|p| p.worker == q).copied()
    }
}

/// Worker `q`'s probe against the partial `candidate`, where the one reuse
/// rule lives; the serial and the chunked scan both call it.
///
/// The probe is taken from the log as logged when neither `q` nor any member
/// of the partial candidate changed, or when one did but `E_comm`, recomputed
/// now, has the logged bits; otherwise it is estimated. That is exact: the
/// probed candidate has the logged members and tasks, and an estimate is a
/// function of those and of the bits of `E_comm`, the only way holdings
/// enter it ([`dg_analysis::EvalCache::comm_time`]).
fn probe(
    scratch: &mut EvalScratch,
    cache: &EvalCache,
    view: &SimView<'_>,
    candidate: &mut CandidateConfig,
    q: usize,
    reuse: &mut Reuse<'_>,
) -> Probe {
    let logged = reuse.logged(q);
    if let Some(logged) = logged {
        if !reuse.prefix_changed && !reuse.changed[q] {
            return logged;
        }
    }
    candidate.add_task(q);
    scratch.fill(view, candidate.entries());
    candidate.remove_task(q);
    let earlier = logged.map(|p| (p.comm_time, p.estimate));
    let (estimate, comm_time) =
        cache.timed_iteration_estimate(&scratch.members, &scratch.tasks, &scratch.comm, earlier);
    Probe { worker: q, comm_time, estimate }
}

/// One greedy round: probe every worker of `workers` that can take another
/// task against the partial `candidate`, appending each probe to `record`
/// when given, and return the winning probe under the serial
/// first-maximizer rule, or `None` if no worker can take another task.
///
/// The serial reference walks `workers` in order and keeps the first strict
/// maximizer (`score > best_score`). The parallel path splits `workers` into
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
    workers: &[usize],
    mut reuse: Reuse<'_>,
    mut record: Option<&mut Vec<Probe>>,
) -> Option<Probe> {
    let elapsed = view.elapsed_in_iteration();
    let threads = context.cache().decision_threads().min(workers.len());
    if threads <= 1 || workers.len() < PARALLEL_SCAN_MIN_PROBES {
        let (scratch, cache) = context.scratch_and_cache();
        let mut best = None;
        for &q in workers {
            if !view.platform.worker(q).can_hold(candidate.tasks_of(q) + 1) {
                continue;
            }
            let p = probe(scratch, cache, view, candidate, q, &mut reuse);
            offer(&mut best, p, kind.score(&p.estimate, elapsed));
            if let Some(record) = record.as_deref_mut() {
                record.push(p);
            }
        }
        return best.map(|(p, _)| p);
    }

    let cache = context.cache();
    let keep = record.is_some();
    let chunk = workers.len().div_ceil(threads);
    let chunks: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .chunks(chunk)
            .map(|part| {
                let (mut local, mut reuse) = (candidate.clone(), reuse);
                scope.spawn(move || {
                    let mut scratch = EvalScratch::default();
                    let (mut best, mut probes) = (None, Vec::new());
                    for &q in part {
                        if !view.platform.worker(q).can_hold(local.tasks_of(q) + 1) {
                            continue;
                        }
                        let p = probe(&mut scratch, cache, view, &mut local, q, &mut reuse);
                        offer(&mut best, p, kind.score(&p.estimate, elapsed));
                        if keep {
                            probes.push(p);
                        }
                    }
                    (best, probes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("candidate scan panicked")).collect()
    });
    let mut best = None;
    for (part, probes) in chunks {
        if let Some((p, score)) = part {
            offer(&mut best, p, score);
        }
        if let Some(record) = record.as_deref_mut() {
            record.extend(probes);
        }
    }
    best.map(|(p, _)| p)
}

/// The reference scan: every `UP` worker is probed for every task.
pub fn build_incremental_exhaustive(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
) -> Option<(Assignment, IterationEstimate)> {
    greedy_exhaustive(context, view, kind, None, None)
}

/// The greedy loop of [`build_incremental_exhaustive`]: every round probes
/// every `UP` worker, until `m` tasks are placed or a round finds no worker
/// that can take another task (`None`, the scheduler then waits for more
/// workers to come back `UP`).
///
/// `previous` is the log of an earlier build and, per worker, whether it
/// changed since. While every earlier round's winner matches the log, a
/// round's probes are taken from it where [`probe`]'s rule allows; the rounds
/// after a changed winner run as a fresh build. Fed bit-identical estimates,
/// the loop picks the fresh build's winners. `record`, when given, is
/// cleared and receives every probe of this build. The candidate comes back
/// with the last round's winning estimate, which is the candidate's.
pub(crate) fn greedy_exhaustive(
    context: &mut SchedulingContext,
    view: &SimView<'_>,
    kind: PassiveKind,
    mut previous: Option<(&ProbeLog, &[bool])>,
    mut record: Option<&mut ProbeLog>,
) -> Option<(Assignment, IterationEstimate)> {
    if let Some(log) = record.as_deref_mut() {
        log.probes.clear();
        log.rounds.clear();
    }
    let up: Vec<usize> = view.up_workers();
    if up.is_empty() {
        return None;
    }
    let mut candidate = CandidateConfig::new(view.platform.num_workers());
    let mut prefix_changed = false;
    let mut winner = None;
    for r in 0..view.application.tasks_per_iteration {
        let reuse = previous
            .and_then(|(log, changed)| {
                Some(Reuse { logged: log.round(r)?, changed, prefix_changed })
            })
            .unwrap_or(Reuse::NONE);
        let probes = record.as_deref_mut().map(|log| &mut log.probes);
        let won = scan_round(context, view, kind, &mut candidate, &up, reuse, probes)?;
        let q = won.worker;
        if let Some(log) = record.as_deref_mut() {
            log.rounds.push((log.probes.len(), q));
        }
        match previous {
            Some((log, changed)) if log.rounds.get(r).is_some_and(|&(_, w)| w == q) => {
                prefix_changed |= changed[q]
            }
            _ => previous = None,
        }
        candidate.add_task(q);
        winner = Some(won.estimate);
    }
    winner.map(|estimate| (candidate.to_assignment(), estimate))
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
) -> Option<(Assignment, IterationEstimate)> {
    let m = view.application.tasks_per_iteration;
    let mut index = crate::index::WorkerIndex::build(view);
    if index.up_workers() == 0 {
        return None;
    }
    let mut candidate = CandidateConfig::new(view.platform.num_workers());
    let mut probe: Vec<usize> = Vec::new();
    let mut winner = None;

    for _ in 0..m {
        index.candidates_into(candidate.occupied(), &mut probe);
        let won = scan_round(context, view, kind, &mut candidate, &probe, Reuse::NONE, None)?;
        candidate.add_task(won.worker);
        winner = Some(won.estimate);
    }
    winner.map(|estimate| (candidate.to_assignment(), estimate))
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
            Some((assignment, _)) => Decision::NewConfiguration(assignment),
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
        let (a, _) = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
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
            let (a, _) = build_incremental(&mut ctx, &f.view(), kind)
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
        let (ip, _) = build_incremental(&mut ctx, &f.view(), PassiveKind::IP).unwrap();
        assert!(ip.contains(1), "IP must pick the reliable worker");
        let (ie, _) = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
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
        let (a, _) = build_incremental(&mut ctx, &f.view(), PassiveKind::IE).unwrap();
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
