//! Shared evaluation context for all heuristics.
//!
//! The context holds a handle to the evaluation layer of `dg-analysis` — an
//! [`dg_analysis::EvalCache`], typically shared so that all heuristics and
//! all trials of a scenario memoize into the same tables — and the scratch
//! buffers through which the candidate scan estimates a candidate
//! configuration against the Section V estimates, taking into account what
//! each worker already holds (program, data messages). It also evaluates the
//! *remaining* work of the currently active configuration.
//!
//! Evaluation is allocation-free on the hot path: the per-probe member, task
//! and communication-volume lists live in scratch buffers reused across
//! probes, and the member lists handed to the cache are already sorted, so
//! the cache looks them up without building a key.

use crate::index::ScanStrategy;
use dg_analysis::{EvalCache, IterationEstimate};
use dg_sim::config::ActiveConfiguration;
use dg_sim::view::SimView;

/// Reusable scratch buffers of one candidate evaluation: the member, task and
/// communication-volume lists handed to the cache.
///
/// A [`SchedulingContext`] owns one for its serial hot path; a parallel
/// candidate scan gives each scoped thread its own, so concurrent probes
/// against the shared (`Sync`) [`EvalCache`] never contend on buffers. The
/// evaluation itself is a pure function of the view and the entries — which
/// scratch carries it cannot affect the result.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    pub(crate) members: Vec<usize>,
    pub(crate) tasks: Vec<usize>,
    pub(crate) comm: Vec<u64>,
}

impl EvalScratch {
    /// Load the member, task and communication lists of a candidate described
    /// by `(worker, tasks)` entries (ascending worker order, as produced by
    /// [`crate::CandidateConfig::entries`]): the remaining communication of
    /// each worker given what it already holds.
    pub(crate) fn fill(
        &mut self,
        view: &SimView<'_>,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) {
        self.members.clear();
        self.tasks.clear();
        self.comm.clear();
        for (q, x) in entries {
            self.members.push(q);
            self.tasks.push(x);
            self.comm.push(view.comm_slots_remaining(q, x));
        }
    }
}

/// Evaluation context shared by the heuristics: a cache handle plus the
/// scratch buffers of the candidate-evaluation hot path.
#[derive(Debug)]
pub struct SchedulingContext {
    cache: EvalCache,
    scan: ScanStrategy,
    // Scratch reused by the serial scan and evaluate_remaining so that
    // probing a candidate allocates nothing.
    scratch: EvalScratch,
}

impl SchedulingContext {
    /// Create a context evaluating through the (possibly shared) `cache`.
    /// Every context built from clones of one cache handle reads and writes
    /// the same memo tables, so group quantities are computed once per
    /// scenario rather than once per heuristic. The cache's
    /// `decision_threads` knob rides along: contexts built from a
    /// multi-threaded cache handle run parallel candidate scans.
    pub fn new(cache: EvalCache) -> Self {
        SchedulingContext { cache, scan: ScanStrategy::Auto, scratch: EvalScratch::default() }
    }

    /// The cache handle this context evaluates through.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The serial scan's scratch buffers and the cache, borrowed together.
    pub(crate) fn scratch_and_cache(&mut self) -> (&mut EvalScratch, &EvalCache) {
        (&mut self.scratch, &self.cache)
    }

    /// How [`crate::passive::build_incremental`] enumerates candidate workers
    /// when driven through this context.
    pub fn scan_strategy(&self) -> ScanStrategy {
        self.scan
    }

    /// Override the candidate-scan strategy (default: [`ScanStrategy::Auto`]).
    pub fn set_scan_strategy(&mut self, strategy: ScanStrategy) {
        self.scan = strategy;
    }

    /// Evaluate the *remaining* work of the currently active configuration:
    /// outstanding communication plus the computation slots not yet performed.
    ///
    /// This is the "updated value of the criterion" used by the proactive
    /// heuristics to compare the running configuration against a freshly built
    /// candidate (Section VI-B).
    pub fn evaluate_remaining(
        &mut self,
        view: &SimView<'_>,
        config: &ActiveConfiguration,
    ) -> IterationEstimate {
        self.scratch.members.clear();
        self.scratch.comm.clear();
        for &(q, x) in config.assignment.entries() {
            self.scratch.members.push(q);
            self.scratch.comm.push(view.comm_slots_remaining(q, x));
        }
        self.cache.estimate(
            &self.scratch.members,
            &self.scratch.comm,
            config.remaining_computation(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::ProcState;
    use dg_platform::{ApplicationSpec, MasterSpec, Platform};
    use dg_sim::view::WorkerView;
    use dg_sim::worker_state::WorkerDynamicState;
    use dg_sim::Assignment;

    struct Fixture {
        platform: Platform,
        application: ApplicationSpec,
        master: MasterSpec,
        workers: Vec<WorkerView>,
    }

    /// A context over a fresh cache of `f`'s platform, at the default ε.
    fn context(f: &Fixture) -> SchedulingContext {
        SchedulingContext::new(EvalCache::with_default_epsilon(&f.platform, &f.master))
    }

    /// The estimate of the candidate `entries` through `ctx`'s scratch and
    /// cache, as the candidate scan probes it.
    fn estimate(
        ctx: &mut SchedulingContext,
        view: &SimView<'_>,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> IterationEstimate {
        let (scratch, cache) = ctx.scratch_and_cache();
        scratch.fill(view, entries);
        cache.iteration_estimate(&scratch.members, &scratch.tasks, &scratch.comm)
    }

    fn fixture() -> Fixture {
        let platform = Platform::reliable_homogeneous(3, 2);
        Fixture {
            platform,
            application: ApplicationSpec::new(3, 10),
            master: MasterSpec::from_slots(3, 2, 1),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                3
            ],
        }
    }

    fn view<'a>(f: &'a Fixture, current: Option<&'a ActiveConfiguration>) -> SimView<'a> {
        SimView {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: &f.workers,
            platform: &f.platform,
            application: &f.application,
            master: &f.master,
            current,
        }
    }

    #[test]
    fn evaluate_reliable_candidate_is_exact() {
        let f = fixture();
        let v = view(&f, None);
        let mut ctx = context(&f);
        let est = estimate(&mut ctx, &v, [(0, 1), (1, 1), (2, 1)]);
        // comm: program 2 + data 1 = 3 per worker, parallel -> 3; compute: 2.
        assert!((est.expected_duration - 5.0).abs() < 1e-6);
        assert!((est.success_probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_accounts_for_already_received_data() {
        let mut f = fixture();
        // Worker 0 already holds the program and one data message.
        f.workers[0].dynamic =
            WorkerDynamicState { has_program: true, data_messages: 1, ..Default::default() };
        let v = view(&f, None);
        let mut ctx = context(&f);
        let with_data = estimate(&mut ctx, &v, [(0, 1)]);
        let fresh = estimate(&mut ctx, &v, [(1, 1)]);
        // Worker 0 needs no more communication, so it is strictly faster.
        assert!(with_data.expected_duration < fresh.expected_duration);
        assert!((with_data.expected_duration - 2.0).abs() < 1e-6);
    }

    #[test]
    fn evaluate_remaining_shrinks_as_computation_progresses() {
        let f = fixture();
        let mut ctx = context(&f);
        let assignment = Assignment::new([(0, 1), (1, 1), (2, 1)]);
        let mut cfg = ActiveConfiguration::new(assignment, &f.platform, 0);
        // Pretend communication is done.
        let mut f2 = fixture();
        for w in f2.workers.iter_mut() {
            w.dynamic =
                WorkerDynamicState { has_program: true, data_messages: 1, ..Default::default() };
        }
        let v = view(&f2, None);
        let before = ctx.evaluate_remaining(&v, &cfg);
        cfg.advance_computation();
        let after = ctx.evaluate_remaining(&v, &cfg);
        assert!(after.expected_duration < before.expected_duration);
        assert!(after.success_probability >= before.success_probability - 1e-12);
    }

    #[test]
    fn contexts_over_one_cache_share_memoized_sets() {
        let f = fixture();
        let v = view(&f, None);
        let cache = EvalCache::with_default_epsilon(&f.platform, &f.master);
        let mut a = SchedulingContext::new(cache.clone());
        let mut b = SchedulingContext::new(cache.clone());
        let ea = estimate(&mut a, &v, [(0, 1), (1, 1)]);
        let misses = cache.stats().group_misses;
        let eb = estimate(&mut b, &v, [(0, 1), (1, 1)]);
        assert_eq!(ea, eb);
        // The second context recomputed nothing: every probe was a hit.
        assert_eq!(cache.stats().group_misses, misses);
        assert!(cache.stats().group_hits > 0);
        // And a context over a fresh cache agrees exactly.
        let mut private = context(&f);
        assert_eq!(estimate(&mut private, &v, [(0, 1), (1, 1)]), ea);
    }

    #[test]
    fn scratch_buffers_do_not_leak_between_probes() {
        let f = fixture();
        let v = view(&f, None);
        let mut ctx = context(&f);
        let wide = estimate(&mut ctx, &v, [(0, 1), (1, 1), (2, 1)]);
        let narrow = estimate(&mut ctx, &v, [(1, 2)]);
        let wide_again = estimate(&mut ctx, &v, [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(wide, wide_again);
        assert_ne!(wide, narrow);
        // An empty probe after a populated one must see empty buffers.
        let empty = estimate(&mut ctx, &v, std::iter::empty());
        assert_eq!(empty.expected_duration, 0.0);
    }
}
