//! Outside-in instrumentation for the traced passes: wrappers that time or
//! count calls crossing a layer boundary, built only from public interfaces.
//! Nothing here changes what the wrapped code computes.

use dg_availability::{AvailabilityModel, ProcState};
use dg_heuristics::index::use_indexed_scan;
use dg_heuristics::{ScanStrategy, WorkerIndex};
use dg_sim::{Decision, Reevaluation, Scheduler, SimView};
use std::cell::Cell;
use std::time::Instant;

/// Run `f`, add its wall-clock time to `total_ns` and return its result.
pub fn span<T>(total_ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total_ns += start.elapsed().as_nanos() as u64;
    out
}

/// What the decision layer did under a [`TracedScheduler`].
#[derive(Debug, Clone, Default)]
pub struct DecideTrace {
    /// Wall-clock nanoseconds of every `Scheduler::decide` call, in order.
    pub decide_ns: Vec<u64>,
    /// Nanoseconds spent in the [`WorkerIndex::build`] probes.
    pub index_ns: u64,
    /// Index builds probed.
    pub index_builds: u64,
    /// Equivalence classes summed over the probed index builds.
    pub classes: u64,
}

impl DecideTrace {
    /// Scheduler consults recorded.
    pub fn consults(&self) -> u64 {
        self.decide_ns.len() as u64
    }

    /// Total decide time, nanoseconds.
    pub fn decide_total_ns(&self) -> u64 {
        self.decide_ns.iter().sum()
    }
}

/// Times and counts every consult of the wrapped scheduler.
///
/// On platforms large enough for the indexed candidate scan, every consult
/// that builds a candidate (any proactive consult; a passive one only when
/// idle) is followed by one separately timed [`WorkerIndex::build`] of the
/// same view, which stands in for the index build inside the decision.
pub struct TracedScheduler<'a> {
    inner: Box<dyn Scheduler>,
    trace: &'a mut DecideTrace,
    builds_candidates: bool,
    proactive: bool,
}

impl<'a> TracedScheduler<'a> {
    /// Wrap `inner`. `builds_candidates` is false for RANDOM, which never
    /// runs the greedy scan; `proactive` marks the `C-H` heuristics.
    pub fn new(
        inner: Box<dyn Scheduler>,
        trace: &'a mut DecideTrace,
        builds_candidates: bool,
        proactive: bool,
    ) -> Self {
        TracedScheduler { inner, trace, builds_candidates, proactive }
    }
}

impl Scheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(view);
        self.trace.decide_ns.push(start.elapsed().as_nanos() as u64);
        let builds = self.builds_candidates && (self.proactive || view.current.is_none());
        if builds && use_indexed_scan(ScanStrategy::Auto, view.platform.num_workers()) {
            let start = Instant::now();
            let index = WorkerIndex::build(view);
            self.trace.index_ns += start.elapsed().as_nanos() as u64;
            self.trace.index_builds += 1;
            self.trace.classes += index.num_classes() as u64;
        }
        decision
    }

    fn on_iteration_complete(&mut self, completed: u64) {
        self.inner.on_iteration_complete(completed);
    }

    fn reevaluation(&self) -> Reevaluation {
        self.inner.reevaluation()
    }
}

/// Counts `state` and `next_transition` queries against the wrapped
/// availability model. It only counts: timing each call would cost more
/// than many of the calls themselves.
pub struct CountingAvailability<'a, M> {
    inner: M,
    queries: &'a Cell<u64>,
}

impl<'a, M: AvailabilityModel> CountingAvailability<'a, M> {
    /// Wrap `inner`, adding one to `queries` per query.
    pub fn new(inner: M, queries: &'a Cell<u64>) -> Self {
        CountingAvailability { inner, queries }
    }
}

impl<M: AvailabilityModel> AvailabilityModel for CountingAvailability<'_, M> {
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.queries.set(self.queries.get() + 1);
        self.inner.state(q, t)
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.queries.set(self.queries.get() + 1);
        self.inner.next_transition(q, after)
    }
}
