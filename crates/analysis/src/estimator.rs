//! High-level, memoized evaluation of the Section V estimates.
//!
//! The incremental heuristics of Section VI evaluate the Section V estimates
//! for many closely related worker sets (the current set `S` plus one
//! candidate worker, for every candidate and every task) — and a campaign
//! evaluates the *same* platform once per heuristic and once per trial. The
//! layer is therefore split into:
//!
//! * [`PlatformTables`] — the immutable, scenario-scoped inputs of every
//!   estimate: per-worker availability series, speeds, the master's `ncom`
//!   bound and the series-truncation precision `ε`. Built once per scenario.
//! * [`EvalCache`] — the memo tables (`group` quantities per member set,
//!   `P_ND` per `(worker, horizon)`) behind cheap interior mutability. The
//!   handle is `Arc`-clonable: one cache can serve all 17 heuristics and all
//!   trials of a scenario concurrently, so each group set is computed once
//!   per *scenario* instead of once per `(heuristic, trial)`. Hit/miss
//!   counters quantify the reuse ([`EvalCache::stats`]).
//! * [`Estimator`] — the thin front-end combining a cache handle with the
//!   per-consumer `use_paper_formula` toggle. [`Estimator::new`] builds a
//!   private cache (the historical behavior); [`Estimator::from_cache`]
//!   attaches to a shared one.
//!
//! Every cached quantity is a pure function of `(platform, master, ε)`, so
//! sharing a cache across heuristics, trials or threads cannot change any
//! estimate — only how often it is recomputed.

use crate::comm::CommEstimate;
use crate::criteria::IterationEstimate;
use crate::group::{GroupAccumulator, GroupComputation, GroupQuantities};
use crate::series::WorkerSeries;
use dg_platform::{MasterSpec, Platform};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Upper bound on the total number of per-`t` joint products retained by the
/// prefix accumulators (~32 MB of `f64`s). Accumulators are pure derivations
/// of the platform tables, so dropping them never changes a value — only how
/// much work the next cache miss does.
const ACCUMULATOR_TERM_BUDGET: u64 = 4_000_000;

/// Immutable, scenario-scoped inputs of the Section V estimates: worker
/// availability series, speeds, the master's `ncom` bound and the
/// series-truncation precision. Everything an [`EvalCache`] memoizes is a
/// pure function of these tables.
#[derive(Debug)]
pub struct PlatformTables {
    series: Vec<WorkerSeries>,
    speeds: Vec<u64>,
    ncom: usize,
    computation: GroupComputation,
}

impl PlatformTables {
    /// Build the tables for `platform` and `master`, with series precision
    /// `epsilon`.
    pub fn new(platform: &Platform, master: &MasterSpec, epsilon: f64) -> Self {
        PlatformTables {
            series: platform.chains().iter().map(WorkerSeries::new).collect(),
            speeds: platform.workers().iter().map(|w| w.speed).collect(),
            ncom: master.ncom,
            computation: GroupComputation::new(epsilon),
        }
    }

    /// Number of workers known to the tables.
    pub fn num_workers(&self) -> usize {
        self.series.len()
    }

    /// Speed `w_q` of worker `q`.
    pub fn speed(&self, q: usize) -> u64 {
        self.speeds[q]
    }

    /// The master's `ncom` bound used for communication estimates.
    pub fn ncom(&self) -> usize {
        self.ncom
    }

    /// The availability series of worker `q`.
    pub fn worker_series(&self, q: usize) -> &WorkerSeries {
        &self.series[q]
    }

    /// The series-truncation precision `ε` the tables were built with.
    pub fn epsilon(&self) -> f64 {
        self.computation.epsilon()
    }

    /// Lock-step computation workload, in slots of simultaneous `UP` time, of
    /// an assignment: `max_q x_q · w_q` (Section III-C).
    pub fn computation_workload(&self, members: &[usize], tasks: &[usize]) -> u64 {
        members
            .iter()
            .zip(tasks.iter())
            .map(|(&q, &x)| self.speeds[q] * x as u64)
            .max()
            .unwrap_or(0)
    }

    /// Compute the group quantities of the (sorted, deduplicated) member set
    /// `key` from scratch, bypassing any cache.
    fn compute_group(&self, key: &[usize]) -> GroupQuantities {
        let refs: Vec<&WorkerSeries> = key.iter().map(|&q| &self.series[q]).collect();
        self.computation.compute(&refs)
    }
}

/// Hit/miss counters of one [`EvalCache`] (group-quantity lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Group lookups served from the memo table.
    pub group_hits: u64,
    /// Group lookups that computed the truncated series (one per distinct
    /// member set under single-threaded use).
    pub group_misses: u64,
}

impl EvalCacheStats {
    /// Fraction of group lookups served from the cache, in `[0, 1]`
    /// (`0` when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.group_hits + self.group_misses;
        if total == 0 {
            0.0
        } else {
            self.group_hits as f64 / total as f64
        }
    }

    /// Total group lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.group_hits + self.group_misses
    }

    /// Counter-wise difference against an earlier snapshot of the **same**
    /// cache: the hits and misses accrued between the two [`EvalCache::stats`]
    /// calls. This is how per-request deltas are carved out of the monotonic
    /// process-lifetime counters (the `serve` daemon reports one delta per
    /// answered request). Saturating, so a mismatched snapshot pair degrades
    /// to zeros instead of wrapping.
    pub fn since(&self, earlier: &EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            group_hits: self.group_hits.saturating_sub(earlier.group_hits),
            group_misses: self.group_misses.saturating_sub(earlier.group_misses),
        }
    }
}

/// The shared memo tables behind the Section V estimates, one `RwLock` per
/// table. The counters are atomics, so totals stay exact under concurrent
/// lookups.
#[derive(Debug, Default)]
struct CacheState {
    group: RwLock<HashMap<Vec<usize>, GroupQuantities>>,
    no_down: RwLock<HashMap<(usize, u64), f64>>,
    accums: RwLock<Accumulators>,
    /// Prefix-accumulator extensions performed (including ones later evicted
    /// or lost to racing duplicate builds) — the chain-sharing diagnostic the
    /// scaling bench records: a decision whose probe sequence shares prefixes
    /// poorly builds many more accumulators than its misses suggest, and that
    /// extension work is exactly what `series_terms` (final groups only)
    /// cannot see.
    accum_built: AtomicU64,
    /// Total series terms evaluated by group misses — the per-decision series
    /// workload, for the scaling bench's cost attribution.
    series_terms: AtomicU64,
    group_hits: AtomicU64,
    group_misses: AtomicU64,
}

/// Prefix accumulators keyed by sorted member set: `by_set[S]` holds the
/// per-`t` joint products of `S`, so a miss on `S ∪ {q}` (with `q` above
/// every member of `S`) extends in O(terms) instead of recomputing the whole
/// series. `terms` counts the stored products against
/// [`ACCUMULATOR_TERM_BUDGET`].
#[derive(Debug, Default)]
struct Accumulators {
    by_set: HashMap<Vec<usize>, Arc<GroupAccumulator>>,
    terms: u64,
}

/// A shareable evaluation cache over one scenario's [`PlatformTables`].
///
/// Cloning is cheap (two `Arc` bumps) and every clone reads and writes the
/// *same* memo tables, so one cache created next to a scenario serves every
/// heuristic and every trial evaluated on that scenario. All methods take
/// `&self`; concurrent lookups are safe (reads share one `RwLock` per table,
/// a miss computes outside the lock and inserts). Racing misses of the same
/// set insert identical values, so results never depend on sharing or timing.
///
/// `decision_threads` lives on the **handle**, not the shared state: it is
/// how many scoped threads the chunked candidate scan of a decision driven
/// through this handle may use (read back by the heuristics'
/// `SchedulingContext`), never what any value is. Clones inherit it.
#[derive(Debug, Clone)]
pub struct EvalCache {
    tables: Arc<PlatformTables>,
    state: Arc<CacheState>,
    decision_threads: usize,
}

impl EvalCache {
    /// Build a fresh cache (and its tables) for `platform` and `master`, with
    /// series precision `epsilon`.
    pub fn new(platform: &Platform, master: &MasterSpec, epsilon: f64) -> Self {
        EvalCache::from_tables(Arc::new(PlatformTables::new(platform, master, epsilon)))
    }

    /// Build a fresh cache with the crate's default precision.
    pub fn with_default_epsilon(platform: &Platform, master: &MasterSpec) -> Self {
        EvalCache::new(platform, master, crate::DEFAULT_EPSILON)
    }

    /// Build an empty cache over existing tables.
    pub fn from_tables(tables: Arc<PlatformTables>) -> Self {
        EvalCache { tables, state: Arc::new(CacheState::default()), decision_threads: 1 }
    }

    /// The immutable platform tables the cached quantities derive from.
    pub fn tables(&self) -> &PlatformTables {
        &self.tables
    }

    /// Set how many scoped threads the candidate scan of a decision made
    /// through this handle may use (clamped to at least 1). Purely a
    /// performance knob: every decision is byte-identical on every count.
    pub fn set_decision_threads(&mut self, threads: usize) {
        self.decision_threads = threads.max(1);
    }

    /// The intra-decision thread count of this handle.
    pub fn decision_threads(&self) -> usize {
        self.decision_threads
    }

    /// `true` if `self` and `other` are handles to the same memo tables.
    pub fn shares_state_with(&self, other: &EvalCache) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Group quantities (`Eu`, `A`, `P₊`, `E_c`) for the set of workers
    /// `members`, memoized on the (sorted, deduplicated) member list.
    ///
    /// Already-sorted, duplicate-free member slices — what the heuristics'
    /// candidate construction produces — are looked up without allocating;
    /// arbitrary slices are normalized first.
    pub fn group(&self, members: &[usize]) -> GroupQuantities {
        if is_sorted_unique(members) {
            return self.group_sorted(members);
        }
        let mut key: Vec<usize> = members.to_vec();
        key.sort_unstable();
        key.dedup();
        self.group_sorted(&key)
    }

    /// Lookup/compute for a key known to be sorted and duplicate-free.
    fn group_sorted(&self, key: &[usize]) -> GroupQuantities {
        if let Some(&g) = self.state.group.read().expect("eval cache poisoned").get(key) {
            self.state.group_hits.fetch_add(1, Ordering::Relaxed);
            return g;
        }
        self.state.group_misses.fetch_add(1, Ordering::Relaxed);
        // Multi-worker sets whose smallest member can fail (hence every sorted
        // prefix can fail) are built by extending the memoized accumulator of
        // the longest proper prefix — bit-identical to the batch series, at
        // O(terms) per probe instead of O(terms × |S|). Everything else takes
        // the batch path (singletons, and sets needing the recurrence).
        let g = if key.len() >= 2 && self.tables.series[key[0]].can_fail() {
            self.accumulator_for(key).quantities()
        } else {
            self.tables.compute_group(key)
        };
        self.state.series_terms.fetch_add(g.terms_evaluated, Ordering::Relaxed);
        self.state.group.write().expect("eval cache poisoned").insert(key.to_vec(), g);
        g
    }

    /// The memoized prefix accumulator of a sorted, duplicate-free key whose
    /// first member can fail.
    ///
    /// Built by extending the accumulator of `key[..len-1]` by the last
    /// (largest) member, so the fold order equals a batch evaluation of the
    /// full slice and the quantities are bit-identical to
    /// [`PlatformTables`]' direct computation. Racing builds of the same key
    /// therefore insert identical values; the first insert wins.
    fn accumulator_for(&self, key: &[usize]) -> Arc<GroupAccumulator> {
        if let Some(acc) = self.state.accums.read().expect("eval cache poisoned").by_set.get(key) {
            return Arc::clone(acc);
        }
        let base = if key.len() == 1 {
            Arc::new(GroupAccumulator::empty(self.tables.epsilon()))
        } else {
            self.accumulator_for(&key[..key.len() - 1])
        };
        let last = key[key.len() - 1];
        let extended = Arc::new(
            base.extend(self.tables.worker_series(last))
                .expect("every prefix of a chain rooted at a can-fail worker can fail"),
        );
        self.state.accum_built.fetch_add(1, Ordering::Relaxed);
        let mut accums = self.state.accums.write().expect("eval cache poisoned");
        if let Some(existing) = accums.by_set.get(key) {
            return Arc::clone(existing);
        }
        let added = extended.stored_terms() as u64;
        accums.terms += added;
        if accums.terms > ACCUMULATOR_TERM_BUDGET {
            accums.by_set.clear();
            accums.terms = added;
        }
        accums.by_set.insert(key.to_vec(), Arc::clone(&extended));
        extended
    }

    /// Memoized `P^(q)_{ND}(t)`: probability that worker `q` does not go
    /// `DOWN` within `t` slots, starting `UP`.
    pub fn no_down_within(&self, q: usize, t: u64) -> f64 {
        if let Some(&p) = self.state.no_down.read().expect("eval cache poisoned").get(&(q, t)) {
            return p;
        }
        let p = self.tables.series[q].no_down_within(t);
        self.state.no_down.write().expect("eval cache poisoned").insert((q, t), p);
        p
    }

    /// Number of distinct worker sets currently memoized.
    pub fn cached_sets(&self) -> usize {
        self.state.group.read().expect("eval cache poisoned").len()
    }

    /// Number of prefix accumulators currently retained (exposed for the
    /// scaling bench and tests; see [`GroupAccumulator`]).
    pub fn cached_accumulators(&self) -> usize {
        self.state.accums.read().expect("eval cache poisoned").by_set.len()
    }

    /// Group-lookup hit/miss counters since creation (or the last
    /// [`EvalCache::clear`]).
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            group_hits: self.state.group_hits.load(Ordering::Relaxed),
            group_misses: self.state.group_misses.load(Ordering::Relaxed),
        }
    }

    /// Total series terms evaluated by group misses since creation (or the
    /// last [`EvalCache::clear`]) — the series workload behind the misses,
    /// used by the scaling bench to attribute decision cost.
    pub fn series_terms(&self) -> u64 {
        self.state.series_terms.load(Ordering::Relaxed)
    }

    /// Total prefix-accumulator extensions performed since creation (or the
    /// last [`EvalCache::clear`]), counting evicted and racing duplicate
    /// builds — see [`EvalCache::cached_accumulators`] for the retained
    /// count. The gap between `accumulators_built` and the group-miss count
    /// measures how poorly the probe sequence shared accumulator chains.
    pub fn accumulators_built(&self) -> u64 {
        self.state.accum_built.load(Ordering::Relaxed)
    }

    /// Drop all memoized quantities and reset the counters.
    pub fn clear(&self) {
        self.state.group.write().expect("eval cache poisoned").clear();
        self.state.no_down.write().expect("eval cache poisoned").clear();
        *self.state.accums.write().expect("eval cache poisoned") = Accumulators::default();
        self.state.accum_built.store(0, Ordering::Relaxed);
        self.state.series_terms.store(0, Ordering::Relaxed);
        self.state.group_hits.store(0, Ordering::Relaxed);
        self.state.group_misses.store(0, Ordering::Relaxed);
    }
}

/// `true` if the slice is strictly increasing (sorted, no duplicates).
fn is_sorted_unique(members: &[usize]) -> bool {
    members.windows(2).all(|w| w[0] < w[1])
}

/// Memoized computation of the Section V estimates for one platform.
///
/// A thin front-end over an [`EvalCache`] handle plus the per-consumer
/// `use_paper_formula` toggle. [`Estimator::new`] owns a private cache — the
/// historical single-consumer behavior — while [`Estimator::from_cache`]
/// evaluates through a shared one.
#[derive(Debug)]
pub struct Estimator {
    cache: EvalCache,
    use_paper_formula: bool,
}

impl Estimator {
    /// Build an estimator with a private cache for `platform` and `master`,
    /// with series precision `epsilon`.
    pub fn new(platform: &Platform, master: &MasterSpec, epsilon: f64) -> Self {
        Estimator::from_cache(EvalCache::new(platform, master, epsilon))
    }

    /// Build an estimator with the crate's default precision.
    pub fn with_default_epsilon(platform: &Platform, master: &MasterSpec) -> Self {
        Estimator::new(platform, master, crate::DEFAULT_EPSILON)
    }

    /// Build an estimator evaluating through the (possibly shared) `cache`.
    pub fn from_cache(cache: EvalCache) -> Self {
        Estimator { cache, use_paper_formula: false }
    }

    /// The cache handle this estimator evaluates through.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Use the conditional-completion-time formula exactly as printed in the
    /// paper instead of the renewal form (see the `group` module docs).
    pub fn set_use_paper_formula(&mut self, use_paper: bool) {
        self.use_paper_formula = use_paper;
    }

    /// Number of workers known to the estimator.
    pub fn num_workers(&self) -> usize {
        self.cache.tables().num_workers()
    }

    /// Speed `w_q` of worker `q`.
    pub fn speed(&self, q: usize) -> u64 {
        self.cache.tables().speed(q)
    }

    /// The master's `ncom` bound used for communication estimates.
    pub fn ncom(&self) -> usize {
        self.cache.tables().ncom()
    }

    /// The availability series of worker `q`.
    pub fn worker_series(&self, q: usize) -> &WorkerSeries {
        self.cache.tables().worker_series(q)
    }

    /// Group quantities (`Eu`, `A`, `P₊`, `E_c`) for the set of workers
    /// `members`, memoized on the (sorted, deduplicated) member list.
    pub fn group(&self, members: &[usize]) -> GroupQuantities {
        self.cache.group(members)
    }

    /// Lock-step computation workload, in slots of simultaneous `UP` time, of
    /// an assignment: `max_q x_q · w_q` (Section III-C).
    pub fn computation_workload(&self, members: &[usize], tasks: &[usize]) -> u64 {
        self.cache.tables().computation_workload(members, tasks)
    }

    /// Expected duration (conditioned on success) of a computation of `w`
    /// slots by the set `members`.
    pub fn expected_computation_time(&self, members: &[usize], w: u64) -> f64 {
        let g = self.group(members);
        if self.use_paper_formula {
            g.expected_completion_time_paper(w)
        } else {
            g.expected_completion_time(w)
        }
    }

    /// Probability that the set `members` completes `w` slots of simultaneous
    /// computation without any failure.
    pub fn computation_success_probability(&self, members: &[usize], w: u64) -> f64 {
        self.group(members).prob_success(w)
    }

    /// Memoized `P^(q)_{ND}(t)`: probability that worker `q` does not go
    /// `DOWN` within `t` slots, starting `UP`.
    pub fn no_down_within(&self, q: usize, t: u64) -> f64 {
        self.cache.no_down_within(q, t)
    }

    /// Communication-phase estimate for enrolled workers `members`, where
    /// `comm_slots[i]` is the number of communication slots worker
    /// `members[i]` still needs (program + missing data messages).
    pub fn comm_estimate(&self, members: &[usize], comm_slots: &[u64]) -> CommEstimate {
        assert_eq!(members.len(), comm_slots.len(), "one comm volume per member");
        if members.is_empty() || comm_slots.iter().all(|&n| n == 0) {
            return CommEstimate::nothing_to_send();
        }

        // Per-worker expected communication time, through the memoized
        // single-worker group quantities.
        let mut max_single = 0.0f64;
        for (&q, &n) in members.iter().zip(comm_slots.iter()) {
            if n == 0 {
                continue;
            }
            let g = self.group(&[q]);
            let e = if self.use_paper_formula {
                g.expected_completion_time_paper(n)
            } else {
                g.expected_completion_time(n)
            };
            max_single = max_single.max(e);
        }

        let total: u64 = comm_slots.iter().sum();
        let ncom = self.ncom();
        let expected_duration = if members.len() <= ncom {
            max_single
        } else {
            max_single.max(total as f64 / ncom as f64)
        };

        let horizon = expected_duration.ceil() as u64;
        let mut success_probability = 1.0;
        for &q in members {
            success_probability *= self.no_down_within(q, horizon);
        }

        CommEstimate { expected_duration, success_probability: success_probability.clamp(0.0, 1.0) }
    }

    /// Full iteration estimate (communication followed by lock-step
    /// computation) for a candidate configuration.
    ///
    /// * `members[i]` — enrolled worker index,
    /// * `tasks[i]` — number of tasks assigned to that worker,
    /// * `comm_slots[i]` — communication slots that worker still needs.
    pub fn iteration_estimate(
        &self,
        members: &[usize],
        tasks: &[usize],
        comm_slots: &[u64],
    ) -> IterationEstimate {
        assert_eq!(members.len(), tasks.len(), "one task count per member");
        let w = self.computation_workload(members, tasks);
        let comm = self.comm_estimate(members, comm_slots);
        let comp_e = self.expected_computation_time(members, w);
        let comp_p = self.computation_success_probability(members, w);
        IterationEstimate::combine(comm.expected_duration, comm.success_probability, comp_e, comp_p)
    }

    /// Number of distinct worker sets currently memoized (exposed for the
    /// heuristic-cost ablation bench).
    pub fn cached_sets(&self) -> usize {
        self.cache.cached_sets()
    }

    /// Drop all memoized group quantities.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::rng::rng_from_seed;
    use dg_platform::{ApplicationSpec, Scenario, ScenarioParams, WorkerSpec};

    fn paper_scenario() -> Scenario {
        Scenario::generate(ScenarioParams::paper(5, 5, 2), 42)
    }

    #[test]
    fn caching_returns_identical_values() {
        let s = paper_scenario();
        let est = Estimator::with_default_epsilon(&s.platform, &s.master);
        let a = est.group(&[0, 3, 7]);
        let b = est.group(&[7, 0, 3]); // order must not matter
        let c = est.group(&[0, 3, 7, 3]); // duplicates must not matter
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(est.cached_sets(), 1);
        est.clear_cache();
        assert_eq!(est.cached_sets(), 0);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.group(&[0, 1]); // miss
        cache.group(&[0, 1]); // hit (sorted fast path)
        cache.group(&[1, 0]); // hit (normalized)
        cache.group(&[2]); // miss
        let stats = cache.stats();
        assert_eq!(stats.group_misses, 2);
        assert_eq!(stats.group_hits, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.cached_sets(), 2);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert_eq!(cache.cached_sets(), 0);
    }

    #[test]
    fn stats_snapshots_delta_cleanly() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        cache.group(&[0, 1]); // miss
        cache.group(&[0, 1]); // hit
        let before = cache.stats();
        assert_eq!(before.lookups(), 2);
        cache.group(&[2, 3]); // miss
        cache.group(&[2, 3]); // hit
        cache.group(&[0, 1]); // hit
        let delta = cache.stats().since(&before);
        assert_eq!(delta, EvalCacheStats { group_hits: 2, group_misses: 1 });
        assert_eq!(delta.lookups(), 3);
        // An untouched cache deltas to zero; mismatched order saturates.
        assert_eq!(cache.stats().since(&cache.stats()), EvalCacheStats::default());
        assert_eq!(before.since(&cache.stats()), EvalCacheStats::default());
    }

    #[test]
    fn shared_cache_serves_several_estimators() {
        // The tentpole property: two estimators over one cache handle memoize
        // into the same tables, so the second consumer's probes are all hits
        // — and every value is identical to a private-cache estimator's.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let first = Estimator::from_cache(cache.clone());
        let second = Estimator::from_cache(cache.clone());
        assert!(first.cache().shares_state_with(second.cache()));

        let private = Estimator::with_default_epsilon(&s.platform, &s.master);
        assert!(!first.cache().shares_state_with(private.cache()));

        let members = [0usize, 2, 4];
        let a = first.iteration_estimate(&members, &[1, 1, 1], &[2, 2, 2]);
        let misses_after_first = cache.stats().group_misses;
        let b = second.iteration_estimate(&members, &[1, 1, 1], &[2, 2, 2]);
        assert_eq!(a, b);
        // The second pass computed nothing new.
        assert_eq!(cache.stats().group_misses, misses_after_first);
        assert!(cache.stats().group_hits > 0);

        let c = private.iteration_estimate(&members, &[1, 1, 1], &[2, 2, 2]);
        assert_eq!(a, c, "shared and private caches must agree exactly");
    }

    #[test]
    fn platform_tables_expose_platform_constants() {
        let s = paper_scenario();
        let tables = PlatformTables::new(&s.platform, &s.master, 1e-6);
        assert_eq!(tables.num_workers(), s.platform.num_workers());
        assert_eq!(tables.ncom(), s.master.ncom);
        assert_eq!(tables.epsilon(), 1e-6);
        for q in 0..tables.num_workers() {
            assert_eq!(tables.speed(q), s.platform.worker(q).speed);
        }
    }

    #[test]
    fn workload_is_max_of_task_times() {
        let platform = dg_platform::Platform::new(
            vec![WorkerSpec::new(2), WorkerSpec::new(3), WorkerSpec::new(4)],
            vec![dg_availability::MarkovChain3::always_up(); 3],
        );
        let master = dg_platform::MasterSpec::from_slots(2, 2, 1);
        let est = Estimator::with_default_epsilon(&platform, &master);
        // Example of Figure 1: 2 tasks on w=2, 2 tasks on w=3, 1 task on w=4
        // -> workload 6.
        assert_eq!(est.computation_workload(&[0, 1, 2], &[2, 2, 1]), 6);
        assert_eq!(est.computation_workload(&[], &[]), 0);
    }

    #[test]
    fn reliable_platform_estimates_are_exact() {
        let platform = dg_platform::Platform::reliable_homogeneous(3, 2);
        let master = dg_platform::MasterSpec::from_slots(3, 2, 1);
        let app = ApplicationSpec::new(3, 1);
        let _ = app;
        let est = Estimator::with_default_epsilon(&platform, &master);
        // Each worker: program (2) + 1 data (1) = 3 comm slots; all fit under ncom.
        let it = est.iteration_estimate(&[0, 1, 2], &[1, 1, 1], &[3, 3, 3]);
        assert!((it.success_probability - 1.0).abs() < 1e-9);
        // comm = 3 slots, computation = 1 task * speed 2 = 2 slots.
        assert!((it.expected_duration - 5.0).abs() < 1e-6);
    }

    #[test]
    fn riskier_worker_lowers_probability_and_raises_time() {
        let s = paper_scenario();
        let est = Estimator::with_default_epsilon(&s.platform, &s.master);
        let small = est.iteration_estimate(&[0, 1], &[1, 1], &[2, 2]);
        let bigger = est.iteration_estimate(&[0, 1, 2, 3, 4, 5], &[1, 1, 1, 1, 1, 1], &[2; 6]);
        assert!(bigger.success_probability <= small.success_probability + 1e-12);
    }

    #[test]
    fn comm_estimate_over_ncom_uses_aggregate_bound() {
        let platform = dg_platform::Platform::reliable_homogeneous(6, 1);
        let master = dg_platform::MasterSpec::from_slots(2, 4, 1);
        let est = Estimator::with_default_epsilon(&platform, &master);
        let members: Vec<usize> = (0..6).collect();
        let comm = est.comm_estimate(&members, &[5; 6]);
        // total 30 slots over ncom=2 -> at least 15.
        assert!((comm.expected_duration - 15.0).abs() < 1e-6);
        assert!((comm.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_formula_toggle_changes_only_duration_model() {
        let s = paper_scenario();
        let mut est = Estimator::with_default_epsilon(&s.platform, &s.master);
        let members = [0usize, 1, 2];
        let w = 20;
        let renewal = est.expected_computation_time(&members, w);
        est.set_use_paper_formula(true);
        let paper = est.expected_computation_time(&members, w);
        // Both are >= W; the paper's literal formula divides by P₊^{W-1} and is
        // therefore never smaller than the renewal form.
        assert!(renewal >= w as f64 - 1e-9);
        assert!(paper >= renewal - 1e-9);
        // Success probabilities are identical under both readings.
        est.set_use_paper_formula(false);
        let p1 = est.computation_success_probability(&members, w);
        est.set_use_paper_formula(true);
        let p2 = est.computation_success_probability(&members, w);
        assert_eq!(p1, p2);
    }

    #[test]
    fn estimator_handles_every_subset_size() {
        let mut rng = rng_from_seed(9);
        let platform = dg_platform::Platform::sample_paper_model(10, 1, &mut rng);
        let master = dg_platform::MasterSpec::from_slots(5, 5, 1);
        let est = Estimator::with_default_epsilon(&platform, &master);
        for k in 1..=10usize {
            let members: Vec<usize> = (0..k).collect();
            let g = est.group(&members);
            assert!(g.p_plus > 0.0 && g.p_plus <= 1.0);
            assert!(g.e_c.is_finite());
        }
        // One miss per subset size, no sharing between sizes.
        assert_eq!(est.cache().stats().group_misses, 10);
    }

    #[test]
    fn prefix_chain_misses_match_batch_computation_exactly() {
        // The greedy inner loop probes S ∪ {q} for many q; the cache builds
        // those through memoized prefix accumulators. Every served value must
        // equal the batch series bit for bit, and the bookkeeping invariant
        // (one miss per distinct set) must be untouched by the chain.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let tables = PlatformTables::new(&s.platform, &s.master, crate::DEFAULT_EPSILON);
        let sets: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 2, 4],
            vec![1, 3],
            vec![5],
            vec![2, 5, 9, 12],
        ];
        for set in &sets {
            assert_eq!(cache.group(set), tables.compute_group(set), "set {set:?}");
        }
        assert_eq!(cache.stats().group_misses as usize, sets.len());
        assert_eq!(cache.cached_sets(), sets.len());
        assert!(cache.cached_accumulators() > 0);
        cache.clear();
        assert_eq!(cache.cached_accumulators(), 0);
    }

    #[test]
    fn concurrent_probes_agree_with_sequential_values() {
        // Hammer one cache from several threads and check every observed
        // value equals the sequentially computed reference — the concurrency
        // contract the executor's per-scenario sharing relies on.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let reference = Estimator::with_default_epsilon(&s.platform, &s.master);
        let sets: Vec<Vec<usize>> = (1..=6)
            .map(|k| (0..k).collect())
            .chain((1..=6).map(|k| (k..k + 4).collect()))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let sets = &sets;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..3 {
                        for set in sets {
                            assert_eq!(cache.group(set), reference.group(set));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.cached_sets(), sets.len());
    }

    #[test]
    fn concurrent_lookups_are_all_counted_under_one_lock_per_table() {
        // Many threads hammering many distinct sets through the one lock per
        // table: every observed value must equal the sequential reference,
        // and the counters must account for every single lookup issued —
        // hits + misses == threads × reps × sets, with at least one miss per
        // distinct set and every set memoized exactly once.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let reference = Estimator::with_default_epsilon(&s.platform, &s.master);
        let n = s.platform.num_workers();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            for len in 1..=4usize {
                let set: Vec<usize> = (start..(start + len).min(n)).collect();
                if !sets.contains(&set) {
                    sets.push(set);
                }
            }
        }
        let threads = 8;
        let reps = 5;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = cache.clone();
                let sets = &sets;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..reps {
                        for set in sets {
                            assert_eq!(cache.group(set), reference.group(set), "set {set:?}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), (threads * reps * sets.len()) as u64);
        assert!(stats.group_misses >= sets.len() as u64);
        assert_eq!(cache.cached_sets(), sets.len());
        assert!(cache.series_terms() > 0);
        cache.clear();
        assert_eq!(cache.series_terms(), 0);
    }

    #[test]
    fn decision_threads_knob_is_clamped_and_inherited_by_clones() {
        let s = paper_scenario();
        let mut cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        assert_eq!(cache.decision_threads(), 1);
        cache.set_decision_threads(4);
        assert_eq!(cache.decision_threads(), 4);
        assert_eq!(cache.clone().decision_threads(), 4);
        cache.set_decision_threads(0); // clamped
        assert_eq!(cache.decision_threads(), 1);
    }
}
