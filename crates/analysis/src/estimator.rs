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
//!   `P_ND` per `(worker, horizon)`) behind one `RwLock`. The handle is
//!   `Arc`-clonable: one cache can serve all 17 heuristics and all trials of
//!   a scenario concurrently, so each group set is computed once per
//!   *scenario* instead of once per `(heuristic, trial)`. Hit/miss counters
//!   quantify the reuse ([`EvalCache::stats`]).
//! * [`Estimator`] — the thin front-end combining a cache handle with the
//!   per-consumer `use_paper_formula` toggle. [`Estimator::new`] builds a
//!   private cache (the historical behavior); [`Estimator::from_cache`]
//!   attaches to a shared one. One [`Estimator::estimate`] takes the memo
//!   read lock once and looks its member set up once.
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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

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
    /// an assignment: `max_q x_q · w_q` (Section III-C), saturating at
    /// `u64::MAX` instead of wrapping.
    pub fn computation_workload(&self, members: &[usize], tasks: &[usize]) -> u64 {
        members
            .iter()
            .zip(tasks.iter())
            .map(|(&q, &x)| self.speeds[q].saturating_mul(x as u64))
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

/// FxHash-style multiply-rotate hasher for the memo keys.
///
/// The keys are sorted worker-index sets and `(worker, horizon)` pairs the
/// heuristics derive from the platform, never bytes a client picks, so an
/// unkeyed hash cannot be steered into collisions; and no output depends on
/// a map's iteration order.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    /// Folds 8-byte chunks: a `[usize]` key arrives here as one byte slice.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The memoized Section V quantities: group quantities per sorted member set
/// and `P_ND` per `(worker, horizon)`. Both tables sit behind the one
/// [`CacheState::memo`] lock, so one read guard serves a whole estimate.
#[derive(Debug, Default)]
struct Memo {
    group: FxHashMap<Vec<usize>, GroupQuantities>,
    no_down: FxHashMap<(usize, u64), f64>,
}

/// The shared state behind an [`EvalCache`]: the memo tables under one
/// `RwLock`, the prefix accumulators under their own (only misses touch
/// them), and atomic counters, so totals stay exact under concurrent
/// lookups.
#[derive(Debug, Default)]
struct CacheState {
    memo: RwLock<Memo>,
    accums: RwLock<Accumulators>,
    /// Prefix-accumulator extensions performed (including ones later evicted
    /// or lost to racing duplicate builds) — the chain-sharing diagnostic
    /// `tests/scaling.rs` pins: a decision whose probe sequence shares prefixes
    /// poorly builds many more accumulators than its misses suggest, and that
    /// extension work is exactly what `series_terms` (final groups only)
    /// cannot see.
    accum_built: AtomicU64,
    /// Total series terms evaluated by group misses — the per-decision series
    /// workload, for the benchmark's cost attribution.
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
    by_set: FxHashMap<Vec<usize>, Arc<GroupAccumulator>>,
    terms: u64,
}

/// A shareable evaluation cache over one scenario's [`PlatformTables`].
///
/// Cloning is cheap (two `Arc` bumps) and every clone reads and writes the
/// *same* memo tables, so one cache created next to a scenario serves every
/// heuristic and every trial evaluated on that scenario. All methods take
/// `&self`; concurrent lookups are safe: the group and `P_ND` tables share
/// one `RwLock`, an estimate holds one read guard across all its lookups,
/// and a miss releases it, computes outside every memo lock and inserts.
/// Racing misses of the same set insert identical values, so results never
/// depend on sharing or timing.
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
        self.reader().group(members)
    }

    /// A reader over the memo tables for the lookups of one estimate.
    fn reader(&self) -> MemoReader<'_> {
        MemoReader { cache: self, guard: None, hits: 0 }
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
        self.reader().no_down_within(q, t)
    }

    /// Number of distinct worker sets currently memoized.
    pub fn cached_sets(&self) -> usize {
        self.state.memo.read().expect("eval cache poisoned").group.len()
    }

    /// Number of prefix accumulators currently retained (exposed for tests;
    /// see [`GroupAccumulator`]).
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
    /// used by the benchmark to attribute decision cost.
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
        *self.state.memo.write().expect("eval cache poisoned") = Memo::default();
        *self.state.accums.write().expect("eval cache poisoned") = Accumulators::default();
        self.state.accum_built.store(0, Ordering::Relaxed);
        self.state.series_terms.store(0, Ordering::Relaxed);
        self.state.group_hits.store(0, Ordering::Relaxed);
        self.state.group_misses.store(0, Ordering::Relaxed);
    }
}

/// The lookups of one estimate against an [`EvalCache`]'s memo tables.
///
/// It takes the memo read guard at its first lookup and keeps it for the
/// rest of the estimate. A miss drops the guard before it computes and
/// writes; the next lookup takes it again. While the guard is held the
/// reader only probes the two maps and never calls anything that locks, so
/// it can neither invert a lock order nor re-enter the read lock behind a
/// waiting writer: no deadlock is possible. Group hits are tallied locally
/// and added to the shared counter once, when the reader drops.
struct MemoReader<'a> {
    cache: &'a EvalCache,
    guard: Option<RwLockReadGuard<'a, Memo>>,
    hits: u64,
}

impl MemoReader<'_> {
    fn memo(&mut self) -> &Memo {
        let state = &self.cache.state;
        self.guard.get_or_insert_with(|| state.memo.read().expect("eval cache poisoned"))
    }

    /// Memoized group quantities of `members` (normalized to a sorted,
    /// duplicate-free key unless already one).
    fn group(&mut self, members: &[usize]) -> GroupQuantities {
        let mut normalized = Vec::new();
        let key = if members.windows(2).all(|w| w[0] < w[1]) {
            members
        } else {
            normalized.extend_from_slice(members);
            normalized.sort_unstable();
            normalized.dedup();
            &normalized
        };
        if let Some(&g) = self.memo().group.get(key) {
            self.hits += 1;
            return g;
        }
        self.guard = None;
        let (tables, state) = (&self.cache.tables, &self.cache.state);
        state.group_misses.fetch_add(1, Ordering::Relaxed);
        // Multi-worker sets whose smallest member can fail (hence every sorted
        // prefix can fail) are built by extending the memoized accumulator of
        // the longest proper prefix — bit-identical to the batch series, at
        // O(terms) per probe instead of O(terms × |S|). Everything else takes
        // the batch path (singletons, and sets needing the recurrence).
        let g = if key.len() >= 2 && tables.series[key[0]].can_fail() {
            self.cache.accumulator_for(key).quantities()
        } else {
            tables.compute_group(key)
        };
        state.series_terms.fetch_add(g.terms_evaluated, Ordering::Relaxed);
        state.memo.write().expect("eval cache poisoned").group.insert(key.to_vec(), g);
        g
    }

    /// Memoized `P^(q)_{ND}(t)`.
    fn no_down_within(&mut self, q: usize, t: u64) -> f64 {
        if let Some(&p) = self.memo().no_down.get(&(q, t)) {
            return p;
        }
        self.guard = None;
        let p = self.cache.tables.series[q].no_down_within(t);
        self.cache.state.memo.write().expect("eval cache poisoned").no_down.insert((q, t), p);
        p
    }
}

impl Drop for MemoReader<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.cache.state.group_hits.fetch_add(self.hits, Ordering::Relaxed);
        }
    }
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

    /// `E^(S)(w)` of the group quantities `g` under this estimator's
    /// duration model (renewal form, or the paper's printed formula).
    fn completion_time(&self, g: &GroupQuantities, w: u64) -> f64 {
        if self.use_paper_formula {
            g.expected_completion_time_paper(w)
        } else {
            g.expected_completion_time(w)
        }
    }

    /// Communication-phase estimate for enrolled workers `members`, where
    /// `comm_slots[i]` is the number of communication slots worker
    /// `members[i]` still needs (program + missing data messages).
    pub fn comm_estimate(&self, members: &[usize], comm_slots: &[u64]) -> CommEstimate {
        self.comm_with(&mut self.cache.reader(), members, comm_slots)
    }

    fn comm_with(
        &self,
        reader: &mut MemoReader<'_>,
        members: &[usize],
        comm_slots: &[u64],
    ) -> CommEstimate {
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
            max_single = max_single.max(self.completion_time(&reader.group(&[q]), n));
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
            success_probability *= reader.no_down_within(q, horizon);
        }

        CommEstimate { expected_duration, success_probability: success_probability.clamp(0.0, 1.0) }
    }

    /// Iteration estimate (communication followed by `w` slots of lock-step
    /// computation) for the enrolled workers `members`, where
    /// `comm_slots[i]` is the communication `members[i]` still needs.
    ///
    /// Takes the memo read lock once and looks the member set up once: both
    /// `E^(S)(w)` and `(P₊)^(w−1)` derive from that one lookup.
    pub fn estimate(&self, members: &[usize], comm_slots: &[u64], w: u64) -> IterationEstimate {
        let mut reader = self.cache.reader();
        let comm = self.comm_with(&mut reader, members, comm_slots);
        let g = reader.group(members);
        IterationEstimate::combine(
            comm.expected_duration,
            comm.success_probability,
            self.completion_time(&g, w),
            g.prob_success(w),
        )
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
        self.estimate(members, comm_slots, self.computation_workload(members, tasks))
    }

    /// Number of distinct worker sets currently memoized (exposed for tests).
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
        let no_comm = [0u64; 3];
        let w = 20;
        let renewal = est.estimate(&members, &no_comm, w);
        est.set_use_paper_formula(true);
        let paper = est.estimate(&members, &no_comm, w);
        // Both are >= W; the paper's literal formula divides by P₊^{W-1} and is
        // therefore never smaller than the renewal form.
        assert!(renewal.expected_duration >= w as f64 - 1e-9);
        assert!(paper.expected_duration >= renewal.expected_duration - 1e-9);
        // Success probabilities are identical under both readings.
        assert_eq!(renewal.success_probability, paper.success_probability);
    }

    #[test]
    fn workload_saturates_instead_of_wrapping() {
        let platform = dg_platform::Platform::new(
            vec![WorkerSpec::new(3_000_000_000), WorkerSpec::new(2)],
            vec![dg_availability::MarkovChain3::always_up(); 2],
        );
        let master = dg_platform::MasterSpec::from_slots(2, 2, 1);
        let est = Estimator::with_default_epsilon(&platform, &master);
        assert_eq!(est.computation_workload(&[0, 1], &[usize::MAX, 1]), u64::MAX);
    }

    #[test]
    fn warm_estimate_looks_up_its_member_set_once() {
        // On a warm cache an estimate of k members, c of them with
        // communication, adds c singleton lookups plus one for the member set
        // — and equals the composition of the public pieces bit for bit.
        let s = paper_scenario();
        for paper in [false, true] {
            let mut est = Estimator::with_default_epsilon(&s.platform, &s.master);
            est.set_use_paper_formula(paper);
            let probes: [(&[usize], &[u64], u64); 5] = [
                (&[0, 2, 4], &[3, 0, 2], 12),
                (&[1, 3, 5, 7], &[0, 0, 0, 0], 7),
                (&[6], &[4], 1),
                (&[2, 8, 9], &[1, 1, 1], 0),
                (&[], &[], 5),
            ];
            for &(members, comm, w) in &probes {
                est.estimate(members, comm, w); // warm up
                let c = comm.iter().filter(|&&n| n > 0).count() as u64;
                let before = est.cache().stats();
                let value = est.estimate(members, comm, w);
                let delta = est.cache().stats().since(&before);
                assert_eq!(delta, EvalCacheStats { group_hits: c + 1, group_misses: 0 });

                let mut fresh = Estimator::with_default_epsilon(&s.platform, &s.master);
                fresh.set_use_paper_formula(paper);
                let ce = fresh.comm_estimate(members, comm);
                let g = fresh.group(members);
                let e = if paper {
                    g.expected_completion_time_paper(w)
                } else {
                    g.expected_completion_time(w)
                };
                let expected = IterationEstimate::combine(
                    ce.expected_duration,
                    ce.success_probability,
                    e,
                    g.prob_success(w),
                );
                let bits = |x: IterationEstimate| {
                    (x.expected_duration.to_bits(), x.success_probability.to_bits())
                };
                assert_eq!(bits(value), bits(expected), "{members:?} paper={paper}");
            }
        }
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
    fn concurrent_lookups_and_cold_estimates_are_all_counted() {
        // Many threads hammering many distinct sets through the one memo
        // lock: every observed value must equal the sequential reference,
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

        // Whole estimates on one cold cache, each thread starting at another
        // rotation of the probe list: misses drop the read guard and write
        // while other threads hold theirs. Finishing shows no deadlock.
        let probes: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let tasks = set.iter().map(|&q| 1 + (q + i) % 3).collect();
                let comm = set.iter().map(|&q| ((q + i) % 4) as u64).collect();
                (set.clone(), tasks, comm)
            })
            .collect();
        let serial = Estimator::with_default_epsilon(&s.platform, &s.master);
        let expected: Vec<IterationEstimate> = probes
            .iter()
            .map(|(members, tasks, comm)| serial.iteration_estimate(members, tasks, comm))
            .collect();
        let cold = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let start_line = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let est = Estimator::from_cache(cold.clone());
                let (probes, expected, start_line) = (&probes, &expected, &start_line);
                scope.spawn(move || {
                    start_line.wait();
                    let start = t * probes.len() / threads;
                    for i in (start..probes.len()).chain(0..start) {
                        let (members, tasks, comm) = &probes[i];
                        let value = est.iteration_estimate(members, tasks, comm);
                        assert_eq!(value, expected[i], "probe {members:?}");
                    }
                });
            }
        });
        assert_eq!(cold.stats().lookups(), threads as u64 * serial.cache().stats().lookups());
        assert_eq!(cold.cached_sets(), serial.cached_sets());
    }

    #[test]
    fn no_down_memo_matches_the_series() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        for (q, t) in [(0, 1), (3, 17), (3, 17), (7, 0)] {
            let direct = cache.tables().worker_series(q).no_down_within(t);
            assert_eq!(cache.no_down_within(q, t), direct, "worker {q}, horizon {t}");
        }
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
