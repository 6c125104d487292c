//! High-level, memoized evaluation of the Section V estimates.
//!
//! The incremental heuristics of Section VI evaluate the Section V estimates
//! for many closely related worker sets (the current set `S` plus one
//! candidate worker, for every candidate and every task) — and a campaign
//! evaluates the *same* platform once per heuristic and once per trial. One
//! type, [`EvalCache`], serves both:
//!
//! * it holds the immutable, scenario-scoped inputs of every estimate
//!   (per-worker availability series, speeds, the master's `ncom` bound and
//!   the series-truncation precision `ε`), built once per scenario;
//! * it tabulates each worker's series `P^(q)_{u →t→ u}` once, the first time
//!   a miss needs that worker, up to the longest truncation any set
//!   containing the worker needs ([`WorkerSeries::tabulate`], one
//!   multiplication per power). A miss reads its terms from these tables and
//!   never evaluates the closed form again, and workers no decision touches
//!   are never tabulated;
//! * it keeps each worker's own `group` quantities in a slot beside its
//!   table, read without hashing or locking, and memoizes the `group`
//!   quantities of every other member set and `P_ND` per `(worker, horizon)`
//!   behind one `RwLock`. The handle is `Arc`-clonable: one cache can serve
//!   all 17 heuristics and all trials of a scenario concurrently, so each
//!   group set is computed once per *scenario* instead of once per
//!   `(heuristic, trial)` ([`EvalCache::stats`] counts the reuse);
//! * it scores candidates: [`EvalCache::comm_estimate`] (Section V-B) and
//!   [`EvalCache::estimate`], which takes the memo read lock at most once and
//!   looks its member set up once.
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
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

/// Upper bound on the total number of per-`t` joint products retained by the
/// prefix accumulators (~32 MB of `f64`s). Accumulators are pure derivations
/// of the platform tables, so dropping them never changes a value — only how
/// much work the next cache miss does.
const ACCUMULATOR_TERM_BUDGET: u64 = 4_000_000;

/// Scenario-scoped inputs of the Section V estimates: worker availability
/// series, speeds, the master's `ncom` bound and the series-truncation
/// precision, plus each worker's lazily filled slots. Everything an
/// [`EvalCache`] memoizes is a pure function of these inputs.
#[derive(Debug)]
struct PlatformTables {
    series: Vec<WorkerSeries>,
    /// The largest `λ₁` among the workers that can fail (0 when none can).
    fail_lambda: f64,
    /// `workers[q]` holds worker `q`'s slots; both share one `Vec`, so a new
    /// cache allocates once for them.
    workers: Vec<WorkerSlots>,
    speeds: Vec<u64>,
    ncom: usize,
    computation: GroupComputation,
}

/// One worker's lazily filled slots.
#[derive(Debug, Default)]
struct WorkerSlots {
    /// The worker's [`WorkerSeries::tabulate`] at the cache's `ε` and
    /// `fail_lambda`, built the first time a miss needs it.
    table: OnceLock<Box<[f64]>>,
    /// The group quantities of the one-member set `{q}`, filled by its first
    /// lookup: a filled slot is a group hit, a fill a group miss.
    single: OnceLock<GroupQuantities>,
}

impl PlatformTables {
    /// Build the tables for `platform` and `master`, with series precision
    /// `epsilon`.
    fn new(platform: &Platform, master: &MasterSpec, epsilon: f64) -> Self {
        let series: Vec<WorkerSeries> = platform.chains().iter().map(WorkerSeries::new).collect();
        let fail_lambda =
            series.iter().filter(|s| s.can_fail()).map(WorkerSeries::lambda1).fold(0.0, f64::max);
        PlatformTables {
            series,
            fail_lambda,
            workers: (0..platform.num_workers()).map(|_| WorkerSlots::default()).collect(),
            speeds: platform.workers().iter().map(|w| w.speed).collect(),
            ncom: master.ncom,
            computation: GroupComputation::new(epsilon),
        }
    }

    /// `base` extended by worker `q`, whose terms come from `q`'s table
    /// (tabulated here on first use); `None` if the extended set cannot fail.
    fn extend(&self, base: &GroupAccumulator, q: usize) -> Option<GroupAccumulator> {
        let table = self.workers[q].table.get_or_init(|| {
            self.series[q].tabulate(self.computation.epsilon(), self.fail_lambda).into()
        });
        base.extend(&self.series[q], table)
    }

    /// Lock-step computation workload, in slots of simultaneous `UP` time, of
    /// an assignment: `max_q x_q · w_q` (Section III-C), saturating at
    /// `u64::MAX` instead of wrapping.
    fn computation_workload(&self, members: &[usize], tasks: &[usize]) -> u64 {
        members
            .iter()
            .zip(tasks.iter())
            .map(|(&q, &x)| self.speeds[q].saturating_mul(x as u64))
            .max()
            .unwrap_or(0)
    }

    /// Compute the group quantities of the (sorted, deduplicated) member set
    /// `key` by the batch evaluation alone, bypassing every cache and
    /// table.
    fn compute_group(&self, key: &[usize]) -> GroupQuantities {
        let refs: Vec<&WorkerSeries> = key.iter().map(|&q| &self.series[q]).collect();
        self.computation.compute(&refs)
    }
}

/// Hit/miss counters of one [`EvalCache`] (group-quantity lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Group lookups served from the memo table or a worker's singleton
    /// slot.
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
/// of any size but one (a one-member set's sit in its worker's
/// [`WorkerSlots::single`]) and `P_ND` per `(worker, horizon)`. Both tables
/// sit behind the one [`CacheState::memo`] lock, so one read guard serves a
/// whole estimate.
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
    /// Total series terms folded by group misses — the per-decision series
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

/// A shareable evaluation cache over one scenario's platform tables, and the
/// only way to score a candidate against the Section V estimates.
///
/// Cloning is cheap (two `Arc` bumps) and every clone reads and writes the
/// *same* memo tables and slots, so one cache created next to a scenario
/// serves every heuristic and every trial evaluated on that scenario. All
/// methods take `&self`; concurrent lookups are safe: a one-member set is
/// read from its worker's slot without a lock, the other group and the
/// `P_ND` tables share one `RwLock`, an estimate holds one read guard across
/// all its lookups, and a miss releases it, computes outside every memo lock
/// and inserts. Racing misses of the same set compute identical values (a
/// slot keeps the first), so results never depend on sharing or timing.
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
        let tables = Arc::new(PlatformTables::new(platform, master, epsilon));
        EvalCache { tables, state: Arc::default(), decision_threads: 1 }
    }

    /// Build a fresh cache with the crate's default precision.
    pub fn with_default_epsilon(platform: &Platform, master: &MasterSpec) -> Self {
        EvalCache::new(platform, master, crate::DEFAULT_EPSILON)
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
    /// (largest) member's series table, so the fold order equals a batch
    /// evaluation of the full slice and the quantities are bit-identical to
    /// the tables' direct computation. Racing builds of the same key
    /// therefore insert identical values; the first insert wins.
    fn accumulator_for(&self, key: &[usize]) -> Arc<GroupAccumulator> {
        if let Some(acc) = self.state.accums.read().expect("eval cache poisoned").by_set.get(key) {
            return Arc::clone(acc);
        }
        let base = if key.len() == 1 {
            Arc::new(GroupAccumulator::empty(self.tables.computation.epsilon()))
        } else {
            self.accumulator_for(&key[..key.len() - 1])
        };
        let extended = Arc::new(
            self.tables
                .extend(&base, key[key.len() - 1])
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

    /// Communication-phase estimate of Section V-B (see [`crate::comm`]) for
    /// enrolled workers `members`, where `comm_slots[i]` is the number of
    /// communication slots worker `members[i]` still needs (program + missing
    /// data messages).
    pub fn comm_estimate(&self, members: &[usize], comm_slots: &[u64]) -> CommEstimate {
        self.comm_with(&mut self.reader(), members, comm_slots)
    }

    fn comm_with(
        &self,
        reader: &mut MemoReader<'_>,
        members: &[usize],
        comm_slots: &[u64],
    ) -> CommEstimate {
        let expected_duration = self.comm_time_with(reader, members, comm_slots);
        CommEstimate {
            expected_duration,
            success_probability: self.comm_success_with(reader, members, expected_duration),
        }
    }

    /// `E_comm`, the expected duration of the communication phase of
    /// Section V-B: the `expected_duration` of
    /// [`EvalCache::comm_estimate`], computed by the same function.
    ///
    /// It is all that the holdings contribute to an estimate: the
    /// communication slots enter [`EvalCache::estimate`] only through
    /// `E_comm`, directly and through `P_comm`'s horizon `⌈E_comm⌉`. Two
    /// estimates of one member set and workload whose `E_comm` have the same
    /// bits are therefore the same.
    pub fn comm_time(&self, members: &[usize], comm_slots: &[u64]) -> f64 {
        self.comm_time_with(&mut self.reader(), members, comm_slots)
    }

    /// `E_comm`; exactly `0.0` when nothing is to be sent, and positive
    /// otherwise (a transfer of `n ≥ 1` slots takes at least one slot).
    fn comm_time_with(
        &self,
        reader: &mut MemoReader<'_>,
        members: &[usize],
        comm_slots: &[u64],
    ) -> f64 {
        assert_eq!(members.len(), comm_slots.len(), "one comm volume per member");
        if members.is_empty() || comm_slots.iter().all(|&n| n == 0) {
            return CommEstimate::nothing_to_send().expected_duration;
        }

        // Per-worker expected communication time, through the memoized
        // single-worker group quantities.
        let mut max_single = 0.0f64;
        for (&q, &n) in members.iter().zip(comm_slots.iter()) {
            if n == 0 {
                continue;
            }
            max_single = max_single.max(reader.group(&[q]).expected_completion_time(n));
        }

        let total: u64 = comm_slots.iter().sum();
        let ncom = self.tables.ncom;
        if members.len() <= ncom {
            max_single
        } else {
            max_single.max(total as f64 / ncom as f64)
        }
    }

    /// `P_comm = Π_q P_ND^(q)(⌈E_comm⌉)`: every enrolled worker (even one
    /// with nothing to receive) must avoid going `DOWN` while the others
    /// download. An `E_comm` of zero means nothing to send (and
    /// `P_ND(0) = 1` anyway).
    fn comm_success_with(
        &self,
        reader: &mut MemoReader<'_>,
        members: &[usize],
        comm_time: f64,
    ) -> f64 {
        if comm_time == 0.0 {
            return CommEstimate::nothing_to_send().success_probability;
        }
        let horizon = comm_time.ceil() as u64;
        let mut success_probability = 1.0;
        for &q in members {
            success_probability *= reader.no_down_within(q, horizon);
        }
        success_probability.clamp(0.0, 1.0)
    }

    /// Iteration estimate (communication followed by `w` slots of lock-step
    /// computation) for the enrolled workers `members`, where
    /// `comm_slots[i]` is the communication `members[i]` still needs.
    ///
    /// Takes the memo read lock at most once and looks the member set up
    /// once: both `E^(S)(w)` and `(P₊)^(w−1)` derive from that one lookup.
    pub fn estimate(&self, members: &[usize], comm_slots: &[u64], w: u64) -> IterationEstimate {
        let mut reader = self.reader();
        let comm_time = self.comm_time_with(&mut reader, members, comm_slots);
        self.estimate_with(&mut reader, members, comm_time, w)
    }

    /// The estimate of `members` computing `w` slots after a communication
    /// phase of expected duration `comm_time`.
    fn estimate_with(
        &self,
        reader: &mut MemoReader<'_>,
        members: &[usize],
        comm_time: f64,
        w: u64,
    ) -> IterationEstimate {
        let comm_success = self.comm_success_with(reader, members, comm_time);
        let g = reader.group(members);
        IterationEstimate::combine(
            comm_time,
            comm_success,
            g.expected_completion_time(w),
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
        self.timed_iteration_estimate(members, tasks, comm_slots, None).0
    }

    /// [`EvalCache::iteration_estimate`], handing back the `E_comm` it used,
    /// under one read of the memo tables.
    ///
    /// `earlier`, when given, is an earlier `(E_comm, estimate)` of the same
    /// `members` and `tasks` under other holdings. When `E_comm` has the same
    /// bits now, that estimate is returned without computing the rest: an
    /// estimate is a function of the members, their tasks and `E_comm`
    /// ([`EvalCache::comm_time`]).
    pub fn timed_iteration_estimate(
        &self,
        members: &[usize],
        tasks: &[usize],
        comm_slots: &[u64],
        earlier: Option<(f64, IterationEstimate)>,
    ) -> (IterationEstimate, f64) {
        assert_eq!(members.len(), tasks.len(), "one task count per member");
        let mut reader = self.reader();
        let comm_time = self.comm_time_with(&mut reader, members, comm_slots);
        if let Some((then, estimate)) = earlier {
            if then.to_bits() == comm_time.to_bits() {
                return (estimate, comm_time);
            }
        }
        let w = self.tables.computation_workload(members, tasks);
        (self.estimate_with(&mut reader, members, comm_time, w), comm_time)
    }

    /// Number of distinct worker sets currently memoized, one-member sets
    /// (the filled slots) included.
    pub fn cached_sets(&self) -> usize {
        let singles = self.tables.workers.iter().filter(|w| w.single.get().is_some()).count();
        singles + self.state.memo.read().expect("eval cache poisoned").group.len()
    }

    /// Group-lookup hit/miss counters since creation.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            group_hits: self.state.group_hits.load(Ordering::Relaxed),
            group_misses: self.state.group_misses.load(Ordering::Relaxed),
        }
    }

    /// Total series terms folded by group misses since creation — the
    /// series workload behind the misses, used by the benchmark to attribute
    /// decision cost. It does not count the entries that fill the per-worker
    /// series tables.
    pub fn series_terms(&self) -> u64 {
        self.state.series_terms.load(Ordering::Relaxed)
    }

    /// Total prefix-accumulator extensions performed since creation,
    /// counting evicted and racing duplicate builds. The gap between
    /// `accumulators_built` and the group-miss count
    /// measures how poorly the probe sequence shared accumulator chains.
    pub fn accumulators_built(&self) -> u64 {
        self.state.accum_built.load(Ordering::Relaxed)
    }
}

/// The lookups of one estimate against an [`EvalCache`]'s memo tables.
///
/// A one-member set is read from its worker's slot and takes no guard. Any
/// other lookup takes the memo read guard, at the first such lookup, and
/// keeps it for the rest of the estimate. A miss drops the guard before it
/// computes and writes; the next lookup takes it again. While the guard is
/// held the reader only probes the two maps and the slots and never calls
/// anything that locks, so it can neither invert a lock order nor re-enter
/// the read lock behind a waiting writer: no deadlock is possible. Group hits
/// are tallied locally and added to the shared counter once, when the reader
/// drops.
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
        if let [q] = *key {
            return self.single(q);
        }
        if let Some(&g) = self.memo().group.get(key) {
            self.hits += 1;
            return g;
        }
        self.guard = None;
        let (tables, state) = (&self.cache.tables, &self.cache.state);
        state.group_misses.fetch_add(1, Ordering::Relaxed);
        // A set whose smallest member can fail (hence every sorted prefix can
        // fail) extends the memoized accumulator of its longest proper
        // prefix, at O(terms) multiplications per probe, bit-identical to the
        // batch series. The empty set and a set whose smallest member cannot
        // fail (no generated regime has such a worker) take the batch path:
        // the series evaluated term by term, or the recurrence if no member
        // fails.
        let g = match key {
            [q, ..] if tables.series[*q].can_fail() => self.cache.accumulator_for(key).quantities(),
            _ => tables.compute_group(key),
        };
        state.series_terms.fetch_add(g.terms_evaluated, Ordering::Relaxed);
        state.memo.write().expect("eval cache poisoned").group.insert(key.to_vec(), g);
        g
    }

    /// Group quantities of the one-member set `{q}`, from `q`'s slot. A miss
    /// folds `q`'s own table (the batch path if `q` cannot fail); racing
    /// misses each count and the slot keeps the first value.
    fn single(&mut self, q: usize) -> GroupQuantities {
        let (tables, state) = (&self.cache.tables, &self.cache.state);
        let slot = &tables.workers[q].single;
        if let Some(&g) = slot.get() {
            self.hits += 1;
            return g;
        }
        self.guard = None;
        state.group_misses.fetch_add(1, Ordering::Relaxed);
        let g = if tables.series[q].can_fail() {
            let empty = GroupAccumulator::empty(tables.computation.epsilon());
            tables.extend(&empty, q).expect("the worker can fail").quantities()
        } else {
            tables.compute_group(&[q])
        };
        state.series_terms.fetch_add(g.terms_evaluated, Ordering::Relaxed);
        *slot.get_or_init(|| g)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::series_len;
    use dg_availability::rng::rng_from_seed;
    use dg_availability::MarkovChain3;
    use dg_platform::{Scenario, ScenarioParams, WorkerSpec};

    fn paper_scenario() -> Scenario {
        Scenario::generate(ScenarioParams::paper(5, 5, 2), 42)
    }

    #[test]
    fn caching_returns_identical_values() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let a = cache.group(&[0, 3, 7]);
        let b = cache.group(&[7, 0, 3]); // order must not matter
        let c = cache.group(&[0, 3, 7, 3]); // duplicates must not matter
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(cache.cached_sets(), 1);
        assert_eq!(EvalCache::with_default_epsilon(&s.platform, &s.master).cached_sets(), 0);
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
        let fresh = EvalCache::with_default_epsilon(&s.platform, &s.master);
        assert_eq!(fresh.stats(), EvalCacheStats::default());
        assert_eq!(fresh.cached_sets(), 0);
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
        // Two handles cloned from one cache memoize into the same tables, so
        // the second consumer's probes are all hits — and every value is
        // identical to a fresh cache's.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let first = cache.clone();
        let second = cache.clone();
        let private = EvalCache::with_default_epsilon(&s.platform, &s.master);

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
        // The private cache missed on every set the first pass did, and the
        // shared tables saw none of its lookups.
        assert_eq!(private.stats().group_misses, misses_after_first);
        assert_eq!(cache.stats().group_misses, misses_after_first);
        assert_eq!(first.stats(), second.stats());
    }

    #[test]
    fn workload_is_max_of_task_times() {
        let platform = dg_platform::Platform::new(
            vec![WorkerSpec::new(2), WorkerSpec::new(3), WorkerSpec::new(4)],
            vec![dg_availability::MarkovChain3::always_up(); 3],
        );
        let master = dg_platform::MasterSpec::from_slots(2, 2, 1);
        let tables = PlatformTables::new(&platform, &master, crate::DEFAULT_EPSILON);
        // Example of Figure 1: 2 tasks on w=2, 2 tasks on w=3, 1 task on w=4
        // -> workload 6.
        assert_eq!(tables.computation_workload(&[0, 1, 2], &[2, 2, 1]), 6);
        assert_eq!(tables.computation_workload(&[], &[]), 0);
    }

    #[test]
    fn reliable_platform_estimates_are_exact() {
        let platform = dg_platform::Platform::reliable_homogeneous(3, 2);
        let master = dg_platform::MasterSpec::from_slots(3, 2, 1);
        let cache = EvalCache::with_default_epsilon(&platform, &master);
        // Each worker: program (2) + 1 data (1) = 3 comm slots; all fit under ncom.
        let it = cache.iteration_estimate(&[0, 1, 2], &[1, 1, 1], &[3, 3, 3]);
        assert!((it.success_probability - 1.0).abs() < 1e-9);
        // comm = 3 slots, computation = 1 task * speed 2 = 2 slots.
        assert!((it.expected_duration - 5.0).abs() < 1e-6);
    }

    #[test]
    fn riskier_worker_lowers_probability_and_raises_time() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let small = cache.iteration_estimate(&[0, 1], &[1, 1], &[2, 2]);
        let bigger = cache.iteration_estimate(&[0, 1, 2, 3, 4, 5], &[1, 1, 1, 1, 1, 1], &[2; 6]);
        assert!(bigger.success_probability <= small.success_probability + 1e-12);
    }

    #[test]
    fn comm_estimate_over_ncom_uses_aggregate_bound() {
        let platform = dg_platform::Platform::reliable_homogeneous(6, 1);
        let master = dg_platform::MasterSpec::from_slots(2, 4, 1);
        let cache = EvalCache::with_default_epsilon(&platform, &master);
        let members: Vec<usize> = (0..6).collect();
        let comm = cache.comm_estimate(&members, &[5; 6]);
        // total 30 slots over ncom=2 -> at least 15.
        assert!((comm.expected_duration - 15.0).abs() < 1e-6);
        assert!((comm.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workload_saturates_instead_of_wrapping() {
        let platform = dg_platform::Platform::new(
            vec![WorkerSpec::new(3_000_000_000), WorkerSpec::new(2)],
            vec![dg_availability::MarkovChain3::always_up(); 2],
        );
        let master = dg_platform::MasterSpec::from_slots(2, 2, 1);
        let tables = PlatformTables::new(&platform, &master, crate::DEFAULT_EPSILON);
        assert_eq!(tables.computation_workload(&[0, 1], &[usize::MAX, 1]), u64::MAX);
    }

    #[test]
    fn warm_estimate_looks_up_its_member_set_once() {
        // On a warm cache an estimate of k members, c of them with
        // communication, adds c singleton lookups plus one for the member set
        // — and equals the composition of the public pieces bit for bit.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let probes: [(&[usize], &[u64], u64); 5] = [
            (&[0, 2, 4], &[3, 0, 2], 12),
            (&[1, 3, 5, 7], &[0, 0, 0, 0], 7),
            (&[6], &[4], 1),
            (&[2, 8, 9], &[1, 1, 1], 0),
            (&[], &[], 5),
        ];
        for &(members, comm, w) in &probes {
            cache.estimate(members, comm, w); // warm up
            let c = comm.iter().filter(|&&n| n > 0).count() as u64;
            let before = cache.stats();
            let value = cache.estimate(members, comm, w);
            let delta = cache.stats().since(&before);
            assert_eq!(delta, EvalCacheStats { group_hits: c + 1, group_misses: 0 });

            let fresh = EvalCache::with_default_epsilon(&s.platform, &s.master);
            let ce = fresh.comm_estimate(members, comm);
            let g = fresh.group(members);
            let expected = IterationEstimate::combine(
                ce.expected_duration,
                ce.success_probability,
                g.expected_completion_time(w),
                g.prob_success(w),
            );
            let bits = |x: IterationEstimate| {
                (x.expected_duration.to_bits(), x.success_probability.to_bits())
            };
            assert_eq!(bits(value), bits(expected), "{members:?}");
        }
    }

    #[test]
    fn warm_singleton_lookups_take_no_memo_lock() {
        // E_comm looks up only one-member sets, so on a warm cache it answers
        // while another thread holds the memo's write lock.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let (members, comm) = ([1usize, 4, 6], [3u64, 0, 2]);
        let e_comm = cache.comm_time(&members, &comm);
        let before = cache.stats();
        let (sender, receiver) = std::sync::mpsc::channel();
        let held = cache.state.memo.write().expect("eval cache poisoned");
        std::thread::scope(|scope| {
            scope.spawn(|| sender.send(cache.comm_time(&members, &comm)).unwrap());
            let answer = receiver.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            assert_eq!(answer.map(f64::to_bits), Ok(e_comm.to_bits()));
        });
        assert_eq!(cache.stats().since(&before), EvalCacheStats { group_hits: 2, group_misses: 0 });
    }

    #[test]
    fn comm_time_is_the_comm_estimates_duration_bit_for_bit() {
        // E_comm on its own, in the comm estimate and handed back by a full
        // estimate, bit for bit.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let probes: [(&[usize], &[usize], &[u64]); 5] = [
            (&[0, 2, 4], &[1, 2, 1], &[3, 0, 2]),
            (&[1, 3, 5, 7, 8, 9], &[1, 1, 1, 1, 1, 1], &[4, 4, 3, 2, 9, 1]),
            (&[6], &[3], &[4]),
            (&[2, 8], &[1, 1], &[0, 0]),
            (&[], &[], &[]),
        ];
        for &(members, tasks, comm) in &probes {
            let alone = cache.comm_time(members, comm);
            let (estimate, handed_back) =
                cache.timed_iteration_estimate(members, tasks, comm, None);
            assert_eq!(
                alone.to_bits(),
                cache.comm_estimate(members, comm).expected_duration.to_bits()
            );
            assert_eq!(alone.to_bits(), handed_back.to_bits(), "{members:?}");
            assert_eq!(estimate, cache.iteration_estimate(members, tasks, comm));
            let c = comm.iter().filter(|&&n| n > 0).count() as u64;
            let before = cache.stats();
            cache.comm_time(members, comm);
            assert_eq!(cache.stats().since(&before).lookups(), c, "{members:?}");
            // An earlier estimate with the same E_comm bits comes back as
            // given, for E_comm's lookups alone; another E_comm recomputes.
            let marker = IterationEstimate { success_probability: 0.5, expected_duration: 7.0 };
            let before = cache.stats();
            let kept = cache.timed_iteration_estimate(members, tasks, comm, Some((alone, marker)));
            assert_eq!(cache.stats().since(&before).lookups(), c, "{members:?}");
            assert_eq!(kept, (marker, alone), "{members:?}");
            let moved = f64::from_bits(alone.to_bits() + 1);
            let redone =
                cache.timed_iteration_estimate(members, tasks, comm, Some((moved, marker)));
            assert_eq!(redone, (estimate, alone), "{members:?}");
        }
    }

    #[test]
    fn estimator_handles_every_subset_size() {
        let mut rng = rng_from_seed(9);
        let platform = dg_platform::Platform::sample_paper_model(10, 1, &mut rng);
        let master = dg_platform::MasterSpec::from_slots(5, 5, 1);
        let cache = EvalCache::with_default_epsilon(&platform, &master);
        for k in 1..=10usize {
            let members: Vec<usize> = (0..k).collect();
            let g = cache.group(&members);
            assert!(g.p_plus > 0.0 && g.p_plus <= 1.0);
            assert!(g.e_c.is_finite());
        }
        // One miss per subset size, no sharing between sizes.
        assert_eq!(cache.stats().group_misses, 10);
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
        // The chain's accumulators are retained: a set one member past a
        // probed one extends that prefix once.
        let built = cache.accumulators_built();
        let _ = cache.group(&[0, 1, 2, 3, 4]);
        assert_eq!(cache.accumulators_built(), built + 1);
    }

    #[test]
    fn series_tables_are_built_only_for_the_workers_misses_need() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let built = || -> Vec<usize> {
            (0..s.platform.num_workers())
                .filter(|&q| cache.tables.workers[q].table.get().is_some())
                .collect()
        };
        assert!(built().is_empty(), "no table is built eagerly");
        cache.group(&[2, 5]); // a chain miss: worker 2's table, then 5's
        cache.group(&[7]); // a singleton miss folds its own table
        assert_eq!(built(), [2, 5, 7]);
        cache.estimate(&[2, 5], &[0, 0], 4); // hits read no table
        assert_eq!(built(), [2, 5, 7]);
        for q in built() {
            let series = &cache.tables.series[q];
            let table = cache.tables.workers[q].table.get().expect("built");
            assert_eq!(table.len() as u64, series_len(crate::DEFAULT_EPSILON, series.lambda1()));
        }
    }

    #[test]
    fn a_worker_that_cannot_fail_tabulates_only_what_failing_sets_need() {
        // Worker 0 can fail; worker 1 is only ever reclaimed (λ₁ = 1).
        let reclaim_only = MarkovChain3::new(dg_availability::Matrix3::new([
            [0.9, 0.1, 0.0],
            [0.3, 0.7, 0.0],
            [0.0, 0.0, 1.0],
        ]))
        .unwrap();
        let failing = MarkovChain3::from_self_loop_probs(0.95, 0.92, 0.9).unwrap();
        let platform = Platform::new(
            vec![WorkerSpec::new(1), WorkerSpec::new(2)],
            vec![failing, reclaim_only],
        );
        let cache = EvalCache::with_default_epsilon(&platform, &MasterSpec::from_slots(2, 1, 1));
        assert!(!cache.tables.series[1].can_fail());
        let pair = cache.group(&[0, 1]);
        assert_eq!(
            pair,
            cache.tables.compute_group(&[0, 1]),
            "the pair's group is the batch series"
        );
        let len = |q: usize| cache.tables.workers[q].table.get().expect("built").len();
        assert_eq!(
            len(0) as u64,
            series_len(crate::DEFAULT_EPSILON, cache.tables.series[0].lambda1())
        );
        assert_eq!(len(1), len(0), "bounded by the failing worker's length");
    }

    #[test]
    fn concurrent_probes_agree_with_sequential_values() {
        // Hammer one cache from several threads and check every observed
        // value equals the sequentially computed reference — the concurrency
        // contract the executor's per-scenario sharing relies on.
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let reference = EvalCache::with_default_epsilon(&s.platform, &s.master);
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
        let reference = EvalCache::with_default_epsilon(&s.platform, &s.master);
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
        assert_eq!(EvalCache::with_default_epsilon(&s.platform, &s.master).series_terms(), 0);

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
        let serial = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let expected: Vec<IterationEstimate> = probes
            .iter()
            .map(|(members, tasks, comm)| serial.iteration_estimate(members, tasks, comm))
            .collect();
        let cold = EvalCache::with_default_epsilon(&s.platform, &s.master);
        let start_line = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = cold.clone();
                let (probes, expected, start_line) = (&probes, &expected, &start_line);
                scope.spawn(move || {
                    start_line.wait();
                    let start = t * probes.len() / threads;
                    for i in (start..probes.len()).chain(0..start) {
                        let (members, tasks, comm) = &probes[i];
                        let value = cache.iteration_estimate(members, tasks, comm);
                        assert_eq!(value, expected[i], "probe {members:?}");
                    }
                });
            }
        });
        assert_eq!(cold.stats().lookups(), threads as u64 * serial.stats().lookups());
        assert_eq!(cold.cached_sets(), serial.cached_sets());
    }

    #[test]
    fn no_down_memo_matches_the_series() {
        let s = paper_scenario();
        let cache = EvalCache::with_default_epsilon(&s.platform, &s.master);
        for (q, t) in [(0, 1), (3, 17), (3, 17), (7, 0)] {
            let direct = WorkerSeries::new(s.platform.chain(q)).no_down_within(t);
            assert_eq!(cache.reader().no_down_within(q, t), direct, "worker {q}, horizon {t}");
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
