//! The sweep kernel shared by the campaign ([`crate::executor`]),
//! optimality-gap ([`crate::gap`]) and sensitivity ([`crate::sensitivity`])
//! experiments.
//!
//! All three walk one space: points × scenarios × trials × heuristics ×
//! arms, where an *arm* is one record per `(trial, heuristic)` — one for the
//! campaign and gap, two for sensitivity's Markov/semi-Markov pair. A job is
//! one `(point, scenario)` pair. A client supplies a [`Sweep`] (the space,
//! the store fingerprint and its record codec), a per-job function and a
//! sink; [`run`] owns the rest: the worker shard's point window, the store
//! and its fingerprint check, resume prefill through one slot rule
//! ([`Sweep::slot`]), progress, per-job scenario generation with one
//! [`EvalCache`] per job, the in-order [`fan_out`] feeding the
//! [`ShardWriter`], and finalizing the store.

use crate::campaign::{CampaignConfig, InstanceResult};
use crate::executor::{resolve_threads, ExecutorOptions, ExecutorStats};
use crate::runner::{run_instance_on, trial_seed, InstanceSpec};
use crate::store::{decode_instance, CampaignStore, ShardWriter, StoredInstance};
use dg_analysis::EvalCache;
use dg_availability::rng::derive_seed;
use dg_availability::{AvailabilityModel, RealizedTrial};
use dg_heuristics::HeuristicSpec;
use dg_platform::{Scenario, ScenarioModel, ScenarioParams};
use dg_sim::SimMode;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Seed used to generate scenario `scenario_index` of `point_index`.
pub(crate) fn scenario_seed(base_seed: u64, point_index: usize, scenario_index: usize) -> u64 {
    derive_seed(base_seed, (point_index as u64) << 20 | scenario_index as u64)
}

/// The slot a stored record claims.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    pub(crate) point: usize,
    pub(crate) params: ScenarioParams,
    pub(crate) scenario: usize,
    pub(crate) trial: usize,
    pub(crate) heuristic: String,
    pub(crate) arm: usize,
}

/// Decodes one shard line: `Ok(None)` for a well-formed record of another
/// suite or experiment (skipped), `Err` for a malformed line (which ends the
/// read of its shard: a killed run's write frontier).
pub(crate) type Decode<'a, R> = Box<dyn Fn(&str) -> Result<Option<(Key, R)>, String> + Sync + 'a>;

/// Encodes the record of `(point, arm)` as one shard line.
pub(crate) type Encode<'a, R> = Box<dyn Fn(usize, usize, &R) -> String + Sync + 'a>;

/// The decoder of a campaign-format store: records of suite `tag` whose
/// model tag `arm_of` maps to an arm.
pub(crate) fn instance_decoder<'a>(
    tag: Option<&'a str>,
    arm_of: impl Fn(Option<&str>) -> Option<usize> + Sync + 'a,
) -> Decode<'a, InstanceResult> {
    Box::new(move |line: &str| {
        let StoredInstance { point_index, suite, model, result: r } = decode_instance(line)?;
        let arm = arm_of(model.as_deref()).filter(|_| suite.as_deref() == tag);
        Ok(arm.map(|arm| {
            let (scenario, trial, heuristic) =
                (r.scenario_index, r.trial_index, r.heuristic.clone());
            (Key { point: point_index, params: r.params, scenario, trial, heuristic, arm }, r)
        }))
    })
}

/// A sweep's space, store identity and record codec.
pub(crate) struct Sweep<'a, R> {
    pub(crate) points: Vec<ScenarioParams>,
    pub(crate) scenarios: usize,
    pub(crate) trials: usize,
    /// Heuristic names, in slot order.
    pub(crate) heuristics: Vec<String>,
    /// Records per `(trial, heuristic)`.
    pub(crate) arms: usize,
    pub(crate) model: &'a ScenarioModel,
    pub(crate) base_seed: u64,
    pub(crate) epsilon: f64,
    /// Job threads (`0` = auto-detect).
    pub(crate) threads: usize,
    pub(crate) fingerprint: String,
    pub(crate) decode: Decode<'a, R>,
    pub(crate) encode: Encode<'a, R>,
}

impl<'a, R> Sweep<'a, R> {
    /// A one-arm sweep over a campaign configuration's space.
    pub(crate) fn over(
        config: &'a CampaignConfig,
        fingerprint: String,
        decode: Decode<'a, R>,
        encode: Encode<'a, R>,
    ) -> Sweep<'a, R> {
        Sweep {
            points: config.points(),
            scenarios: config.scenarios_per_point,
            trials: config.trials_per_scenario,
            heuristics: config.heuristics.iter().map(|h| h.name()).collect(),
            arms: 1,
            model: &config.model,
            base_seed: config.base_seed,
            epsilon: config.epsilon,
            threads: config.threads,
            fingerprint,
            decode,
            encode,
        }
    }

    /// The canonical slot of `key` (point-major, then scenario, trial,
    /// heuristic, arm), or `None` when the key lies outside this sweep.
    pub(crate) fn slot(&self, key: &Key) -> Option<usize> {
        if self.points.get(key.point) != Some(&key.params)
            || key.scenario >= self.scenarios
            || key.trial >= self.trials
            || key.arm >= self.arms
        {
            return None;
        }
        let h = self.heuristics.iter().position(|n| *n == key.heuristic)?;
        let job = key.point * self.scenarios + key.scenario;
        Some(((job * self.trials + key.trial) * self.heuristics.len() + h) * self.arms + key.arm)
    }
}

/// One `(point, scenario)` job, as the client's per-job function sees it.
pub(crate) struct Job<'a, R> {
    pub(crate) point: usize,
    pub(crate) scenario_index: usize,
    pub(crate) params: ScenarioParams,
    sweep: &'a Sweep<'a, R>,
    /// The scenario and its shared cache; `None` when every slot was resumed.
    generated: Option<(Scenario, EvalCache)>,
    stored: &'a [Option<R>],
    stats: &'a Mutex<ExecutorStats>,
    on_progress: &'a (dyn Fn(usize, usize) + Sync),
}

impl<R> Job<'_, R> {
    /// The job's scenario; only a missing slot needs it.
    pub(crate) fn scenario(&self) -> &Scenario {
        &self.generated.as_ref().expect("scenario generated for a missing slot").0
    }

    /// The evaluation cache every run of the job shares.
    pub(crate) fn cache(&self) -> &EvalCache {
        &self.generated.as_ref().expect("eval cache built for a missing slot").1
    }

    /// The resumed record of `(trial, heuristic, arm)`, if any.
    pub(crate) fn stored(&self, trial: usize, heuristic: usize, arm: usize) -> Option<&R> {
        self.stored[(trial * self.sweep.heuristics.len() + heuristic) * self.sweep.arms + arm]
            .as_ref()
    }

    /// Realize `arm` of `trial` from the trial seed, once for all of the
    /// trial's heuristics; `None` when none of them still needs it.
    pub(crate) fn realize<M: AvailabilityModel>(
        &self,
        trial: usize,
        arm: usize,
        realize: impl FnOnce(&Scenario, u64) -> M,
    ) -> Option<RealizedTrial<M>> {
        let missing =
            (0..self.sweep.heuristics.len()).any(|h| self.stored(trial, h, arm).is_none());
        missing.then(|| {
            self.stats.lock().expect("stats lock poisoned").trials_realized += 1;
            let scenario = self.scenario();
            let seed = trial_seed(self.sweep.base_seed, scenario.seed, trial);
            RealizedTrial::new(realize(scenario, seed))
        })
    }

    /// Count one executed slot and report progress. Counting and reporting
    /// under one lock keeps the reported counts strictly increasing.
    pub(crate) fn executed(&self) {
        let mut stats = self.stats.lock().expect("stats lock poisoned");
        stats.executed_instances += 1;
        let done = stats.resumed_instances + stats.executed_instances;
        (self.on_progress)(done, stats.total_instances);
    }
}

impl Job<'_, InstanceResult> {
    /// The block of an instance sweep: each arm of each trial is realized
    /// once by `realize(scenario, arm, seed)`, and every slot that was not
    /// resumed runs its heuristic on a replay of its arm.
    pub(crate) fn instances<M: AvailabilityModel>(
        &self,
        heuristics: &[HeuristicSpec],
        max_slots: u64,
        engine: SimMode,
        realize: impl Fn(&Scenario, usize, u64) -> M,
    ) -> Vec<InstanceResult> {
        let mut block = Vec::with_capacity(self.stored.len());
        for trial_index in 0..self.sweep.trials {
            let arms: Vec<_> = (0..self.sweep.arms)
                .map(|arm| self.realize(trial_index, arm, |s, seed| realize(s, arm, seed)))
                .collect();
            for (i, heuristic) in heuristics.iter().enumerate() {
                for (arm, trial) in arms.iter().enumerate() {
                    if let Some(record) = self.stored(trial_index, i, arm) {
                        block.push(record.clone());
                        continue;
                    }
                    let trial = trial.as_ref().expect("arm realized for a missing instance");
                    let scenario_index = self.scenario_index;
                    let spec = InstanceSpec { scenario_index, trial_index, heuristic: *heuristic };
                    let (outcome, _) = run_instance_on(
                        self.scenario(),
                        &spec,
                        trial.replay(),
                        self.cache(),
                        self.sweep.base_seed,
                        max_slots,
                        engine,
                    );
                    self.executed();
                    let heuristic = heuristic.name();
                    let params = self.params;
                    block.push(InstanceResult {
                        params,
                        scenario_index,
                        trial_index,
                        heuristic,
                        outcome,
                    });
                }
            }
        }
        block
    }
}

/// Run `sweep` under `options`: `job` produces each job's block in canonical
/// order (trial-major, then heuristic, then arm); `sink` receives the blocks
/// in job order on the calling thread, after their lines reach the store.
/// `on_progress` gets `(done, total)` over the shard's slots: resumed slots
/// once up front, then after every executed slot. Fails only on store I/O or
/// a configuration mismatch.
pub(crate) fn run<R, J, S>(
    sweep: &Sweep<'_, R>,
    options: &ExecutorOptions,
    on_progress: impl Fn(usize, usize) + Sync,
    job: J,
    mut sink: S,
) -> Result<ExecutorStats, String>
where
    R: Clone + Send + Sync,
    J: Fn(&Job<'_, R>) -> Vec<R> + Sync,
    S: FnMut(usize, Vec<R>),
{
    // A worker shard executes only its point window; slots, seeds and shard
    // names stay global, so its bytes equal the same points' of a full run.
    let per_job = sweep.trials * sweep.heuristics.len() * sweep.arms;
    let num_points = sweep.points.len();
    let window = options.part.map_or(0..num_points, |shard| shard.points(num_points));
    let jobs = window.start * sweep.scenarios..window.end * sweep.scenarios;
    let job_slots = |index: usize| index * per_job..(index + 1) * per_job;

    let fingerprint = sweep.fingerprint.clone();
    let store = match (&options.out, options.part) {
        (Some(dir), Some(_)) => Some(CampaignStore::open_worker(dir, fingerprint, options.resume)?),
        (Some(dir), None) => Some(CampaignStore::open(dir, fingerprint, options.resume)?),
        (None, Some(_)) => {
            return Err("a worker shard requires an output directory (--worker-shard needs --out)"
                .to_string())
        }
        (None, None) if options.resume => {
            return Err("resume requires an output directory".to_string())
        }
        (None, None) => None,
    };
    let mut stored: Vec<Option<R>> = vec![None; num_points * sweep.scenarios * per_job];
    if let Some(store) = store.as_ref().filter(|_| options.resume) {
        for (key, record) in store.load_with(&sweep.decode)?.into_iter().flatten() {
            if let Some(slot) = sweep.slot(&key) {
                stored[slot] = Some(record);
            }
        }
    }
    let stored = &stored;

    // Resumed slots are reported once, up front: counting them as jobs reach
    // them would interleave with executed counts in thread order.
    let local = jobs.start * per_job..jobs.end * per_job;
    let resumed = stored[local.clone()].iter().filter(|s| s.is_some()).count();
    let stats = Mutex::new(ExecutorStats {
        total_instances: local.len(),
        resumed_instances: resumed,
        ..ExecutorStats::default()
    });
    if resumed > 0 {
        on_progress(resumed, local.len());
    }

    let decision_threads = resolve_threads(options.decision_threads);
    let worker = |offset: usize| -> Vec<R> {
        let index = jobs.start + offset;
        let (point, scenario_index) = (index / sweep.scenarios, index % sweep.scenarios);
        let params = sweep.points[point];
        let stored = &stored[job_slots(index)];
        let generated = stored.iter().any(Option::is_none).then(|| {
            let seed = scenario_seed(sweep.base_seed, point, scenario_index);
            let scenario = Scenario::generate_with(params, sweep.model, seed);
            let mut cache = EvalCache::new(&scenario.platform, &scenario.master, sweep.epsilon);
            cache.set_decision_threads(decision_threads);
            (scenario, cache)
        });
        let (stats, on_progress) = (&stats, &on_progress);
        let view =
            Job { point, scenario_index, params, sweep, generated, stored, stats, on_progress };
        let block = job(&view);
        debug_assert_eq!(block.len(), per_job, "a job must fill every slot");
        if let Some((_, cache)) = &view.generated {
            let cache_stats = cache.stats();
            let mut stats = stats.lock().expect("stats lock poisoned");
            stats.eval_caches += 1;
            stats.group_sets_computed += cache_stats.group_misses as usize;
            stats.group_cache_hits += cache_stats.group_hits as usize;
        }
        block
    };

    // In canonical job order: shard lines first (a store error aborts the
    // fan-out), then the client's reduction.
    let mut shards = ShardWriter::new(store.as_ref(), sweep.scenarios);
    fan_out(jobs.len(), resolve_threads(sweep.threads), worker, |offset, block: Vec<R>| {
        let index = jobs.start + offset;
        let point = index / sweep.scenarios;
        let fresh = stored[job_slots(index)].iter().filter(|s| s.is_none()).count();
        let lines = block.iter().enumerate().map(|(i, r)| (sweep.encode)(point, i % sweep.arms, r));
        let keep_going = shards.consume(index, fresh, lines);
        sink(point, block);
        keep_going
    });
    shards.finish()?;
    if let Some(store) = &store {
        match options.part {
            Some(shard) => store.write_part(shard.index, shard.total, window)?,
            None => store.finalize()?,
        }
    }
    Ok(stats.into_inner().expect("stats lock poisoned"))
}

/// Distribute `num_jobs` jobs over `threads` workers and hand every result to
/// `sink` **in job order** on the calling thread. The sink returns `true` to
/// keep going; returning `false` aborts the fan-out — already-claimed jobs
/// finish, no new jobs start.
///
/// Workers pull job indices from a shared atomic counter and send results
/// through a channel; the calling thread re-sequences out-of-order arrivals
/// through a reorder buffer. An admission gate keeps workers within a bounded
/// window of the in-order consumption frontier, so the buffer holds O(threads)
/// blocks even when one job straggles — this is what preserves the streaming
/// memory bound. With `threads <= 1` the jobs simply run inline, in order,
/// with no spawning — a sequential campaign is exactly a `for` loop. A worker
/// panic aborts the gate (so no thread waits forever) and propagates when the
/// thread scope closes.
pub(crate) fn fan_out<R, W, S>(num_jobs: usize, threads: usize, worker: W, mut sink: S)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    S: FnMut(usize, R) -> bool,
{
    let threads = threads.clamp(1, num_jobs.max(1));
    if threads == 1 {
        for job in 0..num_jobs {
            let result = worker(job);
            if !sink(job, result) {
                return;
            }
        }
        return;
    }
    let next_job = AtomicUsize::new(0);
    let gate = Gate::new(threads * 4);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let worker = &worker;
        let next_job = &next_job;
        let gate = &gate;
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || {
                // A panicking worker would leave its job forever missing from
                // the reorder sequence, stalling the admission gate; abort the
                // gate on unwind so the other workers exit and the panic can
                // propagate through the scope instead of deadlocking.
                let guard = PanicGuard(gate);
                loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= num_jobs || !gate.admit(job) || tx.send((job, worker(job))).is_err() {
                        break;
                    }
                }
                drop(guard);
            });
        }
        drop(tx);
        // Re-sequence: the sink must observe jobs in canonical order.
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut expect = 0usize;
        'drain: while let Ok((job, result)) = rx.recv() {
            pending.insert(job, result);
            while let Some(result) = pending.remove(&expect) {
                let keep_going = sink(expect, result);
                expect += 1;
                gate.advance(expect);
                if !keep_going {
                    gate.abort();
                    break 'drain;
                }
            }
        }
    });
}

/// Admission gate of [`fan_out`]: workers may run at most `window` jobs ahead
/// of the sink's in-order consumption frontier.
struct Gate {
    window: usize,
    state: Mutex<GateState>,
    wake: Condvar,
}

struct GateState {
    consumed: usize,
    aborted: bool,
}

impl Gate {
    fn new(window: usize) -> Gate {
        Gate {
            window: window.max(1),
            state: Mutex::new(GateState { consumed: 0, aborted: false }),
            wake: Condvar::new(),
        }
    }

    /// Block until `job` is within the window (or the fan-out aborted).
    /// Returns `false` on abort. Never blocks the lowest outstanding job
    /// (`job == consumed` always satisfies `job < consumed + window`), so the
    /// sink's next-expected job can always be produced — no deadlock.
    fn admit(&self, job: usize) -> bool {
        let mut state = self.state.lock().expect("gate lock poisoned");
        while !state.aborted && job >= state.consumed + self.window {
            state = self.wake.wait(state).expect("gate lock poisoned");
        }
        !state.aborted
    }

    fn advance(&self, consumed: usize) {
        self.state.lock().expect("gate lock poisoned").consumed = consumed;
        self.wake.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("gate lock poisoned").aborted = true;
        self.wake.notify_all();
    }
}

/// Aborts the gate if the holding thread unwinds (see [`fan_out`]).
struct PanicGuard<'a>(&'a Gate);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-arm sweep over `config` whose records are `(job, slot offset)`
    /// pairs; enough to drive the kernel without simulating anything.
    fn test_sweep(config: &CampaignConfig) -> Sweep<'_, (usize, usize)> {
        Sweep::over(
            config,
            String::from("{\"kind\":\"kernel-test\"}"),
            Box::new(|_: &str| Err("no stored records".to_string())),
            Box::new(|point: usize, arm: usize, r: &(usize, usize)| format!("{point},{arm},{r:?}")),
        )
    }

    #[test]
    fn per_job_cache_carries_the_resolved_decision_threads() {
        // Every client's cache comes from the kernel, so gap and sensitivity
        // honour --decision-threads exactly like the campaign does.
        let mut config = CampaignConfig::smoke();
        config.scenarios_per_point = 3;
        config.threads = 2;
        for requested in [0, 1, 3] {
            let seen = Mutex::new(Vec::new());
            let options = ExecutorOptions::new().decision_threads(requested);
            let sweep = test_sweep(&config);
            let per_job = sweep.trials * sweep.heuristics.len();
            let stats = run(
                &sweep,
                &options,
                |_, _| {},
                |job: &Job<'_, (usize, usize)>| {
                    seen.lock().unwrap().push(job.cache().decision_threads());
                    let index = job.point * config.scenarios_per_point + job.scenario_index;
                    (0..per_job)
                        .map(|offset| {
                            job.executed();
                            (index, offset)
                        })
                        .collect()
                },
                |_, _| {},
            )
            .unwrap();
            assert_eq!(seen.into_inner().unwrap(), vec![resolve_threads(requested); 3]);
            assert_eq!(stats.eval_caches, 3);
        }
    }

    #[test]
    fn slot_rule_is_canonical_and_rejects_foreign_keys() {
        let mut config = CampaignConfig::smoke();
        config.wmin_values = vec![1, 2];
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 3;
        let mut sweep = test_sweep(&config);
        sweep.arms = 2;
        let key = Key {
            point: 1,
            params: sweep.points[1],
            scenario: 1,
            trial: 2,
            heuristic: "RANDOM".to_string(),
            arm: 1,
        };
        // point 1, scenario 1 -> job 3; trial 2; RANDOM -> 1; arm 1.
        assert_eq!(sweep.slot(&key), Some(((3 * 3 + 2) * 2 + 1) * 2 + 1));
        let foreign = [
            Key { point: 2, ..key.clone() },
            Key { params: sweep.points[0], ..key.clone() },
            Key { scenario: 2, ..key.clone() },
            Key { trial: 3, ..key.clone() },
            Key { heuristic: "IAY".to_string(), ..key.clone() },
            Key { arm: 2, ..key.clone() },
        ];
        for key in foreign {
            assert_eq!(sweep.slot(&key), None, "{key:?}");
        }
    }

    #[test]
    fn fan_out_sink_sees_jobs_in_order() {
        for threads in [1, 4, 16] {
            let mut seen = Vec::new();
            fan_out(
                37,
                threads,
                |j| j * j,
                |j, r| {
                    seen.push((j, r));
                    true
                },
            );
            assert_eq!(seen.len(), 37, "threads = {threads}");
            for (i, &(j, r)) in seen.iter().enumerate() {
                assert_eq!(i, j);
                assert_eq!(r, j * j);
            }
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_job() {
        let mut calls = 0;
        fan_out(
            0,
            8,
            |_| (),
            |_, ()| {
                calls += 1;
                true
            },
        );
        assert_eq!(calls, 0);
        fan_out(
            1,
            8,
            |j| j,
            |_, r| {
                calls += r + 1;
                true
            },
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn fan_out_sink_abort_stops_claiming_jobs() {
        for threads in [1, 4] {
            let started = AtomicUsize::new(0);
            let mut consumed = 0usize;
            fan_out(
                500,
                threads,
                |j| {
                    started.fetch_add(1, Ordering::Relaxed);
                    j
                },
                |_, _| {
                    consumed += 1;
                    consumed < 5
                },
            );
            assert_eq!(consumed, 5, "threads = {threads}");
            // No new jobs start after the abort; only jobs already claimed or
            // admitted through the gate window can have run.
            assert!(
                started.load(Ordering::Relaxed) < 5 + threads * 5 + 1,
                "threads = {threads}: {} jobs started after an abort at 5",
                started.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn fan_out_worker_panic_propagates_without_deadlock() {
        // A panicking worker leaves a hole in the job sequence; the gate must
        // be aborted (not waited on forever) and the panic must surface.
        let result = std::panic::catch_unwind(|| {
            fan_out(
                200,
                4,
                |j| {
                    if j == 3 {
                        panic!("worker 3 exploded");
                    }
                    j
                },
                |_, _| true,
            );
        });
        assert!(result.is_err(), "worker panic must propagate through fan_out");
    }

    #[test]
    fn fan_out_reorder_buffer_is_bounded_by_the_gate() {
        // Job 0 straggles while the other workers churn. Until job 0 lands,
        // the consumption frontier is stuck at 0, so the admission gate lets
        // at most `window = threads * 4` jobs start — the reorder buffer can
        // never grow toward "the whole campaign" behind one slow job.
        let threads = 4;
        let started = AtomicUsize::new(0);
        let observed_while_straggling = AtomicUsize::new(0);
        fan_out(
            300,
            threads,
            |j| {
                started.fetch_add(1, Ordering::Relaxed);
                if j == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    // Nothing was consumed yet (job 0 has not been sent), so
                    // everything started so far was admitted against
                    // consumed = 0.
                    observed_while_straggling
                        .store(started.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            },
            |_, ()| true,
        );
        let observed = observed_while_straggling.load(Ordering::Relaxed);
        assert!(observed >= 1);
        assert!(observed <= threads * 4, "{observed} jobs ran ahead of a straggling job 0");
    }
}
