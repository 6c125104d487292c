//! The campaign executor: the paper's Section VII campaign as a client of
//! the crate's sweep kernel, plus the options, counters and outcome types
//! every sweep shares.
//!
//! The kernel (the private `sweep` module, shared with [`crate::gap`] and
//! [`crate::sensitivity`]) fans a sweep's `(point, scenario)` jobs out over
//! worker threads and hands finished jobs back **in canonical order** on the
//! calling thread. [`run_campaign_with`] supplies only the campaign's record
//! codec ([`crate::store::encode_instance`] / `decode_instance`), its per-job
//! function and its reduction, which gives three properties:
//!
//! 1. **Trial-level availability reuse** — each job realizes a trial's
//!    availability once ([`RealizedTrial`](dg_availability::RealizedTrial))
//!    and replays it for every heuristic of the trial, instead of
//!    re-realizing the same seed once per heuristic (~17× redundant sojourn
//!    sampling on full campaigns). Symmetrically, each scenario job creates
//!    **one shared [`EvalCache`](dg_analysis::EvalCache)** next to its
//!    trials, so the Section V group quantities are computed once per
//!    `(scenario, member set)` instead of once per `(heuristic, trial, member
//!    set)` — the cache hit/miss counters land in [`ExecutorStats`]
//!    alongside the realization counts.
//! 2. **Deterministic results** — every finished instance lands in its
//!    canonical slot (point-major, then scenario, trial, heuristic), so
//!    [`CampaignResults`] — and its serialized form — is byte-identical
//!    regardless of the thread count.
//! 3. **Streaming aggregation** — scenarios are reduced into
//!    [`CampaignAccumulator`] cells and (with [`ExecutorOptions::store`])
//!    written to JSONL shards as each point completes; retaining the raw
//!    `Vec<InstanceResult>` is opt-in ([`ExecutorOptions::retain_raw`]), so
//!    streaming campaigns run in O(points × heuristics) memory.
//!
//! With a store attached, `resume` skips every instance already present on
//! disk and re-runs only the missing ones; because instances round-trip
//! through the store exactly, a resumed campaign finishes with results
//! byte-identical to an uninterrupted run.

use crate::campaign::{CampaignConfig, CampaignResults, InstanceResult};
use crate::distrib::WorkerShard;
use crate::json::{List, Obj, Str};
use crate::store::encode_instance;
use crate::stream::CampaignAccumulator;
use crate::suite::fingerprint_suffix;
use crate::sweep::{self, Job, Sweep};
use std::path::PathBuf;

/// The reference heuristic the paper compares everything against.
pub const DEFAULT_REFERENCE: &str = "IE";

/// Execution options orthogonal to the campaign configuration.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Retain the raw `Vec<InstanceResult>` in [`CampaignOutcome::results`].
    /// Off by default: streaming campaigns keep only the accumulator cells
    /// (and shards, when a store is attached). The table/figure code paths
    /// that consume raw results opt in.
    pub retain_raw: bool,
    /// Artifact store directory (`--out`): manifest plus one JSONL shard per
    /// experiment point, written as points complete.
    pub out: Option<PathBuf>,
    /// Resume from the store (`--resume`): skip instances already on disk.
    /// Requires [`ExecutorOptions::out`].
    pub resume: bool,
    /// Execute only this worker shard's contiguous point range
    /// (`--worker-shard I/N`) and record completion as a part manifest
    /// instead of finalizing `manifest.json`. Requires
    /// [`ExecutorOptions::out`]; the store is opened in worker mode (never
    /// cleared, never claimed).
    pub part: Option<WorkerShard>,
    /// Scoped threads inside each scheduling decision (`0` = auto-detect,
    /// resolved through [`resolve_threads`] when the per-scenario cache is
    /// built). Orthogonal to the campaign's `threads`, which parallelizes
    /// across jobs; decisions are byte-identical on every count, so this is
    /// deliberately **not** part of [`config_fingerprint`].
    pub decision_threads: usize,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            retain_raw: false,
            out: None,
            resume: false,
            part: None,
            decision_threads: 1,
        }
    }
}
impl ExecutorOptions {
    /// Streaming-only execution: no raw retention, no store.
    pub fn new() -> ExecutorOptions {
        ExecutorOptions::default()
    }

    /// Toggle raw result retention.
    pub fn retain_raw(mut self, retain: bool) -> ExecutorOptions {
        self.retain_raw = retain;
        self
    }

    /// Attach an artifact store directory, optionally resuming from it.
    pub fn store(mut self, dir: impl Into<PathBuf>, resume: bool) -> ExecutorOptions {
        self.out = Some(dir.into());
        self.resume = resume;
        self
    }

    /// Restrict execution to one worker shard's point range.
    pub fn worker_shard(mut self, shard: WorkerShard) -> ExecutorOptions {
        self.part = Some(shard);
        self
    }

    /// Set the intra-decision thread count (`0` = auto-detect).
    pub fn decision_threads(mut self, threads: usize) -> ExecutorOptions {
        self.decision_threads = threads;
        self
    }
}

/// Counters describing what one executor run actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Instances the campaign comprises (`config.total_runs()`).
    pub total_instances: usize,
    /// Instances simulated by this run.
    pub executed_instances: usize,
    /// Instances skipped because the store already held them.
    pub resumed_instances: usize,
    /// Availability realizations performed (one per trial with at least one
    /// missing instance — **not** one per instance; the difference is the
    /// work the shared [`RealizedTrial`](dg_availability::RealizedTrial)
    /// handle saves).
    pub trials_realized: usize,
    /// Shared evaluation caches created (one per scenario job with at least
    /// one missing instance — **not** one per instance; all heuristics and
    /// trials of the scenario evaluate through it).
    pub eval_caches: usize,
    /// Section V group sets computed across all scenario caches (cache
    /// misses). With sharing this is once per `(scenario, member set)`; the
    /// per-instance path would pay it once per `(heuristic, trial, member
    /// set)`.
    pub group_sets_computed: usize,
    /// Group-quantity lookups served from a shared cache (cache hits).
    pub group_cache_hits: usize,
}

impl ExecutorStats {
    /// Human-readable summary of the shared-evaluation-cache counters, in the
    /// style of the realization counts (the `eval cache:` line the binaries
    /// print and CI greps).
    pub fn eval_cache_summary(&self) -> String {
        let lookups = self.group_sets_computed + self.group_cache_hits;
        let hit_rate =
            if lookups == 0 { 0.0 } else { 100.0 * self.group_cache_hits as f64 / lookups as f64 };
        format!(
            "eval cache: {} group sets computed across {} scenario caches, {} hits ({:.1}% hit rate)",
            self.group_sets_computed, self.eval_caches, self.group_cache_hits, hit_rate
        )
    }
}

/// Everything a campaign run produces.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign results; `results.results` is empty unless
    /// [`ExecutorOptions::retain_raw`] was set.
    pub results: CampaignResults,
    /// Streaming per-`(point, heuristic)` reduction of every instance.
    pub streaming: CampaignAccumulator,
    /// Execution counters.
    pub stats: ExecutorStats,
}

/// Resolve a requested thread count: `0` means "auto-detect available
/// parallelism" (the `--threads 0` CLI contract), anything else is literal.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    }
}

/// The canonical JSON fingerprint of everything in a [`CampaignConfig`] that
/// determines results. `threads` is excluded (results are proven
/// thread-count-independent) and so is `engine` (both engines produce
/// identical outcomes), so a store can be resumed with a different thread
/// count or engine. For the default `paper` suite the fingerprint is
/// byte-identical to the pre-suite format (old stores keep resuming); any
/// other suite appends its name and canonical generator-model spec, so two
/// suites can never share a store.
pub fn config_fingerprint(config: &CampaignConfig) -> String {
    fingerprint("campaign", config)
}

/// The fingerprint of a sweep of `kind` over `config`'s space: the `kind`
/// keeps a gap store from ever resuming as a campaign store, or vice versa.
pub(crate) fn fingerprint(kind: &str, config: &CampaignConfig) -> String {
    let names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();
    let fields = Obj::new()
        .field("kind", Str(kind))
        .field("m", List(&config.m_values))
        .field("ncom", List(&config.ncom_values))
        .field("wmin", List(&config.wmin_values))
        .field("workers", config.num_workers)
        .field("iterations", config.iterations)
        .field("scenarios", config.scenarios_per_point)
        .field("trials", config.trials_per_scenario)
        .field("cap", config.max_slots)
        .field("heuristics", List(names.iter().map(|name| Str(name))))
        .field("seed", config.base_seed)
        .field("epsilon", format_args!("{:?}", config.epsilon));
    fingerprint_suffix(fields, &config.suite, &config.model).end()
}

/// Run a campaign under `options`.
///
/// Jobs (one per `(point, scenario)` pair) are distributed over
/// `resolve_threads(config.threads)` worker threads; `on_progress` is called
/// with `(completed_runs, total_runs)` — once up-front covering every resumed
/// instance, then after every executed instance — and the reported `done`
/// counts are strictly increasing regardless of thread interleaving. Fails
/// on store I/O or configuration-mismatch errors, and on a run count past
/// `usize::MAX` ([`crate::campaign::run_count`]), which is a store-less
/// campaign's only error.
pub fn run_campaign_with<F>(
    config: &CampaignConfig,
    options: &ExecutorOptions,
    on_progress: F,
) -> Result<CampaignOutcome, String>
where
    F: Fn(usize, usize) + Sync,
{
    let tag = config.suite_tag();
    let sweep = Sweep::over(
        config,
        config_fingerprint(config),
        // Model-tagged records belong to sensitivity stores.
        sweep::instance_decoder(tag, |model| model.is_none().then_some(0)),
        Box::new(move |point, _, r| encode_instance(point, tag, None, r)),
    );
    let mut streaming = CampaignAccumulator::new(config, DEFAULT_REFERENCE);
    // Retained results grow with the campaign instead of being sized by it.
    let mut raw: Vec<InstanceResult> = Vec::new();
    // Each trial is realized once per the scenario's trial model (Markov
    // chains for the paper suite, matched semi-Markov traces otherwise),
    // capped at the slot horizon, and replayed for every heuristic.
    let job = |job: &Job<'_, InstanceResult>| {
        job.instances(&config.heuristics, config.max_slots, config.engine, |s, _, seed| {
            s.realize_trial(seed, config.max_slots)
        })
    };
    let stats = sweep::run(&sweep, options, on_progress, job, |point, block| {
        streaming.consume_scenario(point, &block);
        if options.retain_raw {
            raw.extend(block);
        }
    })?;
    Ok(CampaignOutcome {
        results: CampaignResults { config: config.clone(), results: raw },
        streaming,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::runner::InstanceSpec;
    use crate::store::{decode_instance, shard_name, CampaignStore, MANIFEST_NAME};
    use crate::sweep::scenario_seed;
    use crate::tables::{render_table, table_comparison};
    use dg_platform::Scenario;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dg-executor-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Canonical serialization of retained campaign results.
    fn serialize(results: &CampaignResults, scenarios: usize, trials: usize, h: usize) -> String {
        let per_point = scenarios * trials * h;
        results
            .results
            .iter()
            .enumerate()
            .map(|(i, r)| encode_instance(i / per_point, None, None, r))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// 4 experiment points x 2 scenarios x 2 trials x 2 heuristics.
    fn test_config() -> CampaignConfig {
        let mut config = CampaignConfig::smoke();
        config.ncom_values = vec![5, 10];
        config.wmin_values = vec![1, 2];
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        config
    }

    #[test]
    fn results_are_byte_identical_across_thread_counts() {
        // The satellite guarantee: serialized campaign results are
        // byte-identical for threads = 1 and threads = 8 — ordering is
        // canonical, not thread-timing-dependent.
        let mut config = test_config();
        let h = config.heuristics.len();
        config.threads = 1;
        let sequential = run_campaign(&config, |_, _| {});
        config.threads = 8;
        let parallel = run_campaign(&config, |_, _| {});
        assert_eq!(sequential.results, parallel.results);
        assert_eq!(
            serialize(&sequential, 2, 2, h),
            serialize(&parallel, 2, 2, h),
            "serialized results differ between thread counts"
        );
    }

    #[test]
    fn shared_trials_realize_once_per_trial_not_per_instance() {
        let config = test_config();
        let outcome = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        let trials = config.points().len() * 2 * 2; // points x scenarios x trials
        assert_eq!(outcome.stats.trials_realized, trials);
        assert_eq!(outcome.stats.executed_instances, config.total_runs());
        // 2 heuristics per trial: half the realizations of the per-instance path.
        assert_eq!(outcome.stats.executed_instances, trials * 2);
        // Exactly one shared evaluation cache per scenario job, with the
        // group tables reused across the job's heuristics and trials.
        assert_eq!(outcome.stats.eval_caches, config.points().len() * 2);
        assert!(outcome.stats.group_sets_computed > 0);
        assert!(outcome.stats.group_cache_hits > outcome.stats.group_sets_computed);
        let summary = outcome.stats.eval_cache_summary();
        assert!(summary.contains("group sets computed"), "{summary}");
        // Streaming-only run retains nothing raw.
        assert!(outcome.results.results.is_empty());
        assert_eq!(outcome.streaming.scenarios_consumed(), config.points().len() * 2);
    }

    #[test]
    fn eval_cache_stats_are_thread_count_independent() {
        // The cache counters aggregate per-scenario caches, so they must be
        // a pure function of the campaign — not of thread interleaving.
        let mut config = test_config();
        config.threads = 1;
        let sequential = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        config.threads = 8;
        let parallel = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        assert_eq!(sequential.stats, parallel.stats);
        assert!(sequential.stats.group_sets_computed > 0);
    }

    #[test]
    fn executor_matches_legacy_per_instance_results() {
        // The refactor must not change a single outcome: the executor's
        // results — produced with one shared availability realization per
        // trial AND one shared EvalCache per scenario job — equal
        // per-instance `run_instance` runs, which realize their own trial and
        // build a fresh cache each.
        use crate::runner::run_instance;
        let config = test_config();
        let results = run_campaign(&config, |_, _| {});
        let points = config.points();
        for (i, r) in results.results.iter().enumerate() {
            let h = config.heuristics.len();
            let per_scenario = config.trials_per_scenario * h;
            let per_point = config.scenarios_per_point * per_scenario;
            let point_index = i / per_point;
            let scenario = Scenario::generate(
                points[point_index],
                scenario_seed(config.base_seed, point_index, r.scenario_index),
            );
            let spec = InstanceSpec {
                scenario_index: r.scenario_index,
                trial_index: r.trial_index,
                heuristic: config.heuristics[i % h],
            };
            let (fresh, ..) = run_instance(
                &scenario,
                &spec,
                config.base_seed,
                config.max_slots,
                config.epsilon,
                config.engine,
            );
            assert_eq!(fresh, r.outcome, "instance {i} diverged");
        }
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let mut config = CampaignConfig::smoke();
        config.threads = 0; // must not panic or hang
        let auto = run_campaign(&config, |_, _| {});
        config.threads = 1;
        assert_eq!(auto.results, run_campaign(&config, |_, _| {}).results);
    }

    #[test]
    fn store_writes_manifest_and_canonical_shards() {
        let dir = temp_dir("shards");
        let config = test_config();
        let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
        let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        assert!(dir.join(MANIFEST_NAME).is_file());
        // Shards hold exactly the retained results, in canonical order.
        let mut from_shards = Vec::new();
        for p in 0..config.points().len() {
            let text = fs::read_to_string(dir.join(shard_name(p))).unwrap();
            for line in text.lines() {
                let record = decode_instance(line).unwrap();
                assert_eq!(record.point_index, p);
                from_shards.push(record.result);
            }
        }
        assert_eq!(from_shards, outcome.results.results);
        // And they are byte-identical to an 8-thread run's shards.
        let eight = temp_dir("shards8");
        let mut config8 = config.clone();
        config8.threads = 8;
        run_campaign_with(&config8, &ExecutorOptions::new().store(&eight, false), |_, _| {})
            .unwrap();
        for p in 0..config.points().len() {
            assert_eq!(
                fs::read(dir.join(shard_name(p))).unwrap(),
                fs::read(eight.join(shard_name(p))).unwrap(),
                "shard {p} differs between thread counts"
            );
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&eight);
    }

    #[test]
    fn worker_shards_merge_to_a_byte_identical_store() {
        use crate::distrib::{merge_parts, WorkerShard};
        use crate::store::part_manifest_name;
        let single = temp_dir("single");
        let config = test_config();
        run_campaign_with(&config, &ExecutorOptions::new().store(&single, false), |_, _| {})
            .unwrap();

        // Simulate a 3-worker split in-process: coordinator claims the shared
        // directory, each "worker" executes its shard range into it.
        let shared = temp_dir("sharded");
        let fingerprint = config_fingerprint(&config);
        let store = CampaignStore::open(&shared, fingerprint, false).unwrap();
        let num_points = config.points().len();
        let h = config.heuristics.len();
        for index in 1..=3 {
            let shard = WorkerShard::new(index, 3).unwrap();
            let options = ExecutorOptions::new().store(&shared, false).worker_shard(shard);
            let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
            assert_eq!(
                outcome.stats.total_instances,
                shard.points(num_points).len() * 2 * 2 * h,
                "worker {index} executed outside its range"
            );
            assert!(shared.join(part_manifest_name(index)).is_file());
            assert!(!store.is_complete().unwrap(), "a worker must not finalize the manifest");
        }
        let report = merge_parts(&store, 3, num_points).unwrap();
        assert_eq!(report.points, num_points);
        assert_eq!(
            fs::read(shared.join(MANIFEST_NAME)).unwrap(),
            fs::read(single.join(MANIFEST_NAME)).unwrap(),
            "merged manifest differs from the single-process manifest"
        );
        for p in 0..num_points {
            assert_eq!(
                fs::read(shared.join(shard_name(p))).unwrap(),
                fs::read(single.join(shard_name(p))).unwrap(),
                "shard {p} differs between the 3-worker split and the single-process run"
            );
        }
        // The merged store resumes like any single-process store.
        let resumed =
            run_campaign_with(&config, &ExecutorOptions::new().store(&shared, true), |_, _| {})
                .unwrap();
        assert_eq!(resumed.stats.executed_instances, 0);
        assert_eq!(resumed.stats.resumed_instances, config.total_runs());
        let _ = fs::remove_dir_all(&single);
        let _ = fs::remove_dir_all(&shared);
    }

    #[test]
    fn worker_shard_without_out_dir_errors() {
        use crate::distrib::WorkerShard;
        let config = CampaignConfig::smoke();
        let options = ExecutorOptions::new().worker_shard(WorkerShard::new(1, 2).unwrap());
        let err = run_campaign_with(&config, &options, |_, _| {}).unwrap_err();
        assert!(err.contains("--worker-shard needs --out"), "{err}");
    }

    fn table_of(results: &CampaignResults) -> String {
        let refs: Vec<_> = results.results.iter().collect();
        let names: Vec<String> = results.config.heuristics.iter().map(|h| h.name()).collect();
        render_table("T", &table_comparison(&refs, "IE", &names))
    }

    fn truncate_shard(dir: &Path, point: usize, keep_lines: usize, cut_bytes: usize) {
        let path = dir.join(shard_name(point));
        let text = fs::read_to_string(&path).unwrap();
        let mut kept: String = text.lines().take(keep_lines).map(|l| format!("{l}\n")).collect();
        if let Some(partial) = text.lines().nth(keep_lines) {
            kept.push_str(&partial[..partial.len().min(cut_bytes)]);
        }
        fs::write(&path, kept).unwrap();
    }

    #[test]
    fn resume_after_mid_campaign_kill_matches_uninterrupted_run() {
        // The satellite resume test: complete a campaign, simulate a kill by
        // truncating one shard mid-line and deleting another, then re-run
        // with resume. Results, tables, the manifest and every shard must be
        // byte-identical to the uninterrupted run.
        let dir = temp_dir("resume");
        let config = test_config();
        let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
        let uninterrupted = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        let manifest_before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let shards_before: Vec<Vec<u8>> = (0..config.points().len())
            .map(|p| fs::read(dir.join(shard_name(p))).unwrap())
            .collect();

        // Simulate the kill: shard 1 survives truncated mid-line, shard 2 is
        // lost entirely, and the manifest still says incomplete (finalize
        // never ran).
        truncate_shard(&dir, 1, 3, 25);
        fs::remove_file(dir.join(shard_name(2))).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                config_fingerprint(&config)
            ),
        )
        .unwrap();
        let store = CampaignStore::open(&dir, config_fingerprint(&config), true).unwrap();
        assert!(!store.is_complete().unwrap());

        let resume_options = ExecutorOptions::new().retain_raw(true).store(&dir, true);
        let resumed = run_campaign_with(&config, &resume_options, |_, _| {}).unwrap();
        assert_eq!(resumed.results, uninterrupted.results);
        assert_eq!(table_of(&resumed.results), table_of(&uninterrupted.results));
        // Only the missing instances re-ran: shard 1 kept 3 of its 8
        // instances, shard 2 lost all 8; shards 0 and 3 were intact.
        assert_eq!(resumed.stats.resumed_instances, 2 * 8 + 3);
        assert_eq!(resumed.stats.executed_instances, 8 + 5);
        assert!(resumed.stats.trials_realized < config.points().len() * 2 * 2);
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), manifest_before);
        for (p, before) in shards_before.iter().enumerate() {
            assert_eq!(&fs::read(dir.join(shard_name(p))).unwrap(), before, "shard {p}");
        }

        // Resuming a complete store re-runs nothing.
        let resumed_again = run_campaign_with(&config, &resume_options, |_, _| {}).unwrap();
        assert_eq!(resumed_again.stats.executed_instances, 0);
        assert_eq!(resumed_again.stats.trials_realized, 0);
        assert_eq!(resumed_again.results, uninterrupted.results);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_mismatched_config_is_rejected() {
        let dir = temp_dir("reject");
        let config = test_config();
        run_campaign_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();
        let mut other = config.clone();
        other.base_seed ^= 1;
        let err = run_campaign_with(&other, &ExecutorOptions::new().store(&dir, true), |_, _| {})
            .unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        // Thread count and engine are not part of the identity.
        let mut threaded = config.clone();
        threaded.threads = 8;
        threaded.engine = dg_sim::SimMode::SlotStepped;
        assert!(run_campaign_with(&threaded, &ExecutorOptions::new().store(&dir, true), |_, _| {})
            .is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_out_dir_errors() {
        let config = CampaignConfig::smoke();
        let mut options = ExecutorOptions::new();
        options.resume = true;
        assert!(run_campaign_with(&config, &options, |_, _| {}).is_err());
    }

    #[test]
    fn progress_covers_resumed_instances() {
        let total = test_config().total_runs();
        let assert_monotonic = |seen: &[(usize, usize)]| {
            assert!(!seen.is_empty());
            assert!(seen.iter().all(|&(_, t)| t == total));
            // The bugfix pin: (done, total) callbacks are strictly increasing
            // — resumed instances are pre-seeded from the store, never
            // interleaved with executed counts in thread order.
            for pair in seen.windows(2) {
                assert!(pair[0].0 < pair[1].0, "non-monotonic progress: {pair:?}");
            }
            assert_eq!(seen.last().unwrap().0, total, "progress must end at total");
        };

        let dir = temp_dir("progress");
        let mut config = test_config();
        config.threads = 4; // exercise the cross-thread publication order
        run_campaign_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();

        // Fully resumed: everything is covered by one up-front report.
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_campaign_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, vec![(total, total)]);
        assert_eq!(outcome.stats.resumed_instances, total);

        // Partially resumed: the pre-seed covers the stored instances, the
        // re-executed remainder reports on top, still monotonically.
        truncate_shard(&dir, 1, 3, 0);
        fs::remove_file(dir.join(shard_name(2))).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                config_fingerprint(&config)
            ),
        )
        .unwrap();
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_campaign_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_monotonic(&seen);
        assert_eq!(seen[0].0, outcome.stats.resumed_instances);
        assert!(outcome.stats.executed_instances > 0);

        // A fresh run (nothing to pre-seed) is monotonic too.
        let seen = Mutex::new(Vec::new());
        run_campaign_with(&config, &ExecutorOptions::new(), |done, total| {
            seen.lock().unwrap().push((done, total))
        })
        .unwrap();
        assert_monotonic(&seen.into_inner().unwrap());
        let _ = fs::remove_dir_all(&dir);

        // The gap sweep keeps the same contract on 4 threads.
        use crate::gap::{gap_fingerprint, run_gap_with};
        let dir = temp_dir("gap-progress");
        run_gap_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_gap_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        assert_eq!(seen.into_inner().unwrap(), vec![(total, total)]);
        assert_eq!(outcome.stats.resumed_instances, total);
        truncate_shard(&dir, 1, 3, 0);
        fs::remove_file(dir.join(shard_name(2))).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                gap_fingerprint(&config)
            ),
        )
        .unwrap();
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_gap_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_monotonic(&seen);
        assert_eq!(seen[0].0, outcome.stats.resumed_instances);
        assert!(outcome.stats.executed_instances > 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
