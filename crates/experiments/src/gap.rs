//! Optimality-gap layer: online heuristics vs the offline oracle.
//!
//! The paper proves OFF-LINE-COUPLED NP-hard (Section IV) but never measures
//! how far its online heuristics sit from the offline optimum. This module
//! closes that loop: every realized trial of a campaign is **projected** onto
//! the paper's offline assumptions — availability known in advance,
//! communication free (`Tprog = Tdata = 0`), homogeneous speeds (`w = min_q
//! w_q`) — and handed to the `dg-offline` makespan oracles
//! ([`dg_offline::schedule_exact`] up to [`EXACT_M_MAX`] tasks,
//! [`dg_offline::schedule_greedy`] beyond). Every relaxation in the
//! projection only helps the offline schedule, and the `µ = ∞` oracle admits
//! any enrollment size `k ≤ m`, so the **exact** oracle is a provable lower
//! bound on what any online heuristic can achieve on that very availability
//! realization: the per-heuristic ratio `online / bound` is a true
//! optimality gap, never below 1. The greedy oracle merely returns a feasible
//! offline schedule (an upper bound on the optimum), so at large `m` the
//! reported ratios are indicative, not bounds.
//!
//! A run that fails at the slot cap still yields a comparison when it
//! completed `c ≥ 1` iterations: its numerator is the slot after its last
//! completion, compared against the oracle's makespan for the same `c`
//! iterations. Runs with no completed iteration have no numerator and are
//! counted separately.
//!
//! [`run_gap_with`] is a client of the same sweep kernel as the campaigns
//! (canonical `(point, scenario)` jobs, shared trial realizations and eval
//! caches, resumable suite-tagged JSONL shards): it supplies only the gap
//! record codec, the per-job oracle bridge and the per-heuristic reduction;
//! [`render_gap_table`] prints the per-heuristic summary the `gap` binary
//! emits.

use crate::campaign::CampaignConfig;
use crate::executor::ExecutorOptions;
use crate::json::{Obj, Opt, Record, Str, Value};
use crate::runner::{run_instance_logged, InstanceSpec};
use crate::sweep::{self, Job, Key, Sweep};
use dg_availability::AvailabilityModel;
use dg_offline::{earliest_finish_exact, earliest_finish_greedy, OfflineInstance, OracleVariant};
use dg_platform::{Scenario, ScenarioParams};
use dg_sim::SimOutcome;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest `m` (tasks per iteration) the exact oracle is used for; beyond it
/// the subset search over `C(p, k)` enrollments stops being practical and the
/// greedy oracle takes over.
pub const EXACT_M_MAX: usize = 10;

/// One `(scenario, trial, heuristic)` gap comparison, as stored in shards.
///
/// Unlike campaign records, gap records always carry their suite tag
/// (including `"paper"`): the gap store format is new, so there is no legacy
/// byte format to preserve, and an explicit tag keeps resume checks uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRecord {
    /// Index of the experiment point within the campaign's point list.
    pub point_index: usize,
    /// Suite the scenario was generated under.
    pub suite: String,
    /// The experiment point's parameters.
    pub params: ScenarioParams,
    /// Index of the scenario within its point.
    pub scenario_index: usize,
    /// Index of the trial within the scenario.
    pub trial_index: usize,
    /// Heuristic name.
    pub heuristic: String,
    /// Iterations the online run completed.
    pub completed: u64,
    /// Iterations the application required.
    pub target: u64,
    /// Online slots compared against the bound: the makespan on success, the
    /// slot after the last completed iteration on a capped run, `None` when
    /// no iteration completed.
    pub online: Option<u64>,
    /// Offline oracle slots for the same number of completed iterations
    /// (`None` when the online run completed nothing, or when the greedy
    /// oracle found no schedule within the projected horizon).
    pub bound: Option<u64>,
    /// Which oracle produced the bound: `"exact"` or `"greedy"`.
    pub method: String,
}

impl GapRecord {
    /// `online / bound`, when both sides exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.online, self.bound) {
            (Some(online), Some(bound)) if bound > 0 => Some(online as f64 / bound as f64),
            _ => None,
        }
    }
}

/// Encode a gap record as a single JSONL line (no trailing newline), in the
/// store conventions: fixed key order, integers, escaped strings, `null`.
pub fn encode_gap_record(r: &GapRecord) -> String {
    let p = &r.params;
    Obj::new()
        .field("point", r.point_index)
        .field("suite", Str(&r.suite))
        .field("workers", p.num_workers)
        .field("m", p.tasks_per_iteration)
        .field("ncom", p.ncom)
        .field("wmin", p.wmin)
        .field("iterations", p.iterations)
        .field("scenario", r.scenario_index)
        .field("trial", r.trial_index)
        .field("heuristic", Str(&r.heuristic))
        .field("completed", r.completed)
        .field("target", r.target)
        .field("online", Opt(r.online))
        .field("bound", Opt(r.bound))
        .field("method", Str(&r.method))
        .end()
}

/// Decode a line produced by [`encode_gap_record`]; malformed input
/// (including a truncated trailing line) is an `Err`.
pub fn decode_gap_record(line: &str) -> Result<GapRecord, String> {
    let mut fields = Record::new(line)?;
    // Struct fields are evaluated in the order written: the record's order.
    let record = GapRecord {
        point_index: fields.take("point", Value::num)?,
        suite: fields.take("suite", Value::string)?,
        params: ScenarioParams {
            num_workers: fields.take("workers", Value::num)?,
            tasks_per_iteration: fields.take("m", Value::num)?,
            ncom: fields.take("ncom", Value::num)?,
            wmin: fields.take("wmin", Value::num)?,
            iterations: fields.take("iterations", Value::num)?,
        },
        scenario_index: fields.take("scenario", Value::num)?,
        trial_index: fields.take("trial", Value::num)?,
        heuristic: fields.take("heuristic", Value::string)?,
        completed: fields.take("completed", Value::num)?,
        target: fields.take("target", Value::num)?,
        online: fields.take("online", Value::nullable)?,
        bound: fields.take("bound", Value::nullable)?,
        method: fields.take("method", Value::string)?,
    };
    fields.finish()?;
    Ok(record)
}

/// The canonical fingerprint of a gap sweep. Same identity rules as the
/// campaign fingerprint (`threads` and `engine` excluded), but under
/// `"kind":"gap"` so a gap store can never be resumed as a campaign store or
/// vice versa.
pub fn gap_fingerprint(config: &CampaignConfig) -> String {
    crate::executor::fingerprint("gap", config)
}

/// Project a realized trial onto the paper's offline assumptions: known
/// availability over `0..horizon` (`UP` only — `RECLAIMED` and `DOWN` both
/// count as unavailable), homogeneous per-task work `w = min_q w_q`, and the
/// scenario's `m` tasks per iteration. Every difference from the online
/// model (free communication, the fastest speed for everyone, full
/// lookahead) favors the offline schedule, which is what makes the exact
/// oracle's makespan a valid lower bound.
///
/// # Panics
/// Panics if `horizon` is zero (project only trials with at least one
/// comparable online run).
pub fn project_trial<A: AvailabilityModel>(
    scenario: &Scenario,
    availability: &mut A,
    horizon: u64,
) -> OfflineInstance {
    let w = scenario
        .platform
        .workers()
        .iter()
        .map(|worker| worker.speed)
        .min()
        .expect("platforms have at least one worker");
    OfflineInstance::new(availability.up_matrix(horizon), w, scenario.params.tasks_per_iteration)
}

/// Online slots comparable to an offline bound: the makespan of a successful
/// run, the slot after the last completed iteration of a capped run, `None`
/// when nothing completed. `completions` are the run's per-iteration
/// completion slots (see [`dg_sim::EventLog::iteration_completions`]).
pub fn online_slots(outcome: &SimOutcome, completions: &[u64]) -> Option<u64> {
    if outcome.completed_iterations == 0 {
        return None;
    }
    outcome.makespan.or_else(|| completions.last().map(|&t| t + 1))
}

/// Chained oracle makespans on `instance`: entry `i` is the oracle's
/// makespan for completing `i + 1` iterations. Stops early (returning a
/// shorter vector) once no further iteration fits in the horizon — with the
/// exact oracle that only happens when no online run reached that count
/// either.
pub fn oracle_bounds(instance: &OfflineInstance, iterations: u64, exact: bool) -> Vec<u64> {
    let mut bounds = Vec::with_capacity(iterations as usize);
    let mut from = 0usize;
    for _ in 0..iterations {
        let sol = if exact {
            earliest_finish_exact(instance, from, OracleVariant::MuUnbounded)
        } else {
            earliest_finish_greedy(instance, from, OracleVariant::MuUnbounded)
        };
        match sol {
            Some(sol) => {
                from = sol.finish_time() as usize;
                bounds.push(sol.finish_time());
            }
            None => break,
        }
    }
    bounds
}

/// Counters describing what one gap sweep actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GapStats {
    /// Comparisons the sweep comprises (`config.total_runs()`).
    pub total_instances: usize,
    /// Online runs simulated by this sweep.
    pub executed_instances: usize,
    /// Comparisons resumed from the store.
    pub resumed_instances: usize,
    /// Availability realizations performed (one per trial with missing work).
    pub trials_realized: usize,
    /// Trials projected onto an offline instance (trials where at least one
    /// fresh online run completed an iteration).
    pub trials_projected: usize,
    /// Projected trials bounded by the exact oracle (`m <=` [`EXACT_M_MAX`]).
    pub exact_trials: usize,
    /// Projected trials bounded by the greedy oracle.
    pub greedy_trials: usize,
}

impl GapStats {
    /// Human-readable oracle counters, in the style of
    /// [`crate::executor::ExecutorStats::eval_cache_summary`].
    pub fn oracle_summary(&self) -> String {
        format!(
            "offline oracle: {} trials projected ({} exact, {} greedy) across {} realized",
            self.trials_projected, self.exact_trials, self.greedy_trials, self.trials_realized
        )
    }
}

/// Streaming per-heuristic reduction of the gap records.
#[derive(Debug, Clone)]
pub struct GapAggregate {
    /// Heuristic name.
    pub heuristic: String,
    /// Comparisons consumed.
    pub runs: usize,
    /// Comparisons with both an online numerator and an offline bound.
    pub comparable: usize,
    /// Sum of `online / bound` over comparable runs.
    pub sum_ratio: f64,
    /// Smallest ratio seen.
    pub min_ratio: f64,
    /// Largest ratio seen.
    pub max_ratio: f64,
    /// Runs with no completed iteration (no numerator).
    pub incomplete: usize,
    /// Runs with a numerator but no bound (the greedy oracle ran dry).
    pub unbounded: usize,
}

impl GapAggregate {
    fn new(heuristic: String) -> GapAggregate {
        GapAggregate {
            heuristic,
            runs: 0,
            comparable: 0,
            sum_ratio: 0.0,
            min_ratio: f64::INFINITY,
            max_ratio: f64::NEG_INFINITY,
            incomplete: 0,
            unbounded: 0,
        }
    }

    fn consume(&mut self, record: &GapRecord) {
        self.runs += 1;
        match record.ratio() {
            Some(ratio) => {
                self.comparable += 1;
                self.sum_ratio += ratio;
                self.min_ratio = self.min_ratio.min(ratio);
                self.max_ratio = self.max_ratio.max(ratio);
            }
            None if record.online.is_none() => self.incomplete += 1,
            None => self.unbounded += 1,
        }
    }

    /// Mean ratio over comparable runs (`None` when there are none).
    pub fn mean_ratio(&self) -> Option<f64> {
        (self.comparable > 0).then(|| self.sum_ratio / self.comparable as f64)
    }
}

/// Everything a gap sweep produces.
#[derive(Debug, Clone)]
pub struct GapOutcome {
    /// All gap records in canonical order (empty unless
    /// [`crate::executor::ExecutorOptions::retain_raw`] was set).
    pub records: Vec<GapRecord>,
    /// Per-heuristic reduction, in the configuration's heuristic order.
    pub aggregates: Vec<GapAggregate>,
    /// Execution counters.
    pub stats: GapStats,
}

/// Run an optimality-gap sweep over `config`'s experiment space under
/// `options` (same contract as [`crate::executor::run_campaign_with`]:
/// `(point, scenario)` jobs fan out over `config.threads` workers, results
/// aggregate in canonical order, a store makes the sweep resumable, and
/// `on_progress` reports resumed comparisons once, then every executed one).
///
/// Per trial, every heuristic's online run executes on a shared availability
/// realization; the realized trial is then projected once onto an
/// [`OfflineInstance`] over the horizon `H = max` online numerator of the
/// trial, and one chained oracle pass bounds every heuristic at its own
/// completed-iteration count. Trials whose every online run completed
/// nothing are not projected at all.
pub fn run_gap_with<F>(
    config: &CampaignConfig,
    options: &ExecutorOptions,
    on_progress: F,
) -> Result<GapOutcome, String>
where
    F: Fn(usize, usize) + Sync,
{
    let sweep = Sweep::over(
        config,
        gap_fingerprint(config),
        Box::new(|line: &str| {
            let r = decode_gap_record(line)?;
            let (point, params, scenario, trial) =
                (r.point_index, r.params, r.scenario_index, r.trial_index);
            let key =
                Key { point, params, scenario, trial, heuristic: r.heuristic.clone(), arm: 0 };
            Ok((r.suite == config.suite).then_some((key, r)))
        }),
        Box::new(|_, _, r| encode_gap_record(r)),
    );
    let (exact_trials, greedy_trials) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let job = |job: &Job<'_, GapRecord>| {
        let exact = job.params.tasks_per_iteration <= EXACT_M_MAX;
        let mut block = Vec::with_capacity(config.trials_per_scenario * config.heuristics.len());
        for trial_index in 0..config.trials_per_scenario {
            let trial =
                job.realize(trial_index, 0, |s, seed| s.realize_trial(seed, config.max_slots));
            // First pass: run every missing heuristic on the shared
            // realization and collect each comparison's online numerator.
            // Resumed records contribute their stored numerator, so the
            // projection horizon below is identical whether a record was
            // simulated now or read back from the store.
            let heuristics = config.heuristics.iter().enumerate();
            let runs: Vec<(Option<u64>, Option<SimOutcome>)> = heuristics
                .map(|(i, heuristic)| {
                    if let Some(record) = job.stored(trial_index, i, 0) {
                        return (record.online, None);
                    }
                    let trial = trial.as_ref().expect("trial realized for a missing instance");
                    let scenario_index = job.scenario_index;
                    let spec = InstanceSpec { scenario_index, trial_index, heuristic: *heuristic };
                    let (outcome, log) = run_instance_logged(
                        job.scenario(),
                        &spec,
                        trial.replay(),
                        job.cache(),
                        config.base_seed,
                        config.max_slots,
                        config.engine,
                    );
                    job.executed();
                    (online_slots(&outcome, &log.iteration_completions()), Some(outcome))
                })
                .collect();
            // Project once per trial, over the horizon of the trial's
            // largest numerator, and chain the oracle up to the largest
            // fresh completed count (resumed records keep their bounds).
            let horizon = runs.iter().filter_map(|run| run.0).max().unwrap_or(0);
            let fresh = runs.iter().filter_map(|run| run.1.as_ref());
            let max_count = fresh.map(|outcome| outcome.completed_iterations).max().unwrap_or(0);
            let bounds = if horizon > 0 && max_count > 0 {
                let trial = trial.as_ref().expect("trial realized for fresh runs");
                if exact { &exact_trials } else { &greedy_trials }.fetch_add(1, Ordering::Relaxed);
                let instance = project_trial(job.scenario(), &mut trial.replay(), horizon);
                oracle_bounds(&instance, max_count, exact)
            } else {
                Vec::new()
            };
            block.extend(runs.into_iter().enumerate().map(|(i, (online, fresh))| {
                match fresh {
                    None => job.stored(trial_index, i, 0).expect("resumed record").clone(),
                    Some(outcome) => GapRecord {
                        point_index: job.point,
                        suite: config.suite.clone(),
                        params: job.params,
                        scenario_index: job.scenario_index,
                        trial_index,
                        heuristic: sweep.heuristics[i].clone(),
                        completed: outcome.completed_iterations,
                        target: outcome.target_iterations,
                        online,
                        bound: (outcome.completed_iterations.checked_sub(1))
                            .and_then(|c| bounds.get(c as usize).copied()),
                        method: if exact { "exact" } else { "greedy" }.to_string(),
                    },
                }
            }));
        }
        block
    };

    let mut aggregates: Vec<GapAggregate> =
        sweep.heuristics.iter().map(|name| GapAggregate::new(name.clone())).collect();
    let mut raw: Vec<GapRecord> = Vec::new();
    let stats = sweep::run(&sweep, options, on_progress, job, |_, block| {
        for (offset, record) in block.iter().enumerate() {
            aggregates[offset % config.heuristics.len()].consume(record);
        }
        if options.retain_raw {
            raw.extend(block);
        }
    })?;
    Ok(GapOutcome {
        records: raw,
        aggregates,
        stats: GapStats {
            total_instances: stats.total_instances,
            executed_instances: stats.executed_instances,
            resumed_instances: stats.resumed_instances,
            trials_realized: stats.trials_realized,
            trials_projected: exact_trials.load(Ordering::Relaxed)
                + greedy_trials.load(Ordering::Relaxed),
            exact_trials: exact_trials.into_inner(),
            greedy_trials: greedy_trials.into_inner(),
        },
    })
}

/// Render the per-heuristic gap table.
///
/// `#runs` counts all comparisons, `#cmp` the ones with both sides of the
/// ratio; `mean`/`min`/`max` summarize `online / bound` over those (dashes
/// when there are none). `inc` counts runs with no completed iteration,
/// `n/b` runs the greedy oracle could not bound. With the exact oracle every
/// ratio is `>= 1.000` by construction; a greedy-bounded ratio may dip below
/// 1 because the greedy schedule is only an upper bound on the optimum.
pub fn render_gap_table(title: &str, aggregates: &[GapAggregate]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6}",
        "Heuristic", "#runs", "#cmp", "mean", "min", "max", "inc", "n/b"
    );
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for agg in aggregates {
        let fmt = |v: f64| format!("{v:.3}");
        let (mean, min, max) = match agg.mean_ratio() {
            Some(mean) => (fmt(mean), fmt(agg.min_ratio), fmt(agg.max_ratio)),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6}",
            agg.heuristic, agg.runs, agg.comparable, mean, min, max, agg.incomplete, agg.unbounded
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorOptions;
    use dg_availability::ScriptedAvailability;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dg-gap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record(online: Option<u64>, bound: Option<u64>) -> GapRecord {
        GapRecord {
            point_index: 4,
            suite: "paper".to_string(),
            params: ScenarioParams {
                num_workers: 20,
                tasks_per_iteration: 5,
                ncom: 10,
                wmin: 3,
                iterations: 10,
            },
            scenario_index: 1,
            trial_index: 2,
            heuristic: "Y-IE".to_string(),
            completed: 10,
            target: 10,
            online,
            bound,
            method: "exact".to_string(),
        }
    }

    #[test]
    fn gap_record_roundtrips_exactly() {
        for (online, bound) in [(Some(431), Some(120)), (Some(55), None), (None, None)] {
            let r = sample_record(online, bound);
            let line = encode_gap_record(&r);
            let decoded = decode_gap_record(&line).unwrap();
            assert_eq!(decoded, r);
            assert_eq!(encode_gap_record(&decoded), line);
        }
        let line = encode_gap_record(&sample_record(Some(10), Some(4)));
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(decode_gap_record(&line[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn ratio_requires_both_sides() {
        assert_eq!(sample_record(Some(30), Some(20)).ratio(), Some(1.5));
        assert_eq!(sample_record(Some(30), None).ratio(), None);
        assert_eq!(sample_record(None, None).ratio(), None);
    }

    #[test]
    fn fingerprint_is_gap_kind_and_config_sensitive() {
        let config = CampaignConfig::smoke();
        let fp = gap_fingerprint(&config);
        assert!(fp.starts_with("{\"kind\":\"gap\","), "{fp}");
        assert_ne!(fp, gap_fingerprint(&config.clone().with_m(7)));
        // A gap store can never be resumed as a campaign store.
        assert_ne!(fp, crate::executor::config_fingerprint(&config));
    }

    #[test]
    fn projection_counts_up_only_and_uses_min_speed() {
        let scenario = Scenario::generate(
            ScenarioParams {
                num_workers: 3,
                tasks_per_iteration: 2,
                ncom: 5,
                wmin: 1,
                iterations: 2,
            },
            3,
        );
        let mut scripted = ScriptedAvailability::from_codes(&["UURD", "RRUU", "UUUU"]);
        let instance = project_trial(&scenario, &mut scripted, 4);
        assert_eq!(instance.num_procs(), 3);
        assert_eq!(instance.horizon(), 4);
        assert_eq!(instance.up[0], vec![true, true, false, false]);
        assert_eq!(instance.up[1], vec![false, false, true, true]);
        assert_eq!(instance.m, 2);
        let min_speed = scenario.platform.workers().iter().map(|w| w.speed).min().unwrap();
        assert_eq!(instance.w, min_speed);
    }

    #[test]
    fn oracle_bounds_are_monotone_and_stop_when_dry() {
        // One processor, 6 UP slots, w = 2, m = 1: iterations finish at 2, 4, 6.
        let instance = OfflineInstance::new(vec![vec![true; 6]], 2, 1);
        for exact in [true, false] {
            assert_eq!(oracle_bounds(&instance, 3, exact), vec![2, 4, 6]);
            // Asking for more than fits returns the feasible prefix.
            assert_eq!(oracle_bounds(&instance, 5, exact), vec![2, 4, 6]);
        }
    }

    #[test]
    fn online_slots_distinguishes_success_cap_and_nothing() {
        let mut outcome = SimOutcome {
            completed_iterations: 2,
            target_iterations: 2,
            makespan: Some(8),
            simulated_slots: 8,
            stats: Default::default(),
        };
        assert_eq!(online_slots(&outcome, &[3, 7]), Some(8));
        // Capped run: the last completion decides.
        outcome.makespan = None;
        assert_eq!(online_slots(&outcome, &[3, 7]), Some(8));
        outcome.completed_iterations = 0;
        assert_eq!(online_slots(&outcome, &[]), None);
    }

    #[test]
    fn gap_sweep_reports_exact_ratios_at_least_one() {
        // Small paper-suite sweep at m = 5 (exact oracle path): every
        // comparable ratio must be >= 1 — the oracle is a true lower bound.
        let mut config = CampaignConfig::smoke();
        config.heuristics = vec![
            dg_heuristics::HeuristicSpec::parse("IE").unwrap(),
            dg_heuristics::HeuristicSpec::parse("IAY").unwrap(),
            dg_heuristics::HeuristicSpec::parse("RANDOM").unwrap(),
        ];
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        let outcome =
            run_gap_with(&config, &ExecutorOptions::new().retain_raw(true), |_, _| {}).unwrap();
        assert_eq!(outcome.records.len(), config.total_runs());
        assert!(outcome.stats.trials_projected > 0);
        assert_eq!(outcome.stats.greedy_trials, 0);
        let mut comparable = 0;
        for record in &outcome.records {
            assert_eq!(record.method, "exact");
            assert_eq!(record.suite, "paper");
            if let Some(ratio) = record.ratio() {
                comparable += 1;
                assert!(
                    ratio >= 1.0,
                    "{} beat the exact offline bound: online {:?} < bound {:?}",
                    record.heuristic,
                    record.online,
                    record.bound
                );
            }
        }
        assert!(comparable > 0, "no comparable gap records in the smoke sweep");
        // The streaming aggregates saw the same records.
        let agg_runs: usize = outcome.aggregates.iter().map(|a| a.runs).sum();
        assert_eq!(agg_runs, config.total_runs());
        for agg in &outcome.aggregates {
            if agg.comparable > 0 {
                assert!(agg.min_ratio >= 1.0, "{}: min ratio {}", agg.heuristic, agg.min_ratio);
            }
        }
        let table = render_gap_table("GAP", &outcome.aggregates);
        assert!(table.contains("Heuristic"), "{table}");
        assert!(table.contains("#cmp"), "{table}");
    }

    #[test]
    fn gap_results_are_thread_count_independent() {
        let mut config = CampaignConfig::smoke();
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        config.threads = 1;
        let sequential =
            run_gap_with(&config, &ExecutorOptions::new().retain_raw(true), |_, _| {}).unwrap();
        config.threads = 8;
        let parallel =
            run_gap_with(&config, &ExecutorOptions::new().retain_raw(true), |_, _| {}).unwrap();
        assert_eq!(sequential.records, parallel.records);
        assert_eq!(sequential.stats, parallel.stats);
    }

    #[test]
    fn gap_sweep_resumes_byte_identically() {
        use crate::store::{shard_name, MANIFEST_NAME};
        let dir = temp_dir("resume");
        let mut config = CampaignConfig::smoke();
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
        let uninterrupted = run_gap_with(&config, &options, |_, _| {}).unwrap();
        let manifest_before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let shard_before = fs::read(dir.join(shard_name(0))).unwrap();

        // Kill mid-campaign: truncate the only shard mid-line and reset the
        // manifest to incomplete.
        let text = fs::read_to_string(dir.join(shard_name(0))).unwrap();
        let keep: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        let partial = text.lines().nth(5).unwrap();
        fs::write(dir.join(shard_name(0)), format!("{keep}{}", &partial[..partial.len() / 2]))
            .unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                gap_fingerprint(&config)
            ),
        )
        .unwrap();

        let resume_options = ExecutorOptions::new().retain_raw(true).store(&dir, true);
        let resumed = run_gap_with(&config, &resume_options, |_, _| {}).unwrap();
        assert_eq!(resumed.records, uninterrupted.records);
        assert_eq!(resumed.stats.resumed_instances, 5);
        assert_eq!(
            resumed.stats.executed_instances,
            config.total_runs() - 5,
            "only missing comparisons re-run"
        );
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), manifest_before);
        assert_eq!(fs::read(dir.join(shard_name(0))).unwrap(), shard_before);

        // A campaign store cannot be resumed as a gap store.
        let campaign_dir = temp_dir("kind");
        crate::executor::run_campaign_with(
            &config,
            &ExecutorOptions::new().store(&campaign_dir, false),
            |_, _| {},
        )
        .unwrap();
        let err =
            run_gap_with(&config, &ExecutorOptions::new().store(&campaign_dir, true), |_, _| {})
                .unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&campaign_dir);
    }

    #[test]
    fn render_gap_table_handles_empty_aggregates() {
        let mut agg = GapAggregate::new("IE".to_string());
        let table = render_gap_table("T", std::slice::from_ref(&agg));
        assert!(table.contains(" - "), "{table}");
        agg.consume(&sample_record(Some(30), Some(20)));
        agg.consume(&sample_record(None, None));
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.comparable, 1);
        assert_eq!(agg.incomplete, 1);
        assert_eq!(agg.mean_ratio(), Some(1.5));
        let table = render_gap_table("T", &[agg]);
        assert!(table.contains("1.500"), "{table}");
    }
}
