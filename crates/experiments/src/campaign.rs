//! Full factorial experiment campaigns over the paper's experiment space.
//!
//! This module holds the campaign **description** ([`CampaignConfig`]) and
//! **result** types ([`InstanceResult`], [`CampaignResults`]); execution
//! lives in [`crate::executor`], which shards the campaign over worker
//! threads, realizes each trial's availability once for all its heuristics,
//! streams results into [`crate::stream::CampaignAccumulator`] cells and can
//! checkpoint/resume through [`crate::store`]. [`run_campaign`] is the
//! retained-results convenience wrapper the table/figure binaries and older
//! call sites use.

use crate::executor::{run_campaign_with, ExecutorOptions};
use crate::suite::MAX_SCENARIOS;
use dg_heuristics::HeuristicSpec;
use dg_platform::{ScenarioModel, ScenarioParams};
use dg_sim::{SimMode, SimOutcome};
use serde::{Deserialize, Serialize};

/// Configuration of an experiment campaign.
///
/// The paper's full campaign uses `m ∈ {5, 10}`, `ncom ∈ {5, 10, 20}`,
/// `wmin ∈ {1..10}`, 10 scenarios per point, 10 trials per scenario and a
/// 10⁶-slot cap — 6,000 instances per heuristic. [`CampaignConfig::paper_full`]
/// builds that configuration; [`CampaignConfig::reduced`] scales it down for
/// laptop-class runs while keeping the factorial structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Values of `m` (tasks per iteration) to sweep.
    pub m_values: Vec<usize>,
    /// Values of `ncom` (master communication bound) to sweep.
    pub ncom_values: Vec<usize>,
    /// Values of `wmin` (difficulty parameter) to sweep.
    pub wmin_values: Vec<u64>,
    /// Number of workers `p` in every platform.
    pub num_workers: usize,
    /// Number of iterations the application must complete.
    pub iterations: u64,
    /// Random scenarios generated per `(m, ncom, wmin)` point.
    pub scenarios_per_point: usize,
    /// Availability realizations (trials) per scenario.
    pub trials_per_scenario: usize,
    /// Slot cap after which a run is declared failed.
    pub max_slots: u64,
    /// Heuristics to evaluate.
    pub heuristics: Vec<HeuristicSpec>,
    /// Master seed of the whole campaign.
    pub base_seed: u64,
    /// Precision `ε` of the Section V estimates.
    pub epsilon: f64,
    /// Worker threads to use (1 = sequential, 0 = auto-detect the machine's
    /// available parallelism; see [`crate::executor::resolve_threads`]).
    pub threads: usize,
    /// Simulation engine mode every run executes under. The event-driven
    /// engine (default) and the slot-stepper produce identical results; see
    /// [`SimMode`].
    pub engine: SimMode,
    /// Name of the scenario suite the campaign runs over (`"paper"` by
    /// default). Non-paper suites tag the artifact store's manifest and
    /// shard records so `--resume` cannot mix workloads.
    pub suite: String,
    /// Generator model the campaign's scenarios are sampled under
    /// ([`ScenarioModel::paper`] by default — the Section VII-A space).
    pub model: ScenarioModel,
}

impl CampaignConfig {
    /// The paper's full-scale campaign (6,000 instances per heuristic).
    pub fn paper_full() -> Self {
        CampaignConfig {
            m_values: vec![5, 10],
            ncom_values: vec![5, 10, 20],
            wmin_values: (1..=10).collect(),
            num_workers: 20,
            iterations: 10,
            scenarios_per_point: 10,
            trials_per_scenario: 10,
            max_slots: 1_000_000,
            heuristics: HeuristicSpec::all(),
            base_seed: 20130520, // HCW 2013 workshop date
            epsilon: dg_analysis::DEFAULT_EPSILON,
            threads: 1,
            engine: SimMode::default(),
            suite: "paper".to_string(),
            model: ScenarioModel::paper(),
        }
    }

    /// A scaled-down campaign preserving the factorial structure: fewer
    /// scenarios/trials per point and a smaller slot cap.
    pub fn reduced(scenarios_per_point: usize, trials_per_scenario: usize, max_slots: u64) -> Self {
        CampaignConfig {
            scenarios_per_point,
            trials_per_scenario,
            max_slots,
            ..CampaignConfig::paper_full()
        }
    }

    /// A minimal smoke-test campaign used by tests.
    pub fn smoke() -> Self {
        CampaignConfig {
            m_values: vec![5],
            ncom_values: vec![10],
            wmin_values: vec![1],
            num_workers: 10,
            iterations: 2,
            scenarios_per_point: 1,
            trials_per_scenario: 1,
            max_slots: 20_000,
            heuristics: vec![
                HeuristicSpec::parse("IE").unwrap(),
                HeuristicSpec::parse("RANDOM").unwrap(),
            ],
            base_seed: 7,
            epsilon: dg_analysis::DEFAULT_EPSILON,
            threads: 1,
            engine: SimMode::default(),
            suite: "paper".to_string(),
            model: ScenarioModel::paper(),
        }
    }

    /// Restrict the campaign to one value of `m` (used by the Table I / II
    /// binaries, which report `m = 5` and `m = 10` respectively).
    pub fn with_m(mut self, m: usize) -> Self {
        self.m_values = vec![m];
        self
    }

    /// Replace the heuristic list.
    pub fn with_heuristics(mut self, heuristics: Vec<HeuristicSpec>) -> Self {
        self.heuristics = heuristics;
        self
    }

    /// The suite tag stored in manifests and shard records: `None` for the
    /// untagged `paper` suite (keeping its artifacts byte-identical to the
    /// pre-suite store format), `Some(name)` otherwise.
    pub fn suite_tag(&self) -> Option<&str> {
        crate::suite::store_tag(&self.suite)
    }

    /// The experiment points `(m, ncom, wmin)` of the campaign.
    pub fn points(&self) -> Vec<ScenarioParams> {
        let mut points = Vec::new();
        for &m in &self.m_values {
            for &ncom in &self.ncom_values {
                for &wmin in &self.wmin_values {
                    points.push(ScenarioParams {
                        num_workers: self.num_workers,
                        tasks_per_iteration: m,
                        ncom,
                        wmin,
                        iterations: self.iterations,
                    });
                }
            }
        }
        points
    }

    /// Total number of simulation runs the campaign will perform.
    ///
    /// # Panics
    /// Panics if the count does not fit in `usize`;
    /// [`crate::cli::CliOptions::campaign`] refuses such a campaign first.
    pub fn total_runs(&self) -> usize {
        self.checked_total_runs().expect("the campaign's run count fits in usize")
    }

    /// [`CampaignConfig::total_runs`], or the [`run_count`] error when the
    /// count does not fit in `usize`.
    pub fn checked_total_runs(&self) -> Result<usize, String> {
        // The length of `points()`, without building them.
        let (m, ncom, wmin) = (self.m_values.len(), self.ncom_values.len(), self.wmin_values.len());
        let points = m.checked_mul(ncom).and_then(|n| n.checked_mul(wmin)).ok_or_else(|| {
            format!("{m} m × {ncom} ncom × {wmin} wmin values are more points than fit in usize")
        })?;
        run_count(points, self.scenarios_per_point, self.trials_per_scenario, self.heuristics.len())
    }
}

/// The number of runs of a sweep over `points` experiment points with
/// `scenarios` scenarios per point, `trials` trials per scenario and
/// `per_trial` runs per trial (heuristics × availability arms), computed
/// without wrapping. Every campaign binary's count, and `serve`'s, goes
/// through here before its banner prints. A `scenarios` above
/// [`MAX_SCENARIOS`] is an error that names `--scenarios` and the ceiling,
/// and a count past `usize::MAX` one that names `--scenarios`, `--trials` and
/// the product.
pub fn run_count(
    points: usize,
    scenarios: usize,
    trials: usize,
    per_trial: usize,
) -> Result<usize, String> {
    if scenarios > MAX_SCENARIOS {
        return Err(format!(
            "--scenarios {scenarios} is too large: a campaign accepts --scenarios up to \
             {MAX_SCENARIOS}"
        ));
    }
    [scenarios, trials, per_trial].into_iter().try_fold(points, usize::checked_mul).ok_or_else(
        || {
            format!(
                "--scenarios {scenarios} and --trials {trials} ask for too many runs: \
                 {points} points × {scenarios} scenarios × {trials} trials × {per_trial} runs \
                 per trial exceeds {}",
                usize::MAX
            )
        },
    )
}

/// The outcome of one `(point, scenario, trial, heuristic)` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceResult {
    /// Experiment point the instance belongs to.
    pub params: ScenarioParams,
    /// Scenario index within the point.
    pub scenario_index: usize,
    /// Trial index within the scenario.
    pub trial_index: usize,
    /// Paper name of the heuristic (`"Y-IE"`, `"RANDOM"`, …).
    pub heuristic: String,
    /// Simulation outcome.
    pub outcome: SimOutcome,
}

/// All results of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResults {
    /// The configuration that produced the results.
    pub config: CampaignConfig,
    /// One entry per run.
    pub results: Vec<InstanceResult>,
}

impl CampaignResults {
    /// Results restricted to experiment points with `m` tasks per iteration.
    pub fn for_m(&self, m: usize) -> Vec<&InstanceResult> {
        self.results.iter().filter(|r| r.params.tasks_per_iteration == m).collect()
    }

    /// Names of the heuristics present in the results, in registry order.
    pub fn heuristic_names(&self) -> Vec<String> {
        self.config.heuristics.iter().map(|h| h.name()).collect()
    }
}

/// Run a campaign and retain every instance result.
///
/// Jobs (one per `(point, scenario)` pair) are distributed over
/// `config.threads` worker threads (`0` = auto-detect); progress is reported
/// through `on_progress` with `(completed_runs, total_runs)` after every
/// finished run. Results are in canonical order (point-major, then scenario,
/// trial, heuristic) regardless of the thread count. This is the
/// raw-retention convenience wrapper around
/// [`crate::executor::run_campaign_with`], which additionally offers
/// streaming-only aggregation and a resumable artifact store.
pub fn run_campaign<F>(config: &CampaignConfig, on_progress: F) -> CampaignResults
where
    F: Fn(usize, usize) + Sync,
{
    run_campaign_with(config, &ExecutorOptions::new().retain_raw(true), on_progress)
        .expect("a campaign without an artifact store fails only on a run count past usize::MAX")
        .results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn paper_full_config_matches_paper_scale() {
        let c = CampaignConfig::paper_full();
        assert_eq!(c.points().len(), 60);
        // 6,000 instances per heuristic × 17 heuristics.
        assert_eq!(c.total_runs(), 6_000 * 17);
        assert_eq!(c.heuristics.len(), 17);
        assert_eq!(c.max_slots, 1_000_000);
    }

    #[test]
    fn reduced_config_keeps_structure() {
        let c = CampaignConfig::reduced(2, 3, 50_000);
        assert_eq!(c.points().len(), 60);
        assert_eq!(c.total_runs(), 60 * 2 * 3 * 17);
        assert_eq!(c.with_m(5).points().len(), 30);
    }

    #[test]
    fn smoke_campaign_runs_and_is_deterministic() {
        let config = CampaignConfig::smoke();
        let a = run_campaign(&config, |_, _| {});
        let b = run_campaign(&config, |_, _| {});
        assert_eq!(a.results.len(), config.total_runs());
        assert_eq!(a, b);
        // Both heuristics ran on every (scenario, trial).
        assert_eq!(a.heuristic_names(), vec!["IE".to_string(), "RANDOM".to_string()]);
        let ie_runs = a.results.iter().filter(|r| r.heuristic == "IE").count();
        assert_eq!(ie_runs, config.total_runs() / 2);
    }

    #[test]
    fn campaign_results_are_identical_across_engine_modes() {
        let mut config = CampaignConfig::smoke();
        config.engine = SimMode::SlotStepped;
        let slot = run_campaign(&config, |_, _| {});
        config.engine = SimMode::EventDriven;
        let event = run_campaign(&config, |_, _| {});
        // The configs differ only by engine mode; every simulated outcome must
        // be byte-identical.
        assert_eq!(slot.results.len(), event.results.len());
        for (s, e) in slot.results.iter().zip(event.results.iter()) {
            assert_eq!(s.outcome, e.outcome, "{} diverged between engines", s.heuristic);
        }
    }

    #[test]
    fn multithreaded_campaign_matches_sequential() {
        let mut config = CampaignConfig::smoke();
        config.scenarios_per_point = 2;
        let sequential = run_campaign(&config, |_, _| {});
        config.threads = 4;
        let parallel = run_campaign(&config, |_, _| {});
        // Slot-indexed placement: not just the same multiset of results — the
        // exact same canonical order, independent of thread interleaving.
        assert_eq!(sequential.results, parallel.results);
    }

    #[test]
    fn progress_callback_reaches_total() {
        let config = CampaignConfig::smoke();
        let max_seen = AtomicUsize::new(0);
        run_campaign(&config, |done, total| {
            assert!(done <= total);
            max_seen.fetch_max(done, Ordering::Relaxed);
        });
        assert_eq!(max_seen.load(Ordering::Relaxed), config.total_runs());
    }
}
