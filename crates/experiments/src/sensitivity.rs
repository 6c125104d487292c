//! Model-mismatch sensitivity study (the paper's "future work" experiment).
//!
//! The heuristics' probabilistic criteria assume the 3-state **Markov**
//! availability model. Measurement studies cited by the paper suggest that
//! real desktop-grid availability intervals follow Weibull or log-normal
//! distributions instead. This module runs the same heuristics against
//! **semi-Markov** availability traces whose mean sojourn times match the
//! Markov chains the heuristics believe in, and reports how the ranking
//! degrades — quantifying the robustness question raised in Section VII-B.

use crate::campaign::{run_count, InstanceResult};
use crate::executor::ExecutorOptions;
use crate::json::{List, Obj, Str};
use crate::metrics::ReferenceComparison;
use crate::store::encode_instance;
use crate::suite::fingerprint_suffix;
use crate::sweep::{self, Job, Sweep};
use dg_availability::RealizedAvailability;
use dg_heuristics::HeuristicSpec;
use dg_platform::{ScenarioModel, ScenarioParams};
use dg_sim::SimMode;
use serde::{Deserialize, Serialize};

/// Build, for every worker of a scenario, a semi-Markov model whose mean `UP`
/// sojourn and crash-vs-preemption mix match the worker's Markov chain.
/// (Thin re-export of [`dg_platform::generator::matched_semi_markov_models`],
/// where the matching now lives so scenario suites can realize semi-Markov
/// trials too.)
pub use dg_platform::generator::matched_semi_markov_models;

/// Configuration of the sensitivity experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityConfig {
    /// Experiment points to evaluate.
    pub points: Vec<ScenarioParams>,
    /// Scenarios per point.
    pub scenarios_per_point: usize,
    /// Trials per scenario.
    pub trials_per_scenario: usize,
    /// Slot cap per run.
    pub max_slots: u64,
    /// Heuristics to compare.
    pub heuristics: Vec<HeuristicSpec>,
    /// Master seed.
    pub base_seed: u64,
    /// Precision of the Section V estimates.
    pub epsilon: f64,
    /// Weibull shape parameter of the `UP` sojourns (`< 1` = heavy tail).
    pub weibull_shape: f64,
    /// Simulation engine mode every run executes under.
    pub engine: SimMode,
    /// Worker threads (`0` = auto-detect available parallelism).
    pub threads: usize,
    /// Name of the scenario suite the scenarios are drawn from (`"paper"`
    /// by default; non-paper suites tag the artifact store).
    pub suite: String,
    /// Generator model the scenarios are sampled under. Only the platform
    /// axes matter here — the trial arms are fixed by the experiment itself
    /// (Markov vs matched semi-Markov), so `model.trials` is ignored.
    pub model: ScenarioModel,
}

impl SensitivityConfig {
    /// A small default configuration usable on a single core.
    pub fn small() -> Self {
        SensitivityConfig {
            points: vec![ScenarioParams::paper(5, 10, 2)],
            scenarios_per_point: 3,
            trials_per_scenario: 2,
            max_slots: 100_000,
            heuristics: ["IE", "IAY", "Y-IE", "P-IE", "E-IAY", "RANDOM"]
                .iter()
                .map(|n| HeuristicSpec::parse(n).unwrap())
                .collect(),
            base_seed: 1807,
            epsilon: dg_analysis::DEFAULT_EPSILON,
            weibull_shape: 0.7,
            engine: SimMode::default(),
            threads: 1,
            suite: "paper".to_string(),
            model: ScenarioModel::paper(),
        }
    }
}

impl SensitivityConfig {
    /// The artifact-store suite tag: `None` for the untagged `paper` suite.
    pub fn suite_tag(&self) -> Option<&str> {
        crate::suite::store_tag(&self.suite)
    }

    /// The number of runs of the experiment, both availability models
    /// included, or the [`run_count`] error when it does not fit in `usize`.
    pub fn checked_total_runs(&self) -> Result<usize, String> {
        run_count(
            self.points.len(),
            self.scenarios_per_point,
            self.trials_per_scenario,
            self.heuristics.len() * MODELS.len(),
        )
    }
}

/// Results of the sensitivity experiment: the same instances run under the
/// Markov model the heuristics assume, and under the semi-Markov model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResults {
    /// Outcomes under the (matched) Markov availability.
    pub markov: Vec<InstanceResult>,
    /// Outcomes under semi-Markov (Weibull/log-normal) availability.
    pub semi_markov: Vec<InstanceResult>,
}

/// Store tags of the two availability arms, in slot order: each
/// `(trial, heuristic)` runs under the Markov model, then the semi-Markov one.
const MODELS: [&str; 2] = ["markov", "semi"];

/// The canonical JSON fingerprint of everything in a [`SensitivityConfig`]
/// that determines results (`threads` and `engine` excluded — see
/// [`crate::executor::config_fingerprint`] for the rationale).
pub fn sensitivity_fingerprint(config: &SensitivityConfig) -> String {
    let points = config.points.iter().map(|p| {
        List([
            p.num_workers as u64,
            p.tasks_per_iteration as u64,
            p.ncom as u64,
            p.wmin,
            p.iterations,
        ])
    });
    let names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();
    let fields = Obj::new()
        .field("kind", Str("sensitivity"))
        .field("points", List(points))
        .field("scenarios", config.scenarios_per_point)
        .field("trials", config.trials_per_scenario)
        .field("cap", config.max_slots)
        .field("heuristics", List(names.iter().map(|name| Str(name))))
        .field("seed", config.base_seed)
        .field("epsilon", format_args!("{:?}", config.epsilon))
        .field("weibull_shape", format_args!("{:?}", config.weibull_shape));
    fingerprint_suffix(fields, &config.suite, &config.model).end()
}

/// The sensitivity sweep: two arms per `(trial, heuristic)`, stored as
/// model-tagged campaign records.
fn sweep_of(config: &SensitivityConfig) -> Sweep<'_, InstanceResult> {
    let tag = config.suite_tag();
    Sweep {
        points: config.points.clone(),
        scenarios: config.scenarios_per_point,
        trials: config.trials_per_scenario,
        heuristics: config.heuristics.iter().map(|h| h.name()).collect(),
        arms: MODELS.len(),
        model: &config.model,
        base_seed: config.base_seed,
        epsilon: config.epsilon,
        threads: config.threads,
        fingerprint: sensitivity_fingerprint(config),
        decode: sweep::instance_decoder(tag, |model| MODELS.iter().position(|m| model == Some(*m))),
        encode: Box::new(move |point: usize, arm: usize, r: &InstanceResult| {
            encode_instance(point, tag, Some(MODELS[arm]), r)
        }),
    }
}

/// Run the sensitivity experiment.
///
/// Equivalent to [`run_sensitivity_with`] without an artifact store, which
/// fails only on a run count past `usize::MAX`
/// ([`SensitivityConfig::checked_total_runs`]).
pub fn run_sensitivity(config: &SensitivityConfig) -> SensitivityResults {
    run_sensitivity_with(config, &ExecutorOptions::new()).expect(
        "a sensitivity run without an artifact store fails only on a run count past usize::MAX",
    )
}

/// Run the sensitivity experiment, fanning `(point, scenario)` jobs out over
/// `config.threads` worker threads (`0` = auto-detect) with deterministic,
/// thread-count-independent result ordering. Each trial realizes its Markov
/// and its semi-Markov availability **once**, shared by every
/// heuristic of the trial through
/// [`RealizedTrial`](dg_availability::RealizedTrial) replays.
///
/// With [`ExecutorOptions::out`] set, results are checkpointed to
/// model-tagged JSONL shards (one per experiment point, written as the point
/// completes) next to a manifest; [`ExecutorOptions::resume`] skips instances
/// already present in the store, and [`ExecutorOptions::part`] restricts
/// execution to one worker shard's point range (see [`crate::distrib`]).
pub fn run_sensitivity_with(
    config: &SensitivityConfig,
    options: &ExecutorOptions,
) -> Result<SensitivityResults, String> {
    // Both arms share the job's evaluation cache: the Section V estimates
    // depend only on the platform, never on the realized availability. The
    // suite's platform axes apply, but the arms themselves are fixed by the
    // experiment: the scenario's Markov chains vs matched semi-Markov traces.
    let job = |job: &Job<'_, InstanceResult>| {
        job.instances(&config.heuristics, config.max_slots, config.engine, |s, arm, seed| {
            if arm == 0 {
                return s.availability_for_trial(seed, false);
            }
            let models = matched_semi_markov_models(s, config.weibull_shape);
            RealizedAvailability::semi_markov(&models, seed, config.max_slots)
        })
    };
    let mut results = SensitivityResults { markov: Vec::new(), semi_markov: Vec::new() };
    let pair_up = |_, block: Vec<InstanceResult>| {
        let mut block = block.into_iter();
        while let (Some(markov), Some(semi)) = (block.next(), block.next()) {
            results.markov.push(markov);
            results.semi_markov.push(semi);
        }
    };
    sweep::run(&sweep_of(config), options, |_, _| {}, job, pair_up)?;
    Ok(results)
}

/// Render the sensitivity comparison: `%diff` vs the reference under both
/// availability models, side by side.
pub fn render_sensitivity(
    results: &SensitivityResults,
    reference: &str,
    heuristic_order: &[String],
) -> String {
    let markov_refs: Vec<&InstanceResult> = results.markov.iter().collect();
    let semi_refs: Vec<&InstanceResult> = results.semi_markov.iter().collect();
    let markov_cmp = ReferenceComparison::compute(&markov_refs, reference, heuristic_order);
    let semi_cmp = ReferenceComparison::compute(&semi_refs, reference, heuristic_order);

    let mut out = String::new();
    out.push_str("MODEL-MISMATCH SENSITIVITY (reference = ");
    out.push_str(reference);
    out.push_str(")\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>14} {:>10} {:>10}\n",
        "Heuristic", "%diff Markov", "%diff semi-M", "#fails M", "#fails SM"
    ));
    out.push_str(&"-".repeat(64));
    out.push('\n');
    for name in heuristic_order {
        let m = markov_cmp.summary_of(name);
        let s = semi_cmp.summary_of(name);
        if let (Some(m), Some(s)) = (m, s) {
            out.push_str(&format!(
                "{:<10} {:>14.2} {:>14.2} {:>10} {:>10}\n",
                name, m.pct_diff, s.pct_diff, m.fails, s.fails
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sensitivity_run_produces_paired_results() {
        let config = SensitivityConfig {
            points: vec![ScenarioParams {
                num_workers: 8,
                tasks_per_iteration: 3,
                ncom: 5,
                wmin: 1,
                iterations: 2,
            }],
            scenarios_per_point: 1,
            trials_per_scenario: 1,
            max_slots: 20_000,
            heuristics: vec![
                HeuristicSpec::parse("IE").unwrap(),
                HeuristicSpec::parse("IAY").unwrap(),
            ],
            base_seed: 3,
            epsilon: 1e-6,
            weibull_shape: 0.8,
            engine: SimMode::default(),
            threads: 1,
            suite: "paper".to_string(),
            model: ScenarioModel::paper(),
        };
        let results = run_sensitivity(&config);
        assert_eq!(results.markov.len(), 2);
        assert_eq!(results.semi_markov.len(), 2);
        let names = vec!["IE".to_string(), "IAY".to_string()];
        let text = render_sensitivity(&results, "IE", &names);
        assert!(text.contains("IAY"));
        assert!(text.contains("%diff Markov"));
    }

    fn multi_point_config() -> SensitivityConfig {
        SensitivityConfig {
            points: vec![ScenarioParams::paper(5, 10, 1), ScenarioParams::paper(5, 10, 2)],
            scenarios_per_point: 2,
            trials_per_scenario: 2,
            max_slots: 30_000,
            heuristics: vec![
                HeuristicSpec::parse("IE").unwrap(),
                HeuristicSpec::parse("RANDOM").unwrap(),
            ],
            base_seed: 11,
            epsilon: 1e-6,
            weibull_shape: 0.7,
            engine: SimMode::default(),
            threads: 1,
            suite: "paper".to_string(),
            model: ScenarioModel::paper(),
        }
    }

    #[test]
    fn stored_records_slot_back_into_the_canonical_layout() {
        // Pins the encode → decode → slot roundtrip against the job's flat
        // (markov, semi) pair layout, so store-format and slot-math drift
        // cannot silently drop resumed records.
        let config = multi_point_config();
        let slot = |config: &SensitivityConfig, line: &str| {
            let sweep = sweep_of(config);
            (sweep.decode)(line).unwrap().and_then(|(key, _)| sweep.slot(&key))
        };
        let result = InstanceResult {
            params: config.points[1],
            scenario_index: 1,
            trial_index: 1,
            heuristic: "RANDOM".to_string(),
            outcome: dg_sim::SimOutcome {
                completed_iterations: 10,
                target_iterations: 10,
                makespan: Some(99),
                simulated_slots: 99,
                stats: dg_sim::SimStats::default(),
            },
        };
        for (model_index, model) in MODELS.into_iter().enumerate() {
            let line = encode_instance(1, None, Some(model), &result);
            // point 1, scenario 1 -> job 3; trial 1; heuristic RANDOM -> 1.
            let expected = ((3 * 2 + 1) * 2 + 1) * 2 + model_index;
            assert_eq!(slot(&config, &line), Some(expected));
            // The kernel encodes each arm with its own model tag.
            assert_eq!((sweep_of(&config).encode)(1, model_index, &result), line);
        }
        // Records that do not belong to the configuration slot to None.
        let line = encode_instance(5, None, Some(MODELS[0]), &result);
        assert_eq!(slot(&config, &line), None);
        assert_eq!(slot(&config, &encode_instance(1, None, None, &result)), None);
        // Suite-tagged records only slot into the matching suite's config.
        let foreign = encode_instance(1, Some("volatile"), Some(MODELS[0]), &result);
        assert_eq!(slot(&config, &foreign), None);
        let mut volatile_config = config.clone();
        volatile_config.suite = "volatile".to_string();
        assert_eq!(slot(&volatile_config, &foreign), Some(((3 * 2 + 1) * 2 + 1) * 2));
    }

    #[test]
    fn parallel_sensitivity_matches_sequential() {
        let mut config = multi_point_config();
        let sequential = run_sensitivity(&config);
        config.threads = 4;
        let parallel = run_sensitivity(&config);
        // Deterministic slot ordering: identical vectors, not just multisets.
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn sensitivity_store_resume_matches_uninterrupted_run() {
        use crate::store::shard_name;
        let dir =
            std::env::temp_dir().join(format!("dg-sensitivity-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = multi_point_config();
        let uninterrupted =
            run_sensitivity_with(&config, &ExecutorOptions::new().store(&dir, false)).unwrap();
        let shard0 = std::fs::read(dir.join(shard_name(0))).unwrap();

        // Lose the second point's shard entirely, then resume.
        std::fs::remove_file(dir.join(shard_name(1))).unwrap();
        let resumed =
            run_sensitivity_with(&config, &ExecutorOptions::new().store(&dir, true)).unwrap();
        assert_eq!(resumed, uninterrupted);
        assert_eq!(std::fs::read(dir.join(shard_name(0))).unwrap(), shard0);
        assert!(dir.join(shard_name(1)).is_file());

        // A different configuration cannot resume the store.
        let mut other = config.clone();
        other.weibull_shape = 0.9;
        assert!(run_sensitivity_with(&other, &ExecutorOptions::new().store(&dir, true)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
