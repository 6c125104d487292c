//! Model-mismatch sensitivity study (the paper's "future work" experiment).
//!
//! The heuristics' probabilistic criteria assume the 3-state **Markov**
//! availability model. Measurement studies cited by the paper suggest that
//! real desktop-grid availability intervals follow Weibull or log-normal
//! distributions instead. This module runs the same heuristics against
//! **semi-Markov** availability traces whose mean sojourn times match the
//! Markov chains the heuristics believe in, and reports how the ranking
//! degrades — quantifying the robustness question raised in Section VII-B.
//!
//! The study is a [`CampaignConfig`] sweep with two availability arms per
//! `(trial, heuristic)`: the scenario's Markov chains, then matched
//! semi-Markov traces whose Weibull shape is [`weibull_shape`]. The
//! `sensitivity` binary narrows the campaign to [`sensitivity_slice`] first.

use crate::campaign::{CampaignConfig, InstanceResult};
use crate::executor::{ExecutorOptions, ExecutorStats};
use crate::json::{List, Obj, Str};
use crate::metrics::ReferenceComparison;
use crate::store::encode_instance;
use crate::suite::fingerprint_suffix;
use crate::sweep::{self, Job, Sweep};
use dg_availability::RealizedAvailability;
use dg_platform::TrialModel;
use serde::{Deserialize, Serialize};

/// Build, for every worker of a scenario, a semi-Markov model whose mean `UP`
/// sojourn and crash-vs-preemption mix match the worker's Markov chain.
/// (Thin re-export of [`dg_platform::generator::matched_semi_markov_models`],
/// where the matching now lives so scenario suites can realize semi-Markov
/// trials too.)
pub use dg_platform::generator::matched_semi_markov_models;

/// The study's slice of a campaign: one point per `wmin` at the suite's
/// first `m` and middle `ncom` (the paper suite gives the historical
/// `m = 5`, `ncom = 10` slice).
pub fn sensitivity_slice(mut config: CampaignConfig) -> CampaignConfig {
    config.m_values.truncate(1);
    config.ncom_values = vec![config.ncom_values[config.ncom_values.len() / 2]];
    config
}

/// The Weibull shape of the semi-Markov arm's `UP` sojourns (`< 1` = heavy
/// tail): the one a suite's `trials semi(SHAPE)` declares, otherwise the
/// historical 0.7. The arms themselves are fixed by the study, so this is
/// all the campaign's trial model decides.
pub fn weibull_shape(config: &CampaignConfig) -> f64 {
    match config.model.trials {
        TrialModel::SemiMarkov { shape } => shape,
        TrialModel::Markov => 0.7,
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

/// Everything a sensitivity run produces.
#[derive(Debug, Clone)]
pub struct SensitivityOutcome {
    /// Both arms' results, in canonical order.
    pub results: SensitivityResults,
    /// Execution counters of the sweep kernel (both arms counted).
    pub stats: ExecutorStats,
}

/// Store tags of the two availability arms, in slot order: each
/// `(trial, heuristic)` runs under the Markov model, then the semi-Markov one.
const MODELS: [&str; 2] = ["markov", "semi"];

/// The canonical JSON fingerprint of a sensitivity sweep over `config`
/// (`threads` and `engine` excluded — see
/// [`crate::executor::config_fingerprint`] for the rationale): its points,
/// scale, heuristics, seed, `ε` and [`weibull_shape`].
pub fn sensitivity_fingerprint(config: &CampaignConfig) -> String {
    let points = config.points();
    let points = points.iter().map(|p| {
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
        .field("weibull_shape", format_args!("{:?}", weibull_shape(config)));
    fingerprint_suffix(fields, &config.suite, &config.model).end()
}

/// The sensitivity sweep: two arms per `(trial, heuristic)`, stored as
/// model-tagged campaign records.
fn sweep_of(config: &CampaignConfig) -> Sweep<'_, InstanceResult> {
    let tag = config.suite_tag();
    Sweep {
        arms: MODELS.len(),
        ..Sweep::over(
            config,
            sensitivity_fingerprint(config),
            sweep::instance_decoder(tag, |model| MODELS.iter().position(|m| model == Some(*m))),
            Box::new(move |point: usize, arm: usize, r: &InstanceResult| {
                encode_instance(point, tag, Some(MODELS[arm]), r)
            }),
        )
    }
}

/// Run the sensitivity experiment over `config`'s points under `options`
/// (same contract as [`crate::executor::run_campaign_with`]: jobs fan out
/// over `config.threads` workers with thread-count-independent results, a
/// store makes the run resumable, [`ExecutorOptions::part`] restricts it to
/// one worker shard's point range, and `on_progress` reports resumed runs
/// once, then every executed one). Each trial realizes its Markov and its
/// semi-Markov availability **once**, shared by every heuristic of the trial
/// through [`RealizedTrial`](dg_availability::RealizedTrial) replays.
pub fn run_sensitivity_with<F>(
    config: &CampaignConfig,
    options: &ExecutorOptions,
    on_progress: F,
) -> Result<SensitivityOutcome, String>
where
    F: Fn(usize, usize) + Sync,
{
    // Both arms share the job's evaluation cache: the Section V estimates
    // depend only on the platform, never on the realized availability. The
    // suite's platform axes apply, but the arms themselves are fixed by the
    // experiment: the scenario's Markov chains vs matched semi-Markov traces.
    let shape = weibull_shape(config);
    let job = |job: &Job<'_, InstanceResult>| {
        job.instances(&config.heuristics, config.max_slots, config.engine, |s, arm, seed| {
            if arm == 0 {
                return s.availability_for_trial(seed);
            }
            let models = matched_semi_markov_models(s, shape);
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
    let stats = sweep::run(&sweep_of(config), options, on_progress, job, pair_up)?;
    Ok(SensitivityOutcome { results, stats })
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
    use crate::suite::SuiteSpec;
    use dg_heuristics::HeuristicSpec;

    fn run(config: &CampaignConfig) -> SensitivityResults {
        run_sensitivity_with(config, &ExecutorOptions::new(), |_, _| {}).unwrap().results
    }

    #[test]
    fn tiny_sensitivity_run_produces_paired_results() {
        let mut config = CampaignConfig {
            m_values: vec![3],
            ncom_values: vec![5],
            wmin_values: vec![1],
            num_workers: 8,
            heuristics: vec![
                HeuristicSpec::parse("IE").unwrap(),
                HeuristicSpec::parse("IAY").unwrap(),
            ],
            base_seed: 3,
            epsilon: 1e-6,
            ..CampaignConfig::smoke()
        };
        config.model.trials = TrialModel::SemiMarkov { shape: 0.8 };
        let results = run(&config);
        assert_eq!(results.markov.len(), 2);
        assert_eq!(results.semi_markov.len(), 2);
        let names = vec!["IE".to_string(), "IAY".to_string()];
        let text = render_sensitivity(&results, "IE", &names);
        assert!(text.contains("IAY"));
        assert!(text.contains("%diff Markov"));
    }

    fn multi_point_config() -> CampaignConfig {
        CampaignConfig {
            m_values: vec![5],
            ncom_values: vec![10],
            wmin_values: vec![1, 2],
            num_workers: 20,
            iterations: 10,
            scenarios_per_point: 2,
            trials_per_scenario: 2,
            max_slots: 30_000,
            base_seed: 11,
            epsilon: 1e-6,
            ..CampaignConfig::smoke()
        }
    }

    #[test]
    fn the_slice_is_the_first_m_and_middle_ncom_at_every_wmin() {
        let sliced = sensitivity_slice(SuiteSpec::paper().campaign(10, 10, 1_000_000));
        assert_eq!((sliced.m_values, sliced.ncom_values), (vec![5], vec![10]));
        assert_eq!(sliced.wmin_values, (1..=10).collect::<Vec<u64>>());
        let mut config = CampaignConfig::smoke();
        assert_eq!(weibull_shape(&config), 0.7);
        config.model.trials = TrialModel::SemiMarkov { shape: 0.4 };
        assert_eq!(weibull_shape(&config), 0.4);
    }

    #[test]
    fn stored_records_slot_back_into_the_canonical_layout() {
        // Pins the encode → decode → slot roundtrip against the job's flat
        // (markov, semi) pair layout, so store-format and slot-math drift
        // cannot silently drop resumed records.
        let config = multi_point_config();
        let slot = |config: &CampaignConfig, line: &str| {
            let sweep = sweep_of(config);
            (sweep.decode)(line).unwrap().and_then(|(key, _)| sweep.slot(&key))
        };
        let result = InstanceResult {
            params: config.points()[1],
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
        let sequential = run(&config);
        config.threads = 4;
        let parallel = run(&config);
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
        let run_on = |config: &CampaignConfig, resume: bool| {
            run_sensitivity_with(config, &ExecutorOptions::new().store(&dir, resume), |_, _| {})
        };
        let uninterrupted = run_on(&config, false).unwrap().results;
        let shard0 = std::fs::read(dir.join(shard_name(0))).unwrap();

        // Lose the second point's shard entirely, then resume.
        std::fs::remove_file(dir.join(shard_name(1))).unwrap();
        let resumed = run_on(&config, true).unwrap().results;
        assert_eq!(resumed, uninterrupted);
        assert_eq!(std::fs::read(dir.join(shard_name(0))).unwrap(), shard0);
        assert!(dir.join(shard_name(1)).is_file());

        // A different configuration cannot resume the store.
        let mut other = config.clone();
        other.model.trials = TrialModel::SemiMarkov { shape: 0.9 };
        assert!(run_on(&other, true).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
