//! Streaming reduction of campaign results into table/figure summaries.
//!
//! [`CampaignAccumulator`] consumes each scenario's results as the executor
//! finishes them and keeps only one [`StreamingComparison`] cell per
//! `(experiment point, heuristic)` pair — O(points × heuristics) memory, no
//! retained `Vec<InstanceResult>`. Any table or figure subset (all points
//! with `m = 5`, all points with a given `wmin`, …) is obtained by merging
//! the matching cells into a [`ReferenceComparison`], the same structure the
//! batch metrics code produces from retained raw results.
//!
//! The reduction follows the batch semantics of [`crate::metrics`] exactly:
//! wins/fails are counted per trial against the reference heuristic, the
//! `%diff`/`stdv` statistics are computed over per-scenario relative
//! differences of trial-averaged makespans, and trials on which the
//! reference failed never enter the win denominators.
//!
//! The accumulator is always sized for the **whole** campaign but tolerates
//! partial consumption: a `--worker-shard I/N` executor (see
//! [`crate::distrib`]) feeds it only the scenarios of its contiguous point
//! range, leaving every other point's cells empty. That is sound because a
//! worker renders nothing — tables and figures are only produced from a
//! fully-fed accumulator (a plain run, or the coordinator's resume pass over
//! the merged store).

use crate::campaign::{CampaignConfig, InstanceResult};
use crate::metrics::{HeuristicSummary, ReferenceComparison};
use dg_analysis::streaming::{ScenarioAccumulator, StreamingComparison};
use dg_platform::ScenarioParams;

/// Streaming per-`(point, heuristic)` accumulator of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignAccumulator {
    points: Vec<ScenarioParams>,
    heuristic_names: Vec<String>,
    reference: String,
    reference_index: Option<usize>,
    /// `points.len() × heuristic_names.len()` cells, point-major.
    cells: Vec<StreamingComparison>,
    scenarios_consumed: usize,
}

impl CampaignAccumulator {
    /// Create an accumulator for `config`, comparing against `reference`
    /// (the paper uses IE). A reference absent from the campaign's heuristics
    /// yields empty comparison denominators, mirroring the batch code.
    pub fn new(config: &CampaignConfig, reference: &str) -> CampaignAccumulator {
        let points = config.points();
        let heuristic_names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();
        let reference_index = heuristic_names.iter().position(|n| n == reference);
        let cells = vec![StreamingComparison::new(); points.len() * heuristic_names.len()];
        CampaignAccumulator {
            points,
            heuristic_names,
            reference: reference.to_string(),
            reference_index,
            cells,
            scenarios_consumed: 0,
        }
    }

    /// Number of scenarios consumed so far.
    pub fn scenarios_consumed(&self) -> usize {
        self.scenarios_consumed
    }

    /// Reduce one completed scenario: `results` holds the scenario's
    /// `trials × heuristics` instances in canonical order (trial-major,
    /// heuristic order matching the campaign config).
    ///
    /// # Panics
    /// Panics if `point_index` is out of range or `results` does not have the
    /// canonical shape.
    pub fn consume_scenario(&mut self, point_index: usize, results: &[InstanceResult]) {
        let h = self.heuristic_names.len();
        assert!(point_index < self.points.len(), "point index out of range");
        assert!(
            h > 0 && results.len().is_multiple_of(h),
            "scenario block must hold trials x heuristics results"
        );
        let trials = results.len() / h;
        let mut scenario_cells = vec![ScenarioAccumulator::new(); h];
        for trial in 0..trials {
            let block = &results[trial * h..(trial + 1) * h];
            let reference_makespan = self.reference_index.and_then(|r| block[r].outcome.makespan);
            for (i, result) in block.iter().enumerate() {
                debug_assert_eq!(result.heuristic, self.heuristic_names[i]);
                let cell = &mut self.cells[point_index * h + i];
                cell.tally.record(result.outcome.makespan, reference_makespan);
                scenario_cells[i].record(result.outcome.makespan, reference_makespan);
            }
        }
        for (i, scenario) in scenario_cells.iter().enumerate() {
            self.cells[point_index * h + i].finish_scenario(scenario);
        }
        self.scenarios_consumed += 1;
    }

    /// The comparison over every experiment point.
    pub fn comparison(&self) -> ReferenceComparison {
        self.comparison_where(|_| true)
    }

    /// The comparison restricted to experiment points with `m` tasks per
    /// iteration (the Table I / Table II subsets).
    pub fn comparison_for_m(&self, m: usize) -> ReferenceComparison {
        self.comparison_where(|p| p.tasks_per_iteration == m)
    }

    /// The comparison over the points selected by `keep` — e.g. one `(m,
    /// wmin)` slice per Figure 2 data point.
    pub fn comparison_where(&self, keep: impl Fn(&ScenarioParams) -> bool) -> ReferenceComparison {
        let h = self.heuristic_names.len();
        let mut summaries = Vec::with_capacity(h);
        for (i, name) in self.heuristic_names.iter().enumerate() {
            let mut merged = StreamingComparison::new();
            for (p, params) in self.points.iter().enumerate() {
                if keep(params) {
                    merged.merge(&self.cells[p * h + i]);
                }
            }
            summaries.push(HeuristicSummary {
                name: name.clone(),
                fails: merged.tally.fails as usize,
                pct_diff: 100.0 * merged.rel.mean(),
                pct_wins: merged.tally.pct_wins(),
                pct_wins30: merged.tally.pct_wins30(),
                stdv: merged.rel.sample_stdev(),
                scenarios_compared: merged.rel.count() as usize,
                trials_compared: merged.tally.trials_compared as usize,
            });
        }
        ReferenceComparison { reference: self.reference.clone(), summaries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::metrics::ReferenceComparison;
    use dg_heuristics::HeuristicSpec;

    fn assert_summaries_agree(streaming: &ReferenceComparison, batch: &ReferenceComparison) {
        assert_eq!(streaming.summaries.len(), batch.summaries.len());
        for (s, b) in streaming.summaries.iter().zip(batch.summaries.iter()) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.fails, b.fails);
            assert_eq!(s.scenarios_compared, b.scenarios_compared);
            assert_eq!(s.trials_compared, b.trials_compared);
            assert!((s.pct_diff - b.pct_diff).abs() < 1e-9, "{}: %diff", s.name);
            assert!((s.pct_wins - b.pct_wins).abs() < 1e-9, "{}: %wins", s.name);
            assert!((s.pct_wins30 - b.pct_wins30).abs() < 1e-9, "{}: %wins30", s.name);
            assert!((s.stdv - b.stdv).abs() < 1e-9, "{}: stdv", s.name);
        }
    }

    #[test]
    fn streaming_summaries_match_batch_metrics() {
        let mut config = crate::campaign::CampaignConfig::smoke();
        config.m_values = vec![5, 10];
        config.wmin_values = vec![1, 2];
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        config.heuristics = vec![
            HeuristicSpec::parse("IE").unwrap(),
            HeuristicSpec::parse("Y-IE").unwrap(),
            HeuristicSpec::parse("RANDOM").unwrap(),
        ];
        let results = run_campaign(&config, |_, _| {});

        // Feed the accumulator scenario by scenario, in canonical order.
        let mut acc = CampaignAccumulator::new(&config, "IE");
        let h = config.heuristics.len();
        let block = config.trials_per_scenario * h;
        for (i, chunk) in results.results.chunks(block).enumerate() {
            acc.consume_scenario(i / config.scenarios_per_point, chunk);
        }
        assert_eq!(acc.scenarios_consumed(), config.points().len() * 2);

        // Full campaign, per-m subsets and a per-(m, wmin) slice all agree
        // with the batch computation over retained raw results.
        let names = results.heuristic_names();
        let all: Vec<_> = results.results.iter().collect();
        assert_summaries_agree(
            &acc.comparison(),
            &ReferenceComparison::compute(&all, "IE", &names),
        );
        for m in [5, 10] {
            let subset = results.for_m(m);
            assert_summaries_agree(
                &acc.comparison_for_m(m),
                &ReferenceComparison::compute(&subset, "IE", &names),
            );
        }
        let slice: Vec<_> = results
            .results
            .iter()
            .filter(|r| r.params.tasks_per_iteration == 10 && r.params.wmin == 2)
            .collect();
        assert_summaries_agree(
            &acc.comparison_where(|p| p.tasks_per_iteration == 10 && p.wmin == 2),
            &ReferenceComparison::compute(&slice, "IE", &names),
        );
    }

    #[test]
    fn absent_reference_yields_empty_denominators() {
        let mut config = crate::campaign::CampaignConfig::smoke();
        config.heuristics = vec![HeuristicSpec::parse("RANDOM").unwrap()];
        let results = run_campaign(&config, |_, _| {});
        let mut acc = CampaignAccumulator::new(&config, "IE");
        acc.consume_scenario(0, &results.results);
        let cmp = acc.comparison();
        assert_eq!(cmp.summaries.len(), 1);
        assert_eq!(cmp.summaries[0].trials_compared, 0);
        assert_eq!(cmp.summaries[0].scenarios_compared, 0);
    }
}
