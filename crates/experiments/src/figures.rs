//! The `%diff` vs `wmin` series of the paper's Figure 2.

use crate::campaign::CampaignResults;
use crate::metrics::ReferenceComparison;
use serde::{Deserialize, Serialize};

/// The eight heuristics plotted in the paper's Figure 2 (those Table II
/// reports).
pub const FIGURE2_HEURISTICS: [&str; 8] =
    ["E-IAY", "E-IP", "E-IY", "IAY", "IE", "IY", "P-IE", "Y-IE"];

/// One heuristic's `%diff` values across the `wmin` sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Paper name of the heuristic.
    pub heuristic: String,
    /// `(wmin, %diff)` points, ordered by increasing `wmin`. A missing value
    /// (no scenario where both the heuristic and the reference succeeded)
    /// is reported as `None`.
    pub points: Vec<(u64, Option<f64>)>,
}

/// The full figure: one series per heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Name of the reference heuristic.
    pub reference: String,
    /// Number of tasks per iteration the figure is restricted to.
    pub m: usize,
    /// One series per heuristic, in the requested order.
    pub series: Vec<FigureSeries>,
}

impl Figure {
    /// Compute the Figure 2 data: for each `wmin` value of the campaign, the
    /// `%diff` (vs `reference`) of every heuristic in `heuristics`, restricted
    /// to experiment points with `m` tasks per iteration.
    pub fn compute(
        results: &CampaignResults,
        m: usize,
        reference: &str,
        heuristics: &[String],
    ) -> Figure {
        let wmins = {
            let mut w = results.config.wmin_values.clone();
            w.sort_unstable();
            w.dedup();
            w
        };
        let mut series: Vec<FigureSeries> = heuristics
            .iter()
            .map(|h| FigureSeries { heuristic: h.clone(), points: Vec::new() })
            .collect();
        for &wmin in &wmins {
            let subset: Vec<_> = results
                .results
                .iter()
                .filter(|r| r.params.tasks_per_iteration == m && r.params.wmin == wmin)
                .collect();
            let cmp = ReferenceComparison::compute(&subset, reference, heuristics);
            for s in series.iter_mut() {
                let value = cmp
                    .summary_of(&s.heuristic)
                    .filter(|row| row.scenarios_compared > 0)
                    .map(|row| row.pct_diff);
                s.points.push((wmin, value));
            }
        }
        Figure { reference: reference.to_string(), m, series }
    }

    /// Render the figure as a text table: one row per `wmin`, one column per
    /// heuristic (this is the tabular equivalent of the paper's line plot).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "%diff vs wmin (m = {} tasks, reference = {})\n",
            self.m, self.reference
        ));
        out.push_str(&format!("{:<6}", "wmin"));
        for s in &self.series {
            out.push_str(&format!(" {:>9}", s.heuristic));
        }
        out.push('\n');
        let num_rows = self.series.first().map_or(0, |s| s.points.len());
        for i in 0..num_rows {
            let wmin = self.series[0].points[i].0;
            out.push_str(&format!("{:<6}", wmin));
            for s in &self.series {
                match s.points[i].1 {
                    Some(v) => out.push_str(&format!(" {:>9.2}", v)),
                    None => out.push_str(&format!(" {:>9}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render the figure as CSV (`wmin,heuristic,pct_diff`), convenient for
    /// external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("wmin,heuristic,pct_diff\n");
        for s in &self.series {
            for &(wmin, v) in &s.points {
                match v {
                    Some(v) => out.push_str(&format!("{wmin},{},{v:.4}\n", s.heuristic)),
                    None => out.push_str(&format!("{wmin},{},\n", s.heuristic)),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, InstanceResult};
    use dg_platform::ScenarioParams;
    use dg_sim::{SimOutcome, SimStats};

    fn result(heuristic: &str, wmin: u64, makespan: u64) -> InstanceResult {
        InstanceResult {
            params: ScenarioParams { wmin, ..ScenarioParams::paper(10, 10, wmin) },
            scenario_index: 0,
            trial_index: 0,
            heuristic: heuristic.to_string(),
            outcome: SimOutcome {
                completed_iterations: 10,
                target_iterations: 10,
                makespan: Some(makespan),
                simulated_slots: makespan,
                stats: SimStats::default(),
            },
        }
    }

    fn campaign(results: Vec<InstanceResult>, wmins: Vec<u64>) -> CampaignResults {
        let mut config = CampaignConfig::smoke();
        config.wmin_values = wmins;
        CampaignResults { config, results }
    }

    #[test]
    fn figure_series_tracks_wmin() {
        let results = campaign(
            vec![
                result("IE", 1, 100),
                result("H", 1, 80),
                result("IE", 2, 100),
                result("H", 2, 130),
            ],
            vec![1, 2],
        );
        let fig = Figure::compute(&results, 10, "IE", &["IE".to_string(), "H".to_string()]);
        assert_eq!(fig.series.len(), 2);
        let h = &fig.series[1];
        assert_eq!(h.points.len(), 2);
        assert!((h.points[0].1.unwrap() - (-25.0)).abs() < 1e-9);
        assert!((h.points[1].1.unwrap() - 30.0).abs() < 1e-9);
        let text = fig.render();
        assert!(text.contains("wmin"));
        assert!(text.contains("-25.00"));
        let csv = fig.to_csv();
        assert!(csv.starts_with("wmin,heuristic,pct_diff"));
        assert!(csv.contains("2,H,30.0000"));
    }

    #[test]
    fn missing_data_rendered_as_dash() {
        // H has no run at wmin=2.
        let results = campaign(
            vec![result("IE", 1, 100), result("H", 1, 90), result("IE", 2, 100)],
            vec![1, 2],
        );
        let fig = Figure::compute(&results, 10, "IE", &["H".to_string()]);
        assert_eq!(fig.series[0].points[1].1, None);
        assert!(fig.render().contains('-'));
    }
}
