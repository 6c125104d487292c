//! Streaming (online) accumulators for campaign-scale result reduction.
//!
//! The paper's tables aggregate thousands of `(scenario, trial, heuristic)`
//! makespans into five numbers per heuristic (`#fails`, `%diff`, `%wins`,
//! `%wins30`, `stdv`). Computing them from a retained `Vec` of every result
//! costs O(instances) memory; these accumulators reduce each **trial** as it
//! completes and each **scenario** as its last trial completes, so a campaign
//! only ever holds O(points × heuristics) accumulator state.
//!
//! The pieces compose bottom-up:
//!
//! * [`ScenarioAccumulator`] — within one scenario, sums the makespans of a
//!   heuristic and of the reference over the trials where **both** succeed,
//!   and yields the paper's per-scenario relative difference;
//! * [`TrialTally`] — per-trial win/fail accounting against the reference
//!   (`#fails`, `%wins`, `%wins30` numerators and denominators);
//! * [`OnlineStats`] — Welford's online mean/standard deviation over the
//!   per-scenario relative differences, with a numerically stable merge
//!   (Chan's parallel update) so per-point accumulators can be combined into
//!   table- or figure-level summaries;
//! * [`StreamingComparison`] — one heuristic's `(TrialTally, OnlineStats)`
//!   pair, the per-`(point, heuristic)` cell a campaign keeps.

/// Welford online mean / standard deviation accumulator.
///
/// `push` is the classic single-pass update; `merge` combines two
/// accumulators exactly as if every sample had been pushed into one (up to
/// floating-point rounding), enabling per-point accumulation followed by
/// per-table merging.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Absorb another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 when empty, matching the batch metrics code).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (`n − 1` denominator; 0 below two samples).
    pub fn sample_stdev(&self) -> f64 {
        if self.count > 1 {
            (self.m2 / (self.count as f64 - 1.0)).max(0.0).sqrt()
        } else {
            0.0
        }
    }
}

/// Per-trial win/fail accounting of one heuristic against the reference.
///
/// Mirrors the batch metrics semantics exactly: a heuristic's failed trial
/// always counts toward `fails`; trials only enter the `%wins` denominators
/// when the **reference** succeeded on that trial; a failed heuristic run on
/// a reference-successful trial is a loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialTally {
    /// Trials in which the heuristic did not complete (`#fails`).
    pub fails: u64,
    /// Trials where both ran and the reference succeeded (the denominator).
    pub trials_compared: u64,
    /// Trials won: heuristic makespan ≤ reference makespan.
    pub wins: u64,
    /// Trials within +30 %: heuristic makespan ≤ 1.3 × reference makespan.
    pub wins30: u64,
}

impl TrialTally {
    /// Record one trial: the heuristic's makespan (`None` = failed run) and
    /// the reference's makespan on the same trial (`None` = the reference
    /// failed or did not run).
    pub fn record(&mut self, heuristic: Option<u64>, reference: Option<u64>) {
        if heuristic.is_none() {
            self.fails += 1;
        }
        let Some(r) = reference else { return };
        self.trials_compared += 1;
        if let Some(h) = heuristic {
            if h <= r {
                self.wins += 1;
            }
            if h as f64 <= 1.3 * r as f64 {
                self.wins30 += 1;
            }
        }
    }

    /// Absorb another tally.
    pub fn merge(&mut self, other: &TrialTally) {
        self.fails += other.fails;
        self.trials_compared += other.trials_compared;
        self.wins += other.wins;
        self.wins30 += other.wins30;
    }

    /// `%wins` in percent (0 when nothing was compared).
    pub fn pct_wins(&self) -> f64 {
        percent(self.wins, self.trials_compared)
    }

    /// `%wins30` in percent (0 when nothing was compared).
    pub fn pct_wins30(&self) -> f64 {
        percent(self.wins30, self.trials_compared)
    }
}

fn percent(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        100.0 * num as f64 / denom as f64
    }
}

/// Within-scenario makespan sums of one heuristic vs the reference, over the
/// trials where both succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioAccumulator {
    h_sum: f64,
    r_sum: f64,
    joint: u64,
}

impl ScenarioAccumulator {
    /// An empty scenario accumulator.
    pub fn new() -> Self {
        ScenarioAccumulator::default()
    }

    /// Record one trial of the scenario; only jointly successful trials
    /// contribute to the per-scenario averages.
    pub fn record(&mut self, heuristic: Option<u64>, reference: Option<u64>) {
        if let (Some(h), Some(r)) = (heuristic, reference) {
            self.h_sum += h as f64;
            self.r_sum += r as f64;
            self.joint += 1;
        }
    }

    /// The paper's per-scenario relative difference
    /// `(avg_H − avg_R) / min(avg_H, avg_R)`, or `None` when no trial had
    /// both runs succeed.
    pub fn relative_difference(&self) -> Option<f64> {
        if self.joint == 0 {
            return None;
        }
        let avg_h = self.h_sum / self.joint as f64;
        let avg_r = self.r_sum / self.joint as f64;
        Some((avg_h - avg_r) / avg_h.min(avg_r).max(f64::MIN_POSITIVE))
    }
}

/// One heuristic's full streaming comparison against the reference: the
/// per-`(point, heuristic)` cell of a campaign accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingComparison {
    /// Per-trial win/fail accounting.
    pub tally: TrialTally,
    /// Online statistics over the per-scenario relative differences.
    pub rel: OnlineStats,
}

impl StreamingComparison {
    /// An empty comparison cell.
    pub fn new() -> Self {
        StreamingComparison::default()
    }

    /// Fold a completed scenario in: its trial-level tally contributions must
    /// already be in `self.tally`; this only pushes the scenario's relative
    /// difference (when defined).
    pub fn finish_scenario(&mut self, scenario: &ScenarioAccumulator) {
        if let Some(rel) = scenario.relative_difference() {
            self.rel.push(rel);
        }
    }

    /// Absorb another cell (e.g. merge all points of a table subset).
    pub fn merge(&mut self, other: &StreamingComparison) {
        self.tally.merge(&other.tally);
        self.rel.merge(&other.rel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_stdev(xs: &[f64]) -> (f64, f64) {
        let n = xs.len();
        let mean = if n > 0 { xs.iter().sum::<f64>() / n as f64 } else { 0.0 };
        let stdev = if n > 1 {
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)).sqrt()
        } else {
            0.0
        };
        (mean, stdev)
    }

    #[test]
    fn online_stats_match_naive_two_pass() {
        let xs: Vec<f64> = (0..257).map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0).collect();
        let mut s = OnlineStats::default();
        for &x in &xs {
            s.push(x);
        }
        let (mean, stdev) = naive_mean_stdev(&xs);
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_stdev() - stdev).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::default();
        for &x in &xs {
            whole.push(x);
        }
        for split in [0, 1, 37, 99, 100] {
            let (a, b) = xs.split_at(split);
            let mut left = OnlineStats::default();
            let mut right = OnlineStats::default();
            a.iter().for_each(|&x| left.push(x));
            b.iter().for_each(|&x| right.push(x));
            left.merge(&right);
            assert_eq!(left.count(), whole.count());
            assert!((left.mean() - whole.mean()).abs() < 1e-12, "split {split}");
            assert!((left.sample_stdev() - whole.sample_stdev()).abs() < 1e-12, "split {split}");
        }
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let s = OnlineStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_stdev(), 0.0);
        let mut one = OnlineStats::default();
        one.push(4.2);
        assert!((one.mean() - 4.2).abs() < 1e-15);
        assert_eq!(one.sample_stdev(), 0.0);
    }

    #[test]
    fn tally_mirrors_batch_semantics() {
        let mut t = TrialTally::default();
        // Win, 30%-window win, loss outside the window.
        t.record(Some(90), Some(100));
        t.record(Some(120), Some(100));
        t.record(Some(200), Some(100));
        // Heuristic failed on a reference-successful trial: fail + loss.
        t.record(None, Some(100));
        // Reference failed: the heuristic's failure still counts as a fail,
        // but the trial never enters the comparison denominators.
        t.record(None, None);
        t.record(Some(50), None);
        assert_eq!(t.fails, 2);
        assert_eq!(t.trials_compared, 4);
        assert_eq!(t.wins, 1);
        assert_eq!(t.wins30, 2);
        assert!((t.pct_wins() - 25.0).abs() < 1e-12);
        assert!((t.pct_wins30() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn tally_boundaries_are_inclusive() {
        let mut t = TrialTally::default();
        t.record(Some(100), Some(100)); // tie is a win
        t.record(Some(130), Some(100)); // exactly +30% is a wins30
        assert_eq!(t.wins, 1);
        assert_eq!(t.wins30, 2);
    }

    #[test]
    fn scenario_accumulator_computes_paper_relative_difference() {
        let mut s = ScenarioAccumulator::new();
        assert_eq!(s.relative_difference(), None);
        s.record(Some(80), Some(100));
        s.record(Some(80), Some(100));
        s.record(None, Some(100)); // not joint: ignored by the averages
        s.record(Some(9), None);
        assert_eq!(s.joint, 2);
        // (80 - 100) / min(80, 100) = -0.25
        assert!((s.relative_difference().unwrap() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn streaming_comparison_merges_cells() {
        let mut a = StreamingComparison::new();
        a.tally.record(Some(90), Some(100));
        let mut sc = ScenarioAccumulator::new();
        sc.record(Some(90), Some(100));
        a.finish_scenario(&sc);

        let mut b = StreamingComparison::new();
        b.tally.record(Some(150), Some(100));
        let mut sc = ScenarioAccumulator::new();
        sc.record(Some(150), Some(100));
        b.finish_scenario(&sc);

        a.merge(&b);
        assert_eq!(a.tally.trials_compared, 2);
        assert_eq!(a.rel.count(), 2);
        // rels: (90-100)/90 and (150-100)/100.
        let expected = ((90.0 - 100.0) / 90.0 + 0.5) / 2.0;
        assert!((a.rel.mean() - expected).abs() < 1e-12);
    }
}
