//! # dg-perfbench
//!
//! The repository's end-to-end and per-layer benchmark. Three workloads,
//! each run in one process on default settings (one campaign thread, one
//! decision thread, the event engine):
//!
//! * `table1-golden` — the paper-suite Table I campaign the golden corpus
//!   pins ([`campaign`]);
//! * `massive-2k` — a 2,000-worker `massive` campaign over IE and Y-IE
//!   ([`campaign`]);
//! * `serve-replay` — recorded decide requests replayed through the
//!   scheduling service ([`serve`]).
//!
//! Every run checks the program's outputs; `--trace 1` runs replace the
//! timed passes with untraced reference passes plus traced passes that split
//! time and work across the crates ([`trace`]). See `perfbench/README.md`.

pub mod campaign;
pub mod measure;
pub mod report;
pub mod serve;
pub mod trace;

use measure::{median, secs_since};
use report::{Metrics, END_TO_END};
use std::time::Instant;

/// The default workload seed: the campaign binaries' base seed.
pub const DEFAULT_SEED: u64 = 20130520;

/// The workloads `BENCHMARK.json` gates, in its order.
pub const WORKLOADS: [&str; 2] = [campaign::TABLE1_GOLDEN, serve::SERVE_REPLAY];

/// Every workload the benchmark runs: the gated ones plus `massive-2k`,
/// which the gate leaves out for its run time and its spread between runs
/// (see `perfbench/README.md`).
pub const ALL_WORKLOADS: [&str; 3] =
    [campaign::TABLE1_GOLDEN, serve::SERVE_REPLAY, campaign::MASSIVE_2K];

/// How long a measuring loop runs: at least `min_passes` passes, and more
/// while fewer than `seconds` have elapsed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds to keep starting passes for.
    pub seconds: f64,
    /// Passes to run regardless of time.
    pub min_passes: usize,
}

impl Budget {
    /// Half the time, at least two passes: each half of a traced run.
    pub fn half(self) -> Budget {
        Budget { seconds: self.seconds / 2.0, min_passes: 2 }
    }

    /// Whether a loop that has run `done` passes since `started`, cycling
    /// through `cycle` inputs, should run another. Every input runs at least
    /// once; after that the loop stops when the time is up, even within a
    /// cycle, since each input's passes are summarised on their own.
    pub fn wants_more(self, done: usize, cycle: usize, started: Instant) -> bool {
        done < self.min_passes.max(cycle) || secs_since(started) < self.seconds
    }
}

/// Checked items and failures, with the first few mismatches printed to
/// stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Items checked.
    pub attempted: u64,
    /// Items that failed their check.
    pub failed: u64,
}

impl Tally {
    /// Count one checked item.
    pub fn item(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, "");
        }
    }

    /// Count one failed item, showing what was expected and what came.
    pub fn mismatch(&mut self, what: &str, expected: &str, actual: &str) {
        self.attempted += 1;
        self.fail(what, &format!("\n  expected: {expected}\n  actual:   {actual}"));
    }

    /// Compare two texts line by line, one checked item per expected or
    /// actual line.
    pub fn lines(&mut self, what: &str, expected: &str, actual: &str) {
        let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
        for i in 0..e.len().max(a.len()) {
            match (e.get(i), a.get(i)) {
                (Some(want), Some(got)) if want == got => self.attempted += 1,
                (want, got) => self.mismatch(
                    &format!("{what} line {}", i + 1),
                    want.unwrap_or(&"<missing>"),
                    got.unwrap_or(&"<missing>"),
                ),
            }
        }
    }

    fn fail(&mut self, what: &str, detail: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: output check failed: {what}{detail}");
        }
    }
}

/// What one timed pass measured.
#[derive(Debug, Clone, Copy)]
pub struct PassSample {
    /// Wall-clock of the whole pass, seconds.
    pub wall_s: f64,
    /// The pass's median operation latency, seconds.
    pub op_p50_s: f64,
    /// The pass's 99th-percentile operation latency, seconds.
    pub op_p99_s: f64,
    /// Peak resident memory during the pass, MiB.
    pub rss_mb: f64,
    /// One program set-up, timed as a batch just before the pass, seconds.
    pub setup_s: f64,
    /// One [`measure::probe_work`] call, timed as a batch just before the
    /// pass, seconds.
    pub probe_s: f64,
}

impl PassSample {
    /// The host's speed just before the pass: [`measure::PROBE_REF_S`] over
    /// the probe's time. It reads 1 at the probe's reference speed and less
    /// while other tenants slow the host, and a time multiplied by it is
    /// what the pass would have taken at the reference speed.
    pub fn host_speed(&self) -> f64 {
        measure::PROBE_REF_S / self.probe_s
    }
}

/// The timed passes of a run, grouped by the input (seed) they ran. A pass
/// adds one small record, whatever its operation count.
#[derive(Debug)]
pub struct Samples {
    by_input: Vec<Vec<PassSample>>,
    walls: Vec<f64>,
}

impl Samples {
    /// No passes yet over `inputs` inputs.
    pub fn new(inputs: usize) -> Samples {
        Samples { by_input: vec![Vec::new(); inputs], walls: Vec::new() }
    }

    /// Passes recorded so far.
    pub fn passes(&self) -> usize {
        self.walls.len()
    }

    /// The input the next pass runs: passes cycle through the inputs, so
    /// every input is spread over the whole run.
    pub fn next_input(&self) -> usize {
        self.walls.len() % self.by_input.len()
    }

    /// Record a pass of input `input`.
    pub fn push(&mut self, input: usize, sample: PassSample) {
        self.walls.push(sample.wall_s);
        self.by_input[input].push(sample);
    }

    /// The wall-clock of every pass, seconds, in run order.
    pub fn into_walls(self) -> Vec<f64> {
        self.walls
    }

    /// The mean over inputs of each input's median reading of `f`: the
    /// median leaves out the passes a short burst of interference slowed
    /// further, and the mean over inputs averages out how much the inputs
    /// themselves differ.
    fn typical(&self, f: impl Fn(&PassSample) -> f64) -> f64 {
        mean(self.by_input.iter().map(|s| median(&s.iter().map(&f).collect::<Vec<_>>())))
    }
}

/// The mean of `values`.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// What a workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics to print: end-to-end, or per-layer for a traced run.
    pub metrics: Metrics,
    /// Output-check results.
    pub tally: Tally,
    /// Measured passes (the traced passes of a traced run).
    pub passes: usize,
    /// Distinct inputs the measured passes cycled through.
    pub inputs: usize,
    /// Figures printed on the run line beside the metrics, not gated (none
    /// for a traced run).
    pub notes: Vec<(&'static str, f64)>,
    /// Wall-clock of every untraced pass, seconds, in run order.
    pub untraced_walls: Vec<f64>,
}

impl Outcome {
    /// The end-to-end metrics of a run's timed passes of `ops_per_pass`
    /// operations each, every input having run at least once.
    ///
    /// Every time is first scaled by the host's speed at its pass
    /// ([`PassSample::host_speed`]): other tenants slow the whole host for
    /// seconds to minutes at a time, the program and the probe alike, so a
    /// scaled time is what the pass would have taken at the probe's
    /// reference speed. Each metric is then each input's median pass,
    /// averaged over the inputs; `ops_per_s` follows from `pass_s`.
    ///
    /// The run line notes the unscaled `pass_s`, the host's speed, and the
    /// 99th-percentile operation latency, read like `op_p50_us`. The p99 is
    /// not a metric: its spread between runs exceeds any bound the benchmark
    /// may set (see `perfbench/README.md`).
    pub fn timed(samples: Samples, ops_per_pass: usize, tally: Tally) -> Outcome {
        let scaled = |time: fn(&PassSample) -> f64| samples.typical(|s| time(s) * s.host_speed());
        let pass_s = scaled(|s| s.wall_s);
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("pass_s", pass_s);
        metrics.set("ops_per_s", ops_per_pass as f64 / pass_s);
        metrics.set("op_p50_us", scaled(|s| s.op_p50_s) * 1e6);
        metrics.set("setup_s", scaled(|s| s.setup_s));
        metrics.set("peak_rss_mb", samples.typical(|s| s.rss_mb));
        let notes = vec![
            ("raw_pass_s", samples.typical(|s| s.wall_s)),
            ("host_speed", samples.typical(PassSample::host_speed)),
            ("op_p99_us", scaled(|s| s.op_p99_s) * 1e6),
        ];
        Outcome {
            metrics,
            tally,
            passes: samples.passes(),
            inputs: samples.by_input.len(),
            notes,
            untraced_walls: samples.walls,
        }
    }

    /// Combine the traced passes of a traced run: the per-layer medians, the
    /// exact counters checked equal across passes, and the tracing overhead
    /// against the untraced passes' median wall-clock.
    pub fn traced(
        passes: Vec<Metrics>,
        traced_walls: &[f64],
        untraced_walls: Vec<f64>,
        mut tally: Tally,
    ) -> Outcome {
        let first = passes[0].exact_counters();
        for (i, pass) in passes.iter().enumerate().skip(1) {
            for ((name, want), (_, got)) in first.iter().zip(pass.exact_counters()) {
                if *want == got {
                    tally.attempted += 1;
                } else {
                    let what = format!("traced pass {} counter {name}", i + 1);
                    tally.mismatch(&what, &want.to_string(), &got.to_string());
                }
            }
        }
        let mut metrics = Metrics::median_of(&passes);
        let overhead = median(traced_walls) / median(&untraced_walls) - 1.0;
        metrics.set("trace.overhead_pct", 100.0 * overhead);
        Outcome {
            metrics,
            tally,
            passes: passes.len(),
            inputs: 1,
            notes: Vec::new(),
            untraced_walls,
        }
    }
}

/// Run `workload` for `seconds` seconds.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let budget = Budget { seconds, min_passes: 3 };
    match workload {
        serve::SERVE_REPLAY => serve::run_workload(seed, budget, trace),
        _ => campaign::run_workload(workload, seed, budget, trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass whose times are all `time` times those of a one-second pass.
    fn sample(time: f64, probe_s: f64) -> PassSample {
        PassSample {
            wall_s: time,
            op_p50_s: 0.1 * time,
            op_p99_s: 0.2 * time,
            rss_mb: 8.0 * time,
            setup_s: 1e-6 * time,
            probe_s,
        }
    }

    #[test]
    fn timed_metrics_scale_each_pass_by_the_host_speed_before_it() {
        // Each input runs twice at the reference speed and once with the
        // host at half of it, which doubles every time of that pass.
        let (fast, slow) = (measure::PROBE_REF_S, 2.0 * measure::PROBE_REF_S);
        let mut samples = Samples::new(2);
        for (input, time, probe_s) in
            [(0, 1.0, fast), (1, 6.0, slow), (0, 2.0, slow), (1, 3.0, fast), (0, 1.5, fast)]
        {
            samples.push(input, sample(time, probe_s));
        }
        samples.push(1, sample(2.0, fast));
        let outcome = Outcome::timed(samples, 4, Tally::default());
        let m = &outcome.metrics;
        // Scaled passes: input 0 reads 1.0, 1.0 and 1.5; input 1 reads 3.0,
        // 3.0 and 2.0. Their medians, 1.0 and 3.0, average to 2.0.
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want;
        assert!(close(m.get("pass_s"), 2.0), "{m:?}");
        assert!(close(m.get("ops_per_s"), 2.0), "{m:?}");
        assert!(close(m.get("op_p50_us"), 0.2e6), "{m:?}");
        assert!(close(m.get("setup_s"), 2e-6), "{m:?}");
        // Memory is not scaled: input 0 reads 8, 16, 12; input 1 48, 24, 16.
        assert!(close(m.get("peak_rss_mb"), 18.0), "{m:?}");
        let notes = &outcome.notes;
        assert!(notes.contains(&("raw_pass_s", 2.25)), "{notes:?}");
        assert!(notes.contains(&("host_speed", 1.0)), "{notes:?}");
        assert!(close(notes[2].1, 0.4e6), "{notes:?}");
        assert_eq!((outcome.passes, outcome.inputs), (6, 2));
    }
}
