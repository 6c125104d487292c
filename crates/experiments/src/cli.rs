//! Command-line parsing and the launch sequence shared by the experiment
//! binaries.
//!
//! A sweep binary is a shape (which `m`, which heuristics) and a renderer
//! over [`launch`], which parses the flags, builds and checks the campaign,
//! prints the banner, runs the sweep through [`run_distributed`] and prints
//! the store and counter lines; an option error exits 2 with its message
//! ([`or_exit`]). The binaries print their output through [`print()`], which
//! ends the process quietly when the reader closes stdout.
//!
//! The binaries accept a small set of flags controlling the campaign scale:
//!
//! ```text
//! --scenarios N    scenarios per (m, ncom, wmin) point       [default 3]
//! --trials N       availability realizations per scenario    [default 3]
//! --cap N          slot cap per run                          [default 200000]
//! --suite S        scenario suite: a preset name (paper,
//!                  volatile, largegrid, commbound, massive,
//!                  colossal)
//!                  or a suite file path                      [default paper]
//! --workers N      platform size override (e.g. a reduced
//!                  massive smoke run)                        [default: suite's]
//! --ncom LIST      comma-separated ncom values               [default: suite's]
//! --wmin LIST      comma-separated wmin values               [default: suite's]
//! --heuristics L   comma-separated heuristic names to run
//!                  (paper names, e.g. IE,IAY,Y-IE)           [default: the binary's list]
//! --threads N      worker threads, 0 = auto-detect           [default 1]
//! --decision-threads N  scoped threads inside each scheduling
//!                  decision (the chunked candidate scan),
//!                  byte-identical on every value;
//!                  0 = auto-detect                            [default 1]
//! --seed N         master seed                               [default 20130520]
//! --engine MODE    simulation engine: event | slot           [default event]
//! --out DIR        write manifest + JSONL shards to DIR as
//!                  experiment points complete
//! --resume         skip instances already present in --out
//! --worker-shard I/N  execute only shard I of an N-way point
//!                  split into the shared --out directory,
//!                  recording manifest.part-I.json (see
//!                  [`crate::distrib`])
//! --spawn-workers N   coordinator mode: spawn N worker-shard
//!                  child processes of this binary, wait, merge
//!                  their parts into manifest.json, then render
//! --full           the paper's full scale (10×10, cap 10⁶)
//! --quiet          suppress progress output
//! ```

use crate::campaign::{run_count, CampaignConfig};
use crate::distrib::{run_distributed, DistribOutcome, WorkerShard};
use crate::executor::{
    config_fingerprint, resolve_threads, run_campaign_with, CampaignOutcome, ExecutorOptions,
    ExecutorStats, DEFAULT_REFERENCE,
};
use crate::gap::{gap_fingerprint, run_gap_with, GapOutcome};
use crate::sensitivity::{run_sensitivity_with, sensitivity_fingerprint, SensitivityOutcome};
use crate::suite::{SuiteSpec, MAX_TRIALS};
use dg_heuristics::{parse_heuristic_named, HeuristicSpec};
use dg_sim::SimMode;
use std::io::Write;
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Scenarios per experiment point.
    pub scenarios: usize,
    /// Trials per scenario.
    pub trials: usize,
    /// Slot cap per run.
    pub max_slots: u64,
    /// Scenario suite (`--suite NAME|FILE`); `None` = the `paper` preset.
    pub suite: Option<String>,
    /// Platform-size override (`--workers N`); `None` = the suite's size.
    pub workers: Option<usize>,
    /// `ncom` values to sweep; `None` = the suite's values.
    pub ncom_values: Option<Vec<usize>>,
    /// `wmin` values to sweep; `None` = the suite's values.
    pub wmin_values: Option<Vec<u64>>,
    /// Heuristics to run (`--heuristics NAME[,NAME…]`, validated against the
    /// registry); `None` = the binary's default list (all 17 for the table
    /// binaries).
    pub heuristics: Option<Vec<HeuristicSpec>>,
    /// Worker threads (`--threads 0` = auto-detect available parallelism).
    pub threads: usize,
    /// Scoped threads inside each scheduling decision
    /// (`--decision-threads 0` = auto-detect). Orthogonal to `threads`
    /// (which parallelizes *across* jobs): this parallelizes the candidate
    /// scan *within* one decision, with byte-identical results.
    pub decision_threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulation engine mode (`--engine slot|event`).
    pub engine: SimMode,
    /// Artifact store directory (`--out`).
    pub out: Option<PathBuf>,
    /// Resume from the artifact store (`--resume`; requires `--out`).
    pub resume: bool,
    /// Execute only one shard of an N-way point split
    /// (`--worker-shard I/N`; requires `--out`, 1-based index).
    pub worker_shard: Option<(usize, usize)>,
    /// Coordinator mode (`--spawn-workers N`; requires `--out`): spawn N
    /// worker-shard child processes, wait, merge, render.
    pub spawn_workers: Option<usize>,
    /// Suppress progress output.
    pub quiet: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scenarios: 3,
            trials: 3,
            max_slots: 200_000,
            suite: None,
            workers: None,
            ncom_values: None,
            wmin_values: None,
            heuristics: None,
            threads: 1,
            decision_threads: 1,
            seed: 20130520,
            engine: SimMode::default(),
            out: None,
            resume: false,
            worker_shard: None,
            spawn_workers: None,
            quiet: false,
        }
    }
}

impl CliOptions {
    /// Parse options from an argument iterator (excluding the program name).
    pub fn parse<I, S>(args: I) -> Result<CliOptions, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = CliOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut take = |name: &str| -> Result<String, String> {
                iter.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg {
                "--scenarios" => opts.scenarios = parse_num(&take(arg)?, arg)?,
                "--trials" => opts.trials = parse_num(&take(arg)?, arg)?,
                "--cap" => opts.max_slots = parse_num(&take(arg)?, arg)?,
                "--threads" => opts.threads = parse_num(&take(arg)?, arg)?,
                "--decision-threads" => opts.decision_threads = parse_num(&take(arg)?, arg)?,
                "--seed" => opts.seed = parse_num(&take(arg)?, arg)?,
                "--suite" => opts.suite = Some(take(arg)?),
                "--workers" => opts.workers = Some(parse_num(&take(arg)?, arg)?),
                "--ncom" => opts.ncom_values = Some(parse_list(&take(arg)?, arg)?),
                "--engine" => opts.engine = take(arg)?.parse()?,
                "--wmin" => opts.wmin_values = Some(parse_list(&take(arg)?, arg)?),
                "--heuristics" => opts.heuristics = Some(parse_heuristics(&take(arg)?)?),
                "--out" => opts.out = Some(PathBuf::from(take(arg)?)),
                "--resume" => opts.resume = true,
                "--worker-shard" => opts.worker_shard = Some(parse_shard(&take(arg)?)?),
                "--spawn-workers" => opts.spawn_workers = Some(parse_num(&take(arg)?, arg)?),
                "--full" => {
                    opts.scenarios = 10;
                    opts.trials = 10;
                    opts.max_slots = 1_000_000;
                }
                "--quiet" => opts.quiet = true,
                "--help" | "-h" => return Err(help_text()),
                other => return Err(format!("unknown argument '{other}'\n{}", help_text())),
            }
        }
        if opts.scenarios == 0 || opts.trials == 0 {
            return Err("--scenarios and --trials must be positive".to_string());
        }
        if opts.trials > MAX_TRIALS {
            return Err(format!(
                "--trials {} is too large: a campaign accepts --trials up to {MAX_TRIALS}",
                opts.trials
            ));
        }
        if opts.max_slots == 0 {
            return Err("--cap must be positive".to_string());
        }
        if opts.resume && opts.out.is_none() {
            return Err("--resume requires --out".to_string());
        }
        if opts.workers == Some(0) {
            return Err("--workers must be positive".to_string());
        }
        if opts.worker_shard.is_some() && opts.spawn_workers.is_some() {
            return Err("--worker-shard and --spawn-workers cannot be combined \
                        (a process is either a worker or the coordinator)"
                .to_string());
        }
        if let Some((index, total)) = opts.worker_shard {
            if total == 0 {
                return Err("--worker-shard: the shard count must be positive".to_string());
            }
            if index == 0 {
                return Err(format!("--worker-shard {index}/{total}: shards are numbered from 1"));
            }
            if index > total {
                return Err(format!(
                    "--worker-shard {index}/{total}: index exceeds the shard count"
                ));
            }
            if opts.out.is_none() {
                return Err(
                    "--worker-shard requires --out (workers share one store directory)".to_string()
                );
            }
        }
        if let Some(n) = opts.spawn_workers {
            if n == 0 {
                return Err("--spawn-workers must be positive".to_string());
            }
            if opts.out.is_none() {
                return Err("--spawn-workers requires --out (workers share one store directory)"
                    .to_string());
            }
        }
        Ok(opts)
    }

    /// Parse options from the process arguments.
    pub fn from_env() -> Result<CliOptions, String> {
        CliOptions::parse(std::env::args().skip(1))
    }

    /// Resolve the selected scenario suite: the `paper` preset unless
    /// `--suite NAME|FILE` was given, with `--workers`, `--ncom` and `--wmin`
    /// replacing the suite's platform size and sweeps. Fails on an unknown
    /// preset name, an unreadable/invalid suite file, or overrides the suite
    /// file format would refuse (a zero or empty sweep).
    pub fn suite(&self) -> Result<SuiteSpec, String> {
        let mut suite = match &self.suite {
            None => SuiteSpec::paper(),
            Some(arg) => SuiteSpec::resolve(arg)?,
        };
        if let Some(workers) = self.workers {
            suite.workers = workers;
        }
        if let Some(ncom) = &self.ncom_values {
            suite.ncom_values = ncom.clone();
        }
        if let Some(wmin) = &self.wmin_values {
            suite.wmin_values = wmin.clone();
        }
        suite.validate()?;
        Ok(suite)
    }

    /// Build a campaign configuration from these options: the
    /// [`CliOptions::suite`] supplies the axes and generator model,
    /// `--heuristics` restricts the heuristic list, and the scale/seed/engine
    /// flags apply on top. Fails where [`CliOptions::suite`] fails, and when
    /// the campaign's run count does not fit in `usize`
    /// ([`crate::campaign::run_count`]); the binaries that narrow the
    /// campaign afterwards only shrink that count.
    pub fn campaign(&self) -> Result<CampaignConfig, String> {
        let mut config = self.suite()?.campaign(self.scenarios, self.trials, self.max_slots);
        if let Some(heuristics) = &self.heuristics {
            config.heuristics = heuristics.clone();
        }
        config.base_seed = self.seed;
        config.threads = self.threads;
        config.engine = self.engine;
        config.checked_total_runs()?;
        Ok(config)
    }

    /// Resolve a binary's heuristic list: the `--heuristics` override when
    /// given, otherwise `defaults` (paper names, e.g. a figure's plotted
    /// subset).
    pub fn heuristics_or(&self, defaults: &[&str]) -> Vec<HeuristicSpec> {
        match &self.heuristics {
            Some(specs) => specs.clone(),
            None => defaults
                .iter()
                .map(|n| HeuristicSpec::parse(n).expect("default heuristic name"))
                .collect(),
        }
    }

    /// Fail when a `--heuristics` override omits `reference` — every `%diff`,
    /// `%wins` and figure series the binaries print is computed against the
    /// reference heuristic's runs, so a campaign without them would render a
    /// plausible-looking but meaningless table of zeros.
    pub fn require_reference(&self, reference: &str) -> Result<(), String> {
        match &self.heuristics {
            Some(specs) if !specs.iter().any(|h| h.name() == reference) => Err(format!(
                "--heuristics must include the reference heuristic {reference} \
                 (all %diff/%wins output is computed against it)"
            )),
            _ => Ok(()),
        }
    }

    /// Build the executor options (raw retention on — the binaries' table and
    /// figure code consumes retained results — plus `--out`/`--resume` and
    /// the `--worker-shard` point-range restriction).
    pub fn executor(&self) -> ExecutorOptions {
        let mut options =
            ExecutorOptions::new().retain_raw(true).decision_threads(self.decision_threads);
        if let Some(dir) = &self.out {
            options = options.store(dir.clone(), self.resume);
        }
        if let Some((index, total)) = self.worker_shard {
            options =
                options.worker_shard(WorkerShard::new(index, total).expect("validated by parse"));
        }
        options
    }

    /// Worker-shard child `index`'s share of the coordinator's thread budget:
    /// the **resolved** budget (`--threads 0` auto-detects the host's
    /// parallelism once, in the coordinator) divided into `total` balanced
    /// shares of at least one thread each. Passing the raw `--threads` value
    /// through would make every child resolve `0` to *all* host CPUs and
    /// oversubscribe the box `total`×; dividing here keeps the children's
    /// combined worker threads equal to the budget the user asked for.
    pub fn worker_threads(&self, index: usize, total: usize) -> usize {
        let budget = crate::executor::resolve_threads(self.threads);
        (index * budget / total - (index - 1) * budget / total).max(1)
    }

    /// Reconstruct the argument vector a coordinator passes to worker-shard
    /// child `index` of `total`: every result-determining flag of this
    /// invocation, plus `--worker-shard index/total` and a forced `--quiet`
    /// (N children interleaving progress lines is unreadable). Excludes
    /// `--spawn-workers` (the child is a worker, not a coordinator) and
    /// `--full` (already expanded into scenarios/trials/cap at parse time).
    /// `--threads` carries the child's [`CliOptions::worker_threads`] share of
    /// the resolved budget — never a literal `0` — so parsing the result
    /// round-trips to these options with the shard and the child's thread
    /// share set.
    pub fn worker_args(&self, index: usize, total: usize) -> Vec<String> {
        let mut args: Vec<String> = [
            ("--scenarios", self.scenarios.to_string()),
            ("--trials", self.trials.to_string()),
            ("--cap", self.max_slots.to_string()),
            ("--threads", self.worker_threads(index, total).to_string()),
            ("--decision-threads", self.decision_threads.to_string()),
            ("--seed", self.seed.to_string()),
            ("--engine", self.engine.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect();
        if let Some(suite) = &self.suite {
            args.extend(["--suite".to_string(), suite.clone()]);
        }
        if let Some(workers) = self.workers {
            args.extend(["--workers".to_string(), workers.to_string()]);
        }
        if let Some(ncom) = &self.ncom_values {
            args.extend(["--ncom".to_string(), crate::executor::join(ncom)]);
        }
        if let Some(wmin) = &self.wmin_values {
            args.extend(["--wmin".to_string(), crate::executor::join(wmin)]);
        }
        if let Some(heuristics) = &self.heuristics {
            let names: Vec<String> = heuristics.iter().map(|h| h.name()).collect();
            args.extend(["--heuristics".to_string(), names.join(",")]);
        }
        if let Some(out) = &self.out {
            args.extend(["--out".to_string(), out.display().to_string()]);
        }
        if self.resume {
            args.push("--resume".to_string());
        }
        args.extend(["--worker-shard".to_string(), format!("{index}/{total}")]);
        args.push("--quiet".to_string());
        args
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value '{value}' for {flag}"))
}

/// Parse a `--worker-shard I/N` value into `(index, total)`; range checks
/// happen with the other cross-flag validation at the end of `parse`.
fn parse_shard(value: &str) -> Result<(usize, usize), String> {
    let err = || format!("invalid value '{value}' for --worker-shard (expected I/N, e.g. 2/4)");
    let (index, total) = value.split_once('/').ok_or_else(err)?;
    Ok((index.trim().parse().map_err(|_| err())?, total.trim().parse().map_err(|_| err())?))
}

fn parse_list<T: std::str::FromStr>(value: &str, flag: &str) -> Result<Vec<T>, String> {
    value.split(',').filter(|s| !s.is_empty()).map(|s| parse_num(s.trim(), flag)).collect()
}

/// Parse a `--heuristics` list, validating every name against the registry.
/// Unknown names fail with the full list of valid paper names; duplicates are
/// rejected (they would run the same instances twice and corrupt the
/// canonical result layout).
fn parse_heuristics(value: &str) -> Result<Vec<HeuristicSpec>, String> {
    let mut specs: Vec<HeuristicSpec> = Vec::new();
    for name in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let spec =
            parse_heuristic_named(name).map_err(|err| format!("{err} (for --heuristics)"))?;
        if specs.contains(&spec) {
            return Err(format!("duplicate heuristic '{}' in --heuristics", spec.name()));
        }
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err("--heuristics needs at least one name".to_string());
    }
    Ok(specs)
}

fn help_text() -> String {
    "usage: <binary> [--scenarios N] [--trials N] [--cap N] \
     [--suite paper|volatile|largegrid|commbound|massive|colossal|FILE] [--workers N] \
     [--ncom a,b,c] [--wmin a,b,c] [--heuristics NAME[,NAME...]] \
     [--threads N (0 = auto)] [--decision-threads N (0 = auto)] [--seed N] \
     [--engine slot|event] [--out DIR] \
     [--resume] [--worker-shard I/N] [--spawn-workers N] [--full] [--quiet]"
        .to_string()
}

/// The sweep binaries' progress reporter: prints every ~1 % of runs to stderr
/// unless `quiet` is set.
fn progress_reporter(quiet: bool) -> impl Fn(usize, usize) + Sync {
    move |done, total| {
        if quiet {
            return;
        }
        let step = (total / 100).max(1);
        if done % step == 0 || done == total {
            eprint!("\r  {done}/{total} runs");
            if done == total {
                eprintln!();
            }
        }
    }
}

/// A sweep [`launch`] can run over a [`CampaignConfig`]: the campaign
/// ([`CampaignOutcome`]), the optimality gap ([`GapOutcome`]) or the
/// sensitivity study ([`SensitivityOutcome`]).
pub trait SweepOutcome: Sized {
    /// Availability arms run per `(trial, heuristic)`.
    const ARMS: usize = 1;
    /// What the banner counts.
    const RUNS: &'static str = "runs";
    /// What the artifacts line counts as resumed and executed.
    const UNIT: &'static str = "instances";
    /// Whether `--heuristics` must include the reference heuristic
    /// ([`CliOptions::require_reference`]).
    const REFERENCE: bool = true;
    /// The store fingerprint of the sweep over `config`.
    fn fingerprint(config: &CampaignConfig) -> String;
    /// Run the sweep over `config` under `options`, reporting progress on
    /// stderr unless `quiet`.
    fn run(config: &CampaignConfig, options: &ExecutorOptions, quiet: bool)
        -> Result<Self, String>;
    /// The sweep kernel's counters.
    fn stats(&self) -> &ExecutorStats;
    /// The closing counter line.
    fn summary(&self) -> String {
        self.stats().eval_cache_summary()
    }
}

impl SweepOutcome for CampaignOutcome {
    fn fingerprint(config: &CampaignConfig) -> String {
        config_fingerprint(config)
    }
    fn run(
        config: &CampaignConfig,
        options: &ExecutorOptions,
        quiet: bool,
    ) -> Result<Self, String> {
        run_campaign_with(config, options, progress_reporter(quiet))
    }
    fn stats(&self) -> &ExecutorStats {
        &self.stats
    }
}

impl SweepOutcome for GapOutcome {
    const RUNS: &'static str = "comparisons";
    const UNIT: &'static str = "comparisons";
    const REFERENCE: bool = false;
    fn fingerprint(config: &CampaignConfig) -> String {
        gap_fingerprint(config)
    }
    fn run(
        config: &CampaignConfig,
        options: &ExecutorOptions,
        quiet: bool,
    ) -> Result<Self, String> {
        run_gap_with(config, options, progress_reporter(quiet))
    }
    fn stats(&self) -> &ExecutorStats {
        &self.stats
    }
    fn summary(&self) -> String {
        self.oracle_summary()
    }
}

impl SweepOutcome for SensitivityOutcome {
    const ARMS: usize = 2;
    fn fingerprint(config: &CampaignConfig) -> String {
        sensitivity_fingerprint(config)
    }
    fn run(
        config: &CampaignConfig,
        options: &ExecutorOptions,
        quiet: bool,
    ) -> Result<Self, String> {
        run_sensitivity_with(config, options, progress_reporter(quiet))
    }
    fn stats(&self) -> &ExecutorStats {
        &self.stats
    }
}

/// The value of `result`, or, on an option error, its message on stderr and
/// exit status 2.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Print `text` and a newline on stdout, as `println!` does, without its
/// panic: a reader that has closed stdout (a `BrokenPipe`) ends the process
/// quietly with status 0, and any other write error ends it with its
/// message on stderr and status 1.
pub fn print(text: &str) {
    let mut stdout = std::io::stdout().lock();
    let written = writeln!(stdout, "{text}").and_then(|()| stdout.flush());
    drop(stdout);
    match written {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(err) => {
            eprintln!("cannot write to stdout: {err}");
            std::process::exit(1)
        }
    }
}

/// The launch sequence of a sweep binary: parse the process arguments, check
/// the reference heuristic, build the campaign and narrow it with `shape`,
/// check its run count and print the `title` banner, run the sweep through
/// [`run_distributed`], then print the artifacts line (under `--out`) and
/// the counter line. Returns the options, the narrowed campaign and the
/// outcome for the binary to render, or `None` in a worker shard, which has
/// nothing to render. Every error exits 2 through [`or_exit`].
pub fn launch<T: SweepOutcome>(
    title: &str,
    shape: impl FnOnce(&CliOptions, CampaignConfig) -> CampaignConfig,
) -> Option<(CliOptions, CampaignConfig, T)> {
    let opts = or_exit(CliOptions::from_env());
    if T::REFERENCE {
        or_exit(opts.require_reference(DEFAULT_REFERENCE));
    }
    let config = shape(&opts, or_exit(opts.campaign()));
    let points = config.points().len();
    let (scenarios, trials) = (config.scenarios_per_point, config.trials_per_scenario);
    let heuristics = config.heuristics.len();
    let runs = or_exit(run_count(points, scenarios, trials, heuristics * T::ARMS));
    let models = if T::ARMS == 1 { String::new() } else { format!(" x {} models", T::ARMS) };
    eprintln!(
        "{title} ({} suite): {points} points x {scenarios} scenarios x {trials} trials x \
         {heuristics} heuristics{models} = {runs} {} (cap {}, {} engine, {} threads)",
        config.suite,
        T::RUNS,
        config.max_slots,
        config.engine,
        resolve_threads(config.threads),
    );
    let dispatch = run_distributed(&opts, &T::fingerprint(&config), points, |options| {
        T::run(&config, options, opts.quiet)
    });
    let DistribOutcome::Ran(outcome) = or_exit(dispatch) else { return None };
    if let Some(dir) = &opts.out {
        let stats = outcome.stats();
        eprintln!(
            "  artifacts: {} ({} {} resumed, {} executed)",
            dir.display(),
            stats.resumed_instances,
            T::UNIT,
            stats.executed_instances,
        );
    }
    eprintln!("  {}", outcome.summary());
    Some((opts, config, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_heuristics::all_heuristic_names;

    #[test]
    fn defaults_and_overrides() {
        let opts = CliOptions::parse(Vec::<&str>::new()).unwrap();
        assert_eq!(opts, CliOptions::default());

        let opts = CliOptions::parse([
            "--scenarios",
            "5",
            "--trials",
            "2",
            "--cap",
            "50000",
            "--ncom",
            "5,20",
            "--wmin",
            "1,2,3",
            "--threads",
            "4",
            "--seed",
            "9",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(opts.scenarios, 5);
        assert_eq!(opts.trials, 2);
        assert_eq!(opts.max_slots, 50_000);
        assert_eq!(opts.ncom_values, Some(vec![5, 20]));
        assert_eq!(opts.wmin_values, Some(vec![1, 2, 3]));
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.seed, 9);
        assert!(opts.quiet);
    }

    #[test]
    fn full_flag_sets_paper_scale() {
        let opts = CliOptions::parse(["--full"]).unwrap();
        assert_eq!(opts.scenarios, 10);
        assert_eq!(opts.trials, 10);
        assert_eq!(opts.max_slots, 1_000_000);
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(CliOptions::parse(["--bogus"]).is_err());
        assert!(CliOptions::parse(["--scenarios"]).is_err());
        assert!(CliOptions::parse(["--scenarios", "x"]).is_err());
        assert!(CliOptions::parse(["--scenarios", "0"]).is_err());
        assert!(CliOptions::parse(["--cap", "0"]).is_err());
        assert!(CliOptions::parse(["--engine", "warp"]).is_err());
        // Sweep overrides parse, but the suite they produce is validated like
        // a suite file: a zero or empty sweep, or a wmin above the suite's
        // ceiling, is refused, not run.
        for (flag, value) in [
            ("--wmin", "0"),
            ("--ncom", "0"),
            ("--wmin", ","),
            ("--ncom", ","),
            ("--wmin", "1500000000000000000"),
            ("--wmin", "18446744073709551615"),
            ("--workers", "5000000000"),
        ] {
            let opts = CliOptions::parse([flag, value]).unwrap();
            assert!(opts.campaign().is_err(), "{flag} {value} must be refused");
        }
    }

    #[test]
    fn workers_ceiling_holds_for_overrides_and_suite_files() {
        let ceiling = crate::suite::MAX_WORKERS;
        assert_eq!(SuiteSpec::colossal().workers, ceiling, "the ceiling is the colossal size");
        let refused = |workers: &str| {
            format!("workers {workers} is too large: a suite accepts workers up to {ceiling}")
        };
        let at = CliOptions::parse(["--workers", "1000000"]).unwrap();
        assert_eq!(at.suite().unwrap().workers, ceiling);
        let above = CliOptions::parse(["--workers", "1000001"]).unwrap();
        assert_eq!(above.suite().unwrap_err(), refused("1000001"));

        let dir = std::env::temp_dir().join(format!("dg-cli-workers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let from_file = |workers: &str| {
            let path = dir.join(format!("w{workers}.suite"));
            std::fs::write(&path, format!("suite wide\nworkers {workers}\n")).unwrap();
            CliOptions::parse(["--suite", path.to_str().unwrap()]).unwrap().suite()
        };
        assert_eq!(from_file("1000000").unwrap().workers, ceiling);
        for workers in ["1000001", "4000000000000"] {
            let err = from_file(workers).unwrap_err();
            assert!(err.ends_with(&refused(workers)), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_count_past_usize_is_refused_and_names_both_flags() {
        let huge = usize::MAX.to_string();
        let ceiling = crate::suite::MAX_SCENARIOS;
        assert!(CliOptions::parse(["--full"]).unwrap().scenarios <= ceiling);
        // Past the ceiling, scenario seeds would repeat: refused, by name.
        for scenarios in [ceiling + 1, usize::MAX] {
            let opts = CliOptions::parse(["--scenarios", &scenarios.to_string()]).unwrap();
            assert_eq!(
                opts.campaign().unwrap_err(),
                format!(
                    "--scenarios {scenarios} is too large: a campaign accepts --scenarios up to \
                     {ceiling}"
                )
            );
        }
        // The ceiling itself is accepted: nothing is sized by the count.
        // (The paper suite has two m values, so 34 runs per scenario.)
        let exact = ceiling.to_string();
        let args = ["--scenarios", &exact, "--trials", "1", "--wmin", "1", "--ncom", "5"];
        let opts = CliOptions::parse(args).unwrap();
        let config = opts.campaign().unwrap();
        assert_eq!(config.total_runs(), ceiling * 34);
        assert_eq!(config.with_m(5).total_runs(), ceiling * 17);
        // Under the ceilings a count still overflows a 32-bit usize, so it
        // stays checked.
        assert_eq!(
            crate::campaign::run_count(2, 1, 1, usize::MAX / 2 + 1).unwrap_err(),
            format!(
                "--scenarios 1 and --trials 1 ask for too many runs: 2 points × 1 scenarios × 1 \
             trials × {} runs per trial exceeds {huge}",
                usize::MAX / 2 + 1
            )
        );
    }

    #[test]
    fn trials_ceiling_admits_every_preset_scale_and_names_the_flag() {
        let ceiling = crate::suite::MAX_TRIALS;
        assert!(CliOptions::parse(["--full"]).unwrap().trials <= ceiling);
        assert!(CliOptions::default().trials <= ceiling);
        let at = CliOptions::parse(["--trials", "10000"]).unwrap();
        assert_eq!(at.trials, ceiling);
        for trials in ["10001", "18446744073709551615"] {
            assert_eq!(
                CliOptions::parse(["--trials", trials]).unwrap_err(),
                format!(
                    "--trials {trials} is too large: a campaign accepts --trials up to {ceiling}"
                )
            );
        }
    }

    #[test]
    fn engine_flag_selects_the_mode() {
        assert_eq!(CliOptions::parse(Vec::<&str>::new()).unwrap().engine, SimMode::EventDriven);
        let slot = CliOptions::parse(["--engine", "slot"]).unwrap();
        assert_eq!(slot.engine, SimMode::SlotStepped);
        assert_eq!(slot.campaign().unwrap().engine, SimMode::SlotStepped);
        let event = CliOptions::parse(["--engine", "event"]).unwrap();
        assert_eq!(event.engine, SimMode::EventDriven);
    }

    #[test]
    fn out_resume_and_auto_threads_flags() {
        let opts =
            CliOptions::parse(["--out", "results/run1", "--resume", "--threads", "0"]).unwrap();
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("results/run1")));
        assert!(opts.resume);
        assert_eq!(opts.threads, 0); // resolved to available parallelism later
        let executor = opts.executor();
        assert!(executor.retain_raw);
        assert!(executor.resume);
        assert_eq!(executor.out.as_deref(), Some(std::path::Path::new("results/run1")));

        // --resume without --out is rejected; no store by default.
        assert!(CliOptions::parse(["--resume"]).is_err());
        let plain = CliOptions::parse(Vec::<&str>::new()).unwrap().executor();
        assert!(plain.out.is_none() && !plain.resume);
    }

    #[test]
    fn campaign_reflects_options() {
        let opts =
            CliOptions::parse(["--scenarios", "2", "--trials", "1", "--wmin", "1,5"]).unwrap();
        let config = opts.campaign().unwrap();
        assert_eq!(config.scenarios_per_point, 2);
        assert_eq!(config.trials_per_scenario, 1);
        assert_eq!(config.wmin_values, vec![1, 5]);
        assert_eq!(config.points().len(), 2 * 3 * 2);
    }

    #[test]
    fn default_campaign_is_the_paper_suite() {
        // Without --suite the campaign equals the historical default — the
        // byte-compat anchor for the pre-suite binaries.
        let config = CliOptions::parse(Vec::<&str>::new()).unwrap().campaign().unwrap();
        let mut legacy = CampaignConfig::reduced(3, 3, 200_000);
        legacy.base_seed = 20130520;
        assert_eq!(config, legacy);
        assert_eq!(config.suite_tag(), None);
        assert!(config.model.is_paper());
    }

    #[test]
    fn heuristics_flag_filters_the_campaign() {
        let opts = CliOptions::parse(["--heuristics", "IE,IAY,Y-IE"]).unwrap();
        let specs = opts.heuristics.clone().unwrap();
        assert_eq!(specs.iter().map(|h| h.name()).collect::<Vec<_>>(), vec!["IE", "IAY", "Y-IE"]);
        let config = opts.campaign().unwrap();
        assert_eq!(config.heuristics, specs);
        // Case-insensitive, whitespace-tolerant.
        let relaxed = CliOptions::parse(["--heuristics", " y-ie , random "]).unwrap();
        let names: Vec<String> = relaxed.heuristics.unwrap().iter().map(|h| h.name()).collect();
        assert_eq!(names, vec!["Y-IE", "RANDOM"]);
        // Without the flag, the campaign keeps all 17.
        let all = CliOptions::parse(Vec::<&str>::new()).unwrap().campaign().unwrap();
        assert_eq!(all.heuristics.len(), 17);
    }

    #[test]
    fn heuristics_helpers_resolve_defaults_and_guard_the_reference() {
        let defaults = ["E-IAY", "IE", "Y-IE"];
        // No flag: the binary's defaults, and any reference is fine.
        let plain = CliOptions::parse(Vec::<&str>::new()).unwrap();
        let names: Vec<String> = plain.heuristics_or(&defaults).iter().map(|h| h.name()).collect();
        assert_eq!(names, vec!["E-IAY", "IE", "Y-IE"]);
        assert!(plain.require_reference("IE").is_ok());
        // Flag present: it wins, but must contain the reference.
        let with_ref = CliOptions::parse(["--heuristics", "Y-IE,IE"]).unwrap();
        assert_eq!(with_ref.heuristics_or(&defaults).len(), 2);
        assert!(with_ref.require_reference("IE").is_ok());
        let without_ref = CliOptions::parse(["--heuristics", "Y-IE,RANDOM"]).unwrap();
        let err = without_ref.require_reference("IE").unwrap_err();
        assert!(err.contains("must include the reference heuristic IE"), "{err}");
    }

    #[test]
    fn heuristics_flag_rejects_bad_lists() {
        // Unknown names fail with the full registry in the message.
        let err = CliOptions::parse(["--heuristics", "IE,WARP"]).unwrap_err();
        assert!(err.contains("unknown heuristic 'WARP'"), "{err}");
        for name in all_heuristic_names() {
            assert!(err.contains(&name), "error must list valid name {name}: {err}");
        }
        // Duplicates (even spelled differently) and empty lists are rejected.
        let dup = CliOptions::parse(["--heuristics", "IE,ie"]).unwrap_err();
        assert!(dup.contains("duplicate heuristic 'IE'"), "{dup}");
        assert!(CliOptions::parse(["--heuristics", ""]).is_err());
        assert!(CliOptions::parse(["--heuristics"]).is_err());
    }

    #[test]
    fn suite_flag_selects_axes_and_model() {
        let opts = CliOptions::parse(["--suite", "volatile"]).unwrap();
        let config = opts.campaign().unwrap();
        assert_eq!(config.suite, "volatile");
        assert_eq!(config.wmin_values, vec![1, 2, 3, 4, 5]);
        assert!(!config.model.is_paper());

        // Explicit sweeps override the suite's.
        let opts = CliOptions::parse(["--suite", "volatile", "--wmin", "2"]).unwrap();
        assert_eq!(opts.campaign().unwrap().wmin_values, vec![2]);

        // largegrid resizes the platform.
        let big = CliOptions::parse(["--suite", "largegrid"]).unwrap().campaign().unwrap();
        assert_eq!(big.num_workers, 200);
        assert_eq!(big.m_values, vec![20, 40]);

        // Unknown suites fail with the preset list in the message.
        let err = CliOptions::parse(["--suite", "warp"]).unwrap().campaign().unwrap_err();
        assert!(err.contains("paper, volatile, largegrid, commbound, massive"), "{err}");
    }

    #[test]
    fn worker_shard_flag_parses_and_reaches_the_executor() {
        let opts = CliOptions::parse(["--worker-shard", "2/4", "--out", "runs/x"]).unwrap();
        assert_eq!(opts.worker_shard, Some((2, 4)));
        let executor = opts.executor();
        assert_eq!(executor.part, Some(WorkerShard { index: 2, total: 4 }));
        // Without the flag no shard restriction reaches the executor.
        assert_eq!(CliOptions::parse(Vec::<&str>::new()).unwrap().executor().part, None);
    }

    #[test]
    fn worker_shard_flag_rejects_malformed_and_out_of_range_values() {
        // Malformed values name the flag and show the expected shape.
        for value in ["3", "a/b", "3/", "/2", "3-2"] {
            let err = CliOptions::parse(["--worker-shard", value, "--out", "d"]).unwrap_err();
            assert!(err.contains("--worker-shard"), "{value}: {err}");
            assert!(err.contains("expected I/N"), "{value}: {err}");
        }
        // Out-of-range indices are rejected with the flag named.
        let err = CliOptions::parse(["--worker-shard", "3/2", "--out", "d"]).unwrap_err();
        assert!(err.contains("--worker-shard 3/2"), "{err}");
        assert!(err.contains("exceeds the shard count"), "{err}");
        let err = CliOptions::parse(["--worker-shard", "0/4", "--out", "d"]).unwrap_err();
        assert!(err.contains("--worker-shard 0/4"), "{err}");
        assert!(err.contains("numbered from 1"), "{err}");
        let err = CliOptions::parse(["--worker-shard", "1/0", "--out", "d"]).unwrap_err();
        assert!(err.contains("--worker-shard"), "{err}");
        assert!(err.contains("positive"), "{err}");
        // Both distribution flags require the shared store directory.
        let err = CliOptions::parse(["--worker-shard", "1/2"]).unwrap_err();
        assert!(err.contains("--worker-shard requires --out"), "{err}");
        let err = CliOptions::parse(["--spawn-workers", "3"]).unwrap_err();
        assert!(err.contains("--spawn-workers requires --out"), "{err}");
        assert!(CliOptions::parse(["--spawn-workers", "0", "--out", "d"])
            .unwrap_err()
            .contains("--spawn-workers must be positive"));
    }

    #[test]
    fn worker_and_spawn_flags_cannot_be_combined() {
        let err =
            CliOptions::parse(["--worker-shard", "1/3", "--spawn-workers", "3", "--out", "d"])
                .unwrap_err();
        assert!(err.contains("--worker-shard"), "{err}");
        assert!(err.contains("--spawn-workers"), "{err}");
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn worker_args_round_trip_to_the_same_options_with_the_shard_set() {
        let opts = CliOptions::parse([
            "--scenarios",
            "4",
            "--trials",
            "2",
            "--cap",
            "50000",
            "--suite",
            "volatile",
            "--workers",
            "30",
            "--ncom",
            "5,20",
            "--wmin",
            "1,3",
            "--heuristics",
            "IE,Y-IE",
            "--threads",
            "2",
            "--seed",
            "7",
            "--engine",
            "slot",
            "--out",
            "runs/shared",
            "--resume",
        ])
        .unwrap();
        let args = opts.worker_args(2, 3);
        let child = CliOptions::parse(args.iter().map(String::as_str)).unwrap();
        let mut expected = opts.clone();
        expected.worker_shard = Some((2, 3));
        expected.quiet = true;
        // The child carries its share of the 2-thread budget, not the
        // coordinator's literal --threads value.
        expected.threads = opts.worker_threads(2, 3);
        assert_eq!(child, expected);
        assert!(!args.contains(&"--spawn-workers".to_string()));
        // Defaults round-trip too, even from a coordinator invocation.
        let coordinator = CliOptions::parse(["--spawn-workers", "3", "--out", "d"]).unwrap();
        let child =
            CliOptions::parse(coordinator.worker_args(1, 3).iter().map(String::as_str)).unwrap();
        assert_eq!(child.worker_shard, Some((1, 3)));
        assert_eq!(child.spawn_workers, None);
        assert!(child.quiet);
        assert_eq!(child.out, coordinator.out);
    }

    #[test]
    fn worker_args_divide_the_thread_budget_across_children() {
        // The value a child receives for --threads in its generated flags.
        let thread_arg = |args: &[String]| -> usize {
            let at = args.iter().position(|a| a == "--threads").expect("--threads present");
            args[at + 1].parse().expect("--threads value is numeric")
        };
        // An explicit budget of 8 over 3 children: balanced shares, sum 8.
        let opts =
            CliOptions::parse(["--threads", "8", "--spawn-workers", "3", "--out", "d"]).unwrap();
        let shares: Vec<usize> = (1..=3).map(|i| thread_arg(&opts.worker_args(i, 3))).collect();
        assert_eq!(shares, vec![2, 3, 3]);
        assert_eq!(shares.iter().sum::<usize>(), 8);
        // A budget smaller than the child count clamps every share to 1.
        let small =
            CliOptions::parse(["--threads", "2", "--spawn-workers", "3", "--out", "d"]).unwrap();
        let shares: Vec<usize> = (1..=3).map(|i| thread_arg(&small.worker_args(i, 3))).collect();
        assert!(shares.iter().all(|&s| s == 1), "{shares:?}");
        // The oversubscription bug: --threads 0 must never reach a child
        // verbatim (each child would auto-detect all host CPUs, using N× the
        // box). The resolved budget is divided instead, and the children's
        // combined threads never exceed it.
        let auto =
            CliOptions::parse(["--threads", "0", "--spawn-workers", "4", "--out", "d"]).unwrap();
        let budget = crate::executor::resolve_threads(0);
        let mut combined = 0;
        for i in 1..=4 {
            let share = thread_arg(&auto.worker_args(i, 4));
            assert!(share >= 1);
            assert!(share <= budget);
            combined += share;
        }
        assert!(combined <= budget.max(4), "{combined} threads exceed the {budget}-thread budget");
    }

    #[test]
    fn workers_flag_overrides_the_suite_platform_size() {
        let massive = CliOptions::parse(["--suite", "massive"]).unwrap().campaign().unwrap();
        assert_eq!(massive.num_workers, 20_000);
        let reduced =
            CliOptions::parse(["--suite", "massive", "--workers", "600"]).unwrap().campaign();
        assert_eq!(reduced.unwrap().num_workers, 600);
        let paper = CliOptions::parse(["--workers", "40"]).unwrap();
        assert_eq!(paper.suite().unwrap().workers, 40);
        assert!(CliOptions::parse(["--workers", "0"]).is_err());
        assert!(CliOptions::parse(["--workers"]).is_err());
    }
}
