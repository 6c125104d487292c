//! Scenario suites: named cross-products of the generator axes.
//!
//! A [`SuiteSpec`] names a campaign-level workload: the factorial axes
//! (`workers`, `iterations`, `m`, `ncom`, `wmin`) plus one choice per
//! generator axis of [`dg_platform::generator`] (speed profile, availability
//! regime, trial model, application shape). The preset registry ships the
//! paper's space (`paper`) and three new regimes (`volatile`, `largegrid`,
//! `commbound`); arbitrary suites are described in a small hand-rolled text
//! format (the vendored `serde` is a no-op shim, so the format is parsed and
//! rendered here) and selected with `--suite NAME|FILE` on every experiment
//! binary.
//!
//! ```text
//! # lines are `key value`; '#' starts a comment
//! suite myworkload
//! workers 50
//! iterations 10
//! m 5,10
//! ncom 5,10
//! wmin 1,2,3
//! speeds clustered(0.3,8)      # paper | uniform(F) | clustered(FRAC,F) | powerlaw(A,F)
//! availability volatile        # paper | volatile | stable | selfloop(LO,HI)
//! trials markov                # markov | semi(SHAPE)
//! app 5x1                      # Tprog = 5·wmin, Tdata = 1·wmin
//! ```
//!
//! The `paper` suite is the identity point: campaigns under it are
//! byte-identical to the pre-suite reproduction (same RNG draws, same shard
//! bytes, same tables). Non-paper suites tag their artifact-store manifest
//! and shard records with the suite name, so `--resume` can never silently
//! mix shards generated under different workloads.

use crate::campaign::CampaignConfig;
use crate::json::{Obj, Str};
use dg_heuristics::HeuristicSpec;
use dg_platform::generator::{
    AppShape, AvailabilityRegime, ScenarioModel, SpeedProfile, TrialModel,
};
use dg_sim::SimMode;
use serde::{Deserialize, Serialize};

/// Names of the shipped suite presets, in registry order.
pub const PRESET_NAMES: [&str; 6] =
    ["paper", "volatile", "largegrid", "commbound", "massive", "colossal"];

/// The largest platform a suite may ask for: the `colossal` preset's 10⁶
/// workers. Several structures are sized by `workers` (the generated
/// platform, the per-worker availability and evaluation tables), so a size
/// past this is refused instead of failing an allocation.
pub const MAX_WORKERS: usize = 1_000_000;

/// The most tasks per iteration (`m`) a suite may ask for, 200 times the
/// largest preset `m` (`massive`'s 50). A run's decisions grow with `m`
/// (each builds its candidate in `m` greedy rounds, and a proactive
/// scheduler logs every probe of every round), so a larger `m` is refused
/// instead of running without bound.
pub const MAX_TASKS: usize = 10_000;

/// The most trials per scenario (`--trials`) a campaign may ask for, 1 000
/// times `--full`'s 10. A `(point, scenario)` job holds its whole block of
/// records until it completes, one record per trial, heuristic and
/// availability arm, so a larger count is refused instead of failing an
/// allocation. At the ceiling, a one-scenario `sensitivity` run of all 17
/// heuristics over both availability arms (340 000 records in one job) peaked
/// at 136 MB resident (release build, `--cap 2`).
pub const MAX_TRIALS: usize = 10_000;

/// The most scenarios per experiment point (`--scenarios`) a campaign may ask
/// for, 2²⁰. Nothing is sized by the count, but scenario `s` of point `p` is
/// generated from the stream `(p << 20) | s`, which the golden corpus pins:
/// past the ceiling, scenario `2²⁰ + k` of a point would rerun a scenario
/// already drawn (its own scenario `k`, or the next point's).
pub const MAX_SCENARIOS: usize = 1 << 20;

/// The most experiment points (`|m| × |ncom| × |wmin|`) a suite may sweep,
/// 167 times the paper suite's 60. A campaign lists its points up front and
/// writes one store shard per point, so a larger sweep is refused instead of
/// failing an allocation.
pub const MAX_POINTS: usize = 10_000;

/// A named scenario suite: factorial axes plus a generator model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteSpec {
    /// Suite name (tags the artifact store; `paper` is the untagged default).
    pub name: String,
    /// Number of workers `p` in every platform.
    pub workers: usize,
    /// Iterations the application must complete.
    pub iterations: u64,
    /// Values of `m` (tasks per iteration) to sweep.
    pub m_values: Vec<usize>,
    /// Values of `ncom` (master communication bound) to sweep.
    pub ncom_values: Vec<usize>,
    /// Values of `wmin` (difficulty parameter) to sweep.
    pub wmin_values: Vec<u64>,
    /// Generator model (speed profile, availability regime, trial model,
    /// application shape).
    pub model: ScenarioModel,
}

impl SuiteSpec {
    /// The paper's suite: the exact Section VII-A space. Campaigns under
    /// this suite reproduce the pre-suite outputs byte-for-byte.
    pub fn paper() -> SuiteSpec {
        SuiteSpec {
            name: "paper".to_string(),
            workers: 20,
            iterations: 10,
            m_values: vec![5, 10],
            ncom_values: vec![5, 10, 20],
            wmin_values: (1..=10).collect(),
            model: ScenarioModel::paper(),
        }
    }

    /// The *volatile* suite: the paper's axes under availability self-loops
    /// `U[0.60, 0.85]` — mean sojourns of 2.5–7 slots instead of 10–100.
    /// The `wmin` sweep stops at 5: beyond that, volatility makes nearly
    /// every heuristic hit the slot cap and the comparison carries no signal.
    pub fn volatile() -> SuiteSpec {
        SuiteSpec {
            name: "volatile".to_string(),
            wmin_values: (1..=5).collect(),
            model: ScenarioModel {
                availability: AvailabilityRegime::Volatile,
                ..ScenarioModel::paper()
            },
            ..SuiteSpec::paper()
        }
    }

    /// The *largegrid* suite: 200 workers in a clustered (bimodal) fleet —
    /// 30 % fast machines, the rest 8× slower — with proportionally larger
    /// applications (`m ∈ {20, 40}`) and master capacity.
    pub fn largegrid() -> SuiteSpec {
        SuiteSpec {
            name: "largegrid".to_string(),
            workers: 200,
            iterations: 10,
            m_values: vec![20, 40],
            ncom_values: vec![10, 20, 40],
            wmin_values: vec![1, 2, 3],
            model: ScenarioModel {
                speeds: SpeedProfile::Clustered { fast_fraction: 0.3, slow_factor: 8 },
                ..ScenarioModel::paper()
            },
        }
    }

    /// The *commbound* suite: communication-heavy transfers
    /// (`Tprog = 20·wmin`, `Tdata = 4·wmin`) through a small master
    /// (`ncom ∈ {2, 5}`), so enrollment cost — not compute speed — dominates.
    pub fn commbound() -> SuiteSpec {
        SuiteSpec {
            name: "commbound".to_string(),
            m_values: vec![10],
            ncom_values: vec![2, 5],
            wmin_values: (1..=5).collect(),
            model: ScenarioModel { app: AppShape::comm_heavy(), ..ScenarioModel::paper() },
            ..SuiteSpec::paper()
        }
    }

    /// The *massive* suite: a desktop-grid-scale fleet of 20 000 workers
    /// built from a few profiles — clustered speeds (30 % fast, the rest 8×
    /// slower) and 16 pooled availability classes — running a larger
    /// application (`m = 50`) for a few iterations. The pooled classes make
    /// worker-class bucketing and group-set memoization effective, which is
    /// what lets scheduling decisions complete at this scale
    /// (`tests/scaling.rs` pins a decision's counts); use `--workers` to
    /// shrink the fleet for smoke runs.
    pub fn massive() -> SuiteSpec {
        SuiteSpec {
            name: "massive".to_string(),
            workers: 20_000,
            iterations: 3,
            m_values: vec![50],
            ncom_values: vec![50],
            wmin_values: vec![1],
            model: ScenarioModel {
                speeds: SpeedProfile::Clustered { fast_fraction: 0.3, slow_factor: 8 },
                availability: AvailabilityRegime::Pooled { classes: 16 },
                ..ScenarioModel::paper()
            },
        }
    }

    /// The *colossal* suite: the `massive` workload at 10⁶ workers — the top
    /// of the roadmap's scale axis. The same few worker profiles (clustered
    /// speeds, 16 pooled availability classes) keep the per-decision worker
    /// index small, so a decision's cost stays `O(p)` index build plus an
    /// `O(classes)` scan; pair with `--decision-threads` to split that scan
    /// across cores. One iteration: at this scale the point is the decision
    /// itself, not trajectory statistics.
    pub fn colossal() -> SuiteSpec {
        SuiteSpec {
            name: "colossal".to_string(),
            workers: 1_000_000,
            iterations: 1,
            ..SuiteSpec::massive()
        }
    }

    /// Look a preset up by name.
    pub fn preset(name: &str) -> Option<SuiteSpec> {
        match name {
            "paper" => Some(SuiteSpec::paper()),
            "volatile" => Some(SuiteSpec::volatile()),
            "largegrid" => Some(SuiteSpec::largegrid()),
            "commbound" => Some(SuiteSpec::commbound()),
            "massive" => Some(SuiteSpec::massive()),
            "colossal" => Some(SuiteSpec::colossal()),
            _ => None,
        }
    }

    /// Resolve a `--suite` argument: a preset name, or a path to a suite
    /// file in the text format parsed by [`SuiteSpec::parse`]. Preset names
    /// take precedence — a local file literally named `volatile` must be
    /// passed with a path prefix (`./volatile`) to be read as a file.
    pub fn resolve(arg: &str) -> Result<SuiteSpec, String> {
        if let Some(preset) = SuiteSpec::preset(arg) {
            return Ok(preset);
        }
        let path = std::path::Path::new(arg);
        if !path.is_file() {
            return Err(format!(
                "--suite: '{arg}' is neither a preset ({}) nor a readable suite file",
                PRESET_NAMES.join(", ")
            ));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--suite: cannot read {arg}: {e}"))?;
        SuiteSpec::parse(&text).map_err(|e| format!("--suite: {arg}: {e}"))
    }

    /// Build a campaign configuration over this suite's axes at the given
    /// scale, with all 17 heuristics and the default seed/engine.
    pub fn campaign(
        &self,
        scenarios_per_point: usize,
        trials_per_scenario: usize,
        max_slots: u64,
    ) -> CampaignConfig {
        CampaignConfig {
            m_values: self.m_values.clone(),
            ncom_values: self.ncom_values.clone(),
            wmin_values: self.wmin_values.clone(),
            num_workers: self.workers,
            iterations: self.iterations,
            scenarios_per_point,
            trials_per_scenario,
            max_slots,
            heuristics: HeuristicSpec::all(),
            base_seed: 20130520, // HCW 2013 workshop date
            epsilon: dg_analysis::DEFAULT_EPSILON,
            threads: 1,
            engine: SimMode::default(),
            suite: self.name.clone(),
            model: self.model,
        }
    }

    /// Check structural validity (positive axes, sane model parameters, no
    /// `workers`, `m` or `wmin` above its ceiling, at most [`MAX_POINTS`]
    /// experiment points).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || !self.name.chars().all(|c| c.is_alphanumeric() || c == '-') {
            return Err(format!(
                "suite name '{}' must be non-empty alphanumeric (dashes allowed)",
                self.name
            ));
        }
        if self.workers == 0 || self.iterations == 0 {
            return Err("workers and iterations must be positive".to_string());
        }
        if self.workers > MAX_WORKERS {
            return Err(format!(
                "workers {} is too large: a suite accepts workers up to {MAX_WORKERS}",
                self.workers
            ));
        }
        if self.m_values.is_empty() || self.ncom_values.is_empty() || self.wmin_values.is_empty() {
            return Err("m, ncom and wmin sweeps must be non-empty".to_string());
        }
        // The length of the campaign's `points()`, without building them.
        let (m, ncom, wmin) = (self.m_values.len(), self.ncom_values.len(), self.wmin_values.len());
        if m.checked_mul(ncom).and_then(|n| n.checked_mul(wmin)).is_none_or(|n| n > MAX_POINTS) {
            return Err(format!(
                "{m} m × {ncom} ncom × {wmin} wmin values are too many experiment points: a \
                 suite accepts up to {MAX_POINTS}"
            ));
        }
        if self.m_values.contains(&0) || self.ncom_values.contains(&0) {
            return Err("m and ncom values must be positive".to_string());
        }
        if let Some(&m) = self.m_values.iter().find(|&&m| m > MAX_TASKS) {
            return Err(format!("m {m} is too large: a suite accepts m up to {MAX_TASKS}"));
        }
        if self.wmin_values.contains(&0) {
            return Err("wmin values must be positive".to_string());
        }
        validate_model(&self.model)?;
        let ceiling = self.max_wmin();
        if let Some(&wmin) = self.wmin_values.iter().find(|&&w| w > ceiling) {
            return Err(format!(
                "wmin {wmin} is too large: suite '{}' accepts wmin up to {ceiling}, above which \
                 a worker's time for all m tasks or an iteration's transfers overflow 64 bits",
                self.name
            ));
        }
        Ok(())
    }

    /// The largest `wmin` this suite accepts. With `m*` its largest `m`, two
    /// sizes must fit in `u64`: the slowest speed the profile can draw times
    /// `m*` (one worker computing every task) and `m*·(Tprog + m*·Tdata)`
    /// (at most `m*` workers, each receiving the program and up to `m*` data
    /// messages). Both are `wmin` times a factor of the suite, so the ceiling
    /// is `u64::MAX` over the larger factor, or 0 when a factor overflows.
    fn max_wmin(&self) -> u64 {
        let m = self.m_values.iter().copied().max().unwrap_or(1) as u64;
        let AppShape { prog_factor, data_factor } = self.model.app;
        let factor = self.model.speeds.bounds(1).and_then(|(_, slowest)| {
            let compute = slowest.checked_mul(m)?;
            let transfers = m.checked_mul(data_factor)?.checked_add(prog_factor)?.checked_mul(m)?;
            Some(compute.max(transfers))
        });
        factor.map_or(0, |factor| u64::MAX / factor)
    }

    /// Parse a suite from the text format (see the module docs). Missing
    /// keys default to the `paper` preset's values; the `suite NAME` line is
    /// mandatory.
    pub fn parse(text: &str) -> Result<SuiteSpec, String> {
        let mut spec = SuiteSpec::paper();
        spec.name = String::new();
        let mut seen: Vec<String> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = index + 1;
            let (key, value) = line
                .split_once(char::is_whitespace)
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("line {lineno}: expected 'key value', got '{line}'"))?;
            if seen.iter().any(|s| s == key) {
                return Err(format!("line {lineno}: duplicate key '{key}'"));
            }
            seen.push(key.to_string());
            match key {
                "suite" => spec.name = value.to_string(),
                "workers" => spec.workers = parse_scalar(value, key, lineno)?,
                "iterations" => spec.iterations = parse_scalar(value, key, lineno)?,
                "m" => spec.m_values = parse_values(value, key, lineno)?,
                "ncom" => spec.ncom_values = parse_values(value, key, lineno)?,
                "wmin" => spec.wmin_values = parse_values(value, key, lineno)?,
                "speeds" => {
                    spec.model.speeds =
                        parse_speeds(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                "availability" => {
                    spec.model.availability =
                        parse_availability(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                "trials" => {
                    spec.model.trials =
                        parse_trials(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                "app" => {
                    spec.model.app = parse_app(value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                other => return Err(format!("line {lineno}: unknown key '{other}'")),
            }
        }
        if spec.name.is_empty() {
            return Err("missing mandatory 'suite NAME' line".to_string());
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Render the suite in the text format; `parse(render())` round-trips
    /// exactly.
    pub fn render(&self) -> String {
        format!(
            "# scenario suite (desktop-grid-scheduling)\n\
             suite {}\n\
             workers {}\n\
             iterations {}\n\
             m {}\n\
             ncom {}\n\
             wmin {}\n\
             speeds {}\n\
             availability {}\n\
             trials {}\n\
             app {}\n",
            self.name,
            self.workers,
            self.iterations,
            join(&self.m_values),
            join(&self.ncom_values),
            join(&self.wmin_values),
            speeds_spec(&self.model.speeds),
            availability_spec(&self.model.availability),
            trials_spec(&self.model.trials),
            app_spec(&self.model.app),
        )
    }
}

impl Default for SuiteSpec {
    fn default() -> Self {
        SuiteSpec::paper()
    }
}

/// `xs` as a comma-separated list, the form of a suite file's sweep values
/// and of the `--ncom` and `--wmin` flags.
pub(crate) fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

fn parse_scalar<T: std::str::FromStr>(value: &str, key: &str, lineno: usize) -> Result<T, String> {
    value.parse().map_err(|_| format!("line {lineno}: invalid value '{value}' for '{key}'"))
}

fn parse_values<T: std::str::FromStr>(
    value: &str,
    key: &str,
    lineno: usize,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_scalar(s.trim(), key, lineno))
        .collect()
}

/// Split `name(a,b)` into `(name, args)`; a bare `name` has no args.
fn split_call(value: &str) -> Result<(&str, Vec<&str>), String> {
    match value.split_once('(') {
        None => Ok((value, Vec::new())),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unbalanced parentheses in '{value}'"))?;
            Ok((name, inner.split(',').map(str::trim).collect()))
        }
    }
}

fn arg<T: std::str::FromStr>(args: &[&str], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("expected {what} as argument {}", i + 1))
}

/// Canonical form of a speed profile (shared by the suite text format and
/// the store fingerprint).
pub fn speeds_spec(speeds: &SpeedProfile) -> String {
    match *speeds {
        SpeedProfile::PaperUniform => "paper".to_string(),
        SpeedProfile::Uniform { max_factor } => format!("uniform({max_factor})"),
        SpeedProfile::Clustered { fast_fraction, slow_factor } => {
            format!("clustered({fast_fraction:?},{slow_factor})")
        }
        SpeedProfile::PowerLaw { alpha, max_factor } => format!("powerlaw({alpha:?},{max_factor})"),
    }
}

/// Parse the canonical form produced by [`speeds_spec`].
pub fn parse_speeds(value: &str) -> Result<SpeedProfile, String> {
    let (name, args) = split_call(value)?;
    match name {
        "paper" => Ok(SpeedProfile::PaperUniform),
        "uniform" => Ok(SpeedProfile::Uniform { max_factor: arg(&args, 0, "a factor")? }),
        "clustered" => Ok(SpeedProfile::Clustered {
            fast_fraction: arg(&args, 0, "a fraction")?,
            slow_factor: arg(&args, 1, "a factor")?,
        }),
        "powerlaw" => Ok(SpeedProfile::PowerLaw {
            alpha: arg(&args, 0, "an exponent")?,
            max_factor: arg(&args, 1, "a factor")?,
        }),
        other => Err(format!(
            "unknown speed profile '{other}' (expected paper, uniform, clustered or powerlaw)"
        )),
    }
}

/// Canonical form of an availability regime.
pub fn availability_spec(regime: &AvailabilityRegime) -> String {
    match *regime {
        AvailabilityRegime::Paper => "paper".to_string(),
        AvailabilityRegime::Volatile => "volatile".to_string(),
        AvailabilityRegime::Stable => "stable".to_string(),
        AvailabilityRegime::SelfLoops { lo, hi } => format!("selfloop({lo:?},{hi:?})"),
        AvailabilityRegime::Pooled { classes } => format!("pooled({classes})"),
    }
}

/// Parse the canonical form produced by [`availability_spec`].
pub fn parse_availability(value: &str) -> Result<AvailabilityRegime, String> {
    let (name, args) = split_call(value)?;
    match name {
        "paper" => Ok(AvailabilityRegime::Paper),
        "volatile" => Ok(AvailabilityRegime::Volatile),
        "stable" => Ok(AvailabilityRegime::Stable),
        "selfloop" => Ok(AvailabilityRegime::SelfLoops {
            lo: arg(&args, 0, "a probability")?,
            hi: arg(&args, 1, "a probability")?,
        }),
        "pooled" => Ok(AvailabilityRegime::Pooled { classes: arg(&args, 0, "a class count")? }),
        other => Err(format!(
            "unknown availability regime '{other}' (expected paper, volatile, stable, selfloop \
             or pooled)"
        )),
    }
}

/// Canonical form of a trial model.
pub fn trials_spec(trials: &TrialModel) -> String {
    match *trials {
        TrialModel::Markov => "markov".to_string(),
        TrialModel::SemiMarkov { shape } => format!("semi({shape:?})"),
    }
}

/// Parse the canonical form produced by [`trials_spec`].
pub fn parse_trials(value: &str) -> Result<TrialModel, String> {
    let (name, args) = split_call(value)?;
    match name {
        "markov" => Ok(TrialModel::Markov),
        "semi" => Ok(TrialModel::SemiMarkov { shape: arg(&args, 0, "a shape")? }),
        other => Err(format!("unknown trial model '{other}' (expected markov or semi)")),
    }
}

/// Canonical form of an application shape (`PROGxDATA`).
pub fn app_spec(app: &AppShape) -> String {
    format!("{}x{}", app.prog_factor, app.data_factor)
}

/// Parse the canonical form produced by [`app_spec`].
pub fn parse_app(value: &str) -> Result<AppShape, String> {
    let (prog, data) = value
        .split_once('x')
        .ok_or_else(|| format!("expected PROGxDATA (e.g. 5x1), got '{value}'"))?;
    Ok(AppShape {
        prog_factor: prog.parse().map_err(|_| format!("invalid program factor '{prog}'"))?,
        data_factor: data.parse().map_err(|_| format!("invalid data factor '{data}'"))?,
    })
}

/// Canonical one-line form of a whole generator model, used by the store
/// fingerprint of non-paper suites.
pub fn model_spec(model: &ScenarioModel) -> String {
    format!(
        "speeds={};availability={};trials={};app={}",
        speeds_spec(&model.speeds),
        availability_spec(&model.availability),
        trials_spec(&model.trials),
        app_spec(&model.app),
    )
}

/// The single source of the untagged-suite rule: the store tag a suite name
/// produces — `None` for the `paper` suite, whose artifacts stay
/// byte-identical to the pre-suite format.
pub fn store_tag(suite: &str) -> Option<&str> {
    (suite != "paper").then_some(suite)
}

/// Append the fields a suite contributes to a store's configuration
/// fingerprint: none for the untagged paper suite under the paper model (old
/// stores keep resuming), the suite name plus canonical model spec otherwise.
pub(crate) fn fingerprint_suffix(fields: Obj, suite: &str, model: &ScenarioModel) -> Obj {
    if store_tag(suite).is_none() && model.is_paper() {
        fields
    } else {
        fields.field("suite", Str(suite)).field("model", Str(&model_spec(model)))
    }
}

/// Validate a generator model's parameters.
pub fn validate_model(model: &ScenarioModel) -> Result<(), String> {
    match model.speeds {
        SpeedProfile::PaperUniform => {}
        SpeedProfile::Uniform { max_factor } => {
            if max_factor == 0 {
                return Err("uniform speed factor must be at least 1".to_string());
            }
        }
        SpeedProfile::Clustered { fast_fraction, slow_factor } => {
            if !(0.0..=1.0).contains(&fast_fraction) || !fast_fraction.is_finite() {
                return Err(format!("clustered fast fraction {fast_fraction} outside [0, 1]"));
            }
            if slow_factor == 0 {
                return Err("clustered slow factor must be at least 1".to_string());
            }
        }
        SpeedProfile::PowerLaw { alpha, max_factor } => {
            if !alpha.is_finite() || alpha <= 0.0 {
                return Err(format!("power-law exponent {alpha} must be positive"));
            }
            if max_factor == 0 {
                return Err("power-law max factor must be at least 1".to_string());
            }
        }
    }
    let (lo, hi) = model.availability.self_loop_range();
    if !(0.0..1.0).contains(&lo) || !(0.0..1.0).contains(&hi) || lo > hi {
        return Err(format!("self-loop range [{lo}, {hi}] must satisfy 0 <= lo <= hi < 1"));
    }
    if let AvailabilityRegime::Pooled { classes } = model.availability {
        if classes == 0 {
            return Err("pooled availability needs at least one class".to_string());
        }
    }
    if let TrialModel::SemiMarkov { shape } = model.trials {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(format!("semi-Markov shape {shape} must be positive"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_validate() {
        for name in PRESET_NAMES {
            let suite = SuiteSpec::preset(name).expect("preset exists");
            assert_eq!(suite.name, name);
            suite.validate().expect("preset validates");
            assert_eq!(SuiteSpec::resolve(name).unwrap(), suite);
        }
        assert!(SuiteSpec::preset("nope").is_none());
        assert!(SuiteSpec::resolve("nope").unwrap_err().contains("neither a preset"));
    }

    #[test]
    fn paper_preset_is_untagged_and_paper_model() {
        let paper = SuiteSpec::paper();
        assert_eq!(store_tag(&paper.name), None);
        assert!(paper.model.is_paper());
        assert_eq!(store_tag(&SuiteSpec::volatile().name), Some("volatile"));
    }

    #[test]
    fn every_preset_round_trips_through_the_text_format() {
        for name in PRESET_NAMES {
            let suite = SuiteSpec::preset(name).unwrap();
            let text = suite.render();
            let parsed = SuiteSpec::parse(&text).expect("rendered suite parses");
            assert_eq!(parsed, suite, "round-trip changed the {name} suite");
        }
    }

    #[test]
    fn custom_suite_round_trips_with_float_parameters() {
        let suite = SuiteSpec {
            name: "custom-1".to_string(),
            workers: 64,
            iterations: 4,
            m_values: vec![8],
            ncom_values: vec![4, 8],
            wmin_values: vec![1, 3],
            model: ScenarioModel {
                speeds: SpeedProfile::PowerLaw { alpha: 1.75, max_factor: 32 },
                availability: AvailabilityRegime::SelfLoops { lo: 0.725, hi: 0.925 },
                trials: TrialModel::SemiMarkov { shape: 0.65 },
                app: AppShape { prog_factor: 12, data_factor: 3 },
            },
        };
        assert_eq!(SuiteSpec::parse(&suite.render()).unwrap(), suite);
    }

    #[test]
    fn parse_handles_comments_defaults_and_errors() {
        let spec = SuiteSpec::parse("# header\nsuite mini # inline comment\n\nwmin 2,3\n").unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.wmin_values, vec![2, 3]);
        // Unset keys default to the paper preset.
        assert_eq!(spec.workers, 20);
        assert_eq!(spec.m_values, vec![5, 10]);
        assert!(spec.model.is_paper());

        assert!(SuiteSpec::parse("workers 5\n").unwrap_err().contains("suite NAME"));
        assert!(SuiteSpec::parse("suite x\nsuite y\n").unwrap_err().contains("duplicate"));
        assert!(SuiteSpec::parse("suite x\nbogus 1\n").unwrap_err().contains("unknown key"));
        assert!(SuiteSpec::parse("suite x\nworkers zero\n").unwrap_err().contains("invalid value"));
        assert!(SuiteSpec::parse("suite x\nworkers 0\n").is_err());
        assert!(SuiteSpec::parse("suite x\nwmin 0,1\n").is_err());
        assert!(SuiteSpec::parse("suite bad name\n").is_err());
        assert!(SuiteSpec::parse("suite x\nspeeds warp\n").unwrap_err().contains("speed profile"));
        assert!(SuiteSpec::parse("suite x\nspeeds clustered(2.0,4)\n").is_err());
        assert!(SuiteSpec::parse("suite x\navailability selfloop(0.9,0.5)\n").is_err());
        assert!(SuiteSpec::parse("suite x\navailability pooled(0)\n").is_err());
        assert_eq!(
            SuiteSpec::parse("suite x\navailability pooled(16)\n").unwrap().model.availability,
            AvailabilityRegime::Pooled { classes: 16 }
        );
        assert!(SuiteSpec::parse("suite x\ntrials semi(-1)\n").is_err());
        assert!(SuiteSpec::parse("suite x\napp 5-1\n").is_err());
        assert!(SuiteSpec::parse("suite x\nspeeds uniform(4\n").is_err());
    }

    #[test]
    fn wmin_ceiling_is_accepted_and_one_above_is_refused() {
        // The paper suite: m* = 10, speeds up to 10·wmin and Tprog + 10·Tdata
        // = 15·wmin, so the transfer bound 150·wmin binds.
        assert_eq!(SuiteSpec::paper().max_wmin(), u64::MAX / 150);
        for name in PRESET_NAMES {
            let mut suite = SuiteSpec::preset(name).unwrap();
            let ceiling = suite.max_wmin();
            suite.wmin_values = vec![1, ceiling];
            suite.validate().unwrap_or_else(|e| panic!("{name} at its ceiling: {e}"));
            suite.wmin_values = vec![1, ceiling + 1];
            let err = suite.validate().unwrap_err();
            let expected = format!(
                "wmin {} is too large: suite '{name}' accepts wmin up to {ceiling},",
                ceiling + 1
            );
            assert!(err.starts_with(&expected), "{err}");
        }
        let err = SuiteSpec::parse("suite big\nwmin 2000000000000000000\n").unwrap_err();
        assert!(err.starts_with("wmin 2000000000000000000 is too large"), "{err}");
        // A speed factor that alone overflows for m = 5 admits no wmin.
        let err =
            SuiteSpec::parse("suite wide\nm 5\nwmin 1\nspeeds uniform(18446744073709551615)\n")
                .unwrap_err();
        assert!(err.contains("accepts wmin up to 0,"), "{err}");
    }

    #[test]
    fn m_ceiling_holds_for_suite_files() {
        let dir = std::env::temp_dir().join(format!("dg-suite-m-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let from_file = |m: &str| {
            let path = dir.join(format!("m{m}.suite"));
            std::fs::write(&path, format!("suite wide\nworkers 10\nm {m}\n")).unwrap();
            SuiteSpec::resolve(path.to_str().unwrap())
        };
        assert_eq!(from_file("10000").unwrap().m_values, vec![MAX_TASKS]);
        let err = from_file("5,10001").unwrap_err();
        assert!(err.ends_with("m 10001 is too large: a suite accepts m up to 10000"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn points_ceiling_admits_every_preset_and_refuses_one_more_point() {
        for name in PRESET_NAMES {
            let suite = SuiteSpec::preset(name).unwrap();
            let points = suite.campaign(1, 1, 2).points().len();
            assert!(points <= MAX_POINTS, "{name} sweeps {points} points");
        }
        // 1 × 100 × 100 points is the corner; 73 × 137 = 10 001 is one past it.
        let mut suite = SuiteSpec::paper();
        suite.m_values = vec![5];
        suite.ncom_values = (1..=100).collect();
        suite.wmin_values = (1..=100).collect();
        suite.validate().expect("the corner is accepted");
        suite.ncom_values = (1..=73).collect();
        suite.wmin_values = (1..=137).collect();
        assert_eq!(
            suite.validate().unwrap_err(),
            "1 m × 73 ncom × 137 wmin values are too many experiment points: a suite accepts \
             up to 10000"
        );
        // 2⁴⁸ points are refused without building any.
        suite.ncom_values = vec![1; 1 << 16];
        suite.wmin_values = vec![1; 1 << 16];
        suite.m_values = vec![5; 1 << 16];
        assert!(suite.validate().unwrap_err().contains("too many experiment points"));
        let text = format!("suite wide\nncom {}\nwmin 1,2\n", join(&vec![5; 5_001]));
        let err = SuiteSpec::parse(&text).unwrap_err();
        assert!(err.starts_with("2 m × 5001 ncom × 2 wmin values are too many"), "{err}");
    }

    #[test]
    fn a_campaign_at_the_wmin_ceiling_runs_without_overflow() {
        // Tests build with overflow checks, so any wrapping product panics.
        let mut suite = SuiteSpec::paper();
        suite.wmin_values = vec![suite.max_wmin()];
        let config = suite.campaign(1, 1, 2);
        let results = crate::campaign::run_campaign(&config, |_, _| {});
        assert_eq!(results.results.len(), config.points().len() * config.heuristics.len());
    }

    #[test]
    fn resolve_reads_suite_files() {
        let dir = std::env::temp_dir().join(format!("dg-suite-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("mini.suite");
        std::fs::write(&path, SuiteSpec::volatile().render()).unwrap();
        let resolved = SuiteSpec::resolve(path.to_str().unwrap()).unwrap();
        assert_eq!(resolved, SuiteSpec::volatile());
        std::fs::write(&path, "garbage line\n").unwrap();
        assert!(SuiteSpec::resolve(path.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_projection_carries_axes_and_model() {
        let suite = SuiteSpec::largegrid();
        let config = suite.campaign(2, 3, 50_000);
        assert_eq!(config.num_workers, 200);
        assert_eq!(config.m_values, vec![20, 40]);
        assert_eq!(config.ncom_values, vec![10, 20, 40]);
        assert_eq!(config.wmin_values, vec![1, 2, 3]);
        assert_eq!(config.scenarios_per_point, 2);
        assert_eq!(config.trials_per_scenario, 3);
        assert_eq!(config.suite, "largegrid");
        assert_eq!(config.model, suite.model);
        assert_eq!(config.points().len(), 2 * 3 * 3);

        let paper = SuiteSpec::paper().campaign(3, 3, 200_000);
        assert_eq!(paper.suite, "paper");
        assert!(paper.model.is_paper());
    }

    #[test]
    fn model_spec_is_canonical() {
        assert_eq!(
            model_spec(&ScenarioModel::paper()),
            "speeds=paper;availability=paper;trials=markov;app=5x1"
        );
        let volatile = SuiteSpec::volatile().model;
        assert_eq!(
            model_spec(&volatile),
            "speeds=paper;availability=volatile;trials=markov;app=5x1"
        );
    }
}
