//! The campaign workloads, `table1-golden` and `massive-2k`: one `table1`
//! campaign per pass, run exactly as the `table1` binary runs it (options →
//! `run_campaign_with` with a fresh store → `table_comparison` →
//! `render_table`), single-threaded on the default event engine.

use crate::measure::{self, median, percentile, secs_since, WorkDir};
use crate::report::{Metrics, PER_LAYER};
use crate::trace::{span, CountingAvailability, DecideTrace, TracedScheduler};
use crate::{Budget, Outcome, PassSample, Samples, Tally};
use dg_analysis::EvalCache;
use dg_availability::rng::derive_seed;
use dg_availability::RealizedTrial;
use dg_experiments::campaign::{CampaignConfig, InstanceResult};
use dg_experiments::cli::CliOptions;
use dg_experiments::executor::{config_fingerprint, run_campaign_with, ExecutorOptions};
use dg_experiments::runner::{scheduler_seed, trial_seed};
use dg_experiments::store::{encode_instance, shard_name, CampaignStore, MANIFEST_NAME};
use dg_experiments::stream::CampaignAccumulator;
use dg_experiments::tables::{render_table, table_comparison};
use dg_heuristics::HeuristicSpec;
use dg_platform::Scenario;
use dg_sim::{SimulationLimits, Simulator};
use std::cell::Cell;
use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The Table I campaign the golden corpus pins.
pub const TABLE1_GOLDEN: &str = "table1-golden";
/// The 2,000-worker `massive` campaign over IE and Y-IE.
pub const MASSIVE_2K: &str = "massive-2k";

/// The `table1` flags of a campaign workload (seed and store excluded).
pub fn workload_args(workload: &str) -> Option<&'static [&'static str]> {
    match workload {
        TABLE1_GOLDEN => Some(&["--scenarios", "1", "--trials", "1", "--wmin", "1,2"]),
        MASSIVE_2K => Some(&[
            "--suite",
            "massive",
            "--workers",
            "2000",
            "--scenarios",
            "1",
            "--trials",
            "1",
            "--heuristics",
            "IE,Y-IE",
        ]),
        _ => None,
    }
}

/// A prepared campaign: what `table1` holds once its set-up is done.
pub struct Campaign {
    /// The campaign configuration (restricted to the suite's smallest `m`).
    pub config: CampaignConfig,
    /// Executor options: raw retention plus the store directory.
    pub options: ExecutorOptions,
    /// The rendered table's title.
    pub title: String,
}

/// The program's set-up before a pass: parse the `table1` flags, check the
/// reference heuristic, build the configuration and the executor options.
/// `extra` appends flags (the output check adds `--engine slot`).
pub fn prepare(workload: &str, seed: u64, out: &Path, extra: &[&str]) -> Result<Campaign, String> {
    let base = workload_args(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed.to_string();
    let out = out.display().to_string();
    let args = base.iter().copied().chain(["--seed", &seed, "--out", &out, "--quiet"]);
    let opts = CliOptions::parse(args.chain(extra.iter().copied()))?;
    opts.require_reference("IE")?;
    let config = opts.campaign()?;
    let m = *config.m_values.iter().min().ok_or("the suite has no m value")?;
    Ok(Campaign {
        config: config.with_m(m),
        options: opts.executor(),
        title: format!("TABLE I. RESULTS WITH m = {m} TASKS."),
    })
}

/// The bytes a campaign left in its store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreBytes {
    /// Shard contents, concatenated in point order.
    pub shards: String,
    /// `manifest.json`.
    pub manifest: String,
}

/// Read the store a campaign over `points` experiment points wrote to `dir`.
pub fn read_store(dir: &Path, points: usize) -> Result<StoreBytes, String> {
    let read = |name: &str| {
        fs::read_to_string(dir.join(name))
            .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
    };
    let mut shards = String::new();
    for point in 0..points {
        shards.push_str(&read(&shard_name(point))?);
    }
    Ok(StoreBytes { shards, manifest: read(MANIFEST_NAME)? })
}

/// What one untraced pass produced.
pub struct Pass {
    /// Wall-clock of the whole pass, seconds.
    pub wall_s: f64,
    /// Wall-clock of the `run_campaign_with` call alone, seconds.
    pub executor_s: f64,
    /// Time between consecutive instance completions (the first measured
    /// from the pass start), seconds, in completion order.
    pub instance_s: Vec<f64>,
    /// The rendered table.
    pub table: String,
}

/// One untraced pass into the campaign's (fresh) store directory.
pub fn run_pass(campaign: &Campaign) -> Result<Pass, String> {
    let marks = Mutex::new(Vec::with_capacity(campaign.config.total_runs()));
    let start = Instant::now();
    let outcome = run_campaign_with(&campaign.config, &campaign.options, |_, _| {
        marks.lock().expect("progress marks lock poisoned").push(Instant::now())
    })?;
    let executor_s = secs_since(start);
    let results = outcome.results;
    let subset: Vec<_> = results.results.iter().collect();
    let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
    let table = render_table(&campaign.title, &comparison);
    let wall_s = secs_since(start);
    let mut previous = start;
    let instance_s = marks
        .into_inner()
        .expect("progress marks lock poisoned")
        .into_iter()
        .map(|mark| {
            let gap = mark.duration_since(previous).as_secs_f64();
            previous = mark;
            gap
        })
        .collect();
    Ok(Pass { wall_s, executor_s, instance_s, table })
}

/// What one traced pass produced: its wall-clock, its per-layer split and
/// its table (its store is left in the directory it was given).
pub struct TracedPass {
    /// Wall-clock of the traced pass, seconds.
    pub wall_s: f64,
    /// Per-layer metrics (all but `trace.overhead_pct` and
    /// `executor.run_ms`, which come from the untraced passes).
    pub layers: Metrics,
    /// The rendered table.
    pub table: String,
}

/// Span totals of one traced campaign pass, nanoseconds.
#[derive(Default)]
struct Spans {
    generate: u64,
    tables: u64,
    realize: u64,
    sim: u64,
    aggregate: u64,
    encode: u64,
    write: u64,
    render: u64,
}

/// One traced pass: the executor's single-threaded loop replayed through
/// public entry points with a span around every layer call, writing the
/// same store to `dir`.
pub fn run_traced_pass(campaign: &Campaign, dir: &Path) -> Result<TracedPass, String> {
    let config = &campaign.config;
    let points = config.points();
    let heuristic_names: Vec<String> = config.heuristics.iter().map(HeuristicSpec::name).collect();
    let limits = SimulationLimits::with_max_slots(config.max_slots).map_err(|e| e.to_string())?;
    let mut t = Spans::default();
    let mut decide = DecideTrace::default();
    let queries = Cell::new(0u64);
    let (mut executed, mut simulated) = (0u64, 0u64);
    let (mut hits, mut misses, mut accumulators, mut terms) = (0u64, 0u64, 0u64, 0u64);
    let mut store_bytes = 0u64;

    let start = Instant::now();
    let store = span(&mut t.write, || CampaignStore::open(dir, config_fingerprint(config), false))?;
    let mut streaming = span(&mut t.aggregate, || CampaignAccumulator::new(config, "IE"));
    let mut raw: Vec<InstanceResult> = Vec::with_capacity(config.total_runs());
    for (point_index, &params) in points.iter().enumerate() {
        let mut lines = Vec::new();
        for scenario_index in 0..config.scenarios_per_point {
            // The executor's scenario seed derivation.
            let seed =
                derive_seed(config.base_seed, (point_index as u64) << 20 | scenario_index as u64);
            let scenario =
                span(&mut t.generate, || Scenario::generate_with(params, &config.model, seed));
            let cache = span(&mut t.tables, || {
                EvalCache::new(&scenario.platform, &scenario.master, config.epsilon)
            });
            let mut block = Vec::with_capacity(config.trials_per_scenario * heuristic_names.len());
            for trial_index in 0..config.trials_per_scenario {
                let realization_seed = trial_seed(config.base_seed, scenario.seed, trial_index);
                let trial = span(&mut t.realize, || {
                    RealizedTrial::new(scenario.realize_trial(realization_seed, config.max_slots))
                });
                for heuristic in &config.heuristics {
                    let seed = scheduler_seed(config.base_seed, scenario.seed, trial_index);
                    let mut scheduler = TracedScheduler::new(
                        heuristic.build_with_cache(seed, &cache),
                        &mut decide,
                        !matches!(heuristic, HeuristicSpec::Random),
                        heuristic.is_proactive(),
                    );
                    let availability = CountingAvailability::new(trial.replay(), &queries);
                    let (outcome, _, report) = span(&mut t.sim, || {
                        Simulator::new(&scenario, availability)
                            .with_limits(limits)
                            .with_mode(config.engine)
                            .run_with_report(&mut scheduler)
                    });
                    executed += report.executed_slots;
                    simulated += report.simulated_slots;
                    block.push(InstanceResult {
                        params,
                        scenario_index,
                        trial_index,
                        heuristic: heuristic.name(),
                        outcome,
                    });
                }
            }
            let stats = cache.stats();
            hits += stats.group_hits;
            misses += stats.group_misses;
            accumulators += cache.accumulators_built();
            terms += cache.series_terms();
            span(&mut t.aggregate, || streaming.consume_scenario(point_index, &block));
            span(&mut t.encode, || {
                lines.extend(
                    block.iter().map(|r| encode_instance(point_index, config.suite_tag(), None, r)),
                )
            });
            raw.extend(block);
        }
        store_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        span(&mut t.write, || store.write_shard(point_index, &lines))?;
    }
    span(&mut t.write, || store.finalize())?;
    let table = span(&mut t.render, || {
        let subset: Vec<_> = raw.iter().collect();
        render_table(&campaign.title, &table_comparison(&subset, "IE", &heuristic_names))
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(&streaming);

    let ms = |ns: u64| ns as f64 / 1e6;
    let decide_ns = decide.decide_total_ns();
    let consults = decide.consults();
    let mut layers = Metrics::new(PER_LAYER);
    layers.set("platform.generate_ms", ms(t.generate));
    layers.set("availability.realize_ms", ms(t.realize));
    layers.set("availability.queries", queries.get() as f64);
    layers.set("sim.run_ms", ms(t.sim));
    layers.set("sim.self_ms", ms(t.sim.saturating_sub(decide_ns + decide.index_ns)));
    layers.set("sim.consults", consults as f64);
    layers.set("sim.executed_slots", executed as f64);
    layers.set("sim.simulated_slots", simulated as f64);
    layers.set("sim.skip_ratio", 1.0 - executed as f64 / simulated.max(1) as f64);
    layers.set("heuristics.decide_ms", ms(decide_ns));
    let decide_us: Vec<f64> = decide.decide_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    if !decide_us.is_empty() {
        layers.set("heuristics.decide_p99_us", percentile(&decide_us, 99.0));
        layers.set("heuristics.first_decision_ms", decide_us[0] / 1e3);
    }
    layers.set("heuristics.index_build_ms", ms(decide.index_ns));
    layers.set("heuristics.classes", decide.classes as f64 / decide.index_builds.max(1) as f64);
    set_cache_counters(&mut layers, hits, misses, accumulators, terms, consults);
    layers.set("analysis.tables_ms", ms(t.tables));
    layers.set("store.encode_ms", ms(t.encode));
    layers.set("store.write_ms", ms(t.write));
    layers.set("store.bytes", store_bytes as f64);
    layers.set("stream.aggregate_ms", ms(t.aggregate));
    layers.set("tables.render_ms", ms(t.render));
    Ok(TracedPass { wall_s: wall_ns as f64 / 1e9, layers, table })
}

/// Set the `analysis.*` cache counters and their ratios.
pub(crate) fn set_cache_counters(
    layers: &mut Metrics,
    hits: u64,
    misses: u64,
    accumulators: u64,
    terms: u64,
    consults: u64,
) {
    layers.set("analysis.group_hits", hits as f64);
    layers.set("analysis.group_misses", misses as f64);
    layers.set("analysis.hits_per_consult", hits as f64 / consults.max(1) as f64);
    layers.set("analysis.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    layers.set("analysis.accumulators_built", accumulators as f64);
    layers.set("analysis.accumulators_per_miss", accumulators as f64 / misses.max(1) as f64);
    layers.set("analysis.series_terms", terms as f64);
}

/// The expected store and table of a workload at `seed`: the committed
/// golden corpus for `table1-golden` at the default seed, otherwise an
/// untimed run of the same campaign on the slot-stepped reference engine.
fn expected_output(
    workload: &str,
    seed: u64,
    work: &WorkDir,
) -> Result<(StoreBytes, String), String> {
    if workload == TABLE1_GOLDEN && seed == crate::DEFAULT_SEED {
        let golden = measure::repo_root().join("tests").join("golden");
        let read = |name: &str| {
            fs::read_to_string(golden.join(name))
                .map_err(|e| format!("cannot read golden fixture {name}: {e}"))
        };
        let store = StoreBytes {
            shards: read("table1_shards.jsonl")?,
            manifest: read("table1_manifest.json")?,
        };
        return Ok((store, read("table1_m5.txt")?));
    }
    let dir = work.fresh("slot");
    let slot = prepare(workload, seed, &dir, &["--engine", "slot"])?;
    let pass = run_pass(&slot)?;
    Ok((read_store(&dir, slot.config.points().len())?, pass.table))
}

/// Check one pass's store and table against the expected ones: every
/// record line, the manifest and the table count as one checked item each.
fn check_pass(
    tally: &mut Tally,
    what: &str,
    expected: &(StoreBytes, String),
    store: &StoreBytes,
    table: &str,
) {
    tally.lines(what, &expected.0.shards, &store.shards);
    tally.item(&format!("{what} manifest"), expected.0.manifest == store.manifest);
    tally.item(&format!("{what} table"), expected.1 == table);
}

/// Campaigns a timed run cycles through, at base seeds `seed`, `seed + 1`,
/// …. One campaign is a single scenario draw, and its wall-clock moves with
/// the draw: across `table1-golden` seeds one pass takes 0.4 to 1.0 s. Once
/// each pass is scaled by the host's speed, which draws a run averages is
/// most of what separates two runs, so a run averages many: with 16, ten
/// runs spread `pass_s` by 0.09 to 0.13, and one pass per campaign reads
/// about as steadily as four. `massive-2k` uses three because its untimed
/// slot-engine check costs a full pass per campaign.
fn campaigns_per_run(workload: &str) -> u64 {
    if workload == MASSIVE_2K {
        3
    } else {
        32
    }
}

/// Program set-ups timed back to back before each pass (about 1.3 ms).
const SETUP_REPS: usize = 1_000;

/// Run a campaign workload: the untimed expected output of every campaign
/// the run measures, then either the timed passes (`trace == false`), each
/// preceded by a timed probe batch and a timed batch of set-ups, or the
/// untraced reference passes plus the traced passes of the first campaign
/// (`trace == true`). Every pass is checked.
pub fn run_workload(
    workload: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Outcome, String> {
    let work = WorkDir::new(workload)?;
    let out = work.fresh("store");
    let mut tally = Tally::default();
    let count = if trace { 1 } else { campaigns_per_run(workload) };
    let mut campaigns = Vec::new();
    for i in 0..count {
        let seed = seed.wrapping_add(i);
        let campaign = prepare(workload, seed, &out, &[])?;
        campaigns.push((seed, campaign, expected_output(workload, seed, &work)?));
    }
    let points = campaigns[0].1.config.points().len();
    let instances = campaigns[0].1.config.total_runs();

    // Untraced passes: the timed passes, or the overhead reference of a
    // traced run (which spends the other half of its budget tracing).
    let untraced_budget = if trace { budget.half() } else { budget };
    let mut samples = Samples::new(campaigns.len());
    let mut executor_s = Vec::new();
    let mut table = String::new();
    let started = Instant::now();
    while untraced_budget.wants_more(samples.passes(), campaigns.len(), started) {
        let input = samples.next_input();
        let (seed, campaign, expected) = &campaigns[input];
        let probe_s = measure::probe_s();
        let setup_s = measure::batch_s(SETUP_REPS, || prepare(workload, *seed, &out, &[]));
        work.fresh("store");
        measure::reset_peak_rss();
        let pass = run_pass(campaign)?;
        let rss_mb = measure::peak_rss_mb().unwrap_or(0.0);
        check_pass(&mut tally, "timed pass", expected, &read_store(&out, points)?, &pass.table);
        let sample = PassSample {
            wall_s: pass.wall_s,
            op_p50_s: percentile(&pass.instance_s, 50.0),
            op_p99_s: percentile(&pass.instance_s, 99.0),
            rss_mb,
            setup_s,
            probe_s,
        };
        samples.push(input, sample);
        executor_s.push(pass.executor_s);
        table = pass.table;
    }
    if !trace {
        return Ok(Outcome::timed(samples, instances, tally));
    }

    // The last untraced pass is the untimed output every traced pass must
    // reproduce byte for byte.
    let untimed = (read_store(&out, points)?, table);
    let traced_dir = work.fresh("traced");
    let (mut traced, mut traced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while budget.half().wants_more(traced.len(), 1, started) {
        work.fresh("traced");
        let pass = run_traced_pass(&campaigns[0].1, &traced_dir)?;
        let store = read_store(&traced_dir, points)?;
        check_pass(&mut tally, "traced pass", &untimed, &store, &pass.table);
        traced_walls.push(pass.wall_s);
        traced.push(pass.layers);
    }
    let mut outcome = Outcome::traced(traced, &traced_walls, samples.into_walls(), tally);
    // The executor's own bookkeeping (fan-out, shard writer, progress) has
    // no public entry point to span, so its layer is the program's whole
    // `run_campaign_with` call, untraced.
    outcome.metrics.set("executor.run_ms", median(&executor_s) * 1e3);
    Ok(outcome)
}
