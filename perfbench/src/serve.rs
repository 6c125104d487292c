//! The `serve-replay` workload: one closed-loop client replays recorded
//! decide requests, one at a time, through `ScheduleService::handle_line`
//! over a fresh `serve --suite paper` core.
//!
//! The requests are recorded the way the service's equivalence test records
//! them: the 16 deterministic heuristics are simulated on trials of the
//! served scenario, every consulted view is rendered as a request next to
//! the decision the simulation took, and the recordings are interleaved
//! round-robin.

use crate::measure::{self, percentile, secs_since};
use crate::report::{Metrics, PER_LAYER};
use crate::trace::span;
use crate::{Budget, Outcome, PassSample, Samples, Tally};
use dg_analysis::{EvalCache, EvalCacheStats};
use dg_availability::rng::derive_seed;
use dg_availability::RealizedTrial;
use dg_experiments::executor::resolve_threads;
use dg_experiments::runner::{scheduler_seed, trial_seed};
use dg_experiments::service::{
    CurrentConfig, DecideReply, DecideRequest, Request, ScheduleService, ServeOptions, ServiceCore,
};
use dg_heuristics::HeuristicSpec;
use dg_platform::Scenario;
use dg_sim::{
    Assignment, Decision, Reevaluation, Scheduler, SimMode, SimView, SimulationLimits, Simulator,
};
use std::sync::Arc;
use std::time::Instant;

/// The workload's name.
pub const SERVE_REPLAY: &str = "serve-replay";

/// Requests replayed per pass: the first 1,000 of the interleaved
/// recordings.
pub const REQUESTS: usize = 1_000;

/// Scenarios a timed run cycles through, served at seeds `seed`,
/// `seed + 1`, …: a pass's cold start is a large share of its time and
/// moves with the scenario draw.
const SCENARIOS_PER_RUN: u64 = 16;

/// The `serve` flags of the workload at `seed`.
pub fn serve_options(seed: u64) -> Result<ServeOptions, String> {
    ServeOptions::parse(["--suite", "paper", "--seed", &seed.to_string(), "--quiet"])
}

/// The program's set-up before a pass: parse the `serve` flags, build the
/// warm core and open a session on it.
pub fn setup(seed: u64) -> Result<ScheduleService, String> {
    let opts = serve_options(seed)?;
    Ok(ScheduleService::new(Arc::new(ServiceCore::from_options(&opts.base)?)))
}

/// A recorded request stream.
pub struct Replay {
    /// Request lines, in replay order (`id` = position).
    pub lines: Vec<String>,
    /// For each request, the reply up to its latency field, rendered with
    /// the decision the simulation took at that view.
    pub expected: Vec<String>,
}

/// Records the consulted views of a simulation as decide requests.
struct Recorder {
    inner: Box<dyn Scheduler>,
    heuristic: String,
    trial: usize,
    records: Vec<(DecideRequest, Option<Assignment>)>,
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let request = request_of(view, &self.heuristic, self.trial);
        let decision = self.inner.decide(view);
        let taken = match &decision {
            Decision::KeepCurrent => None,
            Decision::NewConfiguration(a) => Some(a.clone()),
        };
        self.records.push((request, taken));
        decision
    }

    fn on_iteration_complete(&mut self, completed: u64) {
        self.inner.on_iteration_complete(completed);
    }

    fn reevaluation(&self) -> Reevaluation {
        self.inner.reevaluation()
    }
}

/// The decide request describing `view`.
fn request_of(view: &SimView<'_>, heuristic: &str, trial: usize) -> DecideRequest {
    let states: String = view.workers.iter().map(|w| w.state.code()).collect();
    let mut req = DecideRequest::new(heuristic, &states);
    req.time = view.time;
    req.iteration = view.iteration;
    req.completed = view.completed_iterations;
    req.started_at = view.iteration_started_at;
    req.trial = trial;
    req.holdings = Some(
        view.workers
            .iter()
            .map(|w| {
                let d = &w.dynamic;
                (d.has_program, d.data_messages, d.partial_transfer, d.partial_is_program)
            })
            .collect(),
    );
    req.current = view.current.map(|cfg| CurrentConfig {
        entries: cfg.assignment.entries().to_vec(),
        selected_at: cfg.selected_at,
        done: cfg.computation_done,
    });
    req
}

/// The part of a reply before its latency field.
fn before_latency(reply: &str) -> &str {
    reply.find(",\"latency_us\":").map_or(reply, |at| &reply[..at])
}

/// `reply` with its latency value (the one field that varies between
/// passes) blanked, for byte comparisons.
pub fn mask_latency(reply: &str) -> String {
    let Some(at) = reply.find(",\"latency_us\":") else { return reply.to_string() };
    let value = at + ",\"latency_us\":".len();
    let end = reply[value..].find(|c: char| !c.is_ascii_digit()).map_or(reply.len(), |n| value + n);
    format!("{}_{}", &reply[..value], &reply[end..])
}

/// Record the request stream for the core `serve_options(seed)` builds:
/// simulate the 16 deterministic heuristics on trials 0, 1, … of the served
/// scenario until at least `requests` views were consulted, then
/// interleave the recordings round-robin and keep the first `requests`.
pub fn record(seed: u64, requests: usize) -> Result<Replay, String> {
    let opts = serve_options(seed)?;
    let config = opts.base.campaign()?;
    let core = ServiceCore::from_options(&opts.base)?;
    let scenario = &core.scenario;
    let cache = EvalCache::new(&scenario.platform, &scenario.master, config.epsilon);
    let limits = SimulationLimits::with_max_slots(config.max_slots).map_err(|e| e.to_string())?;
    let heuristics: Vec<HeuristicSpec> =
        HeuristicSpec::all().into_iter().filter(|h| !matches!(h, HeuristicSpec::Random)).collect();
    let mut recordings = Vec::new();
    let mut total = 0;
    for trial in 0.. {
        if total >= requests {
            break;
        }
        if trial == 64 {
            return Err(format!("64 trials produced only {total} requests"));
        }
        let realization = trial_seed(core.base_seed, scenario.seed, trial);
        let realized = RealizedTrial::new(scenario.realize_trial(realization, config.max_slots));
        for heuristic in &heuristics {
            let mut recorder = Recorder {
                inner: heuristic
                    .build_with_cache(scheduler_seed(core.base_seed, scenario.seed, trial), &cache),
                heuristic: heuristic.name(),
                trial,
                records: Vec::new(),
            };
            Simulator::new(scenario, realized.replay())
                .with_limits(limits)
                .with_mode(SimMode::EventDriven)
                .run(&mut recorder);
            total += recorder.records.len();
            recordings.push(recorder.records.into_iter());
        }
    }
    let mut replay =
        Replay { lines: Vec::with_capacity(requests), expected: Vec::with_capacity(requests) };
    while replay.lines.len() < requests {
        for recording in &mut recordings {
            if replay.lines.len() == requests {
                break;
            }
            let Some((mut req, taken)) = recording.next() else { continue };
            req.id = Some(replay.lines.len() as u64);
            let expected = DecideReply {
                id: req.id,
                heuristic: req.heuristic.clone(),
                assignment: taken,
                latency_us: 0,
                cache: EvalCacheStats::default(),
                decision_threads: 1,
            };
            replay.expected.push(before_latency(&expected.render()).to_string());
            replay.lines.push(req.render());
        }
    }
    Ok(replay)
}

/// Check every reply of a pass against the recorded decisions: one checked
/// item per request.
fn check_replies(tally: &mut Tally, what: &str, replay: &Replay, replies: &[String]) {
    for (i, expected) in replay.expected.iter().enumerate() {
        let reply = replies.get(i).map_or("", String::as_str);
        if before_latency(reply) == expected {
            tally.attempted += 1;
        } else {
            tally.mismatch(&format!("{what} request {i}"), expected, reply);
        }
    }
}

/// What one untraced pass produced.
pub struct Pass {
    /// Wall-clock of the whole replay, seconds.
    pub wall_s: f64,
    /// Per-request `handle_line` latency, seconds, in request order.
    pub request_s: Vec<f64>,
    /// One reply line per request.
    pub replies: Vec<String>,
}

/// Replay every request through `service`, timing each `handle_line` call.
pub fn run_pass(service: &mut ScheduleService, replay: &Replay) -> Pass {
    let mut request_s = Vec::with_capacity(replay.lines.len());
    let mut replies = Vec::with_capacity(replay.lines.len());
    let start = Instant::now();
    for line in &replay.lines {
        let sent = Instant::now();
        let reply = service.handle_line(line);
        request_s.push(secs_since(sent));
        replies.push(reply.join("\n"));
    }
    Pass { wall_s: secs_since(start), request_s, replies }
}

/// What one traced pass produced.
pub struct TracedPass {
    /// Wall-clock of the traced replay, seconds.
    pub wall_s: f64,
    /// Per-layer metrics (all but `trace.overhead_pct`).
    pub layers: Metrics,
    /// One reply line per request.
    pub replies: Vec<String>,
}

/// One traced pass: the core is built the way `ServiceCore::from_options`
/// builds it, and every request goes through `Request::parse`,
/// `ServiceCore::decide` and `DecideReply::render` separately — the steps
/// `handle_line` takes for a decide request — with a span around each.
pub fn run_traced_pass(seed: u64, replay: &Replay) -> Result<TracedPass, String> {
    let opts = serve_options(seed)?;
    let config = opts.base.campaign()?;
    let m = *config.m_values.iter().min().ok_or("the suite has no m value")?;
    let config = config.with_m(m);
    let params = *config.points().first().ok_or("the suite has no experiment point")?;
    let (mut generate_ns, mut tables_ns) = (0u64, 0u64);
    // Scenario 0 of point 0, seeded as the executor seeds it.
    let scenario_seed = derive_seed(config.base_seed, 0);
    let scenario =
        span(&mut generate_ns, || Scenario::generate_with(params, &config.model, scenario_seed));
    let mut core =
        span(&mut tables_ns, || ServiceCore::new(scenario, config.epsilon, config.base_seed));
    core.cache.set_decision_threads(resolve_threads(opts.base.decision_threads));

    let (mut parse_ns, mut decide_ns, mut render_ns) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut cold) = (0u64, 0u64, 0u64);
    let mut latency_us = Vec::with_capacity(replay.lines.len());
    let mut replies = Vec::with_capacity(replay.lines.len());
    let start = Instant::now();
    for line in &replay.lines {
        let request = span(&mut parse_ns, || Request::parse(line));
        let Ok(Request::Decide(req)) = request else {
            replies.push(format!("not a decide request: {line}"));
            continue;
        };
        match span(&mut decide_ns, || core.decide(&req)) {
            Ok(reply) => {
                latency_us.push(reply.latency_us as f64);
                hits += reply.cache.group_hits;
                misses += reply.cache.group_misses;
                cold += u64::from(reply.cache.group_misses > 0);
                replies.push(span(&mut render_ns, || reply.render()));
            }
            Err(err) => replies.push(format!("decide failed: {err}")),
        }
    }
    let wall_s = secs_since(start);

    let n = replay.lines.len().max(1) as f64;
    let mut layers = Metrics::new(PER_LAYER);
    layers.set("platform.generate_ms", generate_ns as f64 / 1e6);
    layers.set("analysis.tables_ms", tables_ns as f64 / 1e6);
    if !latency_us.is_empty() {
        layers.set("heuristics.decide_ms", latency_us.iter().sum::<f64>() / 1e3);
        layers.set("heuristics.decide_p99_us", percentile(&latency_us, 99.0));
        layers.set("heuristics.first_decision_ms", latency_us[0] / 1e3);
    }
    let stats = core.cache.stats();
    crate::campaign::set_cache_counters(
        &mut layers,
        stats.group_hits,
        stats.group_misses,
        core.cache.accumulators_built(),
        core.cache.series_terms(),
        latency_us.len() as u64,
    );
    layers.set("service.parse_us", parse_ns as f64 / 1e3 / n);
    layers.set("service.decide_us", decide_ns as f64 / 1e3 / n);
    layers.set("service.render_us", render_ns as f64 / 1e3 / n);
    layers.set("service.cache_hits", hits as f64);
    layers.set("service.cache_misses", misses as f64);
    layers.set("service.cold_requests", cold as f64);
    Ok(TracedPass { wall_s, layers, replies })
}

/// Program set-ups timed back to back before each pass (about 1.2 ms).
const SETUP_REPS: usize = 200;

/// Run the workload: request recording for every scenario the run serves,
/// then the timed passes, each preceded by a timed probe batch and a timed
/// batch of set-ups, or the untraced reference plus traced passes of the
/// first scenario. Every pass is checked.
pub fn run_workload(seed: u64, budget: Budget, trace: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let count = if trace { 1 } else { SCENARIOS_PER_RUN };
    let mut replays = Vec::new();
    for i in 0..count {
        let seed = seed.wrapping_add(i);
        replays.push((seed, record(seed, REQUESTS)?));
    }

    let untraced_budget = if trace { budget.half() } else { budget };
    let mut samples = Samples::new(replays.len());
    let mut replies = Vec::new();
    let started = Instant::now();
    while untraced_budget.wants_more(samples.passes(), replays.len(), started) {
        let input = samples.next_input();
        let (seed, replay) = &replays[input];
        let probe_s = measure::probe_s();
        let setup_s = measure::batch_s(SETUP_REPS, || setup(*seed));
        let mut service = setup(*seed)?;
        measure::reset_peak_rss();
        let pass = run_pass(&mut service, replay);
        let rss_mb = measure::peak_rss_mb().unwrap_or(0.0);
        check_replies(&mut tally, "timed pass", replay, &pass.replies);
        let sample = PassSample {
            wall_s: pass.wall_s,
            op_p50_s: percentile(&pass.request_s, 50.0),
            op_p99_s: percentile(&pass.request_s, 99.0),
            rss_mb,
            setup_s,
            probe_s,
        };
        samples.push(input, sample);
        replies = pass.replies;
    }
    if !trace {
        return Ok(Outcome::timed(samples, REQUESTS, tally));
    }

    // The last untraced pass is the untimed output every traced pass must
    // reproduce, latency values aside.
    let untimed: Vec<String> = replies.iter().map(|r| mask_latency(r)).collect();
    let (seed, replay) = &replays[0];
    let (mut traced, mut traced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while budget.half().wants_more(traced.len(), 1, started) {
        let pass = run_traced_pass(*seed, replay)?;
        check_replies(&mut tally, "traced pass", replay, &pass.replies);
        let same = pass.replies.iter().map(|r| mask_latency(r)).eq(untimed.iter().cloned());
        tally.item("traced pass reproduces the untimed replies", same);
        traced_walls.push(pass.wall_s);
        traced.push(pass.layers);
    }
    Ok(Outcome::traced(traced, &traced_walls, samples.into_walls(), tally))
}
