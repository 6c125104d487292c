//! The long-running scheduler service behind the `serve` binary.
//!
//! Every experiment binary so far pays full platform/table construction per
//! process and exits; the service turns the library inside-out into a
//! **warm-cache daemon**: one [`ServiceCore`] loads a platform/suite once,
//! keeps one shared [`EvalCache`] warm, and answers scheduling-decision
//! requests over a JSONL line protocol — on stdin/stdout or a TCP listener
//! ([`serve_listener`]), one [`ScheduleService`] session per connection.
//!
//! ## Protocol
//!
//! One JSON object per line, one or more JSON objects per line in reply. A
//! request's `op` selects the operation (`decide` when omitted):
//!
//! ```text
//! {"heuristic":"IE","workers":"UURDU"}
//!     -> {"id":null,"ok":true,"op":"decide","heuristic":"IE","decision":"new",
//!         "assignment":[[0,2],[1,2],[4,1]],"latency_us":412,"cache_hits":0,"cache_misses":9}
//! {"batch":[{...},{...}]}            one warm cache amortized across the group
//! {"op":"session","heuristic":"Y-IE","workers":"UUUUU"}   start online mode
//! {"op":"event","worker":2,"state":"D","time":17}         live transition
//! {"op":"stats"}                                          daemon counters
//! ```
//!
//! A decide request carries a [`SimView`](dg_sim::view::SimView)-shaped
//! world state: per-worker
//! availability codes (`workers`), optional holdings (`holdings`, one
//! `[has_program, data_messages, partial_transfer, partial_is_program]`
//! quadruple per worker), the current assignment (`current` entries plus
//! `selected_at`/`done`), and the clock (`time`/`iteration`/`completed`/
//! `started_at`). The scheduler seed is derived from the request's `trial`
//! index exactly as [`crate::runner::run_instance_on`] derives it (or forced
//! with `seed`), and the view is normalized exactly like the engine's
//! pre-decision step ([`DecisionContext::normalize`]) — so the answered
//! decision is **byte-identical** to the one `run_instance_on`'s scheduler
//! would make at the same view.
//!
//! ## Online mode
//!
//! `{"op":"session",...}` instantiates one registry-built scheduler for the
//! connection, starting from the world state its request describes (exactly
//! the state a decide request would be answered at), and keeps each worker's
//! current state and the slot of its last change (initially the request's
//! `time`) — no history, since a decision only reads the present, so a
//! session's memory does not depend on the event times. Subsequent
//! `{"op":"event",...}` lines report availability transitions (reporting the
//! current state again is not a transition; a change at or before the
//! worker's last-change slot is refused). The session's world is a
//! [`DecisionContext`], the engine's own world type, and an event changes it
//! through the engine's rules: [`DecisionContext::normalize`] applies the
//! `DOWN` consequences, and the scheduler is re-consulted exactly when the
//! engine would wake for the transition ([`Reevaluation::wakes_on`]). A
//! changed decision is installed with [`DecisionContext::install`] and
//! emitted as an unsolicited `{"op":"reschedule",...}` record after the
//! event's acknowledgement.
//!
//! Malformed input is answered with `{"ok":false,"error":...}` on the same
//! stream — the daemon never exits on bad input; it shuts down cleanly on
//! EOF (or a closed peer: broken-pipe writes end the session instead of
//! killing the process). So is a line over the length bound of
//! [`ScheduleService::serve`], which is skipped unread.

use crate::cli::CliOptions;
use crate::executor::resolve_threads;
use crate::json::{self, List, Obj, Opt, Str, Value};
use crate::runner::scheduler_seed;
use crate::sweep::scenario_seed;
use dg_analysis::{EvalCache, EvalCacheStats};
use dg_availability::ProcState;
use dg_heuristics::parse_heuristic_named;
use dg_platform::Scenario;
use dg_sim::view::{Decision, Reevaluation, Scheduler};
use dg_sim::{Assignment, DecisionContext};
use std::fmt::Display;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The installed configuration described by a decide request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurrentConfig {
    /// `(worker, tasks)` assignment entries.
    pub entries: Vec<(usize, usize)>,
    /// Time-slot at which the configuration was selected.
    pub selected_at: u64,
    /// Slots of simultaneous computation already accumulated.
    pub done: u64,
}

/// One scheduling-decision request: a [`SimView`]-shaped world state plus the
/// heuristic to consult.
///
/// [`SimView`]: dg_sim::SimView
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: Option<u64>,
    /// Paper name of the heuristic to consult (registry-validated).
    pub heuristic: String,
    /// Per-worker availability codes (`U`/`R`/`D`), one per platform worker.
    pub workers: String,
    /// Current time-slot.
    pub time: u64,
    /// Iteration being executed.
    pub iteration: u64,
    /// Iterations already completed.
    pub completed: u64,
    /// Slot at which the current iteration began.
    pub started_at: u64,
    /// Trial index the scheduler seed is derived from (ignored when `seed`
    /// is given).
    pub trial: usize,
    /// Explicit raw scheduler seed, overriding the `trial` derivation.
    pub seed: Option<u64>,
    /// The installed configuration, if any.
    pub current: Option<CurrentConfig>,
    /// Per-worker holdings `[has_program, data_messages, partial_transfer,
    /// partial_is_program]`; all-fresh when omitted.
    pub holdings: Option<Vec<(bool, usize, u64, bool)>>,
}

impl DecideRequest {
    /// A minimal request: `heuristic` consulted at time 0 on `workers`, no
    /// holdings, no installed configuration, trial 0.
    pub fn new(heuristic: &str, workers: &str) -> Self {
        DecideRequest {
            id: None,
            heuristic: heuristic.to_string(),
            workers: workers.to_string(),
            time: 0,
            iteration: 0,
            completed: 0,
            started_at: 0,
            trial: 0,
            seed: None,
            current: None,
            holdings: None,
        }
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let Value::Obj(fields) = value else {
            return Err("a request must be a JSON object".to_string());
        };
        // Two-pass: heuristic/workers are required, everything else overlays.
        let required =
            |name| value.get(name).ok_or_else(|| format!("missing field '{name}'"))?.string(name);
        let mut req = DecideRequest::new(&required("heuristic")?, &required("workers")?);
        let (mut selected_at, mut done, mut entries) = (None, None, None);
        for (key, value) in fields {
            match key.as_ref() {
                "op" | "heuristic" | "workers" => {}
                "id" => req.id = value.nullable(key)?,
                "time" => req.time = value.num(key)?,
                "iteration" => req.iteration = value.num(key)?,
                "completed" => req.completed = value.num(key)?,
                "started_at" => req.started_at = value.num(key)?,
                "trial" => req.trial = value.num(key)?,
                "seed" => req.seed = value.nullable(key)?,
                "selected_at" => selected_at = Some(value.num(key)?),
                "done" => done = Some(value.num(key)?),
                "current" => entries = tuples(value, key, |[q, x]| Ok((q as usize, x as usize)))?,
                "holdings" => req.holdings = tuples(value, key, holding)?,
                other => return Err(format!("unknown field '{other}'")),
            }
        }
        req.current = entries.map(|entries| CurrentConfig {
            entries,
            selected_at: selected_at.unwrap_or(req.time),
            done: done.unwrap_or(0),
        });
        Ok(req)
    }

    /// Parse a request from one JSONL line (any field order).
    pub fn parse(line: &str) -> Result<Self, String> {
        DecideRequest::from_value(&json::parse(line)?)
    }

    /// Render the request in the canonical field order. `parse` of the result
    /// reproduces the request exactly — the protocol round-trip the property
    /// test pins.
    pub fn render(&self) -> String {
        let current = self.current.as_ref();
        let holdings = self.holdings.as_ref().map(|quads| {
            List(quads.iter().map(|&(hp, dm, pt, pp)| List([hp as u64, dm as u64, pt, pp as u64])))
        });
        Obj::new()
            .field("op", Str("decide"))
            .field("id", Opt(self.id))
            .field("heuristic", Str(&self.heuristic))
            .field("workers", Str(&self.workers))
            .field("time", self.time)
            .field("iteration", self.iteration)
            .field("completed", self.completed)
            .field("started_at", self.started_at)
            .field("trial", self.trial)
            .field("seed", Opt(self.seed))
            .some("current", current.map(|c| entries(&c.entries)))
            .some("selected_at", current.map(|c| c.selected_at))
            .some("done", current.map(|c| c.done))
            .some("holdings", holdings)
            .end()
    }
}

/// `null`, or an array of `N`-integer arrays, each converted by `each`.
fn tuples<T, const N: usize>(
    value: &Value,
    key: &str,
    each: impl Fn([u64; N]) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    match value {
        Value::Null => Ok(None),
        Value::Arr(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(each(item.nums(key)?)?);
            }
            Ok(Some(out))
        }
        _ => Err(format!("field '{key}' must be null or an array of {N}-integer arrays")),
    }
}

/// A `[has_program,data_messages,partial_transfer,partial_is_program]` quad.
fn holding([hp, dm, pt, pp]: [u64; 4]) -> Result<(bool, usize, u64, bool), String> {
    let flag =
        |f| if f < 2 { Ok(f == 1) } else { Err(format!("holdings flags must be 0 or 1, got {f}")) };
    Ok((flag(hp)?, dm as usize, pt, flag(pp)?))
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single decision request.
    Decide(DecideRequest),
    /// A group of decision requests amortizing one warm cache.
    Batch(Vec<DecideRequest>),
    /// Start an online session for this connection.
    Session(DecideRequest),
    /// A live availability transition for the online session.
    Event {
        /// Worker index the transition concerns.
        worker: usize,
        /// The worker's new availability state.
        state: ProcState,
        /// Time-slot of the transition.
        time: u64,
    },
    /// Daemon counters.
    Stats,
}

impl Request {
    /// Parse one JSONL request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = json::parse(line)?;
        if let Some(batch) = value.get("batch") {
            return match batch {
                Value::Arr(items) if !items.is_empty() => items
                    .iter()
                    .map(DecideRequest::from_value)
                    .collect::<Result<_, _>>()
                    .map(Request::Batch),
                _ => Err("field 'batch' must be a non-empty array of requests".to_string()),
            };
        }
        let field = |name| value.get(name).ok_or_else(|| format!("missing field '{name}'"));
        let op = value.get("op").map(|op| op.string("op")).transpose()?;
        match op.as_deref().unwrap_or("decide") {
            "decide" => Ok(Request::Decide(DecideRequest::from_value(&value)?)),
            "session" => Ok(Request::Session(DecideRequest::from_value(&value)?)),
            "event" => {
                let state = field("state")?.string("state")?;
                let state = state
                    .chars()
                    .next()
                    .filter(|_| state.len() == 1)
                    .and_then(ProcState::from_code)
                    .ok_or(format!("invalid state '{state}' (expected U, R or D)"))?;
                let (worker, time) = (field("worker")?.num("worker")?, field("time")?.num("time")?);
                Ok(Request::Event { worker, state, time })
            }
            "stats" => Ok(Request::Stats),
            other => Err(format!("unknown op '{other}' (expected decide, session, event, stats)")),
        }
    }
}

// ---------------------------------------------------------------------------
// The warm core and per-connection sessions
// ---------------------------------------------------------------------------

/// The warm, shareable half of the service: one scenario's platform tables
/// and one [`EvalCache`], built once at startup and shared (via
/// [`EvalCache`]'s state-sharing clone) by every connection and request.
#[derive(Debug)]
pub struct ServiceCore {
    /// The scenario whose platform/application/master every request is
    /// answered against.
    pub scenario: Scenario,
    /// The shared evaluation cache (the Section V group tables).
    pub cache: EvalCache,
    /// Master seed the per-trial scheduler seeds are derived from.
    pub base_seed: u64,
}

impl ServiceCore {
    /// Wrap a scenario into a service core with a fresh evaluation cache of
    /// precision `epsilon`.
    pub fn new(scenario: Scenario, epsilon: f64, base_seed: u64) -> ServiceCore {
        let cache = EvalCache::new(&scenario.platform, &scenario.master, epsilon);
        ServiceCore { scenario, cache, base_seed }
    }

    /// Build the core from campaign CLI options exactly like the executor
    /// builds its first scenario job: the suite's first experiment point at
    /// its smallest `m` (honoring `--workers`/`--ncom`/`--wmin` overrides),
    /// scenario 0, generated from `--seed`.
    pub fn from_options(opts: &CliOptions) -> Result<ServiceCore, String> {
        let config = opts.campaign()?;
        let m = *config.m_values.iter().min().expect("suites have at least one m value");
        let config = config.with_m(m);
        let params = *config.points().first().expect("campaigns have at least one point");
        let seed = scenario_seed(config.base_seed, 0, 0);
        let scenario = Scenario::generate_with(params, &config.model, seed);
        let mut core = ServiceCore::new(scenario, config.epsilon, config.base_seed);
        core.cache.set_decision_threads(resolve_threads(opts.decision_threads));
        Ok(core)
    }

    /// Answer one decision request. The heuristic is instantiated from the
    /// registry with the request's (derived) seed over the shared cache, the
    /// view is normalized like the engine's pre-decision step, and the
    /// decision is returned with the request's decision latency and the
    /// cache hit/miss delta it incurred.
    pub fn decide(&self, req: &DecideRequest) -> Result<DecideReply, String> {
        let (heuristic, mut scheduler, ctx) = self.prepare(req)?;
        let before = self.cache.stats();
        let start = Instant::now();
        let decision = scheduler.decide(&ctx.view(
            &self.scenario.platform,
            &self.scenario.application,
            &self.scenario.master,
        ));
        let latency_us = start.elapsed().as_micros() as u64;
        let delta = self.cache.stats().since(&before);
        Ok(DecideReply {
            id: req.id,
            heuristic,
            assignment: match decision {
                Decision::KeepCurrent => None,
                Decision::NewConfiguration(a) => Some(a),
            },
            latency_us,
            cache: delta,
            decision_threads: self.cache.decision_threads(),
        })
    }

    /// What a decide request and a session start share: the heuristic's
    /// canonical name, its scheduler (built from the registry with the
    /// request's derived or forced seed over the shared cache) and the
    /// request's world state, normalized like the engine's pre-decision step.
    fn prepare(
        &self,
        req: &DecideRequest,
    ) -> Result<(String, Box<dyn Scheduler>, DecisionContext), String> {
        let spec = parse_heuristic_named(&req.heuristic)?;
        let seed = req
            .seed
            .unwrap_or_else(|| scheduler_seed(self.base_seed, self.scenario.seed, req.trial));
        let scheduler = spec.build_with_cache(seed, &self.cache);
        let mut ctx = self.context_of(req)?;
        ctx.normalize();
        Ok((spec.name(), scheduler, ctx))
    }

    /// Materialize a request's world state into an owned decision context.
    fn context_of(&self, req: &DecideRequest) -> Result<DecisionContext, String> {
        let platform = &self.scenario.platform;
        let states = parse_states(&req.workers, platform.num_workers())?;
        let mut ctx = DecisionContext::fresh(&states);
        if req.started_at > req.time {
            return Err(format!(
                "started_at {} is after the current time {}",
                req.started_at, req.time
            ));
        }
        ctx.time = req.time;
        ctx.iteration = req.iteration.max(req.completed);
        ctx.completed_iterations = req.completed;
        ctx.iteration_started_at = req.started_at;
        if let Some(holdings) = &req.holdings {
            if holdings.len() != states.len() {
                return Err(format!(
                    "holdings describe {} workers but the platform has {}",
                    holdings.len(),
                    states.len()
                ));
            }
            for (w, &(hp, dm, pt, pp)) in ctx.workers.iter_mut().zip(holdings) {
                w.dynamic.has_program = hp;
                w.dynamic.data_messages = dm;
                w.dynamic.partial_transfer = pt;
                w.dynamic.partial_is_program = pp;
            }
        }
        if let Some(current) = &req.current {
            let assignment = Assignment::new(current.entries.iter().copied());
            assignment.validate(platform, &self.scenario.application)?;
            if current.selected_at > req.time {
                return Err(format!(
                    "selected_at {} is after the current time {}",
                    current.selected_at, req.time
                ));
            }
            let workload = assignment.workload(platform);
            if current.done >= workload.max(1) {
                return Err(format!(
                    "done {} must be below the configuration workload {workload}",
                    current.done
                ));
            }
            ctx.current = Some(dg_sim::ActiveConfiguration {
                assignment,
                workload,
                computation_done: current.done,
                selected_at: current.selected_at,
            });
        }
        Ok(ctx)
    }
}

fn parse_states(codes: &str, expected: usize) -> Result<Vec<ProcState>, String> {
    if codes.len() != expected {
        return Err(format!(
            "workers describe {} states but the platform has {expected} workers",
            codes.len()
        ));
    }
    codes
        .chars()
        .map(|c| ProcState::from_code(c).ok_or(format!("invalid state code '{c}'")))
        .collect()
}

/// The answer to one decision request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideReply {
    /// Echo of the request's id.
    pub id: Option<u64>,
    /// Canonical name of the consulted heuristic.
    pub heuristic: String,
    /// The chosen assignment, or `None` for "keep the current configuration".
    pub assignment: Option<Assignment>,
    /// Wall-clock decision latency, microseconds.
    pub latency_us: u64,
    /// Cache hits/misses this decision incurred on the shared cache.
    pub cache: EvalCacheStats,
    /// Scoped threads the decision's candidate scans were allowed to use.
    pub decision_threads: usize,
}

impl DecideReply {
    /// Render the reply as one JSONL line.
    pub fn render(&self) -> String {
        Obj::new()
            .field("id", Opt(self.id))
            .field("ok", true)
            .field("op", Str("decide"))
            .field("heuristic", Str(&self.heuristic))
            .field("decision", Str(if self.assignment.is_some() { "new" } else { "keep" }))
            .field("assignment", Opt(self.assignment.as_ref().map(|a| entries(a.entries()))))
            .field("latency_us", self.latency_us)
            .field("cache_hits", self.cache.group_hits)
            .field("cache_misses", self.cache.group_misses)
            .field("decision_threads", self.decision_threads)
            .end()
    }
}

fn error_line(id: Option<u64>, message: &str) -> String {
    Obj::new().field("id", Opt(id)).field("ok", false).field("error", Str(message)).end()
}

/// `(worker, tasks)` assignment entries, as `[[worker,tasks],...]`.
fn entries(entries: &[(usize, usize)]) -> impl Display + '_ {
    List(entries.iter().map(|&(q, x)| List([q, x])))
}

/// One connection's online session: a registry-built scheduler and the world
/// state the events drive, with each worker's last-change slot.
struct OnlineSession {
    heuristic: String,
    scheduler: Box<dyn Scheduler>,
    reevaluation: Reevaluation,
    last_change: Vec<u64>,
    ctx: DecisionContext,
}

/// What one serve loop did, reported at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered (batch entries count individually).
    pub requests: u64,
    /// Error lines emitted.
    pub errors: u64,
    /// Unsolicited reschedule records emitted.
    pub reschedules: u64,
}

/// One connection's view of the service: the shared warm core plus the
/// connection's online session and counters.
pub struct ScheduleService {
    core: Arc<ServiceCore>,
    session: Option<OnlineSession>,
    summary: ServeSummary,
}

impl ScheduleService {
    /// A session over a shared core (one per connection; the cache stays
    /// shared through the core).
    pub fn new(core: Arc<ServiceCore>) -> ScheduleService {
        ScheduleService { core, session: None, summary: ServeSummary::default() }
    }

    /// The shared core.
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Handle one request line; returns the reply lines to write, in order.
    /// Malformed input yields an error line, never a panic or an exit.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(err) => {
                self.summary.errors += 1;
                return vec![error_line(None, &err)];
            }
        };
        match request {
            Request::Decide(req) => vec![self.answer(&req)],
            Request::Batch(reqs) => vec![self.handle_batch(&reqs)],
            Request::Session(req) => self.start_session(&req),
            Request::Event { worker, state, time } => self.handle_event(worker, state, time),
            Request::Stats => {
                self.summary.requests += 1;
                let stats = self.core.cache.stats();
                vec![Obj::new()
                    .field("ok", true)
                    .field("op", Str("stats"))
                    .field("requests", self.summary.requests)
                    .field("errors", self.summary.errors)
                    .field("reschedules", self.summary.reschedules)
                    .field("session", Opt(self.session.as_ref().map(|s| Str(&s.heuristic))))
                    .field("cache_hits", stats.group_hits)
                    .field("cache_misses", stats.group_misses)
                    .field("hit_rate", format_args!("{:.4}", stats.hit_rate()))
                    .end()]
            }
        }
    }

    /// Answer one decide request with its reply line, or an error line.
    fn answer(&mut self, req: &DecideRequest) -> String {
        self.summary.requests += 1;
        self.core.decide(req).map(|reply| reply.render()).unwrap_or_else(|err| {
            self.summary.errors += 1;
            error_line(req.id, &err)
        })
    }

    /// Answer a request group as one line: the members are answered in
    /// request order against the same warm cache (each hits what the earlier
    /// ones computed), with the group's total latency and cache delta
    /// alongside the per-request replies.
    fn handle_batch(&mut self, reqs: &[DecideRequest]) -> String {
        let before = self.core.cache.stats();
        let start = Instant::now();
        let parts: Vec<String> = reqs.iter().map(|req| self.answer(req)).collect();
        let latency_us = start.elapsed().as_micros() as u64;
        let delta = self.core.cache.stats().since(&before);
        Obj::new()
            .field("ok", true)
            .field("op", Str("batch"))
            .field("replies", List(&parts))
            .field("latency_us", latency_us)
            .field("cache_hits", delta.group_hits)
            .field("cache_misses", delta.group_misses)
            .field("decision_threads", self.core.cache.decision_threads())
            .end()
    }

    /// Start (or replace) this connection's online session from the world
    /// state the request describes, and make the initial scheduling
    /// decision. Every worker's last change is at the request's `time`.
    fn start_session(&mut self, req: &DecideRequest) -> Vec<String> {
        self.summary.requests += 1;
        let (heuristic, scheduler, ctx) = match self.core.prepare(req) {
            Ok(prepared) => prepared,
            Err(err) => {
                self.summary.errors += 1;
                return vec![error_line(req.id, &err)];
            }
        };
        let workers = ctx.workers.len();
        let reevaluation = scheduler.reevaluation();
        let last_change = vec![req.time; workers];
        let mut session = OnlineSession { heuristic, scheduler, reevaluation, last_change, ctx };
        let mut lines = vec![Obj::new()
            .field("id", Opt(req.id))
            .field("ok", true)
            .field("op", Str("session"))
            .field("heuristic", Str(&session.heuristic))
            .field("workers", workers)
            .end()];
        if let Some(record) = self.consult(&mut session) {
            self.summary.reschedules += 1;
            lines.push(record);
        }
        self.session = Some(session);
        lines
    }

    /// Ingest one availability transition into the online session.
    fn handle_event(&mut self, worker: usize, state: ProcState, time: u64) -> Vec<String> {
        self.summary.requests += 1;
        let fail = |err: String, errors: &mut u64| {
            *errors += 1;
            vec![error_line(None, &err)]
        };
        let Some(mut session) = self.session.take() else {
            return fail(
                "no online session (start one with {\"op\":\"session\",...})".to_string(),
                &mut self.summary.errors,
            );
        };
        if worker >= session.last_change.len() {
            let err = format!("worker {worker} does not exist");
            self.session = Some(session);
            return fail(err, &mut self.summary.errors);
        }
        if time < session.ctx.time {
            let err =
                format!("event at slot {time} predates the session clock {}", session.ctx.time);
            self.session = Some(session);
            return fail(err, &mut self.summary.errors);
        }
        // Reporting the current state again is not a transition; a change
        // never rewrites the slot of the worker's last one.
        let changed = state != session.ctx.workers[worker].state;
        let last = session.last_change[worker];
        if changed && time <= last {
            let horizon = u128::from(last) + 1;
            let err = format!(
                "transition to {state} at slot {time} predates the recorded horizon {horizon}"
            );
            self.session = Some(session);
            return fail(err, &mut self.summary.errors);
        }

        // The engine's wake rule, judged on the world before the event.
        let before = session.ctx.workers[worker];
        let current = session.ctx.current.as_ref();
        let reconsult = changed
            && session.reevaluation.wakes_on(
                before.state,
                state,
                current.is_some_and(|cfg| cfg.assignment.contains(worker)),
                current.is_none(),
                before.dynamic.holds_anything(),
            );

        // Advance the session's world to the event's slot, then apply the
        // engine's DOWN rule (crashed holdings, a configuration aborted by a
        // DOWN member).
        session.ctx.time = time;
        if changed {
            session.ctx.workers[worker].state = state;
            session.last_change[worker] = time;
        }
        session.ctx.normalize();

        let mut lines = vec![Obj::new()
            .field("ok", true)
            .field("op", Str("event"))
            .field("time", time)
            .field("worker", worker)
            .field("state", Str(&state.code().to_string()))
            .field("changed", changed)
            .field("reevaluated", reconsult)
            .end()];
        if reconsult {
            if let Some(record) = self.consult(&mut session) {
                self.summary.reschedules += 1;
                lines.push(record);
            }
        }
        self.session = Some(session);
        lines
    }

    /// Consult the session's scheduler at its current world state; install a
    /// genuinely new configuration and return its reschedule record.
    fn consult(&self, session: &mut OnlineSession) -> Option<String> {
        let core = &self.core;
        let start = Instant::now();
        let decision = session.scheduler.decide(&session.ctx.view(
            &core.scenario.platform,
            &core.scenario.application,
            &core.scenario.master,
        ));
        let latency_us = start.elapsed().as_micros() as u64;
        match decision {
            Decision::KeepCurrent => None,
            Decision::NewConfiguration(a) => {
                let same = session.ctx.current.as_ref().is_some_and(|cfg| cfg.assignment == a);
                if same || a.is_empty() {
                    return None;
                }
                let record = Obj::new()
                    .field("op", Str("reschedule"))
                    .field("time", session.ctx.time)
                    .field("heuristic", Str(&session.heuristic))
                    .field("assignment", entries(a.entries()))
                    .field("latency_us", latency_us)
                    .end();
                session.ctx.install(a, &core.scenario.platform);
                Some(record)
            }
        }
    }

    /// Serve JSONL requests from `reader`, writing replies to `writer`, until
    /// EOF or a closed peer. Never exits on malformed input — a line that is
    /// not UTF-8 is answered with an error line like any other — and flushes
    /// after every request so pipes and sockets see replies promptly. A line
    /// may hold 128 bytes per served worker (at least 256 KiB) before its
    /// newline; a longer one is skipped unbuffered and answered with an error.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        writer: &mut W,
    ) -> std::io::Result<ServeSummary> {
        let limit = max_line_bytes(self.core.scenario.platform.num_workers());
        let mut bytes = Vec::new();
        loop {
            bytes.clear();
            if reader.by_ref().take(limit as u64 + 1).read_until(b'\n', &mut bytes)? == 0 {
                break;
            }
            let line = if bytes.len() > limit && bytes.last() != Some(&b'\n') {
                reader.skip_until(b'\n')?;
                Err(format!("request line longer than {limit} bytes"))
            } else {
                std::str::from_utf8(&bytes).map_err(|e| format!("request is not valid UTF-8: {e}"))
            };
            let replies = match line {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle_line(line.trim_end_matches('\n').trim_end_matches('\r')),
                Err(err) => {
                    self.summary.errors += 1;
                    vec![error_line(None, &err)]
                }
            };
            // A buffered writer reports a closed peer at the flush as often
            // as at the write: either way it ends the loop cleanly.
            let written = replies
                .iter()
                .try_for_each(|reply| writeln!(writer, "{reply}"))
                .and_then(|()| writer.flush());
            match written {
                Err(err) if err.kind() == std::io::ErrorKind::BrokenPipe => break,
                written => written?,
            }
        }
        Ok(self.summary)
    }
}

/// Longest request line `serve` reads on a platform of `workers` workers. A
/// rendered decide request with holdings and a current entry for every
/// worker needs at most about 80 bytes per worker, so it always fits.
fn max_line_bytes(workers: usize) -> usize {
    workers.saturating_mul(128).max(256 * 1024)
}

/// Most sessions [`serve_listener`] keeps open at once.
pub const MAX_SESSIONS: usize = 64;

/// Accept TCP peers on `listener` forever, one session thread each, all
/// sharing the warm `core`. At most [`MAX_SESSIONS`] sessions are open at
/// once: a peer over the cap is answered with one error line and closed, and
/// a session's slot frees when it ends. Unless `quiet`, every disconnect and
/// refusal is reported on stderr.
pub fn serve_listener(core: Arc<ServiceCore>, listener: TcpListener, quiet: bool) {
    let open = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(err) => {
                eprintln!("serve: accept failed: {err}");
                continue;
            }
        };
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
        // Only this loop takes slots, so the check cannot race past the cap.
        if open.load(Ordering::SeqCst) >= MAX_SESSIONS {
            let busy = format!("{MAX_SESSIONS} sessions already open, try again later");
            let _ = writeln!(stream, "{}", error_line(None, &busy));
            if !quiet {
                eprintln!("serve: refused {peer}: {busy}");
            }
            continue;
        }
        open.fetch_add(1, Ordering::SeqCst);
        let slot = SessionSlot(Arc::clone(&open));
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            let _slot = slot;
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(err) => return eprintln!("serve: cannot clone stream for {peer}: {err}"),
            };
            match ScheduleService::new(core).serve(reader, &mut BufWriter::new(stream)) {
                Ok(summary) if !quiet => eprintln!(
                    "serve: {peer} disconnected after {} requests ({} errors, {} reschedules)",
                    summary.requests, summary.errors, summary.reschedules,
                ),
                Ok(_) => {}
                Err(err) => eprintln!("serve: {peer}: i/o error: {err}"),
            }
        });
    }
}

/// One open session's claim on the listener's cap, released when dropped.
struct SessionSlot(Arc<AtomicUsize>);

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// The serve binary's options
// ---------------------------------------------------------------------------

/// Options of the `serve` binary: the campaign flags that select the warm
/// scenario, plus the optional TCP listener.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The shared campaign flags (`--suite`, `--workers`, `--seed`, …).
    pub base: CliOptions,
    /// TCP listen address (`--listen ADDR`); stdin/stdout when absent.
    pub listen: Option<String>,
}

impl ServeOptions {
    /// Parse the serve binary's arguments: `--listen ADDR` is extracted here,
    /// everything else must be a valid campaign flag.
    pub fn parse<I, S>(args: I) -> Result<ServeOptions, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut listen = None;
        let mut rest: Vec<String> = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            if arg == "--listen" {
                listen = Some(
                    iter.next()
                        .map(|v| v.as_ref().to_string())
                        .ok_or("missing value for --listen")?,
                );
            } else {
                rest.push(arg.to_string());
            }
        }
        let base = CliOptions::parse(rest.iter().map(String::as_str))
            .map_err(|err| format!("{err}\nserve-only flags: [--listen ADDR]"))?;
        Ok(ServeOptions { base, listen })
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Result<ServeOptions, String> {
        ServeOptions::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_platform::ScenarioParams;

    fn core() -> Arc<ServiceCore> {
        let params = ScenarioParams {
            num_workers: 8,
            tasks_per_iteration: 5,
            ncom: 4,
            wmin: 2,
            iterations: 10,
        };
        let scenario = Scenario::generate(params, 11);
        Arc::new(ServiceCore::new(scenario, dg_analysis::DEFAULT_EPSILON, 20130520))
    }

    #[test]
    fn request_parsing_accepts_any_field_order_and_rejects_junk() {
        let a =
            DecideRequest::parse(r#"{"heuristic":"IE","workers":"UUUUUUUU","time":3}"#).unwrap();
        let b =
            DecideRequest::parse(r#"{"time":3,"workers":"UUUUUUUU","heuristic":"IE"}"#).unwrap();
        assert_eq!(a, b);
        assert!(DecideRequest::parse("").is_err());
        assert!(DecideRequest::parse("not json").is_err());
        assert!(DecideRequest::parse(r#"{"heuristic":"IE"}"#).is_err());
        assert!(DecideRequest::parse(r#"{"workers":"UU","heuristic":"IE","bogus":1}"#).is_err());
        assert!(DecideRequest::parse(r#"{"heuristic":"IE","workers":"UU"} trailing"#).is_err());
    }

    #[test]
    fn render_parse_round_trip_preserves_every_field() {
        let mut req = DecideRequest::new("Y-IE", "UURDR");
        req.id = Some(7);
        req.time = 19;
        req.iteration = 2;
        req.completed = 2;
        req.started_at = 15;
        req.trial = 3;
        req.current =
            Some(CurrentConfig { entries: vec![(0, 2), (4, 3)], selected_at: 16, done: 1 });
        req.holdings = Some(vec![
            (true, 2, 0, false),
            (false, 0, 3, true),
            (false, 0, 0, false),
            (true, 0, 0, false),
            (true, 3, 0, false),
        ]);
        let line = req.render();
        assert_eq!(DecideRequest::parse(&line).unwrap(), req);
        assert_eq!(Request::parse(&line).unwrap(), Request::Decide(req));
    }

    #[test]
    fn decide_answers_with_a_valid_assignment_and_cache_deltas() {
        let core = core();
        let workers = "U".repeat(8);
        let cold = core.decide(&DecideRequest::new("IE", &workers)).unwrap();
        let a = cold.assignment.as_ref().expect("IE schedules on an all-UP platform");
        a.validate(&core.scenario.platform, &core.scenario.application).unwrap();
        assert!(cold.cache.group_misses > 0, "cold decision must compute group sets");
        // The same request again: everything is served from the warm cache.
        let warm = core.decide(&DecideRequest::new("IE", &workers)).unwrap();
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.cache.group_misses, 0, "warm decision must be all hits");
        assert!(warm.cache.group_hits > 0);
    }

    #[test]
    fn decide_normalizes_down_workers_like_the_engine() {
        let core = core();
        // A configuration whose member 0 is DOWN: normalized away, so the
        // passive heuristic schedules fresh instead of keeping it.
        let mut req = DecideRequest::new("IE", "DUUUUUUU");
        req.current = Some(CurrentConfig { entries: vec![(0, 5)], selected_at: 0, done: 0 });
        let reply = core.decide(&req).unwrap();
        let a = reply.assignment.expect("aborted configuration must be replaced");
        assert!(!a.contains(0), "the DOWN worker cannot be re-enrolled");
    }

    #[test]
    fn service_loop_answers_errors_and_survives_malformed_input() {
        let mut service = ScheduleService::new(core());
        let garbage = service.handle_line("{{{{");
        assert_eq!(garbage.len(), 1);
        assert!(garbage[0].contains("\"ok\":false"), "{}", garbage[0]);
        let unknown = service.handle_line(r#"{"heuristic":"WARP","workers":"UUUUUUUU"}"#);
        assert!(unknown[0].contains("unknown heuristic"), "{}", unknown[0]);
        // Still serving after the errors.
        let ok = service.handle_line(r#"{"heuristic":"IE","workers":"UUUUUUUU"}"#);
        assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);
        let stats = service.handle_line(r#"{"op":"stats"}"#);
        assert!(stats[0].contains("\"errors\":2"), "{}", stats[0]);

        let valid = r#"{"heuristic":"IE","workers":"UUUUUUUU"}"#;
        let still_serving = |service: &mut ScheduleService| {
            let ok = service.handle_line(valid);
            assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);
        };
        // A 200 KB line of brackets hits the nesting bound, not the stack.
        let deep = service.handle_line(&"[".repeat(200_000));
        assert!(deep[0].contains("\"ok\":false") && deep[0].contains("nesting"), "{}", deep[0]);
        still_serving(&mut service);
        // The deepest legal line, a batch member's holdings tuple, parses.
        let mut member = DecideRequest::new("IE", "UUUUUUUU");
        member.holdings = Some(vec![(true, 1, 0, false); 8]);
        let batch = service.handle_line(&format!("{{\"batch\":[{}]}}", member.render()));
        assert!(batch[0].contains("\"ok\":true"), "{}", batch[0]);
        // Non-ASCII text survives the parser whole.
        let accent = service.handle_line(r#"{"heuristic":"É","workers":"UUUUUUUU"}"#);
        assert!(accent[0].contains("unknown heuristic 'É'"), "{}", accent[0]);
        still_serving(&mut service);
        // A line that is not UTF-8 is answered, and the loop goes on.
        let mut input = b"{\"heuristic\":\"\xff\"}\n".to_vec();
        input.extend_from_slice(format!("{valid}\n").as_bytes());
        let mut out = Vec::new();
        service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("UTF-8"), "{text}");
        assert!(lines[1].contains("\"ok\":true"), "{text}");
        let stats = service.handle_line(r#"{"op":"stats"}"#);
        assert!(stats[0].contains("\"errors\":5"), "{}", stats[0]);
        // A line one byte over the bound is answered with one error line and
        // skipped through its newline, a far longer one is streamed past
        // without being buffered, a line exactly at the bound is read whole,
        // and the loop goes on.
        let limit = max_line_bytes(8);
        let padded = |len: usize| format!("{valid}{}\n", " ".repeat(len - valid.len()));
        let tail = format!("\n{}{}{valid}\n", padded(limit + 1), padded(limit));
        let endless = std::io::repeat(b'[').take(64 * limit as u64);
        let input = std::io::BufReader::new(endless.chain(tail.as_bytes()));
        let mut out = Vec::new();
        service.serve(input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        for line in &lines[..2] {
            assert!(line.contains("\"ok\":false") && line.contains("longer than"), "{text}");
        }
        assert!(lines[2].contains("\"ok\":true") && lines[3].contains("\"ok\":true"), "{text}");
    }

    #[test]
    fn every_reply_is_json_with_control_characters_escaped() {
        let mut service = ScheduleService::new(core());
        // The heuristic name a<0x01>b<CR>c as raw bytes, then as escapes,
        // then an escaped plain letter.
        let mut input = b"{\"heuristic\":\"a\x01b\rc\",\"workers\":\"UUUUUUUU\"}\n".to_vec();
        input.extend_from_slice(br#"{"heuristic":"a\u0001b\u000dc","workers":"UUUUUUUU"}"#);
        input.extend_from_slice(b"\n{\"heuristic\":\"\\u0041\",\"workers\":\"UUUUUUUU\"}\n");
        let mut out = Vec::new();
        service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(lines.len(), 3, "{text:?}");
        for line in &lines {
            assert!(line.bytes().all(|b| b >= 0x20), "raw control byte in {line:?}");
            assert!(json::parse(line).is_ok(), "{line}");
        }
        assert!(lines[0].contains("control character"), "{}", lines[0]);
        assert!(lines[1].contains(r"unknown heuristic 'a\u0001b\u000dc'"), "{}", lines[1]);
        assert!(lines[2].contains("unknown heuristic 'A'"), "{}", lines[2]);
    }

    #[test]
    fn a_full_decide_request_always_fits_the_line_bound() {
        for workers in [1, 8, 600, 2_000, 100_000] {
            let mut req = DecideRequest::new("Y-IAY", &"R".repeat(workers));
            (req.id, req.seed) = (Some(u64::MAX), Some(u64::MAX));
            (req.time, req.iteration, req.completed, req.started_at) = (u64::MAX, 9, 9, 9);
            req.trial = usize::MAX;
            req.holdings = Some(vec![(true, usize::MAX, u64::MAX, true); workers]);
            let entries = (0..workers).map(|q| (q, usize::MAX)).collect();
            req.current = Some(CurrentConfig { entries, selected_at: u64::MAX, done: u64::MAX });
            let line = req.render();
            assert!(line.len() <= max_line_bytes(workers), "{workers}: {} bytes", line.len());
        }
    }

    #[test]
    fn batch_amortizes_the_warm_cache_across_the_group() {
        let mut service = ScheduleService::new(core());
        let one = r#"{"heuristic":"IAY","workers":"UUUUUUUU","id":1}"#;
        let two = r#"{"heuristic":"IAY","workers":"UUUUUUUU","id":2}"#;
        let lines = service.handle_line(&format!("{{\"batch\":[{one},{two}]}}"));
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.contains("\"op\":\"batch\""), "{line}");
        assert!(line.contains("\"id\":1") && line.contains("\"id\":2"), "{line}");
        // The second identical request must be pure hits: its reply carries
        // "cache_misses":0, so the line has exactly one non-zero miss count
        // (the first reply's, equal to the group total).
        let zero_miss = line.matches("\"cache_misses\":0").count();
        assert!(zero_miss >= 1, "second group member must be all hits: {line}");
    }

    #[test]
    fn online_session_ingests_events_and_reschedules_per_the_contract() {
        let mut service = ScheduleService::new(core());
        // Passive IE: installs once, never watches outsiders.
        let lines =
            service.handle_line(r#"{"op":"session","heuristic":"IE","workers":"UUUUUUUU"}"#);
        assert!(lines[0].contains("\"op\":\"session\""), "{}", lines[0]);
        assert_eq!(lines.len(), 2, "session start must install an initial configuration");
        assert!(lines[1].contains("\"op\":\"reschedule\""), "{}", lines[1]);
        let members: Vec<usize> =
            service.session.as_ref().unwrap().ctx.current.as_ref().unwrap().assignment.members();

        // An outsider crossing the UP boundary: passive schedulers sleep.
        let outsider = (0..8).find(|q| !members.contains(q)).expect("m=5 leaves outsiders");
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{outsider},\"state\":\"R\",\"time\":3}}"
        ));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"changed\":true,\"reevaluated\":false"), "{}", lines[0]);

        // Repeating the tail state is not a transition.
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{outsider},\"state\":\"R\",\"time\":5}}"
        ));
        assert!(lines[0].contains("\"changed\":false,\"reevaluated\":false"), "{}", lines[0]);

        // A member crashing always wakes the scheduler; IE rebuilds without it.
        let failed = members[0];
        let lines = service.handle_line(&format!(
            "{{\"op\":\"event\",\"worker\":{failed},\"state\":\"D\",\"time\":8}}"
        ));
        assert!(lines[0].contains("\"changed\":true,\"reevaluated\":true"), "{}", lines[0]);
        assert_eq!(lines.len(), 2, "a crashed member must force a reschedule");
        assert!(lines[1].contains("\"op\":\"reschedule\""), "{}", lines[1]);
        assert!(!lines[1].contains(&format!("[{failed},")), "{}", lines[1]);

        // Events must be time-ordered and in-range; the session survives.
        let err = service.handle_line(r#"{"op":"event","worker":0,"state":"U","time":1}"#);
        assert!(err[0].contains("\"ok\":false"), "{}", err[0]);
        let err = service.handle_line(r#"{"op":"event","worker":99,"state":"U","time":9}"#);
        assert!(err[0].contains("does not exist"), "{}", err[0]);
        assert!(service.session.is_some());

        // Proactive P-IE watches outsiders, but only across the UP boundary:
        // like the engine, it sleeps through an outsider's R<->D churn.
        let paper = ServeOptions::parse(["--suite", "paper", "--quiet"]).unwrap();
        let mut service =
            ScheduleService::new(Arc::new(ServiceCore::from_options(&paper.base).unwrap()));
        let lines = service
            .handle_line(r#"{"op":"session","heuristic":"P-IE","workers":"UUUUUUUUUUUUUUUUUUUU"}"#);
        assert!(
            lines[1].contains("\"assignment\":[[4,1],[5,1],[13,1],[15,1],[18,1]]"),
            "{lines:?}"
        );
        for (state, time, wakes) in
            [("R", 3, true), ("D", 5, false), ("R", 7, false), ("U", 9, true)]
        {
            let lines = service.handle_line(&format!(
                "{{\"op\":\"event\",\"worker\":0,\"state\":\"{state}\",\"time\":{time}}}"
            ));
            let expected = format!("\"changed\":true,\"reevaluated\":{wakes}");
            assert!(lines[0].contains(&expected), "{}", lines[0]);
        }
    }

    #[test]
    fn session_changes_never_rewrite_a_workers_last_change() {
        let mut service = ScheduleService::new(core());
        service.handle_line(r#"{"op":"session","heuristic":"IE","workers":"UUUUUUUU"}"#);
        let mut event = |worker: usize, state: char, time: u64| {
            let line =
                format!(r#"{{"op":"event","worker":{worker},"state":"{state}","time":{time}}}"#);
            service.handle_line(&line).remove(0)
        };
        // A changing event at slot 0 would rewrite the session's initial state.
        let err = event(1, 'R', 0);
        assert!(err.contains("transition to R at slot 0 predates the recorded horizon 1"), "{err}");
        // Repeating the current state is no change and leaves the last-change
        // slot at 3, so a real change at the repeat's slot 5 still fits.
        assert!(event(1, 'R', 3).contains("\"changed\":true"));
        assert!(event(1, 'R', 5).contains("\"changed\":false"));
        assert!(event(1, 'D', 5).contains("\"changed\":true"));
        // A second change of one worker at the same slot is refused.
        let err = event(1, 'U', 5);
        assert!(err.contains("transition to U at slot 5 predates the recorded horizon 6"), "{err}");
        // Far-future slots cost nothing, up to the last one.
        assert!(event(2, 'D', 1_000_000_000_000).contains("\"changed\":true"));
        assert!(event(2, 'U', u64::MAX).contains("\"changed\":true"));
        let err = event(2, 'D', u64::MAX);
        assert!(err.contains("predates the recorded horizon 18446744073709551616"), "{err}");
    }

    #[test]
    fn a_session_starts_from_the_world_state_its_request_describes() {
        let mut service = ScheduleService::new(core());
        let lines = service
            .handle_line(r#"{"op":"session","heuristic":"IE","workers":"UUUUUUUU","time":50}"#);
        assert!(lines[1].contains("\"op\":\"reschedule\",\"time\":50,"), "{lines:?}");
        // The session's clock is the request's: an earlier slot is refused.
        let err = service.handle_line(r#"{"op":"event","worker":3,"state":"D","time":10}"#);
        assert!(err[0].contains("event at slot 10 predates the session clock 50"), "{}", err[0]);
        // So is a change at the start slot itself, every worker's last change.
        let err = service.handle_line(r#"{"op":"event","worker":3,"state":"D","time":50}"#);
        assert!(err[0].contains("predates the recorded horizon 51"), "{}", err[0]);

        // Holdings and an installed configuration with a DOWN member: the
        // first consult decides what a decide request decides.
        let mut req = DecideRequest::new("IE", "DUUUUUUU");
        (req.time, req.iteration, req.completed, req.started_at) = (50, 2, 2, 40);
        req.current = Some(CurrentConfig { entries: vec![(0, 5)], selected_at: 45, done: 0 });
        let holds = (true, 2, 0, false);
        let fresh = (false, 0, 0, false);
        req.holdings = Some(vec![holds, fresh, fresh, fresh, fresh, holds, holds, fresh]);
        let decided = service.core().decide(&req).unwrap().assignment.expect("a new configuration");
        let session = req.render().replacen("\"op\":\"decide\"", "\"op\":\"session\"", 1);
        let lines = service.handle_line(&session);
        let expected = format!(
            "{{\"op\":\"reschedule\",\"time\":50,\"heuristic\":\"IE\",\"assignment\":{},",
            entries(decided.entries())
        );
        assert!(lines[1].starts_with(&expected), "{lines:?} vs {expected}");
    }

    #[test]
    fn event_without_a_session_is_an_error_not_a_crash() {
        let mut service = ScheduleService::new(core());
        let lines = service.handle_line(r#"{"op":"event","worker":0,"state":"D","time":1}"#);
        assert!(lines[0].contains("no online session"), "{}", lines[0]);
    }

    #[test]
    fn serve_reads_until_eof_and_reports_a_summary() {
        let mut service = ScheduleService::new(core());
        let input = "\n{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":5}\nnot json\n";
        let mut out = Vec::new();
        let summary = service.serve(std::io::Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":5") && lines[0].contains("\"ok\":true"), "{text}");
        assert!(lines[1].contains("\"ok\":false"), "{text}");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn a_peer_closed_at_the_flush_ends_the_loop_with_its_summary() {
        // The reply fits the writer's buffer, so the closed peer surfaces
        // only when it is flushed.
        struct ClosedAtFlush(Vec<u8>);
        impl Write for ClosedAtFlush {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.write(bytes)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
        }
        let mut service = ScheduleService::new(core());
        let input = "{\"op\":\"stats\"}\n{\"op\":\"stats\"}\n";
        let mut writer = ClosedAtFlush(Vec::new());
        let summary = service.serve(std::io::Cursor::new(input), &mut writer).unwrap();
        assert_eq!(summary, ServeSummary { requests: 1, errors: 0, reschedules: 0 });
        assert_eq!(String::from_utf8(writer.0).unwrap().lines().count(), 1);
    }

    #[test]
    fn serve_options_extract_the_listener_and_delegate_the_rest() {
        let opts = ServeOptions::parse(["--suite", "paper", "--listen", "127.0.0.1:0"]).unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.base.suite.as_deref(), Some("paper"));
        assert!(ServeOptions::parse(["--listen"]).is_err());
        let err = ServeOptions::parse(["--bogus"]).unwrap_err();
        assert!(err.contains("serve-only flags"), "{err}");
        let core =
            ServiceCore::from_options(&ServeOptions::parse(["--workers", "6"]).unwrap().base)
                .unwrap();
        assert_eq!(core.scenario.platform.num_workers(), 6);
        // The warm scenario is the paper suite's first point at its smallest m.
        assert_eq!(core.scenario.application.tasks_per_iteration, 5);
    }
}
