//! Integration tests of the scheduling service: the JSONL protocol
//! round-trip, the decision-equivalence guarantee against the simulation
//! path, and the daemon's resilience to malformed input.

use desktop_grid_scheduling::experiments::runner::{scheduler_seed, trial_seed};
use desktop_grid_scheduling::experiments::service::{
    serve_listener, DecideRequest, ScheduleService, ServiceCore, MAX_SESSIONS,
};
use desktop_grid_scheduling::heuristics::HeuristicSpec;
use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::view::{Reevaluation, SimView};
use desktop_grid_scheduling::sim::{Decision, SimMode, SimulationLimits, Simulator};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 42;
const CAP: u64 = 30_000;

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioParams { num_workers: 8, tasks_per_iteration: 4, ncom: 4, wmin: 2, iterations: 3 },
        17,
    )
}

fn core() -> Arc<ServiceCore> {
    Arc::new(ServiceCore::new(scenario(), 1e-6, BASE_SEED))
}

/// Wraps a real scheduler and records, at every consultation, the request
/// line that describes the consulted view plus the decision the scheduler
/// actually made — the corpus the equivalence test replays through the
/// service.
struct Recorder {
    inner: Box<dyn Scheduler>,
    heuristic: String,
    seed: u64,
    records: Vec<(String, Option<Assignment>)>,
}

/// Serialize a [`SimView`] into the decide-request line that describes it.
fn request_line(view: &SimView<'_>, heuristic: &str, seed: u64) -> String {
    let mut req = DecideRequest::new(
        heuristic,
        &view.workers.iter().map(|w| w.state.code()).collect::<String>(),
    );
    req.time = view.time;
    req.iteration = view.iteration;
    req.completed = view.completed_iterations;
    req.started_at = view.iteration_started_at;
    req.seed = Some(seed);
    req.holdings = Some(
        view.workers
            .iter()
            .map(|w| {
                let d = &w.dynamic;
                (d.has_program, d.data_messages, d.partial_transfer, d.partial_is_program)
            })
            .collect(),
    );
    if let Some(cfg) = view.current {
        req.current = Some(desktop_grid_scheduling::experiments::service::CurrentConfig {
            entries: cfg.assignment.entries().to_vec(),
            selected_at: cfg.selected_at,
            done: cfg.computation_done,
        });
    }
    req.render()
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let line = request_line(view, &self.heuristic, self.seed);
        let decision = self.inner.decide(view);
        let expected = match &decision {
            Decision::KeepCurrent => None,
            Decision::NewConfiguration(a) => Some(a.clone()),
        };
        self.records.push((line, expected));
        decision
    }

    fn on_iteration_complete(&mut self, completed: u64) {
        self.inner.on_iteration_complete(completed);
    }

    fn reevaluation(&self) -> Reevaluation {
        self.inner.reevaluation()
    }
}

/// The tentpole guarantee: for every heuristic, replaying a simulation's
/// consulted views through the service produces **byte-identical decisions**
/// to the ones `run_instance_on`'s scheduler made. The 16 deterministic
/// heuristics answer purely from the view (their memos are complete), so
/// every decision point is checked; RANDOM draws from its seeded stream, so
/// only its first decision is reproducible by a fresh instance and only that
/// one is compared. The same requests are then replayed by four sessions on
/// four threads over one fresh shared core — the `serve --listen` model —
/// and every reply must carry the simulation's assignment too.
#[test]
fn served_decisions_match_the_simulation_for_every_heuristic() {
    let core = core();
    let scenario = &core.scenario;
    let trial = 1usize;
    let availability_seed = trial_seed(BASE_SEED, scenario.seed, trial);
    let seed = scheduler_seed(BASE_SEED, scenario.seed, trial);
    let sim_cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);

    let mut replayed: Vec<(String, Option<Assignment>)> = Vec::new();
    let mut compared = 0usize;
    for heuristic in HeuristicSpec::all() {
        // Drive the simulation exactly like run_instance_on, recording every
        // consulted view alongside the decision actually taken.
        let mut recorder = Recorder {
            inner: heuristic.build_with_cache(seed, &sim_cache),
            heuristic: heuristic.name(),
            seed,
            records: Vec::new(),
        };
        let availability = scenario.realize_trial(availability_seed, CAP);
        Simulator::new(scenario, availability)
            .with_limits(SimulationLimits::with_max_slots(CAP).unwrap())
            .with_mode(SimMode::EventDriven)
            .run(&mut recorder);
        assert!(!recorder.records.is_empty(), "{} was never consulted", heuristic.name());

        let deterministic = !matches!(heuristic, HeuristicSpec::Random);
        let checked: &[(String, Option<Assignment>)] = if deterministic {
            // Bound the replay per heuristic; the corpus spans the whole run,
            // so the prefix still covers mid-iteration and post-failure views.
            &recorder.records[..recorder.records.len().min(40)]
        } else {
            &recorder.records[..1]
        };
        for (line, expected) in checked {
            let req = DecideRequest::parse(line).unwrap_or_else(|err| {
                panic!("{}: recorded line failed to parse: {err}\n{line}", heuristic.name())
            });
            let reply = core.decide(&req).unwrap_or_else(|err| {
                panic!("{}: service rejected a simulated view: {err}\n{line}", heuristic.name())
            });
            assert_eq!(
                &reply.assignment,
                expected,
                "{} diverged between the service and the simulation at t={}\n{line}",
                heuristic.name(),
                req.time,
            );
            compared += 1;
        }
        replayed.extend_from_slice(checked);
    }
    assert!(compared > 17 * 2, "too few decision points compared ({compared})");

    // The four sessions start together, each at its own offset, so the
    // threads miss on different sets at the same time.
    let shared = Arc::new(ServiceCore::new(scenario.clone(), 1e-6, BASE_SEED));
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for session in 0..4 {
            let (shared, replayed, start) = (&shared, &replayed, &start);
            scope.spawn(move || {
                let mut service = ScheduleService::new(Arc::clone(shared));
                start.wait();
                let offset = session * replayed.len() / 4;
                for (line, expected) in replayed.iter().cycle().skip(offset).take(replayed.len()) {
                    let reply = service.handle_line(line).pop().expect("one reply per request");
                    let at = reply.find("\"assignment\":").expect(&reply) + "\"assignment\":".len();
                    let got = &reply[at..at + reply[at..].find(",\"latency_us\"").unwrap()];
                    let want = expected.as_ref().map_or("null".to_string(), |a| {
                        let pairs: Vec<String> =
                            a.entries().iter().map(|(q, x)| format!("[{q},{x}]")).collect();
                        format!("[{}]", pairs.join(","))
                    });
                    assert_eq!(got, want, "session {session} diverged from the simulation\n{line}");
                }
            });
        }
    });
}

/// The service's trial-seed derivation matches the runner's: a request
/// carrying `trial` (and no explicit seed) answers exactly like one carrying
/// the raw `scheduler_seed` of that trial — pinned through RANDOM, the only
/// heuristic whose answer depends on the seed.
#[test]
fn trial_field_derives_the_runner_scheduler_seed() {
    let core = core();
    let workers = "U".repeat(8);
    for trial in [0usize, 3, 7] {
        let mut by_trial = DecideRequest::new("RANDOM", &workers);
        by_trial.trial = trial;
        let mut by_seed = DecideRequest::new("RANDOM", &workers);
        by_seed.seed = Some(scheduler_seed(core.base_seed, core.scenario.seed, trial));
        let a = core.decide(&by_trial).unwrap();
        let b = core.decide(&by_seed).unwrap();
        assert_eq!(a.assignment, b.assignment, "trial {trial} derived a different seed");
        assert!(a.assignment.is_some(), "RANDOM must schedule on an all-UP platform");
    }
}

/// The daemon never exits on malformed input: every garbage line is answered
/// with an error object on the same stream, and valid requests keep being
/// served afterwards, until a clean EOF shutdown.
#[test]
fn daemon_survives_malformed_input_and_shuts_down_cleanly_at_eof() {
    let mut service = ScheduleService::new(core());
    let input = [
        "{\"heuristic\":\"IE\",\"workers\":\"UUUUUUUU\",\"id\":1}",
        "this is not json",
        "{\"heuristic\":\"IE\"}",
        "[1,2,3]",
        "{\"op\":\"teleport\"}",
        "{\"heuristic\":\"NOPE\",\"workers\":\"UUUUUUUU\",\"id\":2}",
        "{\"heuristic\":\"IE\",\"workers\":\"UU\",\"id\":3}",
        "{\"op\":\"event\",\"worker\":0,\"state\":\"D\",\"time\":1}",
        "",
        "{\"heuristic\":\"Y-IE\",\"workers\":\"UURRUUDU\",\"id\":4}",
    ]
    .join("\n");
    let mut out = Vec::new();
    let summary = service.serve(std::io::Cursor::new(input), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 9, "one reply per non-empty line:\n{text}");
    assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"ok\":true"), "{text}");
    for line in &lines[1..8] {
        assert!(line.contains("\"ok\":false"), "expected an error line, got: {line}");
    }
    assert!(lines[8].contains("\"id\":4") && lines[8].contains("\"ok\":true"), "{text}");
    assert_eq!(summary.errors, 7);
    // Parse failures never reach the request counter; the well-formed-but-
    // rejected requests (unknown heuristic, wrong worker count, event with no
    // session) count as both a request and an error.
    assert_eq!(summary.requests, 5);
}

/// The raw value of `field` in batch member `id`'s reply. No member value
/// contains `,"`, so that ends each one.
fn member_field(reply: &str, id: usize, field: &str) -> String {
    let member = reply.find(&format!("\"id\":{id},")).expect("member reply present");
    let rest = &reply[member..];
    let key = format!("\"{field}\":");
    let at = rest.find(&key).expect("member field present") + key.len();
    rest[at..at + rest[at..].find(",\"").expect("a field follows")].to_string()
}

/// A batch amortizes one warm cache across its group: for every heuristic, a
/// repeated entry on a fresh core is answered entirely from the hits the
/// first entry's misses created, with the first entry's assignment.
#[test]
fn batch_entries_share_the_warm_cache() {
    for spec in HeuristicSpec::all() {
        let name = spec.name();
        let mut service = ScheduleService::new(core());
        let entry =
            |id: u64| format!("{{\"heuristic\":\"{name}\",\"workers\":\"UURUUDUU\",\"id\":{id}}}");
        let replies = service.handle_line(&format!("{{\"batch\":[{},{}]}}", entry(1), entry(2)));
        assert_eq!(replies.len(), 1, "{name}: a batch answers as one line");
        let reply = &replies[0];
        assert!(reply.contains("\"op\":\"batch\""), "{reply}");
        // RANDOM is the one heuristic that never reads the cache.
        if spec != HeuristicSpec::Random {
            assert_ne!(member_field(reply, 1, "cache_misses"), "0", "{name}: cold entry: {reply}");
        }
        assert_eq!(member_field(reply, 2, "cache_misses"), "0", "{name}: warm entry: {reply}");
        assert_eq!(
            member_field(reply, 1, "assignment"),
            member_field(reply, 2, "assignment"),
            "{name}: the warm entry chose another assignment"
        );
    }
}

/// A batch under `--decision-threads 4` answers its members in request order,
/// each with a 4-thread candidate scan, yet every member's assignment is
/// byte-identical to the serial batch's, and both the member replies and the
/// batch line report the thread count they were decided with.
#[test]
fn parallel_batch_matches_the_serial_batch_and_reports_its_threads() {
    let mut serial = ScheduleService::new(core());
    let mut parallel_core = ServiceCore::new(scenario(), 1e-6, BASE_SEED);
    parallel_core.cache.set_decision_threads(4);
    let mut parallel = ScheduleService::new(Arc::new(parallel_core));
    let heuristics = ["IE", "IAY", "Y-IE", "E-IE", "P-IE", "Y-IAY", "IE", "IP"];
    let entries: Vec<String> = heuristics
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{{\"heuristic\":\"{h}\",\"workers\":\"UURUUDUU\",\"id\":{i}}}"))
        .collect();
    let line = format!("{{\"batch\":[{}]}}", entries.join(","));
    let serial_reply = serial.handle_line(&line).pop().unwrap();
    let parallel_reply = parallel.handle_line(&line).pop().unwrap();

    for id in 0..heuristics.len() {
        assert_eq!(
            member_field(&serial_reply, id, "assignment"),
            member_field(&parallel_reply, id, "assignment"),
            "batch member {id} diverged between serial and parallel fan-out",
        );
    }
    // Members arrive in request order.
    let mut last = 0;
    for id in 0..heuristics.len() {
        let at = parallel_reply.find(&format!("\"id\":{id},")).unwrap();
        assert!(at >= last, "member {id} out of order:\n{parallel_reply}");
        last = at;
    }
    // Each member went through the core's own 4-thread handle, and so does
    // the batch line.
    assert_eq!(
        parallel_reply.matches("\"decision_threads\":4").count(),
        heuristics.len() + 1,
        "{parallel_reply}"
    );
    assert!(parallel_reply.ends_with("\"decision_threads\":4}"), "{parallel_reply}");
    assert!(serial_reply.ends_with("\"decision_threads\":1}"), "{serial_reply}");
}

/// Ask a peer's session for its counters; `None` if the listener refused the
/// peer (an error line, or a reset because the request went unread).
fn stats_of(stream: &mut TcpStream) -> Option<String> {
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    stream.write_all(b"{\"op\":\"stats\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    line.contains("\"op\":\"stats\"").then_some(line)
}

/// `serve --listen` keeps at most `MAX_SESSIONS` sessions open: with the cap
/// held, the next peer is answered with one error line and closed, and once
/// a session ends a new peer is served again.
#[test]
fn listener_refuses_peers_over_the_session_cap_until_a_slot_frees() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let core = core();
    std::thread::spawn(move || serve_listener(core, listener, true));

    let mut held: Vec<TcpStream> =
        (0..MAX_SESSIONS).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for stream in &mut held {
        assert!(stats_of(stream).is_some(), "a peer under the cap must be served");
    }

    let refused = TcpStream::connect(addr).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut refused = BufReader::new(refused).lines();
    let line = refused.next().expect("a refused peer gets one line").unwrap();
    assert!(line.starts_with("{\"id\":null,\"ok\":false,\"error\":"), "{line}");
    assert!(line.contains("sessions already open"), "{line}");
    assert!(refused.next().is_none(), "a refused peer must be closed after its line");

    // The slot frees once the server sees the session end, so poll for it.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats_of(&mut TcpStream::connect(addr).unwrap()).is_none() {
        assert!(Instant::now() < deadline, "no slot freed after a session ended");
        std::thread::sleep(Duration::from_millis(20));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Protocol round-trip: `parse(render(request)) == request` for arbitrary
    /// well-formed requests — field order, optional fields and all.
    #[test]
    fn decide_requests_round_trip_through_the_wire_format(
        with_id in any::<bool>(),
        id_value in 0u64..1_000_000_000,
        heuristic_idx in 0usize..17,
        states in proptest::collection::vec(0u8..3, 1..24),
        time in 0u64..1_000_000,
        elapsed in 0u64..500,
        completed in 0u64..10,
        trial in 0usize..100,
        with_seed in any::<bool>(),
        seed_value in any::<u64>(),
        with_current in any::<bool>(),
        with_holdings in any::<bool>(),
        tasks in proptest::collection::vec(0usize..5, 1..24),
    ) {
        let codes: String = states
            .iter()
            .map(|&s| [ProcState::Up, ProcState::Reclaimed, ProcState::Down][s as usize].code())
            .collect();
        let heuristic = HeuristicSpec::all()[heuristic_idx].name();
        let mut req = DecideRequest::new(&heuristic, &codes);
        req.id = with_id.then_some(id_value);
        req.time = time;
        req.started_at = time.saturating_sub(elapsed);
        req.completed = completed;
        req.iteration = completed;
        req.trial = trial;
        req.seed = with_seed.then_some(seed_value);
        if with_current {
            let entries: Vec<(usize, usize)> = tasks
                .iter()
                .take(states.len())
                .enumerate()
                .filter(|&(_, &x)| x > 0)
                .map(|(q, &x)| (q, x))
                .collect();
            if !entries.is_empty() {
                req.current = Some(desktop_grid_scheduling::experiments::service::CurrentConfig {
                    entries,
                    selected_at: req.started_at,
                    done: elapsed / 2,
                });
            }
        }
        if with_holdings {
            req.holdings = Some(
                states
                    .iter()
                    .enumerate()
                    .map(|(q, _)| (q % 2 == 0, q % 3, (q as u64) % 5, q % 4 == 1))
                    .collect(),
            );
        }
        let line = req.render();
        prop_assert_eq!(DecideRequest::parse(&line).unwrap(), req);
    }
}
