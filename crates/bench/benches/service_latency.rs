//! `service_latency` — the scheduler service's warm-cache value proposition,
//! measured: the first decision on a cold [`ServiceCore`] pays the Section V
//! group-set computations; every later decision on the warm core answers the
//! same request entirely from cache hits.
//!
//! For each benched heuristic the harness builds a **fresh** core, answers
//! one cold request (recording its latency and cache-miss count), then
//! answers the same request repeatedly on the now-warm core and records the
//! median warm latency. It asserts the warm path incurs **zero** misses and
//! is faster than the cold path, and writes the cold/warm table to
//! `BENCH_service.json` at the workspace root — a machine-readable baseline
//! meant to be committed, so future optimisation PRs diff against it.
//!
//! It also times one warm 12-request `op:batch` on cores configured for 1
//! and 4 decision threads. A batch answers its members in request order, so
//! the 4-thread point measures members decided one after another, each with
//! a 4-thread candidate scan.
//!
//! Environment:
//! * `DG_SERVICE_WARM_ITERS` overrides the warm-sample count (default 50;
//!   CI smoke runs use a smaller value).

use dg_experiments::service::{DecideRequest, ScheduleService, ServiceCore};
use dg_platform::{Scenario, ScenarioParams};
use std::sync::Arc;

/// The paper's platform scale: 20 workers, m = 5, ncom = 10, wmin = 2.
fn bench_core() -> ServiceCore {
    let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 2), 20130520);
    ServiceCore::new(scenario, 1e-7, 42)
}

/// One heuristic's cold/warm measurement.
struct Row {
    heuristic: &'static str,
    cold_us: u64,
    cold_misses: u64,
    warm_median_us: u64,
    warm_hits: u64,
}

/// A mid-run world state: a few workers reclaimed or down, the rest fresh —
/// more representative than the all-UP first slot, and identical across the
/// cold and warm paths.
fn bench_request(heuristic: &str) -> DecideRequest {
    DecideRequest::new(heuristic, "UUURUUDUUURUUUUUURUU")
}

fn measure(heuristic: &'static str, warm_iters: usize) -> Row {
    let core = bench_core();
    let cold = core.decide(&bench_request(heuristic)).expect("cold decision");
    assert!(cold.cache.group_misses > 0, "{heuristic}: the cold decision must compute group sets");

    let mut warm_latencies = Vec::with_capacity(warm_iters);
    let mut warm_hits = 0;
    for _ in 0..warm_iters {
        let warm = core.decide(&bench_request(heuristic)).expect("warm decision");
        assert_eq!(
            warm.cache.group_misses, 0,
            "{heuristic}: a warm decision must be answered entirely from cache"
        );
        assert_eq!(warm.assignment, cold.assignment, "{heuristic}: warm decision diverged");
        warm_hits = warm.cache.group_hits;
        warm_latencies.push(warm.latency_us);
    }
    warm_latencies.sort_unstable();
    let warm_median_us = warm_latencies[warm_latencies.len() / 2];
    assert!(
        warm_median_us <= cold.latency_us,
        "{heuristic}: warm median {warm_median_us}us exceeds the cold decision {}us",
        cold.latency_us
    );
    Row {
        heuristic,
        cold_us: cold.latency_us,
        cold_misses: cold.cache.group_misses,
        warm_median_us,
        warm_hits,
    }
}

/// One warm `op:batch` measurement at a fixed intra-decision thread count
/// (the width of each member's candidate scan).
struct BatchPoint {
    decision_threads: usize,
    latency_us: u64,
    /// The per-member `"id":N,…,"assignment":…` fragments, for the
    /// serial-vs-parallel identity assert.
    assignments: Vec<String>,
}

/// Extract the batch-level `latency_us` (the last one on the line — member
/// replies carry their own) from a rendered batch reply.
fn batch_latency(reply: &str) -> u64 {
    let at = reply.rfind("\"latency_us\":").expect("batch reply has a latency") + 13;
    reply[at..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

/// Extract member `id`'s assignment value from a rendered batch reply.
fn member_assignment(reply: &str, id: usize) -> String {
    let member = reply.find(&format!("\"id\":{id},")).expect("member reply present");
    let rest = &reply[member..];
    let at = rest.find("\"assignment\":").unwrap() + 13;
    rest[at..at + rest[at..].find(",\"latency_us\"").unwrap()].to_string()
}

/// Answer the same `group`-member batch twice on one warm core configured
/// for `decision_threads` — the first pass pays the cold misses, the second
/// is the measured warm batch (entirely cache hits, like the per-request
/// warm path above).
fn measure_batch(decision_threads: usize, group: usize) -> BatchPoint {
    let mut core = bench_core();
    core.cache.set_decision_threads(decision_threads);
    let mut service = ScheduleService::new(Arc::new(core));
    let heuristics = ["IE", "IAY", "P-IE", "E-IE", "Y-IE", "Y-IAY"];
    let entries: Vec<String> = (0..group)
        .map(|i| {
            let mut req = bench_request(heuristics[i % heuristics.len()]);
            req.id = Some(i as u64);
            req.render()
        })
        .collect();
    let line = format!("{{\"batch\":[{}]}}", entries.join(","));
    let _cold = service.handle_line(&line);
    let reply = service.handle_line(&line).pop().expect("a batch answers as one line");
    assert!(
        reply.ends_with(&format!("\"decision_threads\":{decision_threads}}}")),
        "batch reply must report its thread count: {reply}"
    );
    BatchPoint {
        decision_threads,
        latency_us: batch_latency(&reply),
        assignments: (0..group).map(|id| member_assignment(&reply, id)).collect(),
    }
}

/// Hand-rolled JSON (the workspace vendors a no-op `serde` shim); heuristic
/// names are fixed ASCII literals, hence no escaping is needed.
fn render_json(warm_iters: usize, rows: &[Row], batch: &[BatchPoint], group: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"service_latency\",\n");
    out.push_str("  \"platform\": {\"workers\": 20, \"m\": 5, \"ncom\": 10, \"wmin\": 2},\n");
    out.push_str(&format!("  \"warm_iters\": {warm_iters},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"heuristic\": \"{}\", \"cold_us\": {}, \"cold_misses\": {}, \
             \"warm_median_us\": {}, \"warm_misses\": 0, \"warm_hits\": {}}}{}\n",
            row.heuristic,
            row.cold_us,
            row.cold_misses,
            row.warm_median_us,
            row.warm_hits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"batch\": {{\"requests\": {group}, \"points\": [\n"));
    for (i, pt) in batch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"decision_threads\": {}, \"latency_us\": {}}}{}\n",
            pt.decision_threads,
            pt.latency_us,
            if i + 1 < batch.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]}\n");
    out.push_str("}\n");
    out
}

fn main() {
    let warm_iters: usize = std::env::var("DG_SERVICE_WARM_ITERS")
        .ok()
        .map(|v| v.parse().expect("DG_SERVICE_WARM_ITERS must be an integer"))
        .unwrap_or(50);

    // One passive, one proactive per criterion, plus the heaviest builder —
    // the spread of decision costs a daemon actually serves.
    let heuristics = ["IE", "IAY", "P-IE", "E-IE", "Y-IE", "Y-IAY"];
    let mut rows = Vec::new();
    for heuristic in heuristics {
        let row = measure(heuristic, warm_iters);
        println!(
            "service: {:<6} cold = {:>7} us ({} misses)   warm median = {:>5} us (0 misses, {} hits)",
            row.heuristic, row.cold_us, row.cold_misses, row.warm_median_us, row.warm_hits,
        );
        rows.push(row);
    }

    // The same warm 12-request batch with 1-thread and 4-thread candidate
    // scans. The members' assignments must be byte-identical: the scan's
    // thread count only changes who computes, never what is computed.
    let group = 12;
    let batch: Vec<BatchPoint> = [1usize, 4].iter().map(|&t| measure_batch(t, group)).collect();
    for pair in batch.windows(2) {
        assert_eq!(
            pair[0].assignments, pair[1].assignments,
            "batch assignments diverged between {} and {} decision threads",
            pair[0].decision_threads, pair[1].decision_threads
        );
    }
    for pt in &batch {
        println!(
            "service: batch of {group} at {} decision thread(s) = {:>6} us",
            pt.decision_threads, pt.latency_us
        );
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let json = render_json(warm_iters, &rows, &batch, group);
    std::fs::write(path, json).expect("write BENCH_service.json");
    println!("service: wrote {} row(s) to {path}", rows.len());
}
