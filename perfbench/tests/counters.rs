//! The benchmark's own checks: every exact counter of every workload repeats
//! exactly across two traced passes, and `BENCHMARK.json` declares exactly
//! the workloads and metrics this package reports.

use dg_perfbench::campaign::{prepare, run_traced_pass, MASSIVE_2K, TABLE1_GOLDEN};
use dg_perfbench::measure::{repo_root, WorkDir};
use dg_perfbench::report::{Metrics, END_TO_END, PER_LAYER};
use dg_perfbench::{serve, DEFAULT_SEED, WORKLOADS};

fn assert_counters_repeat(workload: &str, first: &Metrics, second: &Metrics) {
    assert_eq!(
        first.exact_counters(),
        second.exact_counters(),
        "{workload}: an exact counter moved between two passes"
    );
    assert!(first.get("analysis.group_hits") > 0.0, "{workload}: no cache lookups traced");
}

#[test]
fn campaign_counters_repeat_across_traced_passes() {
    for workload in [TABLE1_GOLDEN, MASSIVE_2K] {
        let work = WorkDir::new(&format!("test-{workload}")).unwrap();
        let campaign = prepare(workload, DEFAULT_SEED, &work.fresh("untraced"), &[]).unwrap();
        let first = run_traced_pass(&campaign, &work.fresh("first")).unwrap();
        let second = run_traced_pass(&campaign, &work.fresh("second")).unwrap();
        assert_counters_repeat(workload, &first.layers, &second.layers);
        for counter in ["sim.consults", "sim.executed_slots", "availability.queries", "store.bytes"]
        {
            assert!(first.layers.get(counter) > 0.0, "{workload}: {counter} is 0");
        }
        assert_eq!(first.table, second.table, "{workload}: the table moved between passes");
    }
}

#[test]
fn serve_counters_repeat_across_traced_passes() {
    let replay = serve::record(DEFAULT_SEED, serve::REQUESTS).unwrap();
    assert_eq!(replay.lines.len(), serve::REQUESTS);
    let first = serve::run_traced_pass(DEFAULT_SEED, &replay).unwrap();
    let second = serve::run_traced_pass(DEFAULT_SEED, &replay).unwrap();
    assert_counters_repeat(serve::SERVE_REPLAY, &first.layers, &second.layers);
    assert!(first.layers.get("service.cold_requests") > 0.0);
    let masked = |pass: &serve::TracedPass| {
        pass.replies.iter().map(|r| serve::mask_latency(r)).collect::<Vec<_>>()
    };
    assert_eq!(masked(&first), masked(&second), "replies moved between passes");
}

#[test]
fn benchmark_json_declares_every_workload_and_metric() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{workload}\"")), "{workload} undeclared");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} undeclared or with another unit");
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
