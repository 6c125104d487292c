//! Golden-corpus regression tests.
//!
//! Small campaign outputs — Table I and Figure 2 renderings plus the JSONL
//! shard encoding of the artifact store — are committed under
//! `tests/golden/` and asserted **byte-identical** at a fixed seed. This
//! locks in the executor's determinism guarantees (canonical ordering across
//! thread counts, exact integer round-trips through the store, stable table
//! rendering): any change that perturbs a single byte of campaign output
//! fails here, not in a reviewer's diff of `EXPERIMENTS.md`.
//!
//! To regenerate the corpus after an *intentional* output change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_corpus
//! ```

use desktop_grid_scheduling::experiments::cli::CliOptions;
use desktop_grid_scheduling::experiments::executor::{run_campaign_with, ExecutorOptions};
use desktop_grid_scheduling::experiments::figures::Figure;
use desktop_grid_scheduling::experiments::gap::{render_gap_table, run_gap_with};
use desktop_grid_scheduling::experiments::sensitivity::{
    render_sensitivity, run_sensitivity_with, SensitivityConfig,
};
use desktop_grid_scheduling::experiments::store::{shard_name, MANIFEST_NAME};
use desktop_grid_scheduling::experiments::tables::{render_table, table_comparison};
use desktop_grid_scheduling::heuristics::HeuristicSpec;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Assert `actual` matches the committed fixture byte-for-byte, or rewrite
/// the fixture when `GOLDEN_UPDATE` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {name} ({e}); run GOLDEN_UPDATE=1 cargo test --test golden_corpus")
    });
    assert_eq!(
        expected, actual,
        "golden fixture {name} diverged — if the output change is intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --test golden_corpus"
    );
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dg-golden-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The Table I golden campaign: the CI smoke invocation
/// (`--scenarios 1 --trials 1 --wmin 1,2`) at the default seed, run on
/// 4 threads with a store attached — so the fixture also pins the
/// thread-count-independence of tables *and* shard bytes (the corpus was
/// generated single-threaded).
#[test]
fn table1_rendering_and_shards_match_golden_corpus() {
    let opts =
        CliOptions::parse(["--scenarios", "1", "--trials", "1", "--wmin", "1,2", "--threads", "4"])
            .unwrap();
    let config = opts.campaign().unwrap().with_m(5);
    let dir = temp_store("table1");
    let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
    let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();

    let results = outcome.results;
    let subset: Vec<_> = results.results.iter().collect();
    let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
    let table = render_table("TABLE I. RESULTS WITH m = 5 TASKS.", &comparison);
    check_golden("table1_m5.txt", &table);

    // Shard bytes, concatenated in point order.
    let mut shards = String::new();
    for point in 0..config.points().len() {
        shards.push_str(&fs::read_to_string(dir.join(shard_name(point))).unwrap());
    }
    check_golden("table1_shards.jsonl", &shards);
    // The completed manifest, shared as a fixture with the 3-worker split
    // test below: a merged multi-process store must reproduce it exactly.
    check_golden("table1_manifest.json", &fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap());
    let _ = fs::remove_dir_all(&dir);
}

/// The tentpole acceptance pin of the coordinator/worker protocol: a
/// 3-worker split of the Table I golden campaign — each worker running 2
/// in-process threads — merges to a `manifest.json` and concatenated shard
/// bytes **byte-identical** to the committed single-process `--threads 1`
/// fixtures. N processes × M threads with file-level communication only,
/// and not one output byte moves.
#[test]
fn three_worker_split_merges_byte_identical_to_single_process_fixtures() {
    use desktop_grid_scheduling::experiments::distrib::{merge_parts, WorkerShard};
    use desktop_grid_scheduling::experiments::executor::config_fingerprint;
    use desktop_grid_scheduling::experiments::store::CampaignStore;

    let opts =
        CliOptions::parse(["--scenarios", "1", "--trials", "1", "--wmin", "1,2", "--threads", "2"])
            .unwrap();
    let config = opts.campaign().unwrap().with_m(5);
    let dir = temp_store("table1-split");
    let num_points = config.points().len();
    // Coordinator claims the shared directory; the three workers execute
    // their contiguous point ranges into it (in-process here — the spawned
    // child-process path is covered by the CI smoke run).
    let store = CampaignStore::open(&dir, config_fingerprint(&config), false).unwrap();
    for index in 1..=3 {
        let shard = WorkerShard::new(index, 3).unwrap();
        let options = ExecutorOptions::new().store(&dir, false).worker_shard(shard);
        run_campaign_with(&config, &options, |_, _| {}).unwrap();
    }
    let report = merge_parts(&store, 3, num_points).unwrap();
    assert_eq!(report.points, num_points);

    // Concatenated shard bytes equal the committed single-process fixture.
    let mut shards = String::new();
    for point in 0..num_points {
        shards.push_str(&fs::read_to_string(dir.join(shard_name(point))).unwrap());
    }
    check_golden("table1_shards.jsonl", &shards);
    // And the merged manifest equals the committed single-process manifest.
    let manifest = fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
    check_golden("table1_manifest.json", &manifest);
    let _ = fs::remove_dir_all(&dir);
}

/// The Figure 2 golden campaign: 8 heuristics at `m = 10`, `wmin ∈ {1, 2}`,
/// rendered figure plus its CSV series.
#[test]
fn figure2_rendering_matches_golden_corpus() {
    const FIGURE2_HEURISTICS: [&str; 8] =
        ["E-IAY", "E-IP", "E-IY", "IAY", "IE", "IY", "P-IE", "Y-IE"];
    let opts = CliOptions::parse(["--scenarios", "1", "--trials", "1", "--wmin", "1,2"]).unwrap();
    let heuristics: Vec<HeuristicSpec> =
        FIGURE2_HEURISTICS.iter().map(|n| HeuristicSpec::parse(n).unwrap()).collect();
    let config = opts.campaign().unwrap().with_m(10).with_heuristics(heuristics);
    let outcome =
        run_campaign_with(&config, &ExecutorOptions::new().retain_raw(true), |_, _| {}).unwrap();

    let names: Vec<String> = FIGURE2_HEURISTICS.iter().map(|s| s.to_string()).collect();
    let figure = Figure::compute(&outcome.results, 10, "IE", &names);
    let rendered = format!("{}\nCSV:\n{}", figure.render(), figure.to_csv());
    check_golden("figure2_m10.txt", &rendered);
}

/// The optimality-gap golden sweep: same scale as the Table I campaign
/// (`--scenarios 1 --trials 1 --wmin 1,2` at `m = 5`, 4 threads, store
/// attached), pinning both the rendered gap table and the gap-record shard
/// bytes — and, with every ratio in the fixture `>= 1.000`, the exact
/// oracle's lower-bound property at the committed seed.
#[test]
fn gap_rendering_and_shards_match_golden_corpus() {
    let opts =
        CliOptions::parse(["--scenarios", "1", "--trials", "1", "--wmin", "1,2", "--threads", "4"])
            .unwrap();
    let config = opts.campaign().unwrap().with_m(5);
    let dir = temp_store("gap");
    let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
    let outcome = run_gap_with(&config, &options, |_, _| {}).unwrap();

    for agg in &outcome.aggregates {
        assert!(
            agg.comparable == 0 || agg.min_ratio >= 1.0,
            "{} dipped below the exact offline bound in the golden sweep: {}",
            agg.heuristic,
            agg.min_ratio
        );
    }
    let table = render_gap_table(
        "OPTIMALITY GAP vs OFFLINE ORACLE (paper suite, online/offline makespan ratios).",
        &outcome.aggregates,
    );
    check_golden("gap_m5.txt", &table);

    let mut shards = String::new();
    for point in 0..config.points().len() {
        shards.push_str(&fs::read_to_string(dir.join(shard_name(point))).unwrap());
    }
    check_golden("gap_shards.jsonl", &shards);
    let _ = fs::remove_dir_all(&dir);
}

/// The model-mismatch sensitivity golden sweep: the `small()` preset cut to
/// 1 scenario × 1 trial, run on 4 threads with a store attached, pinning the
/// rendered side-by-side table and the model-tagged shard bytes.
#[test]
fn sensitivity_rendering_and_shards_match_golden_corpus() {
    let mut config = SensitivityConfig::small();
    config.scenarios_per_point = 1;
    config.trials_per_scenario = 1;
    config.threads = 4;
    let dir = temp_store("sensitivity");
    let results =
        run_sensitivity_with(&config, &ExecutorOptions::new().store(&dir, false)).unwrap();

    let names: Vec<String> = config.heuristics.iter().map(HeuristicSpec::name).collect();
    check_golden("sensitivity_m5.txt", &render_sensitivity(&results, "IE", &names));

    let mut shards = String::new();
    for point in 0..config.points.len() {
        shards.push_str(&fs::read_to_string(dir.join(shard_name(point))).unwrap());
    }
    check_golden("sensitivity_shards.jsonl", &shards);
    let _ = fs::remove_dir_all(&dir);
}
