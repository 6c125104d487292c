//! Integration tests of the multi-process sharding protocol
//! (`crate::experiments::distrib`) across all three executors — campaign,
//! optimality-gap and sensitivity — plus worker resume and degenerate
//! splits. The spawned child-process path is covered by the CI smoke run;
//! these tests drive the same worker/merge code in-process.

use desktop_grid_scheduling::experiments::cli::CliOptions;
use desktop_grid_scheduling::experiments::distrib::{merge_parts, WorkerShard};
use desktop_grid_scheduling::experiments::executor::{config_fingerprint, run_campaign_with};
use desktop_grid_scheduling::experiments::gap::{gap_fingerprint, run_gap_with};
use desktop_grid_scheduling::experiments::sensitivity::{
    run_sensitivity_with, sensitivity_fingerprint, sensitivity_slice,
};
use desktop_grid_scheduling::experiments::store::{shard_name, CampaignStore, MANIFEST_NAME};
use desktop_grid_scheduling::experiments::{CampaignConfig, ExecutorOptions};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dg-distrib-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 2-point campaign (m = 5, ncom = 10, wmin ∈ {1, 2}) over two heuristics.
fn small_campaign() -> CampaignConfig {
    CliOptions::parse([
        "--scenarios",
        "1",
        "--trials",
        "1",
        "--ncom",
        "10",
        "--wmin",
        "1,2",
        "--heuristics",
        "IE,RANDOM",
    ])
    .unwrap()
    .campaign()
    .unwrap()
    .with_m(5)
}

/// Assert every store artifact (manifest + all point shards) of `split` is
/// byte-identical to `single`.
fn assert_stores_identical(single: &Path, split: &Path, num_points: usize) {
    assert_eq!(
        fs::read(single.join(MANIFEST_NAME)).unwrap(),
        fs::read(split.join(MANIFEST_NAME)).unwrap(),
        "merged manifest differs from the single-process manifest"
    );
    for point in 0..num_points {
        assert_eq!(
            fs::read(single.join(shard_name(point))).unwrap(),
            fs::read(split.join(shard_name(point))).unwrap(),
            "shard {point} differs from the single-process run"
        );
    }
}

#[test]
fn gap_worker_split_merges_to_single_process_bytes() {
    let config = small_campaign();
    let num_points = config.points().len();
    let single = temp_dir("gap-single");
    run_gap_with(&config, &ExecutorOptions::new().store(&single, false), |_, _| {}).unwrap();

    let split = temp_dir("gap-split");
    let store = CampaignStore::open(&split, gap_fingerprint(&config), false).unwrap();
    for index in 1..=2 {
        let options = ExecutorOptions::new()
            .store(&split, false)
            .worker_shard(WorkerShard::new(index, 2).unwrap());
        run_gap_with(&config, &options, |_, _| {}).unwrap();
    }
    merge_parts(&store, 2, num_points).unwrap();
    assert_stores_identical(&single, &split, num_points);
    let _ = fs::remove_dir_all(&single);
    let _ = fs::remove_dir_all(&split);
}

#[test]
fn sensitivity_worker_split_merges_to_single_process_bytes() {
    let mut config = sensitivity_slice(small_campaign());
    config.max_slots = 30_000;
    config.base_seed = 1807;
    let num_points = config.points().len();

    let single = temp_dir("sens-single");
    let options = ExecutorOptions::new().store(&single, false);
    let baseline = run_sensitivity_with(&config, &options, |_, _| {}).unwrap().results;

    let split = temp_dir("sens-split");
    let store = CampaignStore::open(&split, sensitivity_fingerprint(&config), false).unwrap();
    for index in 1..=2 {
        let options = ExecutorOptions::new()
            .store(&split, false)
            .worker_shard(WorkerShard::new(index, 2).unwrap());
        run_sensitivity_with(&config, &options, |_, _| {}).unwrap();
    }
    merge_parts(&store, 2, num_points).unwrap();
    assert_stores_identical(&single, &split, num_points);

    // The merged store resumes to the exact single-process results.
    let options = ExecutorOptions::new().store(&split, true);
    let resumed = run_sensitivity_with(&config, &options, |_, _| {}).unwrap().results;
    assert_eq!(resumed, baseline);
    let _ = fs::remove_dir_all(&single);
    let _ = fs::remove_dir_all(&split);
}

#[test]
fn oversized_splits_leave_empty_shards_and_still_merge() {
    // 5 workers over 2 points: three of the ranges are empty — legal idle
    // workers whose part manifests still participate in the tiling proof.
    let config = small_campaign();
    let num_points = config.points().len();
    let single = temp_dir("empty-single");
    run_campaign_with(&config, &ExecutorOptions::new().store(&single, false), |_, _| {}).unwrap();

    let split = temp_dir("empty-split");
    let store = CampaignStore::open(&split, config_fingerprint(&config), false).unwrap();
    for index in 1..=5 {
        let shard = WorkerShard::new(index, 5).unwrap();
        let options = ExecutorOptions::new().store(&split, false).worker_shard(shard);
        let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        assert_eq!(
            outcome.stats.total_instances == 0,
            shard.points(num_points).is_empty(),
            "worker {index}/5 executed outside its range"
        );
    }
    merge_parts(&store, 5, num_points).unwrap();
    assert_stores_identical(&single, &split, num_points);
    let _ = fs::remove_dir_all(&single);
    let _ = fs::remove_dir_all(&split);
}

#[test]
fn workers_resume_over_a_complete_store_without_re_executing() {
    // A coordinator re-run with --resume keeps the finished shards; every
    // worker sees its range already on disk, executes nothing, and the
    // merge restores the manifest byte-identically.
    let config = small_campaign();
    let num_points = config.points().len();
    let dir = temp_dir("resume");
    run_campaign_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();
    let manifest_before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
    let shards_before: Vec<Vec<u8>> =
        (0..num_points).map(|p| fs::read(dir.join(shard_name(p))).unwrap()).collect();

    let store = CampaignStore::open(&dir, config_fingerprint(&config), true).unwrap();
    for index in 1..=2 {
        let options = ExecutorOptions::new()
            .store(&dir, true)
            .worker_shard(WorkerShard::new(index, 2).unwrap());
        let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        assert_eq!(outcome.stats.executed_instances, 0, "worker {index} re-executed");
        assert_eq!(outcome.stats.resumed_instances, outcome.stats.total_instances);
    }
    merge_parts(&store, 2, num_points).unwrap();
    assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), manifest_before);
    for (p, before) in shards_before.iter().enumerate() {
        assert_eq!(&fs::read(dir.join(shard_name(p))).unwrap(), before, "shard {p}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_with_different_flags_is_refused_by_the_shared_store() {
    let config = small_campaign();
    let dir = temp_dir("mismatch");
    // Coordinator stamps the shared directory with its fingerprint.
    let _store = CampaignStore::open(&dir, config_fingerprint(&config), false).unwrap();
    // A worker launched with a different seed must refuse to contribute.
    let mut other = config.clone();
    other.base_seed ^= 1;
    let options =
        ExecutorOptions::new().store(&dir, false).worker_shard(WorkerShard::new(1, 2).unwrap());
    let err = run_campaign_with(&other, &options, |_, _| {}).unwrap_err();
    assert!(err.contains("different configuration"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
