//! Streaming attack-labeled dataset export: byte-identity of the merged
//! corpus across execution modes, thread counts, worker topologies,
//! steal recovery and a warm result cache.
//!
//! The invariant under test everywhere: however a campaign with dataset
//! export is executed — one process or many, claimed or stolen units,
//! over a cold or a warm cache — merging the exported `exp-*.jsonl`
//! shards produces a **byte-identical** `corpus.jsonl`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use comfase::campaign::WorkSource;
use comfase::prelude::*;
use comfase_des::time::SimTime;
use comfase_dist::{merge_dataset_dirs, ClaimSource, DirSink, DiskCache};

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

/// The 8-experiment delay campaign shape shared with the dist and steal
/// suites — telemetry *and* dataset capture on.
fn campaign() -> Campaign {
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 8.0],
    };
    let engine = Engine::new(quick_scenario(30), CommModel::paper_default(), 42)
        .expect("the test scenario is valid");
    Campaign::new(engine, setup)
        .expect("the test campaign is valid")
        .with_obs(ObsConfig::metrics_only().with_dataset())
}

/// A scratch path in the system temp dir, unique per test process, with
/// any stale copy removed.
fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("comfase-dataset-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// A run config exporting dataset shards into `dir`.
fn export_config(dir: &Path, mode: ExecutionMode) -> RunConfig {
    RunConfig {
        mode,
        dataset: Some(
            Arc::new(DirSink::create(dir).expect("the shard dir is creatable"))
                as Arc<dyn DatasetSink>,
        ),
        ..RunConfig::default()
    }
}

/// Merges the shard directories and returns the corpus bytes.
fn merged_corpus(dirs: &[PathBuf], label: &str) -> Vec<u8> {
    let out = tmp_path(&format!("{label}-merged"));
    let report = merge_dataset_dirs(dirs, &out)
        .unwrap_or_else(|e| panic!("dataset merge failed under {label}: {e}"));
    let corpus = std::fs::read(&report.corpus_path).expect("the merged corpus is readable");
    assert_eq!(report.corpus_bytes, corpus.len() as u64);
    let _ = std::fs::remove_dir_all(&out);
    corpus
}

/// Acceptance: the merged corpus — and the metrics artifact alongside it
/// — is byte-identical across all three execution modes and 1/4/8
/// worker threads, and the export changes no verdict relative to a
/// capture-only run.
#[test]
fn exported_corpus_is_byte_identical_across_modes_and_threads() {
    let dir = tmp_path("ref-shards");
    let reference = campaign()
        .run(
            4,
            &export_config(&dir, ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .unwrap();
    let reference_corpus = merged_corpus(std::slice::from_ref(&dir), "ref");
    let reference_metrics = reference.metrics.as_ref().unwrap().to_json_bytes();
    assert!(!reference_corpus.is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    for mode in [
        ExecutionMode::FromScratch,
        ExecutionMode::PrefixFork,
        ExecutionMode::SnapshotDag,
    ] {
        for threads in [1usize, 4, 8] {
            let label = format!("{mode:?}-t{threads}");
            let dir = tmp_path(&format!("{label}-shards"));
            let result = campaign()
                .run(threads, &export_config(&dir, mode), &NullObserver)
                .unwrap_or_else(|e| panic!("export run failed under {label}: {e}"));
            assert_eq!(
                result.metrics.as_ref().unwrap().to_json_bytes(),
                reference_metrics,
                "metrics diverged with export on under {label}"
            );
            assert_eq!(
                result.records, reference.records,
                "records diverged under {label}"
            );
            assert_eq!(
                merged_corpus(std::slice::from_ref(&dir), &label),
                reference_corpus,
                "corpus diverged under {label}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// 2 and 4 concurrent claim workers export into one shared directory;
/// the merged corpus is byte-identical to the single-process export.
#[test]
fn claim_workers_export_into_one_directory_and_merge_identically() {
    let solo_dir = tmp_path("solo-shards");
    campaign()
        .run(
            4,
            &export_config(&solo_dir, ExecutionMode::SnapshotDag),
            &NullObserver,
        )
        .unwrap();
    let reference_corpus = merged_corpus(std::slice::from_ref(&solo_dir), "solo");
    let _ = std::fs::remove_dir_all(&solo_dir);

    for n in [2usize, 4] {
        let label = format!("split-{n}");
        let claim_dir = tmp_path(&format!("{label}-claims"));
        let shared_dir = tmp_path(&format!("{label}-shards"));
        std::thread::scope(|scope| {
            for i in 0..n {
                let (claim_dir, shared_dir, label) = (&claim_dir, &shared_dir, &label);
                scope.spawn(move || {
                    let c = campaign();
                    let source = ClaimSource::for_campaign(
                        claim_dir,
                        &c,
                        format!("w{i}"),
                        Some(2),
                        u32::MAX,
                    )
                    .unwrap()
                    .with_scan_interval(Duration::from_millis(1));
                    let config = RunConfig {
                        work: Some(Arc::new(source) as Arc<dyn WorkSource>),
                        ..export_config(shared_dir, ExecutionMode::PrefixFork)
                    };
                    c.run(1, &config, &NullObserver)
                        .unwrap_or_else(|e| panic!("worker {i} failed under {label}: {e}"));
                });
            }
        });
        assert_eq!(
            merged_corpus(std::slice::from_ref(&shared_dir), &label),
            reference_corpus,
            "corpus diverged under {label}"
        );
        let _ = std::fs::remove_dir_all(&claim_dir);
        let _ = std::fs::remove_dir_all(&shared_dir);
    }
}

/// Steal recovery: a claim-driven victim dies mid-campaign (after
/// exporting part of its unit), a survivor steals and re-executes the
/// stranded unit — re-exporting some shards bit-equal over the victim's
/// — and the merged corpus is unchanged.
#[test]
fn stolen_units_reexport_bit_equal_shards_and_the_corpus_is_unchanged() {
    let reference_dir = tmp_path("steal-ref-shards");
    campaign()
        .run(
            4,
            &export_config(&reference_dir, ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .unwrap();
    let reference_corpus = merged_corpus(std::slice::from_ref(&reference_dir), "steal-ref");
    let _ = std::fs::remove_dir_all(&reference_dir);

    let claim_dir = tmp_path("steal-claims");
    let shared_dir = tmp_path("steal-shards");
    let victim_journal = tmp_path("steal-victim.journal");
    let survivor_journal = tmp_path("steal-survivor.journal");
    let claim_source = |campaign: &Campaign, worker: &str| {
        Arc::new(
            ClaimSource::for_campaign(&claim_dir, campaign, worker, Some(3), 3)
                .unwrap()
                .with_scan_interval(Duration::from_millis(1)),
        ) as Arc<dyn WorkSource>
    };

    // The victim dies on experiment 1: experiment 0 of its unit is
    // already exported and journaled, the rest of the unit is stranded.
    let victim = campaign().with_chaos(ChaosConfig {
        fail_on: vec![1],
        ..ChaosConfig::default()
    });
    let config = RunConfig {
        journal: Some(victim_journal.clone()),
        work: Some(claim_source(&victim, "victim")),
        ..export_config(&shared_dir, ExecutionMode::PrefixFork)
    };
    victim
        .run(1, &config, &NullObserver)
        .expect_err("the chaos kill must abort the victim");

    // The survivor drains the ledger, stealing the victim's unit and
    // re-exporting its shards into the same directory.
    let survivor = campaign();
    let config = RunConfig {
        journal: Some(survivor_journal.clone()),
        work: Some(claim_source(&survivor, "survivor")),
        ..export_config(&shared_dir, ExecutionMode::PrefixFork)
    };
    survivor.run(4, &config, &NullObserver).unwrap();

    assert_eq!(
        merged_corpus(std::slice::from_ref(&shared_dir), "steal"),
        reference_corpus,
        "corpus diverged after steal recovery"
    );
    for path in [&victim_journal, &survivor_journal] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&claim_dir);
    let _ = std::fs::remove_dir_all(&shared_dir);
}

/// Opens a result cache rooted at `dir`.
fn disk_cache(dir: &Path) -> Option<Arc<dyn ExperimentCache>> {
    Some(Arc::new(DiskCache::create(dir).expect("cache dir opens")) as Arc<dyn ExperimentCache>)
}

/// Experiments a run simulated rather than took from the cache.
fn simulated(result: &CampaignResult) -> usize {
    result.stats.forked_runs + result.stats.scratch_runs + result.stats.chain_forked_runs
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(next) = dirs.pop() {
        for entry in std::fs::read_dir(&next).expect("directory lists") {
            let path = entry.expect("directory entry reads").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("file reads");
                let name = path.strip_prefix(dir).expect("path under dir");
                files.insert(name.to_path_buf(), bytes);
            }
        }
    }
    files
}

/// Cache entries hold verdicts only, so a dataset run looks nothing up in
/// a warm cache: every experiment simulates, and the corpus is
/// byte-identical to the cold run's.
#[test]
fn a_warm_cache_does_not_serve_a_dataset_run() {
    let cache_dir = tmp_path("cache");
    let run = |shards: &Path| {
        campaign()
            .run(
                4,
                &RunConfig {
                    cache: disk_cache(&cache_dir),
                    ..export_config(shards, ExecutionMode::SnapshotDag)
                },
                &NullObserver,
            )
            .unwrap()
    };

    let cold_dir = tmp_path("cold-shards");
    let cold = run(&cold_dir);
    let total = cold.records.len();
    assert_eq!(simulated(&cold), total);
    assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 0));
    let reference_corpus = merged_corpus(std::slice::from_ref(&cold_dir), "cold");

    let warm_dir = tmp_path("warm-shards");
    let warm = run(&warm_dir);
    assert_eq!(
        simulated(&warm),
        total,
        "a dataset run simulates everything"
    );
    // Nothing is looked up.
    assert_eq!(
        (
            warm.stats.cache_hits,
            warm.stats.cache_misses,
            warm.stats.cache_stale
        ),
        (0, 0, 0)
    );
    assert_eq!(
        merged_corpus(std::slice::from_ref(&warm_dir), "warm"),
        reference_corpus,
        "corpus diverged over a warm cache"
    );
    for dir in [&cache_dir, &cold_dir, &warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The dataset capture flag is not part of the cache key and entries hold
/// no capture: a dataset run writes byte for byte the cache a plain run
/// writes, and a plain run over it simulates nothing.
#[test]
fn dataset_runs_write_the_cache_a_plain_run_writes() {
    let plain = || campaign().with_obs(ObsConfig::metrics_only());
    let plain_cache = tmp_path("plain-cache");
    let plain_run = plain()
        .run(
            4,
            &RunConfig {
                cache: disk_cache(&plain_cache),
                ..RunConfig::default()
            },
            &NullObserver,
        )
        .unwrap();
    let plain_metrics = plain_run.metrics.as_ref().unwrap().to_json_bytes();

    let dataset_cache = tmp_path("dataset-cache");
    let shards = tmp_path("dataset-cache-shards");
    let dataset_run = campaign()
        .run(
            4,
            &RunConfig {
                cache: disk_cache(&dataset_cache),
                ..export_config(&shards, ExecutionMode::SnapshotDag)
            },
            &NullObserver,
        )
        .unwrap();
    assert_eq!(
        dataset_run.metrics.as_ref().unwrap().to_json_bytes(),
        plain_metrics,
        "capture must not move a metrics byte"
    );
    let (written, plain_written) = (tree(&dataset_cache), tree(&plain_cache));
    assert_eq!(written.len(), plain_run.records.len());
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        plain_written.keys().collect::<Vec<_>>()
    );
    let differing: Vec<_> = written
        .iter()
        .filter(|(name, bytes)| plain_written[*name] != **bytes)
        .map(|(name, _)| name)
        .collect();
    assert!(differing.is_empty(), "entries differ: {differing:?}");

    let warm = plain()
        .run(
            4,
            &RunConfig {
                cache: disk_cache(&dataset_cache),
                ..RunConfig::default()
            },
            &NullObserver,
        )
        .unwrap();
    assert_eq!(simulated(&warm), 0, "a plain run is fully served");
    assert_eq!(
        warm.metrics.as_ref().unwrap().to_json_bytes(),
        plain_metrics
    );
    for dir in [&plain_cache, &dataset_cache, &shards] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Configuring an export sink without dataset capture is refused up
/// front: the sink would otherwise stream empty captures silently.
#[test]
fn export_without_capture_is_refused() {
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4],
        attack_starts_s: vec![17.0],
        attack_durations_s: vec![2.0],
    };
    let engine = Engine::new(quick_scenario(30), CommModel::paper_default(), 42)
        .expect("the test scenario is valid");
    let no_capture = Campaign::new(engine, setup)
        .unwrap()
        .with_obs(ObsConfig::metrics_only());
    let dir = tmp_path("refused-shards");
    let err = no_capture
        .run(
            1,
            &export_config(&dir, ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .expect_err("export without capture must be refused");
    assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard that cannot be published aborts the campaign: the error names
/// the shard, and its temp file is gone.
#[test]
fn a_failed_shard_export_aborts_the_campaign_naming_the_shard() {
    let dir = tmp_path("blocked-shards");
    // A directory in shard 3's place makes its publication fail.
    let blocked = dir.join("exp-000003.jsonl");
    std::fs::create_dir_all(blocked.join("occupied")).expect("the blocker is creatable");
    let err = campaign()
        .run(
            1,
            &export_config(&dir, ExecutionMode::FromScratch),
            &NullObserver,
        )
        .expect_err("a failed export must abort the campaign");
    match &err {
        ComfaseError::Io(msg) => assert!(msg.contains("exp-000003.jsonl"), "{msg}"),
        other => panic!("expected an i/o error, got {other:?}"),
    }
    let temp_files = std::fs::read_dir(&dir)
        .expect("the shard dir is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(
        temp_files, 0,
        "the failed shard's temp file must be removed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
