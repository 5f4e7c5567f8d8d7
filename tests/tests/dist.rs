//! Integration tests for `comfase-dist`: claim-driven campaign
//! execution across workers, journal merging and the content-addressed
//! result cache.
//!
//! The load-bearing invariant throughout: however a campaign is split,
//! resumed or cache-served, the final `CampaignMetrics` artifact is
//! **byte-identical** to the single-process, simulate-everything run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use comfase::campaign::WorkSource;
use comfase::prelude::*;
use comfase_des::time::SimTime;
use comfase_dist::{merge_journals, ClaimLedger, ClaimSource, DiskCache};

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

/// The 8-experiment delay campaign shape shared with the robustness and
/// observability suites, telemetry on.
fn campaign_with_seed(seed: u64) -> Campaign {
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 8.0],
    };
    let engine = Engine::new(quick_scenario(30), CommModel::paper_default(), seed)
        .expect("the test scenario is valid");
    Campaign::new(engine, setup)
        .expect("the test campaign is valid")
        .with_obs(ObsConfig::metrics_only())
}

fn campaign() -> Campaign {
    campaign_with_seed(42)
}

/// A scratch path in the system temp dir, unique per test process, with
/// any stale copy removed.
fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("comfase-dist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn cache_config(dir: &std::path::Path) -> RunConfig {
    RunConfig {
        cache: Some(
            Arc::new(DiskCache::create(dir).expect("the cache dir is creatable"))
                as Arc<dyn ExperimentCache>,
        ),
        ..RunConfig::default()
    }
}

/// Runs `n` claim workers of `campaign()` concurrently over one fresh
/// ledger of 2-experiment units, one thread each, and returns their
/// results. `config(i)` configures worker `i`; its work source is added
/// here. Nobody dies, so nobody steals.
fn run_claim_workers(
    n: usize,
    label: &str,
    config: impl Fn(usize) -> RunConfig + Sync,
) -> Vec<CampaignResult> {
    let claim_dir = tmp_path(&format!("{label}-claims"));
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .map(|i| {
                let (claim_dir, config) = (&claim_dir, &config);
                scope.spawn(move || {
                    let c = campaign();
                    // Built directly, with a fixed ledger fingerprint, so
                    // a worker without a journal, cache or dataset sink
                    // serializes nothing.
                    let ledger = ClaimLedger::create(claim_dir, 0xfeed, c.nr_experiments(), 2)
                        .expect("ledger opens");
                    let source = ClaimSource::new(ledger, format!("w{i}"), u32::MAX)
                        .with_scan_interval(Duration::from_millis(1));
                    let config = RunConfig {
                        work: Some(Arc::new(source) as Arc<dyn WorkSource>),
                        ..config(i)
                    };
                    c.run(1, &config, &NullObserver)
                        .unwrap_or_else(|e| panic!("worker {i} of {label} failed: {e}"))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&claim_dir);
    results
}

/// Folds `(index, item)` pairs by index under the journal merger's
/// equal-or-reject rule: a unit two workers both won in an acquire race
/// runs twice, and the duplicates must be bit-equal.
fn union_by_index<T: Clone + PartialEq + std::fmt::Debug>(
    items: impl IntoIterator<Item = (usize, T)>,
) -> Vec<T> {
    let mut union = std::collections::BTreeMap::new();
    for (index, item) in items {
        let kept = union.entry(index).or_insert_with(|| item.clone());
        assert_eq!(*kept, item, "workers disagree about experiment {index}");
    }
    union.into_values().collect()
}

/// Two claim workers running concurrently over one ledger — one thread
/// each, no journal — split the campaign between them: the union of their
/// records, and the metrics artifact built from the union of their rows,
/// equal the single-process run under every execution mode.
#[test]
fn two_claim_workers_split_the_campaign_like_one_process() {
    let reference = campaign()
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap();
    for mode in [
        ExecutionMode::FromScratch,
        ExecutionMode::PrefixFork,
        ExecutionMode::SnapshotDag,
    ] {
        let results = run_claim_workers(2, &format!("two-{mode:?}"), |_| RunConfig {
            mode,
            ..RunConfig::default()
        });
        let records = union_by_index(
            results
                .iter()
                .flat_map(|r| r.records.iter().map(|rec| (rec.index, rec.clone()))),
        );
        assert_eq!(
            records, reference.records,
            "records diverged under {mode:?}"
        );
        let metrics = |r: &CampaignResult| r.metrics.clone().expect("telemetry was enabled");
        let rows = union_by_index(
            results
                .iter()
                .flat_map(|r| metrics(r).per_experiment)
                .map(|row| (row.index, row)),
        );
        assert_eq!(
            Some(CampaignMetrics::build(rows, metrics(&results[0]).golden)),
            reference.metrics,
            "metrics diverged under {mode:?}"
        );
    }
}

/// Acceptance: 1/2/4 concurrent claim workers, each journaling, merge
/// into an artifact byte-identical to the single-process one — under all
/// three execution modes.
#[test]
fn merged_claim_workers_are_byte_identical_for_every_split_and_mode() {
    let reference = campaign()
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();

    for mode in [
        ExecutionMode::FromScratch,
        ExecutionMode::PrefixFork,
        ExecutionMode::SnapshotDag,
    ] {
        for n in [1usize, 2, 4] {
            let label = format!("split-{mode:?}-{n}");
            let journals: Vec<PathBuf> = (0..n)
                .map(|i| tmp_path(&format!("{label}-w{i}.journal")))
                .collect();
            run_claim_workers(n, &label, |i| RunConfig {
                mode,
                journal: Some(journals[i].clone()),
                ..RunConfig::default()
            });
            let merged = merge_journals(&journals).unwrap();
            assert_eq!(
                merged.to_json_bytes(),
                reference_bytes,
                "merged {n}-worker split diverged under {mode:?}"
            );
            for path in journals {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// Acceptance: a fully warm cache serves every experiment of the campaign
/// — no experiment simulates — and the artifact is byte-identical. Mode
/// and thread count are excluded from the cache key, so entries written
/// under one configuration serve every other.
#[test]
fn warm_cache_performs_zero_simulations_and_reproduces_the_bytes() {
    let campaign = campaign();
    let total = campaign.nr_experiments();
    let reference_bytes = campaign
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap()
        .metrics
        .as_ref()
        .unwrap()
        .to_json_bytes();

    let dir = tmp_path("warm-cache");
    let cold = campaign.run(4, &cache_config(&dir), &NullObserver).unwrap();
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(
        cold.stats.cache_misses, total,
        "the golden run is never cached"
    );

    // Warm pass, deliberately under a *different* execution mode and
    // thread count than the cold pass.
    for (threads, mode) in [
        (1, ExecutionMode::SnapshotDag),
        (4, ExecutionMode::FromScratch),
    ] {
        let config = RunConfig {
            mode,
            ..cache_config(&dir)
        };
        let warm = campaign.run(threads, &config, &NullObserver).unwrap();
        assert_eq!(
            warm.stats.cache_hits, total,
            "every experiment must hit under {mode:?}"
        );
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(
            warm.stats.forked_runs + warm.stats.scratch_runs + warm.stats.chain_forked_runs,
            0,
            "a fully warm cache simulates no experiment under {mode:?}"
        );
        assert!((warm.stats.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(
            warm.metrics.as_ref().unwrap().to_json_bytes(),
            reference_bytes,
            "warm-cache artifact diverged under {mode:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key folds in the engine seed: a campaign over the same
/// setup but a different seed shares nothing with the warm cache.
#[test]
fn cache_entries_are_keyed_by_seed() {
    let dir = tmp_path("seed-cache");
    let campaign = campaign();
    let total = campaign.nr_experiments();
    campaign.run(2, &cache_config(&dir), &NullObserver).unwrap();

    let other = campaign_with_seed(43);
    let result = other.run(2, &cache_config(&dir), &NullObserver).unwrap();
    assert_eq!(
        result.stats.cache_hits, 0,
        "a different seed must not hit the other campaign's entries"
    );
    assert_eq!(result.stats.cache_misses, total);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journals from campaigns whose configurations differ only in ways the
/// fingerprint (not the setup) sees refuse to merge.
#[test]
fn merge_rejects_journals_of_different_campaigns() {
    let a = campaign();
    let setup = a.setup().clone();
    let engine = Engine::new(quick_scenario(31), CommModel::paper_default(), 42).unwrap();
    let b = Campaign::new(engine, setup)
        .unwrap()
        .with_obs(ObsConfig::metrics_only());
    assert_ne!(a.fingerprint().unwrap(), b.fingerprint().unwrap());

    let path_a = tmp_path("foreign-a");
    let path_b = tmp_path("foreign-b");
    for (campaign, path) in [(&a, &path_a), (&b, &path_b)] {
        let config = RunConfig {
            journal: Some(path.clone()),
            ..RunConfig::default()
        };
        campaign.run(2, &config, &NullObserver).unwrap();
    }
    let failure = merge_journals(&[path_a.clone(), path_b.clone()]).unwrap_err();
    assert!(
        matches!(failure.error, ComfaseError::InvalidConfig(_)),
        "foreign journals must be an InvalidConfig error, got {failure:?}"
    );
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// Claim workers compose with the cache: two workers sharing one cache
/// directory warm it for a subsequent single-process run.
#[test]
fn claim_workers_warm_the_shared_cache_for_the_whole_campaign() {
    let campaign = campaign();
    let total = campaign.nr_experiments();
    let dir = tmp_path("shared-cache");
    run_claim_workers(2, "warm", |_| cache_config(&dir));
    let result = campaign.run(4, &cache_config(&dir), &NullObserver).unwrap();
    assert_eq!(
        result.stats.cache_hits, total,
        "the union of the workers' stores covers the whole campaign"
    );
    assert_eq!(
        result.stats.forked_runs + result.stats.scratch_runs + result.stats.chain_forked_runs,
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}
