//! Crash-tolerant work stealing: claim-driven campaign execution under
//! worker death, stalled leases, and injected host-I/O faults.
//!
//! Host-I/O faults come from test fakes behind the runner's seams: a
//! [`WorkSource`] whose first renewals fail, and an [`ExperimentCache`]
//! whose first experiment stores fail.
//!
//! The invariant under test everywhere: however many claim-driven
//! workers participate, and wherever one of them dies, the surviving
//! workers complete the campaign **without operator intervention** and
//! the merged `CampaignMetrics` artifact is byte-identical to a
//! single-process run.
//!
//! Worker death is emulated in-process: a "victim" campaign armed with
//! a deterministic chaos failure (`ChaosConfig::fail_on`) under the
//! abort policy journals its progress and then dies mid-claim exactly
//! like a `SIGKILL`ed process would — completed experiments journaled,
//! the failing one recorded as failed, its lease left behind with a
//! frozen heartbeat. (A real kill -9 across processes is exercised by
//! the CI chaos-steal smoke job.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
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

/// The 8-experiment delay campaign shape shared with the dist and
/// robustness suites, telemetry on.
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
        .with_obs(ObsConfig::metrics_only())
}

/// The single-process run's `metrics.json` bytes — the reference every
/// claim-driven topology must reproduce.
fn reference_bytes() -> Vec<u8> {
    let result = campaign().run(4, &RunConfig::default(), &NullObserver);
    let metrics = result.expect("reference runs").metrics;
    metrics.expect("telemetry was enabled").to_json_bytes()
}

/// A scratch path in the system temp dir, unique per test process, with
/// any stale copy removed.
fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("comfase-steal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// A claim source over `claim_dir` with test-speed scanning: 1 ms scan
/// rounds, stealing after 3 stalled observations.
fn claim_source(claim_dir: &std::path::Path, campaign: &Campaign, worker: &str) -> ClaimSource {
    ClaimSource::for_campaign(claim_dir, campaign, worker, Some(3), 3)
        .expect("the claim dir is usable")
        .with_scan_interval(Duration::from_millis(1))
}

/// A claim-driven run config journaling to `journal`.
fn claim_config(
    source: impl WorkSource + 'static,
    journal: PathBuf,
    mode: ExecutionMode,
) -> RunConfig {
    RunConfig {
        mode,
        journal: Some(journal),
        work: Some(Arc::new(source) as Arc<dyn WorkSource>),
        ..RunConfig::default()
    }
}

/// Spends one injected failure of `budget`; `false` once it is used up.
fn spend(budget: &AtomicU32) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// A claim source whose first `failures` renewals fail with an injected
/// I/O error before they reach the ledger, so the heartbeat does not
/// advance; the runner treats each like a lost lease.
#[derive(Debug)]
struct FailingRenewals {
    inner: ClaimSource,
    failures: AtomicU32,
}

impl FailingRenewals {
    fn new(inner: ClaimSource, failures: u32) -> FailingRenewals {
        FailingRenewals {
            inner,
            failures: AtomicU32::new(failures),
        }
    }
}

impl WorkSource for FailingRenewals {
    fn claim(&self) -> Result<Option<WorkUnit>, ComfaseError> {
        self.inner.claim()
    }

    fn renew(&self, unit: &WorkUnit) -> Result<LeaseState, ComfaseError> {
        if spend(&self.failures) {
            return Err(ComfaseError::Io(
                "chaos: injected heartbeat renewal failure".into(),
            ));
        }
        self.inner.renew(unit)
    }

    fn complete(&self, unit: &WorkUnit) -> Result<(), ComfaseError> {
        self.inner.complete(unit)
    }
}

/// A disk cache whose first `failures` stores of experiment entries fail
/// with an injected I/O error. Golden-run stores always succeed.
#[derive(Debug)]
struct FailingStores {
    inner: DiskCache,
    failures: AtomicU32,
}

impl ExperimentCache for FailingStores {
    fn load(&self, key: &CacheKey) -> CacheLookup {
        self.inner.load(key)
    }

    fn store(&self, key: &CacheKey, entry: &CacheEntry) -> Result<(), ComfaseError> {
        if matches!(entry, CacheEntry::Experiment { .. }) && spend(&self.failures) {
            return Err(ComfaseError::Io(
                "chaos: injected cache store failure".into(),
            ));
        }
        self.inner.store(key, entry)
    }
}

/// Acceptance: one worker dies at a deterministic point (before its
/// unit's first journal line, or mid-unit with part of the unit already
/// journaled), a clean survivor steals its stranded units, and the
/// merged artifact is byte-identical to the single-process reference.
/// The matrix covers every execution mode, both kill points, and
/// survivor thread counts 1/4/8.
#[test]
fn killed_worker_units_are_stolen_and_the_merge_is_byte_identical() {
    let reference_bytes = reference_bytes();

    // (mode, survivor threads, kill index). Units are 3 experiments
    // wide ([0,3), [3,6), [6,8)): killing at index 0 dies before the
    // unit journals anything, killing at 1 dies mid-unit with index 0
    // already journaled.
    let matrix = [
        (ExecutionMode::FromScratch, 1usize, 0usize),
        (ExecutionMode::PrefixFork, 4, 0),
        (ExecutionMode::SnapshotDag, 8, 0),
        (ExecutionMode::FromScratch, 4, 1),
        (ExecutionMode::PrefixFork, 8, 1),
        (ExecutionMode::SnapshotDag, 1, 1),
    ];
    for (mode, survivor_threads, kill_index) in matrix {
        let label = format!("{mode:?}-t{survivor_threads}-k{kill_index}");
        let claim_dir = tmp_path(&format!("kill-{label}-claims"));
        let victim_journal = tmp_path(&format!("kill-{label}-victim.journal"));
        let survivor_journal = tmp_path(&format!("kill-{label}-survivor.journal"));

        // The victim dies on its chaos index; its claimed unit keeps a
        // frozen-heartbeat lease and never gets a done marker.
        let victim = campaign().with_chaos(ChaosConfig {
            fail_on: vec![kill_index],
            ..ChaosConfig::default()
        });
        let source = claim_source(&claim_dir, &victim, "victim");
        let err = victim
            .run(
                1,
                &claim_config(source, victim_journal.clone(), mode),
                &NullObserver,
            )
            .expect_err("the chaos kill must abort the victim");
        assert!(
            err.to_string().contains("injected failure"),
            "unexpected victim death under {label}: {err}"
        );

        // The survivor — clean campaign, own journal, shared ledger —
        // drains everything, stealing the victim's stranded unit.
        let survivor = campaign();
        let source = claim_source(&claim_dir, &survivor, "survivor");
        survivor
            .run(
                survivor_threads,
                &claim_config(source, survivor_journal.clone(), mode),
                &NullObserver,
            )
            .unwrap_or_else(|e| panic!("survivor failed under {label}: {e}"));

        // The victim journaled a *failure* for the kill index; the
        // survivor's completion of the same index resolves it globally.
        let merged = merge_journals(&[victim_journal.clone(), survivor_journal.clone()])
            .unwrap_or_else(|e| panic!("merge failed under {label}: {e}"));
        assert_eq!(
            merged.to_json_bytes(),
            reference_bytes,
            "merged artifact diverged under {label}"
        );

        for path in [&victim_journal, &survivor_journal] {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&claim_dir);
    }
}

/// No stranded work, post-journal kill point: a worker that journaled a
/// unit completely but died before writing the done marker leaves a
/// ghost lease behind. A later worker steals and re-executes the unit;
/// the duplicate journal lines are bit-equal, so the merge accepts them
/// and the artifact is unchanged.
#[test]
fn ghost_lease_after_journaled_unit_is_stolen_and_duplicates_merge_clean() {
    let reference_bytes = reference_bytes();

    let claim_dir = tmp_path("ghost-claims");
    let first_journal = tmp_path("ghost-first.journal");
    let second_journal = tmp_path("ghost-second.journal");

    // A full, healthy claim-driven run...
    let first = campaign();
    let source = claim_source(&claim_dir, &first, "first");
    first
        .run(
            2,
            &claim_config(source, first_journal.clone(), ExecutionMode::SnapshotDag),
            &NullObserver,
        )
        .unwrap();

    // ...then rewind unit 0 to "journaled but not marked done": drop
    // the done marker and plant a foreign lease with a heartbeat that
    // will never advance.
    std::fs::remove_file(claim_dir.join("unit-0.done")).expect("unit 0 had a done marker");
    let probe = campaign();
    let ghost = claim_source(&claim_dir, &probe, "ghost");
    let unit0 = ghost.ledger().units()[0];
    assert!(ghost.ledger().try_acquire(&unit0, "ghost").unwrap());

    // A second worker must steal the ghost's unit and finish the
    // campaign without any operator intervention.
    let second = campaign();
    let source = claim_source(&claim_dir, &second, "second");
    second
        .run(
            2,
            &claim_config(source, second_journal.clone(), ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .unwrap();

    // Both journals now hold unit 0's experiments — bit-equal
    // duplicates, which the merger accepts.
    let merged = merge_journals(&[first_journal.clone(), second_journal.clone()]).unwrap();
    assert_eq!(merged.to_json_bytes(), reference_bytes);

    let _ = std::fs::remove_file(&first_journal);
    let _ = std::fs::remove_file(&second_journal);
    let _ = std::fs::remove_dir_all(&claim_dir);
}

/// Claim-driven execution with no failures at all is just another
/// execution shape: one worker, any thread count, any mode — the
/// resulting metrics (run result *and* journal) are byte-identical to
/// the plain run.
#[test]
fn solo_claim_driven_execution_is_byte_identical_across_modes_and_threads() {
    let reference_bytes = reference_bytes();

    for (mode, threads) in [
        (ExecutionMode::FromScratch, 1usize),
        (ExecutionMode::PrefixFork, 4),
        (ExecutionMode::SnapshotDag, 8),
    ] {
        let label = format!("solo-{mode:?}-{threads}");
        let claim_dir = tmp_path(&format!("{label}-claims"));
        let journal = tmp_path(&format!("{label}.journal"));
        let solo = campaign();
        let source = claim_source(&claim_dir, &solo, "solo");
        let result = solo
            .run(
                threads,
                &claim_config(source, journal.clone(), mode),
                &NullObserver,
            )
            .unwrap();
        assert_eq!(
            result.metrics.as_ref().unwrap().to_json_bytes(),
            reference_bytes,
            "in-process result diverged under {label}"
        );
        let merged = merge_journals(std::slice::from_ref(&journal)).unwrap();
        assert_eq!(
            merged.to_json_bytes(),
            reference_bytes,
            "journal artifact diverged under {label}"
        );
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&claim_dir);
    }
}

/// Injected heartbeat failure self-heals: the worker abandons the unit
/// on the failed renewal, then — being the only worker — observes its
/// own stalled lease, steals the unit back, and re-executes it. The
/// duplicate journal lines are bit-equal, so the artifact is unchanged.
#[test]
fn heartbeat_chaos_self_heals_by_stealing_the_unit_back() {
    let reference_bytes = reference_bytes();

    let claim_dir = tmp_path("heartbeat-claims");
    let journal = tmp_path("heartbeat.journal");
    let chaotic = campaign();
    let source = FailingRenewals::new(claim_source(&claim_dir, &chaotic, "chaotic"), 1);
    chaotic
        .run(
            1,
            &claim_config(source, journal.clone(), ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .unwrap();
    let merged = merge_journals(std::slice::from_ref(&journal)).unwrap();
    assert_eq!(merged.to_json_bytes(), reference_bytes);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&claim_dir);
}

/// Injected cache-store failure aborts the worker like any other host
/// I/O error; a surviving claim worker sharing the ledger steals the
/// unit and the merged artifact is unchanged. The victim journals its
/// first experiment's row and only then fails to store it, so the
/// survivor's re-execution of that experiment is a bit-equal duplicate.
#[test]
fn cache_store_chaos_is_recovered_by_a_surviving_worker() {
    let reference_bytes = reference_bytes();

    let claim_dir = tmp_path("storechaos-claims");
    let cache_dir = tmp_path("storechaos-cache");
    let victim_journal = tmp_path("storechaos-victim.journal");
    let survivor_journal = tmp_path("storechaos-survivor.journal");
    let disk_cache = || DiskCache::create(&cache_dir).expect("the cache dir is usable");

    // The golden run stores fine; the victim's first experiment store
    // fails.
    let victim = campaign();
    let source = claim_source(&claim_dir, &victim, "victim");
    let failing = FailingStores {
        inner: disk_cache(),
        failures: AtomicU32::new(1),
    };
    let err = victim
        .run(
            1,
            &RunConfig {
                cache: Some(Arc::new(failing)),
                ..claim_config(source, victim_journal.clone(), ExecutionMode::PrefixFork)
            },
            &NullObserver,
        )
        .expect_err("the injected store failure must abort the victim");
    assert!(err.to_string().contains("chaos"), "got: {err}");
    let victim_state = read_journal(&victim_journal).expect("the victim journaled");
    assert_eq!(
        victim_state.completed.len(),
        1,
        "the victim journals one row before its store fails"
    );

    // A clean survivor drains the ledger through the same shared cache.
    let survivor = campaign();
    let source = claim_source(&claim_dir, &survivor, "survivor");
    survivor
        .run(
            2,
            &RunConfig {
                cache: Some(Arc::new(disk_cache())),
                ..claim_config(source, survivor_journal.clone(), ExecutionMode::PrefixFork)
            },
            &NullObserver,
        )
        .unwrap();

    let merged = merge_journals(&[victim_journal.clone(), survivor_journal.clone()]).unwrap();
    assert_eq!(merged.to_json_bytes(), reference_bytes);

    for path in [&victim_journal, &survivor_journal] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&claim_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The claim branch itself — claiming, renewal, completion, and the
/// same-process dedup after a heartbeat-fault self-steal — exercised
/// without any journal: the ledger is built directly (no campaign
/// fingerprint) and results are compared structurally.
#[test]
fn claim_branch_matches_plain_execution_without_a_journal() {
    let reference = campaign()
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap();

    for (mode, threads, fail_heartbeat) in [
        (ExecutionMode::FromScratch, 1usize, 0u32),
        (ExecutionMode::PrefixFork, 4, 0),
        (ExecutionMode::SnapshotDag, 8, 0),
        // A failed renewal makes the lone worker abandon its unit,
        // observe its own stalled lease, steal it back, and re-execute:
        // the sink-level dedup must keep the records exact.
        (ExecutionMode::PrefixFork, 1, 1),
    ] {
        let label = format!("nojson-{mode:?}-t{threads}-hb{fail_heartbeat}");
        let claim_dir = tmp_path(&format!("{label}-claims"));
        let c = campaign();
        let ledger = ClaimLedger::create(&claim_dir, 0xfeed, c.nr_experiments(), 3).unwrap();
        let source = FailingRenewals::new(
            ClaimSource::new(ledger, "nojson", 3).with_scan_interval(Duration::from_millis(1)),
            fail_heartbeat,
        );
        let config = RunConfig {
            mode,
            work: Some(Arc::new(source) as Arc<dyn WorkSource>),
            ..RunConfig::default()
        };
        let result = c
            .run(threads, &config, &NullObserver)
            .unwrap_or_else(|e| panic!("claim-driven run failed under {label}: {e}"));
        assert_eq!(
            result.records, reference.records,
            "records diverged under {label}"
        );
        assert_eq!(
            result.metrics, reference.metrics,
            "metrics diverged under {label}"
        );
        let _ = std::fs::remove_dir_all(&claim_dir);
    }
}

/// A claim worker's stats count the experiments it ran, not the plan of
/// every pending experiment: a second worker on a ledger the first one
/// drained claims nothing and reports no runs.
#[test]
fn claim_worker_stats_count_only_what_it_ran() {
    for mode in [
        ExecutionMode::FromScratch,
        ExecutionMode::PrefixFork,
        ExecutionMode::SnapshotDag,
    ] {
        let claim_dir = tmp_path(&format!("stats-{mode:?}-claims"));
        let runs = |worker: &str| {
            let c = campaign();
            let config = RunConfig {
                mode,
                work: Some(Arc::new(claim_source(&claim_dir, &c, worker)) as Arc<dyn WorkSource>),
                ..RunConfig::default()
            };
            // One thread: with test-speed stealing, a second thread of the
            // same worker would steal and re-run its sibling's unit.
            let stats = c
                .run(1, &config, &NullObserver)
                .unwrap_or_else(|e| panic!("{worker} failed under {mode:?}: {e}"))
                .stats;
            stats.forked_runs + stats.scratch_runs + stats.chain_forked_runs
        };
        assert_eq!(runs("first"), 8, "first worker under {mode:?}");
        assert_eq!(runs("second"), 0, "second worker under {mode:?}");
        let _ = std::fs::remove_dir_all(&claim_dir);
    }
}

/// Claim-driven execution refuses a mis-sized or foreign ledger: the
/// meta check makes workers of different campaigns (or disagreeing unit
/// geometries) fail fast instead of corrupting the claim protocol.
#[test]
fn ledger_meta_mismatch_fails_fast() {
    let claim_dir = tmp_path("meta-claims");
    let c = campaign();
    let _first = claim_source(&claim_dir, &c, "a");
    // Different unit size → geometry mismatch.
    let err = ClaimSource::for_campaign(&claim_dir, &c, "b", Some(4), 3).unwrap_err();
    assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&claim_dir);
}
