//! Integration tests for fault-tolerant campaign execution: panic
//! isolation, the deterministic event-budget watchdog, quarantine, and
//! checkpointing to the append-only journal, which a later run on the
//! same path continues.
//!
//! The budget tests self-calibrate: they run the campaign once without a
//! budget, read each experiment's `kernel.delivered` from the metrics
//! artifact (the exact counter the watchdog checks), and pick a limit
//! below the heaviest experiment. That keeps the assertions valid as the
//! simulation stack evolves — no magic event counts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use comfase::campaign::WorkSource;
use comfase::prelude::*;
use comfase_des::time::SimTime;
use comfase_dist::{merge_journals, ClaimSource};

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

/// An 8-experiment delay campaign with telemetry on (the same shape the
/// observability suite uses).
fn supervised_campaign() -> Campaign {
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

/// Per-experiment delivered-event totals from an unconstrained run —
/// the calibration data for the budget tests.
fn delivered_per_experiment() -> Vec<(usize, u64)> {
    let metrics = supervised_campaign()
        .run_with_observer(2, ExecutionMode::FromScratch, &NullObserver)
        .expect("the unconstrained campaign runs")
        .metrics
        .expect("telemetry was enabled");
    metrics
        .per_experiment
        .iter()
        .map(|row| (row.index, row.kernel.delivered))
        .collect()
}

/// A journal path in the system temp dir, unique per test process, with
/// any stale copy removed.
fn tmp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "comfase-robustness-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A run config journaling to `path`, continuing the journal already
/// there.
fn journal_config(path: &Path) -> RunConfig {
    RunConfig {
        journal: Some(path.to_path_buf()),
        ..RunConfig::default()
    }
}

/// A claim-driven run config over the ledger in `claim_dir` (units of 3
/// experiments, 1 ms scans, stealing after 3 stalled rounds), journaling
/// to `journal`.
fn claim_config(claim_dir: &Path, journal: &Path, campaign: &Campaign) -> RunConfig {
    RunConfig {
        work: Some(Arc::new(
            ClaimSource::for_campaign(claim_dir, campaign, "worker", Some(3), 3)
                .expect("the claim dir is usable")
                .with_scan_interval(Duration::from_millis(1)),
        ) as Arc<dyn WorkSource>),
        ..journal_config(journal)
    }
}

fn quarantine_config(mode: ExecutionMode) -> RunConfig {
    RunConfig {
        mode,
        failure_policy: FailurePolicy::quarantine(),
        ..RunConfig::default()
    }
}

/// Acceptance: a campaign containing a panicking experiment and a
/// budget-exceeding experiment still completes under quarantine, and the
/// failure report carries structured kinds for both.
#[test]
fn panicking_and_budget_exceeding_experiments_are_quarantined() {
    let delivered = delivered_per_experiment();
    let total = delivered.len();
    assert_eq!(total, 8);
    let (heaviest, max_delivered) = *delivered.iter().max_by_key(|(_, d)| *d).unwrap();
    // Panic on some experiment other than the heaviest, so the budget
    // failure and the panic land on distinct indices.
    let panic_index = (heaviest + 1) % total;

    let campaign = supervised_campaign()
        .with_chaos(ChaosConfig {
            panic_on: vec![panic_index],
            ..ChaosConfig::default()
        })
        .with_budget(EventBudget {
            max_delivered: Some(max_delivered - 1),
            ..EventBudget::UNLIMITED
        });
    let result = campaign
        .run(
            4,
            &quarantine_config(ExecutionMode::PrefixFork),
            &NullObserver,
        )
        .unwrap();

    assert_eq!(
        result.records.len() + result.failures.len(),
        total,
        "every experiment either completed or was quarantined: {:?}",
        result.failure_summary()
    );
    let panic_failure = result
        .failures
        .iter()
        .find(|f| f.index == panic_index)
        .expect("chaos panic was quarantined");
    assert_eq!(panic_failure.kind, FailureKind::Panicked);
    assert!(
        panic_failure.payload.contains("injected panic"),
        "{panic_failure:?}"
    );
    let budget_failure = result
        .failures
        .iter()
        .find(|f| f.index == heaviest)
        .expect("heaviest experiment exceeded the budget");
    assert_eq!(budget_failure.kind, FailureKind::BudgetExceeded);
    assert!(result.failure_summary().contains_key("panicked"));
    assert!(result.failure_summary().contains_key("budget-exceeded"));
    // Everything that is neither panicked nor over budget completed.
    assert!(!result.records.is_empty());
}

/// The event-budget watchdog is deterministic: the same experiments fail
/// with the same structured failures on every thread count and in every
/// execution mode — including `SnapshotDag`, where the breach may surface
/// while advancing a shared attack chain.
#[test]
fn budget_failures_identical_across_modes_and_threads() {
    let delivered = delivered_per_experiment();
    let max_delivered = delivered.iter().map(|(_, d)| *d).max().unwrap();
    let budget = EventBudget {
        max_delivered: Some(max_delivered - 1),
        ..EventBudget::UNLIMITED
    };

    let run = |threads: usize, mode: ExecutionMode| {
        supervised_campaign()
            .with_budget(budget)
            .run(threads, &quarantine_config(mode), &NullObserver)
            .unwrap()
    };

    let reference = run(1, ExecutionMode::FromScratch);
    assert!(
        !reference.failures.is_empty(),
        "the heaviest experiment must exceed the budget"
    );
    for failure in &reference.failures {
        assert_eq!(failure.kind, FailureKind::BudgetExceeded, "{failure:?}");
        assert_eq!(failure.attempts, 1, "budget breaches are not retried");
    }
    for threads in [1, 4, 8] {
        for mode in [
            ExecutionMode::FromScratch,
            ExecutionMode::PrefixFork,
            ExecutionMode::SnapshotDag,
        ] {
            let other = run(threads, mode);
            assert_eq!(
                other.failures, reference.failures,
                "failures diverged at {threads} thread(s) under {mode:?}"
            );
            assert_eq!(
                other.records, reference.records,
                "records diverged at {threads} thread(s) under {mode:?}"
            );
        }
    }
}

/// The journal records the full campaign: a header pinning the campaign
/// identity plus one completed entry per experiment, and continuing a
/// complete journal reproduces the metrics artifact byte for byte.
#[test]
fn journal_records_a_full_campaign_and_resumes_from_it() {
    let path = tmp_journal("full");
    let campaign = supervised_campaign();
    let reference = campaign
        .run(4, &journal_config(&path), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();

    let state = read_journal(&path).unwrap();
    let header = state.header.clone().expect("journal has a header");
    assert_eq!(header.schema_version, 2);
    assert_eq!(header.seed, 42);
    assert_eq!(header.total, 8);
    assert_eq!(&header.setup, campaign.setup());
    assert_eq!(header.fingerprint, campaign.fingerprint().unwrap());
    assert!(
        state.golden.is_some(),
        "a telemetry-enabled journal carries the golden metrics row"
    );
    assert_eq!(state.completed.len(), 8);
    assert!(state.failures.is_empty());

    // Continuing the complete journal re-runs nothing and still hands
    // back the identical artifact.
    let resumed = campaign
        .run(4, &journal_config(&path), &NullObserver)
        .unwrap();
    assert_eq!(resumed.records, reference.records);
    assert_eq!(
        resumed.metrics.as_ref().unwrap().to_json_bytes(),
        reference_bytes
    );
    let _ = std::fs::remove_file(&path);
}

/// Continuing after an interruption — journal truncated mid-campaign
/// with a torn final line, as a SIGKILL mid-write leaves it — produces
/// records and a metrics artifact byte-identical to the uninterrupted
/// run's, in every execution mode and at 1/4/8 worker threads.
#[test]
fn resume_after_truncation_is_byte_identical() {
    let reference_path = tmp_journal("reference");
    let campaign = supervised_campaign();
    let reference = campaign
        .run(4, &journal_config(&reference_path), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();

    // Keep the header, the golden row and the first three completed
    // experiments, then a torn final line: the on-disk state after
    // killing the process.
    let full = std::fs::read_to_string(&reference_path).unwrap();
    let kept: Vec<&str> = full.lines().take(5).collect();
    let mut truncated = kept.join("\n");
    truncated.push('\n');
    truncated.push_str("{\"entry\":\"completed\",\"ind");

    for threads in [1, 4, 8] {
        for mode in [
            ExecutionMode::FromScratch,
            ExecutionMode::PrefixFork,
            ExecutionMode::SnapshotDag,
        ] {
            let path = tmp_journal("truncated");
            std::fs::write(&path, &truncated).unwrap();
            let config = RunConfig {
                mode,
                ..journal_config(&path)
            };
            let resumed = campaign.run(threads, &config, &NullObserver).unwrap();
            assert_eq!(
                resumed.records, reference.records,
                "records diverged at {threads} thread(s) under {mode:?}"
            );
            assert_eq!(
                resumed.metrics.as_ref().unwrap().to_json_bytes(),
                reference_bytes,
                "metrics artifact diverged at {threads} thread(s) under {mode:?}"
            );
            // After the continued run, the journal accounts for everything.
            let state = read_journal(&path).unwrap();
            assert_eq!(state.completed.len(), 8);
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_file(&reference_path);
}

/// A journal from a different campaign (wrong seed) is refused, instead
/// of being overwritten or continued with foreign results.
#[test]
fn resume_rejects_a_foreign_journal() {
    let path = tmp_journal("foreign");
    let campaign = supervised_campaign();
    campaign
        .run(2, &journal_config(&path), &NullObserver)
        .unwrap();
    let journaled = std::fs::read(&path).unwrap();

    let setup = campaign.setup().clone();
    let other_engine = Engine::new(quick_scenario(30), CommModel::paper_default(), 43).unwrap();
    let other = Campaign::new(other_engine, setup)
        .unwrap()
        .with_obs(ObsConfig::metrics_only());
    let err = other
        .run(2, &journal_config(&path), &NullObserver)
        .unwrap_err();
    assert!(
        matches!(err, ComfaseError::InvalidConfig(_)),
        "foreign journal must be an InvalidConfig error, got {err:?}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journaled,
        "a refused journal is left as it was"
    );
    let _ = std::fs::remove_file(&path);
}

/// A journal whose pre-fingerprint identity fields all match (same seed,
/// same experiment count, same setup) but whose underlying configuration
/// changed — here the traffic scenario — is refused: only the canonical
/// full-config fingerprint can catch this class of mismatch.
#[test]
fn resume_rejects_a_mutated_configuration() {
    let path = tmp_journal("mutated-config");
    let campaign = supervised_campaign();
    campaign
        .run(2, &journal_config(&path), &NullObserver)
        .unwrap();

    let engine = Engine::new(quick_scenario(31), CommModel::paper_default(), 42).unwrap();
    let mutated = Campaign::new(engine, campaign.setup().clone())
        .unwrap()
        .with_obs(ObsConfig::metrics_only());
    assert_ne!(
        mutated.fingerprint().unwrap(),
        campaign.fingerprint().unwrap(),
        "the scenario change must move the fingerprint"
    );
    let err = mutated
        .run(2, &journal_config(&path), &NullObserver)
        .unwrap_err();
    assert!(
        matches!(err, ComfaseError::InvalidConfig(_)),
        "mutated config must be an InvalidConfig error, got {err:?}"
    );
    assert!(
        err.to_string().contains("fingerprint"),
        "the error should name the fingerprint mismatch: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Kill-and-restart of a claim worker end to end: the worker dies
/// mid-unit — its journal ends in a torn line, as a SIGKILL mid-write
/// leaves it, and its lease is left with a frozen heartbeat — so merging
/// its journal refuses loudly; restarting it on the same journal and
/// ledger continues the journal and steals its own stalled unit back, and
/// the merged artifact is byte-identical to the single-process run's.
#[test]
fn killed_claim_worker_resumes_and_merges_byte_identically() {
    let reference = supervised_campaign()
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();

    let claim_dir = std::env::temp_dir().join(format!(
        "comfase-robustness-{}-killed-claims",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&claim_dir);
    let journal = tmp_journal("killed-worker");
    // Units of 3 experiments: [0,3), [3,6), [6,8). The first life dies
    // on experiment 4, with unit 0 done and unit 1 half journaled.
    let config = |campaign: &Campaign| claim_config(&claim_dir, &journal, campaign);
    let first_life = supervised_campaign().with_chaos(ChaosConfig {
        fail_on: vec![4],
        ..ChaosConfig::default()
    });
    first_life
        .run(1, &config(&first_life), &NullObserver)
        .expect_err("the chaos kill must abort the first life");
    let mut torn = std::fs::read_to_string(&journal).unwrap();
    torn.push_str("{\"entry\":\"completed\",\"ind");
    std::fs::write(&journal, &torn).unwrap();

    // Merging the incomplete journal refuses instead of producing a
    // partial artifact.
    let failure = merge_journals(std::slice::from_ref(&journal)).unwrap_err();
    assert!(
        matches!(failure.error, ComfaseError::InvalidConfig(_)),
        "incomplete coverage must be an InvalidConfig error, got {failure:?}"
    );

    // The restarted worker continues its journal and drains the ledger.
    let second_life = supervised_campaign();
    second_life
        .run(2, &config(&second_life), &NullObserver)
        .unwrap();
    let merged = merge_journals(std::slice::from_ref(&journal)).unwrap();
    assert_eq!(
        merged.to_json_bytes(),
        reference_bytes,
        "the restarted worker's journal must merge byte-identically"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&claim_dir);
}

/// A claim worker restarted after it finished keeps its journaled rows:
/// the first life drains the ledger alone, and a second life on the same
/// journal and ledger finds no work, simulates nothing and leaves the
/// journal as it was, so the journal still merges into the single-process
/// artifact.
#[test]
fn a_restarted_claim_worker_keeps_its_journaled_rows() {
    let reference = supervised_campaign()
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();

    let claim_dir = std::env::temp_dir().join(format!(
        "comfase-robustness-{}-restarted-claims",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&claim_dir);
    let journal = tmp_journal("restarted-worker");
    let config = |campaign: &Campaign| claim_config(&claim_dir, &journal, campaign);
    let first_life = supervised_campaign();
    first_life
        .run(1, &config(&first_life), &NullObserver)
        .unwrap();
    let journaled = std::fs::read(&journal).unwrap();

    let second_life = supervised_campaign();
    let result = second_life
        .run(1, &config(&second_life), &NullObserver)
        .unwrap();
    let stats = result.stats;
    assert_eq!(
        stats.forked_runs + stats.scratch_runs + stats.chain_forked_runs,
        0,
        "the second life finds the ledger drained and simulates nothing"
    );
    let merged = merge_journals(std::slice::from_ref(&journal))
        .unwrap_or_else(|e| panic!("the journal no longer merges: {e}"));
    assert_eq!(merged.to_json_bytes(), reference_bytes);
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        journaled,
        "the second life keeps the journal as it was"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&claim_dir);
}

/// Every state a kill can leave a journal in continues to the
/// uninterrupted bytes: an empty file, and the complete journal cut at
/// each line end and one byte short of it (a torn line). Cuts inside the
/// header start a fresh journal; a cut after the header and before the
/// golden row gets the golden row appended. The continued run's artifact
/// and the merge of its journal both equal the uninterrupted run's.
#[test]
fn every_cut_of_a_journal_continues_to_the_same_bytes() {
    let campaign = supervised_campaign();
    let reference_path = tmp_journal("cut-reference");
    let reference = campaign
        .run(2, &journal_config(&reference_path), &NullObserver)
        .unwrap();
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();
    let full = std::fs::read(&reference_path).unwrap();
    let mut cuts = vec![0];
    for (at, _) in full.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        cuts.extend([at, at + 1]);
    }
    assert_eq!(cuts.len(), 1 + 2 * 10, "header, golden row and 8 rows");

    let path = tmp_journal("cut");
    for cut in cuts {
        std::fs::write(&path, &full[..cut]).unwrap();
        let continued = campaign
            .run(2, &journal_config(&path), &NullObserver)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        assert_eq!(
            continued.metrics.as_ref().unwrap().to_json_bytes(),
            reference_bytes,
            "cut at byte {cut}: the continued run's artifact"
        );
        let merged = merge_journals(std::slice::from_ref(&path))
            .unwrap_or_else(|e| panic!("cut at byte {cut}: merge: {e}"));
        assert_eq!(
            merged.to_json_bytes(),
            reference_bytes,
            "cut at byte {cut}: the merged journal"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&reference_path);
}

/// Panic isolation end to end: under the default abort policy a chaos
/// panic surfaces as a structured `WorkerFailed` error — not a poisoned
/// thread pool or an aborted process.
#[test]
fn abort_policy_surfaces_a_panic_as_worker_failed() {
    let campaign = supervised_campaign().with_chaos(ChaosConfig {
        panic_on: vec![3],
        ..ChaosConfig::default()
    });
    let err = campaign
        .run(4, &RunConfig::default(), &NullObserver)
        .unwrap_err();
    match err {
        ComfaseError::WorkerFailed(msg) => {
            assert!(msg.contains("injected panic"), "{msg}");
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}
