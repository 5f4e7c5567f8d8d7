//! Cross-crate determinism contract for the hot-path spatial indexes:
//! a campaign's `metrics.json` artifact must come out byte-identical
//! whether the engine runs on the grid fan-out + indexed leader lookup or
//! on the retained brute-force scans — at every worker-thread count and
//! in both execution modes.

use comfase::prelude::*;
use comfase_des::time::SimTime;

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

fn metrics_campaign(indexing: IndexingMode) -> Campaign {
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
        .with_indexing(indexing)
}

fn metrics_bytes(indexing: IndexingMode, threads: usize, mode: ExecutionMode) -> Vec<u8> {
    metrics_campaign(indexing)
        .run_with_observer(threads, mode, &NullObserver)
        .expect("the campaign runs")
        .metrics
        .expect("telemetry was enabled")
        .to_json_bytes()
}

/// The full matrix: indexing substrate × execution mode × thread count.
/// One reference artifact, seventeen runs that must reproduce it exactly.
#[test]
fn metrics_identical_across_indexing_modes_threads_and_execution_modes() {
    let reference = metrics_bytes(IndexingMode::Indexed, 1, ExecutionMode::FromScratch);
    assert!(!reference.is_empty());
    for indexing in [IndexingMode::Indexed, IndexingMode::BruteForce] {
        for mode in [
            ExecutionMode::FromScratch,
            ExecutionMode::PrefixFork,
            ExecutionMode::SnapshotDag,
        ] {
            for threads in [1usize, 4, 8] {
                if indexing == IndexingMode::Indexed
                    && mode == ExecutionMode::FromScratch
                    && threads == 1
                {
                    continue;
                }
                let bytes = metrics_bytes(indexing, threads, mode);
                assert_eq!(
                    bytes, reference,
                    "metrics.json diverged under {indexing:?} / {mode:?} / {threads} thread(s)"
                );
            }
        }
    }
}

/// The golden run itself (not just campaign aggregates) is bit-identical
/// across indexing substrates when telemetry is off — the substrate may
/// only change *how* neighbors are found, never *which* are found.
#[test]
fn golden_run_log_identical_across_indexing_modes() {
    let engine = |indexing| {
        Engine::new(quick_scenario(25), CommModel::paper_default(), 42)
            .unwrap()
            .with_indexing(indexing)
    };
    let indexed = engine(IndexingMode::Indexed).golden_run().unwrap();
    let brute = engine(IndexingMode::BruteForce).golden_run().unwrap();
    assert_eq!(indexed, brute);
}
