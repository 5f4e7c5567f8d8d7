//! Integration tests for the observability subsystem (`comfase-obs`):
//! the deterministic `metrics.json` artifact and the frame-accounting
//! identity, exercised through the full engine/campaign stack.

use std::sync::{Arc, Mutex};

use comfase::prelude::*;
use comfase_des::time::{SimDuration, SimTime};
use comfase_dist::DiskCache;

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

fn metrics_campaign() -> Campaign {
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

fn run_metrics(threads: usize, mode: ExecutionMode) -> CampaignMetrics {
    metrics_campaign()
        .run_with_observer(threads, mode, &NullObserver)
        .expect("the campaign runs")
        .metrics
        .expect("telemetry was enabled")
}

/// The campaign-level metrics artifact is part of the deterministic
/// contract: fork-from-prefix execution and from-scratch execution must
/// produce the same values, at any worker-thread count.
#[test]
fn campaign_metrics_identical_across_modes_and_threads() {
    let reference = run_metrics(1, ExecutionMode::FromScratch);
    assert_eq!(reference.experiments, 8);
    assert_eq!(
        reference.aggregate.verdicts.values().sum::<u64>(),
        8,
        "{reference:?}"
    );
    for threads in [1, 4, 8] {
        let forked = run_metrics(threads, ExecutionMode::PrefixFork);
        assert_eq!(
            forked, reference,
            "metrics diverged at {threads} thread(s) under PrefixFork"
        );
        let dag = run_metrics(threads, ExecutionMode::SnapshotDag);
        assert_eq!(
            dag, reference,
            "metrics diverged at {threads} thread(s) under SnapshotDag"
        );
    }
    let scratch4 = run_metrics(4, ExecutionMode::FromScratch);
    assert_eq!(scratch4, reference);
}

/// Stronger than struct equality: the serialized artifact written to
/// `results/metrics.json` is byte-for-byte identical across modes.
#[test]
fn metrics_json_bytes_identical_across_modes() {
    let scratch = run_metrics(1, ExecutionMode::FromScratch).to_json_bytes();
    let forked = run_metrics(8, ExecutionMode::PrefixFork).to_json_bytes();
    let dag = run_metrics(8, ExecutionMode::SnapshotDag).to_json_bytes();
    assert_eq!(scratch, forked);
    assert_eq!(
        scratch, dag,
        "SnapshotDag artifact must match byte-for-byte"
    );
    assert_eq!(
        scratch.last(),
        Some(&b'\n'),
        "artifact is newline-terminated"
    );
}

/// Every planned link is attributed to exactly one fate when telemetry is
/// on: `links_planned == received + lost_snir + lost_sensitivity +
/// rx_inactive + in_flight_at_end`. A jammer makes the normally-zero
/// terms non-trivial — SNIR losses from collisions and `rx_inactive` from
/// links planned toward the jammer's own never-decoding radio.
#[test]
fn drop_causes_sum_to_frames_not_delivered() {
    let scenario = quick_scenario(10);
    let mut world = World::with_obs(
        &scenario,
        &CommModel::paper_default(),
        1,
        ObsConfig::metrics_only(),
    )
    .unwrap();
    world.add_jammer(JammerSpec {
        pos_x_m: 490.0,
        pos_y_m: 10.0,
        period: SimDuration::from_micros(300),
        payload_bytes: 200,
        start: SimTime::from_secs(2),
        end: SimTime::from_secs(10),
    });
    world.run_to_end();
    let log = world.into_log();

    let f = log.frame_breakdown();
    assert!(f.links_planned > 0, "{f:?}");
    assert!(f.lost_snir > 0, "jammer must cause SNIR losses: {f:?}");
    assert!(
        f.rx_inactive > 0,
        "links planned toward the jammer radio count as rx_inactive: {f:?}"
    );
    assert_eq!(
        f.links_planned,
        f.received + f.lost_snir + f.lost_sensitivity + f.rx_inactive + f.in_flight_at_end,
        "accounting identity: {f:?}"
    );
    assert_eq!(
        f.not_delivered(),
        f.lost_snir + f.lost_sensitivity + f.rx_inactive + f.in_flight_at_end,
        "{f:?}"
    );

    // The obs counters agree with the channel's own bookkeeping. The
    // jammer bypasses the MAC, so vehicle transmissions ("phy.tx.frames")
    // plus one junk frame per dispatched jammer event cover everything
    // the channel counted.
    assert_eq!(log.obs.counter("phy.rx.ok"), log.channel.received);
    assert_eq!(
        log.obs.counter("phy.rx.lost"),
        log.channel.lost_snir + log.channel.lost_sensitivity
    );
    let jammer_frames = log.obs.counter("kernel.dispatch.jammer_tx");
    assert!(jammer_frames > 0);
    assert_eq!(
        log.obs.counter("phy.tx.frames") + jammer_frames,
        log.channel.transmissions
    );
}

/// Telemetry is opt-in: the default (disabled) recorder records nothing and
/// the campaign result carries no metrics block.
#[test]
fn telemetry_disabled_by_default() {
    let engine = Engine::new(quick_scenario(5), CommModel::paper_default(), 42).unwrap();
    let golden = engine.golden_run().unwrap();
    assert!(golden.obs.is_empty(), "{:?}", golden.obs);

    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4],
        attack_starts_s: vec![2.0],
        attack_durations_s: vec![1.0],
    };
    let campaign = Campaign::new(
        Engine::new(quick_scenario(5), CommModel::paper_default(), 42).unwrap(),
        setup,
    )
    .unwrap();
    let result = campaign
        .run(2, &RunConfig::default(), &NullObserver)
        .unwrap();
    assert!(result.metrics.is_none());
}

/// Event tracing captures tx/rx marks with sim timestamps and renders a
/// chrome://tracing-loadable JSON document.
#[test]
fn golden_run_event_trace_renders() {
    let engine = Engine::new(quick_scenario(5), CommModel::paper_default(), 42)
        .unwrap()
        .with_obs(ObsConfig::with_trace());
    let golden = engine.golden_run().unwrap();
    assert!(!golden.obs.events.is_empty());
    // No jammer here, so the MAC-level tx counter covers every frame the
    // channel put on the air.
    assert_eq!(
        golden.obs.counter("phy.tx.frames"),
        golden.channel.transmissions
    );
    let json = chrome_trace_json(&golden.obs.events);
    assert!(json.starts_with('{'), "object-form trace document");
    assert!(json.contains("\"traceEvents\":["), "trace events array");
    assert!(json.contains("\"ph\":\"B\""), "begin events present");
    assert!(json.contains("\"ph\":\"i\""), "instant events present");
}

/// Records every phase hook, in call order.
#[derive(Default)]
struct PhaseLog(Mutex<Vec<(CampaignPhase, bool)>>);

impl CampaignObserver for PhaseLog {
    fn phase_started(&self, phase: CampaignPhase) {
        self.0.lock().expect("phase log lock").push((phase, true));
    }

    fn phase_finished(&self, phase: CampaignPhase) {
        self.0.lock().expect("phase log lock").push((phase, false));
    }
}

/// Each of the six phase hooks fires once, in order, in every mode: on a
/// fresh run (one experiment quarantined), on a run that continues its
/// journal (which re-runs that experiment) and on a fully cached run.
/// campaign-bench times its gated `setup_s` as the Golden plus the
/// Prefixes bracket.
#[test]
fn phase_hooks_bracket_each_phase_once_in_order() {
    use CampaignPhase::{Experiments, Golden, Prefixes};
    let expected = [
        (Golden, true),
        (Golden, false),
        (Prefixes, true),
        (Prefixes, false),
        (Experiments, true),
        (Experiments, false),
    ];
    let dir = std::env::temp_dir().join(format!("comfase-phases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for mode in [
        ExecutionMode::FromScratch,
        ExecutionMode::PrefixFork,
        ExecutionMode::SnapshotDag,
    ] {
        let cache = DiskCache::create(dir.join(format!("{mode:?}-cache")))
            .expect("the cache dir is usable");
        let cache: Arc<dyn ExperimentCache> = Arc::new(cache);
        let fresh = RunConfig {
            mode,
            failure_policy: FailurePolicy::quarantine(),
            journal: Some(dir.join(format!("{mode:?}.journal"))),
            cache: Some(Arc::clone(&cache)),
            ..RunConfig::default()
        };
        let cached = RunConfig {
            mode,
            cache: Some(cache),
            ..RunConfig::default()
        };
        let quarantined = metrics_campaign().with_chaos(ChaosConfig {
            fail_on: vec![5],
            ..ChaosConfig::default()
        });
        // (label, campaign, config, cache hits)
        for (label, campaign, config, hits) in [
            ("fresh", quarantined, fresh.clone(), 0),
            ("continued", metrics_campaign(), fresh, 0),
            ("cached", metrics_campaign(), cached, 8),
        ] {
            let log = PhaseLog::default();
            let result = campaign
                .run(2, &config, &log)
                .unwrap_or_else(|e| panic!("{label} run under {mode:?} failed: {e}"));
            assert_eq!(result.stats.cache_hits, hits, "{label} run under {mode:?}");
            let phases = log.0.into_inner().expect("phase log lock");
            assert_eq!(phases, expected, "{label} run under {mode:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
