//! Results oracle: reproduced paper results pinned bit for bit.
//!
//! A performance or simplification change must not move a single verdict.
//! Every constant here is a committed seed-42 reference of the campaign
//! benchmark's correctness gate (`campaign-bench/src/gate.rs`), re-pinned
//! rather than invented: the golden run's maximum deceleration, the
//! paper's Table II DoS campaign, a subset of the Table II delay campaign
//! (the full grid is an ignored test, run in release), and a 16-car drop
//! campaign with telemetry on. All run in
//! [`ExecutionMode::SnapshotDag`] on two threads. The path-loss ablation
//! pins one golden run and one experiment per model, run directly on the
//! engine.
//!
//! The radio-path pins hash whole `RunLog`s (`comfase_json::to_string`):
//! the golden run with trace and dataset capture, the `jamming` example's
//! jammed run, and the teleoperation scenario over WAVE and over
//! cellular. The stride-8 pins hash the `metrics.json` and
//! `metrics_dos.json` bytes that `repro --delay-summary --dos-summary
//! --stride 8 --metrics` writes.

use comfase::campaign::CampaignResult;
use comfase::config::linspace_inclusive;
use comfase::fingerprint::fnv1a64;
use comfase::prelude::*;
use comfase::teleop::TELEOP_VEHICLE;
use comfase_des::time::{SimDuration, SimTime};

/// Engine seed of every reference.
const SEED: u64 = 42;
/// Worker threads of every campaign.
const THREADS: usize = 2;

/// FNV-1a 64 of the `metrics.json` bytes of the 16-car drop campaign.
const SIXTEEN_CAR_METRICS_FNV: u64 = 0xe0a9_6142_10d1_3ce7;

/// Verdicts per class, `[non-effective, negligible, benign, severe]`.
type Counts = [usize; 4];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn class_index(class: Classification) -> usize {
    match class {
        Classification::NonEffective => 0,
        Classification::Negligible => 1,
        Classification::Benign => 2,
        Classification::Severe => 3,
    }
}

/// Class counts and the FNV-1a 64 digest of every record in index order.
/// Each record folds its index, class, the bits of the maximum
/// deceleration and speed deviation, and the collision count.
fn outcome(result: &CampaignResult) -> (Counts, u64) {
    let mut counts = [0; 4];
    let mut digest = FNV_OFFSET;
    for r in &result.records {
        let v = &r.verdict;
        counts[class_index(v.class)] += 1;
        fnv1a(&mut digest, &(r.index as u64).to_le_bytes());
        fnv1a(&mut digest, &[class_index(v.class) as u8]);
        fnv1a(&mut digest, &v.max_decel_mps2.to_bits().to_le_bytes());
        fnv1a(
            &mut digest,
            &v.max_speed_deviation_mps.to_bits().to_le_bytes(),
        );
        fnv1a(&mut digest, &(v.nr_collisions as u64).to_le_bytes());
    }
    (counts, digest)
}

/// Runs `setup` on `engine`, checks it against a reference and returns
/// the result.
fn assert_campaign(
    engine: Engine,
    setup: AttackCampaignSetup,
    counts: Counts,
    digest: u64,
) -> CampaignResult {
    let campaign = Campaign::new(engine, setup).expect("valid campaign");
    let config = RunConfig {
        mode: ExecutionMode::SnapshotDag,
        ..RunConfig::default()
    };
    let result = campaign
        .run(THREADS, &config, &NullObserver)
        .expect("campaign runs");
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    let (got_counts, got_digest) = outcome(&result);
    assert_eq!(
        (got_counts, got_digest),
        (counts, digest),
        "counts {got_counts:?} digest {got_digest:#018x}"
    );
    result
}

/// Picks `vector[i]` for each index, keeping the paper's exact values.
fn pick(vector: &[f64], indices: &[usize]) -> Vec<f64> {
    indices.iter().map(|&i| vector[i]).collect()
}

#[test]
fn golden_max_deceleration_is_the_papers() {
    let golden = Engine::paper_default(SEED).unwrap().golden_run().unwrap();
    let max_decel = golden.trace.max_decel_overall();
    assert_eq!(format!("{max_decel:.3}"), "1.530");
    // 1.5301837473945312
    assert_eq!(max_decel.to_bits(), 0x3ff8_7ba1_f3fe_e240, "{max_decel:?}");
}

#[test]
fn table2_dos_campaign_is_pinned() {
    assert_campaign(
        Engine::paper_default(SEED).unwrap(),
        AttackCampaignSetup::paper_dos_campaign(),
        [0, 2, 0, 23],
        0x7645_7e6f_2755_40ae,
    );
}

/// PD {0.2, 1.2, 2.2} s × starts {17.0, 19.4, 21.8} s × all 30 durations.
#[test]
fn table2_delay_subset_is_pinned() {
    let mut setup = AttackCampaignSetup::paper_delay_campaign();
    setup.attack_values = pick(&setup.attack_values, &[0, 5, 10]);
    setup.attack_starts_s = pick(&setup.attack_starts_s, &[0, 12, 24]);
    assert_campaign(
        Engine::paper_default(SEED).unwrap(),
        setup,
        [0, 0, 168, 102],
        0xbef7_6232_560b_b3de,
    );
}

/// The full Table II delay grid, 11 250 experiments: the counts
/// EXPERIMENTS.md records.
#[test]
#[ignore = "full grid: run in release with --ignored"]
fn table2_full_delay_campaign_is_pinned() {
    assert_campaign(
        Engine::paper_default(SEED).unwrap(),
        AttackCampaignSetup::paper_delay_campaign(),
        [0, 21, 6262, 4967],
        0xa74e_15e4_c404_d14a,
    );
}

/// A 16-car platoon with telemetry on, beacons of vehicle 2 dropped with
/// probability 0.5 and 0.9 for 2 s from t = 17 s. Its `metrics.json`
/// bytes are pinned too: at 15 receivers per beacon every counter and
/// the received-power histogram see ~140 k links per experiment.
#[test]
fn sixteen_car_drop_campaign_is_pinned() {
    let mut scenario = TrafficScenario::paper_default();
    scenario.platoon.members = (1..=16).collect();
    let engine = Engine::new(scenario, CommModel::paper_default(), SEED)
        .unwrap()
        .with_obs(ObsConfig::metrics_only());
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Drop,
        target_vehicles: vec![2],
        attack_values: vec![0.5, 0.9],
        attack_starts_s: pick(&linspace_inclusive(17.0, 21.8, 0.2), &[0]),
        attack_durations_s: pick(&linspace_inclusive(1.0, 30.0, 1.0), &[1]),
    };
    let result = assert_campaign(engine, setup, [0, 0, 2, 0], 0xbb32_a870_1380_6da9);
    let bytes = result
        .metrics
        .expect("telemetry was enabled")
        .to_json_bytes();
    let hash = fnv1a64(&bytes);
    assert_eq!(
        hash, SIXTEEN_CAR_METRICS_FNV,
        "metrics.json fnv1a64 {hash:#018x}"
    );
}

/// The path-loss ablation: at platooning distances free-space and
/// two-ray interference path loss give the same golden run and the same
/// verdict for a 2 s delay on vehicle 2 from 17 s to 37 s.
#[test]
fn free_space_and_two_ray_agree_at_platooning_distances() {
    for model in [
        WirelessModelKind::FreeSpace,
        WirelessModelKind::TwoRayInterference,
    ] {
        let mut comm = CommModel::paper_default();
        comm.wireless_model = model;
        let engine = Engine::new(TrafficScenario::paper_default(), comm, SEED).unwrap();
        let golden = engine.golden_run().unwrap();
        let max_decel = golden.trace.max_decel_overall();
        assert_eq!(
            max_decel.to_bits(),
            0x3ff8_7ba1_f3fe_e240,
            "{model:?}: golden {max_decel:?}"
        );
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 2.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(37),
        };
        let run = engine.run_experiment(&attack, 0).unwrap();
        let v = engine.classify_experiment(&golden, &run);
        assert_eq!(v.class, Classification::Severe, "{model:?}: {v:?}");
        // 1.6145892411760343
        assert_eq!(
            v.max_decel_mps2.to_bits(),
            0x3ff9_d55b_8735_3140,
            "{model:?}: {v:?}"
        );
        assert_eq!(v.nr_collisions, 1, "{model:?}: {v:?}");
    }
}

/// FNV-1a 64 of a run log's JSON bytes.
fn run_log_fnv(log: &RunLog) -> u64 {
    fnv1a64(comfase_json::to_string(log).as_bytes())
}

/// Asserts a run log's JSON digest.
fn assert_run_log(what: &str, log: &RunLog, expected: u64) {
    let hash = run_log_fnv(log);
    assert_eq!(hash, expected, "{what}: RunLog fnv1a64 {hash:#018x}");
}

/// The golden run with counters, trace marks and dataset capture on:
/// `phy.tx.frames`, the tx/rx trace marks, the received-power histogram
/// and one `FrameFate` row per decided link.
#[test]
fn golden_run_log_with_trace_and_dataset_is_pinned() {
    let mut world = World::with_obs(
        &TrafficScenario::paper_default(),
        &CommModel::paper_default(),
        SEED,
        ObsConfig::with_trace().with_dataset(),
    )
    .unwrap();
    world.run_to_end();
    let log = world.into_log();
    assert!(log.obs.dataset.as_ref().is_some_and(|d| !d.is_empty()));
    assert_run_log("golden", &log, 0x259d_2a81_8e31_6f23);
}

/// The `jamming` example's jammed run, with telemetry on: the jammer's
/// raw transmissions and the frames planned to the jammer node
/// (`phy.rx.inactive`).
#[test]
fn jammed_run_log_is_pinned() {
    let mut world = World::with_obs(
        &TrafficScenario::paper_default(),
        &CommModel::paper_default(),
        SEED,
        ObsConfig::with_trace().with_dataset(),
    )
    .unwrap();
    world.add_jammer(JammerSpec {
        pos_x_m: 980.0,
        pos_y_m: 12.0,
        period: SimDuration::from_micros(500),
        payload_bytes: 150,
        start: SimTime::from_secs(17),
        end: SimTime::from_secs(27),
    });
    world.run_to_end();
    let log = world.into_log();
    assert!(log.obs.counter("phy.rx.inactive") > 0);
    assert_run_log("jammed", &log, 0x884b_6104_59f3_23f0);
}

/// Runs the teleoperation scenario with an optional attack, the way the
/// `teleoperation` example does.
fn teleop_log(scenario: &TeleopScenario, seed: u64, attack: Option<AttackSpec>) -> RunLog {
    let mut world = TeleopWorld::new(scenario, seed).expect("valid scenario");
    if let Some(attack) = attack {
        world.run_until(attack.start);
        world.install_attack(attack.build_interceptor(0));
        world.run_until(attack.end);
        world.clear_attack();
    }
    world.run_to_end();
    world.into_log()
}

/// Attack on the teleoperated vehicle's frames.
fn teleop_attack(model: AttackModelKind, value: f64, start_s: i64) -> AttackSpec {
    AttackSpec {
        model,
        value,
        targets: vec![TELEOP_VEHICLE].into(),
        start: SimTime::from_secs(start_s),
        end: SimTime::from_secs(60),
    }
}

/// Teleoperation over 802.11p: healthy, DoS on the vehicle from 20 s,
/// and a 2 s uplink delay that crashes with frames still in flight.
#[test]
fn teleop_wave_run_logs_are_pinned() {
    let scenario = TeleopScenario::highway_default();
    let healthy = teleop_log(&scenario, 7, None);
    assert!(!healthy.has_collision());
    assert_run_log("wave healthy", &healthy, 0xa57f_8bf9_8a97_a656);
    let dos = teleop_log(
        &scenario,
        7,
        Some(teleop_attack(AttackModelKind::Dos, 60.0, 20)),
    );
    assert!(dos.has_collision());
    assert_run_log("wave DoS", &dos, 0xf889_36a7_0997_e45a);
    let delayed = teleop_log(
        &scenario,
        3,
        Some(teleop_attack(AttackModelKind::Delay, 2.0, 0)),
    );
    assert!(delayed.has_collision());
    assert_run_log("wave 2 s delay", &delayed, 0x3671_a31f_9413_268b);
}

/// Teleoperation over the cellular bearer: healthy and DoS.
#[test]
fn teleop_cellular_run_logs_are_pinned() {
    let scenario = TeleopScenario::highway_cellular();
    let healthy = teleop_log(&scenario, 7, None);
    assert!(!healthy.has_collision());
    assert_run_log("cellular healthy", &healthy, 0x8b9c_9190_89b2_83a2);
    let dos = teleop_log(
        &scenario,
        7,
        Some(teleop_attack(AttackModelKind::Dos, 60.0, 20)),
    );
    assert!(dos.has_collision());
    assert_run_log("cellular DoS", &dos, 0x3c72_4ef3_3dfc_49df);
}

/// Runs a campaign with counters on and returns the FNV-1a 64 of its
/// `metrics.json` bytes.
fn campaign_metrics_fnv(setup: AttackCampaignSetup) -> u64 {
    let engine = Engine::paper_default(SEED)
        .expect("paper presets are valid")
        .with_obs(ObsConfig::metrics_only());
    let result = Campaign::new(engine, setup)
        .expect("valid campaign")
        .run(THREADS, &RunConfig::default(), &NullObserver)
        .expect("campaign runs");
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    fnv1a64(
        &result
            .metrics
            .expect("telemetry was enabled")
            .to_json_bytes(),
    )
}

/// The stride-8 delay grid (32 experiments: every 8th value, start and
/// duration, as `repro --stride 8` subsamples) and the 25-experiment DoS
/// campaign: the `metrics.json` and `metrics_dos.json` bytes.
#[test]
fn stride8_campaign_metrics_are_pinned() {
    let mut setup = AttackCampaignSetup::paper_delay_campaign();
    for v in [
        &mut setup.attack_values,
        &mut setup.attack_starts_s,
        &mut setup.attack_durations_s,
    ] {
        *v = v.iter().step_by(8).copied().collect();
    }
    let delay = campaign_metrics_fnv(setup);
    assert_eq!(
        delay, 0x5afb_e524_0634_a081,
        "metrics.json fnv1a64 {delay:#018x}"
    );
    let dos = campaign_metrics_fnv(AttackCampaignSetup::paper_dos_campaign());
    assert_eq!(
        dos, 0x1d0f_4630_9211_aa9a,
        "metrics_dos.json fnv1a64 {dos:#018x}"
    );
}
