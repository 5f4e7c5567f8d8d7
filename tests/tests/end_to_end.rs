//! End-to-end integration tests across all ComFASE-RS crates: DES kernel,
//! traffic, wireless, platooning and the ComFASE engine together.

use comfase::analysis;
use comfase::prelude::*;
use comfase_des::time::{SimDuration, SimTime};
use comfase_traffic::VehicleId;

fn quick_scenario(secs: i64) -> TrafficScenario {
    let mut s = TrafficScenario::paper_default();
    s.total_sim_time = SimTime::from_secs(secs);
    s
}

fn engine(secs: i64) -> Engine {
    Engine::new(quick_scenario(secs), CommModel::paper_default(), 42)
        .expect("the test scenario is valid")
}

#[test]
fn full_pipeline_small_campaign() {
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 8.0],
    };
    let campaign = Campaign::new(engine(35), setup).unwrap();
    let result = campaign
        .run(2, &RunConfig::default(), &NullObserver)
        .unwrap();
    assert_eq!(result.len(), 8);

    // Analysis plumbing produces consistent totals.
    let summary = analysis::summary(&result.records);
    assert_eq!(summary.total(), 8);
    let by_dur = analysis::by_duration(&result.records);
    assert_eq!(by_dur.values().map(|c| c.total()).sum::<usize>(), 8);
    let by_val = analysis::by_value(&result.records);
    assert_eq!(by_val.len(), 2);
    let by_start = analysis::by_start_time(&result.records);
    assert_eq!(by_start.len(), 2);

    // The strong long attack must dominate the weak short one.
    let weak = &result.records[0]; // start 17.0, value 0.4, dur 2
    let strong = &result.records[3]; // start 17.0, value 1.6, dur 8
    assert!(strong.verdict.class >= weak.verdict.class, "{result:?}");
}

#[test]
fn golden_run_statistics_are_plausible() {
    let golden = engine(30).golden_run().unwrap();
    // All four vehicles traced over the full horizon at 100 Hz.
    assert_eq!(golden.trace.vehicle_ids().len(), 4);
    for (id, tr) in golden.trace.iter() {
        assert_eq!(tr.speed.len(), 3000, "{id} has wrong trace length");
        // Everyone keeps moving at highway speed.
        assert!(tr.speed.min_value().unwrap() > 20.0);
        assert!(tr.speed.max_value().unwrap() < 35.0);
    }
    // Radio actually worked: ~10 beacons/s/vehicle for 30 s, all received
    // by 3 peers within close range.
    assert!(golden.channel.transmissions >= 4 * 280);
    assert!(
        golden.channel.received > golden.channel.transmissions,
        "broadcast fan-out"
    );
    assert_eq!(golden.channel.links_dropped_by_interceptor, 0);
    assert_eq!(golden.channel.links_delay_modified, 0);
}

#[test]
fn delay_attack_changes_only_the_attack_window_onwards() {
    let e = engine(30);
    let golden = e.golden_run().unwrap();
    let attack = AttackSpec {
        model: AttackModelKind::Delay,
        value: 1.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(17),
        end: SimTime::from_secs(20),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    // Before the attack the two runs are bit-identical.
    for v in [1u32, 2, 3, 4] {
        let g = golden.trace.vehicle(VehicleId(v)).unwrap();
        let r = run.trace.vehicle(VehicleId(v)).unwrap();
        for t in [1.0, 5.0, 10.0, 16.9] {
            let st = SimTime::from_secs_f64(t);
            assert_eq!(
                g.speed.sample_at(st),
                r.speed.sample_at(st),
                "veh {v} diverged before the attack at {t}s"
            );
        }
    }
    // After it, vehicle 2 (or a follower) deviates.
    let verdict = e.classify_experiment(&golden, &run);
    assert!(verdict.max_speed_deviation_mps > 0.01, "{verdict:?}");
}

#[test]
fn dos_blocks_all_target_communication() {
    let e = engine(30);
    let attack = AttackSpec {
        model: AttackModelKind::Dos,
        value: 30.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(30),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    // Vehicle 3's predecessor knowledge froze at the attack start: its
    // app stops counting predecessor beacons after t=10 while leader
    // beacons keep arriving.
    let golden = e.golden_run().unwrap();
    let g3 = golden.comm[&3].app.beacons_used;
    let r3 = run.comm[&3].app.beacons_used;
    assert!(
        r3 < g3,
        "vehicle 3 should have received fewer beacons under DoS: {r3} vs {g3}"
    );
    // Vehicle 2 hears nothing at all after t=10: beacons used drops.
    assert!(run.comm[&2].app.beacons_used < golden.comm[&2].app.beacons_used);
}

#[test]
fn attacking_everyone_disables_the_whole_platoon_network() {
    let e = engine(30);
    let attack = AttackSpec {
        model: AttackModelKind::Dos,
        value: 30.0,
        targets: vec![1, 2, 3, 4].into(),
        start: SimTime::from_secs(5),
        end: SimTime::from_secs(30),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    // After t=5 nothing is delivered: roughly 4 vehicles * ~49 beacons
    // before the attack fan out to 3 receivers each.
    let golden = e.golden_run().unwrap();
    assert!(run.channel.received < golden.channel.received / 4);
}

#[test]
fn falsification_attack_perturbs_followers() {
    let e = engine(30);
    let golden = e.golden_run().unwrap();
    let attack = AttackSpec {
        model: AttackModelKind::Falsify(FalsifiedField::Acceleration),
        value: 3.0, // leader pretends to accelerate 3 m/s² harder
        targets: vec![1].into(),
        start: SimTime::from_secs(15),
        end: SimTime::from_secs(25),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    let verdict = e.classify_experiment(&golden, &run);
    assert_ne!(verdict.class, Classification::NonEffective, "{verdict:?}");
    assert!(run.channel.links_payload_modified > 0);
}

#[test]
fn drop_attack_loses_frames_probabilistically() {
    let e = engine(30);
    let attack = AttackSpec {
        model: AttackModelKind::Drop,
        value: 0.7,
        targets: vec![2].into(),
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(25),
    };
    let run = e.run_experiment(&attack, 1).unwrap();
    assert!(run.channel.links_dropped_by_interceptor > 50);
    // Same experiment index → identical result (deterministic RNG).
    let run2 = e.run_experiment(&attack, 1).unwrap();
    assert_eq!(
        run.channel.links_dropped_by_interceptor,
        run2.channel.links_dropped_by_interceptor
    );
}

#[test]
fn experiments_are_independent_of_execution_order() {
    // Campaign parallelism must not leak state between experiments.
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![1.2],
        attack_starts_s: vec![17.0, 18.0, 19.0],
        attack_durations_s: vec![4.0],
    };
    let campaign = Campaign::new(engine(30), setup).unwrap();
    let serial = campaign
        .run(1, &RunConfig::default(), &NullObserver)
        .unwrap();
    let parallel = campaign
        .run(3, &RunConfig::default(), &NullObserver)
        .unwrap();
    for (a, b) in serial.records.iter().zip(parallel.records.iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn attack_window_restores_cleanly() {
    // After the attack ends, newly sent frames use physical propagation
    // delay again (sub-microsecond).
    let e = engine(30);
    let attack = AttackSpec {
        model: AttackModelKind::Delay,
        value: 2.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(12),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    // ~2 s of attack at 10 Hz × (3 links from veh 2 + 3 links to veh 2).
    let touched = run.channel.links_delay_modified;
    assert!(
        (60..=180).contains(&touched),
        "expected ≈120 delayed links for a 2 s window, got {touched}"
    );
}

#[test]
fn verdicts_expose_the_responsible_vehicle() {
    let e = engine(40);
    let golden = e.golden_run().unwrap();
    let attack = AttackSpec {
        model: AttackModelKind::Dos,
        value: 40.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(17),
        end: SimTime::from_secs(40),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    let verdict = e.classify_experiment(&golden, &run);
    assert_eq!(verdict.class, Classification::Severe);
    let collider = verdict.collider().expect("DoS at cycle start collides");
    assert!(
        [2, 3, 4].contains(&collider.0),
        "collider must be a follower, got {collider}"
    );
    // The collision is also visible in the raw trace with full detail.
    let c = run.trace.first_collision().unwrap();
    assert_eq!(c.collider, collider);
    assert!(c.time > attack.start);
    assert!(c.overlap_m >= 0.0);
}

#[test]
fn forking_campaign_is_identical_to_from_scratch_campaign() {
    // The prefix-fork runner must reproduce the reference from-scratch
    // runner bit for bit: same records, same verdicts, same golden run.
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 8.0],
    };
    let campaign = Campaign::new(engine(35), setup).unwrap();
    let forked = campaign
        .run_with_observer(2, ExecutionMode::PrefixFork, &NullObserver)
        .unwrap();
    let scratch = campaign
        .run_with_observer(2, ExecutionMode::FromScratch, &NullObserver)
        .unwrap();
    assert_eq!(forked.records, scratch.records);
    assert_eq!(forked.params, scratch.params);
    assert_eq!(forked.golden, scratch.golden);
    // Two distinct start times → two prefix snapshots shared by 8 runs.
    assert_eq!(forked.stats.prefix_snapshots, 2);
    assert_eq!(forked.stats.forked_runs, 8);
    assert_eq!(scratch.stats.scratch_runs, 8);
}

#[test]
fn world_snapshot_fork_resumes_bit_identically() {
    // Clone a running world mid-simulation; the clone and the original
    // must produce identical logs (traces, channel stats, comm counters).
    let scenario = quick_scenario(30);
    let comm = CommModel::paper_default();
    let mut world = World::new(&scenario, &comm, 42).unwrap();
    world.run_until(SimTime::from_secs(14));
    let mut fork = world.clone();
    world.run_to_end();
    fork.run_to_end();
    assert_eq!(world.into_log(), fork.into_log());
}

#[test]
fn world_clock_and_traffic_clock_stay_in_lockstep() {
    let mut world = World::new(&quick_scenario(20), &CommModel::paper_default(), 1).unwrap();
    for t in [5, 10, 20] {
        world.run_until(SimTime::from_secs(t));
        assert_eq!(world.now(), SimTime::from_secs(t));
        assert_eq!(world.traffic().time(), SimTime::from_secs(t));
    }
}

#[test]
fn beacon_staleness_is_bounded_by_delay_value() {
    // Under a 1 s delay attack, the newest predecessor beacon vehicle 3
    // can know about is at least ~1 s old during the window.
    let mut world = World::new(&quick_scenario(30), &CommModel::paper_default(), 1).unwrap();
    world.run_until(SimTime::from_secs(15));
    let attack = AttackSpec {
        model: AttackModelKind::Delay,
        value: 1.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(15),
        end: SimTime::from_secs(25),
    };
    world.install_attack(attack.build_interceptor(0));
    world.run_until(SimTime::from_secs(25));
    // Advance a touch more than the remaining in-flight horizon.
    world.clear_attack();
    world.run_until(SimTime::from_secs(25) + SimDuration::from_millis(10));
    // No direct app access from here; assert via the run log instead:
    let log = world.into_log();
    assert!(log.channel.links_delay_modified > 0);
}
