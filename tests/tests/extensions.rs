//! Integration tests for the extension features built on top of the
//! paper's headline reproduction: safety monitor, roadside jammer,
//! background traffic and the teleoperation scenario.

use comfase::prelude::*;
use comfase::teleop::{TeleopScenario, TeleopWorld, TELEOP_VEHICLE};
use comfase_des::time::{SimDuration, SimTime};
use comfase_platoon::monitor::SafetyMonitorConfig;
use comfase_traffic::VehicleId;

#[test]
fn safety_monitor_campaign_prevents_dos_collisions() {
    let run = |protected: bool| {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(40);
        if protected {
            scenario.safety_monitor = Some(SafetyMonitorConfig::default());
        }
        let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
        let mut setup = AttackCampaignSetup::paper_dos_campaign();
        setup.attack_starts_s = vec![17.0, 18.2, 19.4]; // reduced sweep
        Campaign::new(engine, setup)
            .unwrap()
            .run(1, &RunConfig::default(), &NullObserver)
            .unwrap()
    };
    let unprotected = run(false);
    let protected = run(true);
    let collisions = |r: &CampaignResult| {
        r.records
            .iter()
            .map(|x| x.verdict.nr_collisions)
            .sum::<usize>()
    };
    assert!(collisions(&unprotected) > 0, "baseline must collide");
    assert!(
        collisions(&protected) < collisions(&unprotected),
        "monitor must remove collisions: {} vs {}",
        collisions(&protected),
        collisions(&unprotected)
    );
}

#[test]
fn monitored_golden_run_is_untouched() {
    // The monitor must not fire in healthy driving — otherwise it would
    // change the golden run and invalidate the classification baseline.
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(30);
    let plain = Engine::new(scenario.clone(), CommModel::paper_default(), 42)
        .unwrap()
        .golden_run()
        .unwrap();
    scenario.safety_monitor = Some(SafetyMonitorConfig::default());
    let monitored = Engine::new(scenario, CommModel::paper_default(), 42)
        .unwrap()
        .golden_run()
        .unwrap();
    assert_eq!(plain.max_decel(), monitored.max_decel());
    for v in [1u32, 2, 3, 4] {
        let a = plain.trace.vehicle(VehicleId(v)).unwrap();
        let b = monitored.trace.vehicle(VehicleId(v)).unwrap();
        assert_eq!(a.max_speed_deviation(b), 0.0, "vehicle {v} diverged");
    }
}

#[test]
fn jammer_classified_through_normal_pipeline() {
    let scenario = {
        let mut s = TrafficScenario::paper_default();
        s.total_sim_time = SimTime::from_secs(30);
        s
    };
    let engine = Engine::new(scenario.clone(), CommModel::paper_default(), 42).unwrap();
    let golden = engine.golden_run().unwrap();
    let mut world = World::new(&scenario, &CommModel::paper_default(), 42).unwrap();
    // The platoon cruises at ~27.8 m/s from x = 500: park the jammer where
    // it will be mid-window (t = 20 s -> x ~ 1050).
    world.add_jammer(JammerSpec {
        pos_x_m: 1050.0,
        pos_y_m: 10.0,
        period: SimDuration::from_micros(400),
        payload_bytes: 200,
        start: SimTime::from_secs(15),
        end: SimTime::from_secs(25),
    });
    world.run_to_end();
    let run = world.into_log();
    assert!(run.channel.lost_snir > 100, "jamming must destroy frames");
    let verdict = engine.classify_experiment(&golden, &run);
    // Losing most beacons for 15 s must at least perturb the platoon.
    assert_ne!(verdict.class, Classification::NonEffective, "{verdict:?}");
}

#[test]
fn background_traffic_is_logged_and_harmless_in_other_lanes() {
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(20);
    scenario.background_vehicles = vec![(1, 480.0, 22.0), (1, 420.0, 26.0), (2, 300.0, 30.0)];
    let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
    let golden = engine.golden_run().unwrap();
    assert!(!golden.has_collision());
    // 4 platoon + 3 background vehicles all traced.
    assert_eq!(golden.trace.vehicle_ids().len(), 7);
    // Background Krauss car catching a slower one keeps a positive gap.
    let fast = golden.trace.vehicle(VehicleId(6)).unwrap();
    assert!(fast.pos.max_value().unwrap() > 420.0);
}

#[test]
fn background_traffic_stays_off_the_platoon_radio() {
    // Background cars have no radio: adding them in other lanes must not
    // give them frames to receive, nor change which beacons a
    // probabilistic drop attack draws for the platoon.
    let run = |background: Vec<(u8, f64, f64)>| {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(20);
        scenario.background_vehicles = background;
        let mut world = World::with_obs(
            &scenario,
            &CommModel::paper_default(),
            42,
            ObsConfig::metrics_only(),
        )
        .unwrap();
        let attack = AttackSpec {
            model: AttackModelKind::Drop,
            value: 0.5,
            targets: vec![2].into(),
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(15),
        };
        world.run_until(attack.start);
        world.install_attack(attack.build_interceptor(7));
        world.run_until(attack.end);
        world.clear_attack();
        world.run_to_end();
        world.into_log()
    };
    let alone = run(Vec::new());
    let with_traffic = run(vec![(1, 480.0, 22.0), (1, 420.0, 26.0), (2, 300.0, 30.0)]);
    assert_eq!(with_traffic.trace.vehicle_ids().len(), 7);
    assert!(
        alone.channel.links_dropped_by_interceptor > 0,
        "the attack dropped nothing"
    );
    for v in [1u32, 2, 3, 4] {
        assert!(
            with_traffic.trace.vehicle(VehicleId(v)) == alone.trace.vehicle(VehicleId(v)),
            "vehicle {v}'s trace changed"
        );
    }
    assert_eq!(with_traffic.comm, alone.comm);
    assert_eq!(with_traffic.channel, alone.channel);
    assert_eq!(with_traffic.obs.counter("phy.rx.inactive"), 0);
}

#[test]
fn teleop_delay_campaign_sweep() {
    // A miniature campaign over the teleoperation scenario: increasing
    // command delay monotonically erodes the stopping margin until the
    // vehicle crashes.
    let scenario = TeleopScenario::highway_default();
    let obstacle_rear = scenario.obstacle_pos_m - scenario.vehicle.length_m;
    let mut margins = Vec::new();
    for pd in [0.0, 0.4, 0.8] {
        let mut w = TeleopWorld::new(&scenario, 3).unwrap();
        if pd > 0.0 {
            let attack = AttackSpec {
                model: AttackModelKind::Delay,
                value: pd,
                targets: vec![TELEOP_VEHICLE].into(),
                start: SimTime::ZERO,
                end: scenario.total_sim_time,
            };
            w.install_attack(attack.build_interceptor(0));
        }
        w.run_to_end();
        let log = w.into_log();
        let tr = log.trace.vehicle(VehicleId(TELEOP_VEHICLE)).unwrap();
        margins.push(obstacle_rear - tr.pos.max_value().unwrap());
    }
    assert!(
        margins[0] > margins[1] && margins[1] > margins[2],
        "margins must shrink with delay: {margins:?}"
    );
    assert!(
        margins[0] > 5.0,
        "healthy run keeps a healthy margin: {margins:?}"
    );
}

#[test]
fn teleop_status_falsification_is_dangerous() {
    // Falsify the *uplinked position* (the vehicle pretends to be further
    // back): the operator brakes too late.
    let scenario = TeleopScenario::highway_default();
    let run = |offset: f64| {
        let mut w = TeleopWorld::new(&scenario, 3).unwrap();
        if offset != 0.0 {
            // Falsification of the teleop status payload is intentionally
            // beacon-format specific; emulate the same effect with a delay
            // of the uplink only — sender-side targeting.
            let attack = AttackSpec {
                model: AttackModelKind::Delay,
                value: offset,
                targets: vec![TELEOP_VEHICLE].into(),
                start: SimTime::ZERO,
                end: scenario.total_sim_time,
            };
            w.install_attack(attack.build_interceptor(0));
        }
        w.run_to_end();
        let log = w.into_log();
        log.trace.has_collision()
    };
    assert!(!run(0.0));
    assert!(
        run(2.0),
        "2 s of stale state must defeat the operator's planning"
    );
}

#[test]
fn staleness_failsafe_mitigates_dos() {
    let run = |timeout: Option<f64>| {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(40);
        scenario.platoon.staleness_timeout_s = timeout;
        let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(40),
        };
        engine.run_experiment(&attack, 0).unwrap()
    };
    let unprotected = run(None);
    let protected = run(Some(0.5));
    assert!(unprotected.has_collision(), "paper behaviour reproduced");
    assert!(
        !protected.has_collision(),
        "a 0.5 s staleness failsafe must defuse the DoS: {:?}",
        protected.trace.collisions
    );
    // The failsafe actually engaged on the attacked vehicle.
    assert!(protected.comm[&2].app.degraded_steps > 0);
    // And the healthy vehicles never degraded before the attack.
    let golden = {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(40);
        scenario.platoon.staleness_timeout_s = Some(0.5);
        Engine::new(scenario, CommModel::paper_default(), 42)
            .unwrap()
            .golden_run()
            .unwrap()
    };
    for v in [2u32, 3, 4] {
        assert_eq!(
            golden.comm[&v].app.degraded_steps, 0,
            "vehicle {v} degraded in golden run"
        );
    }
}

#[test]
fn multi_target_attack_hits_all_targets() {
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(30);
    let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
    let attack = AttackSpec {
        model: AttackModelKind::Dos,
        value: 30.0,
        targets: vec![2, 3].into(),
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(30),
    };
    let run = engine.run_experiment(&attack, 0).unwrap();
    let golden = engine.golden_run().unwrap();
    // Both targets stop hearing beacons; vehicle 4 loses its predecessor
    // (3) but still hears the leader.
    for v in [2u32, 3] {
        assert!(
            run.comm[&v].app.beacons_used < golden.comm[&v].app.beacons_used,
            "vehicle {v} kept receiving"
        );
    }
    let verdict = engine.classify_experiment(&golden, &run);
    assert_eq!(verdict.class, Classification::Severe);
}

#[test]
fn collision_latency_is_reported_for_dos_campaign() {
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(40);
    let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
    let mut setup = AttackCampaignSetup::paper_dos_campaign();
    setup.attack_starts_s = vec![17.0, 17.4, 17.8];
    let result = Campaign::new(engine, setup)
        .unwrap()
        .run(1, &RunConfig::default(), &NullObserver)
        .unwrap();
    let stats = comfase::analysis::collision_latency_stats(&result.records);
    assert!(stats.count() >= 2, "DoS at cycle start collides");
    // Collisions need a physically plausible build-up time.
    assert!(stats.min().unwrap() > 0.5, "{stats}");
    assert!(stats.max().unwrap() < 23.0, "{stats}");
}
