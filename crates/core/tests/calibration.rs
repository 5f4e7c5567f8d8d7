//! Calibration probes against the paper's reported behaviour.
//!
//! These tests assert the *shape* requirements that the reproduction must
//! satisfy (paper §IV-C); the `-- --ignored --nocapture` run prints the
//! measured values used in EXPERIMENTS.md.

use comfase::attack::{AttackModelKind, AttackSpec};
use comfase::classify::Classification;
use comfase::engine::Engine;
use comfase_des::time::SimTime;

fn engine() -> Engine {
    Engine::paper_default(42).expect("the paper scenario is valid")
}

#[test]
fn golden_max_decel_is_near_paper_value() {
    let golden = engine().golden_run().unwrap();
    let d = golden.max_decel();
    assert!(
        (1.2..=1.9).contains(&d),
        "golden max decel {d} should be near the paper's 1.53 m/s²"
    );
    assert!(!golden.has_collision());
}

#[test]
fn dos_attacks_are_always_severe_with_collisions() {
    // Paper §IV-C.2: all 25 DoS experiments are severe, all collisions.
    let e = engine();
    let golden = e.golden_run().unwrap();
    for start in [17.0, 18.2, 19.4, 20.6, 21.8] {
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![2].into(),
            start: SimTime::from_secs_f64(start),
            end: SimTime::from_secs(60),
        };
        let run = e.run_experiment(&attack, 0).unwrap();
        let v = e.classify_experiment(&golden, &run);
        assert_eq!(
            v.class,
            Classification::Severe,
            "DoS at {start}s must be severe, got {v:?}"
        );
        assert!(v.first_collision.is_some(), "DoS at {start}s must collide");
    }
}

#[test]
fn long_high_delay_attack_is_severe() {
    // Paper Fig. 6: high PD values overwhelmingly produce severe cases.
    let e = engine();
    let golden = e.golden_run().unwrap();
    let attack = AttackSpec {
        model: AttackModelKind::Delay,
        value: 3.0,
        targets: vec![2].into(),
        start: SimTime::from_secs(17),
        end: SimTime::from_secs(47),
    };
    let run = e.run_experiment(&attack, 0).unwrap();
    let v = e.classify_experiment(&golden, &run);
    assert_eq!(v.class, Classification::Severe, "{v:?}");
}

#[test]
#[ignore = "exploration probe; run with --ignored --nocapture"]
fn probe_shapes() {
    let e = engine();
    let t0 = std::time::Instant::now();
    let golden = e.golden_run().unwrap();
    println!("golden run wall time: {:?}", t0.elapsed());
    println!("golden max decel: {:.3}", golden.max_decel());
    for v in [1u32, 2, 3, 4] {
        let tr = golden.trace.vehicle(comfase_traffic::VehicleId(v)).unwrap();
        println!(
            "veh {v}: max decel {:.3}, max accel {:.3}, speed [{:.2},{:.2}]",
            tr.max_decel(),
            tr.max_accel(),
            tr.speed.min_value().unwrap(),
            tr.speed.max_value().unwrap()
        );
    }
    // Delay attack grid probe.
    for pd in [0.2, 0.6, 1.0, 2.2, 3.0] {
        for dur in [1.0, 3.0, 5.0, 10.0] {
            let attack = AttackSpec {
                model: AttackModelKind::Delay,
                value: pd,
                targets: vec![2].into(),
                start: SimTime::from_secs(17),
                end: SimTime::from_secs_f64(17.0 + dur),
            };
            let t = std::time::Instant::now();
            let run = e.run_experiment(&attack, 0).unwrap();
            let v = e.classify_experiment(&golden, &run);
            println!(
                "pd={pd:3.1} dur={dur:4.1} -> {:13} decel {:5.2} collider {:?} ({:?})",
                v.class.to_string(),
                v.max_decel_mps2,
                v.collider(),
                t.elapsed()
            );
        }
    }
    // Start-time sweep at fixed pd/duration.
    for start in [17.0, 17.6, 18.2, 18.8, 19.4, 20.0, 20.6, 21.2, 21.8] {
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 1.0,
            targets: vec![2].into(),
            start: SimTime::from_secs_f64(start),
            end: SimTime::from_secs_f64(start + 5.0),
        };
        let run = e.run_experiment(&attack, 0).unwrap();
        let v = e.classify_experiment(&golden, &run);
        println!(
            "start={start:4.1} -> {:13} decel {:5.2} collider {:?}",
            v.class.to_string(),
            v.max_decel_mps2,
            v.collider()
        );
    }
}
