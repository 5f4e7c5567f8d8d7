//! Teleoperation scenario (paper §V future work): a remotely operated
//! vehicle approaches a stalled car; the operator's stop command travels
//! over the same attackable wireless channel as the platooning beacons.
//!
//! ```text
//! cargo run --release --example teleoperation
//! ```

use comfase::prelude::*;
use comfase::teleop::{TeleopScenario, TeleopWorld, OBSTACLE_VEHICLE, TELEOP_VEHICLE};
use comfase_des::time::SimTime;
use comfase_traffic::VehicleId;

fn run(scenario: &TeleopScenario, attack: Option<AttackSpec>) -> (f64, bool) {
    let mut world = TeleopWorld::new(scenario, 7).expect("valid scenario");
    if let Some(attack) = attack {
        world.run_until(attack.start);
        world.install_attack(attack.build_interceptor(0));
        world.run_until(attack.end);
        world.clear_attack();
    }
    world.run_to_end();
    let log = world.into_log();
    let tr = log
        .trace
        .vehicle(VehicleId(TELEOP_VEHICLE))
        .expect("traced");
    (
        tr.pos.last_value().expect("a traced vehicle has samples"),
        log.trace.has_collision(),
    )
}

fn main() {
    let scenario = TeleopScenario::highway_default();
    let obstacle_rear = scenario.obstacle_pos_m - scenario.vehicle.length_m;
    println!(
        "remote driving toward a stalled car at {:.0} m (vehicle {} -> obstacle {})",
        scenario.obstacle_pos_m, TELEOP_VEHICLE, OBSTACLE_VEHICLE
    );

    let (pos, crashed) = run(&scenario, None);
    println!(
        "healthy link : stopped at {:.1} m ({:.1} m short of the obstacle), collision: {crashed}",
        pos,
        obstacle_rear - pos
    );

    for pd in [0.5, 1.0, 2.0] {
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: pd,
            targets: vec![TELEOP_VEHICLE].into(),
            start: SimTime::ZERO,
            end: SimTime::from_secs(60),
        };
        let (pos, crashed) = run(&scenario, Some(attack));
        println!(
            "{pd:.1} s delay : final position {:.1} m (margin {:+.1} m), collision: {crashed}",
            pos,
            obstacle_rear - pos
        );
    }

    let dos = AttackSpec {
        model: AttackModelKind::Dos,
        value: 60.0,
        targets: vec![TELEOP_VEHICLE].into(),
        start: SimTime::from_secs(20),
        end: SimTime::from_secs(60),
    };
    let (pos, crashed) = run(&scenario, Some(dos.clone()));
    println!("DoS at t=20 s: final position {pos:.1} m, collision: {crashed}");

    // The same loop over a 4G-like cellular bearer (the paper's planned
    // INET extension): 50 ms latency, 20 ms jitter, 1% loss.
    let cellular = TeleopScenario::highway_cellular();
    let (pos, crashed) = run(&cellular, None);
    println!(
        "\ncellular link : stopped at {:.1} m ({:.1} m short), collision: {crashed}",
        pos,
        obstacle_rear - pos
    );
    let (pos, crashed) = run(&cellular, Some(dos));
    println!("cellular + DoS: final position {pos:.1} m, collision: {crashed}");
}
