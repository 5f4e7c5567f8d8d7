//! Property tests for the traffic simulation substrate.
//!
//! Every property runs `CASES` fixed cases: case `case` draws its inputs
//! from `RngStream::derive(SEED, StreamId(case))`, and a failure message
//! names the case and its inputs.

use comfase_des::rng::{RngStream, StreamId};
use comfase_des::time::SimTime;
use comfase_traffic::car_following::{CfInput, Krauss};
use comfase_traffic::collision::detect_collisions;
use comfase_traffic::dynamics::{integrate, lag_decay};
use comfase_traffic::network::{LaneIndex, Road};
use comfase_traffic::simulation::TrafficSim;
use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};

const SEED: u64 = 42;
const CASES: u64 = 256;

fn spec() -> VehicleSpec {
    VehicleSpec::paper_platooning_car()
}

/// Integration never produces speeds outside [0, max_speed], and the
/// distance covered matches the trapezoidal rule.
#[test]
fn dynamics_invariants() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let speed = g.uniform_range(0.0, 50.0);
        let accel = g.uniform_range(-9.0, 2.5);
        let cmd = g.uniform_range(-50.0, 50.0);
        let dt = g.uniform_range(0.001, 0.5);
        let inputs = format!("case {case}: speed {speed} accel {accel} cmd {cmd} dt {dt}");
        let s = spec();
        let out = integrate(&s, speed, accel, cmd, dt, lag_decay(s.actuation_lag_s, dt));
        assert!((0.0..=s.max_speed_mps).contains(&out.speed_mps), "{inputs}");
        let expect = (speed + out.speed_mps) / 2.0 * dt;
        assert!((out.distance_m - expect).abs() < 1e-9, "{inputs}");
        // Realised acceleration is consistent with the speed change.
        assert!(
            (out.accel_mps2 - (out.speed_mps - speed) / dt).abs() < 1e-9,
            "{inputs}"
        );
    }
}

/// The realised acceleration never exceeds the vehicle's ability.
#[test]
fn dynamics_respects_limits() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let speed = g.uniform_range(1.0, 49.0);
        let cmd = g.uniform_range(-100.0, 100.0);
        let mut s = spec();
        s.actuation_lag_s = 0.0;
        // Lag-free: the decay is not read.
        let out = integrate(&s, speed, 0.0, cmd, 0.01, 0.0);
        let inputs = format!("case {case}: speed {speed} cmd {cmd} -> {}", out.accel_mps2);
        assert!(out.accel_mps2 <= s.max_accel_mps2 + 1e-9, "{inputs}");
        assert!(out.accel_mps2 >= -s.max_decel_mps2 - 1e-9, "{inputs}");
    }
}

/// A Krauss follower that starts behind a leader never collides, no
/// matter how brutally the leader brakes.
#[test]
fn krauss_is_collision_free() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let init_gap = g.uniform_range(5.0, 60.0);
        let init_speed = g.uniform_range(5.0, 30.0);
        let brake_step = 10 + g.below(190) as usize;
        let brake = g.uniform_range(1.0, 9.0);
        let k = Krauss::default();
        let dt = 0.1;
        let mut lead_pos = init_gap + 5.0;
        let mut lead_speed = init_speed;
        let mut pos = 0.0;
        let mut speed = init_speed;
        for step in 0..400 {
            let lead_acc = if step >= brake_step { -brake } else { 0.0 };
            lead_speed = (lead_speed + lead_acc * dt).max(0.0);
            lead_pos += lead_speed * dt;
            let gap = lead_pos - 5.0 - pos;
            assert!(
                gap > -1e-6,
                "case {case}: collision at step {step}: gap {gap} (init gap {init_gap}, \
                 speed {init_speed}, brake {brake} from step {brake_step})"
            );
            let input = CfInput {
                speed_mps: speed,
                gap_m: Some(gap),
                leader_speed_mps: lead_speed,
                speed_limit_mps: 35.0,
                max_accel_mps2: 2.5,
                service_decel_mps2: brake.max(4.5),
                dt_s: dt,
                noise: 0.0,
            };
            let a = k.accel(&input);
            speed = (speed + a * dt).max(0.0);
            pos += speed * dt;
        }
    }
}

/// Collision detection reports exactly the adjacent overlapping pairs
/// per lane.
#[test]
fn collision_detection_is_exact() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let positions: Vec<(f64, u8)> = (0..2 + g.below(10))
            .map(|_| (g.uniform_range(0.0, 200.0), g.below(3) as u8))
            .collect();
        let vehicles: Vec<Vehicle> = positions
            .iter()
            .enumerate()
            .map(|(i, &(pos, lane))| {
                Vehicle::new(VehicleId(i as u32 + 1), spec(), pos, LaneIndex(lane), 10.0)
            })
            .collect();
        let collisions = detect_collisions(SimTime::ZERO, &vehicles, &mut Vec::new());
        // Count expected overlaps by sorting per lane.
        let mut expected = 0;
        for lane in 0..3u8 {
            let mut on_lane: Vec<&Vehicle> = vehicles
                .iter()
                .filter(|v| v.state.lane == LaneIndex(lane))
                .collect();
            on_lane.sort_by(|a, b| a.state.pos_m.partial_cmp(&b.state.pos_m).unwrap());
            for w in on_lane.windows(2) {
                if w[0].gap_to(w[1]) < 0.0 {
                    expected += 1;
                }
            }
        }
        let inputs = format!("case {case}: {positions:?}");
        assert_eq!(collisions.len(), expected, "{inputs}");
        for c in &collisions {
            // The collider is always behind the victim.
            let collider = vehicles.iter().find(|v| v.id == c.collider).unwrap();
            let victim = vehicles.iter().find(|v| v.id == c.victim).unwrap();
            assert!(collider.state.pos_m <= victim.state.pos_m, "{inputs}");
            assert_eq!(collider.state.lane, victim.state.lane, "{inputs}");
        }
    }
}

/// The simulation is deterministic in its seed and vehicles never
/// leave the speed envelope.
#[test]
fn simulation_determinism_and_envelope() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let seed = g.next_u64();
        let n = 1 + g.below(5) as usize;
        let steps = 10 + g.below(290);
        let run = |seed: u64| {
            let mut sim = TrafficSim::new(Road::paper_highway(), RngStream::new(seed));
            for i in 0..n {
                sim.add_vehicle(Vehicle::new(
                    VehicleId(i as u32 + 1),
                    VehicleSpec::default_car(),
                    40.0 * i as f64 + 10.0,
                    LaneIndex(0),
                    20.0,
                ))
                .unwrap();
            }
            sim.run_steps(steps);
            sim.vehicles()
                .iter()
                .map(|v| (v.state.pos_m, v.state.speed_mps))
                .collect::<Vec<_>>()
        };
        let a = run(seed);
        let b = run(seed);
        let inputs = format!("case {case}: seed {seed}, {n} vehicles, {steps} steps");
        assert_eq!(a, b, "{inputs}");
        for (pos, speed) in a {
            assert!((0.0..=38.0).contains(&speed), "{inputs}: speed {speed}");
            assert!(pos >= 0.0, "{inputs}: pos {pos}");
        }
    }
}
