//! Collision detection and incident records.
//!
//! Follows SUMO's collision semantics (the paper cites SUMO's collision
//! output for its collider analysis): a rear-end collision occurs when a
//! follower's front bumper reaches the leader's rear bumper on the same
//! lane; the **rear vehicle is the collider**, the front one the victim.

use comfase_des::time::SimTime;

use crate::network::LaneIndex;
use crate::vehicle::{Vehicle, VehicleId};

/// One collision incident, in the spirit of SUMO's collision output file.
#[derive(Debug, Clone, PartialEq)]
pub struct Collision {
    /// Simulation time of the incident.
    pub time: SimTime,
    /// The vehicle responsible (rear vehicle in a rear-end collision).
    pub collider: VehicleId,
    /// The vehicle hit.
    pub victim: VehicleId,
    /// Lane where the collision happened.
    pub lane: LaneIndex,
    /// Front-bumper position of the collider, metres.
    pub pos_m: f64,
    /// Collider speed at impact, m/s.
    pub collider_speed_mps: f64,
    /// Victim speed at impact, m/s.
    pub victim_speed_mps: f64,
    /// Bumper overlap at detection time, metres (>= 0).
    pub overlap_m: f64,
}
comfase_json::record!(ToJson, FromJson for Collision {
    time, collider, victim, lane, pos_m, collider_speed_mps, victim_speed_mps, overlap_m,
});

/// Scans vehicles (any order) and returns all new rear-end collisions.
///
/// Only active vehicles are considered. At most one collision is reported
/// per (collider, victim) pair per call; the caller removes the collider
/// (SUMO's default), which prevents duplicate reports on subsequent steps.
pub fn detect_collisions(time: SimTime, vehicles: &[Vehicle]) -> Vec<Collision> {
    // Sort indices per lane by front position, rear to front.
    let mut idx: Vec<usize> = (0..vehicles.len())
        .filter(|&i| vehicles[i].active)
        .collect();
    idx.sort_by(|&a, &b| {
        let va = &vehicles[a];
        let vb = &vehicles[b];
        // total_cmp: deterministic total order even if a position ever goes
        // NaN (a panic here would differ between fork and scratch runs).
        va.state
            .lane
            .cmp(&vb.state.lane)
            .then(va.state.pos_m.total_cmp(&vb.state.pos_m))
    });
    let mut out = Vec::new();
    for pair in idx.windows(2) {
        let follower = &vehicles[pair[0]];
        let leader = &vehicles[pair[1]];
        if follower.state.lane != leader.state.lane {
            continue;
        }
        let gap = follower.gap_to(leader);
        if gap < 0.0 {
            out.push(Collision {
                time,
                collider: follower.id,
                victim: leader.id,
                lane: follower.state.lane,
                pos_m: follower.state.pos_m,
                collider_speed_mps: follower.state.speed_mps,
                victim_speed_mps: leader.state.speed_mps,
                overlap_m: -gap,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vehicle::VehicleSpec;

    fn veh(id: u32, pos: f64, lane: u8, speed: f64) -> Vehicle {
        Vehicle::new(
            VehicleId(id),
            VehicleSpec::paper_platooning_car(),
            pos,
            LaneIndex(lane),
            speed,
        )
    }

    #[test]
    fn no_collision_with_positive_gaps() {
        let vehicles = vec![veh(1, 100.0, 0, 20.0), veh(2, 90.0, 0, 20.0)];
        assert!(detect_collisions(SimTime::ZERO, &vehicles).is_empty());
    }

    #[test]
    fn rear_vehicle_is_collider() {
        // leader front 100, rear 96; follower front 97 -> overlap 1 m.
        let vehicles = vec![veh(1, 100.0, 0, 18.0), veh(2, 97.0, 0, 22.0)];
        let cs = detect_collisions(SimTime::from_secs(3), &vehicles);
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.collider, VehicleId(2));
        assert_eq!(c.victim, VehicleId(1));
        assert!((c.overlap_m - 1.0).abs() < 1e-12);
        assert_eq!(c.collider_speed_mps, 22.0);
        assert_eq!(c.victim_speed_mps, 18.0);
        assert_eq!(c.time, SimTime::from_secs(3));
    }

    #[test]
    fn different_lanes_do_not_collide() {
        let vehicles = vec![veh(1, 100.0, 0, 20.0), veh(2, 99.0, 1, 20.0)];
        assert!(detect_collisions(SimTime::ZERO, &vehicles).is_empty());
    }

    #[test]
    fn inactive_vehicles_ignored() {
        let mut vehicles = vec![veh(1, 100.0, 0, 20.0), veh(2, 98.0, 0, 20.0)];
        vehicles[0].active = false;
        assert!(detect_collisions(SimTime::ZERO, &vehicles).is_empty());
    }

    #[test]
    fn chain_collision_reports_each_adjacent_pair() {
        // Three vehicles all overlapping.
        let vehicles = vec![
            veh(1, 100.0, 0, 10.0),
            veh(2, 98.0, 0, 15.0),
            veh(3, 96.0, 0, 20.0),
        ];
        let cs = detect_collisions(SimTime::ZERO, &vehicles);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].collider, VehicleId(3));
        assert_eq!(cs[0].victim, VehicleId(2));
        assert_eq!(cs[1].collider, VehicleId(2));
        assert_eq!(cs[1].victim, VehicleId(1));
    }

    #[test]
    fn exact_touch_is_not_a_collision() {
        // gap exactly 0: follower front == leader rear.
        let vehicles = vec![veh(1, 100.0, 0, 20.0), veh(2, 96.0, 0, 20.0)];
        assert!(detect_collisions(SimTime::ZERO, &vehicles).is_empty());
    }
}
