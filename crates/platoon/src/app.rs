//! The per-vehicle platooning application.
//!
//! Each platoon member runs a [`PlatoonApp`]: it consumes decoded beacons,
//! remembers the latest state of its predecessor and of the platoon leader,
//! and produces an acceleration command every control step. **By default no
//! security or staleness mechanisms are active** — exactly like the Veins
//! communication model evaluated in the paper (§III-C), the last received
//! value is trusted indefinitely; that property is what the delay and DoS
//! attacks exploit. An optional staleness failsafe
//! ([`PlatoonApp::follower_with_failsafe`]) lets protected systems be
//! evaluated too.

use comfase_des::time::{SimDuration, SimTime};

use crate::beacon::PlatoonBeacon;
use crate::controller::{
    Controller, ControllerInput, ControllerKind, EgoState, RadarReading, RadioData,
};
use crate::maneuver::{LeaderControl, Maneuver};

/// Application statistics for one vehicle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Beacons generated.
    pub beacons_sent: u64,
    /// Beacons received and accepted (from leader or predecessor).
    pub beacons_used: u64,
    /// Beacons received from other platoon members (ignored).
    pub beacons_ignored: u64,
    /// Control steps executed in the degraded (radar-only) fallback mode
    /// of the staleness failsafe.
    pub degraded_steps: u64,
}
comfase_json::record!(ToJson for AppStats {
    beacons_sent, beacons_used, beacons_ignored, degraded_steps,
});

/// Role of the vehicle in the platoon.
#[derive(Debug, Clone)]
enum Role {
    Leader {
        maneuver: Maneuver,
        control: LeaderControl,
    },
    Follower {
        controller: Controller,
        leader: u32,
        predecessor: u32,
        last_leader: Option<PlatoonBeacon>,
        last_pred: Option<PlatoonBeacon>,
        /// Optional fault-handling mechanism: V2V data older than this is
        /// not trusted; the stale source is replaced with radar-derived
        /// estimates (per source, so a follower with a silenced
        /// predecessor still uses fresh leader data). `None` reproduces
        /// the paper's unprotected system.
        staleness_timeout: Option<SimDuration>,
    },
}

/// The platooning application of one vehicle.
///
/// `PlatoonApp` is `Clone`: a clone snapshots the role (including controller
/// state and beacon knowledge), sequence counter, and statistics, so a
/// forked run continues with identical control behaviour.
#[derive(Debug, Clone)]
pub struct PlatoonApp {
    vehicle: u32,
    role: Role,
    seq: u32,
    stats: AppStats,
}

impl PlatoonApp {
    /// Creates the leader application driving the given maneuver.
    pub fn leader(vehicle: u32, maneuver: Maneuver) -> Self {
        PlatoonApp {
            vehicle,
            role: Role::Leader {
                maneuver,
                control: LeaderControl::default(),
            },
            seq: 0,
            stats: AppStats::default(),
        }
    }

    /// Creates a follower application with the given controller.
    pub fn follower(vehicle: u32, leader: u32, predecessor: u32, kind: ControllerKind) -> Self {
        Self::follower_with_failsafe(vehicle, leader, predecessor, kind, None)
    }

    /// Creates a follower that additionally runs a **staleness failsafe**:
    /// a V2V source (predecessor or leader) whose newest beacon is older
    /// than `staleness_timeout` is not trusted; its values are replaced by
    /// radar-derived estimates with zero acceleration feedforward. This is
    /// a fault/intrusion-handling mechanism of the kind the paper's target
    /// system deliberately lacks (§III-C), provided so that protected
    /// systems can be evaluated too.
    pub fn follower_with_failsafe(
        vehicle: u32,
        leader: u32,
        predecessor: u32,
        kind: ControllerKind,
        staleness_timeout: Option<SimDuration>,
    ) -> Self {
        PlatoonApp {
            vehicle,
            role: Role::Follower {
                controller: kind.build(),
                leader,
                predecessor,
                last_leader: None,
                last_pred: None,
                staleness_timeout,
            },
            seq: 0,
            stats: AppStats::default(),
        }
    }

    /// This vehicle's id.
    pub fn vehicle(&self) -> u32 {
        self.vehicle
    }

    /// `true` for the platoon leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.role, Role::Leader { .. })
    }

    /// Application statistics.
    pub fn stats(&self) -> AppStats {
        self.stats
    }

    /// Latest beacon believed to come from the leader (followers only).
    pub fn leader_knowledge(&self) -> Option<&PlatoonBeacon> {
        match &self.role {
            Role::Follower { last_leader, .. } => last_leader.as_ref(),
            Role::Leader { .. } => None,
        }
    }

    /// Latest beacon believed to come from the predecessor (followers only).
    pub fn predecessor_knowledge(&self) -> Option<&PlatoonBeacon> {
        match &self.role {
            Role::Follower { last_pred, .. } => last_pred.as_ref(),
            Role::Leader { .. } => None,
        }
    }

    /// Feeds a decoded beacon into the application.
    pub fn on_beacon(&mut self, beacon: PlatoonBeacon) {
        match &mut self.role {
            Role::Leader { .. } => {
                self.stats.beacons_ignored += 1;
            }
            Role::Follower {
                leader,
                predecessor,
                last_leader,
                last_pred,
                ..
            } => {
                let mut used = false;
                if beacon.vehicle == *leader {
                    *last_leader = Some(beacon);
                    used = true;
                }
                if beacon.vehicle == *predecessor {
                    *last_pred = Some(beacon);
                    used = true;
                }
                if used {
                    self.stats.beacons_used += 1;
                } else {
                    self.stats.beacons_ignored += 1;
                }
            }
        }
    }

    /// Computes the commanded acceleration for this control step.
    ///
    /// `radar` is the on-board gap measurement to the vehicle ahead; it is
    /// `None` when no vehicle is ahead (then a follower coasts on its last
    /// knowledge with a zero-gap-error input).
    pub fn control(
        &mut self,
        now: SimTime,
        ego: EgoState,
        radar: Option<RadarReading>,
        dt_s: f64,
    ) -> f64 {
        match &mut self.role {
            Role::Leader { maneuver, control } => control.accel(maneuver, now, ego.speed_mps),
            Role::Follower {
                controller,
                last_leader,
                last_pred,
                staleness_timeout,
                ..
            } => {
                // With no beacons yet (simulation start) assume a settled
                // platoon: mirror own speed, zero acceleration.
                let pred = last_pred.as_ref();
                let lead = last_leader.as_ref();
                let radar = radar.unwrap_or(RadarReading {
                    gap_m: 5.0,
                    closing_speed_mps: 0.0,
                });
                // Per-source staleness failsafe: a stale source's values
                // are replaced by radar-derived estimates (predecessor
                // speed from the radar closing speed, zero acceleration
                // feedforward) instead of being trusted indefinitely.
                let is_stale = |sampled: Option<SimTime>| -> bool {
                    match (*staleness_timeout, sampled) {
                        (None, _) => false,
                        (Some(t), Some(s)) => now - s > t,
                        (Some(t), None) => now > SimTime::ZERO + t,
                    }
                };
                let pred_stale = is_stale(pred.map(|b| b.sampled));
                let lead_stale = is_stale(lead.map(|b| b.sampled));
                let radar_pred_speed = ego.speed_mps - radar.closing_speed_mps;
                let pred_speed = if pred_stale {
                    radar_pred_speed
                } else {
                    pred.map_or(ego.speed_mps, |b| b.speed_mps)
                };
                let radio = RadioData {
                    pred_speed_mps: pred_speed,
                    pred_accel_mps2: if pred_stale {
                        0.0
                    } else {
                        pred.map_or(0.0, |b| b.accel_mps2)
                    },
                    leader_speed_mps: if lead_stale {
                        pred_speed
                    } else {
                        lead.map_or(ego.speed_mps, |b| b.speed_mps)
                    },
                    leader_accel_mps2: if lead_stale {
                        0.0
                    } else {
                        lead.map_or(0.0, |b| b.accel_mps2)
                    },
                };
                if pred_stale || lead_stale {
                    self.stats.degraded_steps += 1;
                }
                let input = ControllerInput {
                    ego,
                    radar,
                    radio,
                    dt_s,
                };
                controller.desired_accel(&input)
            }
        }
    }

    /// Produces the next beacon to broadcast.
    pub fn make_beacon(
        &mut self,
        now: SimTime,
        pos_m: f64,
        speed_mps: f64,
        accel_mps2: f64,
    ) -> PlatoonBeacon {
        self.seq = self.seq.wrapping_add(1);
        self.stats.beacons_sent += 1;
        PlatoonBeacon {
            vehicle: self.vehicle,
            pos_m,
            speed_mps,
            accel_mps2,
            sampled: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maneuver::ConstantSpeed;

    fn cruise(speed_mps: f64) -> Maneuver {
        Maneuver::ConstantSpeed(ConstantSpeed { speed_mps })
    }

    fn beacon(vehicle: u32, speed: f64, accel: f64) -> PlatoonBeacon {
        PlatoonBeacon {
            vehicle,
            pos_m: 0.0,
            speed_mps: speed,
            accel_mps2: accel,
            sampled: SimTime::ZERO,
        }
    }

    fn follower() -> PlatoonApp {
        PlatoonApp::follower(2, 1, 1, ControllerKind::PathCacc)
    }

    fn ego(speed: f64) -> EgoState {
        EgoState {
            speed_mps: speed,
            accel_mps2: 0.0,
        }
    }

    #[test]
    fn routes_beacons_by_sender() {
        let mut app = PlatoonApp::follower(3, 1, 2, ControllerKind::PathCacc);
        app.on_beacon(beacon(1, 27.0, 0.5));
        app.on_beacon(beacon(2, 26.0, -0.5));
        app.on_beacon(beacon(4, 25.0, 0.0)); // behind us: ignored
        assert_eq!(app.leader_knowledge().unwrap().speed_mps, 27.0);
        assert_eq!(app.predecessor_knowledge().unwrap().speed_mps, 26.0);
        assert_eq!(app.stats().beacons_used, 2);
        assert_eq!(app.stats().beacons_ignored, 1);
    }

    #[test]
    fn leader_and_predecessor_can_be_same_vehicle() {
        let mut app = follower(); // vehicle 2: leader == predecessor == 1
        app.on_beacon(beacon(1, 27.0, 1.0));
        assert_eq!(app.leader_knowledge().unwrap().accel_mps2, 1.0);
        assert_eq!(app.predecessor_knowledge().unwrap().accel_mps2, 1.0);
        assert_eq!(app.stats().beacons_used, 1);
    }

    #[test]
    fn follower_without_beacons_holds_steady() {
        let mut app = follower();
        let a = app.control(
            SimTime::ZERO,
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert!(a.abs() < 1e-9, "settled platoon stays settled: {a}");
    }

    #[test]
    fn follower_uses_last_beacon_forever() {
        // The "no security mechanisms" property: knowledge never expires.
        let mut app = follower();
        app.on_beacon(beacon(1, 27.78, 1.5));
        let a = app.control(
            SimTime::from_secs(50), // 50 s later, no newer beacon
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert!(
            (a - 1.5).abs() < 1e-9,
            "stale feedforward still applied: {a}"
        );
    }

    #[test]
    fn staleness_failsafe_ignores_stale_feedforward() {
        let mut app = PlatoonApp::follower_with_failsafe(
            2,
            1,
            1,
            ControllerKind::PathCacc,
            Some(SimDuration::from_millis(500)),
        );
        app.on_beacon(beacon(1, 27.78, 1.5));
        // Fresh data: CACC applies the feedforward.
        let fresh = app.control(
            SimTime::from_millis(100),
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert!(fresh > 1.0, "fresh feedforward applied: {fresh}");
        assert_eq!(app.stats().degraded_steps, 0);
        // 2 s later with no newer beacon: the stale +1.5 m/s² is ignored
        // and the radar-only fallback takes over.
        let stale = app.control(
            SimTime::from_secs(2),
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert!(
            stale < 0.5,
            "stale feedforward must not be applied: {stale}"
        );
        assert_eq!(app.stats().degraded_steps, 1);
    }

    #[test]
    fn failsafe_grace_period_without_any_beacons() {
        let mut app = PlatoonApp::follower_with_failsafe(
            2,
            1,
            1,
            ControllerKind::PathCacc,
            Some(SimDuration::from_millis(500)),
        );
        // Within the grace period, the settled-platoon assumption holds.
        let a = app.control(
            SimTime::from_millis(100),
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert!(a.abs() < 1e-9);
        assert_eq!(app.stats().degraded_steps, 0);
        // Past it, with still no beacons at all: degrade.
        app.control(
            SimTime::from_secs(1),
            ego(27.78),
            Some(RadarReading {
                gap_m: 5.0,
                closing_speed_mps: 0.0,
            }),
            0.01,
        );
        assert_eq!(app.stats().degraded_steps, 1);
    }

    #[test]
    fn leader_tracks_maneuver() {
        let mut app = PlatoonApp::leader(1, cruise(30.0));
        assert!(app.is_leader());
        let a = app.control(SimTime::ZERO, ego(25.0), None, 0.01);
        assert!(a > 0.0);
        let a = app.control(SimTime::ZERO, ego(30.0), None, 0.01);
        assert_eq!(a, 0.0);
    }

    #[test]
    fn leader_ignores_beacons() {
        let mut app = PlatoonApp::leader(1, cruise(30.0));
        app.on_beacon(beacon(2, 10.0, -5.0));
        assert_eq!(app.stats().beacons_ignored, 1);
        assert!(app.leader_knowledge().is_none());
    }

    #[test]
    fn beacons_carry_current_state() {
        let mut app = follower();
        let b = app.make_beacon(SimTime::from_secs(3), 120.0, 26.5, -0.7);
        assert_eq!(b.vehicle, 2);
        assert_eq!(b.pos_m, 120.0);
        assert_eq!(b.speed_mps, 26.5);
        assert_eq!(b.accel_mps2, -0.7);
        assert_eq!(b.sampled, SimTime::from_secs(3));
        assert_eq!(app.stats().beacons_sent, 1);
    }
}
