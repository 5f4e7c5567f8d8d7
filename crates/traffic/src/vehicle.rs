//! Vehicles: static specification and dynamic state.

use crate::network::LaneIndex;

/// Unique vehicle identifier within a simulation.
///
/// The paper numbers platoon members 1..=4 front to back; we keep the same
/// convention in scenario builders (`VehicleId(1)` is the leader).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);
comfase_json::newtype!(ToJson, FromJson for VehicleId);

impl comfase_json::JsonKey for VehicleId {
    fn to_key(&self) -> std::borrow::Cow<'_, str> {
        comfase_json::JsonKey::to_key(&self.0)
    }

    fn from_key(key: &str) -> Result<Self, comfase_json::Error> {
        <u32 as comfase_json::JsonKey>::from_key(key).map(VehicleId)
    }
}

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "veh.{}", self.0)
    }
}

/// Static (software & hardware) properties of a vehicle — the paper's
/// `vehicleFeatures`.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleSpec {
    /// Body length in metres.
    pub length_m: f64,
    /// Maximum speed in m/s.
    pub max_speed_mps: f64,
    /// Maximum acceleration ability in m/s².
    pub max_accel_mps2: f64,
    /// Maximum (emergency) deceleration ability in m/s² (positive number).
    pub max_decel_mps2: f64,
    /// First-order actuation (engine) lag time constant in seconds;
    /// `0` means commands take effect instantly.
    ///
    /// Plexe models driveline dynamics as a first-order lag; we default to
    /// its 0.5 s constant for platooning vehicles.
    pub actuation_lag_s: f64,
}
comfase_json::record!(ToJson for VehicleSpec {
    length_m, max_speed_mps, max_accel_mps2, max_decel_mps2, actuation_lag_s,
});

impl VehicleSpec {
    /// The platooning vehicle used in the paper's scenario (§IV-A.1):
    /// 4 m long, 50 m/s max speed, 2.5 m/s² acceleration ability,
    /// 9 m/s² deceleration ability.
    pub fn paper_platooning_car() -> Self {
        VehicleSpec {
            length_m: 4.0,
            max_speed_mps: 50.0,
            max_accel_mps2: 2.5,
            max_decel_mps2: 9.0,
            actuation_lag_s: 0.5,
        }
    }

    /// A generic passenger car with SUMO-like defaults, for background
    /// traffic.
    pub fn default_car() -> Self {
        VehicleSpec {
            length_m: 5.0,
            max_speed_mps: 38.0,
            max_accel_mps2: 2.6,
            max_decel_mps2: 4.5,
            actuation_lag_s: 0.0,
        }
    }

    /// Validates the physical plausibility of the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.length_m <= 0.0 {
            return Err(format!(
                "vehicle length must be positive, got {}",
                self.length_m
            ));
        }
        if self.max_speed_mps <= 0.0 {
            return Err(format!(
                "max speed must be positive, got {}",
                self.max_speed_mps
            ));
        }
        if self.max_accel_mps2 <= 0.0 {
            return Err(format!(
                "max accel must be positive, got {}",
                self.max_accel_mps2
            ));
        }
        if self.max_decel_mps2 <= 0.0 {
            return Err(format!(
                "max decel must be positive, got {}",
                self.max_decel_mps2
            ));
        }
        if self.actuation_lag_s < 0.0 {
            return Err(format!(
                "actuation lag cannot be negative, got {}",
                self.actuation_lag_s
            ));
        }
        Ok(())
    }
}

/// How a vehicle's commanded acceleration is produced each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// The built-in car-following model drives the vehicle.
    CarFollowing,
    /// An external controller (e.g. the platooning CACC, through the
    /// world's step event) sets the commanded acceleration.
    External,
}

/// Dynamic state of a vehicle.
///
/// `pos_m` is the position of the **front bumper** along the road; the rear
/// bumper is at `pos_m - spec.length_m`.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleState {
    /// Front-bumper position along the road, metres.
    pub pos_m: f64,
    /// Speed, m/s (never negative; vehicles do not reverse).
    pub speed_mps: f64,
    /// Realised acceleration, m/s² (negative = braking).
    pub accel_mps2: f64,
    /// Current lane.
    pub lane: LaneIndex,
}

/// A vehicle in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Vehicle {
    /// Identifier, unique per simulation.
    pub id: VehicleId,
    /// Static properties.
    pub spec: VehicleSpec,
    /// Dynamic state.
    pub state: VehicleState,
    /// Who produces the commanded acceleration.
    pub control_mode: ControlMode,
    /// Last commanded acceleration (before actuation lag / limits), m/s².
    pub commanded_accel_mps2: f64,
    /// Whether the vehicle is still active (not removed after a collision).
    pub active: bool,
}

impl Vehicle {
    /// Creates an active vehicle at the given position/lane, initially at
    /// `speed_mps` with zero acceleration, driven by its car-following model.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`VehicleSpec::validate`].
    pub fn new(
        id: VehicleId,
        spec: VehicleSpec,
        pos_m: f64,
        lane: LaneIndex,
        speed_mps: f64,
    ) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid vehicle spec for {id}: {e}");
        }
        Vehicle {
            id,
            spec,
            state: VehicleState {
                pos_m,
                speed_mps,
                accel_mps2: 0.0,
                lane,
            },
            control_mode: ControlMode::CarFollowing,
            commanded_accel_mps2: 0.0,
            active: true,
        }
    }

    /// Rear-bumper position along the road, metres.
    pub fn rear_pos_m(&self) -> f64 {
        self.state.pos_m - self.spec.length_m
    }

    /// Bumper-to-bumper gap to a vehicle ahead (its rear minus our front).
    /// Negative means overlap, i.e. a collision.
    pub fn gap_to(&self, leader: &Vehicle) -> f64 {
        leader.rear_pos_m() - self.state.pos_m
    }

    /// Switches the vehicle to external acceleration control.
    pub fn set_external_control(&mut self) {
        self.control_mode = ControlMode::External;
    }

    /// Sets the commanded acceleration (clamped later by dynamics).
    pub fn command_accel(&mut self, accel_mps2: f64) {
        self.commanded_accel_mps2 = accel_mps2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn veh(id: u32, pos: f64) -> Vehicle {
        Vehicle::new(
            VehicleId(id),
            VehicleSpec::paper_platooning_car(),
            pos,
            LaneIndex(0),
            20.0,
        )
    }

    #[test]
    fn paper_spec_matches_section_iv() {
        let s = VehicleSpec::paper_platooning_car();
        assert_eq!(s.length_m, 4.0);
        assert_eq!(s.max_speed_mps, 50.0);
        assert_eq!(s.max_accel_mps2, 2.5);
        assert_eq!(s.max_decel_mps2, 9.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn gap_geometry() {
        let follower = veh(2, 100.0);
        let leader = veh(1, 109.0);
        // leader rear = 105, follower front = 100 -> gap 5 m
        assert_eq!(follower.gap_to(&leader), 5.0);
        assert_eq!(leader.rear_pos_m(), 105.0);
    }

    #[test]
    fn negative_gap_means_overlap() {
        let follower = veh(2, 100.0);
        let leader = veh(1, 103.0); // rear at 99 < 100
        assert!(follower.gap_to(&leader) < 0.0);
    }

    #[test]
    fn control_mode_switch() {
        let mut v = veh(1, 0.0);
        assert_eq!(v.control_mode, ControlMode::CarFollowing);
        v.set_external_control();
        v.command_accel(-3.0);
        assert_eq!(v.control_mode, ControlMode::External);
        assert_eq!(v.commanded_accel_mps2, -3.0);
    }

    #[test]
    fn spec_validation_catches_nonsense() {
        let mut s = VehicleSpec::default_car();
        s.max_decel_mps2 = 0.0;
        assert!(s.validate().is_err());
        s = VehicleSpec::default_car();
        s.length_m = -1.0;
        assert!(s.validate().unwrap_err().contains("length"));
        s = VehicleSpec::default_car();
        s.actuation_lag_s = -0.1;
        assert!(s.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid vehicle spec")]
    fn constructor_rejects_invalid_spec() {
        let mut s = VehicleSpec::default_car();
        s.max_speed_mps = -5.0;
        Vehicle::new(VehicleId(1), s, 0.0, LaneIndex(0), 0.0);
    }

    #[test]
    fn display_id() {
        assert_eq!(VehicleId(2).to_string(), "veh.2");
    }
}
