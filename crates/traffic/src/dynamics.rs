//! Longitudinal vehicle dynamics: actuation lag, limits, and integration.
//!
//! Each simulation step turns a *commanded* acceleration (from a
//! car-following model or an external platooning controller) into a
//! *realised* acceleration and integrates speed and position:
//!
//! 1. the command is clamped to the vehicle's acceleration/deceleration
//!    ability;
//! 2. a first-order actuation (engine) lag filters the command, as in
//!    Plexe's realistic engine model (exact exponential discretisation, so
//!    the filter is stable for any step size);
//! 3. speed is integrated and clamped to `[0, max_speed]`;
//! 4. position advances ballistically with the average of old and new speed
//!    (SUMO semantics).

use crate::vehicle::{Vehicle, VehicleSpec};

/// Outcome of integrating one vehicle over one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Realised acceleration over the step, m/s².
    pub accel_mps2: f64,
    /// Speed at the end of the step, m/s.
    pub speed_mps: f64,
    /// Distance travelled during the step, m.
    pub distance_m: f64,
}

impl StepOutcome {
    /// True when every kinematic quantity of the step is finite.
    ///
    /// The release-mode numeric guard: `debug_assert`s catch non-finite
    /// kinematics during development, while [`is_finite`](Self::is_finite)
    /// lets the simulation loop detect the same divergence in `--release`
    /// builds and route it through the structured failure path
    /// (`FailureKind::NumericDiverged`) instead of silently poisoning
    /// downstream comparisons.
    pub fn is_finite(&self) -> bool {
        self.accel_mps2.is_finite() && self.speed_mps.is_finite() && self.distance_m.is_finite()
    }
}

/// Clamps a commanded acceleration to the vehicle's physical ability.
pub fn clamp_command(spec: &VehicleSpec, accel_cmd: f64) -> f64 {
    accel_cmd.clamp(-spec.max_decel_mps2, spec.max_accel_mps2)
}

/// The actuation lag's decay over one step of `dt_s` seconds,
/// `exp(-dt_s / lag_s)`: the exact solution of `a' = (cmd - a) / lag`
/// keeps this share of the gap between the realised and the commanded
/// acceleration. It depends on the lag and the step only, so a simulation
/// computes it once per distinct lag and step, not per vehicle. Only
/// meaningful for `lag_s > 0`.
pub fn lag_decay(lag_s: f64, dt_s: f64) -> f64 {
    (-dt_s / lag_s).exp()
}

/// Applies the first-order actuation lag to move the realised acceleration
/// toward the (already clamped) commanded one over one step whose decay is
/// `decay` ([`lag_decay`] of the spec's lag and the step length).
///
/// With `lag = 0` the command takes effect immediately and `decay` is not
/// read.
pub fn apply_actuation_lag(spec: &VehicleSpec, current: f64, commanded: f64, decay: f64) -> f64 {
    if spec.actuation_lag_s <= 0.0 {
        commanded
    } else {
        commanded + (current - commanded) * decay
    }
}

/// Integrates one vehicle over one step of `dt_s` seconds and returns what
/// happened. `decay` is [`lag_decay`]`(spec.actuation_lag_s, dt_s)` (not
/// read for a lag-free spec). Does not mutate the vehicle; see
/// [`step_vehicle`].
///
/// # Panics
///
/// Panics if `dt_s <= 0`.
pub fn integrate(
    spec: &VehicleSpec,
    speed: f64,
    accel: f64,
    commanded: f64,
    dt_s: f64,
    decay: f64,
) -> StepOutcome {
    assert!(dt_s > 0.0, "step size must be positive");
    // Sim sanitizer: a NaN/infinite kinematic input poisons every downstream
    // comparison (collision sorting, controller gains) in run-dependent ways.
    // NaN propagates through `clamp`, so a poisoned input always surfaces as
    // a non-finite outcome — the simulation loop checks
    // [`StepOutcome::is_finite`] after every step (in release builds too)
    // and reports divergence through the structured failure path.
    let cmd = clamp_command(spec, commanded);
    let mut a = apply_actuation_lag(spec, accel, cmd, decay);
    a = clamp_command(spec, a);
    let raw_speed = speed + a * dt_s;
    let new_speed = raw_speed.clamp(0.0, spec.max_speed_mps);
    // If the speed clamped (e.g. braking to a stop), report the acceleration
    // actually realised, not the commanded one.
    let realised = (new_speed - speed) / dt_s;
    let distance = (speed + new_speed) / 2.0 * dt_s;
    StepOutcome {
        accel_mps2: realised,
        speed_mps: new_speed,
        distance_m: distance,
    }
}

/// Integrates a [`Vehicle`] in place over `dt_s` seconds using its current
/// commanded acceleration; `decay` as for [`integrate`].
pub fn step_vehicle(vehicle: &mut Vehicle, dt_s: f64, decay: f64) -> StepOutcome {
    let out = integrate(
        &vehicle.spec,
        vehicle.state.speed_mps,
        vehicle.state.accel_mps2,
        vehicle.commanded_accel_mps2,
        dt_s,
        decay,
    );
    vehicle.state.speed_mps = out.speed_mps;
    vehicle.state.accel_mps2 = out.accel_mps2;
    vehicle.state.pos_m += out.distance_m;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LaneIndex;
    use crate::vehicle::VehicleId;

    /// [`integrate`] with the decay its lag implies.
    fn integrate(
        spec: &VehicleSpec,
        speed: f64,
        accel: f64,
        commanded: f64,
        dt_s: f64,
    ) -> StepOutcome {
        super::integrate(
            spec,
            speed,
            accel,
            commanded,
            dt_s,
            lag_decay(spec.actuation_lag_s, dt_s),
        )
    }

    fn lagless_spec() -> VehicleSpec {
        VehicleSpec {
            actuation_lag_s: 0.0,
            ..VehicleSpec::paper_platooning_car()
        }
    }

    #[test]
    fn command_clamping() {
        let s = lagless_spec();
        assert_eq!(clamp_command(&s, 100.0), 2.5);
        assert_eq!(clamp_command(&s, -100.0), -9.0);
        assert_eq!(clamp_command(&s, 1.0), 1.0);
    }

    #[test]
    fn constant_accel_integration() {
        let s = lagless_spec();
        let out = integrate(&s, 10.0, 0.0, 2.0, 0.1);
        assert!((out.speed_mps - 10.2).abs() < 1e-12);
        assert!((out.accel_mps2 - 2.0).abs() < 1e-12);
        assert!((out.distance_m - 1.01).abs() < 1e-12);
    }

    #[test]
    fn speed_never_goes_negative() {
        let s = lagless_spec();
        let out = integrate(&s, 0.5, 0.0, -9.0, 0.1);
        assert_eq!(out.speed_mps, 0.0);
        // Realised decel is only what was needed to stop.
        assert!((out.accel_mps2 - (-5.0)).abs() < 1e-12);
        assert!(out.distance_m > 0.0);
    }

    #[test]
    fn speed_caps_at_max() {
        let s = lagless_spec();
        let out = integrate(&s, 49.99, 0.0, 2.5, 0.1);
        assert_eq!(out.speed_mps, 50.0);
        assert!(out.accel_mps2 < 2.5);
    }

    #[test]
    fn actuation_lag_filters_command() {
        let s = VehicleSpec::paper_platooning_car(); // lag 0.5 s
        let a1 = apply_actuation_lag(&s, 0.0, 2.0, lag_decay(s.actuation_lag_s, 0.1));
        // One 0.1 s step toward 2.0 with tau 0.5: 2*(1 - e^-0.2) ~ 0.3625
        assert!((a1 - 2.0 * (1.0 - (-0.2f64).exp())).abs() < 1e-12);
        assert!(a1 > 0.0 && a1 < 2.0);
    }

    #[test]
    fn lag_converges_to_command() {
        let s = VehicleSpec::paper_platooning_car();
        let decay = lag_decay(s.actuation_lag_s, 0.01);
        let mut a = 0.0;
        for _ in 0..1000 {
            a = apply_actuation_lag(&s, a, 2.0, decay);
        }
        assert!((a - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_lag_is_instant() {
        let s = lagless_spec();
        assert_eq!(apply_actuation_lag(&s, 0.0, 2.0, 0.5), 2.0);
    }

    #[test]
    fn step_vehicle_mutates_state() {
        let mut v = Vehicle::new(VehicleId(1), lagless_spec(), 100.0, LaneIndex(0), 20.0);
        v.command_accel(1.0);
        let out = step_vehicle(&mut v, 0.01, 0.0);
        assert_eq!(v.state.speed_mps, out.speed_mps);
        assert!((v.state.pos_m - 100.0 - out.distance_m).abs() < 1e-12);
        assert!(v.state.accel_mps2 > 0.0);
    }

    #[test]
    fn ballistic_position_update() {
        // Braking from 10 m/s at -5 m/s^2 over 2 s covers 10 m, not 20.
        let s = lagless_spec();
        let mut speed = 10.0;
        let mut accel = 0.0;
        let mut pos = 0.0;
        for _ in 0..200 {
            let out = integrate(&s, speed, accel, -5.0, 0.01);
            speed = out.speed_mps;
            accel = out.accel_mps2;
            pos += out.distance_m;
        }
        assert_eq!(speed, 0.0);
        assert!((pos - 10.0).abs() < 0.05, "pos {pos}");
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn zero_dt_rejected() {
        integrate(&lagless_spec(), 0.0, 0.0, 0.0, 0.0);
    }
}
