//! Leader maneuvers — the paper's `scenarioManeuver` configuration.
//!
//! The platoon leader tracks a time-varying desired speed produced by a
//! maneuver; followers track the leader through their controllers. The
//! paper's demonstration uses a **sinusoidal** maneuver ("the vehicles
//! accelerate and decelerate in a sinusoidal fashion") with a 5 s driving
//! cycle (attack start times 17.0–21.8 s span "one complete platooning
//! cycle").

use comfase_des::time::SimTime;

/// A leader speed profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Maneuver {
    /// Constant cruise speed.
    ConstantSpeed(ConstantSpeed),
    /// The paper's sinusoidal oscillation.
    Sinusoidal(Sinusoidal),
    /// Cruise, then brake hard.
    Braking(Braking),
}

impl Maneuver {
    /// Desired leader speed at `t`, m/s.
    pub fn desired_speed(&self, t: SimTime) -> f64 {
        match self {
            Maneuver::ConstantSpeed(m) => m.desired_speed(t),
            Maneuver::Sinusoidal(m) => m.desired_speed(t),
            Maneuver::Braking(m) => m.desired_speed(t),
        }
    }

    /// Desired leader acceleration at `t` (feedforward), m/s².
    pub fn desired_accel(&self, t: SimTime) -> f64 {
        match self {
            Maneuver::ConstantSpeed(m) => m.desired_accel(t),
            Maneuver::Sinusoidal(m) => m.desired_accel(t),
            Maneuver::Braking(m) => m.desired_accel(t),
        }
    }
}

/// Constant cruise speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSpeed {
    /// Cruise speed, m/s.
    pub speed_mps: f64,
}

impl ConstantSpeed {
    /// Desired leader speed at `t`, m/s.
    pub fn desired_speed(&self, _t: SimTime) -> f64 {
        self.speed_mps
    }

    /// Desired leader acceleration at `t`, m/s².
    pub fn desired_accel(&self, _t: SimTime) -> f64 {
        0.0
    }
}

/// Sinusoidal speed oscillation around a base speed (the paper's scenario).
///
/// `v(t) = base + A·sin(2πf·(t − start))` for `t >= start`, constant `base`
/// before. With the defaults below the platoon's driving cycle boundaries
/// land on 17.0 s, 22.0 s, … matching the paper's attack start window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sinusoidal {
    /// Base speed, m/s.
    pub base_mps: f64,
    /// Oscillation amplitude, m/s.
    pub amplitude_mps: f64,
    /// Oscillation frequency, Hz.
    pub freq_hz: f64,
    /// Oscillation onset.
    pub start: SimTime,
}

impl Sinusoidal {
    /// The paper-calibrated sinusoidal maneuver: 100 km/h base speed,
    /// 0.2 Hz (5 s cycle) starting at t = 2 s. The amplitude is calibrated
    /// so the **realised** golden-run maximum deceleration lands near the
    /// 1.53 m/s² the paper reports: the feedforward peak is A·ω ≈ 1.19,
    /// and the followers' actuation lag overshoots by ~29%, giving ≈ 1.53.
    pub fn paper_default() -> Self {
        Sinusoidal {
            base_mps: 27.78,
            amplitude_mps: 0.95,
            freq_hz: 0.2,
            start: SimTime::from_secs(2),
        }
    }

    fn omega(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.freq_hz
    }

    /// Desired leader speed at `t`, m/s.
    pub fn desired_speed(&self, t: SimTime) -> f64 {
        if t < self.start {
            return self.base_mps;
        }
        let dt = (t - self.start).as_secs_f64();
        self.base_mps + self.amplitude_mps * (self.omega() * dt).sin()
    }

    /// Desired leader acceleration at `t`, m/s².
    pub fn desired_accel(&self, t: SimTime) -> f64 {
        if t < self.start {
            return 0.0;
        }
        let dt = (t - self.start).as_secs_f64();
        self.amplitude_mps * self.omega() * (self.omega() * dt).cos()
    }
}

/// Cruise, then brake hard at a fixed time — an emergency-braking scenario
/// for tests and examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Braking {
    /// Cruise speed before braking, m/s.
    pub cruise_mps: f64,
    /// When braking begins.
    pub brake_at: SimTime,
    /// Braking strength, m/s² (positive number).
    pub decel_mps2: f64,
}

impl Braking {
    /// Desired leader speed at `t`, m/s.
    pub fn desired_speed(&self, t: SimTime) -> f64 {
        if t < self.brake_at {
            self.cruise_mps
        } else {
            (self.cruise_mps - self.decel_mps2 * (t - self.brake_at).as_secs_f64()).max(0.0)
        }
    }

    /// Desired leader acceleration at `t`, m/s².
    pub fn desired_accel(&self, t: SimTime) -> f64 {
        if t < self.brake_at || self.desired_speed(t) <= 0.0 {
            0.0
        } else {
            -self.decel_mps2
        }
    }
}

/// The leader's cruise controller: proportional speed tracking with the
/// maneuver's acceleration feedforward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderControl {
    /// Proportional gain on the speed error, 1/s.
    pub kp: f64,
}

impl Default for LeaderControl {
    fn default() -> Self {
        LeaderControl { kp: 1.0 }
    }
}

impl LeaderControl {
    /// Commanded acceleration for the leader at `t` given its current speed.
    pub fn accel(&self, maneuver: &Maneuver, t: SimTime, speed_mps: f64) -> f64 {
        maneuver.desired_accel(t) + self.kp * (maneuver.desired_speed(t) - speed_mps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_is_flat() {
        let m = ConstantSpeed { speed_mps: 25.0 };
        assert_eq!(m.desired_speed(SimTime::ZERO), 25.0);
        assert_eq!(m.desired_speed(SimTime::from_secs(100)), 25.0);
        assert_eq!(m.desired_accel(SimTime::from_secs(3)), 0.0);
    }

    #[test]
    fn sinusoidal_cycle_boundaries_match_paper_window() {
        let m = Sinusoidal::paper_default();
        // t = 17 s is 15 s = 3 full cycles after onset: speed at base,
        // acceleration at its maximum (start of a new cycle).
        let v17 = m.desired_speed(SimTime::from_secs(17));
        let a17 = m.desired_accel(SimTime::from_secs(17));
        assert!((v17 - m.base_mps).abs() < 1e-9);
        assert!((a17 - m.amplitude_mps * m.omega()).abs() < 1e-9);
        // One full cycle later the profile repeats.
        let v22 = m.desired_speed(SimTime::from_secs(22));
        assert!((v22 - v17).abs() < 1e-9);
    }

    #[test]
    fn sinusoidal_peak_accel_matches_golden_run_target() {
        let m = Sinusoidal::paper_default();
        // Feedforward peak A·ω ~ 1.19 m/s²; with the ~29% follower
        // overshoot the realised golden-run maximum lands near the paper's
        // 1.53 m/s² (asserted end-to-end in the core crate's calibration).
        let peak = m.amplitude_mps * m.omega();
        assert!((1.1..=1.3).contains(&peak), "feedforward peak accel {peak}");
    }

    #[test]
    fn sinusoidal_constant_before_onset() {
        let m = Sinusoidal::paper_default();
        assert_eq!(m.desired_speed(SimTime::from_secs(1)), m.base_mps);
        assert_eq!(m.desired_accel(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn sinusoidal_zero_accel_phase_exists_in_cycle() {
        // The paper observes a low-severity window where acceleration is
        // near zero; that's a quarter and three quarters into the cycle.
        let m = Sinusoidal::paper_default();
        let quarter = SimTime::from_secs_f64(17.0 + 1.25);
        assert!(m.desired_accel(quarter).abs() < 1e-9);
    }

    #[test]
    fn braking_profile() {
        let m = Braking {
            cruise_mps: 30.0,
            brake_at: SimTime::from_secs(10),
            decel_mps2: 6.0,
        };
        assert_eq!(m.desired_speed(SimTime::from_secs(9)), 30.0);
        assert_eq!(m.desired_speed(SimTime::from_secs(12)), 18.0);
        assert_eq!(m.desired_speed(SimTime::from_secs(100)), 0.0);
        assert_eq!(m.desired_accel(SimTime::from_secs(100)), 0.0);
        assert_eq!(m.desired_accel(SimTime::from_secs(11)), -6.0);
    }

    #[test]
    fn leader_control_tracks_desired_speed() {
        let ctl = LeaderControl::default();
        let m = Maneuver::ConstantSpeed(ConstantSpeed { speed_mps: 30.0 });
        // Below target -> accelerate; above -> brake.
        assert!(ctl.accel(&m, SimTime::ZERO, 25.0) > 0.0);
        assert!(ctl.accel(&m, SimTime::ZERO, 35.0) < 0.0);
        assert_eq!(ctl.accel(&m, SimTime::ZERO, 30.0), 0.0);
    }

    #[test]
    fn leader_control_uses_feedforward() {
        let ctl = LeaderControl::default();
        let m = Sinusoidal::paper_default();
        let t = SimTime::from_secs(17);
        // At the cycle start the speed matches base, so the command is
        // exactly the feedforward.
        let a = ctl.accel(&Maneuver::Sinusoidal(m), t, m.base_mps);
        assert!((a - m.desired_accel(t)).abs() < 1e-9);
    }
}
