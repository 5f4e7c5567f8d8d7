//! Longitudinal platooning controllers, after Plexe (Segata et al. 2014).
//!
//! Four controllers are provided:
//!
//! - [`PathCacc`] — the constant-spacing CACC of Rajamani used as Plexe's
//!   default `CACC` and referenced by the paper's scenario ("CACC
//!   (cooperative adaptive cruise control) as a controller"): it fuses
//!   radar measurements with **radio data from the predecessor and the
//!   platoon leader**, which is what makes it sensitive to V2V attacks;
//! - [`MsCacc`] — the gap-regulation CACC of Milanés & Shladover (the
//!   paper's reference \[30\]);
//! - [`Ploeg`] — the time-gap CACC of Ploeg et al. with predecessor
//!   acceleration feedforward;
//! - [`Acc`] — a radar-only adaptive cruise control baseline that ignores
//!   V2V data entirely (the resilient comparison point used by related
//!   work).
//!
//! Controllers are pure functions of their inputs plus (for MS-CACC and
//! Ploeg) a small internal state, held by value in [`Controller`]; beacon
//! bookkeeping lives in [`crate::app`].

/// Ego vehicle state as seen by a controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoState {
    /// Ego speed, m/s.
    pub speed_mps: f64,
    /// Ego realised acceleration, m/s².
    pub accel_mps2: f64,
}

/// Radar measurement of the vehicle ahead (attack-free, on-board sensor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarReading {
    /// Bumper-to-bumper gap, metres.
    pub gap_m: f64,
    /// Relative speed `ego - predecessor`, m/s (positive = closing).
    pub closing_speed_mps: f64,
}

/// Data received over V2V radio (the attack surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioData {
    /// Predecessor speed, m/s.
    pub pred_speed_mps: f64,
    /// Predecessor acceleration, m/s².
    pub pred_accel_mps2: f64,
    /// Leader speed, m/s.
    pub leader_speed_mps: f64,
    /// Leader acceleration, m/s².
    pub leader_accel_mps2: f64,
}

/// Everything a follower controller may consume in one control step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerInput {
    /// Ego state (on-board).
    pub ego: EgoState,
    /// Radar measurement (on-board, attack-free).
    pub radar: RadarReading,
    /// Latest V2V knowledge. With no security mechanisms the values are
    /// simply the last decoded beacons — stale or forged under attack.
    pub radio: RadioData,
    /// Control step, seconds.
    pub dt_s: f64,
}

/// A longitudinal platooning controller for follower vehicles, with its
/// parameters and internal state. It is `Copy`, so snapshotting a running
/// follower application copies the controller state by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Controller {
    /// Constant-spacing CACC (Plexe default).
    PathCacc(PathCacc),
    /// Milanés–Shladover CACC.
    MsCacc(MsCacc),
    /// Ploeg CACC.
    Ploeg(Ploeg),
    /// Radar-only ACC.
    Acc(Acc),
}

impl Controller {
    /// Desired acceleration for this step, m/s² (clamped by dynamics).
    pub fn desired_accel(&mut self, input: &ControllerInput) -> f64 {
        match self {
            Controller::PathCacc(c) => c.desired_accel(input),
            Controller::MsCacc(c) => c.desired_accel(input),
            Controller::Ploeg(c) => c.desired_accel(input),
            Controller::Acc(c) => c.desired_accel(input),
        }
    }
}

/// Constant-spacing CACC (Rajamani), Plexe's `CACC` controller.
///
/// `a = α₁·a_pred + α₂·a_lead + α₃·ε̇ + α₄·(v − v_lead) + α₅·ε` with
/// `ε = gap_des − gap` (positive when too close), `ε̇` the closing speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCacc {
    /// Desired constant bumper-to-bumper spacing, metres (Plexe default 5).
    pub spacing_m: f64,
    /// Weight of leader vs predecessor feedforward, `C1` (default 0.5).
    pub c1: f64,
    /// Controller bandwidth ω_n, rad/s (Plexe default 0.2).
    pub omega_n: f64,
    /// Damping ratio ξ (Plexe default 1.0).
    pub xi: f64,
}

impl Default for PathCacc {
    fn default() -> Self {
        PathCacc {
            spacing_m: 5.0,
            c1: 0.5,
            omega_n: 0.2,
            xi: 1.0,
        }
    }
}

impl PathCacc {
    /// The controller gains `(α1, α2, α3, α4, α5)`.
    pub fn gains(&self) -> (f64, f64, f64, f64, f64) {
        let root = (self.xi * self.xi - 1.0).max(0.0).sqrt();
        let alpha1 = 1.0 - self.c1;
        let alpha2 = self.c1;
        let alpha3 = -(2.0 * self.xi - self.c1 * (self.xi + root)) * self.omega_n;
        let alpha4 = -self.c1 * (self.xi + root) * self.omega_n;
        let alpha5 = -self.omega_n * self.omega_n;
        (alpha1, alpha2, alpha3, alpha4, alpha5)
    }

    /// Desired acceleration for this step, m/s².
    pub fn desired_accel(&mut self, input: &ControllerInput) -> f64 {
        let (a1, a2, a3, a4, a5) = self.gains();
        // ε as in Rajamani: positive when the gap is smaller than desired.
        let epsilon = self.spacing_m - input.radar.gap_m;
        let epsilon_dot = input.radar.closing_speed_mps;
        a1 * input.radio.pred_accel_mps2
            + a2 * input.radio.leader_accel_mps2
            + a3 * epsilon_dot
            + a4 * (input.ego.speed_mps - input.radio.leader_speed_mps)
            + a5 * epsilon
    }
}

/// Gap-regulation CACC of Milanés & Shladover (paper reference \[30\]).
///
/// Velocity-based: the speed setpoint integrates a PD law on the time-gap
/// error, using the **radio** predecessor speed for the derivative term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsCacc {
    /// Desired time gap, seconds (0.6 s in the original experiments).
    pub time_gap_s: f64,
    /// Standstill spacing, metres.
    pub standstill_m: f64,
    /// Proportional gain on the gap error.
    pub kp: f64,
    /// Derivative gain on the gap-error rate.
    pub kd: f64,
    /// Internal speed setpoint, m/s (initialised from the first input).
    setpoint_mps: Option<f64>,
}

impl Default for MsCacc {
    fn default() -> Self {
        MsCacc {
            time_gap_s: 0.6,
            standstill_m: 2.0,
            kp: 0.45,
            kd: 0.25,
            setpoint_mps: None,
        }
    }
}

impl MsCacc {
    /// Desired acceleration for this step, m/s².
    pub fn desired_accel(&mut self, input: &ControllerInput) -> f64 {
        let v = input.ego.speed_mps;
        let setpoint = self.setpoint_mps.get_or_insert(v);
        let gap_err = input.radar.gap_m - self.standstill_m - self.time_gap_s * v;
        let gap_err_rate = input.radio.pred_speed_mps - v - self.time_gap_s * input.ego.accel_mps2;
        *setpoint += (self.kp * gap_err + self.kd * gap_err_rate) * input.dt_s;
        // Convert the speed setpoint to an acceleration command with a
        // proportional inner loop (Plexe uses the engine's own loop).
        (*setpoint - v) / input.dt_s.max(1e-3) * 0.1
    }
}

/// Time-gap CACC of Ploeg et al. with predecessor acceleration feedforward
/// over the radio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ploeg {
    /// Desired time gap `h`, seconds (Plexe default 0.5).
    pub time_gap_s: f64,
    /// Standstill spacing, metres.
    pub standstill_m: f64,
    /// Position-error gain.
    pub kp: f64,
    /// Speed-error gain.
    pub kd: f64,
    /// Internal desired-acceleration state (the controller is dynamic).
    u_mps2: f64,
}

impl Default for Ploeg {
    fn default() -> Self {
        Ploeg {
            time_gap_s: 0.5,
            standstill_m: 2.0,
            kp: 0.2,
            kd: 0.7,
            u_mps2: 0.0,
        }
    }
}

impl Ploeg {
    /// Desired acceleration for this step, m/s².
    pub fn desired_accel(&mut self, input: &ControllerInput) -> f64 {
        let e = input.radar.gap_m - self.standstill_m - self.time_gap_s * input.ego.speed_mps;
        let e_dot = -input.radar.closing_speed_mps - self.time_gap_s * input.ego.accel_mps2;
        // ḣu = (1/h)(−u + kp·e + kd·ė + a_pred)
        let u_dot = (self.kp * e + self.kd * e_dot + input.radio.pred_accel_mps2 - self.u_mps2)
            / self.time_gap_s;
        self.u_mps2 += u_dot * input.dt_s;
        self.u_mps2
    }
}

/// Radar-only adaptive cruise control (no V2V inputs at all).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acc {
    /// Desired time gap, seconds.
    pub time_gap_s: f64,
    /// Standstill spacing, metres.
    pub standstill_m: f64,
    /// Gap-error gain (1/s²).
    pub k1: f64,
    /// Closing-speed gain (1/s).
    pub k2: f64,
}

impl Default for Acc {
    fn default() -> Self {
        Acc {
            time_gap_s: 1.2,
            standstill_m: 2.0,
            k1: 0.23,
            k2: 0.74,
        }
    }
}

impl Acc {
    /// Desired acceleration for this step, m/s².
    pub fn desired_accel(&mut self, input: &ControllerInput) -> f64 {
        let desired_gap = self.standstill_m + self.time_gap_s * input.ego.speed_mps;
        self.k1 * (input.radar.gap_m - desired_gap) - self.k2 * input.radar.closing_speed_mps
    }
}

/// Selects a controller by name — the paper's `vehicleFeatures.controller`
/// configuration knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerKind {
    /// Constant-spacing CACC (Plexe default).
    #[default]
    PathCacc,
    /// Milanés–Shladover CACC.
    MsCacc,
    /// Ploeg CACC.
    Ploeg,
    /// Radar-only ACC.
    Acc,
}
comfase_json::variants!(ToJson for ControllerKind { PathCacc, MsCacc, Ploeg, Acc });

impl ControllerKind {
    /// Instantiates the controller with its default parameters.
    pub fn build(self) -> Controller {
        match self {
            ControllerKind::PathCacc => Controller::PathCacc(PathCacc::default()),
            ControllerKind::MsCacc => Controller::MsCacc(MsCacc::default()),
            ControllerKind::Ploeg => Controller::Ploeg(Ploeg::default()),
            ControllerKind::Acc => Controller::Acc(Acc::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_input(gap: f64) -> ControllerInput {
        ControllerInput {
            ego: EgoState {
                speed_mps: 27.78,
                accel_mps2: 0.0,
            },
            radar: RadarReading {
                gap_m: gap,
                closing_speed_mps: 0.0,
            },
            radio: RadioData {
                pred_speed_mps: 27.78,
                pred_accel_mps2: 0.0,
                leader_speed_mps: 27.78,
                leader_accel_mps2: 0.0,
            },
            dt_s: 0.01,
        }
    }

    #[test]
    fn path_cacc_gains_match_plexe_defaults() {
        let c = PathCacc::default();
        let (a1, a2, a3, a4, a5) = c.gains();
        assert_eq!(a1, 0.5);
        assert_eq!(a2, 0.5);
        assert!((a3 - (-0.3)).abs() < 1e-12);
        assert!((a4 - (-0.1)).abs() < 1e-12);
        assert!((a5 - (-0.04)).abs() < 1e-12);
    }

    #[test]
    fn path_cacc_steady_state_is_zero() {
        let mut c = PathCacc::default();
        let a = c.desired_accel(&steady_input(5.0));
        assert!(a.abs() < 1e-12, "at design spacing and equal speeds: {a}");
    }

    #[test]
    fn path_cacc_brakes_when_too_close() {
        let mut c = PathCacc::default();
        let a = c.desired_accel(&steady_input(3.0));
        assert!(a < 0.0, "2 m too close must brake: {a}");
    }

    #[test]
    fn path_cacc_follows_leader_feedforward() {
        let mut c = PathCacc::default();
        let mut input = steady_input(5.0);
        input.radio.leader_accel_mps2 = 2.0;
        input.radio.pred_accel_mps2 = 2.0;
        let a = c.desired_accel(&input);
        assert!((a - 2.0).abs() < 1e-12, "pure feedforward: {a}");
    }

    #[test]
    fn path_cacc_reacts_to_closing_speed() {
        let mut c = PathCacc::default();
        let mut input = steady_input(5.0);
        input.radar.closing_speed_mps = 2.0;
        assert!(c.desired_accel(&input) < 0.0);
    }

    #[test]
    fn stale_feedforward_is_the_attack_mechanism() {
        // Leader is braking hard, but the radio snapshot still says +1.5:
        // the controller accelerates into the gap. This is the paper's
        // §IV-C.1 explanation of why attacks during high acceleration
        // phases are severe.
        let mut c = PathCacc::default();
        let mut input = steady_input(5.0);
        input.radio.leader_accel_mps2 = 1.5; // stale
        input.radio.pred_accel_mps2 = 1.5; // stale
        let a = c.desired_accel(&input);
        assert!(a > 1.0, "stale data causes acceleration: {a}");
    }

    #[test]
    fn ms_cacc_regulates_time_gap() {
        // 27.78 m/s * 0.6 s + 2 m standstill = 18.67 m desired gap.
        let tight = MsCacc::default().desired_accel(&steady_input(10.0));
        let wide = MsCacc::default().desired_accel(&steady_input(30.0));
        assert!(tight < 0.0, "too close: {tight}");
        assert!(wide > 0.0, "too far: {wide}");
    }

    #[test]
    fn ploeg_converges_to_time_gap() {
        let mut c = Ploeg::default();
        // Simulate a crude closed loop: speed adjusts with commanded accel.
        let mut speed: f64 = 20.0;
        let mut gap: f64 = 30.0;
        let pred_speed = 20.0;
        let dt = 0.01;
        for _ in 0..20_000 {
            let input = ControllerInput {
                ego: EgoState {
                    speed_mps: speed,
                    accel_mps2: 0.0,
                },
                radar: RadarReading {
                    gap_m: gap,
                    closing_speed_mps: speed - pred_speed,
                },
                radio: RadioData {
                    pred_speed_mps: pred_speed,
                    pred_accel_mps2: 0.0,
                    leader_speed_mps: pred_speed,
                    leader_accel_mps2: 0.0,
                },
                dt_s: dt,
            };
            let a = c.desired_accel(&input).clamp(-6.0, 2.5);
            speed = (speed + a * dt).max(0.0);
            gap += (pred_speed - speed) * dt;
        }
        let desired = 2.0 + 0.5 * speed;
        assert!((gap - desired).abs() < 0.5, "gap {gap} desired {desired}");
        assert!((speed - pred_speed).abs() < 0.1, "speed {speed}");
    }

    #[test]
    fn acc_ignores_radio() {
        let mut c = Acc::default();
        let mut input = steady_input(2.0 + 1.2 * 27.78);
        let base = c.desired_accel(&input);
        input.radio.leader_accel_mps2 = 99.0;
        input.radio.pred_accel_mps2 = -99.0;
        assert_eq!(
            c.desired_accel(&input),
            base,
            "ACC must not read radio data"
        );
    }

    #[test]
    fn acc_steady_at_design_gap() {
        let mut c = Acc::default();
        let input = steady_input(2.0 + 1.2 * 27.78);
        assert!(c.desired_accel(&input).abs() < 1e-9);
    }

    #[test]
    fn kind_builds_all_controllers() {
        assert_eq!(
            ControllerKind::PathCacc.build(),
            Controller::PathCacc(PathCacc::default())
        );
        assert_eq!(
            ControllerKind::MsCacc.build(),
            Controller::MsCacc(MsCacc::default())
        );
        assert_eq!(
            ControllerKind::Ploeg.build(),
            Controller::Ploeg(Ploeg::default())
        );
        assert_eq!(ControllerKind::Acc.build(), Controller::Acc(Acc::default()));
    }
}
