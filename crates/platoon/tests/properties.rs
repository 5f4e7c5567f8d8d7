//! Property tests for the platooning substrate.
//!
//! Every property runs `CASES` fixed cases: case `case` draws its inputs
//! from `RngStream::derive(SEED, StreamId(case))`, and a failure message
//! names the case and its inputs.

use comfase_des::rng::{RngStream, StreamId};
use comfase_des::time::SimTime;
use comfase_platoon::beacon::PlatoonBeacon;
use comfase_platoon::controller::{
    Acc, Controller, ControllerInput, EgoState, MsCacc, PathCacc, Ploeg, RadarReading, RadioData,
};
use comfase_platoon::maneuver::Sinusoidal;
use comfase_platoon::monitor::{MonitorDecision, SafetyMonitor, SafetyMonitorConfig};
use comfase_platoon::platoon::PlatoonSpec;

const SEED: u64 = 42;
const CASES: u64 = 256;

/// A bounded controller input: speeds in [0, 40) m/s, accelerations in
/// [-9, 2.5) m/s², gap in [0.1, 100) m, closing speed in [-10, 10) m/s.
fn arb_input(g: &mut RngStream) -> ControllerInput {
    ControllerInput {
        ego: EgoState {
            speed_mps: g.uniform_range(0.0, 40.0),
            accel_mps2: g.uniform_range(-9.0, 2.5),
        },
        radar: RadarReading {
            gap_m: g.uniform_range(0.1, 100.0),
            closing_speed_mps: g.uniform_range(-10.0, 10.0),
        },
        radio: RadioData {
            pred_speed_mps: g.uniform_range(0.0, 40.0),
            pred_accel_mps2: g.uniform_range(-9.0, 2.5),
            leader_speed_mps: g.uniform_range(0.0, 40.0),
            leader_accel_mps2: g.uniform_range(-9.0, 2.5),
        },
        dt_s: 0.01,
    }
}

/// Beacons round-trip any finite values.
#[test]
fn beacon_round_trip() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let b = PlatoonBeacon {
            vehicle: g.next_u64() as u32,
            pos_m: g.uniform_range(-1.0e6, 1.0e6),
            speed_mps: g.uniform_range(-100.0, 100.0),
            accel_mps2: g.uniform_range(-20.0, 20.0),
            sampled: SimTime::from_nanos(g.below(1_000_000_000_000) as i64),
        };
        assert_eq!(
            PlatoonBeacon::decode(&b.encode()).unwrap(),
            b,
            "case {case}"
        );
    }
}

/// Every controller produces a finite command for bounded inputs.
#[test]
fn controllers_are_finite() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let input = arb_input(&mut g);
        for mut c in [
            Controller::PathCacc(PathCacc::default()),
            Controller::MsCacc(MsCacc::default()),
            Controller::Ploeg(Ploeg::default()),
            Controller::Acc(Acc::default()),
        ] {
            let a = c.desired_accel(&input);
            assert!(
                a.is_finite(),
                "case {case}: {c:?} produced {a} for {input:?}"
            );
        }
    }
}

/// PATH CACC gain identities hold for any valid parameterisation.
#[test]
fn path_cacc_gain_identities() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let c1 = g.uniform_range(0.01, 0.99);
        let omega = g.uniform_range(0.05, 2.0);
        let xi = g.uniform_range(1.0, 3.0);
        let inputs = format!("case {case}: c1 {c1} omega {omega} xi {xi}");
        let cacc = PathCacc {
            spacing_m: 5.0,
            c1,
            omega_n: omega,
            xi,
        };
        let (a1, a2, a3, a4, a5) = cacc.gains();
        assert!(
            (a1 + a2 - 1.0).abs() < 1e-12,
            "{inputs}: feedforward weights sum to 1"
        );
        assert!((a5 + omega * omega).abs() < 1e-12, "{inputs}");
        assert!(a3 < 0.0, "{inputs}: damping gains are negative");
        assert!(a4 < 0.0, "{inputs}");
    }
}

/// PATH CACC is at rest exactly at the design point.
#[test]
fn path_cacc_equilibrium() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let speed = g.uniform_range(1.0, 40.0);
        let spacing = g.uniform_range(2.0, 20.0);
        let mut cacc = PathCacc {
            spacing_m: spacing,
            ..PathCacc::default()
        };
        let input = ControllerInput {
            ego: EgoState {
                speed_mps: speed,
                accel_mps2: 0.0,
            },
            radar: RadarReading {
                gap_m: spacing,
                closing_speed_mps: 0.0,
            },
            radio: RadioData {
                pred_speed_mps: speed,
                pred_accel_mps2: 0.0,
                leader_speed_mps: speed,
                leader_accel_mps2: 0.0,
            },
            dt_s: 0.01,
        };
        let a = cacc.desired_accel(&input);
        assert!(
            a.abs() < 1e-12,
            "case {case}: {a} at speed {speed}, spacing {spacing}"
        );
    }
}

/// ACC never reads the (attackable) radio inputs.
#[test]
fn acc_is_radio_independent() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let input = arb_input(&mut g);
        let fake = g.uniform_range(-100.0, 100.0);
        let mut acc = Acc::default();
        let base = acc.desired_accel(&input);
        let mut perturbed = input;
        perturbed.radio = RadioData {
            pred_speed_mps: fake,
            pred_accel_mps2: -fake,
            leader_speed_mps: fake * 2.0,
            leader_accel_mps2: fake / 2.0,
        };
        assert_eq!(
            acc.desired_accel(&perturbed),
            base,
            "case {case}: fake {fake} into {input:?}"
        );
    }
}

/// The sinusoidal maneuver is periodic and bounded.
#[test]
fn sinusoid_periodic() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let t = g.uniform_range(2.0, 100.0);
        let m = Sinusoidal::paper_default();
        let period = 1.0 / m.freq_hz;
        let v1 = m.desired_speed(SimTime::from_secs_f64(t));
        let v2 = m.desired_speed(SimTime::from_secs_f64(t + period));
        assert!((v1 - v2).abs() < 1e-9, "case {case}: t {t}");
        assert!(
            (v1 - m.base_mps).abs() <= m.amplitude_mps + 1e-9,
            "case {case}: t {t}"
        );
    }
}

/// The monitor passes exactly when no hazard exists (unlatched).
#[test]
fn monitor_decision_matches_definition() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let gap = g.uniform_range(0.1, 100.0);
        let closing = g.uniform_range(-10.0, 10.0);
        let cfg = SafetyMonitorConfig::default();
        let mut m = SafetyMonitor::new(cfg);
        let radar = RadarReading {
            gap_m: gap,
            closing_speed_mps: closing,
        };
        let ttc = if closing > 1e-6 {
            gap / closing
        } else {
            f64::INFINITY
        };
        let hazard = ttc < cfg.ttc_threshold_s || gap < cfg.min_gap_m;
        let inputs = format!("case {case}: gap {gap} closing {closing}");
        match m.check(Some(&radar)) {
            MonitorDecision::Pass => assert!(!hazard, "{inputs}"),
            MonitorDecision::EmergencyBrake(b) => {
                assert!(hazard, "{inputs}");
                assert_eq!(b, -cfg.brake_mps2, "{inputs}");
            }
        }
    }
}

/// Platoon initial positions always realise the requested spacing.
#[test]
fn platoon_spacing_exact() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let n = 1 + g.below(9) as u32;
        let spacing = g.uniform_range(1.0, 30.0);
        let len = g.uniform_range(3.0, 12.0);
        let inputs = format!("case {case}: {n} members, spacing {spacing}, length {len}");
        let spec = PlatoonSpec {
            members: (1..=n).collect(),
            spacing_m: spacing,
            leader_pos_m: 1000.0,
            ..PlatoonSpec::paper_default()
        };
        let pos = spec.initial_positions(len);
        assert_eq!(pos.len(), n as usize, "{inputs}");
        for w in pos.windows(2) {
            let gap = (w[0].1 - len) - w[1].1;
            assert!((gap - spacing).abs() < 1e-9, "{inputs}: gap {gap}");
        }
    }
}
