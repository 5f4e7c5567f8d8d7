//! Reception decision: is a frame decodable given noise and interference?
//!
//! Models Veins' SNIR-threshold decider: a frame is received correctly when
//! its power is above the sensitivity and the worst-case signal-to-noise-
//! and-interference ratio over the whole reception stays above the MCS
//! threshold.

use comfase_des::time::SimTime;

use crate::phy::PhyConfig;
use crate::units::{ratio_db, Milliwatts};

/// An interfering transmission overlapping a reception.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// Interference power at the receiver.
    pub power: Milliwatts,
    /// First instant the interferer is on air.
    pub start: SimTime,
    /// Last instant the interferer is on air.
    pub end: SimTime,
}

/// Why a frame was lost, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// Below receiver sensitivity — not detectable at all.
    BelowSensitivity,
    /// Detected but SNIR below the decoding threshold.
    Snir,
    /// The SNIR computation produced NaN (numeric divergence in the power
    /// model). The frame is treated as lost and the run should be failed
    /// with `FailureKind::NumericDiverged` rather than trusted.
    NumericFault,
}

/// Outcome of a reception attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeciderResult {
    /// Frame decoded; worst-case SNIR in dB attached.
    Received {
        /// Worst-case SNIR over the reception, dB.
        snir_db: f64,
    },
    /// Frame lost.
    Lost(LossReason),
}

impl DeciderResult {
    /// `true` if the frame was decoded.
    pub fn is_received(&self) -> bool {
        matches!(self, DeciderResult::Received { .. })
    }
}

/// The SNIR-threshold decider of one [`PhyConfig`].
///
/// Built once per medium: the sensitivity, the noise floor in milliwatts
/// (a `powf`) and the MCS threshold are per-configuration constants, so a
/// decision costs one transcendental call, the SNIR `log10`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decider {
    sensitivity_dbm: f64,
    noise: Milliwatts,
    snir_threshold_db: f64,
}

impl Decider {
    /// Precomputes the decision constants of `config`.
    pub fn new(config: &PhyConfig) -> Self {
        Decider {
            sensitivity_dbm: config.sensitivity.0,
            noise: config.noise_floor.to_milliwatts(),
            snir_threshold_db: config.mcs.snir_threshold_db(),
        }
    }

    /// Decides whether a frame spanning `[start, end]` with `signal` power
    /// is decodable, given the overlapping `interferers`. `signal_dbm` is
    /// `signal.to_dbm().0`, computed once per link when it is planned.
    pub fn decide(
        &self,
        signal: Milliwatts,
        signal_dbm: f64,
        start: SimTime,
        end: SimTime,
        interferers: impl Iterator<Item = Interferer> + Clone,
    ) -> DeciderResult {
        if signal_dbm < self.sensitivity_dbm {
            return DeciderResult::Lost(LossReason::BelowSensitivity);
        }
        // Worst-case interference: the maximum simultaneous interferer power
        // sum at any instant of the reception. Power sums change only at
        // interferer boundaries, so evaluating at each boundary inside
        // [start, end] (plus `start` itself) is exact.
        let mut worst = Milliwatts::ZERO;
        let mut check_instant = |t: SimTime| {
            let mut sum = Milliwatts::ZERO;
            for i in interferers.clone() {
                if i.start <= t && t < i.end {
                    sum += i.power;
                }
            }
            if sum.0 > worst.0 {
                worst = sum;
            }
        };
        check_instant(start);
        for i in interferers.clone() {
            if i.start > start && i.start < end {
                check_instant(i.start);
            }
        }
        let snir_db = ratio_db(signal, self.noise + worst);
        // Sim sanitizer (release builds too): a NaN SNIR would fail the
        // threshold comparison silently and lose the frame without a
        // `LossReason` the stats can explain. Surface it as a structured
        // numeric fault instead.
        if snir_db.is_nan() {
            return DeciderResult::Lost(LossReason::NumericFault);
        }
        if snir_db >= self.snir_threshold_db {
            DeciderResult::Received { snir_db }
        } else {
            DeciderResult::Lost(LossReason::Snir)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Dbm;

    /// The default PHY's decider on a frame of `signal` power.
    fn decide(
        signal: Milliwatts,
        start: SimTime,
        end: SimTime,
        interferers: &[Interferer],
    ) -> DeciderResult {
        Decider::new(&PhyConfig::default()).decide(
            signal,
            signal.to_dbm().0,
            start,
            end,
            interferers.iter().copied(),
        )
    }

    fn t(ms: i64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn clean_strong_frame_received() {
        let r = decide(Dbm(-70.0).to_milliwatts(), t(0), t(1), &[]);
        match r {
            DeciderResult::Received { snir_db } => {
                assert!((snir_db - 40.0).abs() < 1e-9, "snir {snir_db}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn below_sensitivity_lost() {
        let r = decide(Dbm(-95.0).to_milliwatts(), t(0), t(1), &[]);
        assert_eq!(r, DeciderResult::Lost(LossReason::BelowSensitivity));
    }

    #[test]
    fn strong_interferer_kills_frame() {
        let interferer = Interferer {
            power: Dbm(-68.0).to_milliwatts(),
            start: t(0),
            end: t(1),
        };
        let r = decide(Dbm(-70.0).to_milliwatts(), t(0), t(1), &[interferer]);
        assert_eq!(r, DeciderResult::Lost(LossReason::Snir));
    }

    #[test]
    fn non_overlapping_interferer_ignored() {
        let interferer = Interferer {
            power: Dbm(-40.0).to_milliwatts(),
            start: t(2),
            end: t(3),
        };
        let r = decide(Dbm(-70.0).to_milliwatts(), t(0), t(1), &[interferer]);
        assert!(r.is_received());
    }

    #[test]
    fn partial_overlap_counts() {
        let interferer = Interferer {
            power: Dbm(-50.0).to_milliwatts(),
            start: t(0),
            end: t(1),
        };
        // Reception [0.5ms, 1.5ms] overlaps the interferer's second half.
        let r = decide(
            Dbm(-70.0).to_milliwatts(),
            SimTime::from_micros(500),
            SimTime::from_micros(1500),
            &[interferer],
        );
        assert_eq!(r, DeciderResult::Lost(LossReason::Snir));
    }

    #[test]
    fn weak_interference_tolerated() {
        let interferer = Interferer {
            power: Dbm(-100.0).to_milliwatts(),
            start: t(0),
            end: t(1),
        };
        let r = decide(Dbm(-70.0).to_milliwatts(), t(0), t(1), &[interferer]);
        assert!(r.is_received());
    }

    #[test]
    fn interferers_accumulate() {
        // Two interferers, each alone tolerable, together exceed budget.
        // Signal -80 dBm; threshold for QPSK12 is 6 dB -> interference+noise
        // budget is -86 dBm. Each interferer at -88 dBm: alone SNIR ~7.9 dB
        // (ok), both sum to -84.9 dBm -> SNIR ~4.9 dB (lost).
        let mk = |s, e| Interferer {
            power: Dbm(-88.0).to_milliwatts(),
            start: s,
            end: e,
        };
        let one = decide(Dbm(-80.0).to_milliwatts(), t(0), t(1), &[mk(t(0), t(1))]);
        assert!(one.is_received());
        let both = decide(
            Dbm(-80.0).to_milliwatts(),
            t(0),
            t(1),
            &[mk(t(0), t(1)), mk(t(0), t(1))],
        );
        assert_eq!(both, DeciderResult::Lost(LossReason::Snir));
    }

    #[test]
    fn nan_snir_is_a_numeric_fault() {
        // Infinite signal power over infinite interference: inf/inf → NaN.
        let inf = Milliwatts(f64::INFINITY);
        let interferer = Interferer {
            power: inf,
            start: t(0),
            end: t(1),
        };
        let r = decide(inf, t(0), t(1), &[interferer]);
        assert_eq!(r, DeciderResult::Lost(LossReason::NumericFault));
    }

    #[test]
    fn worst_window_is_found_mid_frame() {
        // Interferer arrives mid-reception and is decisive.
        let interferer = Interferer {
            power: Dbm(-60.0).to_milliwatts(),
            start: SimTime::from_micros(400),
            end: SimTime::from_micros(600),
        };
        let r = decide(
            Dbm(-70.0).to_milliwatts(),
            t(0),
            SimTime::from_micros(1000),
            &[interferer],
        );
        assert_eq!(r, DeciderResult::Lost(LossReason::Snir));
    }
}
