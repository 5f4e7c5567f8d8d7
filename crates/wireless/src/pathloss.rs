//! Analogue channel models: how transmit power decays with distance.
//!
//! The paper's experiments use the **free space path loss** model ("it
//! models a situation where the distance between the vehicles are minimized
//! and is free of obstacles such as in a platooning scenario", §IV-A.2);
//! Veins additionally ships a two-ray interference model, which we provide
//! for ablations.

use crate::geom::Position;
use crate::units::{wavelength_m, Dbm, Milliwatts};

/// An analogue wireless channel model — the paper's `wirelessModel`
/// configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLoss {
    /// Free-space (Friis) path loss.
    FreeSpace(FreeSpace),
    /// Two-ray ground-reflection interference.
    TwoRayInterference(TwoRayInterference),
    /// Free space with log-normal shadowing.
    LogNormalShadowing(LogNormalShadowing),
}

impl PathLoss {
    /// Received power at `rx` for a transmission of `tx_power` from `tx`.
    pub fn received_power(
        &self,
        tx_power: Milliwatts,
        freq_hz: f64,
        tx: &Position,
        rx: &Position,
    ) -> Milliwatts {
        match self {
            PathLoss::FreeSpace(m) => m.received_power(tx_power, freq_hz, tx, rx),
            PathLoss::TwoRayInterference(m) => m.received_power(tx_power, freq_hz, tx, rx),
            PathLoss::LogNormalShadowing(m) => m.received_power(tx_power, freq_hz, tx, rx),
        }
    }

    /// A conservative range bound: for any pair of positions whose ground
    /// (2D) distance exceeds the returned value, `received_power` is
    /// guaranteed strictly below `threshold`. `None` means the inputs admit
    /// no finite bound and callers must assume every node is reachable.
    /// The grid fan-out index uses this (inverted at the fan-out pruning
    /// threshold) as its cell size.
    pub fn max_range_m(&self, tx_power: Milliwatts, freq_hz: f64, threshold: Dbm) -> Option<f64> {
        match self {
            PathLoss::FreeSpace(m) => m.max_range_m(tx_power, freq_hz, threshold),
            PathLoss::TwoRayInterference(m) => m.max_range_m(tx_power, freq_hz, threshold),
            PathLoss::LogNormalShadowing(m) => m.max_range_m(tx_power, freq_hz, threshold),
        }
    }
}

/// Invert the Friis formula: the distance at which
/// `P_tx · (λ / 4πd)^α` drops to `threshold`.
///
/// Returns `None` when the inputs do not admit a finite positive bound
/// (non-finite threshold, zero power, ...), in which case the caller must
/// fall back to assuming unbounded range. The result carries a small
/// multiplicative margin so that floating-point noise in the forward
/// formula can never place a node just outside the bound while its
/// received power still reaches `threshold`.
fn friis_range_m(alpha: f64, tx_power: Milliwatts, freq_hz: f64, threshold: Dbm) -> Option<f64> {
    let t = threshold.to_milliwatts();
    let invertible = t.0.is_finite() && t.0 > 0.0 && tx_power.0 > 0.0 && alpha > 0.0;
    if !invertible {
        return None;
    }
    if tx_power.0 <= t.0 {
        // The model caps gain at unity, so power below threshold at the
        // antenna is below threshold everywhere; any positive range works.
        return Some(1.0);
    }
    let lambda = wavelength_m(freq_hz);
    let d = lambda / (4.0 * std::f64::consts::PI) * (tx_power.0 / t.0).powf(1.0 / alpha);
    let d = (d * (1.0 + 1e-6)).max(1.0);
    d.is_finite().then_some(d)
}

/// Free-space (Friis) path loss with configurable exponent.
///
/// `P_rx = P_tx * (λ / 4πd)^α` with α = 2 in true free space. Veins'
/// `SimplePathlossModel` uses the same formula with configurable alpha.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSpace {
    /// Path loss exponent α (2.0 = ideal free space).
    pub alpha: f64,
}

impl Default for FreeSpace {
    fn default() -> Self {
        FreeSpace { alpha: 2.0 }
    }
}

impl FreeSpace {
    /// Received power at `rx` for a transmission of `tx_power` from `tx`.
    pub fn received_power(
        &self,
        tx_power: Milliwatts,
        freq_hz: f64,
        tx: &Position,
        rx: &Position,
    ) -> Milliwatts {
        let d = tx.distance_to(rx);
        if d < 1e-9 {
            return tx_power;
        }
        let lambda = wavelength_m(freq_hz);
        let factor = (lambda / (4.0 * std::f64::consts::PI * d)).powf(self.alpha);
        tx_power * factor.min(1.0)
    }

    /// A conservative range bound, as [`PathLoss::max_range_m`].
    pub fn max_range_m(&self, tx_power: Milliwatts, freq_hz: f64, threshold: Dbm) -> Option<f64> {
        friis_range_m(self.alpha, tx_power, freq_hz, threshold)
    }
}

/// Two-ray interference model (direct ray + ground reflection), after
/// Sommer et al., as implemented in Veins' `TwoRayInterferenceModel`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoRayInterference {
    /// Relative permittivity of the ground (Veins default 1.02).
    pub epsilon_r: f64,
}

impl Default for TwoRayInterference {
    fn default() -> Self {
        TwoRayInterference { epsilon_r: 1.02 }
    }
}

impl TwoRayInterference {
    /// Received power at `rx` for a transmission of `tx_power` from `tx`.
    pub fn received_power(
        &self,
        tx_power: Milliwatts,
        freq_hz: f64,
        tx: &Position,
        rx: &Position,
    ) -> Milliwatts {
        let d = tx.ground_distance_to(rx);
        if d < 1e-9 {
            return tx_power;
        }
        let ht = tx.z;
        let hr = rx.z;
        let lambda = wavelength_m(freq_hz);
        // Direct and reflected path lengths.
        let d_los = (d * d + (ht - hr) * (ht - hr)).sqrt();
        let d_ref = (d * d + (ht + hr) * (ht + hr)).sqrt();
        // Grazing angle and reflection coefficient (vertical polarisation).
        let sin_theta = (ht + hr) / d_ref;
        let cos_theta = d / d_ref;
        let er = self.epsilon_r;
        let gamma = (sin_theta - (er - cos_theta * cos_theta).sqrt())
            / (sin_theta + (er - cos_theta * cos_theta).sqrt());
        let phi = 2.0 * std::f64::consts::PI * (d_los - d_ref) / lambda;
        // Interference of the two rays.
        let re = 1.0 / d_los + gamma * phi.cos() / d_ref;
        let im = gamma * phi.sin() / d_ref;
        let magnitude = (re * re + im * im).sqrt();
        let factor = (lambda / (4.0 * std::f64::consts::PI)).powi(2) * magnitude * magnitude;
        tx_power * factor.min(1.0)
    }

    /// A conservative range bound, as [`PathLoss::max_range_m`].
    pub fn max_range_m(&self, tx_power: Milliwatts, freq_hz: f64, threshold: Dbm) -> Option<f64> {
        // |Γ| ≤ 1, so |re| ≤ 2/d_los and |im| ≤ 1/d_ref ≤ 1/d_los, giving
        // magnitude² ≤ 5/d_los² — i.e. two-ray can never exceed free space
        // (α = 2) by more than 10·log10(5) ≈ 7 dB of constructive fading.
        // Inverting Friis at a threshold lowered by that envelope yields a
        // conservative ground-distance bound (d_los ≥ ground distance).
        let envelope_db = 10.0 * 5f64.log10();
        friis_range_m(2.0, tx_power, freq_hz, Dbm(threshold.0 - envelope_db))
    }
}

/// Free-space path loss with spatially correlated log-normal shadowing.
///
/// Shadowing (obstruction-induced slow fading) is modelled as a
/// deterministic pseudo-random field over space: the dB offset is drawn
/// from a hash of the quantised link midpoint, so nearby positions share
/// their shadowing value (spatial correlation), repeated evaluations are
/// reproducible, and no RNG state is needed in the hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalShadowing {
    /// Median path loss model parameters (free space with this exponent).
    pub alpha: f64,
    /// Standard deviation of the shadowing term, dB (3–8 dB typical).
    pub sigma_db: f64,
    /// Spatial correlation distance: midpoints within the same cell of
    /// this size share one shadowing draw, metres.
    pub correlation_m: f64,
    /// Seed of the shadowing field.
    pub seed: u64,
}

impl Default for LogNormalShadowing {
    fn default() -> Self {
        LogNormalShadowing {
            alpha: 2.0,
            sigma_db: 4.0,
            correlation_m: 10.0,
            seed: 0x5AD0,
        }
    }
}

impl LogNormalShadowing {
    /// Hard cap on a shadowing draw, in standard deviations.
    ///
    /// Box-Muller with `u1 ≥ 2⁻⁵³` bounds the normal magnitude by
    /// `√(2·53·ln 2) ≈ 8.5716`, so a draw can never add more than
    /// `MAX_SHADOW_SIGMAS · sigma_db` dB of constructive shadowing.
    pub const MAX_SHADOW_SIGMAS: f64 = 8.58;

    /// The shadowing offset in dB for a link with the given midpoint.
    pub fn shadow_db(&self, mid_x: f64, mid_y: f64) -> f64 {
        let qx = (mid_x / self.correlation_m).floor() as i64;
        let qy = (mid_y / self.correlation_m).floor() as i64;
        // SplitMix64-style avalanche over the cell coordinates.
        let mut z = self
            .seed
            .wrapping_add((qx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((qy as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Two uniforms -> one standard normal (Box-Muller, cos branch).
        let u1 = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = ((z.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64) / (1u64 << 53) as f64;
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        n * self.sigma_db
    }

    /// Received power at `rx` for a transmission of `tx_power` from `tx`.
    pub fn received_power(
        &self,
        tx_power: Milliwatts,
        freq_hz: f64,
        tx: &Position,
        rx: &Position,
    ) -> Milliwatts {
        let median = FreeSpace { alpha: self.alpha }.received_power(tx_power, freq_hz, tx, rx);
        let shadow = self.shadow_db((tx.x + rx.x) / 2.0, (tx.y + rx.y) / 2.0);
        let factor = 10f64.powf(shadow / 10.0);
        Milliwatts((median.0 * factor).min(tx_power.0))
    }

    /// A conservative range bound, as [`PathLoss::max_range_m`].
    pub fn max_range_m(&self, tx_power: Milliwatts, freq_hz: f64, threshold: Dbm) -> Option<f64> {
        let worst_gain_db = Self::MAX_SHADOW_SIGMAS * self.sigma_db.abs();
        friis_range_m(
            self.alpha,
            tx_power,
            freq_hz,
            Dbm(threshold.0 - worst_gain_db),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Dbm, CCH_FREQ_HZ};

    fn p(x: f64) -> Position {
        Position::on_road(x, 0.0)
    }

    #[test]
    fn free_space_decays_with_square_of_distance() {
        let m = FreeSpace::default();
        let tx = Dbm(20.0).to_milliwatts();
        let p10 = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(10.0));
        let p100 = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(100.0));
        // 10x distance => 20 dB loss at alpha 2.
        let loss_db = 10.0 * (p10.0 / p100.0).log10();
        assert!((loss_db - 20.0).abs() < 1e-6, "loss {loss_db}");
    }

    #[test]
    fn free_space_matches_friis_at_100m() {
        // FSPL(dB) = 20 log10(d) + 20 log10(f) - 147.55 ~ 87.9 dB at 100 m, 5.89 GHz.
        let m = FreeSpace::default();
        let tx = Dbm(20.0).to_milliwatts();
        let rx = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(100.0));
        let fspl = 20.0 - rx.to_dbm().0;
        assert!((fspl - 87.85).abs() < 0.2, "FSPL {fspl}");
    }

    #[test]
    fn higher_alpha_means_more_loss() {
        let tx = Dbm(20.0).to_milliwatts();
        let a2 = FreeSpace { alpha: 2.0 }.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(50.0));
        let a3 = FreeSpace { alpha: 3.0 }.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(50.0));
        assert!(a3.0 < a2.0);
    }

    #[test]
    fn zero_distance_returns_tx_power() {
        let tx = Dbm(20.0).to_milliwatts();
        let rx = FreeSpace::default().received_power(tx, CCH_FREQ_HZ, &p(5.0), &p(5.0));
        assert_eq!(rx.0, tx.0);
    }

    #[test]
    fn gain_never_exceeds_unity() {
        let tx = Dbm(20.0).to_milliwatts();
        let rx = FreeSpace::default().received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(0.001));
        assert!(rx.0 <= tx.0);
    }

    #[test]
    fn two_ray_close_range_similar_to_free_space() {
        let tx = Dbm(20.0).to_milliwatts();
        let fs = FreeSpace::default().received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(20.0));
        let tr = TwoRayInterference::default().received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(20.0));
        let diff_db = (fs.to_dbm().0 - tr.to_dbm().0).abs();
        assert!(
            diff_db < 12.0,
            "two-ray within fading envelope of free space, diff {diff_db} dB"
        );
    }

    #[test]
    fn two_ray_decays_faster_far_out() {
        let tx = Dbm(20.0).to_milliwatts();
        let m = TwoRayInterference::default();
        let near = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(100.0));
        let far = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(5000.0));
        // Beyond the crossover distance (~0.9 km at these antenna heights)
        // two-ray behaves like d^-4, so 100 m -> 5 km loses much more than
        // the ~34 dB free space would predict.
        let loss_db = 10.0 * (near.0 / far.0).log10();
        assert!(loss_db > 42.0, "far-field loss only {loss_db} dB");
    }

    #[test]
    fn shadowing_is_deterministic_and_correlated() {
        let m = LogNormalShadowing::default();
        // Same cell -> same draw.
        assert_eq!(m.shadow_db(103.0, 1.0), m.shadow_db(104.5, 2.0));
        // Different cells almost surely differ.
        assert_ne!(m.shadow_db(103.0, 1.0), m.shadow_db(203.0, 1.0));
        // Different seeds produce a different field.
        let other = LogNormalShadowing { seed: 99, ..m };
        assert_ne!(m.shadow_db(103.0, 1.0), other.shadow_db(103.0, 1.0));
    }

    #[test]
    fn shadowing_statistics_match_sigma() {
        let m = LogNormalShadowing::default();
        let n = 10_000;
        let draws: Vec<f64> = (0..n).map(|i| m.shadow_db(i as f64 * 50.0, 0.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - m.sigma_db).abs() < 0.3, "sd {}", var.sqrt());
    }

    #[test]
    fn max_range_is_conservative_for_all_models() {
        let tx = Dbm(13.0).to_milliwatts();
        let threshold = Dbm(-120.0);
        for m in [
            PathLoss::FreeSpace(FreeSpace::default()),
            PathLoss::FreeSpace(FreeSpace { alpha: 3.0 }),
            PathLoss::TwoRayInterference(TwoRayInterference::default()),
            PathLoss::LogNormalShadowing(LogNormalShadowing::default()),
        ] {
            let range = m
                .max_range_m(tx, CCH_FREQ_HZ, threshold)
                .unwrap_or_else(|| panic!("{m:?} should have a finite range"));
            assert!(range >= 1.0 && range.is_finite(), "{m:?}: {range}");
            // Sample ground distances beyond the bound: received power must
            // stay strictly below the threshold.
            for k in 1..=50 {
                let d = range * (1.0 + k as f64 * 0.1);
                let rx = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(d));
                assert!(
                    rx.to_dbm().0 < threshold.0,
                    "{m:?} at {d:.1} m received {:.2} dBm >= {:.2} dBm (range {range:.1})",
                    rx.to_dbm().0,
                    threshold.0
                );
            }
        }
    }

    #[test]
    fn free_space_range_is_tight() {
        // Just inside the bound the power is still at/above threshold, so the
        // inversion is not wastefully loose for the exact Friis model.
        let m = FreeSpace::default();
        let tx = Dbm(13.0).to_milliwatts();
        let threshold = Dbm(-120.0);
        let range = m.max_range_m(tx, CCH_FREQ_HZ, threshold).unwrap();
        let rx = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(range * 0.999));
        assert!(rx.to_dbm().0 >= threshold.0, "{}", rx.to_dbm().0);
    }

    #[test]
    fn max_range_degenerate_inputs() {
        let m = FreeSpace::default();
        // Non-finite or non-positive thresholds give no bound.
        assert_eq!(
            m.max_range_m(Milliwatts(20.0), CCH_FREQ_HZ, Dbm(f64::NEG_INFINITY)),
            None
        );
        assert_eq!(
            m.max_range_m(Milliwatts(20.0), CCH_FREQ_HZ, Dbm(f64::NAN)),
            None
        );
        assert_eq!(
            m.max_range_m(Milliwatts(0.0), CCH_FREQ_HZ, Dbm(-90.0)),
            None
        );
        // Power already below threshold: any positive range is valid.
        assert_eq!(
            m.max_range_m(Milliwatts(1e-15), CCH_FREQ_HZ, Dbm(-90.0)),
            Some(1.0)
        );
    }

    #[test]
    fn shadowing_never_gains_above_tx_power() {
        let m = LogNormalShadowing::default();
        let tx = Dbm(13.0).to_milliwatts();
        for i in 0..500 {
            let rx = m.received_power(tx, CCH_FREQ_HZ, &p(0.0), &p(0.5 + i as f64));
            assert!(rx.0 <= tx.0);
        }
    }
}
