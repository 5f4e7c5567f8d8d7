//! Test configuration — Step 1 of the ComFASE execution flow (Algo. 1).
//!
//! Three configuration objects mirror the paper exactly:
//!
//! - [`TrafficScenario`] ← `setScenario(roadFeatures, vehicleFeatures,
//!   nrVehicles, scenarioManeuver, totalSimTime)`;
//! - [`CommModel`] ← `setCommunication(commProtocol, wirelessModel,
//!   packetSize, beaconingTime)`;
//! - [`AttackCampaignSetup`] ← `setCampaign(attackModel, targetVehicles,
//!   attackStartVector, attackValuesVector, attackEndVector)`.
//!
//! Presets reproduce §IV-A (the demonstration setup) and Table II (the
//! campaign parameter values).

use comfase_des::time::{SimDuration, SimTime};
use comfase_platoon::controller::ControllerKind;
use comfase_platoon::maneuver::Sinusoidal;
use comfase_platoon::monitor::SafetyMonitorConfig;
use comfase_platoon::platoon::PlatoonSpec;
use comfase_traffic::network::Road;
use comfase_traffic::vehicle::VehicleSpec;

use crate::attack::AttackModelKind;
use crate::error::ComfaseError;

/// Leader maneuver selection (serializable counterpart of the `Maneuver`
/// trait objects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManeuverKind {
    /// Constant cruise at the platoon's initial speed.
    ConstantSpeed,
    /// The paper's sinusoidal accelerate/decelerate pattern.
    Sinusoidal {
        /// Oscillation amplitude, m/s.
        amplitude_mps: f64,
        /// Oscillation frequency, Hz.
        freq_hz: f64,
        /// Onset time, seconds.
        start_s: f64,
    },
    /// Cruise then brake hard (used by examples/tests).
    Braking {
        /// When braking starts, seconds.
        brake_at_s: f64,
        /// Braking strength, m/s².
        decel_mps2: f64,
    },
}
comfase_json::variants!(ToJson for ManeuverKind {
    ConstantSpeed,
    Sinusoidal { amplitude_mps, freq_hz, start_s },
    Braking { brake_at_s, decel_mps2 },
});

impl ManeuverKind {
    /// The paper's sinusoidal maneuver with calibrated amplitude.
    pub fn paper_sinusoidal() -> Self {
        let m = Sinusoidal::paper_default();
        ManeuverKind::Sinusoidal {
            amplitude_mps: m.amplitude_mps,
            freq_hz: m.freq_hz,
            start_s: m.start.as_secs_f64(),
        }
    }
}

/// The paper's `TrafficScenario`: road, vehicles, maneuver and duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficScenario {
    /// Road properties (`roadFeatures`).
    pub road: Road,
    /// Vehicle software/hardware properties (`vehicleFeatures`).
    pub vehicle: VehicleSpec,
    /// The platoon composition (covers `nrVehicles` and the controller).
    pub platoon: PlatoonSpec,
    /// Driving pattern (`scenarioManeuver`).
    pub maneuver: ManeuverKind,
    /// Total simulation time (`totalSimTime`).
    pub total_sim_time: SimTime,
    /// Optional on-board safety monitor for the followers (the redundancy
    /// mechanism the paper lists as future work; `None` reproduces the
    /// paper's unprotected system).
    pub safety_monitor: Option<SafetyMonitorConfig>,
    /// Radio-less background vehicles sharing the road (Krauss-driven),
    /// for surrounding-traffic studies: `(lane, front position m, speed m/s)`.
    pub background_vehicles: Vec<(u8, f64, f64)>,
    /// RF jammers that are part of the scenario environment (distinct from
    /// the windowed attack models installed by the engine).
    pub jammers: Vec<crate::world::JammerSpec>,
}
comfase_json::record!(ToJson for TrafficScenario {
    road, vehicle, platoon, maneuver, total_sim_time, safety_monitor, background_vehicles, jammers,
});

impl TrafficScenario {
    /// The demonstration scenario of §IV-A.1: 4-lane 9400 m road at 90 m/s
    /// limit, four identical CACC vehicles, sinusoidal maneuver, 60 s.
    pub fn paper_default() -> Self {
        TrafficScenario {
            road: Road::paper_highway(),
            vehicle: VehicleSpec::paper_platooning_car(),
            platoon: PlatoonSpec::paper_default(),
            maneuver: ManeuverKind::paper_sinusoidal(),
            total_sim_time: SimTime::from_secs(60),
            safety_monitor: None,
            background_vehicles: Vec::new(),
            jammers: Vec::new(),
        }
    }

    /// Number of vehicles in the scenario (`nrVehicles`).
    pub fn nr_vehicles(&self) -> usize {
        self.platoon.len()
    }

    /// Replaces the follower controller.
    pub fn with_controller(mut self, controller: ControllerKind) -> Self {
        self.platoon.controller = controller;
        self
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ComfaseError> {
        self.platoon
            .validate()
            .map_err(ComfaseError::InvalidConfig)?;
        self.vehicle
            .validate()
            .map_err(ComfaseError::InvalidConfig)?;
        if self.total_sim_time <= SimTime::ZERO {
            return Err(ComfaseError::InvalidConfig(
                "total simulation time must be positive".into(),
            ));
        }
        if self.platoon.lane >= self.road.nr_lanes() {
            return Err(ComfaseError::InvalidConfig(format!(
                "platoon lane {} outside road with {} lanes",
                self.platoon.lane,
                self.road.nr_lanes()
            )));
        }
        for &(lane, pos, speed) in &self.background_vehicles {
            if lane >= self.road.nr_lanes() || !self.road.contains(pos) || speed < 0.0 {
                return Err(ComfaseError::InvalidConfig(format!(
                    "background vehicle (lane {lane}, pos {pos}, speed {speed}) invalid"
                )));
            }
        }
        Ok(())
    }
}

/// Wireless model selection (`wirelessModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WirelessModelKind {
    /// Free-space path loss — the paper's choice for platooning.
    #[default]
    FreeSpace,
    /// Two-ray interference (ground reflection), for ablations.
    TwoRayInterference,
    /// Free space plus spatially correlated log-normal shadowing (slow
    /// fading from obstructions), for non-line-of-sight studies.
    LogNormalShadowing,
}
comfase_json::variants!(ToJson for WirelessModelKind {
    FreeSpace, TwoRayInterference, LogNormalShadowing,
});

/// The paper's `CommModel`: protocol, wireless model, packet size and
/// beaconing time.
#[derive(Debug, Clone, PartialEq)]
pub struct CommModel {
    /// Protocol description (`commProtocol`). The stack is always
    /// IEEE 802.11p + IEEE 1609.4 WAVE; the flag controls whether 1609.4
    /// channel switching is active (continuous CCH access otherwise).
    pub channel_switching: bool,
    /// Analogue model (`wirelessModel`).
    pub wireless_model: WirelessModelKind,
    /// Over-the-air message size in bits (`packetSize`).
    pub packet_size_bits: usize,
    /// Beacon period (`beaconingTime`).
    pub beaconing_time: SimDuration,
}
comfase_json::record!(ToJson for CommModel {
    channel_switching, wireless_model, packet_size_bits, beaconing_time,
});

impl CommModel {
    /// The paper's communication model (§IV-A.2): DSRC/WAVE, free-space
    /// path loss, 200-bit packets, 0.1 s beaconing.
    pub fn paper_default() -> Self {
        CommModel {
            channel_switching: false,
            wireless_model: WirelessModelKind::FreeSpace,
            packet_size_bits: 200,
            beaconing_time: SimDuration::from_millis(100),
        }
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ComfaseError> {
        if self.packet_size_bits == 0 {
            return Err(ComfaseError::InvalidConfig(
                "packet size must be positive".into(),
            ));
        }
        if self.beaconing_time <= SimDuration::ZERO {
            return Err(ComfaseError::InvalidConfig(
                "beaconing time must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The paper's `AttackCampaignSetup`: which attack, on whom, with which
/// value/start/end vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCampaignSetup {
    /// Attack model (`attackModel`).
    pub attack_model: AttackModelKind,
    /// Vehicles under attack (`targetVehicles`).
    pub target_vehicles: Vec<u32>,
    /// Attack model parameter values (`attackValuesVector`). For delay/DoS
    /// attacks these are propagation-delay values in seconds.
    pub attack_values: Vec<f64>,
    /// Attack initiation times in seconds (`attackStartVector`).
    pub attack_starts_s: Vec<f64>,
    /// Attack durations in seconds; each experiment's `attackEndTime` is
    /// `attackStartTime + duration` (`attackEndVector`, expressed relative
    /// to the start as in Table II).
    pub attack_durations_s: Vec<f64>,
}
comfase_json::record!(ToJson, FromJson for AttackCampaignSetup {
    attack_model, target_vehicles, attack_values, attack_starts_s, attack_durations_s,
});

/// Builds a linearly spaced inclusive range (used all over Table II).
pub fn linspace_inclusive(from: f64, to: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    let n = ((to - from) / step).round() as i64;
    (0..=n.max(0)).map(|i| from + i as f64 * step).collect()
}

impl AttackCampaignSetup {
    /// Table II delay campaign: PD 0.2–3.0 s (step 0.2, 15 values), starts
    /// 17.0–21.8 s (step 0.2, 25 values), durations 1–30 s (step 1, 30
    /// values) — 11 250 experiments against Vehicle 2.
    pub fn paper_delay_campaign() -> Self {
        AttackCampaignSetup {
            attack_model: AttackModelKind::Delay,
            target_vehicles: vec![2],
            attack_values: linspace_inclusive(0.2, 3.0, 0.2),
            attack_starts_s: linspace_inclusive(17.0, 21.8, 0.2),
            attack_durations_s: linspace_inclusive(1.0, 30.0, 1.0),
        }
    }

    /// Table II DoS campaign: PD 60 s, starts 17.0–21.8 s (step 0.2), the
    /// attack lasting until the end of the simulation — 25 experiments
    /// against Vehicle 2.
    pub fn paper_dos_campaign() -> Self {
        AttackCampaignSetup {
            attack_model: AttackModelKind::Dos,
            target_vehicles: vec![2],
            attack_values: vec![60.0],
            attack_starts_s: linspace_inclusive(17.0, 21.8, 0.2),
            attack_durations_s: vec![f64::INFINITY], // until totalSimTime
        }
    }

    /// Number of experiments the campaign will run.
    pub fn nr_experiments(&self) -> usize {
        self.attack_values.len() * self.attack_starts_s.len() * self.attack_durations_s.len()
    }

    /// Validates the setup against a scenario.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self, scenario: &TrafficScenario) -> Result<(), ComfaseError> {
        if self.target_vehicles.is_empty() {
            return Err(ComfaseError::InvalidConfig(
                "at least one target vehicle required".into(),
            ));
        }
        for &t in &self.target_vehicles {
            if scenario.platoon.index_of(t).is_none() {
                return Err(ComfaseError::UnknownTarget(t));
            }
        }
        if self.attack_values.is_empty()
            || self.attack_starts_s.is_empty()
            || self.attack_durations_s.is_empty()
        {
            return Err(ComfaseError::InvalidConfig(
                "attack value/start/duration vectors must be non-empty".into(),
            ));
        }
        let total = scenario.total_sim_time.as_secs_f64();
        for &s in &self.attack_starts_s {
            if !(0.0..=total).contains(&s) {
                return Err(ComfaseError::InvalidConfig(format!(
                    "attack start {s} outside [0, {total}]"
                )));
            }
        }
        for &d in &self.attack_durations_s {
            if d <= 0.0 {
                return Err(ComfaseError::InvalidConfig(format!(
                    "attack duration must be positive, got {d}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_is_valid_and_matches() {
        let s = TrafficScenario::paper_default();
        assert!(s.validate().is_ok());
        assert_eq!(s.nr_vehicles(), 4);
        assert_eq!(s.total_sim_time, SimTime::from_secs(60));
        assert_eq!(s.road.length_m, 9400.0);
        assert_eq!(s.vehicle.max_decel_mps2, 9.0);
    }

    #[test]
    fn paper_comm_model_matches() {
        let c = CommModel::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.packet_size_bits, 200);
        assert_eq!(c.beaconing_time, SimDuration::from_millis(100));
        assert_eq!(c.wireless_model, WirelessModelKind::FreeSpace);
    }

    #[test]
    fn linspace_matches_table_ii_counts() {
        assert_eq!(linspace_inclusive(0.2, 3.0, 0.2).len(), 15);
        assert_eq!(linspace_inclusive(17.0, 21.8, 0.2).len(), 25);
        assert_eq!(linspace_inclusive(1.0, 30.0, 1.0).len(), 30);
        assert_eq!(linspace_inclusive(5.0, 5.0, 1.0), vec![5.0]);
    }

    #[test]
    fn delay_campaign_has_11250_experiments() {
        let c = AttackCampaignSetup::paper_delay_campaign();
        assert_eq!(c.nr_experiments(), 11_250);
        assert!(c.validate(&TrafficScenario::paper_default()).is_ok());
        assert_eq!(c.target_vehicles, vec![2]);
    }

    #[test]
    fn dos_campaign_has_25_experiments() {
        let c = AttackCampaignSetup::paper_dos_campaign();
        assert_eq!(c.nr_experiments(), 25);
        assert!(c.validate(&TrafficScenario::paper_default()).is_ok());
    }

    #[test]
    fn unknown_target_rejected() {
        let mut c = AttackCampaignSetup::paper_dos_campaign();
        c.target_vehicles = vec![9];
        assert_eq!(
            c.validate(&TrafficScenario::paper_default()),
            Err(ComfaseError::UnknownTarget(9))
        );
    }

    #[test]
    fn invalid_vectors_rejected() {
        let s = TrafficScenario::paper_default();
        let mut c = AttackCampaignSetup::paper_delay_campaign();
        c.attack_values.clear();
        assert!(c.validate(&s).is_err());
        c = AttackCampaignSetup::paper_delay_campaign();
        c.attack_starts_s = vec![99.0];
        assert!(c.validate(&s).is_err());
        c = AttackCampaignSetup::paper_delay_campaign();
        c.attack_durations_s = vec![0.0];
        assert!(c.validate(&s).is_err());
        c = AttackCampaignSetup::paper_delay_campaign();
        c.target_vehicles.clear();
        assert!(c.validate(&s).is_err());
    }

    #[test]
    fn scenario_validation_catches_bad_lane() {
        let mut s = TrafficScenario::paper_default();
        s.platoon.lane = 9;
        assert!(s.validate().is_err());
    }

    #[test]
    fn with_controller_swaps_controller() {
        let s = TrafficScenario::paper_default().with_controller(ControllerKind::Acc);
        assert_eq!(s.platoon.controller, ControllerKind::Acc);
    }

    #[test]
    fn configs_serialize() {
        // Fingerprint input: fields in declaration order, enums
        // externally tagged, absent options as `null`.
        let json = comfase_json::to_string(&TrafficScenario::paper_default());
        assert!(json.starts_with("{\"road\":{\"id\":"), "{json}");
        assert!(json.contains("\"controller\":\"PathCacc\""), "{json}");
        assert!(
            json.contains("\"maneuver\":{\"Sinusoidal\":{\"amplitude_mps\":"),
            "{json}"
        );
        assert!(
            json.ends_with("\"safety_monitor\":null,\"background_vehicles\":[],\"jammers\":[]}"),
            "{json}"
        );
        let comm = comfase_json::to_string(&CommModel::paper_default());
        assert_eq!(
            comm,
            "{\"channel_switching\":false,\"wireless_model\":\"FreeSpace\",\
             \"packet_size_bits\":200,\"beaconing_time\":100000000}"
        );
    }
}
