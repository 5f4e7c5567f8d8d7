//! Teleoperation scenario — the paper's future-work direction of
//! evaluating "scenarios other than platooning such as a teleoperation
//! scenario" (§V).
//!
//! A remotely operated vehicle drives toward a stopped obstacle vehicle.
//! The control loop is closed over the wireless channel:
//!
//! - the vehicle uplinks a **status message** (position, speed) every
//!   `command_period`;
//! - a roadside **operator station** tracks the vehicle from those
//!   messages and downlinks a **speed command**: cruise until the vehicle
//!   is within braking distance of the obstacle (plus a safety margin),
//!   then command a stop;
//! - the vehicle applies the *last received* command — it has no local
//!   autonomy, which is precisely the hazard teleoperation evaluations
//!   probe.
//!
//! Both link directions run, selectably, over the same 802.11p stack as
//! the platooning scenario ([`TeleopLink::Wave`]) or over a 4G/5G-style
//! cellular bearer ([`TeleopLink::Cellular`] — the paper's planned INET
//! extension), and every ComFASE attack model (delay, DoS, drop,
//! falsification of the uplinked position …) applies unchanged via
//! [`TeleopWorld::install_attack`].
//!
//! The 802.11p side is the crate's shared radio stack (the `radio`
//! module, which [`crate::world::World`] runs on too), so this module
//! holds only the scenario: the control loop, the status and command
//! codecs, and the cellular bearer. One difference is deliberate: a
//! crashed teleoperated vehicle leaves the medium but is not silenced,
//! so its MAC still decides the frames already in flight to it.

use comfase_des::rng::{RngStream, StreamId};
use comfase_des::sim::Simulator;
use comfase_des::time::{SimDuration, SimTime};
use comfase_des::wire::take;
use comfase_obs::{ObsConfig, SimRecorder};
use comfase_platoon::app::AppStats;
use comfase_traffic::network::{LaneIndex, Road};
use comfase_traffic::simulation::{TrafficSim, STEP_LEN};
use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};
use comfase_wireless::channel::{ChannelInterceptor, LinkFate};
use comfase_wireless::frame::{NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacConfig};
use comfase_wireless::pathloss::{FreeSpace, PathLoss};

use crate::error::ComfaseError;
use crate::log::RunLog;
use crate::radio::{Radio, RadioEvent, PRIO_RADIO};

/// Vehicle id of the remotely driven vehicle.
pub const TELEOP_VEHICLE: u32 = 1;
/// Vehicle id of the stopped obstacle.
pub const OBSTACLE_VEHICLE: u32 = 2;
/// Radio node id of the operator station.
pub const OPERATOR_NODE: u32 = 100;

/// Which communication technology carries the teleoperation link.
///
/// The paper plans an INET integration "which offers other communication
/// protocols such as 4G and 5G to be able to evaluate scenarios other than
/// platooning such as, a teleoperation scenario" (§V). [`TeleopLink::Wave`]
/// runs the loop over the full 802.11p stack; [`TeleopLink::Cellular`] is
/// a network-level cellular bearer model: fixed one-way latency plus
/// uniform jitter and i.i.d. packet loss, as seen by an application using
/// an LTE/5G uplink/downlink. Attack models apply to either technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TeleopLink {
    /// IEEE 802.11p WAVE (roadside unit), the default.
    Wave,
    /// Cellular bearer (4G/5G-style latency/jitter/loss model).
    Cellular {
        /// One-way network latency.
        latency: SimDuration,
        /// Additional uniform jitter in `[0, jitter]`.
        jitter: SimDuration,
        /// Independent packet loss probability in `[0, 1]`.
        loss_probability: f64,
    },
}

impl TeleopLink {
    /// A 4G-like bearer: 50 ms one-way latency, 20 ms jitter, 1% loss.
    pub fn lte_default() -> Self {
        TeleopLink::Cellular {
            latency: SimDuration::from_millis(50),
            jitter: SimDuration::from_millis(20),
            loss_probability: 0.01,
        }
    }
}

/// Configuration of the teleoperation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TeleopScenario {
    /// The road driven on.
    pub road: Road,
    /// The remotely driven vehicle.
    pub vehicle: VehicleSpec,
    /// Commanded cruise speed, m/s.
    pub cruise_speed_mps: f64,
    /// Start position of the teleoperated vehicle, metres.
    pub start_pos_m: f64,
    /// Front-bumper position of the stopped obstacle vehicle, metres.
    pub obstacle_pos_m: f64,
    /// Longitudinal position of the roadside operator antenna, metres.
    pub operator_pos_m: f64,
    /// Status uplink / command downlink period.
    pub command_period: SimDuration,
    /// Extra stopping margin the operator plans for, metres.
    pub safety_margin_m: f64,
    /// Deceleration the operator assumes for the braking-distance
    /// calculation, m/s² (positive; typically the comfortable rate).
    pub planning_decel_mps2: f64,
    /// Total simulation time.
    pub total_sim_time: SimTime,
    /// Link technology for the control loop.
    pub link: TeleopLink,
}

impl TeleopScenario {
    /// A highway teleoperation preset: approach a stalled car at 72 km/h
    /// with a 10 Hz command loop and a 15 m planned margin.
    pub fn highway_default() -> Self {
        TeleopScenario {
            road: Road::paper_highway(),
            vehicle: VehicleSpec::paper_platooning_car(),
            cruise_speed_mps: 20.0,
            start_pos_m: 100.0,
            obstacle_pos_m: 900.0,
            operator_pos_m: 500.0,
            command_period: SimDuration::from_millis(100),
            safety_margin_m: 15.0,
            planning_decel_mps2: 5.0,
            total_sim_time: SimTime::from_secs(60),
            link: TeleopLink::Wave,
        }
    }

    /// The same scenario over a 4G-like cellular bearer.
    pub fn highway_cellular() -> Self {
        TeleopScenario {
            link: TeleopLink::lte_default(),
            ..TeleopScenario::highway_default()
        }
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ComfaseError> {
        self.vehicle
            .validate()
            .map_err(ComfaseError::InvalidConfig)?;
        if self.obstacle_pos_m <= self.start_pos_m {
            return Err(ComfaseError::InvalidConfig(
                "obstacle must be ahead of the vehicle".into(),
            ));
        }
        if !self.road.contains(self.obstacle_pos_m) || !self.road.contains(self.start_pos_m) {
            return Err(ComfaseError::InvalidConfig(
                "positions must be on the road".into(),
            ));
        }
        if self.cruise_speed_mps <= 0.0 {
            return Err(ComfaseError::InvalidConfig(
                "cruise speed must be positive".into(),
            ));
        }
        if self.command_period <= SimDuration::ZERO {
            return Err(ComfaseError::InvalidConfig(
                "command period must be positive".into(),
            ));
        }
        if self.planning_decel_mps2 <= 0.0 {
            return Err(ComfaseError::InvalidConfig(
                "planning decel must be positive".into(),
            ));
        }
        if let TeleopLink::Cellular {
            loss_probability, ..
        } = self.link
        {
            if !(0.0..=1.0).contains(&loss_probability) {
                return Err(ComfaseError::InvalidConfig(format!(
                    "loss probability {loss_probability} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// Uplink status report from the vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusMsg {
    /// Front-bumper position, metres.
    pub pos_m: f64,
    /// Speed, m/s.
    pub speed_mps: f64,
    /// Sampling time.
    pub sampled: SimTime,
}

impl StatusMsg {
    const TAG: u8 = 0x51;

    /// Serializes for transmission (big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(25);
        b.push(Self::TAG);
        b.extend_from_slice(&self.pos_m.to_be_bytes());
        b.extend_from_slice(&self.speed_mps.to_be_bytes());
        b.extend_from_slice(&self.sampled.as_nanos().to_be_bytes());
        b
    }

    /// Deserializes; `None` when the payload is not a status message.
    pub fn decode(mut buf: &[u8]) -> Option<StatusMsg> {
        if buf.len() < 25 || take::<1>(&mut buf) != [Self::TAG] {
            return None;
        }
        Some(StatusMsg {
            pos_m: f64::from_be_bytes(take(&mut buf)),
            speed_mps: f64::from_be_bytes(take(&mut buf)),
            sampled: SimTime::from_nanos(i64::from_be_bytes(take(&mut buf))),
        })
    }
}

/// Downlink speed command from the operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandMsg {
    /// Target speed the vehicle should track, m/s (0 = stop).
    pub target_speed_mps: f64,
    /// Issue time.
    pub issued: SimTime,
}

impl CommandMsg {
    const TAG: u8 = 0x52;

    /// Serializes for transmission (big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(17);
        b.push(Self::TAG);
        b.extend_from_slice(&self.target_speed_mps.to_be_bytes());
        b.extend_from_slice(&self.issued.as_nanos().to_be_bytes());
        b
    }

    /// Deserializes; `None` when the payload is not a command message.
    pub fn decode(mut buf: &[u8]) -> Option<CommandMsg> {
        if buf.len() < 17 || take::<1>(&mut buf) != [Self::TAG] {
            return None;
        }
        Some(CommandMsg {
            target_speed_mps: f64::from_be_bytes(take(&mut buf)),
            issued: SimTime::from_nanos(i64::from_be_bytes(take(&mut buf))),
        })
    }
}

#[derive(Debug)]
enum TeleopEvent {
    TrafficStep,
    VehicleUplink,
    OperatorDownlink,
    /// A cellular packet arrives at its destination node.
    CellularDeliver {
        rx: u32,
        wsm: Wsm,
    },
    /// An event of the 802.11p stack.
    Radio(RadioEvent),
}

impl From<RadioEvent> for TeleopEvent {
    fn from(ev: RadioEvent) -> Self {
        TeleopEvent::Radio(ev)
    }
}

const PRIO_TRAFFIC: i16 = 0;
const PRIO_APP: i16 = 10;

/// What the two ends of the control loop know.
#[derive(Debug, Default)]
struct ControlLoop {
    /// Last command received by the vehicle.
    last_command: Option<CommandMsg>,
    /// Operator's belief about the vehicle.
    believed: Option<StatusMsg>,
    commands_received: u64,
    statuses_received: u64,
}

impl ControlLoop {
    /// Delivers a decoded application payload to a node.
    fn deliver(&mut self, rx: u32, wsm: &Wsm) {
        if rx == OPERATOR_NODE {
            if let Some(status) = StatusMsg::decode(&wsm.payload) {
                if self.believed.is_none_or(|b| status.sampled >= b.sampled) {
                    self.believed = Some(status);
                }
                self.statuses_received += 1;
            }
        } else if rx == TELEOP_VEHICLE {
            if let Some(cmd) = CommandMsg::decode(&wsm.payload) {
                if self.last_command.is_none_or(|c| cmd.issued >= c.issued) {
                    self.last_command = Some(cmd);
                }
                self.commands_received += 1;
            }
        }
    }
}

/// The teleoperation co-simulation.
#[derive(Debug)]
pub struct TeleopWorld {
    sim: Simulator<TeleopEvent>,
    traffic: TrafficSim,
    /// The vehicle's and the operator station's 802.11p nodes. They exist
    /// on a cellular link too, and then stay idle.
    radio: Radio<()>,
    /// Always disabled: the shared radio code records into it, and the run
    /// log's telemetry stays empty.
    obs: SimRecorder,
    scenario: TeleopScenario,
    control: ControlLoop,
    seq: u32,
    /// Attack interceptor for the cellular bearer (the medium holds the
    /// interceptor in WAVE mode).
    cell_interceptor: Option<Box<dyn ChannelInterceptor>>,
    cell_rng: RngStream,
    /// Cellular packets dropped by the bearer's own loss process.
    cell_lost: u64,
}

impl TeleopWorld {
    /// Builds the teleoperation world.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration.
    pub fn new(scenario: &TeleopScenario, seed: u64) -> Result<TeleopWorld, ComfaseError> {
        scenario.validate()?;
        let sim: Simulator<TeleopEvent> = Simulator::new(seed);
        let mut traffic = TrafficSim::new(scenario.road.clone(), sim.rng(StreamId(0)));
        let lane = LaneIndex(0);
        traffic.add_vehicle(Vehicle::new(
            VehicleId(TELEOP_VEHICLE),
            scenario.vehicle.clone(),
            scenario.start_pos_m,
            lane,
            scenario.cruise_speed_mps,
        ))?;
        traffic.set_external_control(VehicleId(TELEOP_VEHICLE))?;
        traffic.add_vehicle(Vehicle::new(
            VehicleId(OBSTACLE_VEHICLE),
            scenario.vehicle.clone(),
            scenario.obstacle_pos_m,
            lane,
            0.0,
        ))?;
        traffic.set_external_control(VehicleId(OBSTACLE_VEHICLE))?;

        let mut radio = Radio::new(PathLoss::FreeSpace(FreeSpace::default()));
        let mac = |stream| Mac::new(MacConfig::default(), sim.rng(StreamId(stream)));
        radio.add_node(TELEOP_VEHICLE, mac(1), ());
        radio.add_node(OPERATOR_NODE, mac(2), ());
        let mast = Position::new(scenario.operator_pos_m, 15.0, 6.0); // roadside
        radio
            .medium_mut()
            .update_position(NodeId(OPERATOR_NODE), mast);
        radio.sync_positions(&traffic, scenario.road.lane_center_offset(lane));

        let mut world = TeleopWorld {
            cell_rng: sim.rng(StreamId(3)),
            sim,
            traffic,
            radio,
            obs: SimRecorder::new(ObsConfig::disabled()),
            scenario: scenario.clone(),
            control: ControlLoop::default(),
            seq: 0,
            cell_interceptor: None,
            cell_lost: 0,
        };
        world.sim.schedule_at_with_priority(
            SimTime::ZERO + STEP_LEN,
            PRIO_TRAFFIC,
            TeleopEvent::TrafficStep,
        );
        world.sim.schedule_at_with_priority(
            SimTime::ZERO + SimDuration::from_millis(20),
            PRIO_APP,
            TeleopEvent::VehicleUplink,
        );
        world.sim.schedule_at_with_priority(
            SimTime::ZERO + SimDuration::from_millis(70),
            PRIO_APP,
            TeleopEvent::OperatorDownlink,
        );
        Ok(world)
    }

    /// Installs an attack interceptor on the link (ComFASE Step 3). The
    /// same attack models apply to both link technologies: on WAVE the
    /// interceptor sits in the wireless channel, on cellular it intercepts
    /// the bearer's packets.
    pub fn install_attack(&mut self, interceptor: Box<dyn ChannelInterceptor>) {
        match self.scenario.link {
            TeleopLink::Wave => self.radio.medium_mut().set_interceptor(interceptor),
            TeleopLink::Cellular { .. } => self.cell_interceptor = Some(interceptor),
        }
    }

    /// Removes the attack.
    pub fn clear_attack(&mut self) {
        self.radio.medium_mut().clear_interceptor();
        self.cell_interceptor = None;
    }

    /// Cellular packets lost by the bearer's own loss process.
    pub fn cellular_losses(&self) -> u64 {
        self.cell_lost
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Commands successfully received by the vehicle so far.
    pub fn commands_received(&self) -> u64 {
        self.control.commands_received
    }

    /// Status messages successfully received by the operator so far.
    pub fn statuses_received(&self) -> u64 {
        self.control.statuses_received
    }

    /// Runs until `limit` (clamped to the configured horizon).
    pub fn run_until(&mut self, limit: SimTime) {
        let limit = limit.min(self.scenario.total_sim_time);
        while let Some((_, ev)) = self.sim.pop_due(limit) {
            self.dispatch(ev);
        }
        self.sim.advance_to(limit);
    }

    /// Runs to the configured end.
    pub fn run_to_end(&mut self) {
        self.run_until(self.scenario.total_sim_time);
    }

    /// Extracts the run log.
    pub fn into_log(self) -> RunLog {
        self.radio
            .into_log(&self.sim, self.traffic, self.obs, |()| AppStats::default())
    }

    fn dispatch(&mut self, ev: TeleopEvent) {
        match ev {
            TeleopEvent::TrafficStep => self.on_traffic_step(),
            TeleopEvent::VehicleUplink => self.on_vehicle_uplink(),
            TeleopEvent::OperatorDownlink => self.on_operator_downlink(),
            TeleopEvent::CellularDeliver { rx, wsm } => self.control.deliver(rx, &wsm),
            TeleopEvent::Radio(ev) => {
                let deliver = |rx, (): &mut (), wsm: &Wsm| self.control.deliver(rx, wsm);
                self.radio
                    .dispatch(&mut self.sim, &mut self.obs, ev, deliver);
            }
        }
    }

    /// Sends a message over the configured link technology.
    fn send(&mut self, from: u32, to: u32, wsm: Wsm) {
        let now = self.sim.now();
        match self.scenario.link {
            TeleopLink::Wave => {
                self.radio
                    .send(&mut self.sim, &mut self.obs, from, |()| Some(wsm));
            }
            TeleopLink::Cellular {
                latency,
                jitter,
                loss_probability,
            } => {
                // Bearer loss process.
                if self.cell_rng.bernoulli(loss_probability.clamp(0.0, 1.0)) {
                    self.cell_lost += 1;
                    return;
                }
                let jitter_draw = SimDuration::from_nanos(
                    (jitter.as_nanos() as f64 * self.cell_rng.uniform()) as i64,
                );
                let default_delay = latency + jitter_draw;
                // Attack interception at the bearer level.
                let fate = match self.cell_interceptor.as_mut() {
                    Some(i) => i.intercept(NodeId(from), NodeId(to), now, default_delay, &wsm),
                    None => LinkFate::Deliver {
                        delay: default_delay,
                    },
                };
                let (delay, wsm) = match fate {
                    LinkFate::Deliver { delay } => (delay, wsm),
                    LinkFate::DeliverModified { delay, wsm } => (delay, wsm),
                    LinkFate::Drop => return,
                };
                self.sim.schedule_at_with_priority(
                    now + delay,
                    PRIO_RADIO,
                    TeleopEvent::CellularDeliver { rx: to, wsm },
                );
            }
        }
    }

    fn on_traffic_step(&mut self) {
        let now = self.sim.now();
        // Vehicle control: track the last received command with a
        // proportional speed loop; with no command yet, hold cruise speed.
        let veh = self
            .traffic
            .vehicle(VehicleId(TELEOP_VEHICLE))
            .expect("vehicle exists");
        let target = self
            .control
            .last_command
            .map_or(self.scenario.cruise_speed_mps, |c| c.target_speed_mps);
        let accel = 1.0 * (target - veh.state.speed_mps);
        self.traffic
            .command_accel(VehicleId(TELEOP_VEHICLE), accel)
            .expect("vehicle exists");
        // A collision ends remote operability: the collider leaves the
        // road, and its radio leaves the medium with it.
        self.traffic.step();
        self.radio.sync_positions(
            &self.traffic,
            self.scenario.road.lane_center_offset(LaneIndex(0)),
        );
        let next = now + STEP_LEN;
        if next <= self.scenario.total_sim_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_TRAFFIC, TeleopEvent::TrafficStep);
        }
    }

    fn on_vehicle_uplink(&mut self) {
        let now = self.sim.now();
        if let Some(v) = self.traffic.vehicle(VehicleId(TELEOP_VEHICLE)) {
            if v.active {
                let status = StatusMsg {
                    pos_m: v.state.pos_m,
                    speed_mps: v.state.speed_mps,
                    sampled: now,
                };
                self.seq += 1;
                let wsm = Wsm {
                    source: NodeId(TELEOP_VEHICLE),
                    sequence: self.seq,
                    created: now,
                    channel: WaveChannel::Cch,
                    payload: status.encode().into(),
                };
                self.send(TELEOP_VEHICLE, OPERATOR_NODE, wsm);
            }
        }
        let next = now + self.scenario.command_period;
        if next <= self.scenario.total_sim_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_APP, TeleopEvent::VehicleUplink);
        }
    }

    fn on_operator_downlink(&mut self) {
        let now = self.sim.now();
        // Plan on the *believed* state: stop when within planned braking
        // distance of the obstacle.
        let target = match &self.control.believed {
            Some(status) => {
                let braking_dist =
                    status.speed_mps * status.speed_mps / (2.0 * self.scenario.planning_decel_mps2);
                let stop_point = self.scenario.obstacle_pos_m
                    - self.scenario.vehicle.length_m
                    - self.scenario.safety_margin_m
                    - braking_dist;
                if status.pos_m >= stop_point {
                    0.0
                } else {
                    self.scenario.cruise_speed_mps
                }
            }
            None => self.scenario.cruise_speed_mps,
        };
        let cmd = CommandMsg {
            target_speed_mps: target,
            issued: now,
        };
        self.seq += 1;
        let wsm = Wsm {
            source: NodeId(OPERATOR_NODE),
            sequence: self.seq,
            created: now,
            channel: WaveChannel::Cch,
            payload: cmd.encode().into(),
        };
        self.send(OPERATOR_NODE, TELEOP_VEHICLE, wsm);
        let next = now + self.scenario.command_period;
        if next <= self.scenario.total_sim_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_APP, TeleopEvent::OperatorDownlink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackModelKind, AttackSpec};

    fn scenario() -> TeleopScenario {
        TeleopScenario {
            total_sim_time: SimTime::from_secs(60),
            ..TeleopScenario::highway_default()
        }
    }

    #[test]
    fn status_and_command_round_trip() {
        let s = StatusMsg {
            pos_m: 123.0,
            speed_mps: 19.5,
            sampled: SimTime::from_secs(3),
        };
        assert_eq!(StatusMsg::decode(&s.encode()), Some(s));
        let c = CommandMsg {
            target_speed_mps: 0.0,
            issued: SimTime::from_secs(4),
        };
        assert_eq!(CommandMsg::decode(&c.encode()), Some(c));
        // Cross-decoding fails on the tag.
        assert_eq!(StatusMsg::decode(&c.encode()), None);
        assert_eq!(CommandMsg::decode(&s.encode()), None);
    }

    #[test]
    fn healthy_teleoperation_stops_before_the_obstacle() {
        let mut w = TeleopWorld::new(&scenario(), 1).unwrap();
        w.run_to_end();
        assert!(w.commands_received() > 100, "command link alive");
        assert!(w.statuses_received() > 100, "status link alive");
        let log = w.into_log();
        assert!(
            !log.trace.has_collision(),
            "operator must stop the vehicle in time"
        );
        let tr = log.trace.vehicle(VehicleId(TELEOP_VEHICLE)).unwrap();
        let final_pos = tr.pos.last_value().unwrap();
        // Stopped short of the obstacle but well past the start.
        assert!(final_pos > 500.0, "vehicle drove: {final_pos}");
        assert!(
            final_pos < scenario().obstacle_pos_m - scenario().vehicle.length_m,
            "vehicle stopped short: {final_pos}"
        );
        let final_speed = tr.speed.last_value().unwrap();
        assert!(final_speed < 0.1, "vehicle at rest: {final_speed}");
    }

    #[test]
    fn dos_on_the_link_crashes_into_the_obstacle() {
        let mut w = TeleopWorld::new(&scenario(), 1).unwrap();
        // Let the vehicle get close, then cut the link entirely.
        w.run_until(SimTime::from_secs(20));
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![TELEOP_VEHICLE].into(),
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(60),
        };
        w.install_attack(attack.build_interceptor(0));
        w.run_to_end();
        let log = w.into_log();
        assert!(
            log.trace.has_collision(),
            "with stale cruise commands the vehicle must hit the obstacle"
        );
        let c = log.trace.first_collision().unwrap();
        assert_eq!(c.collider, VehicleId(TELEOP_VEHICLE));
        assert_eq!(c.victim, VehicleId(OBSTACLE_VEHICLE));
    }

    #[test]
    fn command_delay_shrinks_the_stopping_margin() {
        let margin = |delay: Option<f64>| {
            let mut w = TeleopWorld::new(&scenario(), 1).unwrap();
            if let Some(pd) = delay {
                let attack = AttackSpec {
                    model: AttackModelKind::Delay,
                    value: pd,
                    targets: vec![TELEOP_VEHICLE].into(),
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(60),
                };
                w.install_attack(attack.build_interceptor(0));
            }
            w.run_to_end();
            let log = w.into_log();
            let tr = log.trace.vehicle(VehicleId(TELEOP_VEHICLE)).unwrap();
            let final_pos = tr.pos.last_value().unwrap();
            (
                scenario().obstacle_pos_m - scenario().vehicle.length_m - final_pos,
                log,
            )
        };
        let (clean_margin, _) = margin(None);
        let (delayed_margin, log) = margin(Some(1.0));
        assert!(
            delayed_margin < clean_margin,
            "1 s of command delay must eat into the margin: {delayed_margin} vs {clean_margin}"
        );
        assert!(log.channel.links_delay_modified > 0);
    }

    #[test]
    fn overlapping_transmissions_defer_on_carrier_sense() {
        // With a 50 ms period the vehicle's uplink and the operator's
        // downlink are due at the same instants. After the first exchange
        // both contend with a random backoff, so the later one hears the
        // earlier one's frame mid-contention and defers — while the
        // vehicle passes within carrier-sense range (~30 m) of the mast at
        // 500 m, around t = 20 s.
        let mut scenario = scenario();
        scenario.command_period = SimDuration::from_millis(50);
        scenario.total_sim_time = SimTime::from_secs(30);
        let mut w = TeleopWorld::new(&scenario, 1).unwrap();
        w.run_to_end();
        let log = w.into_log();
        let deferrals =
            log.comm[&TELEOP_VEHICLE].mac.deferrals + log.comm[&OPERATOR_NODE].mac.deferrals;
        assert!(deferrals > 0, "carrier sense never deferred a contention");
        // Carrier sense must not cost the link: both directions flow.
        assert!(log.channel.received > 300, "{:?}", log.channel);
    }

    #[test]
    fn cellular_link_drives_safely_too() {
        let mut scenario = TeleopScenario::highway_cellular();
        scenario.total_sim_time = SimTime::from_secs(60);
        let mut w = TeleopWorld::new(&scenario, 5).unwrap();
        w.run_to_end();
        assert!(w.commands_received() > 100, "cellular downlink alive");
        assert!(w.statuses_received() > 100, "cellular uplink alive");
        let lost = w.cellular_losses();
        assert!(lost > 0, "1% bearer loss should show over ~1200 packets");
        let log = w.into_log();
        assert!(!log.trace.has_collision(), "50 ms latency is manageable");
    }

    #[test]
    fn cellular_dos_crashes_like_wave_dos() {
        let mut scenario = TeleopScenario::highway_cellular();
        scenario.total_sim_time = SimTime::from_secs(60);
        let mut w = TeleopWorld::new(&scenario, 5).unwrap();
        w.run_until(SimTime::from_secs(20));
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![TELEOP_VEHICLE].into(),
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(60),
        };
        w.install_attack(attack.build_interceptor(0));
        w.run_to_end();
        let log = w.into_log();
        assert!(
            log.trace.has_collision(),
            "DoS on the bearer must crash the vehicle"
        );
    }

    #[test]
    fn cellular_latency_attack_erodes_margin() {
        let margin = |extra_delay: Option<f64>| {
            let scenario = TeleopScenario::highway_cellular();
            let mut w = TeleopWorld::new(&scenario, 5).unwrap();
            if let Some(pd) = extra_delay {
                let attack = AttackSpec {
                    model: AttackModelKind::Delay,
                    value: pd,
                    targets: vec![TELEOP_VEHICLE].into(),
                    start: SimTime::ZERO,
                    end: scenario.total_sim_time,
                };
                w.install_attack(attack.build_interceptor(0));
            }
            w.run_to_end();
            let log = w.into_log();
            let tr = log.trace.vehicle(VehicleId(TELEOP_VEHICLE)).unwrap();
            TeleopScenario::highway_default().obstacle_pos_m
                - TeleopScenario::highway_default().vehicle.length_m
                - tr.pos.max_value().unwrap()
        };
        assert!(margin(Some(0.8)) < margin(None));
    }

    #[test]
    fn cellular_is_deterministic() {
        let run = |seed| {
            let mut w = TeleopWorld::new(&TeleopScenario::highway_cellular(), seed).unwrap();
            w.run_to_end();
            (
                w.commands_received(),
                w.statuses_received(),
                w.cellular_losses(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn cellular_loss_probability_validated() {
        let mut s = TeleopScenario::highway_cellular();
        if let TeleopLink::Cellular {
            ref mut loss_probability,
            ..
        } = s.link
        {
            *loss_probability = 1.5;
        }
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut s = scenario();
        s.obstacle_pos_m = 50.0; // behind the start
        assert!(TeleopWorld::new(&s, 1).is_err());
        let mut s = scenario();
        s.cruise_speed_mps = 0.0;
        assert!(s.validate().is_err());
        let mut s = scenario();
        s.command_period = SimDuration::ZERO;
        assert!(s.validate().is_err());
        let mut s = scenario();
        s.planning_decel_mps2 = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn teleop_world_is_deterministic() {
        let run = |seed| {
            let mut w = TeleopWorld::new(&scenario(), seed).unwrap();
            w.run_to_end();
            let log = w.into_log();
            let tr = log.trace.vehicle(VehicleId(TELEOP_VEHICLE)).unwrap();
            tr.pos.last_value().unwrap()
        };
        assert_eq!(run(9), run(9));
    }
}
