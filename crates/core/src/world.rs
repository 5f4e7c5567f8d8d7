//! The composed co-simulation world (paper Fig. 2).
//!
//! [`World`] wires the four simulators together the way ComFASE wires
//! OMNeT++, SUMO, Veins and Plexe:
//!
//! - the **DES kernel** (`comfase-des`) owns time and the event queue;
//! - the **traffic simulation** (`comfase-traffic`) advances vehicle
//!   kinematics in 0.01 s steps, called directly from a recurring kernel
//!   event where ComFASE runs SUMO's TraCI loop;
//! - the **802.11p stack** (`comfase-wireless`: the medium and one EDCA
//!   MAC per platoon member, run by the crate's `radio` module, which
//!   [`crate::teleop::TeleopWorld`] shares) fans transmissions out with
//!   path loss and propagation delay, and hosts the attack interceptor.
//!   Background vehicles have no radio;
//! - per platoon member, a **platooning application** (`comfase-platoon`)
//!   exchanges beacons and commands accelerations.
//!
//! The engine drives the world with [`World::run_until`], installing and
//! removing attack interceptors at phase boundaries exactly as in Algo. 1.

use comfase_des::rng::StreamId;
use comfase_des::sim::{BreachKind, EventBudget, Simulator};
use comfase_des::time::{SimDuration, SimTime};
use comfase_obs::trace::TRACK_KERNEL;
use comfase_obs::{ObsConfig, SimRecorder, StepRecord, TraceKind};
use comfase_platoon::app::PlatoonApp;
use comfase_platoon::beacon::PlatoonBeacon;
use comfase_platoon::controller::{EgoState, RadarReading};
use comfase_platoon::maneuver::{Braking, ConstantSpeed, Maneuver, Sinusoidal};
use comfase_platoon::monitor::{MonitorDecision, SafetyMonitor};
use comfase_traffic::network::LaneIndex;
use comfase_traffic::simulation::{LeaderLookup, TrafficSim, STEP_LEN, STEP_LEN_S};
use comfase_traffic::trace::GoldenSpeeds;
use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};
use comfase_wireless::channel::{ChannelInterceptor, FanoutStrategy, Medium};
use comfase_wireless::frame::{NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacConfig};
use comfase_wireless::mac1609::ChannelSchedule;
use comfase_wireless::pathloss::{FreeSpace, LogNormalShadowing, PathLoss, TwoRayInterference};

use crate::config::{CommModel, ManeuverKind, TrafficScenario, WirelessModelKind};
use crate::error::ComfaseError;
use crate::log::RunLog;
use crate::radio::{Radio, RadioEvent, PRIO_RADIO};

/// Which execution substrate the hot paths use: the deterministic spatial
/// indexes (wireless neighbor grid + per-lane sorted orderings) or the
/// retained brute-force reference scans. Both produce bit-identical runs;
/// the reference exists for equivalence testing and benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexingMode {
    /// Grid fan-out + sorted-lane leader lookup (the default).
    #[default]
    Indexed,
    /// Brute-force reference scans in both substrates.
    BruteForce,
}

/// Same-time delivery order: radio events first ([`PRIO_RADIO`]), then
/// the traffic step, then beacon generation (so beacons sample the freshly
/// stepped state).
const PRIO_TRAFFIC: i16 = 0;
const PRIO_BEACON: i16 = 10;

/// A deliberate RF noise source attached to the scenario — the "jamming
/// attacks in the wireless channel" the paper lists as future work. The
/// jammer ignores CSMA and blasts junk frames periodically; legitimate
/// frames overlapping them fail the SNIR decider naturally.
#[derive(Debug, Clone, PartialEq)]
pub struct JammerSpec {
    /// Longitudinal position of the jammer antenna, metres.
    pub pos_x_m: f64,
    /// Lateral position (e.g. roadside), metres.
    pub pos_y_m: f64,
    /// Time between junk transmissions.
    pub period: SimDuration,
    /// Junk payload size in bytes (sets the jamming duty cycle together
    /// with the period).
    pub payload_bytes: usize,
    /// First transmission.
    pub start: SimTime,
    /// Jamming stops at this time.
    pub end: SimTime,
}
comfase_json::record!(ToJson for JammerSpec { pos_x_m, pos_y_m, period, payload_bytes, start, end });

/// Node ids from this value upward are reserved for jammers.
const JAMMER_NODE_BASE: u32 = 1_000_000;

/// What stopped a run before its configured end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFaultKind {
    /// The sim-event / sim-time budget was exhausted (deterministic
    /// watchdog, see [`EventBudget`]).
    BudgetExceeded,
    /// A release-mode numeric guard found non-finite simulation state.
    NumericDiverged,
}

/// Structured record of a faulted run.
///
/// Every field derives from simulation state only, so a faulting experiment
/// produces the identical `RunFault` on every worker-thread count and in
/// both execution modes (for budgets: provided the budget exceeds the
/// attack-free prefix, which the engine's campaign configuration
/// guarantees by applying budgets to full experiment runs only).
#[derive(Debug, Clone, PartialEq)]
pub struct RunFault {
    /// Fault category.
    pub kind: RunFaultKind,
    /// Kernel clock when the fault was detected.
    pub at: SimTime,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl RunFault {
    /// Converts the fault into the engine error it surfaces as.
    pub fn to_error(&self) -> ComfaseError {
        let msg = format!("at {}: {}", self.at, self.detail);
        match self.kind {
            RunFaultKind::BudgetExceeded => ComfaseError::BudgetExceeded(msg),
            RunFaultKind::NumericDiverged => ComfaseError::NumericDiverged(msg),
        }
    }
}

/// Events flowing through the world's kernel.
#[derive(Debug, Clone)]
enum WorldEvent {
    /// Advance the traffic simulation by one step.
    TrafficStep,
    /// Generate and enqueue the next beacon of a vehicle.
    Beacon { vehicle: u32 },
    /// A jammer emits its next junk frame.
    JammerTx { jammer: usize },
    /// An event of the radio stack.
    Radio(RadioEvent),
}

impl From<RadioEvent> for WorldEvent {
    fn from(ev: RadioEvent) -> Self {
        WorldEvent::Radio(ev)
    }
}

/// The application side of one platoon member's radio node.
#[derive(Debug, Clone)]
struct Member {
    app: PlatoonApp,
    monitor: Option<SafetyMonitor>,
}

fn build_maneuver(kind: ManeuverKind, base_speed: f64) -> Maneuver {
    match kind {
        ManeuverKind::ConstantSpeed => Maneuver::ConstantSpeed(ConstantSpeed {
            speed_mps: base_speed,
        }),
        ManeuverKind::Sinusoidal {
            amplitude_mps,
            freq_hz,
            start_s,
        } => Maneuver::Sinusoidal(Sinusoidal {
            base_mps: base_speed,
            amplitude_mps,
            freq_hz,
            start: SimTime::from_secs_f64(start_s),
        }),
        ManeuverKind::Braking {
            brake_at_s,
            decel_mps2,
        } => Maneuver::Braking(Braking {
            cruise_mps: base_speed,
            brake_at: SimTime::from_secs_f64(brake_at_s),
            decel_mps2,
        }),
    }
}

/// Ids for radio-less background vehicles: allocated above the largest
/// platoon member id.
fn background_vehicle_id(platoon_members: &[u32], i: usize) -> u32 {
    platoon_members.iter().copied().max().unwrap_or(0) + 1 + i as u32
}

fn build_pathloss(kind: WirelessModelKind) -> PathLoss {
    match kind {
        WirelessModelKind::FreeSpace => PathLoss::FreeSpace(FreeSpace::default()),
        WirelessModelKind::TwoRayInterference => {
            PathLoss::TwoRayInterference(TwoRayInterference::default())
        }
        WirelessModelKind::LogNormalShadowing => {
            PathLoss::LogNormalShadowing(LogNormalShadowing::default())
        }
    }
}

/// The composed simulation of one experiment run.
///
/// `World` is `Clone`: a clone is a complete snapshot of the simulation
/// state — event queue, clock, vehicles, traces, MAC/medium/application
/// state, and RNG streams — so a clone run forward is bit-identical to the
/// original run forward. The campaign runner exploits this to simulate each
/// attack-free prefix (t = 0 to `attackStartTime`) once and fork every
/// experiment that shares it.
///
/// # Panics
///
/// Cloning panics if an attack interceptor is installed (see
/// [`Medium`]'s `Clone`): snapshots are taken at attack-free points only.
#[derive(Debug, Clone)]
pub struct World {
    sim: Simulator<WorldEvent>,
    traffic: TrafficSim,
    /// The medium and one radio node per platoon member.
    radio: Radio<Member>,
    beacon_interval: SimDuration,
    min_payload_bytes: usize,
    total_time: SimTime,
    lane_offset_y: f64,
    jammers: Vec<JammerSpec>,
    /// Deterministic telemetry recorder. Part of cloned state, so a forked
    /// run carries the prefix's counters exactly like a from-scratch run.
    obs: SimRecorder,
    /// First fault detected during this run (sticky; stops execution).
    fault: Option<RunFault>,
}

impl World {
    /// Builds a world from a validated scenario and communication model.
    ///
    /// # Errors
    ///
    /// Fails if either configuration is invalid.
    pub fn new(
        scenario: &TrafficScenario,
        comm: &CommModel,
        seed: u64,
    ) -> Result<World, ComfaseError> {
        World::with_obs(scenario, comm, seed, ObsConfig::disabled())
    }

    /// Builds a world with a telemetry configuration. With
    /// [`ObsConfig::disabled`] this is identical to [`World::new`] — the
    /// recorder degenerates to a no-op.
    ///
    /// # Errors
    ///
    /// Fails if either configuration is invalid.
    pub fn with_obs(
        scenario: &TrafficScenario,
        comm: &CommModel,
        seed: u64,
        obs: ObsConfig,
    ) -> Result<World, ComfaseError> {
        scenario.validate()?;
        comm.validate()?;

        let sim: Simulator<WorldEvent> = Simulator::new(seed);
        let mut traffic = TrafficSim::new(scenario.road.clone(), sim.rng(StreamId(0)));
        // The run length is known up front: size the per-step trace buffers
        // once instead of growing them across thousands of steps.
        let planned_steps = scenario.total_sim_time.as_nanos() / STEP_LEN.as_nanos();
        traffic.reserve_trace_capacity(planned_steps as usize + 1);
        let mut radio = Radio::new(build_pathloss(comm.wireless_model));

        let lane = LaneIndex(scenario.platoon.lane);
        let lane_offset_y = scenario.road.lane_center_offset(lane);
        let leader_id = scenario.platoon.leader();
        for (vehicle, pos) in scenario
            .platoon
            .initial_positions(scenario.vehicle.length_m)
        {
            traffic.add_vehicle(Vehicle::new(
                VehicleId(vehicle),
                scenario.vehicle.clone(),
                pos,
                lane,
                scenario.platoon.initial_speed_mps,
            ))?;
            traffic.set_external_control(VehicleId(vehicle))?;
            let app = if vehicle == leader_id {
                PlatoonApp::leader(
                    vehicle,
                    build_maneuver(scenario.maneuver, scenario.platoon.initial_speed_mps),
                )
            } else {
                let pred = scenario
                    .platoon
                    .predecessor_of(vehicle)
                    .expect("followers have predecessors");
                PlatoonApp::follower_with_failsafe(
                    vehicle,
                    leader_id,
                    pred,
                    scenario.platoon.controller,
                    scenario
                        .platoon
                        .staleness_timeout_s
                        .map(SimDuration::from_secs_f64),
                )
            };
            let mac_cfg = MacConfig {
                schedule: if comm.channel_switching {
                    ChannelSchedule::alternating()
                } else {
                    ChannelSchedule::default()
                },
                ..MacConfig::default()
            };
            let mac = Mac::new(mac_cfg, sim.rng(StreamId(1000 + u64::from(vehicle))));
            let monitor = if vehicle == leader_id {
                None // the leader drives the maneuver; monitors guard followers
            } else {
                scenario.safety_monitor.map(SafetyMonitor::new)
            };
            radio.add_node(vehicle, mac, Member { app, monitor });
        }

        // Radio-less background traffic driven by the built-in
        // car-following model.
        let platoon_ids: Vec<u32> = scenario.platoon.members.clone();
        for (i, &(lane_idx, pos, speed)) in scenario.background_vehicles.iter().enumerate() {
            let id = background_vehicle_id(&platoon_ids, i);
            traffic.add_vehicle(Vehicle::new(
                VehicleId(id),
                VehicleSpec::default_car(),
                pos,
                LaneIndex(lane_idx),
                speed,
            ))?;
        }

        radio.sync_positions(&traffic, lane_offset_y);
        let min_payload_bytes = comm.packet_size_bits.saturating_sub(192).div_ceil(8);
        let mut world = World {
            sim,
            traffic,
            radio,
            beacon_interval: comm.beaconing_time,
            min_payload_bytes,
            total_time: scenario.total_sim_time,
            lane_offset_y,
            jammers: Vec::new(),
            obs: SimRecorder::new(obs),
            fault: None,
        };
        for spec in &scenario.jammers {
            world.add_jammer(spec.clone());
        }

        // Kick off the recurring events: the traffic step loop and one
        // beacon timer per vehicle, staggered by 1 ms to avoid perfectly
        // synchronised channel access at t = 0.
        world.sim.schedule_at_with_priority(
            SimTime::ZERO + STEP_LEN,
            PRIO_TRAFFIC,
            WorldEvent::TrafficStep,
        );
        let mut vehicles = scenario.platoon.members.clone();
        vehicles.sort_unstable();
        for (i, vehicle) in vehicles.into_iter().enumerate() {
            let first = SimDuration::from_millis(10) + SimDuration::from_millis(i as i64);
            world.sim.schedule_at_with_priority(
                SimTime::ZERO + first,
                PRIO_BEACON,
                WorldEvent::Beacon { vehicle },
            );
        }
        Ok(world)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Total configured simulation time.
    pub fn total_time(&self) -> SimTime {
        self.total_time
    }

    /// Selects the execution substrate for the two hot paths: the wireless
    /// fan-out and the traffic leader lookup. Results are bit-identical in
    /// both modes; [`IndexingMode::BruteForce`] exists as the reference for
    /// equivalence tests and scaling benchmarks.
    pub fn set_indexing(&mut self, mode: IndexingMode) {
        match mode {
            IndexingMode::Indexed => {
                self.radio
                    .medium_mut()
                    .set_fanout_strategy(FanoutStrategy::Grid);
                self.traffic.set_leader_lookup(LeaderLookup::Indexed);
            }
            IndexingMode::BruteForce => {
                self.radio
                    .medium_mut()
                    .set_fanout_strategy(FanoutStrategy::BruteForce);
                self.traffic.set_leader_lookup(LeaderLookup::Linear);
            }
        }
    }

    /// Installs an attack interceptor on the wireless channel
    /// (`CommModelEditor`, Algo. 1 line 11).
    pub fn install_attack(&mut self, interceptor: Box<dyn ChannelInterceptor>) {
        self.obs.inc("attack.installed");
        self.obs
            .trace_event(self.sim.now(), TRACK_KERNEL, "attack.on", TraceKind::Mark);
        self.radio.medium_mut().set_interceptor(interceptor);
    }

    /// Removes the attack, restoring the original communication model.
    pub fn clear_attack(&mut self) {
        self.obs
            .trace_event(self.sim.now(), TRACK_KERNEL, "attack.off", TraceKind::Mark);
        self.radio.medium_mut().clear_interceptor();
    }

    /// Forks this world mid-attack for snapshot-DAG execution.
    ///
    /// The fork is a snapshot of everything *except* the interceptor: the
    /// interceptor is detached for the duration of the clone (satisfying
    /// the [`Medium`] snapshot invariant that attack state is never
    /// cloned) and re-installed on `self` afterwards. The returned leaf
    /// carries no interceptor, so its subsequent [`World::clear_attack`]
    /// is a pure trace/bookkeeping step — exactly the state a from-scratch
    /// run has after `run_until(attack.end)` + `clear_attack()`.
    ///
    /// Only valid for seed-invariant attacks
    /// ([`crate::attack::AttackModelKind::seed_invariant`]): a stateful
    /// interceptor (probabilistic drop) would lose RNG state in the fork.
    pub fn fork_post_attack(&mut self) -> World {
        let interceptor = self.radio.medium_mut().clear_interceptor();
        let mut leaf = self.clone();
        if let Some(i) = interceptor {
            self.radio.medium_mut().set_interceptor(i);
        }
        // Substrate-diagnostic counter (`exec.` prefix): excluded from
        // `metrics.json`, where mid-attack forks must be invisible.
        leaf.obs.inc("exec.fork.mid_attack");
        leaf
    }

    /// Folds the trace against `golden` instead of recording it (see
    /// [`TrafficSim::fold_trace`]), for the campaign runner's worlds, which
    /// serve only their verdict. Clones inherit the fold.
    pub(crate) fn fold_trace(&mut self, golden: std::sync::Arc<GoldenSpeeds>) {
        self.traffic.fold_trace(golden);
    }

    /// Installs a sim-event / sim-time budget on the kernel (the
    /// deterministic watchdog). Events are counted from t = 0 — the counter
    /// is part of the snapshot state — so forked and from-scratch runs
    /// breach at the identical event.
    pub fn set_budget(&mut self, budget: EventBudget) {
        self.sim.set_budget(budget);
    }

    /// The first fault this run hit, if any. A faulted world stops
    /// executing: further `run_until` calls return immediately.
    pub fn fault(&self) -> Option<&RunFault> {
        self.fault.as_ref()
    }

    /// Runs the world until `limit` (clamped to the configured total time).
    ///
    /// Stops early — without advancing the clock to `limit` — when a fault
    /// is detected: a kernel budget breach or a numeric guard firing in the
    /// traffic or wireless layer. The fault is sticky (see
    /// [`World::fault`]); subsequent calls are no-ops, which keeps the
    /// engine's multi-phase run sequence safe without special-casing.
    pub fn run_until(&mut self, limit: SimTime) {
        if self.fault.is_some() {
            return;
        }
        let limit = limit.min(self.total_time);
        while let Some((t, ev)) = self.sim.pop_due(limit) {
            self.dispatch(ev);
            // Numeric guards are polled per event rather than per check
            // site so detection order (and thus the recorded fault) is
            // deterministic.
            let numeric = self
                .traffic
                .numeric_fault()
                .or_else(|| self.radio.medium().numeric_fault());
            if let Some(detail) = numeric {
                self.fault = Some(RunFault {
                    kind: RunFaultKind::NumericDiverged,
                    at: t,
                    detail: detail.to_string(),
                });
                return;
            }
        }
        if let Some(breach) = self.sim.breach() {
            let what = match breach.kind {
                BreachKind::Delivered => format!(
                    "event budget exhausted: {} events delivered, next event at {}",
                    breach.delivered, breach.at
                ),
                BreachKind::SimTime => format!(
                    "sim-time budget exhausted: next event at {} is past the allowed horizon",
                    breach.at
                ),
            };
            self.fault = Some(RunFault {
                kind: RunFaultKind::BudgetExceeded,
                at: self.sim.now(),
                detail: what,
            });
            return;
        }
        self.sim.advance_to(limit);
    }

    /// Runs to the end of the configured simulation time.
    pub fn run_to_end(&mut self) {
        self.run_until(self.total_time);
    }

    /// Extracts the run log (consumes the world).
    pub fn into_log(mut self) -> RunLog {
        // Index health counters. The `index.` prefix marks them as
        // strategy-dependent diagnostics: campaign metrics filter them out
        // so `metrics.json` stays byte-identical between indexed and
        // brute-force runs.
        if self.obs.enabled() {
            self.obs.add(
                "index.medium.links_pruned_by_grid",
                self.radio.medium().stats().links_pruned_by_grid,
            );
            self.obs
                .add("index.traffic.lane_rebuilds", self.traffic.index_rebuilds());
        }
        self.radio
            .into_log(&self.sim, self.traffic, self.obs, |m| m.app.stats())
    }

    /// Read access to the traffic simulation (for examples and tests).
    pub fn traffic(&self) -> &TrafficSim {
        &self.traffic
    }

    /// Read access to the wireless medium (for examples and tests).
    pub fn medium(&self) -> &Medium {
        self.radio.medium()
    }

    /// Safety-monitor interventions of one vehicle so far (`None` if the
    /// vehicle has no monitor).
    pub fn monitor_interventions(&self, vehicle: u32) -> Option<u64> {
        self.radio
            .app(vehicle)?
            .monitor
            .as_ref()
            .map(SafetyMonitor::interventions)
    }

    /// Attaches an RF jammer to the scenario. May be called any number of
    /// times before or during the run; jamming starts at `spec.start`.
    pub fn add_jammer(&mut self, spec: JammerSpec) {
        let idx = self.jammers.len();
        let node = NodeId(JAMMER_NODE_BASE + idx as u32);
        let pos = Position::on_road(spec.pos_x_m, spec.pos_y_m);
        self.radio.medium_mut().update_position(node, pos);
        let start = spec.start.max(self.sim.now());
        self.jammers.push(spec);
        self.sim
            .schedule_at_with_priority(start, PRIO_RADIO, WorldEvent::JammerTx { jammer: idx });
    }

    fn dispatch(&mut self, ev: WorldEvent) {
        if self.obs.enabled() {
            self.obs.inc(match &ev {
                WorldEvent::TrafficStep => "kernel.dispatch.traffic_step",
                WorldEvent::Beacon { .. } => "kernel.dispatch.beacon",
                WorldEvent::JammerTx { .. } => "kernel.dispatch.jammer_tx",
                WorldEvent::Radio(ev) => ev.dispatch_counter(),
            });
        }
        match ev {
            WorldEvent::TrafficStep => self.on_traffic_step(),
            WorldEvent::Beacon { vehicle } => self.on_beacon_timer(vehicle),
            WorldEvent::JammerTx { jammer } => self.on_jammer_tx(jammer),
            WorldEvent::Radio(ev) => {
                let deliver = |_, member: &mut Member, wsm: &Wsm| {
                    if let Ok(beacon) = PlatoonBeacon::decode(&wsm.payload) {
                        member.app.on_beacon(beacon);
                    }
                };
                self.radio
                    .dispatch(&mut self.sim, &mut self.obs, ev, deliver);
            }
        }
    }

    fn on_jammer_tx(&mut self, jammer: usize) {
        let now = self.sim.now();
        let spec = self.jammers[jammer].clone();
        if now >= spec.end {
            return;
        }
        let node = NodeId(JAMMER_NODE_BASE + jammer as u32);
        // Junk frame: decodes to no valid platoon beacon (short payload).
        let wsm = Wsm {
            source: node,
            sequence: 0,
            created: now,
            channel: WaveChannel::Cch,
            payload: vec![0xA5u8; spec.payload_bytes].into(),
        };
        self.radio.transmit_raw(&mut self.sim, node, wsm);
        let next = now + spec.period;
        if next < spec.end && next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_RADIO, WorldEvent::JammerTx { jammer });
        }
    }

    fn on_traffic_step(&mut self) {
        let now = self.sim.now();
        let capture = self.obs.dataset_enabled();
        let attack_active = capture && self.radio.medium().has_interceptor();
        // Step rows are staged locally so the collision flag (only known
        // after kinematics advance) can be stamped before recording. Node
        // iteration order is BTreeMap order, so rows are deterministic.
        let mut step_rows: Vec<StepRecord> = Vec::new();
        // Control phase: every active platoon member computes its command
        // from its current knowledge. `radio` and `traffic` are disjoint
        // fields, so the loop walks the node map once, in key order.
        let World { radio, traffic, .. } = self;
        for (v, member) in radio.live_apps_mut() {
            let Some(veh) = traffic.vehicle(VehicleId(v)) else {
                continue;
            };
            if !veh.active {
                continue;
            }
            let ego = EgoState {
                speed_mps: veh.state.speed_mps,
                accel_mps2: veh.state.accel_mps2,
            };
            let pos_m = veh.state.pos_m;
            let lead_gap = traffic.leader_of(VehicleId(v)).expect("vehicle exists");
            let radar = lead_gap.map(|(lead, gap)| {
                let lead_speed = traffic
                    .vehicle(lead)
                    .map_or(ego.speed_mps, |l| l.state.speed_mps);
                RadarReading {
                    gap_m: gap,
                    closing_speed_mps: ego.speed_mps - lead_speed,
                }
            });
            let mut accel = member.app.control(now, ego, radar, STEP_LEN_S);
            let mut monitor_brake = false;
            if let Some(monitor) = member.monitor.as_mut() {
                if let MonitorDecision::EmergencyBrake(brake) = monitor.check(radar.as_ref()) {
                    accel = brake;
                    monitor_brake = true;
                }
            }
            if capture {
                step_rows.push(StepRecord {
                    time_ns: now.as_nanos(),
                    vehicle: v,
                    pos_m,
                    speed_mps: ego.speed_mps,
                    accel_mps2: accel,
                    leader: lead_gap.map(|(lead, _)| lead.0),
                    gap_m: lead_gap.map(|(_, gap)| gap),
                    // The paper's comfortable-deceleration boundary
                    // (classify::ClassificationParams, 5 m/s²).
                    hard_braking: monitor_brake || accel <= -5.0,
                    collision: false,
                    attack_active,
                });
            }
            traffic
                .command_accel(VehicleId(v), accel)
                .expect("vehicle exists");
        }

        // Advance kinematics; handle collisions (SUMO removes the collider,
        // which also silences its radio).
        let collisions = self.traffic.step();
        for c in &collisions {
            self.obs.inc("traffic.collisions");
            self.obs
                .trace_event(now, c.collider.0, "collision", TraceKind::Mark);
            self.radio.silence(c.collider.0);
        }
        for mut row in step_rows {
            row.collision = collisions.iter().any(|c| c.collider.0 == row.vehicle);
            self.obs.record_step(row);
        }
        self.radio.sync_positions(&self.traffic, self.lane_offset_y);

        let next = now + STEP_LEN;
        if next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_TRAFFIC, WorldEvent::TrafficStep);
        }
    }

    fn on_beacon_timer(&mut self, vehicle: u32) {
        let now = self.sim.now();
        let World {
            sim,
            traffic,
            radio,
            obs,
            min_payload_bytes,
            ..
        } = self;
        let sent = radio.send(sim, obs, vehicle, |member| {
            let veh = traffic.vehicle(VehicleId(vehicle))?;
            let beacon = member.app.make_beacon(
                now,
                veh.state.pos_m,
                veh.state.speed_mps,
                veh.state.accel_mps2,
            );
            let mut payload = beacon.encode();
            if payload.len() < *min_payload_bytes {
                payload.resize(*min_payload_bytes, 0);
            }
            Some(Wsm {
                source: NodeId(vehicle),
                sequence: 0,
                created: now,
                channel: WaveChannel::Cch,
                payload: payload.into(),
            })
        });
        if !sent {
            return;
        }

        let next = now + self.beacon_interval;
        if next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_BEACON, WorldEvent::Beacon { vehicle });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommModel, TrafficScenario};

    fn build() -> World {
        World::new(
            &TrafficScenario::paper_default(),
            &CommModel::paper_default(),
            42,
        )
        .unwrap()
    }

    #[test]
    fn world_builds_with_paper_configs() {
        let w = build();
        assert_eq!(w.traffic().vehicles().len(), 4);
        assert_eq!(w.medium().node_count(), 4);
        assert_eq!(w.total_time(), SimTime::from_secs(60));
    }

    #[test]
    fn beacons_flow_between_vehicles() {
        let mut w = build();
        w.run_until(SimTime::from_secs(2));
        let log = w.into_log();
        // 4 vehicles, ~10 beacons/s each over 2 s.
        let sent: u64 = log.comm.values().map(|c| c.mac.sent).sum();
        assert!(sent >= 70, "sent only {sent} beacons");
        assert!(log.channel.received > 0, "nothing received");
        // Followers actually used leader/predecessor beacons.
        for v in [2u32, 3, 4] {
            assert!(
                log.comm[&v].app.beacons_used > 0,
                "vehicle {v} used no beacons"
            );
        }
    }

    #[test]
    fn platoon_holds_formation_without_attack() {
        let mut w = build();
        w.run_until(SimTime::from_secs(30));
        // No collisions; gaps stay close to the 5 m design spacing.
        for v in [2u32, 3, 4] {
            let (_, gap) = w.traffic.leader_of(VehicleId(v)).unwrap().unwrap();
            assert!((gap - 5.0).abs() < 2.0, "vehicle {v} gap {gap}");
        }
        let log = w.into_log();
        assert!(!log.has_collision(), "golden run must be collision-free");
    }

    #[test]
    fn golden_run_is_deterministic() {
        let run = |seed| {
            let mut w = World::new(
                &TrafficScenario::paper_default(),
                &CommModel::paper_default(),
                seed,
            )
            .unwrap();
            w.run_until(SimTime::from_secs(10));
            w.traffic()
                .vehicles()
                .iter()
                .map(|v| v.state.pos_m)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn run_until_clamps_to_total_time() {
        let mut w = build();
        w.run_until(SimTime::from_secs(1000));
        assert_eq!(w.now(), SimTime::from_secs(60));
    }

    #[test]
    fn background_vehicles_drive_with_car_following() {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(10);
        // Two Krauss vehicles on lane 1 (the platoon is on lane 0).
        scenario.background_vehicles = vec![(1, 300.0, 20.0), (1, 250.0, 25.0)];
        let mut w = World::new(&scenario, &CommModel::paper_default(), 1).unwrap();
        w.run_to_end();
        assert_eq!(w.traffic().vehicles().len(), 6);
        let log = w.into_log();
        // Background vehicles get ids 5 and 6 and are traced like any
        // other vehicle.
        let tr = log
            .trace
            .vehicle(VehicleId(5))
            .expect("background vehicle traced");
        assert!(tr.pos.max_value().unwrap() > 350.0, "vehicle 5 moved");
        assert!(!log.trace.has_collision());
        // They have no radio: only the 4 platoon NICs exist.
        assert!(!log.comm.contains_key(&5));
    }

    #[test]
    fn invalid_background_vehicle_rejected() {
        let mut scenario = TrafficScenario::paper_default();
        scenario.background_vehicles = vec![(9, 300.0, 20.0)];
        assert!(World::new(&scenario, &CommModel::paper_default(), 1).is_err());
    }

    #[test]
    fn jammer_degrades_reception() {
        let build = |with_jammer: bool| {
            let mut scenario = TrafficScenario::paper_default();
            scenario.total_sim_time = SimTime::from_secs(10);
            let mut w = World::new(&scenario, &CommModel::paper_default(), 1).unwrap();
            if with_jammer {
                w.add_jammer(JammerSpec {
                    pos_x_m: 490.0, // right next to the platoon
                    pos_y_m: 10.0,
                    period: SimDuration::from_micros(300),
                    payload_bytes: 200,
                    start: SimTime::from_secs(2),
                    end: SimTime::from_secs(10),
                });
            }
            w.run_to_end();
            w.into_log()
        };
        let clean = build(false);
        let jammed = build(true);
        assert_eq!(clean.channel.lost_snir, 0, "no losses without jammer");
        assert!(
            jammed.channel.lost_snir > 50,
            "jammer must destroy frames, lost {}",
            jammed.channel.lost_snir
        );
        let used = |log: &crate::log::RunLog| -> u64 {
            log.comm.values().map(|c| c.app.beacons_used).sum()
        };
        assert!(used(&jammed) < used(&clean));
    }

    #[test]
    fn scenario_level_jammers_install_at_build_time() {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(8);
        scenario.jammers.push(JammerSpec {
            pos_x_m: 560.0,
            pos_y_m: 10.0,
            period: SimDuration::from_micros(300),
            payload_bytes: 200,
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(8),
        });
        let mut w = World::new(&scenario, &CommModel::paper_default(), 1).unwrap();
        w.run_to_end();
        let log = w.into_log();
        assert!(
            log.channel.lost_snir > 10,
            "scenario jammer active: {:?}",
            log.channel
        );
    }

    #[test]
    fn shadowing_model_builds_and_runs() {
        let mut comm = CommModel::paper_default();
        comm.wireless_model = WirelessModelKind::LogNormalShadowing;
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(5);
        let mut w = World::new(&scenario, &comm, 1).unwrap();
        assert_eq!(
            w.medium().pathloss(),
            PathLoss::LogNormalShadowing(LogNormalShadowing::default())
        );
        w.run_to_end();
        let log = w.into_log();
        // At platooning distances shadowing rarely kills frames, but the
        // stack must run and deliver beacons.
        assert!(log.channel.received > 100);
    }

    #[test]
    fn jammer_window_is_respected() {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(6);
        let mut w = World::new(&scenario, &CommModel::paper_default(), 1).unwrap();
        w.add_jammer(JammerSpec {
            pos_x_m: 490.0,
            pos_y_m: 10.0,
            period: SimDuration::from_millis(1),
            payload_bytes: 200,
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(3),
        });
        w.run_until(SimTime::from_secs(2) - SimDuration::from_millis(1));
        let before = w.medium().stats().lost_snir;
        assert_eq!(before, 0);
        w.run_to_end();
        let log = w.into_log();
        // ~1 s of jamming at 1 kHz with ~600 us frames: plenty of losses,
        // but bounded (the jammer stopped at t=3).
        assert!(log.channel.lost_snir > 0);
    }

    #[test]
    fn safety_monitor_intervenes_under_dos() {
        use crate::attack::{AttackModelKind, AttackSpec};
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(60),
        };
        let run = |monitored: bool| {
            let mut scenario = TrafficScenario::paper_default();
            scenario.total_sim_time = SimTime::from_secs(40);
            if monitored {
                scenario.safety_monitor =
                    Some(comfase_platoon::monitor::SafetyMonitorConfig::default());
            }
            let mut w = World::new(&scenario, &CommModel::paper_default(), 42).unwrap();
            w.run_until(attack.start);
            w.install_attack(attack.build_interceptor(0));
            w.run_until(attack.end);
            w.clear_attack();
            w.run_to_end();
            let interventions = w.monitor_interventions(2);
            (w.into_log(), interventions)
        };
        let (unprotected, none) = run(false);
        let (protected, interventions) = run(true);
        assert_eq!(none, None);
        assert!(unprotected.has_collision(), "paper behaviour: DoS collides");
        assert!(interventions.unwrap() > 0, "monitor must have intervened");
        // The monitor prevents the pile-up entirely or at least reduces it.
        assert!(
            protected.trace.collisions.len() < unprotected.trace.collisions.len()
                || !protected.has_collision(),
            "monitor must reduce collisions: {} vs {}",
            protected.trace.collisions.len(),
            unprotected.trace.collisions.len()
        );
    }

    #[test]
    fn budget_breach_faults_the_run_and_is_sticky() {
        let mut w = build();
        w.set_budget(EventBudget {
            max_delivered: Some(500),
            max_sim_time: None,
        });
        w.run_to_end();
        let fault = w.fault().expect("500 events cannot cover 60 s").clone();
        assert_eq!(fault.kind, RunFaultKind::BudgetExceeded);
        assert!(fault.detail.contains("event budget"), "{fault:?}");
        assert!(w.now() < SimTime::from_secs(60), "run stopped early");
        assert!(matches!(fault.to_error(), ComfaseError::BudgetExceeded(_)));
        // Sticky: running again moves neither the clock nor the fault.
        let frozen = w.now();
        w.run_to_end();
        assert_eq!(w.now(), frozen);
        assert_eq!(w.fault(), Some(&fault));
    }

    #[test]
    fn nan_state_faults_the_run_as_numeric_divergence() {
        let mut w = build();
        w.run_until(SimTime::from_secs(1));
        w.traffic
            .vehicle_mut(VehicleId(2))
            .expect("vehicle 2 exists")
            .state
            .speed_mps = f64::NAN;
        w.run_until(SimTime::from_secs(5));
        let fault = w.fault().expect("NaN kinematics must fault the run");
        assert_eq!(fault.kind, RunFaultKind::NumericDiverged);
        assert!(fault.detail.contains("non-finite"), "{fault:?}");
        assert!(matches!(fault.to_error(), ComfaseError::NumericDiverged(_)));
        assert!(w.now() < SimTime::from_secs(5), "run stopped early");
    }

    #[test]
    fn leader_follows_sinusoidal_profile() {
        let mut w = build();
        w.run_until(SimTime::from_secs(25));
        let log = w.into_log();
        let leader = log.trace.vehicle(VehicleId(1)).unwrap();
        // Speed oscillates around the 27.78 m/s base.
        let max = leader.speed.max_value().unwrap();
        let min = leader
            .speed
            .window(SimTime::from_secs(5), SimTime::from_secs(25))
            .map(|(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        assert!(max > 28.5, "max speed {max}");
        assert!(min < 27.0, "min speed {min}");
    }
}
