//! The composed co-simulation world (paper Fig. 2).
//!
//! [`World`] wires the four simulators together the way ComFASE wires
//! OMNeT++, SUMO, Veins and Plexe:
//!
//! - the **DES kernel** (`comfase-des`) owns time and the event queue;
//! - the **traffic simulation** (`comfase-traffic`) advances vehicle
//!   kinematics in 0.01 s steps, called directly from a recurring kernel
//!   event where ComFASE runs SUMO's TraCI loop;
//! - the **wireless medium** (`comfase-wireless`) fans transmissions out
//!   with path loss and propagation delay, and hosts the attack
//!   interceptor;
//! - per vehicle, an **EDCA MAC** and a **platooning application**
//!   (`comfase-platoon`) exchange beacons and command accelerations.
//!
//! The engine drives the world with [`World::run_until`], installing and
//! removing attack interceptors at phase boundaries exactly as in Algo. 1.

use std::collections::BTreeMap;
use std::sync::Arc;

use comfase_des::rng::StreamId;
use comfase_des::sim::{BreachKind, EventBudget, Simulator};
use comfase_des::time::{SimDuration, SimTime};
use comfase_obs::trace::TRACK_KERNEL;
use comfase_obs::{
    FrameFate, FrameRecord, HistSpec, KernelCounters, ObsConfig, SimRecorder, StepRecord, TraceKind,
};
use comfase_platoon::app::PlatoonApp;
use comfase_platoon::beacon::PlatoonBeacon;
use comfase_platoon::controller::{EgoState, RadarReading};
use comfase_platoon::maneuver::{Braking, ConstantSpeed, Maneuver, Sinusoidal};
use comfase_platoon::monitor::{MonitorDecision, SafetyMonitor};
use comfase_traffic::network::LaneIndex;
use comfase_traffic::simulation::{LeaderLookup, TrafficSim, STEP_LEN, STEP_LEN_S};
use comfase_traffic::trace::TraceConfig;
use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};
use comfase_wireless::channel::{ChannelInterceptor, FanoutStrategy, Medium, PlannedReception};
use comfase_wireless::decider::{DeciderResult, LossReason};
use comfase_wireless::frame::{AccessCategory, NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacAction, MacConfig};
use comfase_wireless::mac1609::ChannelSchedule;
use comfase_wireless::pathloss::{
    FreeSpace, LogNormalShadowing, PathLossModel, TwoRayInterference,
};
use comfase_wireless::phy::PhyConfig;
use comfase_wireless::units::CCH_FREQ_HZ;

use crate::config::{CommModel, ManeuverKind, TrafficScenario, WirelessModelKind};
use crate::error::ComfaseError;
use crate::log::{RunLog, VehicleCommStats};

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

/// Same-time delivery order: radio events first, then the traffic step,
/// then beacon generation (so beacons sample the freshly stepped state).
const PRIO_RADIO: i16 = -10;
const PRIO_TRAFFIC: i16 = 0;
const PRIO_BEACON: i16 = 10;

/// Bucket layout of the received-power histogram (`phy.rx.power_dbm`):
/// −110 dBm (near the noise floor) to −30 dBm (bumper distance) in 2 dB
/// bins.
const RX_POWER_HIST: HistSpec = HistSpec {
    lo: -110.0,
    hi: -30.0,
    bins: 40,
};

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
    /// A MAC contention timer expired.
    MacTimer { vehicle: u32, token: u64 },
    /// A vehicle's own transmission left the air.
    TxEnd { vehicle: u32 },
    /// The first bit of a frame reaches a receiver.
    RxStart(Arc<PlannedReception>),
    /// The last bit of a frame reaches a receiver.
    RxEnd(Arc<PlannedReception>),
    /// A jammer emits its next junk frame.
    JammerTx { jammer: usize },
}

/// Schedules the first- and last-bit events of every planned reception.
/// Both events share one `Arc`, so a link costs one allocation and no
/// `Wsm` clone. Used by every world that owns a [`Medium`].
pub(crate) fn schedule_receptions<E>(
    sim: &mut Simulator<E>,
    priority: i16,
    receptions: Vec<PlannedReception>,
    rx_start: fn(Arc<PlannedReception>) -> E,
    rx_end: fn(Arc<PlannedReception>) -> E,
) {
    for r in receptions {
        let r = Arc::new(r);
        sim.schedule_at_with_priority(r.start, priority, rx_start(Arc::clone(&r)));
        sim.schedule_at_with_priority(r.end, priority, rx_end(r));
    }
}

#[derive(Debug, Clone)]
struct Node {
    mac: Mac,
    app: PlatoonApp,
    monitor: Option<SafetyMonitor>,
    active: bool,
}

fn build_maneuver(kind: ManeuverKind, base_speed: f64) -> Box<dyn Maneuver> {
    match kind {
        ManeuverKind::ConstantSpeed => Box::new(ConstantSpeed {
            speed_mps: base_speed,
        }),
        ManeuverKind::Sinusoidal {
            amplitude_mps,
            freq_hz,
            start_s,
        } => Box::new(Sinusoidal {
            base_mps: base_speed,
            amplitude_mps,
            freq_hz,
            start: SimTime::from_secs_f64(start_s),
        }),
        ManeuverKind::Braking {
            brake_at_s,
            decel_mps2,
        } => Box::new(Braking {
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

fn build_pathloss(kind: WirelessModelKind) -> Box<dyn PathLossModel> {
    match kind {
        WirelessModelKind::FreeSpace => Box::new(FreeSpace::default()),
        WirelessModelKind::TwoRayInterference => Box::new(TwoRayInterference::default()),
        WirelessModelKind::LogNormalShadowing => Box::new(LogNormalShadowing::default()),
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
    medium: Medium,
    nodes: BTreeMap<u32, Node>,
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
        traffic.set_trace_config(TraceConfig { sample_every: 1 });
        // The run length is known up front: size the per-step trace buffers
        // once instead of growing them across thousands of steps.
        let planned_steps = scenario.total_sim_time.as_nanos() / STEP_LEN.as_nanos();
        traffic.reserve_trace_capacity(planned_steps as usize + 1);
        let medium = Medium::with_models(
            build_pathloss(comm.wireless_model),
            CCH_FREQ_HZ,
            PhyConfig::default(),
        );

        let lane = LaneIndex(scenario.platoon.lane);
        let lane_offset_y = scenario.road.lane_center_offset(lane);
        let leader_id = scenario.platoon.leader();
        let mut nodes = BTreeMap::new();
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
            nodes.insert(
                vehicle,
                Node {
                    mac,
                    app,
                    monitor,
                    active: true,
                },
            );
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

        let min_payload_bytes = comm.packet_size_bits.saturating_sub(192).div_ceil(8);
        let scenario_jammers = scenario.jammers.clone();
        let mut world = World {
            sim,
            traffic,
            medium,
            nodes,
            beacon_interval: comm.beaconing_time,
            min_payload_bytes,
            total_time: scenario.total_sim_time,
            lane_offset_y,
            jammers: Vec::new(),
            obs: SimRecorder::new(obs),
            fault: None,
        };
        world.sync_positions();
        for spec in scenario_jammers {
            world.add_jammer(spec);
        }

        // Kick off the recurring events: the traffic step loop and one
        // beacon timer per vehicle, staggered by 1 ms to avoid perfectly
        // synchronised channel access at t = 0.
        world.sim.schedule_at_with_priority(
            SimTime::ZERO + STEP_LEN,
            PRIO_TRAFFIC,
            WorldEvent::TrafficStep,
        );
        let vehicles: Vec<u32> = world.nodes.keys().copied().collect();
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
                self.medium.set_fanout_strategy(FanoutStrategy::Grid);
                self.traffic.set_leader_lookup(LeaderLookup::Indexed);
            }
            IndexingMode::BruteForce => {
                self.medium.set_fanout_strategy(FanoutStrategy::BruteForce);
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
        self.medium.set_interceptor(interceptor);
    }

    /// Removes the attack, restoring the original communication model.
    pub fn clear_attack(&mut self) {
        self.obs
            .trace_event(self.sim.now(), TRACK_KERNEL, "attack.off", TraceKind::Mark);
        self.medium.clear_interceptor();
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
        let interceptor = self.medium.clear_interceptor();
        let mut leaf = self.clone();
        if let Some(i) = interceptor {
            self.medium.set_interceptor(i);
        }
        // Substrate-diagnostic counter (`exec.` prefix): excluded from
        // `metrics.json`, where mid-attack forks must be invisible.
        leaf.obs.inc("exec.fork.mid_attack");
        leaf
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
                .or_else(|| self.medium.numeric_fault());
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
                self.medium.stats().links_pruned_by_grid,
            );
            self.obs
                .add("index.traffic.lane_rebuilds", self.traffic.index_rebuilds());
        }
        let comm = self
            .nodes
            .iter()
            .map(|(&v, n)| {
                (
                    v,
                    VehicleCommStats {
                        mac: n.mac.stats(),
                        app: n.app.stats(),
                    },
                )
            })
            .collect();
        let kernel = KernelCounters {
            scheduled: self.sim.scheduled(),
            delivered: self.sim.delivered(),
            cancelled: self.sim.cancelled(),
            pending_at_end: self.sim.pending() as u64,
        };
        let traffic_stats = self.traffic.stats();
        RunLog {
            trace: self.traffic.into_trace(),
            channel: self.medium.stats(),
            comm,
            final_time: self.sim.now(),
            kernel,
            traffic_stats,
            obs: self.obs.into_snapshot(),
        }
    }

    /// Read access to the traffic simulation (for examples and tests).
    pub fn traffic(&self) -> &TrafficSim {
        &self.traffic
    }

    /// Read access to the wireless medium (for examples and tests).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Safety-monitor interventions of one vehicle so far (`None` if the
    /// vehicle has no monitor).
    pub fn monitor_interventions(&self, vehicle: u32) -> Option<u64> {
        self.nodes
            .get(&vehicle)?
            .monitor
            .as_ref()
            .map(SafetyMonitor::interventions)
    }

    /// Attaches an RF jammer to the scenario. May be called any number of
    /// times before or during the run; jamming starts at `spec.start`.
    pub fn add_jammer(&mut self, spec: JammerSpec) {
        let idx = self.jammers.len();
        let node = NodeId(JAMMER_NODE_BASE + idx as u32);
        self.medium
            .update_position(node, Position::on_road(spec.pos_x_m, spec.pos_y_m));
        let start = spec.start.max(self.sim.now());
        self.jammers.push(spec);
        self.sim
            .schedule_at_with_priority(start, PRIO_RADIO, WorldEvent::JammerTx { jammer: idx });
    }

    fn sync_positions(&mut self) {
        for v in self.traffic.vehicles().iter().filter(|v| v.active) {
            let x = v.state.pos_m - v.spec.length_m / 2.0;
            self.medium
                .update_position(NodeId(v.id.0), Position::on_road(x, self.lane_offset_y));
        }
    }

    fn dispatch(&mut self, ev: WorldEvent) {
        if self.obs.enabled() {
            self.obs.inc(match &ev {
                WorldEvent::TrafficStep => "kernel.dispatch.traffic_step",
                WorldEvent::Beacon { .. } => "kernel.dispatch.beacon",
                WorldEvent::MacTimer { .. } => "kernel.dispatch.mac_timer",
                WorldEvent::TxEnd { .. } => "kernel.dispatch.tx_end",
                WorldEvent::RxStart(_) => "kernel.dispatch.rx_start",
                WorldEvent::RxEnd(_) => "kernel.dispatch.rx_end",
                WorldEvent::JammerTx { .. } => "kernel.dispatch.jammer_tx",
            });
        }
        match ev {
            WorldEvent::TrafficStep => self.on_traffic_step(),
            WorldEvent::Beacon { vehicle } => self.on_beacon_timer(vehicle),
            WorldEvent::MacTimer { vehicle, token } => {
                let now = self.sim.now();
                if let Some(node) = self.nodes.get_mut(&vehicle) {
                    let action = node.mac.handle_timer(token, now);
                    self.apply_mac_action(vehicle, action);
                }
            }
            WorldEvent::TxEnd { vehicle } => {
                let now = self.sim.now();
                if let Some(node) = self.nodes.get_mut(&vehicle) {
                    let action = node.mac.tx_finished(now);
                    self.apply_mac_action(vehicle, action);
                }
            }
            WorldEvent::RxStart(reception) => self.on_rx_start(&reception),
            WorldEvent::RxEnd(reception) => self.on_rx_end(&reception),
            WorldEvent::JammerTx { jammer } => self.on_jammer_tx(jammer),
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
        let out = self.medium.transmit(node, wsm, now);
        schedule_receptions(
            &mut self.sim,
            PRIO_RADIO,
            out.receptions,
            WorldEvent::RxStart,
            WorldEvent::RxEnd,
        );
        let next = now + spec.period;
        if next < spec.end && next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_RADIO, WorldEvent::JammerTx { jammer });
        }
    }

    fn on_traffic_step(&mut self) {
        let now = self.sim.now();
        let capture = self.obs.dataset_enabled();
        let attack_active = capture && self.medium.has_interceptor();
        // Step rows are staged locally so the collision flag (only known
        // after kinematics advance) can be stamped before recording. Node
        // iteration order is BTreeMap order, so rows are deterministic.
        let mut step_rows: Vec<StepRecord> = Vec::new();
        // Control phase: every active platoon member computes its command
        // from its current knowledge. `nodes` and `traffic` are disjoint
        // fields, so the loop walks the node map once, in key order.
        let World { nodes, traffic, .. } = self;
        for (&v, node) in nodes.iter_mut() {
            if !node.active {
                continue;
            }
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
            let mut accel = node.app.control(now, ego, radar, STEP_LEN_S);
            let mut monitor_brake = false;
            if let Some(monitor) = node.monitor.as_mut() {
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
            if let Some(node) = self.nodes.get_mut(&c.collider.0) {
                node.active = false;
            }
            self.medium.remove_node(NodeId(c.collider.0));
        }
        for mut row in step_rows {
            row.collision = collisions.iter().any(|c| c.collider.0 == row.vehicle);
            self.obs.record_step(row);
        }
        self.sync_positions();

        let next = now + STEP_LEN;
        if next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_TRAFFIC, WorldEvent::TrafficStep);
        }
    }

    fn on_beacon_timer(&mut self, vehicle: u32) {
        let now = self.sim.now();
        let Some(node) = self.nodes.get_mut(&vehicle) else {
            return;
        };
        if !node.active {
            return;
        }
        let Some(veh) = self.traffic.vehicle(VehicleId(vehicle)) else {
            return;
        };
        let beacon = node.app.make_beacon(
            now,
            veh.state.pos_m,
            veh.state.speed_mps,
            veh.state.accel_mps2,
        );
        let mut payload = beacon.encode();
        if payload.len() < self.min_payload_bytes {
            payload.resize(self.min_payload_bytes, 0);
        }
        let wsm = Wsm {
            source: NodeId(vehicle),
            sequence: 0,
            created: now,
            channel: WaveChannel::Cch,
            payload: payload.into(),
        };
        let action = node.mac.enqueue(wsm, AccessCategory::Vo, now);
        self.apply_mac_action(vehicle, action);

        let next = now + self.beacon_interval;
        if next <= self.total_time {
            self.sim
                .schedule_at_with_priority(next, PRIO_BEACON, WorldEvent::Beacon { vehicle });
        }
    }

    fn apply_mac_action(&mut self, vehicle: u32, action: Option<MacAction>) {
        let now = self.sim.now();
        match action {
            Some(MacAction::SetTimer { at, token }) => {
                self.sim.schedule_at_with_priority(
                    at.max(now),
                    PRIO_RADIO,
                    WorldEvent::MacTimer { vehicle, token },
                );
            }
            Some(MacAction::StartTx(wsm)) => {
                let out = self.medium.transmit(NodeId(vehicle), wsm, now);
                if self.obs.enabled() {
                    self.obs.inc("phy.tx.frames");
                    self.obs.trace_event(now, vehicle, "tx", TraceKind::Begin);
                    self.obs
                        .trace_event(now + out.duration, vehicle, "tx", TraceKind::End);
                }
                self.sim.schedule_at_with_priority(
                    now + out.duration,
                    PRIO_RADIO,
                    WorldEvent::TxEnd { vehicle },
                );
                schedule_receptions(
                    &mut self.sim,
                    PRIO_RADIO,
                    out.receptions,
                    WorldEvent::RxStart,
                    WorldEvent::RxEnd,
                );
            }
            // Queue overflow: counted in MAC stats, nothing to do.
            Some(MacAction::Drop { .. }) | None => {}
        }
    }

    /// Captures one dataset frame row for a decided (or inactive-receiver)
    /// reception. No-op — and allocation-free — unless the run was built
    /// with dataset capture enabled.
    fn record_frame_fate(
        &mut self,
        now: SimTime,
        reception: &PlannedReception,
        fate: FrameFate,
        snir_db: Option<f64>,
    ) {
        if !self.obs.dataset_enabled() {
            return;
        }
        self.obs.record_frame(FrameRecord {
            time_ns: now.as_nanos(),
            tx: reception.wsm.source.0,
            rx: reception.rx.0,
            delay_ns: (now - reception.wsm.created).as_nanos(),
            snir_db,
            fate,
            attack_active: self.medium.has_interceptor(),
        });
    }

    fn on_rx_start(&mut self, reception: &PlannedReception) {
        let now = self.sim.now();
        let rx = reception.rx.0;
        let Some(node) = self.nodes.get_mut(&rx) else {
            return;
        };
        if !node.active {
            return;
        }
        self.medium.reception_started(reception);
        if reception.above_cs {
            node.mac.medium_busy(now);
        }
    }

    fn on_rx_end(&mut self, reception: &PlannedReception) {
        let now = self.sim.now();
        let rx = reception.rx.0;
        let Some(node) = self.nodes.get_mut(&rx) else {
            // Planned for a radio that never decodes (jammer node) — the
            // link leaves the accounting here.
            self.obs.inc("phy.rx.inactive");
            self.record_frame_fate(now, reception, FrameFate::RxInactive, None);
            return;
        };
        if !node.active {
            // Receiver crashed mid-flight; same attribution.
            self.obs.inc("phy.rx.inactive");
            self.record_frame_fate(now, reception, FrameFate::RxInactive, None);
            return;
        }
        let result = self.medium.reception_finished(reception);
        // Inlined (rather than via `record_frame_fate`) because the `node`
        // borrow is still live here; `obs` and `medium` are disjoint fields.
        if self.obs.dataset_enabled() {
            let (fate, snir_db) = match &result {
                DeciderResult::Received { snir_db } => (FrameFate::Received, Some(*snir_db)),
                DeciderResult::Lost(LossReason::Snir) => (FrameFate::LostSnir, None),
                DeciderResult::Lost(LossReason::BelowSensitivity) => {
                    (FrameFate::LostSensitivity, None)
                }
                DeciderResult::Lost(LossReason::NumericFault) => (FrameFate::NumericFault, None),
            };
            self.obs.record_frame(FrameRecord {
                time_ns: now.as_nanos(),
                tx: reception.wsm.source.0,
                rx: reception.rx.0,
                delay_ns: (now - reception.wsm.created).as_nanos(),
                snir_db,
                fate,
                attack_active: self.medium.has_interceptor(),
            });
        }
        if self.obs.enabled() {
            self.obs
                .observe("phy.rx.power_dbm", RX_POWER_HIST, reception.power_dbm);
            if result.is_received() {
                self.obs.inc("phy.rx.ok");
                self.obs.trace_event(now, rx, "rx", TraceKind::Mark);
            } else {
                self.obs.inc("phy.rx.lost");
                self.obs.trace_event(now, rx, "rx.lost", TraceKind::Mark);
            }
        }
        if result.is_received() {
            if let Ok(beacon) = PlatoonBeacon::decode(&reception.wsm.payload) {
                node.app.on_beacon(beacon);
            }
        }
        if !self.medium.is_busy(reception.rx, now) {
            let action = node.mac.medium_idle(now);
            self.apply_mac_action(rx, action);
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
        assert_eq!(w.medium().pathloss_name(), "LogNormalShadowing");
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
