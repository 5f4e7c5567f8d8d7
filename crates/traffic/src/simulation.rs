//! The microscopic traffic simulation loop.
//!
//! [`TrafficSim`] advances all vehicles in fixed 0.01 s steps (as SUMO/Plexe
//! do): commands are computed from a synchronous snapshot of the previous
//! state, dynamics are integrated, collisions are detected and each
//! collider removed, and the trajectory log (or its [`TraceFold`]) is
//! updated.

use std::fmt;

use comfase_des::rng::RngStream;
use comfase_des::time::{SimDuration, SimTime};

use crate::car_following::{CfInput, Krauss};
use crate::collision::{detect_collisions, Collision, CollisionKey};
use crate::dynamics::{lag_decay, step_vehicle};
use crate::lane_index::LaneOrder;
use crate::network::Road;
use crate::trace::{GoldenSpeeds, TraceFold, TrafficTrace};
use crate::vehicle::{ControlMode, Vehicle, VehicleId};

/// How [`TrafficSim::leader_of`] finds the vehicle ahead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LeaderLookup {
    /// Per-lane sorted orderings, maintained incrementally: O(log n) per
    /// query, O(n log n) per step. Falls back to the linear scan whenever
    /// the index is stale (e.g. between external mutations and the next
    /// step).
    #[default]
    Indexed,
    /// Reference implementation: O(n) scan over every vehicle.
    Linear,
}

/// Errors returned by [`TrafficSim`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A vehicle with this id already exists.
    DuplicateVehicle(VehicleId),
    /// No vehicle with this id exists.
    UnknownVehicle(VehicleId),
    /// Position or lane is not on the road.
    OffRoad {
        /// Offending vehicle.
        vehicle: VehicleId,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::DuplicateVehicle(id) => write!(f, "duplicate vehicle id {id}"),
            TrafficError::UnknownVehicle(id) => write!(f, "unknown vehicle {id}"),
            TrafficError::OffRoad { vehicle, reason } => {
                write!(f, "vehicle {vehicle} off road: {reason}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

/// Deceleration threshold (m/s², as a positive magnitude) above which a
/// braking sample counts as a hard-braking excursion in
/// [`TrafficStats::hard_decel_samples`]. Emergency-braking manoeuvres and
/// fault-induced overreactions exceed it; comfortable service braking
/// (≲ 3 m/s²) does not.
pub const HARD_DECEL_MPS2: f64 = 4.0;

/// Safety-relevant traffic counters, updated on every step.
///
/// Part of deterministic run state: values depend only on the scenario and
/// seed, so forked and from-scratch runs agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Simulation steps executed.
    pub steps: u64,
    /// Collision incidents detected (deduplicated per vehicle pair).
    pub collisions: u64,
    /// Vehicle·step samples with deceleration stronger than
    /// [`HARD_DECEL_MPS2`].
    pub hard_decel_samples: u64,
}
comfase_json::record!(ToJson for TrafficStats { steps, collisions, hard_decel_samples });

/// The step length, SUMO/Plexe's 0.01 s. Whatever drives a
/// [`TrafficSim`] schedules its steps and sizes its control loops with it.
pub const STEP_LEN: SimDuration = SimDuration::from_millis(10);
/// [`STEP_LEN`] in seconds.
pub const STEP_LEN_S: f64 = 0.01;

/// A microscopic traffic simulation on one road.
///
/// `TrafficSim` is `Clone`: a clone is a full snapshot (vehicles, RNG state,
/// trace, collision bookkeeping), so a clone stepped forward produces exactly
/// the same states the original would have.
#[derive(Debug, Clone)]
pub struct TrafficSim {
    /// Immutable after setup; forks share it by reference instead of
    /// copying lane geometry.
    road: std::sync::Arc<Road>,
    vehicles: Vec<Vehicle>,
    /// The model `CarFollowing` vehicles drive by.
    cf_model: Krauss,
    time: SimTime,
    steps: u64,
    trace: TrafficTrace,
    /// Set by [`TrafficSim::fold_trace`]: steps fold into it instead of
    /// recording vehicle samples in `trace`.
    fold: Option<TraceFold>,
    rng: RngStream,
    reported_pairs: Vec<(VehicleId, VehicleId)>,
    stats: TrafficStats,
    numeric_fault: Option<String>,
    lookup: LeaderLookup,
    lane_index: LaneOrder,
    /// Sort buffer of the collision scan, empty between steps.
    collision_keys: Vec<CollisionKey>,
}

impl TrafficSim {
    /// Creates a simulation with SUMO's defaults: 0.01 s steps, Krauss
    /// car-following, and a collider removed from the road on impact.
    pub fn new(road: Road, rng: RngStream) -> Self {
        TrafficSim {
            road: std::sync::Arc::new(road),
            vehicles: Vec::new(),
            cf_model: Krauss::default(),
            time: SimTime::ZERO,
            steps: 0,
            trace: TrafficTrace::new(),
            fold: None,
            rng,
            reported_pairs: Vec::new(),
            stats: TrafficStats::default(),
            numeric_fault: None,
            lookup: LeaderLookup::default(),
            lane_index: LaneOrder::default(),
            collision_keys: Vec::new(),
        }
    }

    /// Selects how `leader_of` finds the vehicle ahead.
    pub fn set_leader_lookup(&mut self, lookup: LeaderLookup) {
        self.lookup = lookup;
    }

    /// Full lane-index rebuilds performed so far (structural
    /// invalidations; per-step position refreshes are not counted).
    pub fn index_rebuilds(&self) -> u64 {
        self.lane_index.rebuilds()
    }

    /// Forces the lane index up to date (no-op under
    /// [`LeaderLookup::Linear`]). `step` does this implicitly; call it to
    /// make out-of-step `leader_of` queries use the index.
    pub fn rebuild_lane_index(&mut self) {
        if self.lookup == LeaderLookup::Indexed {
            self.lane_index
                .rebuild(self.road.nr_lanes(), &self.vehicles);
        }
    }

    fn refresh_lane_index(&mut self) {
        if self.lookup != LeaderLookup::Indexed {
            return;
        }
        if self.lane_index.structure_dirty() {
            self.lane_index
                .rebuild(self.road.nr_lanes(), &self.vehicles);
        } else if !self.lane_index.positions_current() {
            self.lane_index.refresh_positions(&self.vehicles);
        }
    }

    /// From now on, folds every step's vehicle samples into a
    /// [`TraceFold`] against `golden` instead of recording them: the trace
    /// keeps only the collisions. For a run whose samples serve only its
    /// comparison with `golden`.
    ///
    /// # Panics
    ///
    /// Panics after the first step: the fold must see every sample.
    pub fn fold_trace(&mut self, golden: std::sync::Arc<GoldenSpeeds>) {
        assert_eq!(self.steps, 0, "a trace fold starts before the first step");
        self.fold = Some(TraceFold::new(golden));
    }

    /// The fold [`TrafficSim::fold_trace`] turned on, if any.
    pub fn fold(&self) -> Option<&TraceFold> {
        self.fold.as_ref()
    }

    /// Pre-sizes per-vehicle trace buffers for runs of known length
    /// (`samples` ≈ planned steps), avoiding repeated reallocation in the
    /// per-step logging hot path.
    pub fn reserve_trace_capacity(&mut self, samples: usize) {
        self.trace.set_capacity_hint(samples);
    }

    /// The road being simulated.
    pub fn road(&self) -> &Road {
        &self.road
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Inserts a vehicle.
    ///
    /// # Errors
    ///
    /// Fails if the id already exists or the vehicle is off the road.
    pub fn add_vehicle(&mut self, vehicle: Vehicle) -> Result<(), TrafficError> {
        if self.vehicles.iter().any(|v| v.id == vehicle.id) {
            return Err(TrafficError::DuplicateVehicle(vehicle.id));
        }
        if vehicle.state.lane.0 >= self.road.nr_lanes() {
            return Err(TrafficError::OffRoad {
                vehicle: vehicle.id,
                reason: format!(
                    "lane {} out of range (road has {})",
                    vehicle.state.lane.0,
                    self.road.nr_lanes()
                ),
            });
        }
        if !self.road.contains(vehicle.state.pos_m) {
            return Err(TrafficError::OffRoad {
                vehicle: vehicle.id,
                reason: format!(
                    "position {} outside [0, {}]",
                    vehicle.state.pos_m, self.road.length_m
                ),
            });
        }
        self.vehicles.push(vehicle);
        self.lane_index.mark_structure_dirty();
        Ok(())
    }

    /// All vehicles (including inactive ones).
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Looks up a vehicle by id.
    pub fn vehicle(&self, id: VehicleId) -> Option<&Vehicle> {
        self.vehicles.iter().find(|v| v.id == id)
    }

    /// Looks up a vehicle mutably by id.
    ///
    /// Conservatively invalidates the lane index: the caller may change
    /// anything, including position, lane, or the active flag, so the next
    /// step performs a full (counted) rebuild.
    pub fn vehicle_mut(&mut self, id: VehicleId) -> Option<&mut Vehicle> {
        self.lane_index.mark_structure_dirty();
        self.vehicles.iter_mut().find(|v| v.id == id)
    }

    /// Mutable lookup for control-state changes that cannot affect the
    /// lane ordering (commanded acceleration, control mode).
    fn vehicle_mut_untracked(&mut self, id: VehicleId) -> Option<&mut Vehicle> {
        self.vehicles.iter_mut().find(|v| v.id == id)
    }

    /// Switches a vehicle to external acceleration control.
    ///
    /// # Errors
    ///
    /// Fails if the vehicle does not exist.
    pub fn set_external_control(&mut self, id: VehicleId) -> Result<(), TrafficError> {
        self.vehicle_mut_untracked(id)
            .ok_or(TrafficError::UnknownVehicle(id))?
            .set_external_control();
        Ok(())
    }

    /// Sets the commanded acceleration of an externally controlled vehicle.
    ///
    /// # Errors
    ///
    /// Fails if the vehicle does not exist.
    pub fn command_accel(&mut self, id: VehicleId, accel_mps2: f64) -> Result<(), TrafficError> {
        self.vehicle_mut_untracked(id)
            .ok_or(TrafficError::UnknownVehicle(id))?
            .command_accel(accel_mps2);
        Ok(())
    }

    /// `true` if `a` is ahead of `b` in the deterministic `(pos_m,
    /// VehicleId)` lane order. Equal positions tie-break by id, so a
    /// co-located vehicle is still someone's leader instead of being
    /// invisible to car-following; `total_cmp` keeps even NaN-poisoned
    /// positions (caught by the numeric guard) deterministically ordered.
    fn ahead_of(a: &Vehicle, b: &Vehicle) -> bool {
        a.state
            .pos_m
            .total_cmp(&b.state.pos_m)
            .then(a.id.cmp(&b.id))
            .is_gt()
    }

    /// The active vehicle directly ahead of `id` on the same lane, with the
    /// bumper-to-bumper gap (negative if the two overlap).
    ///
    /// "Directly ahead" means nearest in the `(pos_m, VehicleId)` lane
    /// order, so vehicles at exactly equal positions see each other
    /// (tie-break by id) instead of interpenetrating without a gap ever
    /// being computed.
    ///
    /// Uses the lane index when it is current, else the linear scan; both
    /// return identical results.
    ///
    /// # Errors
    ///
    /// Fails if the vehicle does not exist.
    pub fn leader_of(&self, id: VehicleId) -> Result<Option<(VehicleId, f64)>, TrafficError> {
        if self.lookup == LeaderLookup::Indexed && self.lane_index.is_usable() {
            let me = self.vehicle(id).ok_or(TrafficError::UnknownVehicle(id))?;
            let Some(entry) =
                self.lane_index
                    .leader_in_lane(me.state.lane.0, me.state.pos_m, me.id)
            else {
                return Ok(None);
            };
            let leader = &self.vehicles[entry.slot];
            return Ok(Some((leader.id, me.gap_to(leader))));
        }
        self.leader_of_linear(id)
    }

    /// Reference implementation of [`TrafficSim::leader_of`]: an O(n) scan
    /// over every vehicle. Kept public for the equivalence property tests
    /// and as the fallback while the lane index is stale.
    ///
    /// # Errors
    ///
    /// Fails if the vehicle does not exist.
    pub fn leader_of_linear(
        &self,
        id: VehicleId,
    ) -> Result<Option<(VehicleId, f64)>, TrafficError> {
        let me = self.vehicle(id).ok_or(TrafficError::UnknownVehicle(id))?;
        let mut best: Option<&Vehicle> = None;
        for v in self.vehicles.iter().filter(|v| v.active && v.id != id) {
            if v.state.lane != me.state.lane || !Self::ahead_of(v, me) {
                continue;
            }
            if best.is_none_or(|b| Self::ahead_of(b, v)) {
                best = Some(v);
            }
        }
        Ok(best.map(|v| (v.id, me.gap_to(v))))
    }

    /// Advances the simulation by one step.
    ///
    /// Returns the collisions that occurred during this step (also recorded
    /// in the trace).
    pub fn step(&mut self) -> Vec<Collision> {
        // Bring the lane index up to date with any between-step mutations
        // (vehicles added, externally mutated) before Phase 1 queries it.
        self.refresh_lane_index();

        // Phase 1: compute car-following commands from a synchronous snapshot.
        let mut commands: Vec<(usize, f64)> = Vec::new();
        for i in 0..self.vehicles.len() {
            let v = &self.vehicles[i];
            if !v.active || v.control_mode != ControlMode::CarFollowing {
                continue;
            }
            let leader = self
                .leader_of(v.id)
                .expect("vehicle exists")
                .map(|(lid, gap)| (self.vehicle(lid).expect("leader exists"), gap));
            let v = &self.vehicles[i];
            let input = CfInput {
                speed_mps: v.state.speed_mps,
                gap_m: leader.as_ref().map(|(_, g)| *g),
                leader_speed_mps: leader.as_ref().map_or(0.0, |(l, _)| l.state.speed_mps),
                speed_limit_mps: self
                    .road
                    .speed_limit(v.state.lane)
                    .min(v.spec.max_speed_mps),
                max_accel_mps2: v.spec.max_accel_mps2,
                service_decel_mps2: v.spec.max_decel_mps2.min(4.5),
                dt_s: STEP_LEN_S,
                noise: self.rng.uniform(),
            };
            commands.push((i, self.cf_model.accel(&input)));
        }
        for (i, a) in commands {
            self.vehicles[i].command_accel(a);
        }

        // Phase 2: integrate dynamics. The lag decay depends on the lag
        // alone, so it is recomputed only when a vehicle's lag differs from
        // the last one seen: once per step for a fleet sharing one spec,
        // and never for lag-free vehicles, which do not read it.
        let mut decay_of: Option<(f64, f64)> = None;
        for v in self.vehicles.iter_mut().filter(|v| v.active) {
            let lag = v.spec.actuation_lag_s;
            let decay = match decay_of {
                _ if lag <= 0.0 => 0.0,
                Some((seen, decay)) if seen.to_bits() == lag.to_bits() => decay,
                _ => {
                    let decay = lag_decay(lag, STEP_LEN_S);
                    decay_of = Some((lag, decay));
                    decay
                }
            };
            let out = step_vehicle(v, STEP_LEN_S, decay);
            // Numeric guard (active in release builds): NaN propagates
            // through the clamp chain, so any non-finite command or state
            // surfaces here. First fault wins; later steps keep the original
            // diagnosis so the report is deterministic.
            if self.numeric_fault.is_none() && (!out.is_finite() || !v.state.pos_m.is_finite()) {
                self.numeric_fault = Some(format!(
                    "vehicle {} kinematics non-finite at step {}: accel {}, speed {}, pos {}",
                    v.id,
                    self.steps + 1,
                    v.state.accel_mps2,
                    v.state.speed_mps,
                    v.state.pos_m
                ));
            }
            if v.state.accel_mps2 <= -HARD_DECEL_MPS2 {
                self.stats.hard_decel_samples += 1;
            }
        }
        self.lane_index.invalidate_positions();
        self.time += STEP_LEN;
        self.steps += 1;
        self.stats.steps += 1;

        // Phase 3: collisions.
        let mut collisions = detect_collisions(self.time, &self.vehicles, &mut self.collision_keys);
        collisions.retain(|c| {
            // Each unordered pair counts once. The collider is removed
            // below, so a pair recurs only if a caller re-activates a
            // vehicle through `vehicle_mut`.
            let pair = (c.collider.min(c.victim), c.collider.max(c.victim));
            if self.reported_pairs.contains(&pair) {
                false
            } else {
                self.reported_pairs.push(pair);
                true
            }
        });
        // SUMO's default "teleport": the collider leaves the road and the
        // platoon behind keeps driving.
        for c in &collisions {
            if let Some(v) = self.vehicle_mut(c.collider) {
                v.active = false;
            }
        }
        self.stats.collisions += collisions.len() as u64;
        self.trace.record_collisions(&collisions);

        // Phase 4: trajectory log, or its fold.
        match &mut self.fold {
            Some(fold) => fold.record_step(self.steps, &self.vehicles),
            None => self.trace.record_step(self.time, &self.vehicles),
        }

        // End-of-step refresh so `leader_of` queries made between steps
        // (the world's per-step radar pass runs before the next traffic
        // step) are answered from the index, not the linear fallback.
        self.refresh_lane_index();
        collisions
    }

    /// Runs `n` steps; returns the total number of collisions seen.
    pub fn run_steps(&mut self, n: u64) -> usize {
        let mut total = 0;
        for _ in 0..n {
            total += self.step().len();
        }
        total
    }

    /// Safety-relevant counters accumulated so far.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// The first numeric divergence detected by the release-mode kinematics
    /// guard, if any (a human-readable diagnosis; the run should be treated
    /// as failed with `FailureKind::NumericDiverged`).
    pub fn numeric_fault(&self) -> Option<&str> {
        self.numeric_fault.as_deref()
    }

    /// The trajectory log so far.
    pub fn trace(&self) -> &TrafficTrace {
        &self.trace
    }

    /// Consumes the simulation and returns the trajectory log.
    pub fn into_trace(self) -> TrafficTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LaneIndex;
    use crate::vehicle::VehicleSpec;

    fn sim() -> TrafficSim {
        TrafficSim::new(Road::paper_highway(), RngStream::new(1))
    }

    fn car(id: u32, pos: f64, speed: f64) -> Vehicle {
        Vehicle::new(
            VehicleId(id),
            VehicleSpec::default_car(),
            pos,
            LaneIndex(0),
            speed,
        )
    }

    #[test]
    fn add_and_query_vehicles() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        s.add_vehicle(car(2, 50.0, 20.0)).unwrap();
        assert_eq!(s.vehicles().len(), 2);
        assert!(s.vehicle(VehicleId(1)).is_some());
        assert_eq!(s.leader_of(VehicleId(2)).unwrap().unwrap().0, VehicleId(1));
        // gap = 100 - 5 (leader length) - 50 = 45
        assert!((s.leader_of(VehicleId(2)).unwrap().unwrap().1 - 45.0).abs() < 1e-12);
        assert!(s.leader_of(VehicleId(1)).unwrap().is_none());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        assert_eq!(
            s.add_vehicle(car(1, 50.0, 20.0)),
            Err(TrafficError::DuplicateVehicle(VehicleId(1)))
        );
    }

    #[test]
    fn off_road_rejected() {
        let mut s = sim();
        assert!(matches!(
            s.add_vehicle(car(1, 10_000.0, 20.0)),
            Err(TrafficError::OffRoad { .. })
        ));
        let mut v = car(2, 100.0, 20.0);
        v.state.lane = LaneIndex(9);
        assert!(matches!(
            s.add_vehicle(v),
            Err(TrafficError::OffRoad { .. })
        ));
    }

    #[test]
    fn unknown_vehicle_errors() {
        let mut s = sim();
        assert_eq!(
            s.command_accel(VehicleId(9), 1.0),
            Err(TrafficError::UnknownVehicle(VehicleId(9)))
        );
        assert!(s.set_external_control(VehicleId(9)).is_err());
        assert!(s.leader_of(VehicleId(9)).is_err());
    }

    #[test]
    fn time_advances_per_step() {
        let mut s = sim();
        s.run_steps(100);
        assert_eq!(s.time(), SimTime::from_secs(1));
    }

    #[test]
    fn free_vehicle_accelerates_to_its_max_speed() {
        let mut s = sim();
        s.add_vehicle(car(1, 0.0, 0.0)).unwrap();
        s.run_steps(6000); // 60 s
        let v = s.vehicle(VehicleId(1)).unwrap();
        assert!(
            (v.state.speed_mps - v.spec.max_speed_mps).abs() < 0.1,
            "speed {}",
            v.state.speed_mps
        );
    }

    #[test]
    fn krauss_follower_keeps_safe_distance() {
        let mut s = sim();
        s.add_vehicle(car(1, 120.0, 20.0)).unwrap();
        s.add_vehicle(car(2, 100.0, 25.0)).unwrap();
        s.run_steps(3000);
        assert!(s.trace().collisions.is_empty());
        let (_, gap) = s.leader_of(VehicleId(2)).unwrap().unwrap();
        assert!(gap > 0.0);
    }

    #[test]
    fn external_control_bypasses_car_following() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        s.set_external_control(VehicleId(1)).unwrap();
        s.command_accel(VehicleId(1), -4.0).unwrap();
        s.run_steps(100); // 1 s at -4 m/s^2
        let v = s.vehicle(VehicleId(1)).unwrap();
        assert!(
            (v.state.speed_mps - 16.0).abs() < 0.01,
            "speed {}",
            v.state.speed_mps
        );
    }

    #[test]
    fn forced_collision_is_detected_and_collider_removed() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 5.0)).unwrap();
        s.add_vehicle(car(2, 90.0, 30.0)).unwrap();
        s.set_external_control(VehicleId(1)).unwrap();
        s.set_external_control(VehicleId(2)).unwrap();
        s.command_accel(VehicleId(2), 0.0).unwrap(); // keeps ramming speed
        let collisions = {
            let mut all = Vec::new();
            for _ in 0..200 {
                all.extend(s.step());
            }
            all
        };
        assert_eq!(collisions.len(), 1);
        assert_eq!(collisions[0].collider, VehicleId(2));
        assert_eq!(collisions[0].victim, VehicleId(1));
        assert!(!s.vehicle(VehicleId(2)).unwrap().active, "collider removed");
        assert!(s.vehicle(VehicleId(1)).unwrap().active);
        assert!(s.trace().has_collision());
    }

    #[test]
    fn a_folding_sim_keeps_collisions_and_folds_what_the_walk_reads() {
        let build = |speed: f64| {
            let mut s = sim();
            s.add_vehicle(car(1, 100.0, 5.0)).unwrap();
            s.add_vehicle(car(2, 90.0, speed)).unwrap();
            s.add_vehicle(car(3, 30.0, 20.0)).unwrap();
            for id in [1, 2] {
                s.set_external_control(VehicleId(id)).unwrap();
            }
            s.command_accel(VehicleId(1), -2.0).unwrap();
            s
        };
        let mut reference = build(5.0);
        reference.run_steps(300);
        let golden = std::sync::Arc::new(GoldenSpeeds::tabulate(reference.trace()));
        let (mut traced, mut folded) = (build(30.0), build(30.0));
        folded.fold_trace(golden);
        traced.run_steps(300);
        folded.run_steps(300);
        assert!(traced.trace().has_collision(), "vehicle 2 rams vehicle 1");
        assert_eq!(folded.trace().collisions, traced.trace().collisions);
        assert!(folded.trace().vehicle_ids().is_empty(), "no samples kept");
        let fold = folded.fold().expect("fold on");
        let walk = traced.trace().max_decel_overall();
        assert_eq!(fold.max_decel().to_bits(), walk.to_bits());
        let deviation = reference
            .trace()
            .iter()
            .map(|(id, g)| traced.trace().vehicle(id).unwrap().max_speed_deviation(g))
            .fold(0.0, f64::max);
        assert_eq!(fold.max_speed_deviation().to_bits(), deviation.to_bits());
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn a_fold_cannot_start_mid_run() {
        let mut s = sim();
        s.run_steps(1);
        s.fold_trace(std::sync::Arc::new(GoldenSpeeds::tabulate(
            &TrafficTrace::new(),
        )));
    }

    #[test]
    fn stats_count_steps_collisions_and_hard_braking() {
        let mut s = sim();
        assert_eq!(s.stats(), TrafficStats::default());
        // A stopped leader forces the follower into an emergency stop and
        // eventually a collision (follower under external control keeps speed).
        s.add_vehicle(car(1, 100.0, 5.0)).unwrap();
        s.add_vehicle(car(2, 90.0, 30.0)).unwrap();
        s.set_external_control(VehicleId(1)).unwrap();
        s.set_external_control(VehicleId(2)).unwrap();
        s.command_accel(VehicleId(1), -5.0).unwrap();
        s.command_accel(VehicleId(2), 0.0).unwrap();
        s.run_steps(200);
        let st = s.stats();
        assert_eq!(st.steps, 200);
        assert_eq!(st.collisions, 1);
        assert!(
            st.hard_decel_samples > 0,
            "commanded -5 m/s² must register as hard braking"
        );
    }

    #[test]
    fn nan_command_is_caught_by_the_numeric_guard() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        assert_eq!(s.numeric_fault(), None);
        s.set_external_control(VehicleId(1)).unwrap();
        s.command_accel(VehicleId(1), f64::NAN).unwrap();
        s.step();
        let fault = s.numeric_fault().expect("NaN command must be detected");
        assert!(fault.contains("non-finite"), "{fault}");
        // First fault wins: further steps keep the original diagnosis.
        let first = fault.to_string();
        s.step();
        assert_eq!(s.numeric_fault(), Some(first.as_str()));
    }

    #[test]
    fn co_located_vehicle_is_visible_as_leader() {
        // Regression: `leader_of` used to skip vehicles at exactly equal
        // `pos_m`, so a co-located pair interpenetrated without a gap ever
        // being computed. Ties now break deterministically by id.
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        s.add_vehicle(car(2, 100.0, 20.0)).unwrap();
        let (leader, gap) = s
            .leader_of(VehicleId(1))
            .unwrap()
            .expect("tie must be visible");
        assert_eq!(leader, VehicleId(2));
        // Same position: the leader's rear bumper is one car length behind
        // my front bumper.
        assert!((gap - (-5.0)).abs() < 1e-12, "gap {gap}");
        assert_eq!(s.leader_of(VehicleId(2)).unwrap(), None, "highest id leads");
        // The indexed path agrees with the linear fallback.
        s.rebuild_lane_index();
        assert_eq!(
            s.leader_of(VehicleId(1)).unwrap(),
            Some((VehicleId(2), gap))
        );
        assert_eq!(
            s.leader_of_linear(VehicleId(1)).unwrap(),
            Some((VehicleId(2), gap))
        );
        assert_eq!(s.leader_of(VehicleId(2)).unwrap(), None);
    }

    #[test]
    fn indexed_and_linear_lookup_agree_during_a_run() {
        let build = |lookup: LeaderLookup| {
            let mut s = sim();
            s.set_leader_lookup(lookup);
            for i in 0..20 {
                s.add_vehicle(car(i, 30.0 * f64::from(i), 20.0 + f64::from(i % 5)))
                    .unwrap();
            }
            s
        };
        let mut indexed = build(LeaderLookup::Indexed);
        let mut linear = build(LeaderLookup::Linear);
        for _ in 0..50 {
            indexed.run_steps(10);
            linear.run_steps(10);
            for i in 0..20 {
                let id = VehicleId(i);
                assert_eq!(indexed.leader_of(id), linear.leader_of(id), "vehicle {i}");
                assert_eq!(indexed.leader_of(id), indexed.leader_of_linear(id));
            }
        }
        assert_eq!(
            indexed.vehicle(VehicleId(7)).unwrap().state.pos_m,
            linear.vehicle(VehicleId(7)).unwrap().state.pos_m,
            "whole-run trajectories must be identical across lookups"
        );
        assert!(indexed.index_rebuilds() >= 1);
    }

    #[test]
    fn index_rebuilds_only_on_structural_change() {
        let mut s = sim();
        s.add_vehicle(car(1, 100.0, 20.0)).unwrap();
        s.add_vehicle(car(2, 50.0, 20.0)).unwrap();
        s.run_steps(100);
        let after_warmup = s.index_rebuilds();
        s.run_steps(100);
        assert_eq!(
            s.index_rebuilds(),
            after_warmup,
            "steady-state steps refresh positions without rebuilding"
        );
        s.vehicle_mut(VehicleId(1)).unwrap().state.pos_m += 1.0;
        s.run_steps(1);
        assert_eq!(
            s.index_rebuilds(),
            after_warmup + 1,
            "external mutation rebuilds"
        );
    }

    #[test]
    fn deterministic_given_equal_seeds() {
        let run = |seed: u64| {
            let mut s = TrafficSim::new(Road::paper_highway(), RngStream::new(seed));
            s.cf_model = Krauss {
                sigma: 0.5,
                ..Krauss::default()
            };
            s.add_vehicle(car(1, 200.0, 20.0)).unwrap();
            s.add_vehicle(car(2, 150.0, 25.0)).unwrap();
            s.run_steps(2000);
            (
                s.vehicle(VehicleId(1)).unwrap().state.pos_m,
                s.vehicle(VehicleId(2)).unwrap().state.pos_m,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
