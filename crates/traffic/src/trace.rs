//! Per-vehicle trajectory logging.
//!
//! ComFASE classifies experiments from SUMO's logged traffic data (speed,
//! acceleration/deceleration, position — §II-C). [`TrafficTrace`] is that
//! log: one [`VehicleTrace`] per vehicle plus all collision incidents.

use std::collections::BTreeMap;
use std::sync::Arc;

use comfase_des::stats::TimeSeries;
use comfase_des::time::SimTime;

use crate::collision::Collision;
use crate::simulation::STEP_LEN;
use crate::vehicle::{Vehicle, VehicleId};

/// Recorded trajectory of one vehicle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VehicleTrace {
    /// Speed samples, m/s.
    pub speed: TimeSeries,
    /// Realised acceleration samples, m/s².
    pub accel: TimeSeries,
    /// Front-bumper position samples, metres.
    pub pos: TimeSeries,
}
comfase_json::record!(ToJson for VehicleTrace { speed, accel, pos });

impl VehicleTrace {
    /// Creates an empty trace with room for `samples` samples per series.
    pub fn with_capacity(samples: usize) -> Self {
        VehicleTrace {
            speed: TimeSeries::with_capacity(samples),
            accel: TimeSeries::with_capacity(samples),
            pos: TimeSeries::with_capacity(samples),
        }
    }

    /// Largest deceleration magnitude observed, m/s² (0 if never braked).
    pub fn max_decel(&self) -> f64 {
        self.accel
            .iter_values()
            .fold(0.0, |m, a| if -a > m { -a } else { m })
    }

    /// Largest acceleration observed, m/s² (0 if never accelerated).
    pub fn max_accel(&self) -> f64 {
        self.accel.iter_values().fold(0.0, f64::max)
    }

    /// Largest absolute speed difference to another trace, comparing
    /// sample-by-sample at this trace's sample times.
    ///
    /// Used for the paper's *Non-effective* class ("identical speed profiles
    /// as in the golden run"). Samples missing in `other` count as a
    /// difference of the full speed value.
    pub fn max_speed_deviation(&self, other: &VehicleTrace) -> f64 {
        self.speed.max_deviation_from(&other.speed)
    }
}

/// The complete traffic log of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct TrafficTrace {
    per_vehicle: BTreeMap<VehicleId, VehicleTrace>,
    /// All collision incidents, in time order.
    pub collisions: Vec<Collision>,
    /// Expected samples per vehicle; new per-vehicle buffers are created with
    /// this capacity. Purely a performance hint, so not part of the log.
    capacity_hint: usize,
}
// The capacity hint is not part of the log, so it is not written.
comfase_json::record!(ToJson for TrafficTrace { per_vehicle, collisions });

// Manual equality: the capacity hint is an allocation detail, so a trace
// recorded with pre-sized buffers equals the same trace recorded without.
impl PartialEq for TrafficTrace {
    fn eq(&self, other: &Self) -> bool {
        self.per_vehicle == other.per_vehicle && self.collisions == other.collisions
    }
}

impl TrafficTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the expected number of samples per vehicle so trace buffers are
    /// allocated once up front instead of growing step by step.
    pub fn set_capacity_hint(&mut self, samples: usize) {
        self.capacity_hint = samples;
    }

    /// Records the current state of every active vehicle.
    pub fn record_step(&mut self, time: SimTime, vehicles: &[Vehicle]) {
        let hint = self.capacity_hint;
        for v in vehicles.iter().filter(|v| v.active) {
            let tr = self
                .per_vehicle
                .entry(v.id)
                .or_insert_with(|| VehicleTrace::with_capacity(hint));
            tr.speed.record(time, v.state.speed_mps);
            tr.accel.record(time, v.state.accel_mps2);
            tr.pos.record(time, v.state.pos_m);
        }
    }

    /// Appends collision incidents.
    pub fn record_collisions(&mut self, collisions: &[Collision]) {
        self.collisions.extend_from_slice(collisions);
    }

    /// Trace of one vehicle, if it was ever recorded.
    pub fn vehicle(&self, id: VehicleId) -> Option<&VehicleTrace> {
        self.per_vehicle.get(&id)
    }

    /// Iterates over `(vehicle, trace)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VehicleId, &VehicleTrace)> {
        self.per_vehicle.iter().map(|(k, v)| (*k, v))
    }

    /// Ids of all recorded vehicles.
    pub fn vehicle_ids(&self) -> Vec<VehicleId> {
        self.per_vehicle.keys().copied().collect()
    }

    /// Largest deceleration across all vehicles, m/s².
    pub fn max_decel_overall(&self) -> f64 {
        self.per_vehicle
            .values()
            .map(VehicleTrace::max_decel)
            .fold(0.0, f64::max)
    }

    /// First collision incident, if any.
    pub fn first_collision(&self) -> Option<&Collision> {
        self.collisions.first()
    }

    /// `true` if any collision was recorded.
    pub fn has_collision(&self) -> bool {
        !self.collisions.is_empty()
    }
}

/// The speed of every vehicle of a reference (golden) trace at every
/// traffic step, by the sample-and-hold rule of
/// [`TimeSeries::max_deviation_from`]: 0 before the vehicle's first
/// sample, its last value after its last. Tabulated once, so a
/// [`TraceFold`] reads the reference speed at step `k` by index.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenSpeeds {
    /// The reference trace's vehicles, ascending.
    ids: Vec<VehicleId>,
    /// Step-major: row `k` holds the speeds at `k ×` [`STEP_LEN`], one per
    /// entry of `ids`. The last row is at or after every sample.
    speeds: Vec<f64>,
    /// Number of rows, at least 1.
    rows: usize,
}

impl GoldenSpeeds {
    /// Tabulates the speeds of every vehicle in `golden`.
    pub fn tabulate(golden: &TrafficTrace) -> Self {
        let ids = golden.vehicle_ids();
        let step_ns = STEP_LEN.as_nanos();
        let last_ns = golden
            .iter()
            .filter_map(|(_, tr)| tr.speed.last_time())
            .map(|t| t.as_nanos().max(0))
            .max()
            .unwrap_or(0);
        let rows = (last_ns + step_ns - 1) / step_ns + 1;
        let n = ids.len();
        let mut speeds = vec![0.0; rows as usize * n];
        for (i, (_, tr)) in golden.iter().enumerate() {
            let mut samples = tr.speed.iter().peekable();
            let mut held = 0.0;
            for k in 0..rows {
                let t = SimTime::from_nanos(k * step_ns);
                while let Some((_, v)) = samples.next_if(|&(ts, _)| ts <= t) {
                    held = v;
                }
                speeds[k as usize * n + i] = held;
            }
        }
        GoldenSpeeds {
            ids,
            speeds,
            rows: rows as usize,
        }
    }

    /// The speeds at step `step`, one per entry of `ids`; after the last
    /// row, the last row's.
    fn row(&self, step: u64) -> &[f64] {
        let k = usize::try_from(step).map_or(self.rows - 1, |k| k.min(self.rows - 1));
        let n = self.ids.len();
        &self.speeds[k * n..(k + 1) * n]
    }
}

/// What classification reads of a run's trace, folded step by step
/// against [`GoldenSpeeds`] instead of recorded: the largest deceleration
/// over all vehicles, and per reference vehicle the largest `|v − g|`
/// between its speed and the reference speed at the same step.
///
/// Each value is the one the trace walk computes from a recorded trace:
/// [`TraceFold::max_decel`] is [`TrafficTrace::max_decel_overall`], and
/// [`TraceFold::max_speed_deviation`] the largest
/// [`VehicleTrace::max_speed_deviation`] from the reference, infinite
/// for a reference vehicle the run never recorded.
#[derive(Debug, Clone)]
pub struct TraceFold {
    golden: Arc<GoldenSpeeds>,
    max_decel: f64,
    /// Per reference vehicle: its largest deviation so far, `None` until
    /// it is first recorded.
    max_dev: Vec<Option<f64>>,
}

impl TraceFold {
    /// An empty fold against `golden`.
    pub(crate) fn new(golden: Arc<GoldenSpeeds>) -> Self {
        let max_dev = vec![None; golden.ids.len()];
        TraceFold {
            golden,
            max_decel: 0.0,
            max_dev,
        }
    }

    /// Folds in the state of every active vehicle after step `step`, the
    /// samples [`TrafficTrace::record_step`] would record.
    pub(crate) fn record_step(&mut self, step: u64, vehicles: &[Vehicle]) {
        let golden = &*self.golden;
        let speeds = golden.row(step);
        for v in vehicles.iter().filter(|v| v.active) {
            let decel = -v.state.accel_mps2;
            if decel > self.max_decel {
                self.max_decel = decel;
            }
            if let Ok(i) = golden.ids.binary_search(&v.id) {
                let dev = (v.state.speed_mps - speeds[i]).abs();
                let max = self.max_dev[i].get_or_insert(0.0);
                *max = max.max(dev);
            }
        }
    }

    /// Largest deceleration across all vehicles, m/s².
    pub fn max_decel(&self) -> f64 {
        self.max_decel
    }

    /// Largest speed deviation from the reference across its vehicles,
    /// m/s: infinite if one of them was never recorded.
    pub fn max_speed_deviation(&self) -> f64 {
        self.max_dev
            .iter()
            .map(|d| d.unwrap_or(f64::INFINITY))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LaneIndex;
    use crate::vehicle::VehicleSpec;

    fn veh(id: u32, pos: f64, speed: f64, accel: f64) -> Vehicle {
        let mut v = Vehicle::new(
            VehicleId(id),
            VehicleSpec::paper_platooning_car(),
            pos,
            LaneIndex(0),
            speed,
        );
        v.state.accel_mps2 = accel;
        v
    }

    #[test]
    fn records_only_active_vehicles() {
        let mut trace = TrafficTrace::new();
        let mut vehicles = vec![veh(1, 10.0, 20.0, 0.0), veh(2, 0.0, 20.0, 0.0)];
        vehicles[1].active = false;
        trace.record_step(SimTime::ZERO, &vehicles);
        assert!(trace.vehicle(VehicleId(1)).is_some());
        assert!(trace.vehicle(VehicleId(2)).is_none());
    }

    #[test]
    fn max_decel_over_run() {
        let mut trace = TrafficTrace::new();
        for (i, a) in [0.5, -1.2, -6.3, 2.0].iter().enumerate() {
            trace.record_step(SimTime::from_secs(i as i64), &[veh(1, 0.0, 20.0, *a)]);
        }
        let tr = trace.vehicle(VehicleId(1)).unwrap();
        assert!((tr.max_decel() - 6.3).abs() < 1e-12);
        assert!((tr.max_accel() - 2.0).abs() < 1e-12);
        assert!((trace.max_decel_overall() - 6.3).abs() < 1e-12);
    }

    #[test]
    fn max_decel_zero_without_braking() {
        let mut trace = TrafficTrace::new();
        trace.record_step(SimTime::ZERO, &[veh(1, 0.0, 20.0, 1.0)]);
        assert_eq!(trace.vehicle(VehicleId(1)).unwrap().max_decel(), 0.0);
    }

    #[test]
    fn speed_deviation_between_traces() {
        let mut a = TrafficTrace::new();
        let mut b = TrafficTrace::new();
        for i in 0..10 {
            a.record_step(SimTime::from_secs(i), &[veh(1, 0.0, 20.0, 0.0)]);
            let speed = if i == 5 { 17.5 } else { 20.0 };
            b.record_step(SimTime::from_secs(i), &[veh(1, 0.0, speed, 0.0)]);
        }
        let dev = a
            .vehicle(VehicleId(1))
            .unwrap()
            .max_speed_deviation(b.vehicle(VehicleId(1)).unwrap());
        assert!((dev - 2.5).abs() < 1e-12);
    }

    #[test]
    fn identical_traces_have_zero_deviation() {
        let mut a = TrafficTrace::new();
        for i in 0..10 {
            a.record_step(SimTime::from_secs(i), &[veh(1, 0.0, 20.0, 0.0)]);
        }
        let tr = a.vehicle(VehicleId(1)).unwrap();
        assert_eq!(tr.max_speed_deviation(tr), 0.0);
    }

    #[test]
    fn collision_bookkeeping() {
        let mut trace = TrafficTrace::new();
        assert!(!trace.has_collision());
        assert!(trace.first_collision().is_none());
        let c = Collision {
            time: SimTime::from_secs(5),
            collider: VehicleId(2),
            victim: VehicleId(1),
            lane: LaneIndex(0),
            pos_m: 120.0,
            collider_speed_mps: 25.0,
            victim_speed_mps: 20.0,
            overlap_m: 0.4,
        };
        trace.record_collisions(std::slice::from_ref(&c));
        assert!(trace.has_collision());
        assert_eq!(trace.first_collision(), Some(&c));
    }
}
