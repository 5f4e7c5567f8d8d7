//! Campaign result analysis (paper §IV-C).
//!
//! Aggregations that regenerate the paper's evaluation artefacts:
//!
//! - classification counts by attack **duration** (Fig. 5);
//! - classification counts by **propagation delay value** (Fig. 6);
//! - classification counts by **attack start time** (Fig. 7);
//! - **collider attribution** among severe cases — which vehicle is
//!   responsible for the collision (§IV-C.1 / §IV-C.2), confirming that
//!   attacking one vehicle endangers the surrounding traffic.

use std::collections::BTreeMap;

use crate::campaign::ExperimentRecord;
use crate::classify::Classification;

/// Classification histogram for one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Non-effective experiments.
    pub non_effective: usize,
    /// Negligible experiments.
    pub negligible: usize,
    /// Benign experiments.
    pub benign: usize,
    /// Severe experiments.
    pub severe: usize,
}

impl ClassCounts {
    /// Adds one classified experiment.
    pub fn add(&mut self, class: Classification) {
        match class {
            Classification::NonEffective => self.non_effective += 1,
            Classification::Negligible => self.negligible += 1,
            Classification::Benign => self.benign += 1,
            Classification::Severe => self.severe += 1,
        }
    }

    /// Total experiments in the bucket.
    pub fn total(&self) -> usize {
        self.non_effective + self.negligible + self.benign + self.severe
    }

    /// Count for one class.
    pub fn get(&self, class: Classification) -> usize {
        match class {
            Classification::NonEffective => self.non_effective,
            Classification::Negligible => self.negligible,
            Classification::Benign => self.benign,
            Classification::Severe => self.severe,
        }
    }
}

/// A key in milliseconds (durations, PD values and start times are all
/// sub-second-resolution times; integer keys keep maps ordered and exact).
pub type MillisKey = i64;

fn to_millis(seconds: f64) -> MillisKey {
    (seconds * 1000.0).round() as MillisKey
}

/// Overall classification counts (the §IV-C.1 totals).
pub fn summary(records: &[ExperimentRecord]) -> ClassCounts {
    let mut c = ClassCounts::default();
    for r in records {
        c.add(r.verdict.class);
    }
    c
}

/// Fig. 5: classification w.r.t. the duration the attack is active,
/// keyed by duration in milliseconds.
pub fn by_duration(records: &[ExperimentRecord]) -> BTreeMap<MillisKey, ClassCounts> {
    let mut map: BTreeMap<MillisKey, ClassCounts> = BTreeMap::new();
    for r in records {
        let key = to_millis(r.spec.duration().as_secs_f64());
        map.entry(key).or_default().add(r.verdict.class);
    }
    map
}

/// Fig. 6: classification w.r.t. the propagation delay value, keyed by the
/// attack value in milliseconds.
pub fn by_value(records: &[ExperimentRecord]) -> BTreeMap<MillisKey, ClassCounts> {
    let mut map: BTreeMap<MillisKey, ClassCounts> = BTreeMap::new();
    for r in records {
        map.entry(to_millis(r.spec.value))
            .or_default()
            .add(r.verdict.class);
    }
    map
}

/// Fig. 7: classification w.r.t. the attack start time, keyed by the start
/// time in milliseconds.
pub fn by_start_time(records: &[ExperimentRecord]) -> BTreeMap<MillisKey, ClassCounts> {
    let mut map: BTreeMap<MillisKey, ClassCounts> = BTreeMap::new();
    for r in records {
        let key = to_millis(r.spec.start.as_secs_f64());
        map.entry(key).or_default().add(r.verdict.class);
    }
    map
}

/// Collider attribution: for every severe case with a collision, which
/// vehicle was responsible (the rear vehicle of the first incident).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColliderSplit {
    /// Collision count per responsible vehicle.
    pub per_vehicle: BTreeMap<u32, usize>,
    /// Severe cases without a collision (emergency braking only).
    pub severe_without_collision: usize,
}

impl ColliderSplit {
    /// Total severe cases with a collision.
    pub fn total_collisions(&self) -> usize {
        self.per_vehicle.values().sum::<usize>()
    }

    /// Percentage of collision incidents caused by `vehicle`.
    pub fn percentage(&self, vehicle: u32) -> f64 {
        let total = self.total_collisions();
        if total == 0 {
            0.0
        } else {
            100.0 * *self.per_vehicle.get(&vehicle).unwrap_or(&0) as f64 / total as f64
        }
    }
}

/// Computes the collider attribution among severe cases.
pub fn collider_split(records: &[ExperimentRecord]) -> ColliderSplit {
    let mut split = ColliderSplit::default();
    for r in records
        .iter()
        .filter(|r| r.verdict.class == Classification::Severe)
    {
        match r.verdict.collider() {
            Some(v) => *split.per_vehicle.entry(v.0).or_default() += 1,
            None => split.severe_without_collision += 1,
        }
    }
    split
}

/// Finds the saturation point of a severe-count curve: the smallest key
/// beyond which the severe count never deviates from its value there by
/// more than `tolerance` (as a fraction of the bucket size). The paper's
/// discussion (§IV-C.3) uses exactly this to argue that results for small
/// PD values/durations predict larger ones.
pub fn saturation_point(
    map: &BTreeMap<MillisKey, ClassCounts>,
    tolerance: f64,
) -> Option<MillisKey> {
    let keys: Vec<MillisKey> = map.keys().copied().collect();
    'candidate: for (i, &k) in keys.iter().enumerate() {
        let base = map[&k];
        if base.total() == 0 {
            continue;
        }
        let tol = (tolerance * base.total() as f64).ceil() as isize;
        for &later in &keys[i..] {
            let diff = map[&later].severe as isize - base.severe as isize;
            if diff.abs() > tol {
                continue 'candidate;
            }
        }
        return Some(k);
    }
    None
}

/// Two-dimensional classification: (attack start, attack value) →
/// counts. Supports heatmap views of where in the driving cycle each PD
/// value becomes dangerous.
pub fn by_start_and_value(
    records: &[ExperimentRecord],
) -> BTreeMap<(MillisKey, MillisKey), ClassCounts> {
    let mut map: BTreeMap<(MillisKey, MillisKey), ClassCounts> = BTreeMap::new();
    for r in records {
        let key = (
            to_millis(r.spec.start.as_secs_f64()),
            to_millis(r.spec.value),
        );
        map.entry(key).or_default().add(r.verdict.class);
    }
    map
}

/// Statistics of the time between attack initiation and the first
/// collision, across all colliding experiments — the "attack lead time" a
/// defender has to react.
pub fn collision_latency_stats(records: &[ExperimentRecord]) -> comfase_des::stats::RunningStats {
    let mut stats = comfase_des::stats::RunningStats::new();
    for r in records {
        if let Some(c) = &r.verdict.first_collision {
            stats.record((c.time - r.spec.start).as_secs_f64());
        }
    }
    stats
}

/// §IV-C.2: per attack start time, the vehicle responsible for the
/// collision (if any) — the paper's start-time-band observation for DoS.
pub fn colliders_by_start(records: &[ExperimentRecord]) -> BTreeMap<MillisKey, Option<u32>> {
    records
        .iter()
        .map(|r| {
            (
                to_millis(r.spec.start.as_secs_f64()),
                r.verdict.collider().map(|v| v.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackModelKind, AttackSpec};
    use crate::classify::Verdict;
    use comfase_des::time::SimTime;
    use comfase_traffic::collision::Collision;
    use comfase_traffic::network::LaneIndex;
    use comfase_traffic::vehicle::VehicleId;

    fn record(
        index: usize,
        value: f64,
        start: f64,
        dur: f64,
        class: Classification,
        collider: Option<u32>,
    ) -> ExperimentRecord {
        let first_collision = collider.map(|v| Collision {
            time: SimTime::from_secs_f64(start + 1.0),
            collider: VehicleId(v),
            victim: VehicleId(v - 1),
            lane: LaneIndex(0),
            pos_m: 0.0,
            collider_speed_mps: 28.0,
            victim_speed_mps: 27.0,
            overlap_m: 0.1,
        });
        ExperimentRecord {
            index,
            spec: AttackSpec {
                model: AttackModelKind::Delay,
                value,
                targets: vec![2].into(),
                start: SimTime::from_secs_f64(start),
                end: SimTime::from_secs_f64(start + dur),
            },
            verdict: Verdict {
                class,
                max_decel_mps2: 2.0,
                max_speed_deviation_mps: 0.5,
                nr_collisions: usize::from(first_collision.is_some()),
                first_collision,
            },
        }
    }

    fn sample() -> Vec<ExperimentRecord> {
        vec![
            record(0, 0.2, 17.0, 1.0, Classification::Negligible, None),
            record(1, 0.2, 17.0, 5.0, Classification::Benign, None),
            record(2, 1.0, 17.0, 5.0, Classification::Severe, Some(2)),
            record(3, 1.0, 18.0, 5.0, Classification::Severe, Some(3)),
            record(4, 1.0, 18.0, 1.0, Classification::Benign, None),
            record(5, 3.0, 18.0, 5.0, Classification::Severe, Some(2)),
            record(6, 3.0, 19.0, 1.0, Classification::NonEffective, None),
            record(7, 3.0, 19.0, 5.0, Classification::Severe, None),
        ]
    }

    #[test]
    fn class_counts_accumulate() {
        let s = summary(&sample());
        assert_eq!(s.non_effective, 1);
        assert_eq!(s.negligible, 1);
        assert_eq!(s.benign, 2);
        assert_eq!(s.severe, 4);
        assert_eq!(s.total(), 8);
        assert_eq!(s.get(Classification::Severe), 4);
    }

    #[test]
    fn fig5_groups_by_duration() {
        let m = by_duration(&sample());
        assert_eq!(m.len(), 2);
        assert_eq!(m[&1000].total(), 3);
        assert_eq!(m[&5000].severe, 4);
        assert_eq!(m[&5000].total(), 5);
    }

    #[test]
    fn fig6_groups_by_value() {
        let m = by_value(&sample());
        assert_eq!(m.len(), 3);
        assert_eq!(m[&200].severe, 0);
        assert_eq!(m[&1000].severe, 2);
        assert_eq!(m[&3000].severe, 2);
    }

    #[test]
    fn fig7_groups_by_start() {
        let m = by_start_time(&sample());
        assert_eq!(m.len(), 3);
        assert_eq!(m[&17_000].total(), 3);
        assert_eq!(m[&18_000].severe, 2);
        assert_eq!(m[&19_000].severe, 1);
    }

    #[test]
    fn collider_split_counts_and_percentages() {
        let split = collider_split(&sample());
        assert_eq!(split.per_vehicle[&2], 2);
        assert_eq!(split.per_vehicle[&3], 1);
        assert_eq!(split.total_collisions(), 3);
        assert_eq!(split.severe_without_collision, 1);
        assert!((split.percentage(2) - 66.666).abs() < 0.01);
        assert!((split.percentage(3) - 33.333).abs() < 0.01);
        assert_eq!(split.percentage(4), 0.0);
    }

    #[test]
    fn empty_split_has_zero_percentages() {
        let split = collider_split(&[]);
        assert_eq!(split.total_collisions(), 0);
        assert_eq!(split.percentage(2), 0.0);
    }

    #[test]
    fn collision_latency_measures_attack_to_impact() {
        let r = sample();
        let stats = collision_latency_stats(&r);
        // Three colliding records, each with the collision 1 s after the
        // attack start (see `record`).
        assert_eq!(stats.count(), 3);
        assert!((stats.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_point_finds_plateau() {
        let mut map: BTreeMap<MillisKey, ClassCounts> = BTreeMap::new();
        // severe counts: 0, 10, 48, 50, 52, 49 over 100-experiment buckets.
        for (i, severe) in [0usize, 10, 48, 50, 52, 49].into_iter().enumerate() {
            let mut c = ClassCounts::default();
            for _ in 0..severe {
                c.add(Classification::Severe);
            }
            for _ in severe..100 {
                c.add(Classification::Benign);
            }
            map.insert((i as i64 + 1) * 200, c);
        }
        // Within 5% of 100 experiments, the curve saturates at key 600.
        assert_eq!(saturation_point(&map, 0.05), Some(600));
        // With zero tolerance nothing saturates until the last key...
        // (52 vs 49 differ), except the final bucket trivially.
        assert_eq!(saturation_point(&map, 0.0), Some(1200));
    }

    #[test]
    fn saturation_point_empty_map() {
        assert_eq!(saturation_point(&BTreeMap::new(), 0.1), None);
    }

    #[test]
    fn heatmap_keys_cover_grid() {
        let m = by_start_and_value(&sample());
        assert_eq!(m[&(17_000, 200)].total(), 2);
        assert_eq!(m[&(17_000, 1000)].severe, 1);
        assert_eq!(m[&(19_000, 3000)].total(), 2);
    }

    #[test]
    fn colliders_by_start_maps_bands() {
        let dos: Vec<ExperimentRecord> = vec![
            record(0, 60.0, 17.0, 43.0, Classification::Severe, Some(2)),
            record(1, 60.0, 17.6, 42.4, Classification::Severe, Some(3)),
            record(2, 60.0, 21.8, 38.2, Classification::Severe, Some(2)),
        ];
        let m = colliders_by_start(&dos);
        assert_eq!(m[&17_000], Some(2));
        assert_eq!(m[&17_600], Some(3));
        assert_eq!(m[&21_800], Some(2));
    }
}
