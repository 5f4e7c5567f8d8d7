//! Result classification — Step 4 of the ComFASE execution flow.
//!
//! Each attacked run is compared against the golden run and placed in one
//! of the paper's four categories (§IV-B), using *deceleration profiles*
//! and *collision incidents* as classification parameters:
//!
//! - **Non-effective** — identical speed profiles to the golden run;
//! - **Negligible** — behaviour changed, but the maximum deceleration does
//!   not exceed the golden run's maximum (1.53 m/s² in the paper);
//! - **Benign** — maximum deceleration above the golden maximum but within
//!   the maximum comfortable braking rate (5 m/s²);
//! - **Severe** — a collision occurred, or a vehicle performed emergency
//!   braking (deceleration above 5 m/s²).

use comfase_traffic::collision::Collision;
use comfase_traffic::trace::{TraceFold, TrafficTrace};
use comfase_traffic::vehicle::VehicleId;

/// The paper's result classes, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Classification {
    /// No effect on any vehicle's behaviour.
    NonEffective,
    /// Behaviour changed within the golden run's deceleration envelope.
    Negligible,
    /// Deceleration above golden maximum but comfortable (≤ 5 m/s²).
    Benign,
    /// Collision or emergency braking (> 5 m/s²).
    Severe,
}
comfase_json::variants!(ToJson, FromJson for Classification {
    NonEffective, Negligible, Benign, Severe,
});

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Classification::NonEffective => "non-effective",
            Classification::Negligible => "negligible",
            Classification::Benign => "benign",
            Classification::Severe => "severe",
        };
        f.write_str(s)
    }
}

/// The paper's `classificationParameters`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationParams {
    /// Maximum deceleration observed in the golden run, m/s² (the
    /// Negligible/Benign boundary; 1.53 in the paper).
    pub golden_max_decel_mps2: f64,
    /// Maximum comfortable braking rate, m/s² (the Benign/Severe boundary;
    /// 5 in the paper, from rear-end crash studies).
    pub comfortable_decel_mps2: f64,
    /// Speed profiles within this tolerance count as "identical"
    /// (Non-effective), m/s.
    pub identical_speed_eps_mps: f64,
}

impl ClassificationParams {
    /// Derives the parameters from a golden run, as the paper does
    /// ("1.53 m/s², which is the maximum deceleration recorded in the
    /// golden run").
    pub fn from_golden(golden: &TrafficTrace) -> Self {
        ClassificationParams {
            golden_max_decel_mps2: golden.max_decel_overall(),
            comfortable_decel_mps2: 5.0,
            identical_speed_eps_mps: 1e-3,
        }
    }
}

/// Classification result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Assigned class.
    pub class: Classification,
    /// Maximum deceleration observed across all vehicles, m/s².
    pub max_decel_mps2: f64,
    /// Largest speed deviation from the golden run across vehicles, m/s.
    pub max_speed_deviation_mps: f64,
    /// First collision incident, if any (its collider is "the vehicle
    /// responsible", SUMO semantics).
    pub first_collision: Option<Collision>,
    /// Total collision incidents.
    pub nr_collisions: usize,
}
comfase_json::record!(ToJson, FromJson for Verdict {
    class, max_decel_mps2, max_speed_deviation_mps, first_collision, nr_collisions,
});

impl Verdict {
    /// The vehicle responsible for the (first) collision, if any.
    pub fn collider(&self) -> Option<VehicleId> {
        self.first_collision.as_ref().map(|c| c.collider)
    }
}

/// Classifies an attacked run against the golden run
/// (`Compare(GoldenRunLog, AttackCampaignLog[exp], classificationParameters)`).
pub fn classify(
    golden: &TrafficTrace,
    run: &TrafficTrace,
    params: &ClassificationParams,
) -> Verdict {
    let max_dev = golden
        .iter()
        .map(|(id, gtrace)| match run.vehicle(id) {
            Some(rtrace) => rtrace.max_speed_deviation(gtrace),
            None => f64::INFINITY, // vehicle disappeared: maximally deviant
        })
        .fold(0.0f64, f64::max);
    decide(
        golden,
        &run.collisions,
        run.max_decel_overall(),
        max_dev,
        params,
    )
}

/// [`classify`] for a run that folded its trace (see
/// [`crate::world::World::fold_trace`]) against the speeds of `golden`:
/// `collisions` are the run's, and the fold holds the same maximum
/// deceleration and speed deviation that the trace walk computes.
pub(crate) fn classify_fold(
    golden: &TrafficTrace,
    fold: &TraceFold,
    collisions: &[Collision],
    params: &ClassificationParams,
) -> Verdict {
    let (max_decel, max_dev) = (fold.max_decel(), fold.max_speed_deviation());
    decide(golden, collisions, max_decel, max_dev, params)
}

/// The class decision both classifiers share.
fn decide(
    golden: &TrafficTrace,
    collisions: &[Collision],
    max_decel: f64,
    max_dev: f64,
    params: &ClassificationParams,
) -> Verdict {
    let first_collision = collisions.first().cloned();
    let nr_collisions = collisions.len();

    // Non-effective first: "the injected attack has no effects on the
    // behaviour of the vehicles (identical speed profiles as in the golden
    // run)". An unchanged run is non-effective even in scenarios whose
    // golden run itself brakes hard.
    let unchanged =
        max_dev <= params.identical_speed_eps_mps && nr_collisions == golden.collisions.len();
    let class = if unchanged {
        Classification::NonEffective
    } else if first_collision.is_some() || max_decel > params.comfortable_decel_mps2 {
        Classification::Severe
    } else if max_decel <= params.golden_max_decel_mps2 {
        Classification::Negligible
    } else {
        Classification::Benign
    };

    Verdict {
        class,
        max_decel_mps2: max_decel,
        max_speed_deviation_mps: max_dev,
        first_collision,
        nr_collisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfase_des::rng::{RngStream, StreamId};
    use comfase_des::time::SimTime;
    use comfase_traffic::network::LaneIndex;
    use comfase_traffic::vehicle::{Vehicle, VehicleSpec};

    fn veh(id: u32, speed: f64, accel: f64) -> Vehicle {
        let mut v = Vehicle::new(
            VehicleId(id),
            VehicleSpec::paper_platooning_car(),
            100.0,
            LaneIndex(0),
            speed,
        );
        v.state.accel_mps2 = accel;
        v
    }

    /// Builds a trace with the given per-step (speed, accel) samples.
    fn trace(samples: &[(f64, f64)]) -> TrafficTrace {
        let mut t = TrafficTrace::new();
        for (i, &(speed, accel)) in samples.iter().enumerate() {
            t.record_step(SimTime::from_millis(10 * i as i64), &[veh(1, speed, accel)]);
        }
        t
    }

    fn golden() -> TrafficTrace {
        trace(&[(27.0, 0.0), (27.2, 1.0), (27.0, -1.53), (27.0, 0.0)])
    }

    fn params() -> ClassificationParams {
        ClassificationParams::from_golden(&golden())
    }

    #[test]
    fn params_derive_from_golden() {
        let p = params();
        assert!((p.golden_max_decel_mps2 - 1.53).abs() < 1e-12);
        assert_eq!(p.comfortable_decel_mps2, 5.0);
    }

    #[test]
    fn identical_run_is_non_effective() {
        let v = classify(&golden(), &golden(), &params());
        assert_eq!(v.class, Classification::NonEffective);
        assert_eq!(v.max_speed_deviation_mps, 0.0);
        assert!(v.collider().is_none());
    }

    #[test]
    fn small_change_within_golden_envelope_is_negligible() {
        let run = trace(&[(27.0, 0.0), (27.5, 1.0), (27.0, -1.4), (27.0, 0.0)]);
        let v = classify(&golden(), &run, &params());
        assert_eq!(v.class, Classification::Negligible);
    }

    #[test]
    fn moderate_braking_is_benign() {
        let run = trace(&[(27.0, 0.0), (26.0, -3.0), (25.0, -4.9), (25.0, 0.0)]);
        let v = classify(&golden(), &run, &params());
        assert_eq!(v.class, Classification::Benign);
        assert!((v.max_decel_mps2 - 4.9).abs() < 1e-12);
    }

    #[test]
    fn emergency_braking_is_severe() {
        let run = trace(&[(27.0, 0.0), (25.0, -6.5), (23.0, -2.0)]);
        let v = classify(&golden(), &run, &params());
        assert_eq!(v.class, Classification::Severe);
        assert!(v.first_collision.is_none(), "severe by deceleration alone");
    }

    #[test]
    fn collision_is_severe_even_with_gentle_deceleration() {
        let mut run = trace(&[(27.0, 0.0), (27.0, -0.5)]);
        run.record_collisions(&[comfase_traffic::collision::Collision {
            time: SimTime::from_secs(20),
            collider: VehicleId(2),
            victim: VehicleId(1),
            lane: LaneIndex(0),
            pos_m: 500.0,
            collider_speed_mps: 28.0,
            victim_speed_mps: 26.0,
            overlap_m: 0.1,
        }]);
        let v = classify(&golden(), &run, &params());
        assert_eq!(v.class, Classification::Severe);
        assert_eq!(v.collider(), Some(VehicleId(2)));
        assert_eq!(v.nr_collisions, 1);
    }

    #[test]
    fn missing_vehicle_counts_as_deviation() {
        let run = TrafficTrace::new(); // vehicle 1 never recorded
        let v = classify(&golden(), &run, &params());
        assert!(v.max_speed_deviation_mps.is_infinite());
        assert_ne!(v.class, Classification::NonEffective);
    }

    #[test]
    fn boundary_values_follow_paper_inequalities() {
        // decel exactly at golden max -> negligible (<=);
        let run = trace(&[(27.0, 0.0), (26.9, -1.53)]);
        assert_eq!(
            classify(&golden(), &run, &params()).class,
            Classification::Negligible
        );
        // decel exactly 5 -> benign (<=);
        let run = trace(&[(27.0, 0.0), (26.0, -5.0)]);
        assert_eq!(
            classify(&golden(), &run, &params()).class,
            Classification::Benign
        );
        // just above 5 -> severe.
        let run = trace(&[(27.0, 0.0), (26.0, -5.01)]);
        assert_eq!(
            classify(&golden(), &run, &params()).class,
            Classification::Severe
        );
    }

    /// `golden` reshaped: each vehicle keeps a random window of its
    /// samples (from all of them to none), and one time in three vehicle
    /// 999, which no run has, gets samples of its own. A run then has
    /// samples before a golden vehicle's first and after its last,
    /// vehicles golden lacks, and golden vehicles it never records.
    fn reshaped(golden: &TrafficTrace, rng: &mut RngStream) -> TrafficTrace {
        let mut by_time: std::collections::BTreeMap<SimTime, Vec<Vehicle>> = Default::default();
        let mut add = |t: SimTime, id: u32, speed: f64, accel: f64| {
            by_time.entry(t).or_default().push(veh(id, speed, accel));
        };
        for (id, tr) in golden.iter() {
            let n = tr.speed.len() as u64;
            let from = rng.below(n / 2 + 1);
            let to = if rng.below(4) == 0 {
                from
            } else {
                n - rng.below(n / 2 + 1)
            };
            let samples = tr.speed.iter().zip(tr.accel.iter_values());
            for ((t, speed), accel) in samples.take(to as usize).skip(from as usize) {
                add(t, id.0, speed, accel);
            }
        }
        if rng.below(3) == 0 {
            let (from, len) = (1 + rng.below(100) as i64, 1 + rng.below(200) as i64);
            for k in from..from + len {
                let speed = rng.uniform_range(0.0, 30.0);
                add(SimTime::from_millis(10 * k), 999, speed, 0.0);
            }
        }
        let mut t = TrafficTrace::new();
        for (time, vehicles) in by_time {
            t.record_step(time, &vehicles);
        }
        t
    }

    /// Compares the bits of every verdict value, then the verdicts.
    fn assert_same(case: u64, what: &str, fold: &Verdict, walk: &Verdict) {
        let bits = |v: &Verdict| {
            (
                v.max_decel_mps2.to_bits(),
                v.max_speed_deviation_mps.to_bits(),
            )
        };
        assert_eq!(
            bits(fold),
            bits(walk),
            "case {case}: {what}: {fold:?} vs {walk:?}"
        );
        assert_eq!(fold, walk, "case {case}: {what}");
    }

    /// The campaign runner's worlds fold their verdict inputs; the public
    /// API's worlds record the trace that `classify` walks. Over random
    /// small scenarios (2–4 platoon cars, up to two background cars, a
    /// hard leader brake in half of them) and attacks in every execution
    /// mode, both must give the same verdict bit for bit: against the
    /// golden run, and against reshaped goldens (see [`reshaped`]).
    #[test]
    fn the_fold_equals_the_trace_walk_bit_for_bit() {
        use crate::attack::{AttackModelKind, FalsifiedField};
        use crate::campaign::{Campaign, ExecutionMode, NullObserver};
        use crate::config::{AttackCampaignSetup, CommModel, ManeuverKind, TrafficScenario};
        use crate::engine::Engine;
        use comfase_traffic::trace::GoldenSpeeds;

        const SEED: u64 = 0xF01D_0021;
        let (mut collided, mut background, mut absent) = (0, 0, 0);
        for case in 0..18u64 {
            let mut rng = RngStream::derive(SEED, StreamId(case));
            let mut scenario = TrafficScenario::paper_default();
            scenario.platoon.members = (1..=2 + rng.below(3) as u32).collect();
            scenario.total_sim_time = SimTime::from_millis(3_000 + 500 * rng.below(4) as i64);
            for i in 0..rng.below(3) {
                let speed = rng.uniform_range(20.0, 30.0);
                scenario
                    .background_vehicles
                    .push((1, 380.0 + 60.0 * i as f64, speed));
            }
            if rng.below(2) == 0 {
                scenario.maneuver = ManeuverKind::Braking {
                    brake_at_s: rng.uniform_range(0.5, 1.5),
                    decel_mps2: 8.0,
                };
            }
            let (model, value) = match rng.below(4) {
                0 => (AttackModelKind::Delay, rng.uniform_range(0.2, 2.0)),
                1 => (AttackModelKind::Dos, 60.0),
                2 => (AttackModelKind::Drop, rng.uniform_range(0.3, 0.9)),
                _ => (
                    AttackModelKind::Falsify(FalsifiedField::Speed),
                    rng.uniform_range(-8.0, 8.0),
                ),
            };
            let setup = AttackCampaignSetup {
                attack_model: model,
                target_vehicles: vec![2],
                attack_values: vec![value],
                attack_starts_s: vec![0.3, rng.uniform_range(0.5, 1.2)],
                attack_durations_s: vec![0.5, rng.uniform_range(0.6, 2.0)],
            };
            let inputs = format!("{scenario:?} {setup:?}");
            let engine = Engine::new(scenario, CommModel::paper_default(), case).unwrap();
            let mode = [
                ExecutionMode::FromScratch,
                ExecutionMode::PrefixFork,
                ExecutionMode::SnapshotDag,
            ][case as usize % 3];
            let campaign = Campaign::new(engine.clone(), setup).unwrap();
            let result = campaign.run_with_observer(1, mode, &NullObserver).unwrap();
            let golden = engine.golden_run().unwrap().trace;
            let other = reshaped(&golden, &mut rng);
            let other_params = ClassificationParams::from_golden(&other);
            let other_speeds = std::sync::Arc::new(GoldenSpeeds::tabulate(&other));
            background += usize::from(!engine.scenario().background_vehicles.is_empty());
            for record in &result.records {
                let what = format!("experiment {} ({mode:?}) of {inputs}", record.index);
                let index = record.index as u64;
                let rerun = engine.run_experiment(&record.spec, index).unwrap().trace;
                let walk = classify(&golden, &rerun, &result.params);
                assert_same(case, &what, &record.verdict, &walk);
                collided += usize::from(walk.nr_collisions > 0);
                // The runner's from-scratch body, against the reshaped golden.
                let mut world = engine.build_world().unwrap();
                world.fold_trace(std::sync::Arc::clone(&other_speeds));
                let world = engine.experiment(world, &record.spec, index).unwrap();
                let traffic = world.traffic();
                let fold = traffic.fold().unwrap();
                let folded =
                    classify_fold(&other, fold, &traffic.trace().collisions, &other_params);
                let walk = classify(&other, &rerun, &other_params);
                assert_same(case, &format!("reshaped golden, {what}"), &folded, &walk);
                absent += usize::from(walk.max_speed_deviation_mps.is_infinite());
            }
        }
        // The cases reach what they are meant to cover.
        assert!(collided > 0, "no experiment collided");
        assert!(background > 0, "no case had background cars");
        assert!(absent > 0, "no golden vehicle was absent from a run");
    }

    #[test]
    fn display_names() {
        assert_eq!(Classification::NonEffective.to_string(), "non-effective");
        assert_eq!(Classification::Severe.to_string(), "severe");
    }

    #[test]
    fn severity_ordering() {
        assert!(Classification::NonEffective < Classification::Negligible);
        assert!(Classification::Negligible < Classification::Benign);
        assert!(Classification::Benign < Classification::Severe);
    }
}
