//! The ComFASE execution flow (paper Algo. 1).
//!
//! [`Engine`] owns a validated test configuration (Step 1) and provides:
//!
//! - [`Engine::golden_run`] — Step 2, the attack-free reference run;
//! - [`Engine::run_experiment`] — one Step-3 experiment: simulate until
//!   `attackStartTime` with the configured communication model, install
//!   the updated model (`CommModelEditor`), simulate until
//!   `attackEndTime`, restore the model, simulate to `totalSimTime`;
//! - [`Engine::classify_experiment`] — Step 4 for a single run.
//!
//! Campaign iteration (the three nested loops) lives in [`crate::campaign`].

use comfase_des::sim::EventBudget;
use comfase_des::time::SimTime;
use comfase_obs::ObsConfig;

use crate::attack::AttackSpec;
use crate::classify::{classify, ClassificationParams, Verdict};
use crate::config::{AttackCampaignSetup, CommModel, TrafficScenario};
use crate::error::ComfaseError;
use crate::log::RunLog;
use crate::world::{IndexingMode, World};

/// The ComFASE engine for one test configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    scenario: TrafficScenario,
    comm: CommModel,
    seed: u64,
    obs: ObsConfig,
    budget: EventBudget,
    indexing: IndexingMode,
}

impl Engine {
    /// Creates an engine after validating the configuration (Step 1).
    ///
    /// # Errors
    ///
    /// Fails if the scenario or communication model is invalid.
    pub fn new(
        scenario: TrafficScenario,
        comm: CommModel,
        seed: u64,
    ) -> Result<Self, ComfaseError> {
        scenario.validate()?;
        comm.validate()?;
        Ok(Engine {
            scenario,
            comm,
            seed,
            obs: ObsConfig::disabled(),
            budget: EventBudget::UNLIMITED,
            indexing: IndexingMode::default(),
        })
    }

    /// Selects the execution substrate (spatial indexes vs brute-force
    /// reference scans) for every world this engine builds. Runs are
    /// bit-identical in both modes.
    #[must_use]
    pub fn with_indexing(mut self, indexing: IndexingMode) -> Self {
        self.indexing = indexing;
        self
    }

    /// The configured execution substrate.
    pub fn indexing(&self) -> IndexingMode {
        self.indexing
    }

    /// Builds a world with this engine's telemetry and indexing settings.
    pub(crate) fn build_world(&self) -> Result<World, ComfaseError> {
        let mut world = World::with_obs(&self.scenario, &self.comm, self.seed, self.obs)?;
        world.set_indexing(self.indexing);
        Ok(world)
    }

    /// Installs a sim-event / sim-time budget on every *experiment* run
    /// this engine executes (the deterministic watchdog). Golden runs and
    /// prefix snapshots are exempt: they are the references experiments are
    /// measured against and must complete.
    ///
    /// The event counter covers the whole run from t = 0 (it is part of
    /// the snapshot state), so forked and from-scratch experiments breach
    /// on the identical event. For mode-identical failure records the
    /// budget must exceed the attack-free prefix cost — a budget that a
    /// healthy prefix already exhausts would breach during different
    /// phases in the two modes.
    #[must_use]
    pub fn with_budget(mut self, budget: EventBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The experiment budget.
    pub fn budget(&self) -> EventBudget {
        self.budget
    }

    /// Enables telemetry for every world this engine builds. All recorded
    /// values are sim-derived, so runs stay bit-identical across execution
    /// modes and thread counts.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// The telemetry configuration.
    pub fn obs(&self) -> ObsConfig {
        self.obs
    }

    /// An engine for the paper's demonstration setup (§IV-A).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in presets; the `Result` mirrors
    /// [`Engine::new`].
    pub fn paper_default(seed: u64) -> Result<Self, ComfaseError> {
        Engine::new(
            TrafficScenario::paper_default(),
            CommModel::paper_default(),
            seed,
        )
    }

    /// The configured scenario.
    pub fn scenario(&self) -> &TrafficScenario {
        &self.scenario
    }

    /// The configured communication model.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    /// The base RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Step 2: the golden (attack-free) run.
    ///
    /// # Errors
    ///
    /// Propagates world-construction failures.
    pub fn golden_run(&self) -> Result<RunLog, ComfaseError> {
        let mut world = self.build_world()?;
        world.run_to_end();
        Ok(world.into_log())
    }

    /// Step 3, one experiment: three-phase simulation with the updated
    /// communication model active in `[attack.start, attack.end)`.
    ///
    /// `experiment_index` decorrelates the RNG streams of independent
    /// experiments (seed = campaign seed; the *simulation* is deterministic
    /// for a given seed regardless of the index, matching the golden run,
    /// so differences come from the attack alone — the index only seeds
    /// probabilistic attack models).
    ///
    /// # Errors
    ///
    /// Propagates world-construction failures; returns
    /// [`ComfaseError::BudgetExceeded`] / [`ComfaseError::NumericDiverged`]
    /// when the run faults (a faulted world stops executing, so the
    /// three-phase sequence below is safe without special-casing).
    pub fn run_experiment(
        &self,
        attack: &AttackSpec,
        experiment_index: u64,
    ) -> Result<RunLog, ComfaseError> {
        let world = self.build_world()?;
        self.experiment(world, attack, experiment_index)
            .map(World::into_log)
    }

    /// The three phases of one experiment on `world`, which is at t = 0 or
    /// at an attack-free point no later than `attack.start`; returns the
    /// finished world. [`Engine::run_experiment`] and the campaign runner
    /// share it.
    pub(crate) fn experiment(
        &self,
        mut world: World,
        attack: &AttackSpec,
        experiment_index: u64,
    ) -> Result<World, ComfaseError> {
        world.set_budget(self.budget);
        // Line 12: simulate with the pristine model until the attack starts.
        world.run_until(attack.start);
        // Line 11 + 13: install the updated communication model, simulate
        // until the attack ends.
        world.install_attack(attack.build_interceptor(self.seed ^ experiment_index));
        world.run_until(attack.end.min(world.total_time()));
        // Line 14: restore and run to the end.
        world.clear_attack();
        world.run_to_end();
        match world.fault() {
            Some(fault) => Err(fault.to_error()),
            None => Ok(world),
        }
    }

    /// Builds one attack-free prefix snapshot per entry of `starts`
    /// (ascending, deduplicated) by advancing a *single* world through the
    /// sorted start times and snapshotting at each — the level-1 chain of
    /// the snapshot DAG. Splitting `run_until` at the snapshot points is
    /// event-exact, so `result[i]` is bit-identical to a world simulated
    /// from t = 0 to `starts[i]` alone, at the cost of one pass over
    /// `[0, starts.last()]` instead of one pass per start.
    ///
    /// # Errors
    ///
    /// Propagates world-construction failures.
    pub fn prefix_snapshots_chained(&self, starts: &[SimTime]) -> Result<Vec<World>, ComfaseError> {
        Ok(Engine::snapshots(self.build_world()?, starts))
    }

    /// Advances `world` through `starts` (ascending, deduplicated) and
    /// snapshots it at each: the body of
    /// [`Engine::prefix_snapshots_chained`], which the campaign runner
    /// shares.
    pub(crate) fn snapshots(mut world: World, starts: &[SimTime]) -> Vec<World> {
        debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        let mut snapshots = Vec::with_capacity(starts.len());
        for &start in starts {
            world.run_until(start);
            snapshots.push(world.clone());
        }
        snapshots
    }

    /// Step 4 for one experiment: classify against a golden run.
    pub fn classify_experiment(&self, golden: &RunLog, run: &RunLog) -> Verdict {
        let params = ClassificationParams::from_golden(&golden.trace);
        classify(&golden.trace, &run.trace, &params)
    }

    /// Expands a campaign setup into the concrete experiment list, in the
    /// paper's nested-loop order (start → value → end; Algo. 1 lines 8-10).
    ///
    /// # Errors
    ///
    /// Fails if the setup is inconsistent with the scenario.
    pub fn expand_campaign(
        &self,
        setup: &AttackCampaignSetup,
    ) -> Result<Vec<AttackSpec>, ComfaseError> {
        setup.validate(&self.scenario)?;
        let total = self.scenario.total_sim_time;
        // One shared allocation for all specs instead of a Vec clone each.
        let targets: std::sync::Arc<[u32]> = setup.target_vehicles.as_slice().into();
        let mut specs = Vec::with_capacity(setup.nr_experiments());
        for &start_s in &setup.attack_starts_s {
            for &value in &setup.attack_values {
                for &duration_s in &setup.attack_durations_s {
                    let start = SimTime::from_secs_f64(start_s);
                    let end = if duration_s.is_finite() {
                        start + comfase_des::time::SimDuration::from_secs_f64(duration_s)
                    } else {
                        total
                    };
                    specs.push(AttackSpec {
                        model: setup.attack_model,
                        value,
                        targets: targets.clone(),
                        start,
                        end: end.min(total),
                    });
                }
            }
        }
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackModelKind;
    use crate::classify::Classification;
    use comfase_des::time::SimDuration;

    fn quick_engine() -> Engine {
        // Shorter horizon for test speed.
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(30);
        Engine::new(scenario, CommModel::paper_default(), 7).unwrap()
    }

    #[test]
    fn golden_run_is_collision_free_and_calibrated() {
        let golden = quick_engine().golden_run().unwrap();
        assert!(!golden.has_collision(), "golden run must not collide");
        let max_decel = golden.max_decel();
        assert!(
            (0.8..=2.5).contains(&max_decel),
            "golden max decel {max_decel} should be near the paper's 1.53"
        );
    }

    #[test]
    fn golden_runs_are_reproducible() {
        let e = quick_engine();
        let a = e.golden_run().unwrap();
        let b = e.golden_run().unwrap();
        assert_eq!(a.max_decel(), b.max_decel());
        assert_eq!(a.channel, b.channel);
    }

    #[test]
    fn dos_attack_causes_severe_outcome() {
        let e = quick_engine();
        let golden = e.golden_run().unwrap();
        let attack = AttackSpec {
            model: AttackModelKind::Dos,
            value: 60.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(30),
        };
        let run = e.run_experiment(&attack, 0).unwrap();
        let verdict = e.classify_experiment(&golden, &run);
        assert_eq!(verdict.class, Classification::Severe, "verdict {verdict:?}");
    }

    #[test]
    fn experiment_without_attack_effect_stays_non_effective() {
        // A delay attack with the default-equal value (0 s PD is below any
        // real propagation delay, but targeting a vehicle not in the
        // platoon is rejected, so use an attack window of zero length).
        let e = quick_engine();
        let golden = e.golden_run().unwrap();
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 1.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(17), // empty window
        };
        let run = e.run_experiment(&attack, 0).unwrap();
        let verdict = e.classify_experiment(&golden, &run);
        assert_eq!(
            verdict.class,
            Classification::NonEffective,
            "verdict {verdict:?}"
        );
    }

    #[test]
    fn forked_experiment_is_bit_identical_to_from_scratch() {
        let e = quick_engine();
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 2.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(22),
        };
        let scratch = e.run_experiment(&attack, 3).unwrap();
        let prefix = e
            .prefix_snapshots_chained(&[attack.start])
            .unwrap()
            .remove(0);
        let fork = || {
            e.experiment(prefix.clone(), &attack, 3)
                .map(World::into_log)
                .unwrap()
        };
        let forked = fork();
        assert_eq!(
            scratch, forked,
            "fork-resumed run must equal the from-scratch run"
        );
        // The prefix is reusable: forking again gives the same log.
        assert_eq!(forked, fork());
    }

    #[test]
    fn indexed_and_brute_force_runs_are_bit_identical() {
        let e = quick_engine();
        let brute = e.clone().with_indexing(IndexingMode::BruteForce);
        assert_eq!(e.indexing(), IndexingMode::Indexed, "indexed is default");
        let golden_idx = e.golden_run().unwrap();
        let golden_brute = brute.golden_run().unwrap();
        assert_eq!(
            golden_idx, golden_brute,
            "golden runs must agree bit for bit"
        );
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 2.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(22),
        };
        let run_idx = e.run_experiment(&attack, 3).unwrap();
        let run_brute = brute.run_experiment(&attack, 3).unwrap();
        assert_eq!(run_idx, run_brute, "experiments must agree bit for bit");
    }

    #[test]
    fn expand_campaign_matches_nested_loop_order() {
        let e = quick_engine();
        let setup = AttackCampaignSetup {
            attack_model: AttackModelKind::Delay,
            target_vehicles: vec![2],
            attack_values: vec![0.2, 0.4],
            attack_starts_s: vec![17.0, 18.0],
            attack_durations_s: vec![1.0],
        };
        let specs = e.expand_campaign(&setup).unwrap();
        assert_eq!(specs.len(), 4);
        // Outer loop: start; middle: value.
        assert_eq!(specs[0].start, SimTime::from_secs(17));
        assert_eq!(specs[0].value, 0.2);
        assert_eq!(specs[1].value, 0.4);
        assert_eq!(specs[2].start, SimTime::from_secs(18));
        assert_eq!(specs[0].end, SimTime::from_secs(18));
    }

    #[test]
    fn expand_clamps_to_total_time() {
        let e = quick_engine();
        let setup = AttackCampaignSetup {
            attack_model: AttackModelKind::Dos,
            target_vehicles: vec![2],
            attack_values: vec![60.0],
            attack_starts_s: vec![17.0],
            attack_durations_s: vec![f64::INFINITY],
        };
        let specs = e.expand_campaign(&setup).unwrap();
        assert_eq!(specs[0].end, SimTime::from_secs(30));
    }

    #[test]
    fn delay_experiment_duration_sanity() {
        let e = quick_engine();
        let attack = AttackSpec {
            model: AttackModelKind::Delay,
            value: 2.0,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(22),
        };
        assert_eq!(attack.duration(), SimDuration::from_secs(5));
        let run = e.run_experiment(&attack, 3).unwrap();
        assert_eq!(run.final_time, SimTime::from_secs(30));
        assert!(
            run.channel.links_delay_modified > 0,
            "attack must have touched links"
        );
    }
}
