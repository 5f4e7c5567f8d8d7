use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use comfase_obs::{DatasetCapture, ExperimentMetrics};
use comfase_traffic::trace::GoldenSpeeds;

use super::{Campaign, ExperimentRecord, Sweep};
use crate::attack::AttackSpec;
use crate::classify::classify_fold;
use crate::error::ComfaseError;
use crate::world::World;

/// Category of a terminal experiment failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The experiment panicked; the panic was caught at the
    /// per-experiment isolation boundary.
    Panicked,
    /// The deterministic watchdog tripped: the run exceeded its
    /// configured sim-event or sim-time budget
    /// ([`ComfaseError::BudgetExceeded`]).
    BudgetExceeded,
    /// A release-mode numeric guard detected non-finite simulation state
    /// ([`ComfaseError::NumericDiverged`]).
    NumericDiverged,
    /// A host-side failure — configuration, I/O, or any other engine
    /// error that is not a deterministic property of the simulation.
    HostError,
}
comfase_json::variants!(ToJson, FromJson for FailureKind {
    Panicked, BudgetExceeded, NumericDiverged, HostError,
});

impl FailureKind {
    /// Stable name for summaries and reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::BudgetExceeded => "budget-exceeded",
            FailureKind::NumericDiverged => "numeric-diverged",
            FailureKind::HostError => "host-error",
        }
    }

    fn from_error(e: &ComfaseError) -> FailureKind {
        match e {
            ComfaseError::BudgetExceeded(_) => FailureKind::BudgetExceeded,
            ComfaseError::NumericDiverged(_) => FailureKind::NumericDiverged,
            _ => FailureKind::HostError,
        }
    }
}

/// Structured description of one failed experiment: everything needed to
/// reproduce it in isolation (spec + seed) plus what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentFailure {
    /// Experiment index within the expanded campaign (the paper's `expNr`).
    pub index: usize,
    /// Failure category.
    pub kind: FailureKind,
    /// Human-readable payload: the error display or the panic message.
    pub payload: String,
    /// Engine seed of the campaign (the experiment's attack-model RNG
    /// stream is derived from this seed and `index`).
    pub seed: u64,
    /// The attack spec of the failed experiment.
    pub spec: AttackSpec,
    /// Executions attempted. Always 1: experiments are never retried. The
    /// field stays so journals keep their `failed` entry format.
    pub attempts: u32,
}
comfase_json::record!(ToJson, FromJson for ExperimentFailure {
    index, kind, payload, seed, spec, attempts,
});

/// What the campaign does when an experiment fails terminally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop the whole campaign on the first failure and return its error
    /// (the pre-supervision behaviour, and the default).
    #[default]
    Abort,
    /// Record the failure as an [`ExperimentFailure`], keep the remaining
    /// experiments running, and report all failures in
    /// [`CampaignResult::failures`](super::CampaignResult::failures).
    Quarantine {
        /// Abort anyway once *more than* this many experiments have
        /// failed — a circuit breaker against systematically broken
        /// campaigns. Use [`FailurePolicy::quarantine`] for "unlimited".
        max_failures: usize,
    },
}

impl FailurePolicy {
    /// Quarantine with no failure limit.
    pub fn quarantine() -> FailurePolicy {
        FailurePolicy::Quarantine {
            max_failures: usize::MAX,
        }
    }
}

/// Deterministic failure-injection hooks for robustness testing.
///
/// Chaos hooks fire by experiment index before the experiment simulates
/// anything, so they are exact and thread-count independent. They exist
/// to test the campaign supervisor itself (panic isolation, quarantine,
/// journaling) — production campaigns leave this at `default()`.
/// Host-I/O faults need no hook here: a test puts a failing cache or work
/// source into the [`RunConfig`](super::RunConfig).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Experiments that panic when executed.
    pub panic_on: Vec<usize>,
    /// Experiments that fail with a synthetic deterministic error.
    pub fail_on: Vec<usize>,
}

impl ChaosConfig {
    fn is_active(&self) -> bool {
        !(self.panic_on.is_empty() && self.fail_on.is_empty())
    }
}

impl Campaign {
    /// The per-experiment supervision shared by every unit: runs `run`
    /// once behind a panic boundary, classifies the finished world from its
    /// trace fold, and wraps a failure into an [`ExperimentFailure`].
    // The Err side is deliberately rich (full spec + failure detail for the
    // journal and the quarantine report); it is built at most once per
    // failed experiment, so its size is irrelevant to the hot path.
    #[allow(clippy::result_large_err)]
    pub(super) fn supervise<F>(&self, sweep: &Sweep<'_>, index: usize, run: F) -> ExperimentOutcome
    where
        F: FnOnce() -> Result<World, ComfaseError>,
    {
        let spec = &sweep.specs[index];
        let collect_metrics = self.engine.obs().metrics;
        // The campaign shares no mutable state with the experiment (the
        // engine builds or clones a fresh `World` per run; a chain world is
        // only mutated *between* supervised calls), so observing the closure
        // across the unwind boundary is sound: a caught panic leaves no
        // half-mutated campaign state behind.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let world = run()?;
            let traffic = world.traffic();
            let fold = traffic.fold().expect("campaign worlds fold their trace");
            let collisions = &traffic.trace().collisions;
            let verdict = classify_fold(&sweep.golden.trace, fold, collisions, sweep.params);
            let mut log = world.into_log();
            let row = collect_metrics.then(|| {
                let mut row = log.experiment_metrics(index, verdict.class.to_string());
                // The log holds no samples; the verdict has the fold's value.
                row.max_decel_mps2 = verdict.max_decel_mps2;
                row
            });
            // Move the capture out of the (about-to-be-dropped) log; `None`
            // unless the run recorded with dataset capture on.
            let dataset = log.obs.take_dataset();
            Ok::<_, ComfaseError>((
                ExperimentRecord {
                    index,
                    spec: spec.clone(),
                    verdict,
                },
                row,
                dataset,
            ))
        }));
        let (kind, payload, original) = match attempt {
            Ok(Ok(success)) => return Ok(success),
            Ok(Err(e)) => (FailureKind::from_error(&e), e.to_string(), Some(e)),
            Err(panic) => (FailureKind::Panicked, panic_message(panic.as_ref()), None),
        };
        Err((
            ExperimentFailure {
                index,
                kind,
                payload,
                seed: self.engine.seed(),
                spec: spec.clone(),
                attempts: 1,
            },
            original,
        ))
    }

    /// Executes one [`DagUnit::Chain`]: simulates the shared attack
    /// segment once, forking each leaf mid-attack at its own end time and
    /// running it to completion under the standard supervision. Pushes one
    /// outcome per leaf into the sink as it finishes, and returns `false`
    /// when the campaign must stop.
    ///
    /// Failure semantics mirror solo units exactly:
    ///
    /// - a *fault* (budget breach, numeric divergence) sticks to the chain
    ///   world, so every subsequent leaf forks the stuck world and reports
    ///   the identical error the from-scratch run would;
    /// - a *panic* while advancing the chain poisons it: each remaining
    ///   leaf re-raises the panic message under its own supervision (after
    ///   its chaos hook, which fires first in every mode), producing the
    ///   same per-leaf `Panicked` failures as the other modes.
    pub(super) fn run_chain(&self, sweep: &Sweep<'_>, leaves: &[usize]) -> bool {
        let first_spec = &sweep.specs[leaves[0]];
        debug_assert!(first_spec.model.seed_invariant());
        let prefix = sweep.prefix(first_spec.start);
        let budget = self.engine.budget();
        // Seed-invariant models ignore the interceptor seed, so one
        // interceptor serves every leaf of the chain.
        let seed = self.engine.seed() ^ leaves[0] as u64;
        let advanced = catch_unwind(AssertUnwindSafe(|| {
            let mut world = prefix.clone();
            world.set_budget(budget);
            world.run_until(first_spec.start);
            world.install_attack(first_spec.build_interceptor(seed));
            world
        }));
        let (mut chain, mut poison): (Option<World>, Option<String>) = match advanced {
            Ok(world) => (Some(world), None),
            Err(panic) => (None, Some(panic_message(panic.as_ref()))),
        };
        for &leaf in leaves {
            if sweep.sink.should_stop() {
                return false;
            }
            let spec = &sweep.specs[leaf];
            // Advance the shared attack segment to this leaf's end (a
            // no-op for duplicate ends and for faulted worlds).
            let advance_panic = match chain.as_mut() {
                Some(world) => {
                    let end = spec.end.min(world.total_time());
                    catch_unwind(AssertUnwindSafe(|| world.run_until(end)))
                        .err()
                        .map(|panic| panic_message(panic.as_ref()))
                }
                None => None,
            };
            if let Some(msg) = advance_panic {
                chain = None;
                poison = Some(msg);
            }
            let outcome = self.supervise(sweep, leaf, || {
                if self.chaos.is_active() {
                    self.chaos_hook(leaf)?;
                }
                if let Some(msg) = &poison {
                    // Reproduce the chain-advance panic under this leaf's
                    // own supervision — the leaf would have hit it during
                    // its own attack window in the other modes.
                    panic!("{msg}");
                }
                let world = chain.as_mut().expect("unpoisoned chain has a world");
                let mut leaf_world = world.fork_post_attack();
                leaf_world.clear_attack();
                leaf_world.run_to_end();
                if let Some(fault) = leaf_world.fault() {
                    return Err(fault.to_error());
                }
                Ok(leaf_world)
            });
            if !sweep.sink.push(outcome) {
                return false;
            }
        }
        true
    }

    /// Runs one experiment, forking from its prefix snapshot when the
    /// mode built one and simulating from t = 0 otherwise.
    pub(super) fn execute_one(
        &self,
        sweep: &Sweep<'_>,
        index: usize,
    ) -> Result<World, ComfaseError> {
        if self.chaos.is_active() {
            self.chaos_hook(index)?;
        }
        let spec = &sweep.specs[index];
        let world = if sweep.prefixes.is_empty() {
            self.folding_world(sweep.golden_speeds)?
        } else {
            sweep.prefix(spec.start).clone()
        };
        self.engine.experiment(world, spec, index as u64)
    }

    /// A fresh world of this campaign's engine that folds its trace against
    /// `golden` instead of recording it. Prefix snapshots start from one, so
    /// forks, chain worlds and leaves inherit the fold.
    pub(super) fn folding_world(&self, golden: &Arc<GoldenSpeeds>) -> Result<World, ComfaseError> {
        let mut world = self.engine.build_world()?;
        world.fold_trace(Arc::clone(golden));
        Ok(world)
    }

    /// Applies the [`ChaosConfig`] failure injections for `index`.
    fn chaos_hook(&self, index: usize) -> Result<(), ComfaseError> {
        if self.chaos.panic_on.contains(&index) {
            panic!("chaos: injected panic at experiment {index}");
        }
        if self.chaos.fail_on.contains(&index) {
            return Err(ComfaseError::InvalidConfig(format!(
                "injected failure at experiment {index}"
            )));
        }
        Ok(())
    }
}

/// Outcome of one supervised experiment: the classified record (plus its
/// metrics row when collected and its dataset capture when recorded), or
/// the structured failure alongside the original error (absent for
/// panics).
pub(super) type ExperimentOutcome = Result<
    (
        ExperimentRecord,
        Option<ExperimentMetrics>,
        Option<DatasetCapture>,
    ),
    (ExperimentFailure, Option<ComfaseError>),
>;

/// Best-effort extraction of a panic payload's message.
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}
