// comfase-lint: host-region(reason = "campaign *runner*: worker threads, watchdog clocks, scoped threads and result mailboxes are host-side supervision; the simulated Worlds it drives live in the sim crates and every merged metric is ordered by experiment index, never by thread timing")

//! Attack injection campaigns — Step 3 of the execution flow, batched.
//!
//! A [`Campaign`] expands its setup into the nested-loop experiment list
//! (Algo. 1 lines 8–15), runs the golden run once, executes every
//! experiment (optionally across worker threads — experiments are fully
//! independent simulations) and classifies each against the golden run
//! (Step 4). The paper ran its 11 250 delay experiments in about 7 hours
//! on an 8-core machine; the pure-Rust stack finishes them in minutes.
//!
//! # One plan loop, three modes
//!
//! Every experiment sharing an `attackStartTime` simulates an *identical*
//! attack-free prefix `[0, start)` — in the paper's delay campaign that is
//! 450 experiments per start time. Experiments with the same `(start,
//! model, value, targets)` — in the paper's grids, one per attack
//! *duration* — also simulate an identical **attack segment** `[start,
//! end)` when the model is seed-invariant
//! ([`crate::attack::AttackModelKind::seed_invariant`]), because their
//! interceptors are identical.
//!
//! Every [`ExecutionMode`] runs the same loop: a [`DagPlan`] lists the
//! schedulable units, and worker threads claim them one at a time. The
//! mode decides only two things:
//!
//! - whether one attack-free prefix snapshot per distinct start time is
//!   built, incrementally along a single world
//!   ([`Engine::prefix_snapshots_chained`]), so that each experiment forks
//!   from its snapshot instead of re-simulating from t = 0 — every mode
//!   except [`ExecutionMode::FromScratch`];
//! - whether the planner forms *chains* — [`ExecutionMode::SnapshotDag`]
//!   only. A chain advances one attacked world through its leaves' end
//!   times in ascending order, forking a leaf mid-attack at every stop
//!   ([`World::fork_post_attack`]).
//!
//! Every leaf still clears the attack and simulates its own tail, so
//! results — including faults and the `metrics.json` artifact — are
//! byte-identical across the modes at any worker-thread count; the
//! engine's tests and the `tests` crate assert this end to end.
//! Seed-*dependent* models (probabilistic drop) are never chained; their
//! experiments stay solo prefix forks within the same plan.
//!
//! # Fault tolerance
//!
//! A fault-injection campaign deliberately drives the simulated system
//! into abnormal regimes, so individual experiments may fail: diverge
//! numerically, exceed their event budget, or panic outright.
//! [`Campaign::run`] isolates each experiment behind a panic boundary,
//! classifies every failure into a structured [`ExperimentFailure`], and
//! — under [`FailurePolicy::Quarantine`] — completes the campaign with
//! the surviving records plus a failure summary instead of discarding
//! hours of work on the first bad experiment. Each experiment runs exactly
//! once: every failure it can produce (budget, divergence, panic, invalid
//! configuration) is a deterministic property of the simulation, so a
//! second attempt would fail the same way.
//!
//! With a journal path configured, every finished experiment is
//! checkpointed to an append-only fsync'd journal
//! ([`crate::journal`]) and a killed campaign can be resumed
//! ([`RunConfig::resume`]), reproducing the uninterrupted run's metrics
//! byte-for-byte.
//!
//! # Distribution
//!
//! A claim-driven run ([`RunConfig::work`]) runs the same plan loop once
//! per claimed [`WorkUnit`], renewing the unit's lease between plan
//! units. The claim ledger in `comfase-dist` is the only multi-process
//! path: its workers' journals merge into one artifact, byte-identical to
//! a single-process run.
//!
//! # Layout
//!
//! `campaign.rs` is the runner: [`Campaign`] and [`Campaign::run`],
//! [`RunConfig`], the [`WorkSource`] seam, the observer hooks, the result
//! types and the sink (journal, cache, dataset export). `campaign/plan.rs`
//! holds [`ExecutionMode`], [`WorkUnit`], [`DagPlan`] and [`CampaignStats`];
//! `campaign/supervise.rs` the per-experiment panic boundary with the solo
//! and chain paths, the failure types and [`ChaosConfig`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use comfase_des::sim::EventBudget;
use comfase_des::time::SimTime;
use comfase_obs::{
    CampaignMetrics, DatasetHeader, DatasetSink, ExperimentExport, ExperimentLabel,
    ExperimentMetrics, ObsConfig, WallDeadline, DATASET_SCHEMA_VERSION,
};
use comfase_traffic::trace::GoldenSpeeds;

use crate::attack::AttackSpec;
use crate::cache::{self, CacheEntry, CacheKeyBase, CacheLookup, ExperimentCache};
use crate::classify::{ClassificationParams, Verdict};
use crate::config::AttackCampaignSetup;
use crate::engine::Engine;
use crate::error::ComfaseError;
use crate::fingerprint;
use crate::journal::{read_journal, JournalEntry, JournalWriter, JOURNAL_SCHEMA_VERSION};
use crate::log::RunLog;
use crate::world::World;

mod plan;
mod supervise;

pub use plan::{plan_units, CampaignStats, DagPlan, DagUnit, ExecutionMode, WorkUnit};
use supervise::{panic_message, ExperimentOutcome};
pub use supervise::{ChaosConfig, ExperimentFailure, FailureKind, FailurePolicy};

/// Whether a worker still holds the lease on its current work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// The lease was renewed; keep executing the unit.
    Held,
    /// Another worker took the lease (or it vanished). The deposed worker
    /// abandons the rest of the unit — whoever stole it re-executes the
    /// whole unit, and double-executed experiments are safe because the
    /// journal merger accepts only bit-equal duplicates.
    Lost,
}

/// Where a claim-driven campaign run gets its work.
///
/// When [`RunConfig::work`] is set, every worker thread loops: claim a
/// [`WorkUnit`], plan and run the unit's still-pending experiments
/// through the same plan loop as an in-process run, renew the claim
/// between plan units, and mark the unit complete. The source decides
/// *which* units this process runs — `comfase-dist` implements it as a
/// shared-filesystem lease ledger with work stealing — while everything
/// about *how* an experiment runs (modes, chaos, journaling, caching)
/// stays identical to in-process execution.
///
/// Implementations must be safe to call concurrently from many worker
/// threads of one process, and from many processes sharing the
/// underlying ledger.
pub trait WorkSource: Send + Sync + std::fmt::Debug {
    /// Claims the next unit for a worker thread. Returns `Ok(None)` when
    /// the campaign has no work left for this process — every unit is
    /// complete (possibly finished by other processes).
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] when the underlying ledger fails
    /// persistently; the campaign aborts with the error.
    fn claim(&self) -> Result<Option<WorkUnit>, ComfaseError>;

    /// Renews the claim on `unit` between plan units (the monotonic
    /// heartbeat). [`LeaseState::Lost`] — or an error, which the runner
    /// treats the same way — abandons the rest of the unit; the work
    /// already journaled stays journaled, and the unit's new owner
    /// re-executes it idempotently.
    fn renew(&self, unit: &WorkUnit) -> Result<LeaseState, ComfaseError>;

    /// Marks `unit` complete: every experiment it covers is journaled
    /// (completed or, under quarantine, recorded as failed).
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`]; the campaign aborts — a unit that cannot be
    /// marked complete would be stolen and pointlessly re-executed
    /// forever.
    fn complete(&self, unit: &WorkUnit) -> Result<(), ComfaseError>;
}

/// The coarse phases of a campaign run, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Step 2: the attack-free reference run.
    Golden,
    /// Prefix snapshots, one per distinct attack start time. Its events
    /// fire in every mode; under [`ExecutionMode::FromScratch`] the phase
    /// builds nothing.
    Prefixes,
    /// Step 3 + 4: the experiment sweep.
    Experiments,
}

impl CampaignPhase {
    /// Stable phase name for profiles and progress lines.
    pub fn name(self) -> &'static str {
        match self {
            CampaignPhase::Golden => "golden",
            CampaignPhase::Prefixes => "prefixes",
            CampaignPhase::Experiments => "experiments",
        }
    }
}

/// Host-side hooks into a campaign run — phase boundaries and experiment
/// completions. Implementations may read wall clocks; nothing they observe
/// flows back into simulation state, so determinism of the run itself is
/// unaffected.
pub trait CampaignObserver: Sync {
    /// A phase is about to start.
    fn phase_started(&self, phase: CampaignPhase) {
        let _ = phase;
    }

    /// A phase completed.
    fn phase_finished(&self, phase: CampaignPhase) {
        let _ = phase;
    }

    /// An experiment finished (`done` of `total`). Called from worker
    /// threads, possibly concurrently.
    fn experiment_done(&self, done: usize, total: usize) {
        let _ = (done, total);
    }

    /// An experiment failed. Under [`FailurePolicy::Quarantine`] the
    /// campaign continues past this call; under [`FailurePolicy::Abort`] it
    /// is about to stop. Called from worker threads, possibly concurrently.
    fn experiment_failed(&self, failure: &ExperimentFailure) {
        let _ = failure;
    }
}

/// Observer that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

/// Full configuration of a campaign run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Execution mode ([`ExecutionMode::SnapshotDag`] by default).
    pub mode: ExecutionMode,
    /// What to do when an experiment fails.
    pub failure_policy: FailurePolicy,
    /// Checkpoint journal path. When set, every finished experiment is
    /// appended (fsync'd) to this file; see [`crate::journal`].
    pub journal: Option<PathBuf>,
    /// Resume from the journal at [`RunConfig::journal`]: experiments it
    /// records as completed are skipped (their journaled records and
    /// metrics are merged into the result); failed and missing ones are
    /// (re-)run. Requires `journal` to be set; a missing journal file is
    /// treated as a fresh run.
    pub resume: bool,
    /// Optional host wall-clock deadline in seconds. When it expires,
    /// workers stop claiming new experiments and the campaign returns
    /// [`ComfaseError::BudgetExceeded`]; with a journal configured, the
    /// finished experiments are checkpointed and the campaign can be
    /// resumed. Host-side and therefore *not* deterministic — the
    /// sim-side [`comfase_des::EventBudget`] is the reproducible
    /// watchdog.
    pub wall_deadline_s: Option<f64>,
    /// Content-addressed result cache. Experiments (and the golden run)
    /// whose key is already stored return their journaled rows without
    /// simulating; fresh results are stored on completion. With a
    /// [`RunConfig::dataset`] sink, only the golden run is looked up. See
    /// [`crate::cache`].
    pub cache: Option<Arc<dyn ExperimentCache>>,
    /// Dynamic work source for claim-driven execution (see
    /// [`WorkSource`]). Normally paired with [`RunConfig::journal`]: the
    /// journals of the participating workers are the artifact a
    /// claim-driven campaign produces. Without one, the in-process result
    /// covers only the units this process ran.
    pub work: Option<Arc<dyn WorkSource>>,
    /// Streaming dataset export: every finished experiment's labeled
    /// capture is rendered and handed to this sink *before* its journal
    /// row is appended (so a resumed campaign never has a journaled row
    /// without its shard). Requires the engine's
    /// [`ObsConfig::dataset`](comfase_obs::ObsConfig) capture flag —
    /// without it there would be nothing to export. Cache entries hold no
    /// capture, so a dataset run simulates every pending experiment; it
    /// still stores verdict-only entries when a cache is configured.
    pub dataset: Option<Arc<dyn DatasetSink>>,
}

/// Result of one attack injection experiment (one `AttackCampaignLog`
/// entry, classified).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// The paper's `expNr`.
    pub index: usize,
    /// The injected attack.
    pub spec: AttackSpec,
    /// The Step-4 classification.
    pub verdict: Verdict,
}
comfase_json::record!(ToJson, FromJson for ExperimentRecord { index, spec, verdict });

/// Result of a full campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One record per experiment, in `expNr` order. Under
    /// [`FailurePolicy::Quarantine`], failed experiments have no record
    /// here — they appear in [`CampaignResult::failures`] instead.
    pub records: Vec<ExperimentRecord>,
    /// Classification parameters derived from the golden run.
    pub params: ClassificationParams,
    /// The golden run log.
    pub golden: RunLog,
    /// Execution counters (snapshot reuse).
    pub stats: CampaignStats,
    /// The `metrics.json` artifact, when the engine ran with telemetry
    /// enabled ([`Engine::with_obs`]). Sim-derived only: byte-identical
    /// across execution modes and thread counts.
    pub metrics: Option<CampaignMetrics>,
    /// Quarantined experiment failures, in `expNr` order. Empty when
    /// every experiment succeeded (or under [`FailurePolicy::Abort`],
    /// which returns the first error instead of a result).
    pub failures: Vec<ExperimentFailure>,
}

impl CampaignResult {
    /// Number of successfully completed experiments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the campaign ran no experiments.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Failure counts by [`FailureKind`] name — the campaign's failure
    /// summary (empty map when nothing failed).
    pub fn failure_summary(&self) -> BTreeMap<&'static str, usize> {
        let mut summary = BTreeMap::new();
        for f in &self.failures {
            *summary.entry(f.kind.name()).or_insert(0) += 1;
        }
        summary
    }
}

/// A configured attack injection campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    engine: Engine,
    setup: AttackCampaignSetup,
    chaos: ChaosConfig,
}

impl Campaign {
    /// Creates a campaign after validating the setup against the engine's
    /// scenario.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent configuration (unknown targets, empty
    /// vectors, out-of-range times).
    pub fn new(engine: Engine, setup: AttackCampaignSetup) -> Result<Self, ComfaseError> {
        setup.validate(engine.scenario())?;
        Ok(Campaign {
            engine,
            setup,
            chaos: ChaosConfig::default(),
        })
    }

    /// Enables telemetry on the underlying engine, so every run contributes
    /// to the campaign's `metrics.json` artifact.
    #[must_use]
    pub fn with_obs(mut self, cfg: ObsConfig) -> Self {
        self.engine = self.engine.with_obs(cfg);
        self
    }

    /// Selects the hot-path execution substrate (spatial indexes vs
    /// brute-force scans) for every world the campaign builds. Results are
    /// bit-identical either way; see [`crate::world::IndexingMode`].
    #[must_use]
    pub fn with_indexing(mut self, mode: crate::world::IndexingMode) -> Self {
        self.engine = self.engine.with_indexing(mode);
        self
    }

    /// Installs deterministic failure-injection hooks (robustness
    /// testing; see [`ChaosConfig`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Installs a per-experiment event budget on the underlying engine —
    /// the deterministic, sim-side watchdog. A run that exceeds it fails
    /// with [`FailureKind::BudgetExceeded`], identically on every thread
    /// count and execution mode.
    #[must_use]
    pub fn with_budget(mut self, budget: EventBudget) -> Self {
        self.engine = self.engine.with_budget(budget);
        self
    }

    /// The campaign setup.
    pub fn setup(&self) -> &AttackCampaignSetup {
        &self.setup
    }

    /// The engine (scenario + communication model).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of experiments this campaign will run.
    pub fn nr_experiments(&self) -> usize {
        self.setup.nr_experiments()
    }

    /// The canonical fingerprint of this campaign's full configuration —
    /// seed, traffic scenario, communication model, attack setup, event
    /// budget and telemetry config (see [`crate::fingerprint`]). Folded
    /// into journal headers and claim ledgers so artifacts from a
    /// different configuration refuse to resume or merge.
    ///
    /// # Errors
    ///
    /// None: canonical JSON encoding cannot fail.
    pub fn fingerprint(&self) -> Result<u64, ComfaseError> {
        Ok(fingerprint::campaign_fingerprint(
            self.engine.seed(),
            self.engine.scenario(),
            self.engine.comm(),
            &self.setup,
            self.engine.budget(),
            self.engine.obs(),
        ))
    }

    /// Runs the campaign in `mode` with otherwise default configuration —
    /// shorthand for [`Campaign::run`].
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`].
    pub fn run_with_observer(
        &self,
        threads: usize,
        mode: ExecutionMode,
        observer: &dyn CampaignObserver,
    ) -> Result<CampaignResult, ComfaseError> {
        self.run(
            threads,
            &RunConfig {
                mode,
                ..RunConfig::default()
            },
            observer,
        )
    }

    /// Runs the campaign on `threads` worker threads under full
    /// supervision: per-experiment panic isolation, failure
    /// classification, the configured failure policy, host-side observer
    /// hooks (phase boundaries, experiment completions — e.g. a phase
    /// timer or a progress reporter) and — when
    /// [`RunConfig::journal`] is set — checkpointing to an append-only
    /// journal, or resuming from it.
    ///
    /// # Errors
    ///
    /// Under [`FailurePolicy::Abort`], the first experiment failure;
    /// under [`FailurePolicy::Quarantine`], only campaign-level errors
    /// (configuration, golden-run or prefix failures, journal I/O, the
    /// quarantine circuit breaker, an expired wall deadline). On resume,
    /// also a journal that is unreadable, corrupt, or written by a
    /// different campaign. `threads == 0` is
    /// [`ComfaseError::InvalidConfig`].
    pub fn run(
        &self,
        threads: usize,
        config: &RunConfig,
        observer: &dyn CampaignObserver,
    ) -> Result<CampaignResult, ComfaseError> {
        if threads == 0 {
            return Err(ComfaseError::InvalidConfig(
                "at least one worker thread required".into(),
            ));
        }
        if config.dataset.is_some() && !self.engine.obs().dataset {
            return Err(ComfaseError::InvalidConfig(
                "dataset export requires dataset capture: build the engine \
                 with ObsConfig::with_dataset() so runs record the rows the \
                 sink is supposed to receive"
                    .into(),
            ));
        }
        let collect_metrics = self.engine.obs().metrics;
        let specs = self.engine.expand_campaign(&self.setup)?;
        let total = specs.len();

        // Canonical fingerprint — needed only when a journal records it, a
        // cache keys off the configuration, or a dataset header stamps it;
        // plain runs skip the serialization entirely.
        let fingerprint =
            if config.journal.is_some() || config.cache.is_some() || config.dataset.is_some() {
                self.fingerprint()?
            } else {
                0
            };
        // Campaign identity stamped into every exported shard's header.
        let dataset_header = DatasetHeader {
            dataset_schema_version: DATASET_SCHEMA_VERSION,
            fingerprint,
            seed: self.engine.seed(),
            total,
        };

        // Resume: start from the journal's completed entries, after
        // checking that it belongs to this campaign and that every entry
        // agrees with the index it is journaled under.
        let mut completed = BTreeMap::new();
        if config.resume {
            let path = config.journal.as_deref().ok_or_else(|| {
                ComfaseError::InvalidConfig("resume requires a journal path".into())
            })?;
            if path.exists() {
                let state = read_journal(path)?;
                state.check_identity(self.engine.seed(), total, &self.setup, fingerprint)?;
                state.check_entries(total, Some(&specs))?;
                completed = state.completed;
            }
        }

        // Content-addressed cache: the key components constant across this
        // campaign's experiments.
        let key_base = config.cache.as_ref().map(|_| CacheKeyBase {
            seed: self.engine.seed(),
            config_hash: cache::config_hash(
                self.engine.scenario(),
                self.engine.comm(),
                self.engine.budget(),
                self.engine.obs(),
            ),
        });

        let mut cache_hits: usize = 0;
        let mut cache_misses: usize = 0;
        let mut cache_stale: usize = 0;

        // Step 2: golden run (once — also on resume: classification
        // parameters and the golden metrics row are recomputed, which is
        // deterministic and keeps the journal limited to per-experiment
        // state). With a cache, the whole golden log is content-addressed:
        // a hit skips the simulation and recomputes both deterministically
        // from the stored log.
        observer.phase_started(CampaignPhase::Golden);
        // No shard is exported for the golden run: its capture (present
        // with dataset capture on) is dropped before the log is stored or
        // kept.
        let golden_run = || {
            let mut log = self.engine.golden_run()?;
            log.obs.dataset = None;
            Ok::<_, ComfaseError>(log)
        };
        let golden = match (config.cache.as_deref(), key_base) {
            (Some(store), Some(base)) => {
                let key = base.golden_key();
                let cached = match store.load(&key) {
                    CacheLookup::Hit(entry) => match *entry {
                        CacheEntry::Golden { log } => {
                            cache_hits += 1;
                            Some(log)
                        }
                        // An experiment payload under the golden key can
                        // only be corruption; treat it as stale.
                        CacheEntry::Experiment { .. } => {
                            cache_stale += 1;
                            None
                        }
                    },
                    CacheLookup::Miss => {
                        cache_misses += 1;
                        None
                    }
                    CacheLookup::Stale => {
                        cache_stale += 1;
                        None
                    }
                };
                match cached {
                    Some(log) => log,
                    None => {
                        let log = golden_run()?;
                        store.store(&key, &CacheEntry::Golden { log: log.clone() })?;
                        log
                    }
                }
            }
            _ => golden_run()?,
        };
        // Every experiment world folds its trace against these speeds
        // instead of recording it (see `World::fold_trace`).
        let golden_speeds = Arc::new(GoldenSpeeds::tabulate(&golden.trace));
        observer.phase_finished(CampaignPhase::Golden);
        let params = ClassificationParams::from_golden(&golden.trace);
        let golden_row =
            collect_metrics.then(|| golden.experiment_metrics(0, "Golden".to_string()));

        // Journal writer: create with a header (followed by the golden
        // metrics row, which the journal merger needs to rebuild the
        // campaign artifact) on a fresh run, append on resume. Opened
        // before the experiment phase so an unwritable journal fails fast
        // instead of after hours of simulation.
        let journal = match config.journal.as_deref() {
            Some(path) if config.resume && path.exists() => Some(JournalWriter::append_to(path)?),
            Some(path) => {
                let writer = JournalWriter::create(
                    path,
                    &JournalEntry::Header {
                        schema_version: JOURNAL_SCHEMA_VERSION,
                        seed: self.engine.seed(),
                        total,
                        fingerprint,
                        setup: self.setup.clone(),
                    },
                )?;
                writer.append(&JournalEntry::Golden {
                    metrics: golden_row.clone(),
                })?;
                Some(writer)
            }
            None => None,
        };

        // Cache phase: resolve still-pending experiments against the
        // store before simulating anything. Hits are journaled (in
        // ascending index order — deterministic) and folded into the
        // completed state exactly like resumed entries; the stored
        // index-free record and row are rewritten to this campaign's
        // index. A dataset run looks nothing up: entries hold no capture,
        // so every experiment it exports must simulate.
        let mut pending: Vec<usize> = Vec::with_capacity(total);
        for (i, spec) in specs.iter().enumerate() {
            if completed.contains_key(&i) {
                continue;
            }
            let hit = match (config.cache.as_deref(), key_base) {
                (Some(store), Some(base)) if config.dataset.is_none() => {
                    let spec_json = fingerprint::canonical_json(spec);
                    let key = base.experiment_key(&spec_json, i, spec.model.seed_invariant());
                    match store.load(&key) {
                        CacheLookup::Hit(entry) => match *entry {
                            CacheEntry::Experiment {
                                mut record,
                                metrics,
                            } if record.spec == *spec
                                && !(collect_metrics && metrics.is_none()) =>
                            {
                                record.index = i;
                                let row = metrics.map(|mut row| {
                                    row.index = i;
                                    row
                                });
                                Some((record, row))
                            }
                            // Spec-echo mismatch (hash collision or
                            // tampering), or a hit missing the telemetry
                            // this campaign needs: unusable.
                            _ => {
                                cache_stale += 1;
                                None
                            }
                        },
                        CacheLookup::Miss => {
                            cache_misses += 1;
                            None
                        }
                        CacheLookup::Stale => {
                            cache_stale += 1;
                            None
                        }
                    }
                }
                _ => None,
            };
            match hit {
                Some((record, row)) => {
                    cache_hits += 1;
                    if let Some(journal) = journal.as_ref() {
                        journal.append(&JournalEntry::Completed {
                            index: i,
                            record: record.clone(),
                            metrics: row.clone(),
                        })?;
                    }
                    completed.insert(i, (record, row));
                }
                None => pending.push(i),
            }
        }

        // The mode decides two things only: whether attack-free prefix
        // snapshots are built (one per distinct start time still pending,
        // incrementally along a single world), and whether the planner
        // chains experiments that share an attack segment.
        observer.phase_started(CampaignPhase::Prefixes);
        let mut starts: Vec<SimTime> = pending.iter().map(|&i| specs[i].start).collect();
        starts.sort_unstable();
        starts.dedup();
        let prefixes = match config.mode {
            ExecutionMode::PrefixFork | ExecutionMode::SnapshotDag => {
                Engine::snapshots(self.folding_world(&golden_speeds)?, &starts)
            }
            ExecutionMode::FromScratch => Vec::new(),
        };
        observer.phase_finished(CampaignPhase::Prefixes);
        let chained = config.mode == ExecutionMode::SnapshotDag;
        let plan_of = |indices: &[usize]| {
            if chained {
                DagPlan::build(&specs, indices)
            } else {
                DagPlan::unchained(indices)
            }
        };
        let plan = plan_of(&pending);

        let done = completed.len();
        let (records, rows): (Vec<_>, Vec<_>) = completed.into_values().unzip();
        let sweep = Sweep {
            specs: &specs,
            starts: &starts,
            prefixes: &prefixes,
            golden: &golden,
            golden_speeds: &golden_speeds,
            params: &params,
            sink: ResultSink {
                journal: journal.as_ref(),
                cache: config.cache.as_deref(),
                key_base,
                dataset: config.dataset.as_deref(),
                dataset_header,
                records: Mutex::new(records),
                metrics_rows: Mutex::new(rows.into_iter().flatten().collect()),
                failures: Mutex::new(Vec::new()),
                first_error: Mutex::new(None),
                done: AtomicUsize::new(done),
                nr_failed: AtomicUsize::new(0),
                abort: AtomicBool::new(false),
                deadline: config.wall_deadline_s.map(WallDeadline::after_secs),
                deadline_hit: AtomicBool::new(false),
                total,
                failure_policy: config.failure_policy,
                dedup: config.work.is_some().then(|| Mutex::new(BTreeSet::new())),
                observer,
            },
        };

        // In-process workers share one cursor over the whole plan; claim
        // workers plan and run one claimed work unit at a time.
        let workers = match config.work {
            Some(_) => threads,
            None => threads.min(plan.units.len().max(1)),
        };
        let cursor = AtomicUsize::new(0);
        observer.phase_started(CampaignPhase::Experiments);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| match config.work.as_deref() {
                        None => {
                            self.run_units(&sweep, &plan, &cursor, &|| true);
                            Vec::new()
                        }
                        Some(source) => self.run_claims(&sweep, source, &pending, &plan_of),
                    })
                })
                .collect();
            // Joined explicitly, so a worker panic surfaces as an error
            // instead of re-panicking out of the scope.
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut ran = Vec::new();
        for thread in joined {
            match thread {
                Ok(plans) => ran.extend(plans),
                Err(panic) => {
                    return Err(ComfaseError::WorkerFailed(panic_message(panic.as_ref())))
                }
            }
        }
        observer.phase_finished(CampaignPhase::Experiments);

        // An in-process run counts its whole plan; a claim worker counts
        // the unit plans its threads ran. Solo units fork from their
        // prefix snapshot when one was built, and run from t = 0 otherwise.
        if config.work.is_none() {
            ran.push(plan);
        }
        let mut stats = CampaignStats {
            prefix_snapshots: prefixes.len(),
            cache_hits,
            cache_misses,
            cache_stale,
            ..CampaignStats::default()
        };
        for plan in &ran {
            stats.count(plan, !prefixes.is_empty());
        }

        let sink = sweep.sink;
        if let Some(e) = into_inner(sink.first_error) {
            return Err(e);
        }
        if sink.deadline_hit.load(Ordering::Relaxed) {
            let d = sink.done.load(Ordering::Relaxed);
            if d < total {
                return Err(ComfaseError::BudgetExceeded(format!(
                    "wall-clock deadline of {:.1}s reached after {d}/{total} experiments{}",
                    config.wall_deadline_s.unwrap_or(0.0),
                    if config.journal.is_some() {
                        "; completed work is journaled — resume to continue"
                    } else {
                        ""
                    }
                )));
            }
        }
        let mut records = into_inner(sink.records);
        records.sort_by_key(|r| r.index);
        let mut failures = into_inner(sink.failures);
        failures.sort_by_key(|f| f.index);
        // CampaignMetrics::build re-sorts the rows by experiment index, so
        // the artifact is independent of worker-thread completion order —
        // and, on resume, of which rows came from the journal.
        let metrics = collect_metrics
            .then(|| CampaignMetrics::build(into_inner(sink.metrics_rows), golden_row));
        Ok(CampaignResult {
            records,
            params,
            golden,
            stats,
            metrics,
            failures,
        })
    }

    /// Runs `plan`'s units, taking the next one from `cursor` until the
    /// plan is exhausted, and calls `between` after every unit except the
    /// plan's last; `false` from it abandons the rest of the plan
    /// ([`UnitRun::Lost`]). The in-process run calls this on every worker
    /// thread over the whole plan, sharing the cursor, with a hook that
    /// does nothing; a claim worker calls it once per claimed
    /// [`WorkUnit`], with lease renewal as the hook.
    fn run_units(
        &self,
        sweep: &Sweep<'_>,
        plan: &DagPlan,
        cursor: &AtomicUsize,
        between: &dyn Fn() -> bool,
    ) -> UnitRun {
        loop {
            if sweep.sink.should_stop() {
                return UnitRun::Stopped;
            }
            let slot = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = plan.units.get(slot) else {
                return UnitRun::Finished;
            };
            let go_on = match unit {
                DagUnit::Solo { index } => sweep
                    .sink
                    .push(self.supervise(sweep, *index, || self.execute_one(sweep, *index))),
                DagUnit::Chain { leaves } => self.run_chain(sweep, leaves),
            };
            if !go_on {
                return UnitRun::Stopped;
            }
            if slot + 1 < plan.units.len() && !between() {
                return UnitRun::Lost;
            }
        }
    }

    /// One claim worker thread: claims [`WorkUnit`]s from `source` until
    /// none is left, runs each unit's still-`pending` experiments through
    /// [`Campaign::run_units`] with lease renewal between plan units, and
    /// marks finished units complete. The plan is built *within* the
    /// unit, so chains never span a claim boundary and a stolen unit
    /// re-plans identically. Returns the plan of each unit it ran, cut to
    /// the plan units it started.
    ///
    /// A failed or lost renewal abandons the rest of the unit: everything
    /// already pushed stays journaled, and the unit's next owner
    /// re-executes it idempotently — the merger's equal-or-reject
    /// duplicate rule makes double execution safe.
    fn run_claims(
        &self,
        sweep: &Sweep<'_>,
        source: &dyn WorkSource,
        pending: &[usize],
        plan_of: &dyn Fn(&[usize]) -> DagPlan,
    ) -> Vec<DagPlan> {
        let mut ran = Vec::new();
        while !sweep.sink.should_stop() {
            let unit = match source.claim() {
                Ok(Some(unit)) => unit,
                Ok(None) => break,
                Err(e) => {
                    sweep.sink.fail(e);
                    break;
                }
            };
            let indices: Vec<usize> = (unit.lo..unit.hi)
                .filter(|i| pending.binary_search(i).is_ok())
                .collect();
            let renew = || matches!(source.renew(&unit), Ok(LeaseState::Held));
            let mut plan = plan_of(&indices);
            let cursor = AtomicUsize::new(0);
            let outcome = self.run_units(sweep, &plan, &cursor, &renew);
            plan.units.truncate(cursor.into_inner());
            ran.push(plan);
            match outcome {
                UnitRun::Finished => {
                    if let Err(e) = source.complete(&unit) {
                        sweep.sink.fail(e);
                        break;
                    }
                }
                // Lease lost mid-unit: whoever stole it re-executes the
                // whole unit; move on.
                UnitRun::Lost => {}
                UnitRun::Stopped => break,
            }
        }
        ran
    }
}

/// Builds the export label for one classified experiment: the attack
/// specification plus the classified verdict, flattened into the plain
/// strings/scalars the corpus schema carries.
fn experiment_label(record: &ExperimentRecord) -> ExperimentLabel {
    ExperimentLabel {
        index: record.index,
        attack_model: Some(record.spec.model.name().to_string()),
        attack_parameter: Some(record.spec.model.target_parameter().to_string()),
        attack_value: Some(record.spec.value),
        attack_start_s: Some(record.spec.start.as_secs_f64()),
        attack_duration_s: Some(record.spec.duration().as_secs_f64()),
        targets: record.spec.targets.to_vec(),
        verdict: record.verdict.class.to_string(),
        max_decel_mps2: record.verdict.max_decel_mps2,
        nr_collisions: record.verdict.nr_collisions,
    }
}

/// How a [`Campaign::run_units`] call ended.
enum UnitRun {
    /// Every unit of the plan was run; a claim worker marks its work unit
    /// done.
    Finished,
    /// The claim was lost (or its renewal failed) mid-unit: abandon the
    /// unit without completing it and claim the next one.
    Lost,
    /// The campaign is stopping (abort, deadline); the worker exits.
    Stopped,
}

/// Everything the workers of one run share: the expanded campaign, the
/// prefix snapshots, the golden reference, and the sink results go to.
struct Sweep<'a> {
    specs: &'a [AttackSpec],
    /// Distinct pending start times, ascending; index-aligned with
    /// `prefixes` when those were built.
    starts: &'a [SimTime],
    /// Attack-free prefix snapshots; empty under
    /// [`ExecutionMode::FromScratch`].
    prefixes: &'a [World],
    golden: &'a RunLog,
    /// `golden`'s speeds, which every experiment world folds against.
    golden_speeds: &'a Arc<GoldenSpeeds>,
    params: &'a ClassificationParams,
    sink: ResultSink<'a>,
}

impl Sweep<'_> {
    /// The prefix snapshot experiments starting at `start` fork from.
    fn prefix(&self, start: SimTime) -> &World {
        let k = self
            .starts
            .binary_search(&start)
            .expect("a prefix snapshot exists for every pending start time");
        &self.prefixes[k]
    }
}

/// Shared result-handling state of the experiment phase, used by every
/// worker: journaling, caching, dataset export, record/failure
/// accumulation, the failure policy (including the quarantine circuit
/// breaker), observer callbacks, and the abort/deadline controls.
struct ResultSink<'a> {
    journal: Option<&'a JournalWriter>,
    cache: Option<&'a dyn ExperimentCache>,
    key_base: Option<CacheKeyBase>,
    /// Streaming dataset sink; exports happen *before* the journal append
    /// so a journaled row always has its shard on disk.
    dataset: Option<&'a dyn DatasetSink>,
    /// Campaign identity stamped into every exported shard.
    dataset_header: DatasetHeader,
    records: Mutex<Vec<ExperimentRecord>>,
    metrics_rows: Mutex<Vec<ExperimentMetrics>>,
    failures: Mutex<Vec<ExperimentFailure>>,
    first_error: Mutex<Option<ComfaseError>>,
    done: AtomicUsize,
    nr_failed: AtomicUsize,
    abort: AtomicBool,
    deadline: Option<WallDeadline>,
    deadline_hit: AtomicBool,
    total: usize,
    failure_policy: FailurePolicy,
    /// Indices already pushed by this process — claim-driven runs only.
    /// A unit lost to a stalled heartbeat and later stolen back by the
    /// same process re-executes experiments it already journaled; the
    /// re-runs are bit-equal, so the duplicates are simply dropped here.
    dedup: Option<Mutex<BTreeSet<usize>>>,
    observer: &'a dyn CampaignObserver,
}

impl ResultSink<'_> {
    /// Records `e` as the campaign's error (the first one wins) and stops
    /// every worker. Returns `false`, [`ResultSink::push`]'s "stop".
    fn fail(&self, e: ComfaseError) -> bool {
        lock(&self.first_error).get_or_insert(e);
        self.abort.store(true, Ordering::Relaxed);
        false
    }

    /// `true` when workers must stop claiming work — the abort flag is
    /// raised or the wall deadline expired (which is latched so the
    /// campaign reports it after the scope ends).
    fn should_stop(&self) -> bool {
        if self.abort.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = &self.deadline {
            if d.expired() {
                self.deadline_hit.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Records one experiment outcome: exports, journals and caches it,
    /// accumulates the record/failure, applies the failure policy and
    /// reports progress. Returns `false` when the campaign must stop.
    fn push(&self, outcome: ExperimentOutcome) -> bool {
        if let Some(seen) = &self.dedup {
            let index = match &outcome {
                Ok((record, ..)) => record.index,
                Err((failure, _)) => failure.index,
            };
            if !lock(seen).insert(index) {
                // Already journaled and accumulated by this process; the
                // re-execution (a re-stolen unit) produced the same bits.
                return !self.should_stop();
            }
        }
        match outcome {
            Ok((record, row, dataset)) => {
                // Dataset export comes first: once the journal records the
                // experiment as completed, a resume will never re-run it,
                // so its shard must already be on disk by then. Sinks are
                // idempotent for identical bytes, so the crash window
                // (shard written, journal row lost) re-exports harmlessly.
                if let Some(sink) = self.dataset {
                    let exported = sink.export(&ExperimentExport {
                        header: self.dataset_header,
                        label: experiment_label(&record),
                        capture: dataset.unwrap_or_default(),
                    });
                    if let Err(e) = exported {
                        return self.fail(ComfaseError::Io(format!("dataset export failed: {e}")));
                    }
                }
                if let Some(journal) = self.journal {
                    let entry = JournalEntry::Completed {
                        index: record.index,
                        record: record.clone(),
                        metrics: row.clone(),
                    };
                    if let Err(e) = journal.append(&entry) {
                        return self.fail(e);
                    }
                }
                // Cache stores are as load-bearing as journal appends: a
                // result silently dropped here would force a re-simulation
                // the user believes is cached, so failures abort the
                // campaign like journal I/O errors do.
                if let (Some(cache_store), Some(base)) = (self.cache, self.key_base) {
                    if let Err(e) = store_experiment(cache_store, base, &record, row.as_ref()) {
                        return self.fail(e);
                    }
                }
                if let Some(row) = row {
                    lock(&self.metrics_rows).push(row);
                }
                lock(&self.records).push(record);
                let d = self.done.fetch_add(1, Ordering::Relaxed) + 1;
                self.observer.experiment_done(d, self.total);
                true
            }
            Err((failure, original)) => {
                if let Some(journal) = self.journal {
                    let entry = JournalEntry::Failed {
                        failure: failure.clone(),
                    };
                    if let Err(e) = journal.append(&entry) {
                        return self.fail(e);
                    }
                }
                self.observer.experiment_failed(&failure);
                match self.failure_policy {
                    FailurePolicy::Abort => {
                        let e = original.unwrap_or_else(|| {
                            ComfaseError::WorkerFailed(format!(
                                "experiment {} panicked: {}",
                                failure.index, failure.payload
                            ))
                        });
                        lock(&self.failures).push(failure);
                        self.fail(e)
                    }
                    FailurePolicy::Quarantine { max_failures } => {
                        lock(&self.failures).push(failure);
                        let n = self.nr_failed.fetch_add(1, Ordering::Relaxed) + 1;
                        if n > max_failures {
                            return self.fail(ComfaseError::WorkerFailed(format!(
                                "quarantine circuit breaker: {n} experiments \
                                 failed (limit {max_failures})"
                            )));
                        }
                        // Quarantined failures count toward progress: the
                        // campaign is done with them, just not successfully.
                        let d = self.done.fetch_add(1, Ordering::Relaxed) + 1;
                        self.observer.experiment_done(d, self.total);
                        true
                    }
                }
            }
        }
    }
}

/// Locks `mutex`, recovering the data of a poisoned lock: every critical
/// section in this module is a single push or insert, so a panicking
/// holder cannot leave the data half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the data out of `mutex`, poisoned or not (see [`lock`]).
fn into_inner<T>(mutex: Mutex<T>) -> T {
    mutex.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Stores one completed experiment in the content-addressed cache. The
/// stored record and row are index-free (index rewritten to 0) so one
/// entry for a seed-invariant attack serves the spec at any experiment
/// index, in any campaign over the same configuration.
fn store_experiment(
    cache_store: &dyn ExperimentCache,
    base: CacheKeyBase,
    record: &ExperimentRecord,
    row: Option<&ExperimentMetrics>,
) -> Result<(), ComfaseError> {
    let spec_json = fingerprint::canonical_json(&record.spec);
    let key = base.experiment_key(&spec_json, record.index, record.spec.model.seed_invariant());
    let mut stored = record.clone();
    stored.index = 0;
    let metrics = row.map(|row| {
        let mut row = row.clone();
        row.index = 0;
        row
    });
    cache_store.store(
        &key,
        &CacheEntry::Experiment {
            record: stored,
            metrics,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackModelKind;
    use crate::classify::Classification;
    use crate::config::{CommModel, TrafficScenario};
    use comfase_des::time::SimTime;

    #[test]
    fn unit_tables_are_disjoint_covering_chunks() {
        for total in [0usize, 1, 2, 7, 8, 25, 97, 11_250] {
            for unit_size in [1usize, 2, 3, 8, 64, 20_000] {
                let units = plan_units(total, unit_size).unwrap();
                let mut covered = vec![0usize; total];
                for (k, unit) in units.iter().enumerate() {
                    assert_eq!(unit.id, k);
                    assert!(unit.lo < unit.hi || total == 0);
                    assert!(unit.len() <= unit_size);
                    for slot in &mut covered[unit.lo..unit.hi] {
                        *slot += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "units of size {unit_size} over {total} are not a disjoint cover"
                );
                // Only the last unit may be short.
                for unit in units.iter().rev().skip(1) {
                    assert_eq!(unit.len(), unit_size);
                }
            }
        }
        assert!(plan_units(8, 0).is_err());
    }

    #[test]
    fn exhausted_work_source_runs_nothing() {
        #[derive(Debug)]
        struct NoWork;
        impl WorkSource for NoWork {
            fn claim(&self) -> Result<Option<WorkUnit>, ComfaseError> {
                Ok(None)
            }
            fn renew(&self, _: &WorkUnit) -> Result<LeaseState, ComfaseError> {
                Ok(LeaseState::Held)
            }
            fn complete(&self, _: &WorkUnit) -> Result<(), ComfaseError> {
                Ok(())
            }
        }
        // A journal is conventional but not required at the library level.
        let config = RunConfig {
            work: Some(Arc::new(NoWork)),
            ..RunConfig::default()
        };
        let result = small_campaign().run(1, &config, &NullObserver).unwrap();
        assert!(result.records.is_empty());
    }

    fn small_campaign() -> Campaign {
        let mut scenario = TrafficScenario::paper_default();
        scenario.total_sim_time = SimTime::from_secs(30);
        let engine = Engine::new(scenario, CommModel::paper_default(), 11).unwrap();
        let setup = AttackCampaignSetup {
            attack_model: AttackModelKind::Delay,
            target_vehicles: vec![2],
            attack_values: vec![0.4, 2.0],
            attack_starts_s: vec![17.0, 18.2],
            attack_durations_s: vec![1.0, 6.0],
        };
        Campaign::new(engine, setup).unwrap()
    }

    fn run(
        c: &Campaign,
        threads: usize,
        mode: ExecutionMode,
    ) -> Result<CampaignResult, ComfaseError> {
        c.run_with_observer(threads, mode, &NullObserver)
    }

    /// Records the highest `done` count reported to the observer.
    #[derive(Default)]
    struct MaxDone(AtomicUsize);

    impl CampaignObserver for MaxDone {
        fn experiment_done(&self, done: usize, total: usize) {
            assert!(done <= total);
            self.0.fetch_max(done, Ordering::Relaxed);
        }
    }

    #[test]
    fn campaign_runs_all_experiments_in_order() {
        let c = small_campaign();
        assert_eq!(c.nr_experiments(), 8);
        let result = run(&c, 2, ExecutionMode::default()).unwrap();
        assert_eq!(result.len(), 8);
        assert!(!result.is_empty());
        assert!(result.failures.is_empty());
        assert!(result.failure_summary().is_empty());
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.index, i);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let c = small_campaign();
        let serial = run(&c, 1, ExecutionMode::default()).unwrap();
        let parallel = run(&c, 4, ExecutionMode::default()).unwrap();
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.params, parallel.params);
    }

    #[test]
    fn fork_and_scratch_modes_agree() {
        let c = small_campaign();
        let forked = run(&c, 2, ExecutionMode::PrefixFork).unwrap();
        let scratch = run(&c, 2, ExecutionMode::FromScratch).unwrap();
        assert_eq!(forked.records, scratch.records);
        assert_eq!(forked.params, scratch.params);
        assert_eq!(forked.golden, scratch.golden);
    }

    #[test]
    fn stats_count_snapshots_and_reuse() {
        let c = small_campaign();
        let forked = run(&c, 2, ExecutionMode::PrefixFork).unwrap();
        // Two distinct start times, 8 experiments.
        assert_eq!(forked.stats.prefix_snapshots, 2);
        assert_eq!(forked.stats.forked_runs, 8);
        assert_eq!(forked.stats.scratch_runs, 0);
        assert_eq!(forked.stats.attack_chains, 0);
        assert_eq!(forked.stats.dag_depth, 1, "prefix-level reuse only");
        assert_eq!(forked.stats.snapshot_hit_rate(), 1.0);
        let scratch = run(&c, 2, ExecutionMode::FromScratch).unwrap();
        assert_eq!(scratch.stats.prefix_snapshots, 0);
        assert_eq!(scratch.stats.forked_runs, 0);
        assert_eq!(scratch.stats.scratch_runs, 8);
        assert_eq!(scratch.stats.dag_depth, 0, "nothing was forked");
        assert_eq!(scratch.stats.snapshot_hit_rate(), 0.0);
    }

    #[test]
    fn progress_reaches_total() {
        let max_done = MaxDone::default();
        small_campaign()
            .run(2, &RunConfig::default(), &max_done)
            .unwrap();
        assert_eq!(max_done.0.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn failing_experiment_aborts_the_campaign_promptly() {
        let c = small_campaign().with_chaos(ChaosConfig {
            fail_on: vec![2],
            ..ChaosConfig::default()
        });
        let completed = MaxDone::default();
        // Serial run: experiments 0 and 1 complete, 2 fails, and the abort
        // must keep the worker from draining 3..8.
        let err = c
            .run_with_observer(1, ExecutionMode::FromScratch, &completed)
            .unwrap_err();
        assert!(err.to_string().contains("injected failure"), "{err}");
        assert_eq!(
            completed.0.load(Ordering::Relaxed),
            2,
            "campaign must stop at the failure"
        );
    }

    #[test]
    fn failing_experiment_surfaces_error_across_workers() {
        let c = small_campaign().with_chaos(ChaosConfig {
            fail_on: vec![0],
            ..ChaosConfig::default()
        });
        let completed = MaxDone::default();
        let err = c
            .run_with_observer(4, ExecutionMode::FromScratch, &completed)
            .unwrap_err();
        assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
        assert!(
            completed.0.load(Ordering::Relaxed) < 8,
            "the abort flag must keep workers from draining the whole campaign"
        );
    }

    #[test]
    fn quarantine_keeps_the_campaign_running_past_failures() {
        let c = small_campaign().with_chaos(ChaosConfig {
            fail_on: vec![1, 5],
            ..ChaosConfig::default()
        });
        let config = RunConfig {
            failure_policy: FailurePolicy::quarantine(),
            ..RunConfig::default()
        };
        let result = c.run(2, &config, &NullObserver).unwrap();
        assert_eq!(result.len(), 6);
        assert_eq!(result.failures.len(), 2);
        assert_eq!(result.failures[0].index, 1);
        assert_eq!(result.failures[1].index, 5);
        for f in &result.failures {
            assert_eq!(f.kind, FailureKind::HostError);
            assert!(f.payload.contains("injected failure"), "{}", f.payload);
            assert_eq!(f.attempts, 1);
        }
        assert_eq!(result.failure_summary()[&"host-error"], 2);
        let run_indices: Vec<usize> = result.records.iter().map(|r| r.index).collect();
        assert_eq!(run_indices, vec![0, 2, 3, 4, 6, 7]);
    }

    #[test]
    fn quarantine_isolates_a_panicking_experiment() {
        let c = small_campaign().with_chaos(ChaosConfig {
            panic_on: vec![3],
            ..ChaosConfig::default()
        });
        let config = RunConfig {
            failure_policy: FailurePolicy::quarantine(),
            ..RunConfig::default()
        };
        let result = c.run(2, &config, &NullObserver).unwrap();
        assert_eq!(result.len(), 7);
        assert_eq!(result.failures.len(), 1);
        let f = &result.failures[0];
        assert_eq!(f.index, 3);
        assert_eq!(f.kind, FailureKind::Panicked);
        assert!(f.payload.contains("injected panic"), "{}", f.payload);
        assert_eq!(result.failure_summary()[&"panicked"], 1);
    }

    #[test]
    fn panic_under_abort_policy_is_a_worker_failure() {
        let c = small_campaign().with_chaos(ChaosConfig {
            panic_on: vec![0],
            ..ChaosConfig::default()
        });
        let err = run(&c, 1, ExecutionMode::FromScratch).unwrap_err();
        assert!(matches!(err, ComfaseError::WorkerFailed(_)), "{err:?}");
        assert!(err.to_string().contains("injected panic"), "{err}");
    }

    #[test]
    fn quarantine_circuit_breaker_trips() {
        let c = small_campaign().with_chaos(ChaosConfig {
            fail_on: vec![0, 1, 2],
            ..ChaosConfig::default()
        });
        let config = RunConfig {
            mode: ExecutionMode::FromScratch,
            failure_policy: FailurePolicy::Quarantine { max_failures: 1 },
            ..RunConfig::default()
        };
        let err = c.run(1, &config, &NullObserver).unwrap_err();
        assert!(matches!(err, ComfaseError::WorkerFailed(_)), "{err:?}");
        assert!(err.to_string().contains("circuit breaker"), "{err}");
    }

    #[test]
    fn long_strong_attacks_classified_severe() {
        let c = small_campaign();
        let result = run(&c, 4, ExecutionMode::default()).unwrap();
        // The (pd=2.0, dur=6.0) experiments must be severe.
        let severe: Vec<_> = result
            .records
            .iter()
            .filter(|r| {
                r.spec.value == 2.0
                    && r.spec.duration() == comfase_des::time::SimDuration::from_secs(6)
            })
            .collect();
        assert_eq!(severe.len(), 2);
        for r in severe {
            assert_eq!(r.verdict.class, Classification::Severe, "{r:?}");
        }
    }

    #[test]
    fn invalid_setup_rejected_at_construction() {
        let engine = Engine::paper_default(1).unwrap();
        let mut setup = AttackCampaignSetup::paper_dos_campaign();
        setup.target_vehicles = vec![99];
        assert!(Campaign::new(engine, setup).is_err());
    }

    #[test]
    fn zero_threads_is_invalid_config() {
        let err = run(&small_campaign(), 0, ExecutionMode::default()).unwrap_err();
        assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
        assert!(
            err.to_string().contains("at least one worker thread"),
            "{err}"
        );
    }

    fn plain_spec(model: AttackModelKind, value: f64, start_s: i64, end_s: i64) -> AttackSpec {
        AttackSpec {
            model,
            value,
            targets: vec![2].into(),
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
        }
    }

    #[test]
    fn dag_plan_groups_by_attack_coordinates_and_sorts_leaves_by_end() {
        let specs = vec![
            plain_spec(AttackModelKind::Delay, 1.0, 17, 25), // 0: chain (17, 1.0)
            plain_spec(AttackModelKind::Delay, 1.0, 17, 19), // 1: chain (17, 1.0)
            plain_spec(AttackModelKind::Delay, 2.0, 17, 19), // 2: singleton → solo
            plain_spec(AttackModelKind::Delay, 1.0, 18, 19), // 3: chain (18, 1.0)
            plain_spec(AttackModelKind::Delay, 1.0, 18, 30), // 4: chain (18, 1.0)
        ];
        let pending: Vec<usize> = (0..specs.len()).collect();
        let plan = DagPlan::build(&specs, &pending);
        assert_eq!(plan.chains(), 2);
        assert_eq!(plan.chained_leaves(), 4);
        assert_eq!(plan.solo_leaves(), 1);
        assert_eq!(plan.nr_leaves(), 5);
        assert_eq!(plan.depth(), 2);
        assert_eq!(
            plan.units,
            vec![
                // Leaves end-sorted: experiment 1 (end 19) before 0 (end 25).
                DagUnit::Chain { leaves: vec![1, 0] },
                DagUnit::Solo { index: 2 },
                DagUnit::Chain { leaves: vec![3, 4] },
            ]
        );
        // Permutation of the pending list must not change the plan.
        let shuffled = vec![4, 2, 0, 3, 1];
        assert_eq!(DagPlan::build(&specs, &shuffled), plan);
    }

    #[test]
    fn dag_plan_never_chains_seed_dependent_models() {
        let specs = vec![
            plain_spec(AttackModelKind::Drop, 0.5, 17, 19),
            plain_spec(AttackModelKind::Drop, 0.5, 17, 25),
        ];
        let plan = DagPlan::build(&specs, &[0, 1]);
        assert_eq!(plan.chains(), 0);
        assert_eq!(
            plan.units,
            vec![DagUnit::Solo { index: 0 }, DagUnit::Solo { index: 1 }]
        );
        assert_eq!(plan.depth(), 1, "prefix-level reuse only");
    }

    #[test]
    fn snapshot_dag_agrees_with_other_modes() {
        let c = small_campaign();
        let dag = run(&c, 2, ExecutionMode::SnapshotDag).unwrap();
        let forked = run(&c, 2, ExecutionMode::PrefixFork).unwrap();
        let scratch = run(&c, 2, ExecutionMode::FromScratch).unwrap();
        assert_eq!(dag.records, scratch.records);
        assert_eq!(dag.records, forked.records);
        assert_eq!(dag.params, scratch.params);
        assert_eq!(dag.golden, scratch.golden);
    }

    #[test]
    fn snapshot_dag_parallel_and_serial_agree() {
        let c = small_campaign();
        let serial = run(&c, 1, ExecutionMode::SnapshotDag).unwrap();
        let parallel = run(&c, 4, ExecutionMode::SnapshotDag).unwrap();
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.stats, parallel.stats);
    }

    #[test]
    fn snapshot_dag_stats_count_chains_and_levels() {
        let c = small_campaign();
        let r = run(&c, 2, ExecutionMode::SnapshotDag).unwrap();
        // 2 starts × 2 values → 4 chains of 2 durations each.
        assert_eq!(r.stats.prefix_snapshots, 2);
        assert_eq!(r.stats.attack_chains, 4);
        assert_eq!(r.stats.chain_forked_runs, 8);
        assert_eq!(r.stats.forked_runs, 0);
        assert_eq!(r.stats.scratch_runs, 0);
        assert_eq!(r.stats.dag_depth, 2);
        assert_eq!(r.stats.snapshot_hit_rate(), 1.0);
        assert_eq!(r.stats.level_hit_rates(), [1.0, 1.0]);
    }

    #[test]
    fn snapshot_dag_quarantine_isolates_leaf_failures() {
        let c = small_campaign().with_chaos(ChaosConfig {
            panic_on: vec![3],
            fail_on: vec![5],
        });
        let config = RunConfig {
            mode: ExecutionMode::SnapshotDag,
            failure_policy: FailurePolicy::quarantine(),
            ..RunConfig::default()
        };
        let result = c.run(2, &config, &NullObserver).unwrap();
        assert_eq!(result.len(), 6);
        assert_eq!(result.failures.len(), 2);
        assert_eq!(result.failures[0].index, 3);
        assert_eq!(result.failures[0].kind, FailureKind::Panicked);
        assert_eq!(result.failures[1].index, 5);
        assert_eq!(result.failures[1].kind, FailureKind::HostError);
        // Chain leaves run once, like solo units.
        for f in &result.failures {
            assert_eq!(f.attempts, 1, "leaf {}", f.index);
        }
        let run_indices: Vec<usize> = result.records.iter().map(|r| r.index).collect();
        assert_eq!(run_indices, vec![0, 1, 2, 4, 6, 7]);
    }
}
