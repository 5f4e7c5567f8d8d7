//! # ComFASE — a communication fault and attack simulation engine
//!
//! A Rust reproduction of *"ComFASE: A Tool for Evaluating the Effects of
//! V2V Communication Faults and Attacks on Automated Vehicles"* (Malik et
//! al., DSN 2022), built on pure-Rust substrates for the original stack
//! (OMNeT++/SUMO/Veins/Plexe — see the `comfase-des`, `comfase-traffic`,
//! `comfase-wireless` and `comfase-platoon` crates).
//!
//! The tool injects faults and cybersecurity attacks into the wireless
//! channel of a vehicular network and evaluates their safety implications
//! on the target vehicle *and the surrounding traffic*:
//!
//! 1. **Test configuration** ([`config`]) — traffic scenario, communication
//!    model and attack campaign setup, with the paper's §IV presets;
//! 2. **Golden run** ([`engine::Engine::golden_run`]) — the attack-free
//!    reference;
//! 3. **Attack injection campaign** ([`campaign`]) — batches of
//!    experiments, each a three-phase simulation with the attack
//!    interceptor installed for its window ([`attack`], [`world`]);
//! 4. **Classification** ([`classify`]) — non-effective / negligible /
//!    benign / severe verdicts from deceleration profiles and collision
//!    incidents, plus collider attribution ([`analysis`]) and plain-text
//!    regeneration of every table and figure ([`report`]).
//!
//! # Quick start
//!
//! ```no_run
//! use comfase::prelude::*;
//! use comfase_des::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::paper_default(42)?;
//! let golden = engine.golden_run()?;
//! let attack = AttackSpec {
//!     model: AttackModelKind::Delay,
//!     value: 1.0, // seconds of propagation delay
//!     targets: vec![2].into(),
//!     start: SimTime::from_secs(17),
//!     end: SimTime::from_secs(22),
//! };
//! let run = engine.run_experiment(&attack, 0)?;
//! let verdict = engine.classify_experiment(&golden, &run);
//! println!("{}: max decel {:.2} m/s²", verdict.class, verdict.max_decel_mps2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod attack;
pub mod cache;
pub mod campaign;
pub mod classify;
pub mod config;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod journal;
pub mod log;
mod radio;
pub mod report;
pub mod teleop;
pub mod world;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::attack::{AttackModelKind, AttackSpec, FalsifiedField};
    pub use crate::cache::{CacheEntry, CacheKey, CacheKeyBase, CacheLookup, ExperimentCache};
    pub use crate::campaign::{
        plan_units, Campaign, CampaignObserver, CampaignPhase, CampaignResult, CampaignStats,
        ChaosConfig, DagPlan, DagUnit, ExecutionMode, ExperimentFailure, ExperimentRecord,
        FailureKind, FailurePolicy, LeaseState, NullObserver, RunConfig, WorkSource, WorkUnit,
    };
    pub use crate::classify::{Classification, ClassificationParams, Verdict};
    pub use crate::config::{
        AttackCampaignSetup, CommModel, ManeuverKind, TrafficScenario, WirelessModelKind,
    };
    pub use crate::engine::Engine;
    pub use crate::error::ComfaseError;
    pub use crate::journal::{
        read_journal, JournalEntry, JournalHeader, JournalState, JournalWriter,
    };
    pub use crate::log::RunLog;
    pub use crate::teleop::{TeleopLink, TeleopScenario, TeleopWorld};
    pub use crate::world::{IndexingMode, JammerSpec, RunFault, RunFaultKind, World};
    pub use comfase_des::sim::EventBudget;
    pub use comfase_obs::{
        chrome_trace_json, CampaignMetrics, DatasetSink, DirSink, ExperimentMetrics,
        FrameBreakdown, HostProfiler, KernelCounters, MetricsSnapshot, ObsConfig, WallDeadline,
    };
}
