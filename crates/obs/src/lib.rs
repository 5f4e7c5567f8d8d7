//! # comfase-obs — deterministic observability for ComFASE-RS
//!
//! A telemetry layer for the simulation stack, split along one hard line:
//!
//! - **Sim-side** ([`recorder`], [`trace`], [`metrics`]): everything stamped
//!   with [`SimTime`](comfase_des::time::SimTime) and recorded *inside* a
//!   simulation. These values are part of the deterministic run state — a
//!   forked run and a from-scratch run record byte-identical metrics, and
//!   worker-thread count never changes them. Nothing here may touch the host
//!   clock; the `comfase-lint` auditor enforces this (this crate is inside
//!   its workspace scope).
//! - **Host-side** ([`hostprof`]): wall-clock phase profiling of the
//!   campaign *runner* (how long the golden run took, not what happened in
//!   it). This is the only module allowed to read the host clock, under
//!   explicit per-site `wall-clock` waivers each carrying its reason, and
//!   its output is kept out of the deterministic `metrics.json` artifact.
//!
//! Simulation state records through the `Clone`-able [`SimRecorder`]:
//! counters, fixed-bucket histograms, a bounded trace-event buffer and
//! optional dataset rows, each behind its own [`ObsConfig`] switch, so with
//! telemetry off every call costs one branch and nothing is allocated.
//! Snapshot/fork execution carries recorded telemetry along with the rest
//! of the world state.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
pub mod hostprof;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use dataset::{
    render_experiment, DatasetCapture, DatasetHeader, ExperimentExport, ExperimentLabel, FrameFate,
    FrameRecord, StepRecord, DATASET_SCHEMA_VERSION,
};
pub use hostprof::HostProfiler;
pub use metrics::{
    AggregateMetrics, CampaignMetrics, ExperimentMetrics, FrameBreakdown, KernelCounters,
    SUBSTRATE_COUNTER_PREFIXES,
};
pub use recorder::{HistSpec, MetricsSnapshot, ObsConfig, SimRecorder};
pub use trace::{chrome_trace_json, TraceEvent, TraceKind};
