//! # comfase-dist — distributed campaign execution for ComFASE-RS
//!
//! The full Table II delay campaign is 11 250 experiments; one process
//! runs it fine, but a grid of machines runs it in a fraction of the
//! wall time *if and only if* the split cannot change the result. This
//! crate provides the pieces that make distribution safe:
//!
//! 1. **Claim ledger** ([`claim`]) and **claim-driven worker**
//!    ([`worker`]) — the only multi-process execution path: the index
//!    space is chunked into small work units that workers claim through
//!    atomic lease files, renew via monotonic heartbeat counters, and
//!    steal from stalled owners, so a killed worker's units are
//!    re-executed by survivors instead of stranding the campaign. The
//!    ledger is stamped with the campaign's canonical configuration
//!    fingerprint (see `comfase::fingerprint`), so workers of different
//!    campaigns refuse to share it.
//! 2. **Merger** ([`merge`]) — reassembles the workers' checkpoint
//!    journals into one [`comfase_obs::CampaignMetrics`] artifact,
//!    byte-identical to the single-process run's. Identity is checked
//!    field by field (seed, setup, fingerprint, golden row agreement),
//!    every entry must agree with its own index, and coverage must be
//!    exact: missing or conflicting experiments are hard errors, never
//!    silently dropped. Double execution after a steal is safe because
//!    the merger admits duplicates only when bit-equal.
//! 3. **Result cache** ([`cache`]) — a content-addressed on-disk store
//!    implementing `comfase::cache::ExperimentCache`: experiments keyed
//!    by `(spec, seed, configuration)` return their journaled rows
//!    without simulating on a re-run, with size-bounded garbage
//!    collection ([`DiskCache::gc`]) for long-lived shared caches.
//! 4. **Dataset shards** ([`dataset`]) — [`DirSink`] publishes one
//!    `exp-*.jsonl` shard per experiment (rendered by
//!    `comfase_obs::dataset`), and the merger reassembles the shards into
//!    one `corpus.jsonl` + `manifest.json`, byte-identical regardless of
//!    how many workers exported them, under the same identity/coverage/
//!    equal-or-reject rules as the journal merger.
//!
//! Everything here is host-side tooling; no simulation state lives in
//! this crate. The determinism burden is carried by the workspace
//! invariant (byte-identical artifacts across execution modes, thread
//! counts and indexing substrates), which is what makes "merge journals
//! from different machines" equivalent to "run it all here".

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod claim;
pub mod dataset;
pub mod merge;
pub mod worker;

pub use cache::{DiskCache, GcStats};
pub use claim::{default_unit_size, ClaimLedger, Lease, LeaseView};
pub use dataset::{merge_dataset_dirs, DatasetMergeReport, DirSink};
pub use merge::{
    index_ranges, merge_journals, merge_states, CoverageGap, IndexRange, MergeFailure,
};
pub use worker::ClaimSource;
