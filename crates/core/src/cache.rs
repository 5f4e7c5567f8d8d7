//! Content-addressed result cache — the campaign-side contract.
//!
//! Attack-injection campaigns overlap heavily in practice: re-running the
//! Table II grid after a harness change, sweeping a finer stride over the
//! same axes, or splitting one grid across worker processes all re-simulate
//! experiments whose outcome is already known. The cache keys each
//! experiment by everything that determines its result and returns the
//! journaled row without simulating on a hit.
//!
//! Entries hold verdicts only: the classified record and the metrics row.
//! A campaign exporting a dataset simulates every experiment, because
//! rendering a shard costs more than the simulation that produces its
//! rows, and still stores verdict-only entries for plain runs to hit.
//! The golden run is never cached: every campaign simulates it, which
//! costs less than loading its whole log would, so the cache counts of
//! [`CampaignStats`](crate::campaign::CampaignStats) cover experiments
//! only.
//!
//! This module defines only the *types* of that contract — the key
//! derivation, the cached payloads, and the [`ExperimentCache`] trait the
//! campaign runner talks to. The on-disk store lives in the `comfase-dist`
//! crate, keeping file I/O out of the simulation core.
//!
//! # Key derivation
//!
//! A [`CacheKey`] is `(spec_hash, seed, config_hash)`:
//!
//! - `spec_hash` — FNV-1a 64 of the canonical JSON of the
//!   [`AttackSpec`](crate::attack::AttackSpec) (model, value bits, targets,
//!   time window);
//! - `seed` — the engine seed for seed-*invariant* attack models (their
//!   interceptors ignore the per-experiment RNG stream, so one entry
//!   serves the spec at any experiment index, across campaigns and
//!   strides), or `engine_seed ^ experiment_index` for seed-dependent
//!   models (probabilistic drop), whose results genuinely depend on the
//!   derived stream;
//! - `config_hash` — FNV-1a 64 over the canonical JSON of the traffic
//!   scenario, communication model, event budget and telemetry
//!   configuration (metrics flag and trace capacity): everything *besides*
//!   the spec and seed that can move a result. Execution mode, thread
//!   count, indexing substrate and the dataset capture flag are excluded —
//!   all are proven byte-identity-preserving for verdicts and metrics, so
//!   entries are shared across them.
//!
//! Cached records and metrics rows are index-free by construction (the
//! stored `index` is rewritten to the hitting campaign's index on load),
//! which is what lets a stride-5 campaign hit entries written by the full
//! grid.

use comfase_obs::ExperimentMetrics;

use crate::campaign::ExperimentRecord;
use crate::error::ComfaseError;
use crate::fingerprint::{canonical_json, fnv1a64};

/// Content address of one cached experiment result. See the module docs
/// for the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// FNV-1a 64 of the canonical JSON of the attack spec.
    pub spec_hash: u64,
    /// Engine seed, XOR-mixed with the experiment index for
    /// seed-dependent attack models only.
    pub seed: u64,
    /// FNV-1a 64 over scenario + comm model + budget + telemetry config.
    pub config_hash: u64,
}
comfase_json::record!(ToJson, FromJson for CacheKey { spec_hash, seed, config_hash });

impl CacheKey {
    /// Canonical file-stem of this key (three fixed-width hex words) —
    /// stable across platforms, safe as a file name.
    pub fn stem(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}",
            self.spec_hash, self.seed, self.config_hash
        )
    }

    /// Key of one experiment. `spec_json` must be the canonical JSON of
    /// its [`AttackSpec`](crate::attack::AttackSpec).
    pub fn experiment(spec_json: &[u8], seed_component: u64, config_hash: u64) -> CacheKey {
        CacheKey {
            spec_hash: fnv1a64(spec_json),
            seed: seed_component,
            config_hash,
        }
    }
}

/// One cached payload: a completed experiment's classified record plus
/// the metrics row when the writing campaign collected telemetry. Both are
/// index-free, and an entry never holds a dataset capture (see the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The classified record (spec + verdict).
    pub record: ExperimentRecord,
    /// Per-experiment metrics row, when collected.
    pub metrics: Option<ExperimentMetrics>,
}
comfase_json::record!(ToJson, FromJson for CacheEntry { record, #[skip_empty] metrics });

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry was found.
    Hit(Box<CacheEntry>),
    /// No entry exists for the key.
    Miss,
    /// An entry exists but is unusable — torn write, corrupt JSON, or a
    /// key echo that does not match (hash collision or tampering). Stale
    /// entries are treated as misses and overwritten by the next store.
    Stale,
}

/// A content-addressed store of experiment results.
///
/// Implementations must be safe to share across campaign worker threads;
/// `load`/`store` may be called concurrently for distinct keys.
/// Implementations must write whole entries atomically — a torn entry
/// must surface as [`CacheLookup::Stale`] on the next load, never as a
/// wrong result.
pub trait ExperimentCache: Send + Sync + std::fmt::Debug {
    /// Looks up `key`.
    fn load(&self, key: &CacheKey) -> CacheLookup;

    /// Stores `entry` under `key`, replacing any existing entry.
    ///
    /// # Errors
    ///
    /// Host I/O failures. The campaign treats a store failure like a
    /// journal append failure — the first error aborts the run — because
    /// a silently dropped entry would force a re-simulation the user
    /// believes is cached.
    fn store(&self, key: &CacheKey, entry: &CacheEntry) -> Result<(), ComfaseError>;
}

/// Cache-side view of one campaign configuration: the pieces of a
/// [`CacheKey`] that are constant across the campaign's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKeyBase {
    /// The engine seed.
    pub seed: u64,
    /// See [`CacheKey::config_hash`].
    pub config_hash: u64,
}

impl CacheKeyBase {
    /// Key of one experiment at `index` with canonical spec JSON
    /// `spec_json`; `seed_invariant` is the attack model's
    /// [`seed_invariant`](crate::attack::AttackModelKind::seed_invariant)
    /// flag.
    pub fn experiment_key(&self, spec_json: &[u8], index: usize, seed_invariant: bool) -> CacheKey {
        let seed_component = if seed_invariant {
            self.seed
        } else {
            self.seed ^ index as u64
        };
        CacheKey::experiment(spec_json, seed_component, self.config_hash)
    }
}

/// Hashes the campaign-constant key components. `obs.dataset` is left
/// out: capture changes neither verdicts nor metrics, so dataset runs and
/// plain runs share entries.
pub fn config_hash(
    scenario: &crate::config::TrafficScenario,
    comm: &crate::config::CommModel,
    budget: comfase_des::sim::EventBudget,
    obs: comfase_obs::ObsConfig,
) -> u64 {
    use crate::fingerprint::fnv1a64_extend;
    let mut hash = fnv1a64(b"comfase-cache-config-v2");
    for bytes in [
        canonical_json(scenario),
        canonical_json(comm),
        canonical_json(&budget.max_delivered),
        canonical_json(&budget.max_sim_time),
    ] {
        hash = fnv1a64_extend(hash, &(bytes.len() as u64).to_le_bytes());
        hash = fnv1a64_extend(hash, &bytes);
    }
    hash = fnv1a64_extend(hash, &[u8::from(obs.metrics)]);
    fnv1a64_extend(hash, &(obs.trace_capacity as u64).to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stem_is_fixed_width_hex() {
        let key = CacheKey {
            spec_hash: 0x1,
            seed: 0xabcd,
            config_hash: u64::MAX,
        };
        assert_eq!(
            key.stem(),
            "0000000000000001-000000000000abcd-ffffffffffffffff"
        );
    }

    #[test]
    fn seed_component_mixes_index_only_for_seed_dependent_models() {
        let base = CacheKeyBase {
            seed: 42,
            config_hash: 7,
        };
        let invariant = base.experiment_key(b"{}", 5, true);
        assert_eq!(invariant.seed, 42);
        let dependent = base.experiment_key(b"{}", 5, false);
        assert_eq!(dependent.seed, 42 ^ 5);
    }
}
