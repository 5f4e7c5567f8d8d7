use std::collections::BTreeMap;

use comfase_des::time::SimTime;

use crate::attack::{AttackModelKind, AttackSpec, FalsifiedField};
use crate::error::ComfaseError;

/// How the campaign executes its experiments. Every mode runs the same
/// [`DagPlan`] loop (see the module docs); the mode only picks the prefix
/// builder and whether the planner forms chains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Fork each experiment from a shared attack-free prefix snapshot —
    /// one snapshot per distinct attack start time — with no chains.
    PrefixFork,
    /// Simulate every experiment from t = 0. Slower; kept as the
    /// reference implementation for equivalence tests and benchmarks.
    FromScratch,
    /// Two-level snapshot reuse (the default): fork from the attack-free
    /// prefix *and*, for seed-invariant attack models, fork again
    /// mid-attack from a chain that simulates the shared attack segment
    /// once per distinct `(start, model, value, targets)` group.
    #[default]
    SnapshotDag,
}

/// One claimable unit of a campaign's experiment index space: the
/// `id`-th fixed-size chunk, covering indices `[lo, hi)`.
///
/// Work units are the currency of claim-driven execution
/// ([`WorkSource`](super::WorkSource)): every worker derives the identical unit table from
/// `(total, unit_size)` via [`plan_units`], claims units one at a time,
/// and a unit whose owner dies is stolen and re-executed by a survivor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Position of this unit in the campaign's unit table (0-based).
    pub id: usize,
    /// First experiment index covered (inclusive).
    pub lo: usize,
    /// Last experiment index covered (exclusive).
    pub hi: usize,
}
comfase_json::record!(ToJson, FromJson for WorkUnit { id, lo, hi });

impl WorkUnit {
    /// Number of experiment indices this unit covers.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// `true` when the unit covers no indices (only possible for a
    /// zero-experiment campaign).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Divides `0..total` into contiguous chunks of `unit_size` indices (the
/// last chunk may be shorter). Deterministic: every worker of a campaign
/// computes the identical table, so unit ids are a shared vocabulary
/// across processes.
///
/// # Errors
///
/// [`ComfaseError::InvalidConfig`] for `unit_size == 0`.
pub fn plan_units(total: usize, unit_size: usize) -> Result<Vec<WorkUnit>, ComfaseError> {
    if unit_size == 0 {
        return Err(ComfaseError::InvalidConfig(
            "work unit size must be at least 1".into(),
        ));
    }
    Ok((0..total.div_ceil(unit_size))
        .map(|id| WorkUnit {
            id,
            lo: id * unit_size,
            hi: ((id + 1) * unit_size).min(total),
        })
        .collect())
}

/// Execution counters of one campaign run. The run and DAG counters
/// cover the plan of every pending experiment in an in-process run, and
/// the plan units a claim-driven worker ran in a claim-driven one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Prefix snapshots built (one per distinct attack start time; 0 in
    /// [`ExecutionMode::FromScratch`]).
    pub prefix_snapshots: usize,
    /// Experiments forked from a prefix snapshot (and nothing deeper).
    pub forked_runs: usize,
    /// Experiments simulated from t = 0.
    pub scratch_runs: usize,
    /// Attack-segment chains executed
    /// ([`ExecutionMode::SnapshotDag`] only; 0 otherwise).
    pub attack_chains: usize,
    /// Experiments forked *mid-attack* from a chain — level-2 snapshot
    /// reuse on top of the prefix fork.
    pub chain_forked_runs: usize,
    /// Depth of the executed snapshot DAG: 0 when nothing was forked,
    /// 1 with prefix-level reuse only, 2 when attack-segment chains ran.
    pub dag_depth: usize,
    /// Experiments (plus the golden run) answered from the result cache
    /// without simulating.
    pub cache_hits: usize,
    /// Cache lookups that found no entry.
    pub cache_misses: usize,
    /// Cache lookups that found an unusable entry (torn write, corrupt
    /// JSON, key-echo mismatch, or a row shape the campaign cannot use) —
    /// treated as misses and overwritten.
    pub cache_stale: usize,
}

impl CampaignStats {
    /// Adds the runs of `plan`, whose solo units fork from a prefix
    /// snapshot when `forked` and run from t = 0 otherwise.
    pub(super) fn count(&mut self, plan: &DagPlan, forked: bool) {
        if forked {
            self.forked_runs += plan.solo_leaves();
            self.dag_depth = self.dag_depth.max(plan.depth());
        } else {
            self.scratch_runs += plan.solo_leaves();
        }
        self.attack_chains += plan.chains();
        self.chain_forked_runs += plan.chained_leaves();
    }

    /// Fraction of experiments that reused *any* snapshot (0.0–1.0) —
    /// prefix forks and mid-attack chain forks both count.
    pub fn snapshot_hit_rate(&self) -> f64 {
        self.level_hit_rates()[0]
    }

    /// Per-level snapshot hit rates, outermost first:
    ///
    /// - `[0]` — fraction of experiments that skipped the attack-free
    ///   prefix (forked at level 1 or deeper);
    /// - `[1]` — fraction that additionally skipped a shared attack
    ///   segment (forked mid-attack at level 2).
    ///
    /// `[0] >= [1]` always; both are 0.0 for an empty campaign.
    pub fn level_hit_rates(&self) -> [f64; 2] {
        let total = self.forked_runs + self.chain_forked_runs + self.scratch_runs;
        if total == 0 {
            return [0.0, 0.0];
        }
        [
            (self.forked_runs + self.chain_forked_runs) as f64 / total as f64,
            self.chain_forked_runs as f64 / total as f64,
        ]
    }

    /// Fraction of cache lookups (golden run included) that hit, 0.0–1.0;
    /// 0.0 when no cache was configured.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses + self.cache_stale;
        if lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / lookups as f64
    }
}

/// One schedulable unit of a [`DagPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagUnit {
    /// A single experiment, forked from its attack-free prefix snapshot —
    /// or simulated from t = 0 under [`ExecutionMode::FromScratch`]. In a
    /// chained plan: a seed-dependent model, or no sibling shares its
    /// attack segment.
    Solo {
        /// Experiment index in campaign expansion order.
        index: usize,
    },
    /// Experiments sharing `(start, model, value, targets)`: one world
    /// simulates the common attack segment once and each leaf forks off
    /// mid-attack at its own end time.
    Chain {
        /// Experiment indices, sorted by `(end, index)` so the chain
        /// advances monotonically. Always ≥ 2 entries.
        leaves: Vec<usize>,
    },
}

impl DagUnit {
    /// Experiment indices of this unit, in execution order.
    pub fn indices(&self) -> &[usize] {
        match self {
            DagUnit::Solo { index } => std::slice::from_ref(index),
            DagUnit::Chain { leaves } => leaves,
        }
    }
}

/// The schedulable units of a campaign run — for
/// [`ExecutionMode::SnapshotDag`], its fork-point tree flattened.
///
/// Every mode runs through a plan. Level 1 of the DAG (the attack-free
/// prefixes, one per distinct start time) is implicit — it is
/// materialised by [`Engine::prefix_snapshots_chained`] — so a plan only
/// enumerates the level-2 grouping: [`DagPlan::build`] chains experiments
/// that share an attack segment, [`DagPlan::unchained`] does not. Building
/// a plan is pure bookkeeping over the spec list: deterministic, and for
/// chained plans invariant under permutation of the *grid axes* because
/// groups live in a [`BTreeMap`] keyed by the attack coordinates rather
/// than by first-seen order.
///
/// [`Engine::prefix_snapshots_chained`]: crate::engine::Engine::prefix_snapshots_chained
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DagPlan {
    /// Schedulable units in canonical order: key-sorted when chained, in
    /// pending order otherwise. Worker threads claim whole units; results
    /// are independent of the claim order.
    pub units: Vec<DagUnit>,
}

/// Grouping key of one experiment: every coordinate of the attack except
/// its end time. Experiments with equal keys and a seed-invariant model
/// simulate identical event streams until their respective ends.
/// `value` is keyed by its bit pattern — grouping needs equality, not
/// numeric order (`-0.0` vs `0.0` would merely split a chain in two).
type ChainKey = (SimTime, u8, u8, u64, Vec<u32>);

/// The [`ChainKey`] of `spec`.
fn chain_key(spec: &AttackSpec) -> ChainKey {
    let (model, field) = match spec.model {
        AttackModelKind::Delay => (0u8, 0u8),
        AttackModelKind::Dos => (1, 0),
        AttackModelKind::Drop => (2, 0),
        AttackModelKind::Falsify(FalsifiedField::Position) => (3, 0),
        AttackModelKind::Falsify(FalsifiedField::Speed) => (3, 1),
        AttackModelKind::Falsify(FalsifiedField::Acceleration) => (3, 2),
    };
    (
        spec.start,
        model,
        field,
        spec.value.to_bits(),
        spec.targets.to_vec(),
    )
}

impl DagPlan {
    /// Plans the pending experiments of a campaign: groups them by every
    /// attack coordinate except the end time, chains every seed-invariant
    /// group of ≥ 2 leaves (sorted by end time), and leaves everything else
    /// as solo prefix forks.
    pub fn build(specs: &[AttackSpec], pending: &[usize]) -> DagPlan {
        let mut groups: BTreeMap<ChainKey, Vec<usize>> = BTreeMap::new();
        for &i in pending {
            groups.entry(chain_key(&specs[i])).or_default().push(i);
        }
        let mut units = Vec::new();
        for (_, mut leaves) in groups {
            if leaves.len() >= 2 && specs[leaves[0]].model.seed_invariant() {
                leaves.sort_by_key(|&i| (specs[i].end, i));
                units.push(DagUnit::Chain { leaves });
            } else {
                leaves.sort_unstable();
                units.extend(leaves.into_iter().map(|index| DagUnit::Solo { index }));
            }
        }
        DagPlan { units }
    }

    /// Plans the pending experiments without chains: one solo unit per
    /// experiment, in `pending` order — the plan of every mode except
    /// [`ExecutionMode::SnapshotDag`].
    pub fn unchained(pending: &[usize]) -> DagPlan {
        DagPlan {
            units: pending
                .iter()
                .map(|&index| DagUnit::Solo { index })
                .collect(),
        }
    }

    /// Number of chain units.
    pub fn chains(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, DagUnit::Chain { .. }))
            .count()
    }

    /// Experiments executed as chain leaves (level-2 forks).
    pub fn chained_leaves(&self) -> usize {
        self.units
            .iter()
            .map(|u| match u {
                DagUnit::Chain { leaves } => leaves.len(),
                DagUnit::Solo { .. } => 0,
            })
            .sum()
    }

    /// Experiments executed as solo prefix forks (level-1 only).
    pub fn solo_leaves(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, DagUnit::Solo { .. }))
            .count()
    }

    /// Total experiments covered by the plan.
    pub fn nr_leaves(&self) -> usize {
        self.solo_leaves() + self.chained_leaves()
    }

    /// Depth of the planned DAG (see [`CampaignStats::dag_depth`]).
    pub fn depth(&self) -> usize {
        if self.units.is_empty() {
            0
        } else if self.chains() > 0 {
            2
        } else {
            1
        }
    }
}
