//! Reassembling worker journals into one campaign artifact.
//!
//! Each worker process checkpoints the experiments it ran into a
//! standard journal (`comfase::journal`, schema v2): a header carrying
//! the campaign identity (seed, total, setup, canonical configuration
//! fingerprint), the golden metrics row, and one line per finished
//! experiment. The merger folds those journals back into the
//! [`CampaignMetrics`] a single-process run would have produced.
//!
//! **Why merge order cannot affect the bytes:** every journal line is
//! keyed by its experiment index, the golden row is identical in every
//! journal (same configuration, and the workspace's determinism
//! invariant makes the golden run reproducible), and
//! [`CampaignMetrics::build`] sorts rows by index before serializing.
//! The merger's only degrees of freedom are *checks* — identity,
//! coverage, agreement — not ordering, so any permutation of input
//! journals yields the same artifact or the same error.
//!
//! The checks are strict by design. Refused with a clear
//! [`ComfaseError`]: journals from different campaigns (any identity
//! field disagrees), an entry that disagrees with its own index
//! (`JournalState::check_entries`), two journals disagreeing about one
//! experiment, incomplete coverage of `0..total`, unresolved failures,
//! and journals written without telemetry (there are no rows to merge).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use comfase_obs::{CampaignMetrics, ExperimentMetrics};

use comfase::journal::{read_journal, JournalHeader, JournalState, JOURNAL_SCHEMA_VERSION};
use comfase::prelude::{ComfaseError, ExperimentRecord};

/// A half-open run `[lo, hi)` of experiment indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// First missing index of the run.
    pub lo: usize,
    /// One past the last missing index of the run.
    pub hi: usize,
}
comfase_json::record!(ToJson for IndexRange { lo, hi });

impl fmt::Display for IndexRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi == self.lo + 1 {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi - 1)
        }
    }
}

/// The exact coverage shortfall of a refused merge: which contiguous
/// index runs no journal completed. Serializes directly for
/// `repro --merge --format json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageGap {
    /// Experiments the campaign declares.
    pub total: usize,
    /// Experiments the merged journals completed.
    pub covered: usize,
    /// Every missing run, ascending, exact — never truncated.
    pub missing: Vec<IndexRange>,
}
comfase_json::record!(ToJson for CoverageGap { total, covered, missing });

impl CoverageGap {
    /// Number of missing experiments across all runs.
    pub fn missing_count(&self) -> usize {
        self.missing.iter().map(|r| r.hi - r.lo).sum()
    }
}

impl fmt::Display for CoverageGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let runs: Vec<String> = self.missing.iter().map(|r| r.to_string()).collect();
        write!(
            f,
            "merged journals cover {}/{} experiments; missing indices {}",
            self.covered,
            self.total,
            runs.join(", ")
        )
    }
}

/// Compresses a sorted, deduplicated index iterator into contiguous
/// half-open runs.
pub fn index_ranges(sorted: impl IntoIterator<Item = usize>) -> Vec<IndexRange> {
    let mut runs: Vec<IndexRange> = Vec::new();
    for index in sorted {
        match runs.last_mut() {
            Some(run) if run.hi == index => run.hi = index + 1,
            _ => runs.push(IndexRange {
                lo: index,
                hi: index + 1,
            }),
        }
    }
    runs
}

/// A refused merge: the error, plus the structured coverage shortfall
/// when the refusal was a coverage gap (machine-readable for
/// `--format json`; `None` for every other refusal kind).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeFailure {
    /// The refusal, message included.
    pub error: ComfaseError,
    /// Exact missing ranges, for coverage-gap refusals only.
    pub gap: Option<CoverageGap>,
}

impl fmt::Display for MergeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for MergeFailure {}

impl From<ComfaseError> for MergeFailure {
    fn from(error: ComfaseError) -> Self {
        MergeFailure { error, gap: None }
    }
}

/// Reads and merges worker journals into the campaign's metrics artifact.
///
/// # Errors
///
/// [`ComfaseError::Io`] for unreadable or malformed journals;
/// [`ComfaseError::InvalidConfig`] when the journals are well-formed but
/// do not assemble into one complete campaign (see the module docs for
/// the full list of refusals).
pub fn merge_journals<P: AsRef<Path>>(paths: &[P]) -> Result<CampaignMetrics, ComfaseError> {
    merge_journals_detailed(paths).map_err(|f| f.error)
}

/// As [`merge_journals`], but a coverage-gap refusal carries the exact
/// missing ranges as data ([`MergeFailure::gap`]).
///
/// # Errors
///
/// As for [`merge_journals`].
pub fn merge_journals_detailed<P: AsRef<Path>>(
    paths: &[P],
) -> Result<CampaignMetrics, MergeFailure> {
    let states = paths
        .iter()
        .map(|p| read_journal(p.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    merge_states_detailed(&states)
}

/// Merges already-parsed journal states. Separated from
/// [`merge_journals`] so the merge logic is testable without touching
/// the filesystem.
///
/// # Errors
///
/// As for [`merge_journals`].
pub fn merge_states(states: &[JournalState]) -> Result<CampaignMetrics, ComfaseError> {
    merge_states_detailed(states).map_err(|f| f.error)
}

/// As [`merge_states`], with the structured coverage gap on refusal.
///
/// # Errors
///
/// As for [`merge_journals`].
pub fn merge_states_detailed(states: &[JournalState]) -> Result<CampaignMetrics, MergeFailure> {
    if states.is_empty() {
        return Err(
            ComfaseError::InvalidConfig("merge requires at least one journal".into()).into(),
        );
    }

    // Identity: every journal must declare the same campaign.
    let headers: Vec<&JournalHeader> = states
        .iter()
        .enumerate()
        .map(|(n, s)| {
            s.header.as_ref().ok_or_else(|| {
                ComfaseError::Io(format!(
                    "journal #{n} has no header line; refusing to merge"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let first = headers[0];
    for (n, header) in headers.iter().enumerate() {
        if header.schema_version != JOURNAL_SCHEMA_VERSION {
            return Err(ComfaseError::Io(format!(
                "journal #{n}: schema version {} != supported {JOURNAL_SCHEMA_VERSION}",
                header.schema_version
            ))
            .into());
        }
        if header.seed != first.seed
            || header.total != first.total
            || header.fingerprint != first.fingerprint
            || header.setup != first.setup
        {
            return Err(ComfaseError::InvalidConfig(format!(
                "journal #{n} belongs to a different campaign than journal #0 \
                 (seed {} vs {}, {} vs {} experiments, fingerprint {:016x} vs {:016x})",
                header.seed,
                first.seed,
                header.total,
                first.total,
                header.fingerprint,
                first.fingerprint
            ))
            .into());
        }
    }
    let total = first.total;

    // Fold completions, checking every entry against its own index and
    // cross-journal agreement; collect every journal's failures for the
    // global resolution check below.
    let mut merged: BTreeMap<usize, (ExperimentRecord, Option<ExperimentMetrics>)> =
        BTreeMap::new();
    let mut golden: Option<ExperimentMetrics> = None;
    let mut failures: BTreeMap<usize, (usize, &'static str)> = BTreeMap::new();
    for (n, state) in states.iter().enumerate() {
        state
            .check_entries(total, None)
            .map_err(|e| ComfaseError::Io(format!("journal #{n}: {e}")))?;
        for (&index, entry) in &state.completed {
            match merged.get(&index) {
                Some(existing) if existing != entry => {
                    return Err(ComfaseError::InvalidConfig(format!(
                        "journal #{n}: experiment {index} disagrees with an \
                         earlier journal's record for the same index"
                    ))
                    .into());
                }
                Some(_) => {}
                None => {
                    merged.insert(index, entry.clone());
                }
            }
        }
        if let Some(row) = &state.golden {
            match &golden {
                Some(existing) if existing != row => {
                    return Err(ComfaseError::InvalidConfig(format!(
                        "journal #{n}: golden metrics row disagrees with an \
                         earlier journal's — the workers did not run the same \
                         configuration"
                    ))
                    .into());
                }
                _ => golden = Some(row.clone()),
            }
        }
        for (&index, failure) in &state.failures {
            failures.entry(index).or_insert((n, failure.kind.name()));
        }
    }

    // Failure resolution is **global**: a failure blocks the merge only
    // when *no* journal completed the index. Under work stealing a
    // killed worker legitimately journals a failure that the stealing
    // survivor resolves in *its own* journal, so a per-journal check
    // would refuse exactly the recoveries the claim protocol exists to
    // produce.
    if let Some((&index, &(n, kind))) = failures.iter().find(|(i, _)| !merged.contains_key(i)) {
        return Err(ComfaseError::InvalidConfig(format!(
            "experiment {index} failed ({kind}, journal #{n}) and no journal \
             re-ran it to completion; resume a worker before merging"
        ))
        .into());
    }

    // Coverage: the union of the journals must be the whole campaign.
    // A shortfall is reported as exact contiguous ranges — on an 11 250
    // experiment campaign "missing indices 3750-5624" names the stranded
    // units outright.
    if merged.len() != total {
        let gap = CoverageGap {
            total,
            covered: merged.len(),
            missing: index_ranges((0..total).filter(|i| !merged.contains_key(i))),
        };
        return Err(MergeFailure {
            error: ComfaseError::InvalidConfig(gap.to_string()),
            gap: Some(gap),
        });
    }

    let golden = golden.ok_or_else(|| {
        ComfaseError::InvalidConfig(
            "no journal carries a golden metrics row; the workers ran without \
             telemetry, so there is no metrics artifact to merge"
                .into(),
        )
    })?;
    let rows = merged
        .into_iter()
        .map(|(index, (_, row))| {
            row.ok_or_else(|| {
                ComfaseError::InvalidConfig(format!(
                    "experiment {index} has no metrics row; its worker ran \
                     without telemetry"
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignMetrics::build(rows, Some(golden)))
}

// The tests below build `JournalState` values directly (no files, no
// JSON): the merge logic is pure, and the end-to-end path through real
// worker journals is covered by `tests/tests/dist.rs` and `steal.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use comfase::prelude::{
        AttackCampaignSetup, AttackModelKind, AttackSpec, Classification, Verdict,
    };
    use comfase_des::time::SimTime;

    const FP: u64 = 0x5eed_f00d_0000_0001;

    fn setup() -> AttackCampaignSetup {
        AttackCampaignSetup {
            attack_model: AttackModelKind::Delay,
            target_vehicles: vec![2],
            attack_values: vec![1.0, 2.0],
            attack_starts_s: vec![17.0],
            attack_durations_s: vec![5.0, 10.0],
        }
    }

    fn record(index: usize) -> (ExperimentRecord, Option<ExperimentMetrics>) {
        let spec = AttackSpec {
            model: AttackModelKind::Delay,
            value: 1.0 + index as f64,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(22),
        };
        let verdict = Verdict {
            class: Classification::Negligible,
            max_decel_mps2: 1.0 + index as f64 / 10.0,
            max_speed_deviation_mps: 0.1,
            first_collision: None,
            nr_collisions: 0,
        };
        let row = ExperimentMetrics {
            index,
            classification: "Negligible".to_string(),
            max_decel_mps2: 1.0 + index as f64 / 10.0,
            ..ExperimentMetrics::default()
        };
        (
            ExperimentRecord {
                index,
                spec,
                verdict,
            },
            Some(row),
        )
    }

    fn golden_row() -> ExperimentMetrics {
        ExperimentMetrics {
            index: 0,
            classification: "Golden".to_string(),
            max_decel_mps2: 0.9,
            ..ExperimentMetrics::default()
        }
    }

    /// A journal state covering `indices` of a `total`-experiment
    /// campaign.
    fn state(total: usize, indices: &[usize]) -> JournalState {
        JournalState {
            header: Some(JournalHeader {
                schema_version: JOURNAL_SCHEMA_VERSION,
                seed: 42,
                total,
                fingerprint: FP,
                setup: setup(),
            }),
            golden: Some(golden_row()),
            completed: indices.iter().map(|&i| (i, record(i))).collect(),
            failures: BTreeMap::new(),
        }
    }

    fn is_invalid(err: ComfaseError) -> bool {
        matches!(err, ComfaseError::InvalidConfig(_))
    }

    #[test]
    fn merging_split_journals_equals_the_single_journal() {
        let total = 5;
        let whole = state(total, &[0, 1, 2, 3, 4]);
        let reference = merge_states(std::slice::from_ref(&whole)).unwrap();
        let a = state(total, &[0, 1]);
        let b = state(total, &[2, 3, 4]);
        // Both input orders produce the identical artifact.
        let ab = merge_states(&[a.clone(), b.clone()]).unwrap();
        let ba = merge_states(&[b, a]).unwrap();
        assert_eq!(reference, ab);
        assert_eq!(ab, ba);
    }

    #[test]
    fn identity_mismatches_are_rejected() {
        let total = 2;
        let a = state(total, &[0]);
        let mut b = state(total, &[1]);
        b.header.as_mut().unwrap().fingerprint ^= 1;
        assert!(is_invalid(merge_states(&[a.clone(), b]).unwrap_err()));
        let mut c = state(total, &[1]);
        c.header.as_mut().unwrap().seed ^= 1;
        assert!(is_invalid(merge_states(&[a, c]).unwrap_err()));
    }

    #[test]
    fn incomplete_coverage_is_rejected_with_the_exact_missing_ranges() {
        let total = 4;
        let a = state(total, &[0, 1]);
        let err = merge_states(std::slice::from_ref(&a)).unwrap_err();
        let msg = err.to_string();
        assert!(is_invalid(err));
        assert!(msg.contains("2-3"), "unexpected message: {msg}");
        // The detailed API carries the gap as data.
        let failure = merge_states_detailed(&[a]).unwrap_err();
        let gap = failure.gap.expect("a coverage gap carries structure");
        assert_eq!(gap.total, 4);
        assert_eq!(gap.covered, 2);
        assert_eq!(gap.missing, vec![IndexRange { lo: 2, hi: 4 }]);
        assert_eq!(gap.missing_count(), 2);
    }

    #[test]
    fn coverage_gap_reports_every_disjoint_run_exactly() {
        let total = 12;
        // Covered: 0, 2-3, 7, 11 → missing runs 1, 4-6, 8-10.
        let a = state(total, &[0, 2, 3, 7, 11]);
        let failure = merge_states_detailed(&[a]).unwrap_err();
        let gap = failure.gap.unwrap();
        assert_eq!(
            gap.missing,
            vec![
                IndexRange { lo: 1, hi: 2 },
                IndexRange { lo: 4, hi: 7 },
                IndexRange { lo: 8, hi: 11 },
            ]
        );
        assert_eq!(gap.missing_count(), 7);
        assert_eq!(
            gap.to_string(),
            "merged journals cover 5/12 experiments; missing indices 1, 4-6, 8-10"
        );
        // Non-gap refusals carry no structure.
        let plain = merge_states_detailed(&[]).unwrap_err();
        assert!(plain.gap.is_none());
    }

    #[test]
    fn coverage_gap_serializes_half_open_ranges() {
        // Machine-readable (`--format json`): the gap serializes with
        // half-open ranges.
        let a = state(12, &[0, 2, 3, 7, 11]);
        let gap = merge_states_detailed(&[a]).unwrap_err().gap.unwrap();
        let json = comfase_json::to_string(&gap);
        assert!(json.contains("\"missing\":[{\"lo\":1,\"hi\":2}"), "{json}");
    }

    #[test]
    fn index_ranges_compresses_runs() {
        assert!(index_ranges([]).is_empty());
        assert_eq!(
            index_ranges([5]),
            vec![IndexRange { lo: 5, hi: 6 }],
            "a singleton is a width-1 run"
        );
        assert_eq!(
            index_ranges([0, 1, 2, 9, 10, 12]),
            vec![
                IndexRange { lo: 0, hi: 3 },
                IndexRange { lo: 9, hi: 11 },
                IndexRange { lo: 12, hi: 13 },
            ]
        );
    }

    #[test]
    fn entries_that_disagree_with_their_index_are_rejected_as_corrupt() {
        let total = 3;
        let is_corrupt = |s: JournalState| matches!(merge_states(&[s]), Err(ComfaseError::Io(_)));
        // A metrics row moved to another index: the journal still covers
        // 0..3, but the artifact would list experiment 2's row twice.
        let mut moved = state(total, &[0, 1, 2]);
        if let Some((_, Some(row))) = moved.completed.get_mut(&1) {
            row.index = 2;
        }
        assert!(is_corrupt(moved));
        // A record naming another index.
        let mut renamed = state(total, &[0, 1, 2]);
        if let Some((record, _)) = renamed.completed.get_mut(&0) {
            record.index = 1;
        }
        assert!(is_corrupt(renamed));
        // A phantom experiment past the end of the campaign.
        let mut phantom = state(total, &[0, 1, 2]);
        phantom.completed.insert(total, record(total));
        assert!(is_corrupt(phantom));
        assert!(merge_states(&[state(total, &[0, 1, 2])]).is_ok());
    }

    #[test]
    fn conflicting_records_for_one_index_are_rejected() {
        let total = 2;
        let a = state(total, &[0, 1]);
        let mut b = state(total, &[0, 1]);
        if let Some((record, _)) = b.completed.get_mut(&1) {
            record.verdict.max_decel_mps2 += 1.0;
        }
        assert!(is_invalid(merge_states(&[a, b]).unwrap_err()));
    }

    #[test]
    fn unresolved_failures_block_the_merge() {
        use comfase::prelude::{ExperimentFailure, FailureKind};
        let total = 2;
        let mut a = state(total, &[0, 1]);
        a.failures.insert(
            1,
            ExperimentFailure {
                index: 1,
                kind: FailureKind::Panicked,
                payload: "boom".to_string(),
                seed: 42,
                spec: record(1).0.spec,
                attempts: 1,
            },
        );
        // A failure later re-run to completion (index present in
        // `completed`) does not block…
        a.completed.insert(1, record(1));
        assert!(merge_states(std::slice::from_ref(&a)).is_ok());
        // …but an unresolved one does.
        a.completed.remove(&1);
        let err = merge_states(std::slice::from_ref(&a)).unwrap_err();
        assert!(err.to_string().contains("resume"), "got: {err}");
        // Resolution is global: a *different* journal completing the
        // index resolves the failure — the work-stealing recovery shape,
        // where the victim journals the failure and the thief the
        // completion.
        let thief = state(total, &[1]);
        assert!(
            merge_states(&[a.clone(), thief.clone()]).is_ok(),
            "a survivor's completion must resolve the victim's failure"
        );
        assert!(merge_states(&[thief, a]).is_ok(), "in either input order");
    }

    #[test]
    fn missing_golden_or_rows_are_rejected() {
        let total = 1;
        let mut a = state(total, &[0]);
        a.golden = None;
        assert!(is_invalid(
            merge_states(std::slice::from_ref(&a)).unwrap_err()
        ));
        let mut b = state(total, &[0]);
        if let Some((_, row)) = b.completed.get_mut(&0) {
            *row = None;
        }
        assert!(is_invalid(
            merge_states(std::slice::from_ref(&b)).unwrap_err()
        ));
    }
}
