// comfase-lint: host-region(reason = "journal writer: durable append-only file I/O at the campaign boundary; entries are keyed by experiment index so replay order cannot affect merged metrics")

//! Append-only campaign journal for checkpoint and continuation.
//!
//! A campaign run with a journal path writes one JSON line per *finished*
//! experiment — completed or failed — to an append-only file, fsync'd after
//! every line. If the process is killed (OOM, SIGKILL, power loss), a later
//! run on the same [`RunConfig::journal`](crate::campaign::RunConfig::journal)
//! continues the journal: it skips the experiments already completed,
//! re-runs the failed and missing ones, and produces a
//! [`CampaignResult`](crate::campaign::CampaignResult) whose metrics are
//! **byte-identical** to an uninterrupted run:
//!
//! - every journal line is a self-contained [`JournalEntry`] — no state is
//!   spread across lines, so replay order does not matter (the campaign
//!   sorts by experiment index when merging);
//! - [`ExperimentMetrics`] survive a JSON round-trip exactly (`comfase-json`
//!   prints `f64` in its shortest round-trip decimal form and parses it
//!   back to the same bits), so journaled rows merge bit-for-bit with
//!   fresh ones;
//! - the header pins the campaign identity (engine seed, experiment count,
//!   attack campaign setup), and a run refuses to continue a journal
//!   written by a different campaign;
//! - every entry must agree with the index it is journaled under
//!   ([`JournalState::check_entries`]), and an entry with an unknown or
//!   duplicated key does not decode at all, so a damaged line that still
//!   parses as JSON is refused instead of becoming a wrong result.
//!
//! # Torn writes
//!
//! Every entry is written as one newline-terminated line, so a kill can
//! only leave an *unterminated* tail behind. The reader ignores that tail
//! (the experiment it described is simply re-run), and a continuing writer
//! cuts it off before appending, so the next entry starts on a line of its
//! own. A terminated line that does not parse was not torn by a kill; it
//! is reported as a corrupt journal.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use std::collections::BTreeMap;

use comfase_json::{Error as JsonError, Fields, FromJson, ToJson, Value, Writer};
use comfase_obs::ExperimentMetrics;

use crate::attack::AttackSpec;
use crate::campaign::{ExperimentFailure, ExperimentRecord};
use crate::config::AttackCampaignSetup;
use crate::error::ComfaseError;

/// Version stamp written in the journal header; bumped on breaking layout
/// changes so continuing or merging an old journal fails loudly.
///
/// v2: the header carries the canonical campaign fingerprint (full-config
/// identity — see [`crate::fingerprint`]), and a `golden` entry with the
/// golden-run metrics row follows the header so worker journals merge
/// into a complete `metrics.json` without re-simulating anything. Headers
/// written by static-shard runs also carry a `shard` key, which readers
/// ignore.
pub const JOURNAL_SCHEMA_VERSION: u32 = 2;

/// One line of the campaign journal.
///
/// Entries are transient — built, serialized, and dropped one at a time —
/// so the size imbalance between the fat `Completed` variant and the thin
/// `Failed` one costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// First line of every journal: identifies the campaign the journal
    /// belongs to ([`JournalState::check_identity`]).
    Header(JournalHeader),
    /// Second line of every journal: the golden (attack-free) reference
    /// run's metrics row, present when the campaign collects telemetry.
    /// Recorded so worker journals carry everything `metrics.json` needs —
    /// a merge never re-simulates.
    Golden {
        /// Golden-run metrics row ([`ExperimentMetrics`]), when collected.
        metrics: Option<ExperimentMetrics>,
    },
    /// An experiment finished successfully.
    Completed {
        /// Experiment index within the expanded campaign.
        index: usize,
        /// The classified record (spec + verdict).
        record: ExperimentRecord,
        /// Per-experiment metrics row, present when the campaign collects
        /// metrics. Required for a continued run to reproduce
        /// `metrics.json` byte-identically.
        metrics: Option<ExperimentMetrics>,
    },
    /// An experiment failed.
    Failed {
        /// The structured failure description.
        failure: ExperimentFailure,
    },
}

/// Internally tagged: `{"entry":"header",…}`, `{"entry":"golden",…}`,
/// `{"entry":"completed",…}`, `{"entry":"failed",…}`.
impl ToJson for JournalEntry {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_object();
        match self {
            JournalEntry::Header(header) => {
                w.field("entry", "header");
                w.field("schema_version", &header.schema_version);
                w.field("seed", &header.seed);
                w.field("total", &header.total);
                w.field("fingerprint", &header.fingerprint);
                w.field("setup", &header.setup);
            }
            JournalEntry::Golden { metrics } => {
                w.field("entry", "golden");
                if metrics.is_some() {
                    w.field("metrics", metrics);
                }
            }
            JournalEntry::Completed {
                index,
                record,
                metrics,
            } => {
                w.field("entry", "completed");
                w.field("index", index);
                w.field("record", record);
                if metrics.is_some() {
                    w.field("metrics", metrics);
                }
            }
            JournalEntry::Failed { failure } => {
                w.field("entry", "failed");
                w.field("failure", failure);
            }
        }
        w.end_object();
    }
}

impl FromJson for JournalEntry {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut fields = Fields::new(v, "JournalEntry")?;
        let entry = match fields.get::<String>("entry")?.as_str() {
            "header" => {
                // Static-shard runs wrote a `shard` key; it is ignored.
                fields.ignore("shard");
                JournalEntry::Header(JournalHeader {
                    schema_version: fields.get("schema_version")?,
                    seed: fields.get("seed")?,
                    total: fields.get("total")?,
                    fingerprint: fields.get_or_default("fingerprint")?,
                    setup: fields.get("setup")?,
                })
            }
            "golden" => JournalEntry::Golden {
                metrics: fields.get("metrics")?,
            },
            "completed" => JournalEntry::Completed {
                index: fields.get("index")?,
                record: fields.get("record")?,
                metrics: fields.get("metrics")?,
            },
            "failed" => JournalEntry::Failed {
                failure: fields.get("failure")?,
            },
            other => return Err(JsonError::new(format!("unknown journal entry `{other}`"))),
        };
        fields.finish()?;
        Ok(entry)
    }
}

/// Serialised writer appending fsync'd JSON lines to a journal file.
///
/// All campaign workers share one writer behind a mutex: a journal line is
/// written and flushed to disk *before* the experiment is counted done, so
/// a kill at any instant loses at most the experiment currently in flight.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
    path: PathBuf,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header line.
    /// The parent directory is fsync'd once the file exists: a claim
    /// worker's done markers survive a crash, so the journal holding
    /// those units' rows must too.
    pub fn create(path: &Path, header: &JournalEntry) -> Result<Self, ComfaseError> {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::create_dir_all(dir).map_err(|e| io_err(path, &e))?;
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err(dir, &e))?;
        let writer = JournalWriter {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        };
        writer.append(header)?;
        Ok(writer)
    }

    /// Opens an existing journal at `path` for appending, first
    /// cutting off an unterminated tail — the remnant of a write a kill
    /// interrupted, which [`read_journal`] ignores.
    pub fn append_to(path: &Path) -> Result<Self, ComfaseError> {
        let contents = std::fs::read(path).map_err(|e| io_err(path, &e))?;
        let terminated = contents
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        if terminated < contents.len() {
            file.set_len(terminated as u64)
                .map_err(|e| io_err(path, &e))?;
        }
        Ok(JournalWriter {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        })
    }

    /// Appends one entry as a single JSON line and fsyncs the file data.
    pub fn append(&self, entry: &JournalEntry) -> Result<(), ComfaseError> {
        let mut line = comfase_json::to_string(entry).into_bytes();
        line.push(b'\n');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(&line).map_err(|e| io_err(&self.path, &e))?;
        file.sync_data().map_err(|e| io_err(&self.path, &e))?;
        Ok(())
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> ComfaseError {
    ComfaseError::Io(format!("journal {}: {e}", path.display()))
}

/// The campaign identity a journal's first line records.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Journal layout version ([`JOURNAL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Engine seed of the writing campaign.
    pub seed: u64,
    /// Total number of experiments in the expanded campaign.
    pub total: usize,
    /// Canonical fingerprint of the full campaign configuration (seed,
    /// scenario, comm model, setup, budget, telemetry — see
    /// [`crate::fingerprint::campaign_fingerprint`]). Continuing and
    /// merging refuse journals whose fingerprint differs: the `setup`
    /// field alone cannot see a changed scenario or communication model.
    pub fingerprint: u64,
    /// The attack campaign setup (expansion input).
    pub setup: AttackCampaignSetup,
}

/// Parsed journal contents, deduplicated by experiment index (last wins).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Header fields, if a header line was present.
    pub header: Option<JournalHeader>,
    /// Golden-run metrics row, if a golden entry carried one.
    pub golden: Option<ExperimentMetrics>,
    /// Completed experiments by index: record plus optional metrics row.
    pub completed: BTreeMap<usize, (ExperimentRecord, Option<ExperimentMetrics>)>,
    /// Terminal failures by index. An index later journaled as completed
    /// (a successful re-run in a continuation) is removed from this map.
    pub failures: BTreeMap<usize, ExperimentFailure>,
}

impl JournalState {
    /// Verifies the journal was written by the campaign `expected`
    /// identifies — same seed, experiment count, setup and canonical
    /// full-config fingerprint — under the supported schema version
    /// [`JOURNAL_SCHEMA_VERSION`] (`expected.schema_version` is not read).
    /// A run checks the journal it continues against its own identity,
    /// and the journal merger checks every journal against the first.
    ///
    /// A malformed journal (no header, unsupported schema) is
    /// [`ComfaseError::Io`]; a well-formed journal that belongs to a
    /// *different* campaign is [`ComfaseError::InvalidConfig`] — the
    /// caller's configuration, not the file, is what disagrees.
    pub fn check_identity(&self, expected: &JournalHeader) -> Result<(), ComfaseError> {
        let Some(header) = &self.header else {
            return Err(ComfaseError::Io("journal has no header line".into()));
        };
        if header.schema_version != JOURNAL_SCHEMA_VERSION {
            return Err(ComfaseError::Io(format!(
                "journal schema version {} != supported {JOURNAL_SCHEMA_VERSION}",
                header.schema_version
            )));
        }
        if header.seed != expected.seed
            || header.total != expected.total
            || header.setup != expected.setup
        {
            return Err(ComfaseError::InvalidConfig(format!(
                "journal belongs to a different campaign \
                 (journal: seed {}, {} experiments; \
                 expected: seed {}, {} experiments)",
                header.seed, header.total, expected.seed, expected.total
            )));
        }
        if header.fingerprint != expected.fingerprint {
            return Err(ComfaseError::InvalidConfig(format!(
                "journal belongs to a different campaign configuration \
                 (journal fingerprint {:016x}, expected {:016x}): \
                 the scenario, comm model, budget or telemetry config changed",
                header.fingerprint, expected.fingerprint
            )));
        }
        Ok(())
    }

    /// Verifies that every entry agrees with the index it is journaled
    /// under: the index lies in `0..total`, a completed record and its
    /// metrics row (and a failure) carry that same index, and — when
    /// `specs` is given — the record's attack spec is the campaign's spec
    /// at that index. A damaged line that still parses would otherwise
    /// add a phantom record or move a metrics row to another index, so
    /// any disagreement is a corrupt journal ([`ComfaseError::Io`]).
    /// A continuing run (with the campaign's specs) and the merger
    /// (without) both call this.
    pub fn check_entries(
        &self,
        total: usize,
        specs: Option<&[AttackSpec]>,
    ) -> Result<(), ComfaseError> {
        let corrupt = |index: usize, what: &str| {
            Err(ComfaseError::Io(format!(
                "corrupt journal entry for experiment {index}: {what}"
            )))
        };
        for (&index, (record, row)) in &self.completed {
            if index >= total {
                return corrupt(index, &format!("out of range for {total} experiments"));
            }
            if record.index != index || row.as_ref().is_some_and(|row| row.index != index) {
                return corrupt(index, "its record or metrics row names another index");
            }
            if specs.is_some_and(|specs| record.spec != specs[index]) {
                return corrupt(index, "its attack spec differs from the campaign's");
            }
        }
        for (&index, failure) in &self.failures {
            if index >= total || failure.index != index {
                return corrupt(index, "its failure is out of range or names another index");
            }
        }
        Ok(())
    }
}

/// Reads and folds a journal file into a [`JournalState`].
///
/// Ignores an unterminated (torn-write) tail; a terminated line that
/// does not parse is an error. See the module docs for the rationale.
pub fn read_journal(path: &Path) -> Result<JournalState, ComfaseError> {
    let contents = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let terminated = contents.rfind('\n').map_or("", |end| &contents[..end]);
    let mut state = JournalState::default();
    for (lineno, line) in terminated.split('\n').enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: JournalEntry = comfase_json::from_str(line).map_err(|e| {
            ComfaseError::Io(format!(
                "journal {}: corrupt entry at line {}: {e}",
                path.display(),
                lineno + 1
            ))
        })?;
        match entry {
            JournalEntry::Header(header) => {
                state.header = Some(header);
            }
            JournalEntry::Golden { metrics } => {
                state.golden = metrics;
            }
            JournalEntry::Completed {
                index,
                record,
                metrics,
            } => {
                state.failures.remove(&index);
                state.completed.insert(index, (record, metrics));
            }
            JournalEntry::Failed { failure } => {
                state.failures.insert(failure.index, failure);
            }
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackModelKind, AttackSpec};
    use crate::campaign::FailureKind;
    use crate::classify::{Classification, Verdict};
    use comfase_des::time::SimTime;

    fn setup() -> AttackCampaignSetup {
        AttackCampaignSetup {
            attack_model: AttackModelKind::Delay,
            target_vehicles: vec![2],
            attack_values: vec![0.5],
            attack_starts_s: vec![17.0],
            attack_durations_s: vec![2.0],
        }
    }

    fn spec() -> AttackSpec {
        AttackSpec {
            model: AttackModelKind::Delay,
            value: 0.5,
            targets: vec![2].into(),
            start: SimTime::from_secs(17),
            end: SimTime::from_secs(19),
        }
    }

    fn record(index: usize) -> ExperimentRecord {
        ExperimentRecord {
            index,
            spec: spec(),
            verdict: Verdict {
                class: Classification::Benign,
                max_decel_mps2: 3.5,
                max_speed_deviation_mps: 0.4,
                first_collision: None,
                nr_collisions: 0,
            },
        }
    }

    const TEST_FINGERPRINT: u64 = 0xdead_beef_cafe_f00d;

    fn identity() -> JournalHeader {
        JournalHeader {
            schema_version: JOURNAL_SCHEMA_VERSION,
            seed: 42,
            total: 8,
            fingerprint: TEST_FINGERPRINT,
            setup: setup(),
        }
    }

    fn header() -> JournalEntry {
        JournalEntry::Header(identity())
    }

    #[test]
    fn round_trips_entries_through_a_file() {
        let dir = std::env::temp_dir().join("comfase-journal-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer
            .append(&JournalEntry::Completed {
                index: 3,
                record: record(3),
                metrics: None,
            })
            .unwrap();
        let failure = ExperimentFailure {
            index: 5,
            kind: FailureKind::Panicked,
            payload: "boom".into(),
            seed: 42,
            spec: spec(),
            attempts: 1,
        };
        writer
            .append(&JournalEntry::Failed {
                failure: failure.clone(),
            })
            .unwrap();
        drop(writer);

        let state = read_journal(&path).unwrap();
        state.check_identity(&identity()).unwrap();
        assert_eq!(state.completed.len(), 1);
        assert_eq!(state.completed[&3].0, record(3));
        assert_eq!(state.failures[&5], failure);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let dir = std::env::temp_dir().join("comfase-journal-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer
            .append(&JournalEntry::Completed {
                index: 0,
                record: record(0),
                metrics: None,
            })
            .unwrap();
        drop(writer);
        // Simulate a kill mid-write: append half a JSON line, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"entry\":\"completed\",\"ind").unwrap();
        drop(file);

        let state = read_journal(&path).unwrap();
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains_key(&0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resuming_writer_cuts_a_torn_tail() {
        let path = std::env::temp_dir().join("comfase-journal-cut.journal");
        std::fs::write(&path, b"{\"entry\":\"golden\"}\n{\"entry\":\"compl").unwrap();
        // Cut on the first open; a journal without a torn tail stays as is.
        for _ in 0..2 {
            drop(JournalWriter::append_to(&path).unwrap());
            assert_eq!(std::fs::read(&path).unwrap(), b"{\"entry\":\"golden\"}\n");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_shard_key_in_the_header_is_ignored() {
        // Static-shard runs wrote a `shard` key into the header; such
        // journals still read, continue and merge.
        let path = std::env::temp_dir().join("comfase-journal-legacy-shard.journal");
        let header = comfase_json::to_string(&header());
        let legacy = header.replacen(
            "\"setup\":",
            "\"shard\":{\"index\":1,\"of\":2},\"setup\":",
            1,
        );
        assert_ne!(legacy, header);
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let state = read_journal(&path).unwrap();
        assert!(state.check_identity(&identity()).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let dir = std::env::temp_dir().join("comfase-journal-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        drop(writer);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"garbage-not-json\n").unwrap();
        let entry = comfase_json::to_string(&JournalEntry::Completed {
            index: 1,
            record: record(1),
            metrics: None,
        });
        file.write_all(entry.as_bytes()).unwrap();
        file.write_all(b"\n").unwrap();
        drop(file);

        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, ComfaseError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("corrupt entry"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn completed_rerun_clears_an_earlier_failure() {
        let dir = std::env::temp_dir().join("comfase-journal-rerun");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer
            .append(&JournalEntry::Failed {
                failure: ExperimentFailure {
                    index: 2,
                    kind: FailureKind::HostError,
                    payload: "flaky".into(),
                    seed: 42,
                    spec: spec(),
                    attempts: 1,
                },
            })
            .unwrap();
        writer
            .append(&JournalEntry::Completed {
                index: 2,
                record: record(2),
                metrics: None,
            })
            .unwrap();
        drop(writer);

        let state = read_journal(&path).unwrap();
        assert!(state.failures.is_empty());
        assert!(state.completed.contains_key(&2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn identity_mismatch_is_rejected() {
        let state = JournalState {
            header: Some(identity()),
            ..JournalState::default()
        };
        assert!(state.check_identity(&identity()).is_ok());
        let check = |edit: fn(&mut JournalHeader)| {
            let mut expected = identity();
            edit(&mut expected);
            state.check_identity(&expected)
        };
        assert!(check(|h| h.seed = 43).is_err());
        assert!(check(|h| h.total = 9).is_err());
        assert!(check(|h| h.setup.attack_values = vec![9.0]).is_err());
        // A changed scenario/comm/budget only shows up in the fingerprint —
        // exactly the continuation hole the fingerprint closes.
        let err = check(|h| h.fingerprint ^= 1).unwrap_err();
        assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("expected"), "{err}");
        // A journal without a header, or of another schema, is malformed.
        let mut old = identity();
        old.schema_version = 1;
        for header in [None, Some(old)] {
            let state = JournalState {
                header,
                ..JournalState::default()
            };
            let err = state.check_identity(&identity()).unwrap_err();
            assert!(matches!(err, ComfaseError::Io(_)), "{err:?}");
        }
    }

    /// A state holding `record(rec)` — plus, when given, a metrics row
    /// naming index `row` — journaled under `key`.
    fn completed(key: usize, rec: usize, row: Option<usize>) -> JournalState {
        let row = row.map(|index| ExperimentMetrics {
            index,
            ..ExperimentMetrics::default()
        });
        JournalState {
            completed: BTreeMap::from([(key, (record(rec), row))]),
            ..JournalState::default()
        }
    }

    #[test]
    fn entries_that_disagree_with_their_index_are_corrupt() {
        let specs = vec![spec(); 8];
        let corrupt = |state: JournalState, specs: Option<&[AttackSpec]>| {
            matches!(state.check_entries(8, specs), Err(ComfaseError::Io(_)))
        };
        assert!(completed(3, 3, Some(3))
            .check_entries(8, Some(&specs))
            .is_ok());
        // A phantom experiment past the end of the campaign.
        assert!(corrupt(completed(8, 8, None), None));
        // A record, or a metrics row, journaled under another index.
        assert!(corrupt(completed(3, 4, None), None));
        assert!(corrupt(completed(3, 3, Some(6)), None));
        // A spec that is not the campaign's at that index: only a
        // continuing run knows the specs.
        let mut other = specs.clone();
        other[3].value = 2.0;
        assert!(completed(3, 3, None).check_entries(8, None).is_ok());
        assert!(corrupt(completed(3, 3, None), Some(&other)));
        // A failure journaled under another index.
        let mut state = JournalState::default();
        let failure = ExperimentFailure {
            index: 7,
            kind: FailureKind::HostError,
            payload: "flaky".into(),
            seed: 42,
            spec: spec(),
            attempts: 1,
        };
        state.failures.insert(2, failure);
        assert!(corrupt(state, None));
    }

    #[test]
    fn golden_entry_round_trips() {
        let dir = std::env::temp_dir().join("comfase-journal-golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        let row = ExperimentMetrics {
            index: 0,
            classification: "Golden".into(),
            max_decel_mps2: 1.5,
            ..ExperimentMetrics::default()
        };
        writer
            .append(&JournalEntry::Golden {
                metrics: Some(row.clone()),
            })
            .unwrap();
        drop(writer);
        let state = read_journal(&path).unwrap();
        assert_eq!(state.golden, Some(row));
        std::fs::remove_file(&path).unwrap();
    }
}
