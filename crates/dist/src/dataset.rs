// comfase-lint: host-region(reason = "dataset shard publication and corpus assembly: durable file I/O over shards rendered by the deterministic obs-side renderer; this module only writes, validates, orders and concatenates those bytes, so it can never alter what a simulation produced")

//! Writing dataset shards and reassembling them into one corpus.
//!
//! Campaign workers export one `exp-<index>.jsonl` shard per experiment
//! through a [`DirSink`] (rendered by `comfase_obs::dataset`), whether
//! they run as a single process or as claim-driven workers sharing a
//! directory. The merge
//! validates the shard set and concatenates it — in experiment-index
//! order — into `corpus.jsonl`, plus a `manifest.json` recording
//! per-shard and whole-corpus FNV-1a 64 hashes.
//!
//! **Why merge order cannot affect the bytes:** each shard is a pure
//! function of `(campaign identity, label, capture)` — the renderer is
//! deterministic and byte-stable — and the merge imposes index order, so
//! any set of workers that completed the same campaign produces the same
//! corpus byte for byte. The merge's only degrees of freedom are checks:
//!
//! - every shard's header must carry the same campaign identity
//!   (schema version, fingerprint, seed, total) — foreign shards refuse;
//! - the header's experiment index must match the shard's file name
//!   (a mismatch can only be corruption or tampering);
//! - every line of every shard must be well-formed length-delimited
//!   JSON — torn files refuse;
//! - coverage of `0..total` must be exact — missing experiments are
//!   reported as precise index ranges, never silently skipped;
//! - duplicate indices across input directories are admitted only when
//!   bit-equal (the same equal-or-reject rule the journal merger uses).

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use comfase::campaign::DatasetSink;
use comfase::fingerprint::{fnv1a64, fnv1a64_extend, FNV_OFFSET};
use comfase::prelude::ComfaseError;
use comfase_obs::dataset::{
    parse_header, render_experiment, shard_file_name, split_line, DatasetHeader, ExperimentExport,
    DATASET_SCHEMA_VERSION,
};

use crate::cache::publish;
use crate::merge::{index_ranges, IndexRange};

/// Sink writing one `exp-<index>.jsonl` shard per experiment into a
/// directory through the crate's atomic publish path (temp file, fsync,
/// rename, directory fsync; the temp file is removed on any error), so any
/// number of workers can export into the same directory concurrently and a
/// re-export replaces a shard with the same bytes.
#[derive(Debug)]
pub struct DirSink {
    root: PathBuf,
}

impl DirSink {
    /// Opens (creating if needed) a dataset directory.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] when the directory cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, ComfaseError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, &e))?;
        Ok(DirSink { root })
    }
}

impl DatasetSink for DirSink {
    fn export(&self, export: &ExperimentExport) -> Result<(), ComfaseError> {
        let shard = self.root.join(shard_file_name(export.label.index));
        publish(
            &shard,
            |f| f.write_all(&render_experiment(export)),
            |_, e| ComfaseError::Io(format!("dataset shard {}: {e}", shard.display())),
        )
    }
}

/// Result of a successful corpus merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetMergeReport {
    /// The campaign identity every shard agreed on.
    pub header: DatasetHeader,
    /// Number of shard files folded in (equal to `header.total`).
    pub shards: usize,
    /// Total corpus size in bytes.
    pub corpus_bytes: u64,
    /// FNV-1a 64 over the whole corpus.
    pub corpus_fnv1a64: u64,
    /// Path of the written `corpus.jsonl`.
    pub corpus_path: PathBuf,
    /// Path of the written `manifest.json`.
    pub manifest_path: PathBuf,
}

/// `manifest.json`: the campaign identity, one entry per shard and the
/// whole-corpus hash (hashes as fixed-width hex strings).
struct Manifest {
    dataset_schema_version: u32,
    fingerprint: String,
    seed: u64,
    total: usize,
    shards: Vec<ManifestShard>,
    corpus_bytes: u64,
    corpus_fnv1a64: String,
}
comfase_json::record!(ToJson for Manifest {
    dataset_schema_version, fingerprint, seed, total, shards, corpus_bytes, corpus_fnv1a64,
});

/// One shard's entry in [`Manifest`].
struct ManifestShard {
    index: usize,
    bytes: usize,
    fnv1a64: String,
}
comfase_json::record!(ToJson for ManifestShard { index, bytes, fnv1a64 });

fn io_err(path: &Path, e: &std::io::Error) -> ComfaseError {
    ComfaseError::Io(format!("{}: {e}", path.display()))
}

/// One validated shard staged for concatenation.
struct Shard {
    path: PathBuf,
    bytes: Vec<u8>,
}

/// Validates one shard file: well-formed lines throughout, a parseable
/// header, and the expected campaign identity.
fn load_shard(
    path: &Path,
    expect: Option<&DatasetHeader>,
) -> Result<(DatasetHeader, usize, Vec<u8>), ComfaseError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
    let (header, index) = parse_header(&bytes).ok_or_else(|| {
        ComfaseError::Io(format!(
            "{}: missing or malformed dataset header line",
            path.display()
        ))
    })?;
    if header.dataset_schema_version != DATASET_SCHEMA_VERSION {
        return Err(ComfaseError::InvalidConfig(format!(
            "{}: dataset schema v{} (this build reads v{})",
            path.display(),
            header.dataset_schema_version,
            DATASET_SCHEMA_VERSION
        )));
    }
    if let Some(expect) = expect {
        if header != *expect {
            return Err(ComfaseError::InvalidConfig(format!(
                "{}: shard belongs to a different campaign \
                 (fingerprint {:016x}, seed {}, total {}; expected \
                 fingerprint {:016x}, seed {}, total {})",
                path.display(),
                header.fingerprint,
                header.seed,
                header.total,
                expect.fingerprint,
                expect.seed,
                expect.total
            )));
        }
    }
    if index >= header.total {
        return Err(ComfaseError::InvalidConfig(format!(
            "{}: experiment index {index} outside the campaign's 0..{}",
            path.display(),
            header.total
        )));
    }
    // Every line must be well-formed — a torn shard refuses here instead
    // of corrupting the corpus.
    let mut rest = bytes.as_slice();
    while !rest.is_empty() {
        let (_, tail) = split_line(rest).ok_or_else(|| {
            ComfaseError::Io(format!(
                "{}: torn or malformed length-delimited line",
                path.display()
            ))
        })?;
        rest = tail;
    }
    Ok((header, index, bytes))
}

/// Scans `dirs` for `exp-*.jsonl` shards, validates them against each
/// other, and merges them in index order into `<out_dir>/corpus.jsonl`
/// with a `<out_dir>/manifest.json` alongside. See the module docs for
/// the validation rules.
///
/// # Errors
///
/// [`ComfaseError::Io`] for unreadable/torn shards and output failures;
/// [`ComfaseError::InvalidConfig`] for identity mismatches, index/file
/// disagreements, conflicting duplicates and coverage gaps.
pub fn merge_dataset_dirs(
    dirs: &[PathBuf],
    out_dir: &Path,
) -> Result<DatasetMergeReport, ComfaseError> {
    if dirs.is_empty() {
        return Err(ComfaseError::InvalidConfig(
            "dataset merge requires at least one shard directory".into(),
        ));
    }
    let mut header: Option<DatasetHeader> = None;
    let mut shards: BTreeMap<usize, Shard> = BTreeMap::new();
    for dir in dirs {
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
        // Deterministic scan order (readdir order is arbitrary).
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("exp-") && name.ends_with(".jsonl") {
                paths.push(entry.path());
            }
        }
        paths.sort();
        for path in paths {
            let (shard_header, index, bytes) = load_shard(&path, header.as_ref())?;
            header.get_or_insert(shard_header);
            let expected_name = comfase_obs::dataset::shard_file_name(index);
            if path.file_name().map(|n| n.to_string_lossy().into_owned())
                != Some(expected_name.clone())
            {
                return Err(ComfaseError::InvalidConfig(format!(
                    "{}: header says experiment {index} (file should be named {expected_name})",
                    path.display()
                )));
            }
            match shards.get(&index) {
                // Equal-or-reject: the same experiment exported by two
                // workers must have produced identical bytes.
                Some(existing) if existing.bytes != bytes => {
                    return Err(ComfaseError::InvalidConfig(format!(
                        "experiment {index} differs between {} and {} — \
                         shards of one campaign must be bit-identical",
                        existing.path.display(),
                        path.display()
                    )));
                }
                Some(_) => {}
                None => {
                    shards.insert(index, Shard { path, bytes });
                }
            }
        }
    }
    let Some(header) = header else {
        return Err(ComfaseError::InvalidConfig(format!(
            "no exp-*.jsonl shards found under {}",
            dirs.iter()
                .map(|d| d.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    };
    // Exact coverage of 0..total.
    let missing: Vec<IndexRange> =
        index_ranges((0..header.total).filter(|i| !shards.contains_key(i)));
    if !missing.is_empty() {
        let runs: Vec<String> = missing.iter().map(|r| r.to_string()).collect();
        return Err(ComfaseError::InvalidConfig(format!(
            "dataset shards cover {}/{} experiments; missing indices {}",
            shards.len(),
            header.total,
            runs.join(", ")
        )));
    }

    fs::create_dir_all(out_dir).map_err(|e| io_err(out_dir, &e))?;
    let corpus_path = out_dir.join("corpus.jsonl");
    let manifest_path = out_dir.join("manifest.json");

    // Concatenate in index order, hashing incrementally; published
    // atomically like every file this crate writes.
    let mut corpus_hash = FNV_OFFSET;
    let mut corpus_bytes: u64 = 0;
    let mut entries = Vec::with_capacity(shards.len());
    publish(
        &corpus_path,
        |out| {
            for (&index, shard) in &shards {
                out.write_all(&shard.bytes)?;
                corpus_hash = fnv1a64_extend(corpus_hash, &shard.bytes);
                corpus_bytes += shard.bytes.len() as u64;
                entries.push(ManifestShard {
                    index,
                    bytes: shard.bytes.len(),
                    fnv1a64: format!("{:016x}", fnv1a64(&shard.bytes)),
                });
            }
            Ok(())
        },
        io_err,
    )?;
    let manifest = Manifest {
        dataset_schema_version: header.dataset_schema_version,
        fingerprint: format!("{:016x}", header.fingerprint),
        seed: header.seed,
        total: header.total,
        shards: entries,
        corpus_bytes,
        corpus_fnv1a64: format!("{corpus_hash:016x}"),
    };
    let mut manifest = comfase_json::to_string(&manifest);
    manifest.push('\n');
    // Published after the corpus, so a manifest never names a corpus that
    // is not in place.
    publish(&manifest_path, |f| f.write_all(manifest.as_bytes()), io_err)?;

    Ok(DatasetMergeReport {
        header,
        shards: shards.len(),
        corpus_bytes,
        corpus_fnv1a64: corpus_hash,
        corpus_path,
        manifest_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfase_obs::dataset::{DatasetCapture, ExperimentLabel};

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "comfase-dataset-merge-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn export(index: usize, total: usize) -> ExperimentExport {
        ExperimentExport {
            header: DatasetHeader {
                dataset_schema_version: DATASET_SCHEMA_VERSION,
                fingerprint: 0xFEED,
                seed: 7,
                total,
            },
            label: ExperimentLabel {
                index,
                attack_model: Some("Delay".into()),
                attack_parameter: Some("Propagation delay (PD)".into()),
                attack_value: Some(0.4),
                attack_start_s: Some(17.0),
                attack_duration_s: Some(1.0),
                targets: vec![2],
                verdict: "Benign".into(),
                max_decel_mps2: 1.5,
                nr_collisions: 0,
            },
            capture: DatasetCapture::default(),
        }
    }

    fn plant(dir: &Path, index: usize, total: usize) {
        fs::write(
            dir.join(shard_file_name(index)),
            render_experiment(&export(index, total)),
        )
        .unwrap();
    }

    #[test]
    fn merge_concatenates_in_index_order_and_hashes() {
        let root = tmp_root("order");
        let shards = root.join("shards");
        fs::create_dir_all(&shards).unwrap();
        // Plant out of order; merge must impose index order.
        for i in [2usize, 0, 1] {
            plant(&shards, i, 3);
        }
        let out = root.join("merged");
        let report = merge_dataset_dirs(std::slice::from_ref(&shards), &out).unwrap();
        assert_eq!(report.shards, 3);
        let corpus = fs::read(&report.corpus_path).unwrap();
        let mut expected = Vec::new();
        for i in 0..3 {
            expected.extend_from_slice(&render_experiment(&export(i, 3)));
        }
        assert_eq!(corpus, expected);
        assert_eq!(report.corpus_fnv1a64, fnv1a64(&expected));
        let manifest = fs::read_to_string(&report.manifest_path).unwrap();
        assert!(manifest.contains(&format!(
            "\"corpus_fnv1a64\":\"{:016x}\"",
            fnv1a64(&expected)
        )));
        assert!(manifest.contains("\"total\":3"));
        // Merging again (idempotent) produces identical bytes.
        let report2 = merge_dataset_dirs(&[shards], &out).unwrap();
        assert_eq!(fs::read(&report2.corpus_path).unwrap(), expected);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_refuses_coverage_gaps_with_exact_ranges() {
        let root = tmp_root("gap");
        let shards = root.join("shards");
        fs::create_dir_all(&shards).unwrap();
        plant(&shards, 0, 5);
        plant(&shards, 3, 5);
        let err = merge_dataset_dirs(&[shards], &root.join("merged")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2/5"), "got: {msg}");
        assert!(msg.contains("1-2") && msg.contains('4'), "got: {msg}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_refuses_foreign_and_conflicting_shards() {
        let root = tmp_root("foreign");
        let a = root.join("a");
        let b = root.join("b");
        fs::create_dir_all(&a).unwrap();
        fs::create_dir_all(&b).unwrap();
        plant(&a, 0, 2);
        // Foreign campaign: different seed in the header.
        let mut foreign = export(1, 2);
        foreign.header.seed = 999;
        fs::write(b.join(shard_file_name(1)), render_experiment(&foreign)).unwrap();
        let err = merge_dataset_dirs(&[a.clone(), b.clone()], &root.join("m1")).unwrap_err();
        assert!(err.to_string().contains("different campaign"));
        // Conflicting duplicate: same index, different bytes.
        let mut conflicting = export(0, 2);
        conflicting.label.verdict = "Severe".into();
        fs::write(b.join(shard_file_name(1)), render_experiment(&export(1, 2))).unwrap();
        fs::write(b.join(shard_file_name(0)), render_experiment(&conflicting)).unwrap();
        let err = merge_dataset_dirs(&[a, b], &root.join("m2")).unwrap_err();
        assert!(err.to_string().contains("bit-identical"), "got: {err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_refuses_torn_shards_and_index_mismatches() {
        let root = tmp_root("torn");
        let shards = root.join("shards");
        fs::create_dir_all(&shards).unwrap();
        let bytes = render_experiment(&export(0, 1));
        fs::write(shards.join(shard_file_name(0)), &bytes[..bytes.len() - 2]).unwrap();
        let err = merge_dataset_dirs(std::slice::from_ref(&shards), &root.join("m")).unwrap_err();
        assert!(err.to_string().contains("torn"), "got: {err}");
        // Header claims index 1 but the file is named exp-000000.jsonl.
        fs::write(
            shards.join(shard_file_name(0)),
            render_experiment(&export(1, 2)),
        )
        .unwrap();
        let err = merge_dataset_dirs(&[shards], &root.join("m")).unwrap_err();
        assert!(err.to_string().contains("should be named"), "got: {err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_sink_publishes_idempotently() {
        let dir = tmp_root("sink");
        let sink = DirSink::create(&dir).expect("sink opens");
        let export = export(2, 8);
        sink.export(&export).expect("first export");
        let first = fs::read(dir.join(shard_file_name(2))).expect("shard exists");
        // Re-export (steal re-execution) replaces the shard with the same
        // bytes and leaves no temp files behind.
        sink.export(&export).expect("second export");
        let second = fs::read(dir.join(shard_file_name(2))).expect("shard exists");
        assert_eq!(first, second);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("readable")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        let _ = fs::remove_dir_all(&dir);
    }
}
