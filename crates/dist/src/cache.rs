// comfase-lint: host-region(reason = "content-addressed result cache: durable file I/O at the campaign boundary; entries are keyed by (spec, seed, config) content hashes and echo their key, so a hit can never alter what a simulation would have produced")
//! On-disk content-addressed store of experiment results.
//!
//! Layout: `<root>/<hh>/<spec>-<seed>-<config>.json`, where `<hh>` is
//! the first two hex digits of the spec hash (256-way fan-out keeps
//! directory listings short on big campaigns) and the file stem is
//! [`CacheKey::stem`]. Each file holds one JSON object `{key, entry}`;
//! the echoed key is verified on load, so a renamed or corrupted file
//! degrades to [`CacheLookup::Stale`] — never to a wrong result.
//!
//! Writes are atomic (`publish`, the crate's one write path): the entry
//! is serialized to a unique temp file in the final directory, fsync'd,
//! then renamed over the destination, and the directory is fsync'd.
//! Concurrent writers (campaign worker threads, or whole worker
//! processes sharing one cache directory) therefore never expose a torn
//! entry; the last complete write wins, and equal keys imply equal
//! payloads by construction.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use comfase::cache::{CacheEntry, CacheKey, CacheLookup, ExperimentCache};
use comfase::prelude::ComfaseError;
use comfase_json::FromJson;

/// One cache file: the entry plus an echo of its own key, verified on
/// load to catch renamed or cross-copied files.
#[derive(Debug, Clone)]
struct CacheFile {
    key: CacheKey,
    entry: CacheEntry,
}
comfase_json::record!(ToJson, FromJson for CacheFile { key, entry });

/// A content-addressed experiment result cache rooted at a directory.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
}

/// Per-process temp-file sequence of [`publish`]; combined with the
/// process id so concurrent writers (threads, caches or ledgers over one
/// directory, or worker processes) never collide on a temp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publishes `dest` atomically, the one write path of this crate (cache
/// entries, claim-ledger files, dataset shards, corpus and manifest).
///
/// `write` fills a unique `.tmp-*` file in `dest`'s directory, which is
/// fsync'd and renamed over `dest`; the directory is then fsync'd too, so
/// a crash can lose neither the bytes nor the rename. Readers see the old
/// file or the complete new one, never a torn one. On any error the temp
/// file is removed. Errors name the temp file, `dest` (for the rename) or
/// the directory through `io_err`, so each caller keeps its own prefix.
pub(crate) fn publish(
    dest: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
    io_err: impl Fn(&Path, &std::io::Error) -> ComfaseError,
) -> Result<(), ComfaseError> {
    let dir = match dest.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let renamed = (|| {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)
            .map_err(|e| io_err(&tmp, &e))?;
        write(&mut file).map_err(|e| io_err(&tmp, &e))?;
        file.sync_data().map_err(|e| io_err(&tmp, &e))?;
        drop(file);
        fs::rename(&tmp, dest).map_err(|e| io_err(dest, &e))
    })();
    if renamed.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = fs::remove_file(&tmp);
        return renamed;
    }
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(dir, &e))
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] when the root directory cannot be created.
    pub fn create<P: AsRef<Path>>(root: P) -> Result<Self, ComfaseError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, &e))?;
        Ok(DiskCache { root })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Final path of `key`'s entry.
    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        let stem = key.stem();
        self.root.join(&stem[..2]).join(format!("{stem}.json"))
    }

    /// Garbage-collects the cache down to at most `max_bytes` of valid
    /// entries.
    ///
    /// Eviction order is the lexicographic tuple order of
    /// `(mtime, path, size)`, oldest first: modification time is the
    /// primary key, and the full entry *path* is the explicit tiebreak —
    /// on filesystems with coarse mtime granularity (FAT's 2 s, or any
    /// mount with `noatime`-style second resolution) whole batches of
    /// entries share one mtime, and without the path tiebreak the
    /// eviction order would be whatever the directory walk produced.
    /// Paths are unique, so `size` never actually decides; it rides in
    /// the tuple only so the eviction loop has it at hand. Two gc passes
    /// over the same tree therefore always evict the same entries.
    ///
    /// Orphaned temp files and stale entries — torn JSON, or a key echo
    /// that does not match the file's address — are swept unconditionally
    /// and do not count against the budget; their reclaimed bytes are
    /// reported under [`GcStats::temp_bytes_removed`] /
    /// [`GcStats::stale_bytes_removed`] so `gc_stats.json` accounts for
    /// every byte freed. Every removal is a single atomic `remove_file`;
    /// a concurrent *reader* of an evicted entry degrades to a miss and
    /// re-simulates.
    ///
    /// This is a maintenance operation: run it between campaigns, not
    /// while writers share the cache — an in-flight writer's temp file
    /// would be swept as an orphan.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] when the cache cannot be listed or a removal
    /// fails (other than the file already being gone).
    pub fn gc(&self, max_bytes: u64) -> Result<GcStats, ComfaseError> {
        let mut stats = GcStats::default();
        // (mtime, path, size) of every valid entry, collected while
        // sweeping temps and stale files.
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for shard_dir in read_dir_sorted(&self.root)? {
            if !shard_dir.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&shard_dir)? {
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                let meta = match fs::symlink_metadata(&path) {
                    Ok(meta) if meta.is_file() => meta,
                    _ => continue,
                };
                if name.starts_with(".tmp-") {
                    remove_entry(&path)?;
                    stats.temps_removed += 1;
                    stats.temp_bytes_removed += meta.len();
                    continue;
                }
                if !name.ends_with(".json") {
                    continue;
                }
                // Validity here is the address check only — the file must
                // parse and its key echo must hash to the file's own path.
                // Payload validation stays `load`'s job.
                let valid = fs::read(&path)
                    .ok()
                    .and_then(|bytes| comfase_json::parse_slice(&bytes).ok())
                    .and_then(|doc| CacheKey::from_json(doc.get("key")?).ok())
                    .is_some_and(|key| self.entry_path(&key) == path);
                if !valid {
                    remove_entry(&path)?;
                    stats.stale_removed += 1;
                    stats.stale_bytes_removed += meta.len();
                    continue;
                }
                let mtime = meta.modified().map_err(|e| io_err(&path, &e))?;
                stats.entries_before += 1;
                stats.bytes_before += meta.len();
                entries.push((mtime, path, meta.len()));
            }
        }
        // Deterministic eviction order: lexicographic (mtime, path, size),
        // oldest first, with the unique path breaking mtime ties (see the
        // method docs).
        entries.sort();
        let mut live_bytes = stats.bytes_before;
        for (_, path, size) in &entries {
            if live_bytes <= max_bytes {
                break;
            }
            remove_entry(path)?;
            stats.entries_evicted += 1;
            stats.bytes_evicted += size;
            live_bytes -= size;
        }
        stats.entries_after = stats.entries_before - stats.entries_evicted;
        stats.bytes_after = live_bytes;
        Ok(stats)
    }
}

/// Summary of one [`DiskCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Valid entries found before eviction.
    pub entries_before: usize,
    /// Bytes of valid entries before eviction.
    pub bytes_before: u64,
    /// Valid entries evicted (oldest first) to meet the budget.
    pub entries_evicted: usize,
    /// Bytes reclaimed from evicted valid entries.
    pub bytes_evicted: u64,
    /// Stale entries swept: torn JSON or mismatched key echoes.
    pub stale_removed: usize,
    /// Bytes reclaimed from swept stale entries.
    pub stale_bytes_removed: u64,
    /// Orphaned temp files swept.
    pub temps_removed: usize,
    /// Bytes reclaimed from swept orphaned temp files.
    pub temp_bytes_removed: u64,
    /// Valid entries remaining.
    pub entries_after: usize,
    /// Bytes of valid entries remaining (≤ the budget).
    pub bytes_after: u64,
}
comfase_json::record!(ToJson for GcStats {
    entries_before, bytes_before, entries_evicted, bytes_evicted, stale_removed,
    stale_bytes_removed, temps_removed, temp_bytes_removed, entries_after, bytes_after,
});

/// Directory listing, sorted by path for deterministic sweep order.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, ComfaseError> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, &e))? {
        paths.push(entry.map_err(|e| io_err(dir, &e))?.path());
    }
    paths.sort();
    Ok(paths)
}

/// Removes `path`, tolerating a concurrent removal.
fn remove_entry(path: &Path) -> Result<(), ComfaseError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(path, &e)),
    }
}

impl ExperimentCache for DiskCache {
    fn load(&self, key: &CacheKey) -> CacheLookup {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            // Unreadable entries (permissions, I/O errors) are stale, not
            // fatal: the campaign re-simulates and overwrites.
            Err(_) => return CacheLookup::Stale,
        };
        match comfase_json::from_slice::<CacheFile>(&bytes) {
            Ok(file) if file.key == *key => CacheLookup::Hit(Box::new(file.entry)),
            // Corrupt JSON, a damaged key, or a key echo that does not
            // match the file's address — torn write, rename, or hash
            // collision.
            _ => CacheLookup::Stale,
        }
    }

    fn store(&self, key: &CacheKey, entry: &CacheEntry) -> Result<(), ComfaseError> {
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry paths always have a parent");
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let file = CacheFile {
            key: *key,
            entry: entry.clone(),
        };
        let bytes = comfase_json::to_string(&file).into_bytes();
        publish(&path, |f| f.write_all(&bytes), io_err)
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> ComfaseError {
    ComfaseError::Io(format!("cache {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("comfase-dist-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_key() -> CacheKey {
        CacheKey {
            spec_hash: 0x1234,
            seed: 42,
            config_hash: 7,
        }
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let cache = DiskCache::create(tmp_root("miss")).unwrap();
        assert_eq!(cache.load(&sample_key()), CacheLookup::Miss);
    }

    #[test]
    fn torn_entry_is_stale_not_fatal() {
        let cache = DiskCache::create(tmp_root("torn")).unwrap();
        let key = sample_key();
        let path = cache.entry_path(&key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"{\"key\":{\"spec_hash\":46").unwrap();
        assert_eq!(cache.load(&key), CacheLookup::Stale);
    }

    /// Plants a syntactically valid entry for `key` at its content
    /// address, padded to roughly `pad` bytes. Only the key echo needs
    /// to parse for gc purposes; the payload is filler.
    fn plant(cache: &DiskCache, key: &CacheKey, pad: usize) -> PathBuf {
        let path = cache.entry_path(key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let body = format!(
            "{{\"key\":{},\"pad\":\"{}\"}}",
            comfase_json::to_string(key),
            "x".repeat(pad)
        );
        fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn gc_sweeps_temps_and_stale_entries() {
        let cache = DiskCache::create(tmp_root("gc-sweep")).unwrap();
        let shard = cache.root().join("00");
        fs::create_dir_all(&shard).unwrap();
        // An orphaned temp, a torn entry, and an entry renamed away from
        // its content address — all swept regardless of budget.
        fs::write(shard.join(".tmp-999-0"), b"partial").unwrap();
        fs::write(shard.join("torn.json"), b"{\"key\":{\"spec").unwrap();
        let misplaced = shard.join(format!("{}.json", sample_key().stem()));
        let foreign = CacheKey {
            spec_hash: 0xbeef,
            ..sample_key()
        };
        fs::write(
            &misplaced,
            format!("{{\"key\":{}}}", comfase_json::to_string(&foreign)),
        )
        .unwrap();
        let temp_bytes = fs::metadata(shard.join(".tmp-999-0")).unwrap().len();
        let stale_bytes = fs::metadata(shard.join("torn.json")).unwrap().len()
            + fs::metadata(&misplaced).unwrap().len();
        let stats = cache.gc(u64::MAX).unwrap();
        assert_eq!(stats.temps_removed, 1);
        assert_eq!(stats.temp_bytes_removed, temp_bytes);
        assert_eq!(stats.stale_removed, 2);
        assert_eq!(stats.stale_bytes_removed, stale_bytes);
        assert_eq!(stats.entries_before, 0);
        assert_eq!(stats.entries_evicted, 0);
        assert!(!misplaced.exists());
        assert!(!shard.join(".tmp-999-0").exists());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_evicts_oldest_entries_down_to_the_budget() {
        let cache = DiskCache::create(tmp_root("gc-evict")).unwrap();
        let keys: Vec<CacheKey> = (1u64..=3)
            .map(|i| CacheKey {
                spec_hash: i,
                seed: 42,
                config_hash: 7,
            })
            .collect();
        let paths: Vec<PathBuf> = keys
            .iter()
            .map(|key| {
                // Distinct mtimes order the eviction queue oldest-first.
                std::thread::sleep(std::time::Duration::from_millis(20));
                plant(&cache, key, 100)
            })
            .collect();
        let total: u64 = paths.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let one = fs::metadata(&paths[0]).unwrap().len();
        // A budget of two entries' bytes: the single oldest must go.
        let stats = cache.gc(total - 1).unwrap();
        assert_eq!(stats.entries_before, 3);
        assert_eq!(stats.bytes_before, total);
        assert_eq!(stats.entries_evicted, 1);
        assert_eq!(stats.bytes_evicted, one);
        assert_eq!(stats.entries_after, 2);
        assert_eq!(stats.bytes_after, total - one);
        assert!(!paths[0].exists(), "the oldest entry is the one evicted");
        assert!(paths[1].exists() && paths[2].exists());
        // A second pass under the same budget is a no-op.
        let again = cache.gc(total - 1).unwrap();
        assert_eq!(again.entries_evicted, 0);
        assert_eq!(again.entries_after, 2);
        // Budget zero clears the cache entirely.
        let wipe = cache.gc(0).unwrap();
        assert_eq!(wipe.entries_evicted, 2);
        assert_eq!(wipe.bytes_after, 0);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_eviction_is_deterministic_under_identical_mtimes() {
        // Coarse-mtime filesystems routinely stamp whole entry batches
        // with one modification time; the documented (mtime, path, size)
        // tuple order must then fall back to the unique path, so every gc
        // pass over the same tree picks the same victims.
        let cache = DiskCache::create(tmp_root("gc-ties")).unwrap();
        let keys: Vec<CacheKey> = (1u64..=4)
            .map(|i| CacheKey {
                spec_hash: i,
                seed: 42,
                config_hash: 7,
            })
            .collect();
        // Plant in a scrambled order, then force one shared mtime.
        let mut paths: Vec<PathBuf> = [2usize, 0, 3, 1]
            .iter()
            .map(|&i| plant(&cache, &keys[i], 50 + 10 * i))
            .collect();
        paths.sort();
        let stamp = fs::FileTimes::new()
            .set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000));
        for p in &paths {
            OpenOptions::new()
                .append(true)
                .open(p)
                .unwrap()
                .set_times(stamp)
                .unwrap();
            assert_eq!(
                fs::metadata(p).unwrap().modified().unwrap(),
                std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000)
            );
        }
        let total: u64 = paths.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let smallest_two: u64 = paths
            .iter()
            .take(2)
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        // Budget forces exactly two evictions: with all mtimes equal, the
        // two lexicographically-smallest paths must be the victims.
        let stats = cache.gc(total - smallest_two).unwrap();
        assert_eq!(stats.entries_evicted, 2);
        assert_eq!(stats.bytes_evicted, smallest_two);
        assert!(!paths[0].exists() && !paths[1].exists());
        assert!(paths[2].exists() && paths[3].exists());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entry_paths_fan_out_by_spec_hash_prefix() {
        let cache = DiskCache::create(tmp_root("fanout")).unwrap();
        let path = cache.entry_path(&sample_key());
        let dir = path.parent().unwrap().file_name().unwrap();
        assert_eq!(dir, "00", "0x1234 zero-pads to 0000…1234, prefix 00");
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .ends_with(".json"));
    }
}
