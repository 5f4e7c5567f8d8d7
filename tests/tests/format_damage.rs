//! Damaged persisted formats must be rejected, never misread.
//!
//! Three layers:
//!
//! 1. **Damaged keys.** A key whose name was damaged (or duplicated by a
//!    splice) must not decode as "field absent, use the default": a
//!    journal row would silently lose its counters and `metrics.json`
//!    would come out short. Continuing and merging refuse such a
//!    journal; the result cache treats such an entry as stale.
//! 2. **Mutation sweep.** A deterministic mutator (every truncation plus
//!    seeded byte flips and splices, seeded by `comfase_des::rng`) runs
//!    over one sample of each format: a journal line, a cache file, a
//!    lease, a ledger meta and a dataset shard header. Nothing may panic,
//!    every strict truncation is rejected, and the ledger accepts only
//!    canonical bytes.
//! 3. **Old cache form.** Cache files written before the golden run
//!    stopped being cached carry an `"entry"` tag (and one of them a whole
//!    golden run log); they load as stale and are rewritten, never hit.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use comfase::journal::JournalEntry;
use comfase::prelude::*;
use comfase_des::rng::RngStream;
use comfase_des::time::SimTime;
use comfase_dist::{merge_journals, ClaimLedger, DiskCache, LeaseView};
use comfase_obs::dataset::{parse_header, render_experiment, ExperimentExport};
use comfase_obs::{DatasetCapture, DatasetHeader, ExperimentLabel, DATASET_SCHEMA_VERSION};

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "comfase-format-damage-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&path);
    let _ = fs::remove_file(&path);
    path
}

/// A short 8-experiment delay campaign with telemetry on, so every
/// journaled row carries counters.
fn campaign() -> Campaign {
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(25);
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 4.0],
    };
    let engine =
        Engine::new(scenario, CommModel::paper_default(), 42).expect("the test scenario is valid");
    Campaign::new(engine, setup)
        .expect("the test campaign is valid")
        .with_obs(ObsConfig::metrics_only())
}

/// Journals the whole campaign, then rewrites the first `completed` line
/// with `damage`.
fn damaged_journal(name: &str, damage: impl Fn(&str) -> String) -> PathBuf {
    let path = tmp(name);
    let config = RunConfig {
        journal: Some(path.clone()),
        ..RunConfig::default()
    };
    campaign()
        .run(2, &config, &NullObserver)
        .expect("the journaled campaign runs");
    let text = fs::read_to_string(&path).expect("the journal is readable");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("{\"entry\":\"completed\""))
        .expect("a completed line");
    assert!(lines[at].contains("\"counters\":{\""), "{}", lines[at]);
    let damaged = damage(&lines[at]);
    assert_ne!(damaged, lines[at]);
    lines[at] = damaged;
    fs::write(&path, lines.join("\n") + "\n").expect("the journal is writable");
    path
}

/// Continuing the damaged journal and merging it both refuse it.
fn assert_resume_and_merge_refuse(path: &Path) {
    let resume = RunConfig {
        journal: Some(path.to_path_buf()),
        ..RunConfig::default()
    };
    let err = campaign()
        .run(2, &resume, &NullObserver)
        .expect_err("continuing refuses the journal");
    assert!(matches!(err, ComfaseError::Io(_)), "resume: {err:?}");
    let failure = merge_journals(&[path]).expect_err("merge refuses the journal");
    assert!(
        matches!(failure.error, ComfaseError::Io(_)),
        "merge: {failure:?}"
    );
    fs::remove_file(path).expect("the journal is removable");
}

#[test]
fn a_damaged_counters_key_is_refused_by_resume_and_merge() {
    // One flipped bit: `counters` -> `covnters`.
    let path = damaged_journal("flipped-key.journal", |line| {
        line.replacen("\"counters\":", "\"covnters\":", 1)
    });
    assert_resume_and_merge_refuse(&path);
}

#[test]
fn a_duplicated_counter_key_is_refused_by_resume_and_merge() {
    // A splice repeating the first counter inside `counters`.
    let path = damaged_journal("duplicate-counter.journal", |line| {
        let start = line.find("\"counters\":{").unwrap() + "\"counters\":{".len();
        let end = start + line[start..].find(',').unwrap();
        format!("{},{}{}", &line[..end], &line[start..end], &line[end..])
    });
    assert_resume_and_merge_refuse(&path);
}

fn sample_spec() -> AttackSpec {
    AttackSpec {
        model: AttackModelKind::Delay,
        value: 0.4,
        targets: vec![2].into(),
        start: SimTime::from_secs(17),
        end: SimTime::from_secs(19),
    }
}

fn sample_entry() -> CacheEntry {
    CacheEntry {
        record: ExperimentRecord {
            index: 0,
            spec: sample_spec(),
            verdict: Verdict {
                class: Classification::Benign,
                max_decel_mps2: 3.25,
                max_speed_deviation_mps: 0.5,
                first_collision: None,
                nr_collisions: 0,
            },
        },
        metrics: Some(ExperimentMetrics {
            index: 0,
            classification: "Benign".into(),
            max_decel_mps2: 3.25,
            counters: BTreeMap::from([("phy.rx.ok".to_string(), 12), ("mac.sent".to_string(), 7)]),
            ..ExperimentMetrics::default()
        }),
    }
}

const KEY: CacheKey = CacheKey {
    spec_hash: 0x1234,
    seed: 42,
    config_hash: 7,
};

/// A cache holding `entry` under [`KEY`], and its one file.
fn stored_cache(name: &str, entry: &CacheEntry) -> (DiskCache, PathBuf) {
    let cache = DiskCache::create(tmp(name)).expect("the cache dir is creatable");
    cache.store(&KEY, entry).expect("the entry is storable");
    let only_child = |dir: &Path| {
        fs::read_dir(dir)
            .expect("the dir is readable")
            .next()
            .expect("the dir holds one entry")
            .expect("the dir entry is readable")
            .path()
    };
    let file = only_child(&only_child(cache.root()));
    assert_eq!(cache.load(&KEY), CacheLookup::Hit(Box::new(entry.clone())));
    (cache, file)
}

#[test]
fn a_damaged_key_in_a_cache_entry_is_stale_but_its_key_echo_still_counts() {
    let (cache, file) = stored_cache("damaged-cache", &sample_entry());
    let text = fs::read_to_string(&file).unwrap();
    fs::write(&file, text.replacen("\"metrics\":", "\"metrica\":", 1)).unwrap();
    assert_eq!(cache.load(&KEY), CacheLookup::Stale);
    // Garbage collection validates only the key echo, read from the parsed
    // document: the entry still lives at its own address and is kept.
    let stats = cache.gc(u64::MAX).unwrap();
    assert_eq!((stats.entries_before, stats.stale_removed), (1, 0));
    // A duplicated key anywhere in the document is stale as well.
    let spliced = text.replacen("{\"mac.sent\":7", "{\"mac.sent\":7,\"mac.sent\":7", 1);
    assert_ne!(spliced, text);
    fs::write(&file, spliced).unwrap();
    assert_eq!(cache.load(&KEY), CacheLookup::Stale);
    fs::remove_dir_all(cache.root()).unwrap();
}

/// Seeded damage: single-bit flips, and splices joining a prefix of
/// `doc` to a suffix of `other` (what an interrupted rewrite leaves).
fn damaged(doc: &[u8], other: &[u8], rng: &mut RngStream) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..150 {
        let mut flipped = doc.to_vec();
        let at = rng.below(doc.len() as u64) as usize;
        flipped[at] ^= 1 << rng.below(8);
        out.push(flipped);
    }
    for _ in 0..50 {
        let cut = rng.below(doc.len() as u64) as usize;
        let resume = rng.below(other.len() as u64) as usize;
        out.push([&doc[..cut], &other[resume..]].concat());
    }
    out
}

/// Every strict truncation of `doc`, ignoring a cosmetic trailing newline.
fn truncations(doc: &[u8]) -> impl Iterator<Item = &[u8]> {
    let payload = doc.strip_suffix(b"\n").unwrap_or(doc);
    (0..payload.len()).map(move |n| &payload[..n])
}

#[test]
fn mutated_journal_lines_never_panic_and_truncations_never_decode() {
    let mut rng = RngStream::new(0x6a6f_7572_6e61_6c00);
    let completed = |index: usize| JournalEntry::Completed {
        index,
        record: ExperimentRecord {
            index,
            spec: sample_spec(),
            verdict: Verdict {
                class: Classification::Severe,
                max_decel_mps2: 7.5,
                max_speed_deviation_mps: 1.25,
                first_collision: None,
                nr_collisions: 0,
            },
        },
        metrics: sample_entry().metrics,
    };
    let line = comfase_json::to_string(&completed(3));
    let other = comfase_json::to_string(&completed(4));
    assert_eq!(
        comfase_json::from_str::<JournalEntry>(&line),
        Ok(completed(3))
    );
    for cut in truncations(line.as_bytes()) {
        assert!(comfase_json::from_slice::<JournalEntry>(cut).is_err());
    }
    for bytes in damaged(line.as_bytes(), other.as_bytes(), &mut rng) {
        let _ = comfase_json::from_slice::<JournalEntry>(&bytes);
    }
}

/// Every strict truncation of `entry`'s cache file loads as stale, and
/// seeded flips and splices with `other` never panic.
fn sweep_cache_file(name: &str, entry: &CacheEntry, other: &CacheEntry, rng: &mut RngStream) {
    let (cache, file) = stored_cache(name, entry);
    let doc = fs::read(&file).expect("the entry is readable");
    for cut in truncations(&doc) {
        fs::write(&file, cut).expect("the entry is writable");
        assert_eq!(cache.load(&KEY), CacheLookup::Stale, "cut at {}", cut.len());
    }
    let other = comfase_json::to_string(other).into_bytes();
    for bytes in damaged(&doc, &other, rng) {
        fs::write(&file, bytes).expect("the entry is writable");
        let _ = cache.load(&KEY);
    }
    let _ = cache.gc(0);
    fs::remove_dir_all(cache.root()).expect("the cache is removable");
}

#[test]
fn mutated_cache_files_never_panic_and_truncations_are_stale() {
    let mut rng = RngStream::new(0x6361_6368_6500);
    sweep_cache_file("mutated-cache", &sample_entry(), &sample_entry(), &mut rng);
}

/// Every file under a cache root, sorted by path.
fn cache_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(root)
        .expect("the cache root is readable")
        .flat_map(|dir| {
            fs::read_dir(dir.expect("the fan-out dir is listed").path())
                .expect("the fan-out dir is readable")
        })
        .map(|file| file.expect("the entry is readable").path())
        .collect();
    files.sort();
    files
}

/// Cache entries written before the golden run stopped being cached were
/// tagged, `{"key":…,"entry":{"entry":"experiment",…}}`, and the golden
/// run had an entry of its own holding its whole log. Such a file loads
/// as stale, never as a hit: a campaign over a cache of tagged entries
/// counts them stale, simulates them and rewrites them, and the next run
/// hits them all and writes the same `metrics.json`.
#[test]
fn cache_files_of_the_tagged_form_are_stale_and_rewritten() {
    let reference = campaign()
        .run(2, &RunConfig::default(), &NullObserver)
        .expect("the reference campaign runs");
    let reference_bytes = reference.metrics.as_ref().unwrap().to_json_bytes();
    let total = reference.records.len();
    let root = tmp("tagged-cache");
    let run = || {
        let cache: Arc<dyn ExperimentCache> =
            Arc::new(DiskCache::create(&root).expect("the cache dir is creatable"));
        let config = RunConfig {
            cache: Some(cache),
            ..RunConfig::default()
        };
        campaign()
            .run(2, &config, &NullObserver)
            .expect("the cached campaign runs")
    };
    let simulated = |result: &CampaignResult| {
        result.stats.forked_runs + result.stats.scratch_runs + result.stats.chain_forked_runs
    };

    let cold = run();
    assert_eq!(cold.stats.cache_misses, total);
    let files = cache_files(&root);
    assert_eq!(files.len(), total, "one file per experiment");
    for file in &files {
        let doc = fs::read_to_string(file).unwrap();
        assert!(!doc.contains("\"entry\":{\"entry\":"), "untagged: {doc}");
        let tagged = doc.replacen("\"entry\":{", "\"entry\":{\"entry\":\"experiment\",", 1);
        fs::write(file, tagged).unwrap();
    }

    let over_tagged = run();
    assert_eq!(
        (
            over_tagged.stats.cache_hits,
            over_tagged.stats.cache_misses,
            over_tagged.stats.cache_stale
        ),
        (0, 0, total)
    );
    assert_eq!(simulated(&over_tagged), total);
    let warm = run();
    assert_eq!(warm.stats.cache_hits, total);
    assert_eq!(simulated(&warm), 0);
    for result in [&over_tagged, &warm] {
        assert_eq!(
            result.metrics.as_ref().unwrap().to_json_bytes(),
            reference_bytes
        );
    }

    // The golden run's own entry, whatever its key, is stale as well.
    let stem = KEY.stem();
    let golden_file = root.join(&stem[..2]).join(format!("{stem}.json"));
    fs::create_dir_all(golden_file.parent().unwrap()).unwrap();
    let golden_doc = format!(
        "{{\"key\":{},\"entry\":{{\"entry\":\"golden\",\"log\":{}}}}}",
        comfase_json::to_string(&KEY),
        comfase_json::to_string(&reference.golden)
    );
    fs::write(&golden_file, golden_doc).unwrap();
    let cache = DiskCache::create(&root).unwrap();
    assert_eq!(cache.load(&KEY), CacheLookup::Stale);
    fs::remove_dir_all(&root).unwrap();
}

const FP: u64 = 0xc1a1_0000_0000_0042;

#[test]
fn mutated_leases_are_corrupt_unless_canonical() {
    let mut rng = RngStream::new(0x6c65_6173_6500);
    let dir = tmp("mutated-lease");
    let ledger = ClaimLedger::create(&dir, FP, 8, 4).unwrap();
    let unit = ledger.units()[0];
    assert!(ledger.try_acquire(&unit, "w\"0\\").unwrap());
    let path = dir.join("unit-0.lease");
    let doc = fs::read(&path).unwrap();
    assert!(matches!(ledger.lease_view(0).unwrap(), LeaseView::Held(_)));
    for cut in truncations(&doc) {
        fs::write(&path, cut).unwrap();
        assert_eq!(
            ledger.lease_view(0).unwrap(),
            LeaseView::Corrupt,
            "cut at {}",
            cut.len()
        );
    }
    let other = doc.iter().rev().copied().collect::<Vec<u8>>();
    for bytes in damaged(&doc, &other, &mut rng) {
        fs::write(&path, &bytes).unwrap();
        if let LeaseView::Held(lease) = ledger.lease_view(0).unwrap() {
            let canonical = comfase_json::to_string(&lease);
            assert!(
                bytes == canonical.as_bytes() || bytes == format!("{canonical}\n").as_bytes(),
                "accepted non-canonical lease {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mutated_ledger_meta_is_refused_unless_canonical() {
    let mut rng = RngStream::new(0x6d65_7461);
    let dir = tmp("mutated-meta");
    drop(ClaimLedger::create(&dir, FP, 11_250, 352).unwrap());
    let path = dir.join("meta.json");
    let doc = fs::read(&path).unwrap();
    for cut in truncations(&doc) {
        fs::write(&path, cut).unwrap();
        assert!(
            ClaimLedger::create(&dir, FP, 11_250, 352).is_err(),
            "cut at {}",
            cut.len()
        );
    }
    let other = br#"{"campaign_fingerprint":7,"total":8,"unit_size":1}"#;
    for bytes in damaged(&doc, other, &mut rng) {
        fs::write(&path, &bytes).unwrap();
        if ClaimLedger::create(&dir, FP, 11_250, 352).is_ok() {
            assert!(
                bytes == doc || bytes == doc[..doc.len() - 1],
                "accepted non-canonical meta {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mutated_dataset_headers_never_panic_and_truncations_are_refused() {
    let mut rng = RngStream::new(0x6461_7461);
    let export = |index: usize| ExperimentExport {
        header: DatasetHeader {
            dataset_schema_version: DATASET_SCHEMA_VERSION,
            fingerprint: u64::MAX,
            seed: 42,
            total: 8,
        },
        label: ExperimentLabel {
            index,
            attack_model: Some("delay".into()),
            attack_value: Some(0.4),
            targets: vec![2],
            verdict: "benign \"quoted\"".into(),
            max_decel_mps2: 3.25,
            ..ExperimentLabel::default()
        },
        capture: DatasetCapture::default(),
    };
    let shard = render_experiment(&export(3));
    let other = render_experiment(&export(5));
    assert_eq!(parse_header(&shard).map(|(_, index)| index), Some(3));
    // The newline closes the length-delimited line, so it is not optional.
    for n in 0..shard.len() {
        assert_eq!(parse_header(&shard[..n]), None, "cut at {n}");
    }
    for bytes in damaged(&shard, &other, &mut rng) {
        let _ = parse_header(&bytes);
    }
}
