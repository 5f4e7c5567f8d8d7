//! Byte pins of the canonical formats.
//!
//! Journals and claim ledgers are identified by the campaign fingerprint,
//! and result-cache entries by a cache config hash; both hash canonical
//! JSON bytes. A change to those bytes — a float spelling, a field order,
//! an enum tag — silently orphans every journal, cache entry and ledger
//! written before it. These constants were committed from the current
//! codec; a deliberate format change must bump `FINGERPRINT_DOMAIN`, the
//! cache config domain or the schema version it touches, and then update
//! them here, once.

use comfase::fingerprint::fnv1a64;
use comfase::prelude::*;
use comfase_des::time::SimTime;

/// `Campaign::fingerprint()` of the Table II delay campaign exactly as
/// `repro` builds it (`comfase_bench::delay_campaign(1)`).
const TABLE2_DELAY_FINGERPRINT: u64 = 0x46c2_4c12_4ca6_ad3d;

/// `comfase::cache::config_hash` of the paper scenario and communication
/// model, an unlimited event budget and telemetry on.
const PAPER_CACHE_CONFIG_HASH: u64 = 0xde39_aabf_7af4_0df5;

/// FNV-1a 64 of `metrics.json` for [`end_to_end_campaign`].
const END_TO_END_METRICS_FNV: u64 = 0x5495_f39c_26e2_494e;

/// FNV-1a 64 of the journal of [`end_to_end_campaign`] run on one thread.
const END_TO_END_JOURNAL_FNV: u64 = 0x0d34_ee20_7db8_261c;

/// The 8-experiment campaign of `end_to_end::full_pipeline_small_campaign`
/// with telemetry on.
fn end_to_end_campaign() -> Campaign {
    let mut scenario = TrafficScenario::paper_default();
    scenario.total_sim_time = SimTime::from_secs(35);
    let setup = AttackCampaignSetup {
        attack_model: AttackModelKind::Delay,
        target_vehicles: vec![2],
        attack_values: vec![0.4, 1.6],
        attack_starts_s: vec![17.0, 19.4],
        attack_durations_s: vec![2.0, 8.0],
    };
    let engine = Engine::new(scenario, CommModel::paper_default(), 42).unwrap();
    Campaign::new(engine, setup)
        .unwrap()
        .with_obs(ObsConfig::metrics_only())
}

#[test]
fn table2_delay_campaign_fingerprint_is_pinned() {
    let campaign = Campaign::new(
        Engine::paper_default(42).unwrap(),
        AttackCampaignSetup::paper_delay_campaign(),
    )
    .unwrap();
    assert_eq!(campaign.nr_experiments(), 11_250);
    let fingerprint = campaign.fingerprint().unwrap();
    assert_eq!(
        fingerprint, TABLE2_DELAY_FINGERPRINT,
        "fingerprint {fingerprint:#018x}"
    );
}

#[test]
fn cache_config_hash_is_pinned_and_ignores_dataset_capture() {
    let config_hash = |obs| {
        comfase::cache::config_hash(
            &TrafficScenario::paper_default(),
            &CommModel::paper_default(),
            EventBudget::UNLIMITED,
            obs,
        )
    };
    let hash = config_hash(ObsConfig::metrics_only());
    assert_eq!(hash, PAPER_CACHE_CONFIG_HASH, "config_hash {hash:#018x}");
    assert_eq!(config_hash(ObsConfig::metrics_only().with_dataset()), hash);
}

#[test]
fn end_to_end_metrics_json_is_pinned() {
    let bytes = end_to_end_campaign()
        .run(2, &RunConfig::default(), &NullObserver)
        .unwrap()
        .metrics
        .expect("telemetry was enabled")
        .to_json_bytes();
    let hash = fnv1a64(&bytes);
    assert_eq!(
        hash, END_TO_END_METRICS_FNV,
        "metrics.json fnv1a64 {hash:#018x}"
    );
}

#[test]
fn end_to_end_journal_is_pinned() {
    // One thread: journal lines land in plan order.
    let path = std::env::temp_dir().join(format!(
        "comfase-format-pins-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = RunConfig {
        journal: Some(path.clone()),
        ..RunConfig::default()
    };
    end_to_end_campaign()
        .run(1, &config, &NullObserver)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, END_TO_END_JOURNAL_FNV, "journal fnv1a64 {hash:#018x}");
}
