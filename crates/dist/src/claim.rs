// comfase-lint: host-region(reason = "claim ledger: shared-filesystem lease files coordinate *which worker* runs a unit, never *what* a unit computes; every write is an atomic temp+rename and double-execution is safe by the merger's equal-or-reject rule")

//! The claim ledger: dynamic, crash-tolerant assignment of work units.
//!
//! A campaign's experiment index space is divided into small fixed-size
//! [`WorkUnit`]s ([`comfase::campaign::plan_units`]); workers claim
//! units one at a time through a directory of lease files, so no worker
//! is assigned a fixed slice up front. The ledger directory holds:
//!
//! - `meta.json` — [`LedgerMeta`]: the campaign fingerprint, experiment
//!   count and unit size. The first worker writes it; every later
//!   worker verifies it, so workers of different campaigns (or
//!   disagreeing unit geometries) refuse to share a ledger.
//! - `unit-<k>.lease` — a [`Lease`]: which worker currently owns unit
//!   `k`, at which monotonic `heartbeat_seq`.
//! - `unit-<k>.done` — a [`Done`] marker: every experiment of unit `k`
//!   is journaled; the unit is never claimed again.
//!
//! # Why no wall-clock
//!
//! Lease expiry is *not* a timeout. A worker renews its lease by
//! bumping `heartbeat_seq` between experiments; an observer decides a
//! lease is stale after watching the counter **not change** across a
//! configured number of its own scan rounds (see
//! `crate::worker::ClaimSource`). Liveness detection is therefore a
//! function of observed renewal stalls — counters compared to counters
//! — never of timestamps, which keeps the determinism audit's wall-clock
//! rule out of the decision path entirely.
//!
//! # Why races are safe
//!
//! `rename(2)` is atomic but *last-writer-wins*: two workers can race a
//! claim or a steal, and both can transiently believe they own a unit.
//! Every publication is therefore followed by a read-back confirm
//! (whoever the file names last wins), and the residual window — both
//! read back their own write before the other's rename lands — merely
//! double-executes the unit. That is safe by construction: experiments
//! are deterministic, journal lines are keyed by experiment index, and
//! the merger accepts duplicates only when they are bit-equal
//! ([`crate::merge_states`]).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use comfase::campaign::plan_units;
use comfase::prelude::{ComfaseError, LeaseState, WorkUnit};
use comfase_json::{FromJson, ToJson};

/// The ledger's identity record (`meta.json`): which campaign, how many
/// experiments, and how the index space is chunked into units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerMeta {
    /// Canonical fingerprint of the campaign configuration
    /// ([`comfase::prelude::Campaign::fingerprint`]).
    pub campaign_fingerprint: u64,
    /// Total experiments of the whole campaign.
    pub total: usize,
    /// Experiment indices per work unit (the last unit may be shorter).
    pub unit_size: usize,
}

/// One lease file: which worker owns which unit, at which heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The claimed unit (id and index range — the range is redundant
    /// with the ledger geometry and serves as a consistency echo).
    pub unit: WorkUnit,
    /// The owning worker's id.
    pub worker_id: String,
    /// Campaign fingerprint echo; a mismatch marks the file corrupt.
    pub campaign_fingerprint: u64,
    /// Monotonic renewal counter. Bumped by the owner between
    /// experiments; observers steal the unit after watching it stall.
    pub heartbeat_seq: u64,
}

/// One done marker: unit `unit.id` is fully journaled by `worker_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Done {
    /// The completed unit.
    pub unit: WorkUnit,
    /// The worker that completed it (informational — under a steal race
    /// several workers may have journaled the unit; any one marker
    /// suffices).
    pub worker_id: String,
}

comfase_json::record!(ToJson, FromJson for LedgerMeta { campaign_fingerprint, total, unit_size });
comfase_json::record!(ToJson, FromJson for Lease {
    unit, worker_id, campaign_fingerprint, heartbeat_seq,
});
comfase_json::record!(ToJson for Done { unit, worker_id });

// Ledger files are compact JSON lines in field order, written and read
// only by this module. The ledger controls every writer, so the reader is
// deliberately strict: a file must decode *and* re-encode to exactly its
// own bytes (only the trailing newline is optional). Anything else — a
// torn rename, a hand-edited file, reordered keys, a future format — reads
// as [`LeaseView::Corrupt`] and is claimable by overwrite, which is
// exactly the designed degradation.

/// One ledger file: compact JSON plus a newline.
fn canonical_line<T: ToJson>(value: &T) -> Vec<u8> {
    let mut line = comfase_json::to_string(value);
    line.push('\n');
    line.into_bytes()
}

/// Decodes a ledger file, accepting only the bytes [`canonical_line`]
/// writes for the decoded value.
fn parse_canonical<T: ToJson + FromJson>(bytes: &[u8]) -> Option<T> {
    let value: T = comfase_json::from_slice(bytes).ok()?;
    let line = canonical_line(&value);
    (bytes == line.as_slice() || bytes == &line[..line.len() - 1]).then_some(value)
}

impl LedgerMeta {
    fn to_bytes(self) -> Vec<u8> {
        canonical_line(&self)
    }

    fn parse(bytes: &[u8]) -> Option<LedgerMeta> {
        parse_canonical(bytes)
    }
}

impl Lease {
    fn to_bytes(&self) -> Vec<u8> {
        canonical_line(self)
    }

    fn parse(bytes: &[u8]) -> Option<Lease> {
        parse_canonical(bytes)
    }
}

/// What a ledger scan sees for one unit's lease slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseView {
    /// No lease file: the unit is claimable.
    Free,
    /// A lease file exists but does not parse or echoes a foreign
    /// fingerprint/unit: claimable by overwrite (stealable on sight).
    Corrupt,
    /// A valid lease.
    Held(Lease),
}

/// A claim ledger rooted at a shared directory.
#[derive(Debug)]
pub struct ClaimLedger {
    dir: PathBuf,
    meta: LedgerMeta,
    units: Vec<WorkUnit>,
}

impl ClaimLedger {
    /// Opens (creating if needed) the ledger at `dir` for a campaign of
    /// `total` experiments with fingerprint `campaign_fingerprint`,
    /// chunked into units of `unit_size`.
    ///
    /// The first worker writes `meta.json`; every worker then verifies
    /// it against its own parameters, so a worker of a different
    /// campaign — or one computing a different unit table — fails fast
    /// instead of corrupting the claim protocol.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] on filesystem failures;
    /// [`ComfaseError::InvalidConfig`] for `unit_size == 0` or a meta
    /// mismatch.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        campaign_fingerprint: u64,
        total: usize,
        unit_size: usize,
    ) -> Result<Self, ComfaseError> {
        let dir = dir.as_ref().to_path_buf();
        let units = plan_units(total, unit_size)?;
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        let meta = LedgerMeta {
            campaign_fingerprint,
            total,
            unit_size,
        };
        let ledger = ClaimLedger { dir, meta, units };
        let meta_path = ledger.dir.join("meta.json");
        if !meta_path.exists() {
            // A concurrent first worker may rename its own meta between
            // our check and our rename — harmless, since equal
            // parameters produce equal bytes and unequal ones fail the
            // verify below.
            write_atomically(&meta_path, &meta.to_bytes())?;
        }
        let bytes = fs::read(&meta_path).map_err(|e| io_err(&meta_path, &e))?;
        let found = LedgerMeta::parse(&bytes).ok_or_else(|| {
            ComfaseError::Io(format!(
                "ledger meta at {} is unreadable",
                meta_path.display()
            ))
        })?;
        if found != meta {
            return Err(ComfaseError::InvalidConfig(format!(
                "claim ledger at {} belongs to a different campaign or geometry \
                 (ledger: fingerprint {:016x}, {} experiments, unit size {}; \
                 this worker: fingerprint {:016x}, {} experiments, unit size {})",
                ledger.dir.display(),
                found.campaign_fingerprint,
                found.total,
                found.unit_size,
                meta.campaign_fingerprint,
                meta.total,
                meta.unit_size,
            )));
        }
        Ok(ledger)
    }

    /// The ledger's identity record.
    pub fn meta(&self) -> &LedgerMeta {
        &self.meta
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The unit table every worker of this ledger shares.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    fn lease_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("unit-{id}.lease"))
    }

    fn done_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("unit-{id}.done"))
    }

    /// `true` when unit `id` carries a done marker.
    pub fn is_done(&self, id: usize) -> bool {
        self.done_path(id).exists()
    }

    /// Number of units carrying done markers.
    pub fn done_count(&self) -> usize {
        self.units.iter().filter(|u| self.is_done(u.id)).count()
    }

    /// `true` when every unit carries a done marker.
    pub fn all_done(&self) -> bool {
        self.done_count() == self.units.len()
    }

    /// Reads unit `id`'s lease slot.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] only for read failures other than
    /// not-found; an unparseable or foreign lease is [`LeaseView::Corrupt`],
    /// not an error — it is claimable by overwrite.
    pub fn lease_view(&self, id: usize) -> Result<LeaseView, ComfaseError> {
        let path = self.lease_path(id);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LeaseView::Free),
            Err(e) => return Err(io_err(&path, &e)),
        };
        match Lease::parse(&bytes) {
            Some(lease)
                if lease.campaign_fingerprint == self.meta.campaign_fingerprint
                    && lease.unit.id == id =>
            {
                Ok(LeaseView::Held(lease))
            }
            _ => Ok(LeaseView::Corrupt),
        }
    }

    /// Publishes a lease on `unit` for `worker_id` at `heartbeat_seq`
    /// via temp+rename, then reads it back: returns `true` when the
    /// read-back still names `worker_id` (the publication won any
    /// concurrent race), `false` when another worker's rename landed
    /// after ours.
    fn publish(
        &self,
        unit: &WorkUnit,
        worker_id: &str,
        heartbeat_seq: u64,
    ) -> Result<bool, ComfaseError> {
        let lease = Lease {
            unit: *unit,
            worker_id: worker_id.to_string(),
            campaign_fingerprint: self.meta.campaign_fingerprint,
            heartbeat_seq,
        };
        write_atomically(&self.lease_path(unit.id), &lease.to_bytes())?;
        match self.lease_view(unit.id)? {
            LeaseView::Held(found) => Ok(found.worker_id == worker_id),
            // Deleted or clobbered between our rename and the read-back.
            LeaseView::Free | LeaseView::Corrupt => Ok(false),
        }
    }

    /// Attempts to claim a free (or corrupt-leased) `unit` for
    /// `worker_id`. Returns `false` when the unit is already validly
    /// leased, already done, or when a concurrent claimant won the race.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] on filesystem failures.
    pub fn try_acquire(&self, unit: &WorkUnit, worker_id: &str) -> Result<bool, ComfaseError> {
        if self.is_done(unit.id) {
            return Ok(false);
        }
        match self.lease_view(unit.id)? {
            LeaseView::Free | LeaseView::Corrupt => self.publish(unit, worker_id, 0),
            LeaseView::Held(_) => Ok(false),
        }
    }

    /// Steals `unit` for `worker_id`, overwriting whatever lease is
    /// there. The caller decided the lease is stale (stalled heartbeat);
    /// returns `false` when a concurrent steal won or the unit turned
    /// out done.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] on filesystem failures.
    pub fn steal(&self, unit: &WorkUnit, worker_id: &str) -> Result<bool, ComfaseError> {
        if self.is_done(unit.id) {
            return Ok(false);
        }
        self.publish(unit, worker_id, 0)
    }

    /// Renews `worker_id`'s lease on `unit` by bumping the monotonic
    /// heartbeat counter. [`LeaseState::Lost`] when the lease is gone,
    /// corrupt, or names another worker — the caller abandons the unit.
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] on filesystem failures (the campaign runner
    /// treats an error like [`LeaseState::Lost`]).
    pub fn renew(&self, unit: &WorkUnit, worker_id: &str) -> Result<LeaseState, ComfaseError> {
        let seq = match self.lease_view(unit.id)? {
            LeaseView::Held(lease) if lease.worker_id == worker_id => lease.heartbeat_seq,
            _ => return Ok(LeaseState::Lost),
        };
        match self.publish(unit, worker_id, seq + 1)? {
            true => Ok(LeaseState::Held),
            false => Ok(LeaseState::Lost),
        }
    }

    /// Marks `unit` done for `worker_id` and removes the worker's own
    /// lease file (best-effort — the done marker alone retires the
    /// unit).
    ///
    /// # Errors
    ///
    /// [`ComfaseError::Io`] when the marker cannot be written.
    pub fn mark_done(&self, unit: &WorkUnit, worker_id: &str) -> Result<(), ComfaseError> {
        let done = Done {
            unit: *unit,
            worker_id: worker_id.to_string(),
        };
        write_atomically(&self.done_path(unit.id), &canonical_line(&done))?;
        let _ = fs::remove_file(self.lease_path(unit.id));
        Ok(())
    }
}

/// Publishes `bytes` as `dest`, a file in the ledger directory (see
/// `crate::cache::publish`).
fn write_atomically(dest: &Path, bytes: &[u8]) -> Result<(), ComfaseError> {
    crate::cache::publish(dest, |f| f.write_all(bytes), io_err)
}

/// Default unit size for a campaign of `total` experiments: about 32
/// units, each at least 1 and at most 512 indices. Small units bound
/// the work lost to a crash (one unit re-executed); the cap bounds
/// ledger-scan overhead on huge campaigns.
pub fn default_unit_size(total: usize) -> usize {
    total.div_ceil(32).clamp(1, 512)
}

fn io_err(path: &Path, e: &std::io::Error) -> ComfaseError {
    ComfaseError::Io(format!("claim ledger {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("comfase-claim-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const FP: u64 = 0xc1a1_0000_0000_0042;

    #[test]
    fn meta_is_written_once_and_verified() {
        let dir = tmp_dir("meta");
        let a = ClaimLedger::create(&dir, FP, 8, 2).unwrap();
        assert_eq!(a.units().len(), 4);
        // Same parameters: opens fine.
        let b = ClaimLedger::create(&dir, FP, 8, 2).unwrap();
        assert_eq!(b.meta(), a.meta());
        // Foreign fingerprint or different geometry: refused.
        for (fp, total, unit) in [(FP ^ 1, 8, 2), (FP, 9, 2), (FP, 8, 3)] {
            let err = ClaimLedger::create(&dir, fp, total, unit).unwrap_err();
            assert!(matches!(err, ComfaseError::InvalidConfig(_)), "{err:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acquire_renew_done_lifecycle() {
        let dir = tmp_dir("lifecycle");
        let ledger = ClaimLedger::create(&dir, FP, 8, 4).unwrap();
        let unit = ledger.units()[0];
        assert!(ledger.try_acquire(&unit, "alice").unwrap());
        // Already leased: a second claimant loses.
        assert!(!ledger.try_acquire(&unit, "bob").unwrap());
        // The owner renews; the heartbeat counter climbs monotonically.
        assert_eq!(ledger.renew(&unit, "alice").unwrap(), LeaseState::Held);
        assert_eq!(ledger.renew(&unit, "alice").unwrap(), LeaseState::Held);
        match ledger.lease_view(unit.id).unwrap() {
            LeaseView::Held(lease) => {
                assert_eq!(lease.worker_id, "alice");
                assert_eq!(lease.heartbeat_seq, 2);
            }
            other => panic!("expected a held lease, got {other:?}"),
        }
        // A non-owner cannot renew.
        assert_eq!(ledger.renew(&unit, "bob").unwrap(), LeaseState::Lost);
        // Done retires the unit and clears the lease file.
        ledger.mark_done(&unit, "alice").unwrap();
        assert!(ledger.is_done(unit.id));
        assert_eq!(ledger.lease_view(unit.id).unwrap(), LeaseView::Free);
        assert!(!ledger.try_acquire(&unit, "bob").unwrap());
        assert!(!ledger.steal(&unit, "bob").unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_deposes_the_owner() {
        let dir = tmp_dir("steal");
        let ledger = ClaimLedger::create(&dir, FP, 8, 4).unwrap();
        let unit = ledger.units()[1];
        assert!(ledger.try_acquire(&unit, "victim").unwrap());
        assert!(ledger.steal(&unit, "thief").unwrap());
        // The deposed owner's next renewal observes the loss.
        assert_eq!(ledger.renew(&unit, "victim").unwrap(), LeaseState::Lost);
        assert_eq!(ledger.renew(&unit, "thief").unwrap(), LeaseState::Held);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lease_is_claimable() {
        let dir = tmp_dir("corrupt");
        let ledger = ClaimLedger::create(&dir, FP, 8, 4).unwrap();
        let unit = ledger.units()[0];
        fs::write(ledger.lease_path(unit.id), b"{not json").unwrap();
        assert_eq!(ledger.lease_view(unit.id).unwrap(), LeaseView::Corrupt);
        assert!(ledger.try_acquire(&unit, "alice").unwrap());
        // A lease echoing a foreign fingerprint is corrupt, too.
        let foreign = Lease {
            unit,
            worker_id: "mallory".into(),
            campaign_fingerprint: FP ^ 1,
            heartbeat_seq: 0,
        };
        fs::write(ledger.lease_path(unit.id), foreign.to_bytes()).unwrap();
        assert_eq!(ledger.lease_view(unit.id).unwrap(), LeaseView::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_codec_round_trips_and_rejects_noncanonical_input() {
        let lease = Lease {
            unit: WorkUnit {
                id: 3,
                lo: 9,
                hi: 12,
            },
            worker_id: "w\"eird\\id\n\u{1}".into(),
            campaign_fingerprint: u64::MAX,
            heartbeat_seq: 7,
        };
        assert_eq!(Lease::parse(&lease.to_bytes()), Some(lease.clone()));
        let canonical = lease.to_bytes();
        // Any prefix truncation of the payload (a torn write) must fail
        // to parse; only the cosmetic trailing newline is optional.
        assert_eq!(canonical.last(), Some(&b'\n'));
        for cut in 0..canonical.len() - 1 {
            assert_eq!(Lease::parse(&canonical[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage, reordered fields, whitespace: all corrupt.
        let mut padded = canonical.clone();
        padded.extend_from_slice(b" ");
        assert_eq!(Lease::parse(&padded), None);
        assert_eq!(Lease::parse(b"{\"worker_id\":\"a\",\"unit\":{\"id\":0,\"lo\":0,\"hi\":1},\"campaign_fingerprint\":1,\"heartbeat_seq\":0}"), None);
        let meta = LedgerMeta {
            campaign_fingerprint: 0,
            total: 11_250,
            unit_size: 352,
        };
        assert_eq!(LedgerMeta::parse(&meta.to_bytes()), Some(meta));
    }

    #[test]
    fn default_unit_size_is_bounded() {
        assert_eq!(default_unit_size(0), 1);
        assert_eq!(default_unit_size(1), 1);
        assert_eq!(default_unit_size(8), 1);
        assert_eq!(default_unit_size(150), 5);
        assert_eq!(default_unit_size(11_250), 352);
        assert_eq!(default_unit_size(1_000_000), 512);
    }
}
