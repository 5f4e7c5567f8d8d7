// comfase-lint: host-region(reason = "claim-driven worker: scan/steal scheduling over the lease ledger is host-side work distribution; it decides which worker runs a unit, never what the unit computes, and uses sleeps (not clock reads) to pace scan rounds")

//! The claim-driven work source: a [`ClaimSource`] plugs a
//! [`ClaimLedger`] into the campaign runner's [`WorkSource`] seam —
//! dynamic, crash-tolerant work stealing across worker processes.
//!
//! # The scan loop
//!
//! Each `claim()` call scans the ledger in rounds:
//!
//! 1. **Acquire pass** — every unit without a done marker and without a
//!    valid lease is claimed via temp+rename with read-back confirm;
//!    the first win returns.
//! 2. **Stall pass** — for every validly leased unit, the observed
//!    `heartbeat_seq` is compared against the previous round's. An
//!    unchanged counter increments a per-unit stall count; a changed
//!    one resets it. Once a unit stalls for `steal_after` consecutive
//!    rounds it is presumed abandoned and stolen.
//! 3. If neither pass yielded a unit and undone units remain, the
//!    worker sleeps one `scan_interval` and rescans. `claim()` returns
//!    `None` only when **every** unit carries a done marker — so no
//!    unit is ever stranded behind a dead owner.
//!
//! Liveness detection is counter-vs-counter: no wall-clock value ever
//! enters a decision (the inter-round sleep paces scanning but its
//! duration is never read back), which keeps the determinism audit's
//! wall-clock rule satisfied via the file-scope host region.
//!
//! # Steal safety
//!
//! Stealing can race a live-but-slow owner: both end up executing the
//! same unit. This is safe — the deposed owner's next heartbeat
//! renewal observes the foreign lease and abandons the unit
//! ([`LeaseState::Lost`]), and even if both journal it, experiments are
//! deterministic and the merger admits duplicates only when bit-equal.

use std::collections::BTreeMap;
#[cfg(test)]
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use comfase::campaign::WorkSource;
use comfase::prelude::{Campaign, ComfaseError, LeaseState, WorkUnit};

use crate::claim::{ClaimLedger, LeaseView};

/// Default pause between ledger scan rounds.
pub const DEFAULT_SCAN_INTERVAL: Duration = Duration::from_millis(50);

/// Default number of consecutive unchanged-heartbeat scan rounds before
/// a lease is presumed abandoned and its unit stolen.
pub const DEFAULT_STEAL_AFTER: u32 = 20;

/// A [`WorkSource`] backed by a shared-filesystem [`ClaimLedger`].
///
/// One `ClaimSource` serves all threads of one worker process: threads
/// claim units one scan round at a time, each renewing the lease of the
/// unit it is executing between experiments.
#[derive(Debug)]
pub struct ClaimSource {
    ledger: ClaimLedger,
    worker_id: String,
    steal_after: u32,
    scan_interval: Duration,
    /// Per-unit `(last observed heartbeat_seq, consecutive stall rounds)`,
    /// shared across this worker's claiming threads so stall evidence
    /// accumulates once per scan round, not once per thread. Each round
    /// holds its lock throughout, so this worker's threads scan one at a
    /// time.
    observed: Mutex<BTreeMap<usize, (u64, u32)>>,
    /// Lease acquisitions (steals included) still to fail with an injected
    /// I/O error, so this crate's tests can drive `claim()`'s retry of
    /// failed scan rounds.
    #[cfg(test)]
    fail_acquires: AtomicU32,
}

impl ClaimSource {
    /// Wraps `ledger` for worker `worker_id`, stealing after
    /// `steal_after` consecutive stalled scan rounds (`0` steals on
    /// first sight — maximally aggressive, still safe, rarely wise).
    pub fn new(ledger: ClaimLedger, worker_id: impl Into<String>, steal_after: u32) -> Self {
        ClaimSource {
            ledger,
            worker_id: worker_id.into(),
            steal_after,
            scan_interval: DEFAULT_SCAN_INTERVAL,
            observed: Mutex::new(BTreeMap::new()),
            #[cfg(test)]
            fail_acquires: AtomicU32::new(0),
        }
    }

    /// Opens (or creates) the ledger at `claim_dir` for `campaign`.
    /// `unit_size = None` uses [`crate::claim::default_unit_size`].
    ///
    /// # Errors
    ///
    /// Fingerprinting failures, ledger I/O, or a meta mismatch with an
    /// existing ledger.
    pub fn for_campaign(
        claim_dir: impl AsRef<std::path::Path>,
        campaign: &Campaign,
        worker_id: impl Into<String>,
        unit_size: Option<usize>,
        steal_after: u32,
    ) -> Result<Self, ComfaseError> {
        let total = campaign.nr_experiments();
        let unit_size = unit_size.unwrap_or_else(|| crate::claim::default_unit_size(total));
        let ledger = ClaimLedger::create(claim_dir, campaign.fingerprint()?, total, unit_size)?;
        Ok(ClaimSource::new(ledger, worker_id, steal_after))
    }

    /// Replaces the scan pacing interval (tests use a short one).
    pub fn with_scan_interval(mut self, interval: Duration) -> Self {
        self.scan_interval = interval;
        self
    }

    /// The worker id leases are stamped with.
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// The underlying ledger.
    pub fn ledger(&self) -> &ClaimLedger {
        &self.ledger
    }

    /// The shared stall observations; a poisoned lock still holds
    /// consistent counters, since each one changes in a single step.
    fn observed(&self) -> MutexGuard<'_, BTreeMap<usize, (u64, u32)>> {
        self.observed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spends one of [`ClaimSource::fail_acquires`]'s injected failures,
    /// if any is left.
    #[cfg(test)]
    fn injected_acquire_failure(&self) -> Result<(), ComfaseError> {
        match self
            .fail_acquires
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        {
            Ok(_) => Err(ComfaseError::Io(
                "chaos: injected lease acquire failure".into(),
            )),
            Err(_) => Ok(()),
        }
    }

    /// One acquire-then-stall scan over the ledger. `Ok(Some(_))` on a
    /// won unit, `Ok(None)` when this round yielded nothing (the caller
    /// decides between sleeping and returning based on `all_done`).
    fn scan_round(&self) -> Result<(Option<WorkUnit>, bool), ComfaseError> {
        // One round at a time in this process: its threads all stamp the
        // same worker id, so the ledger's read-back confirm cannot tell
        // two of them apart, and both would win a free unit they race for.
        let mut observed = self.observed();
        let mut all_done = true;
        let mut deferred: Vec<(WorkUnit, Lease2)> = Vec::new();
        // Acquire pass: free (or corrupt-leased) units first — stealing
        // is the fallback, not the fast path.
        for unit in self.ledger.units() {
            if self.ledger.is_done(unit.id) {
                observed.remove(&unit.id);
                continue;
            }
            all_done = false;
            match self.ledger.lease_view(unit.id)? {
                LeaseView::Free | LeaseView::Corrupt => {
                    #[cfg(test)]
                    self.injected_acquire_failure()?;
                    if self.ledger.try_acquire(unit, &self.worker_id)? {
                        observed.remove(&unit.id);
                        return Ok((Some(*unit), false));
                    }
                }
                LeaseView::Held(lease) => {
                    deferred.push((
                        *unit,
                        Lease2 {
                            seq: lease.heartbeat_seq,
                        },
                    ));
                }
            }
        }
        if all_done {
            return Ok((None, true));
        }
        // Stall pass: compare each held lease's heartbeat against the
        // previous round's observation; steal once it has sat unchanged
        // for `steal_after` consecutive rounds.
        for (unit, lease) in deferred {
            let stalled = {
                let entry = observed.entry(unit.id).or_insert((lease.seq, 0));
                if entry.0 == lease.seq {
                    entry.1 = entry.1.saturating_add(1);
                } else {
                    *entry = (lease.seq, 0);
                }
                entry.1 >= self.steal_after
            };
            if stalled {
                #[cfg(test)]
                self.injected_acquire_failure()?;
                // Whoever wins the steal race, this unit's stall
                // evidence is spent either way.
                observed.remove(&unit.id);
                if self.ledger.steal(&unit, &self.worker_id)? {
                    return Ok((Some(unit), false));
                }
            }
        }
        Ok((None, false))
    }
}

/// Just the heartbeat a stall comparison needs.
#[derive(Debug, Clone, Copy)]
struct Lease2 {
    seq: u64,
}

impl WorkSource for ClaimSource {
    fn claim(&self) -> Result<Option<WorkUnit>, ComfaseError> {
        // Transient ledger I/O errors skip the round; only a persistent
        // streak — long enough for several full steal cycles to have
        // happened instead — escapes as an error, so one flaky scan never
        // aborts a worker.
        let max_error_rounds = self.steal_after.saturating_mul(4).max(40);
        let mut error_rounds: u32 = 0;
        loop {
            match self.scan_round() {
                Ok((Some(unit), _)) => return Ok(Some(unit)),
                Ok((None, true)) => return Ok(None),
                Ok((None, false)) => error_rounds = 0,
                Err(e) => {
                    error_rounds += 1;
                    if error_rounds > max_error_rounds {
                        return Err(e);
                    }
                }
            }
            std::thread::sleep(self.scan_interval);
        }
    }

    fn renew(&self, unit: &WorkUnit) -> Result<LeaseState, ComfaseError> {
        self.ledger.renew(unit, &self.worker_id)
    }

    fn complete(&self, unit: &WorkUnit) -> Result<(), ComfaseError> {
        self.ledger.mark_done(unit, &self.worker_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("comfase-worker-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const FP: u64 = 0xfeed_0000_0000_0001;

    fn source(dir: &PathBuf, worker: &str, steal_after: u32) -> ClaimSource {
        let ledger = ClaimLedger::create(dir, FP, 8, 2).unwrap();
        ClaimSource::new(ledger, worker, steal_after).with_scan_interval(Duration::from_millis(1))
    }

    #[test]
    fn claims_drain_the_ledger_then_none() {
        let dir = tmp_dir("drain");
        let source = source(&dir, "solo", 5);
        let mut seen = Vec::new();
        while let Some(unit) = source.claim().unwrap() {
            assert_eq!(source.renew(&unit).unwrap(), LeaseState::Held);
            source.complete(&unit).unwrap();
            seen.push(unit.id);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(source.ledger().all_done());
        assert!(source.claim().unwrap().is_none(), "done ledger stays done");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_lease_is_stolen_without_intervention() {
        let dir = tmp_dir("steal");
        let victim = source(&dir, "victim", 3);
        let thief = source(&dir, "thief", 3);
        // The victim claims a unit and then never heartbeats again.
        let held = victim.claim().unwrap().expect("a unit to claim");
        // The thief drains everything, including the stalled unit.
        let mut seen = Vec::new();
        while let Some(unit) = thief.claim().unwrap() {
            thief.complete(&unit).unwrap();
            seen.push(unit.id);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "the stalled unit was stolen");
        // The deposed victim notices on its next renewal.
        assert_eq!(victim.renew(&held).unwrap(), LeaseState::Lost);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_heartbeats_prevent_stealing() {
        let dir = tmp_dir("live");
        let owner = source(&dir, "owner", 2);
        let unit = owner.claim().unwrap().unwrap();
        // A would-be thief scans while the owner keeps renewing: every
        // renewal resets the stall count, so no steal happens.
        let thief = source(&dir, "thief", 2);
        for _ in 0..8 {
            assert_eq!(owner.renew(&unit).unwrap(), LeaseState::Held);
            let (claimed, all_done) = thief.scan_round().unwrap();
            if let Some(other) = claimed {
                assert_ne!(other.id, unit.id, "a renewing owner must not be deposed");
                thief.complete(&other).unwrap();
            }
            assert!(!all_done);
        }
        assert_eq!(owner.renew(&unit).unwrap(), LeaseState::Held);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_lease_failures_are_retried_within_claim() {
        let dir = tmp_dir("chaos-acquire");
        let ledger = ClaimLedger::create(&dir, FP, 8, 2).unwrap();
        let mut source =
            ClaimSource::new(ledger, "chaotic", 3).with_scan_interval(Duration::from_millis(1));
        *source.fail_acquires.get_mut() = 2;
        // claim() absorbs the injected failures and still wins a unit.
        let unit = source.claim().unwrap().expect("a unit despite chaos");
        assert_eq!(
            *source.fail_acquires.get_mut(),
            0,
            "both failures were injected"
        );
        assert_eq!(source.renew(&unit).unwrap(), LeaseState::Held);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every thread of one worker stamps the same id, so the ledger's
    /// read-back cannot tell two of them apart: threads racing for one
    /// free unit must still leave exactly one winner.
    #[test]
    fn threads_of_one_worker_never_both_win_a_free_unit() {
        for trial in 0..20 {
            let dir = tmp_dir(&format!("race-{trial}"));
            let ledger = ClaimLedger::create(&dir, FP, 1, 1).unwrap();
            let source = ClaimSource::new(ledger, "w", 5);
            let barrier = std::sync::Barrier::new(4);
            let winners = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            source.scan_round().unwrap().0.is_some()
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|racer| racer.join().unwrap())
                    .filter(|&won| won)
                    .count()
            });
            assert_eq!(winners, 1, "trial {trial}: {winners} threads won the unit");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
