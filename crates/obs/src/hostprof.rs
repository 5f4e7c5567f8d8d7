// comfase-lint: host-region(reason = "host profiler: measures the runner's wall time on this machine, never sim state; results go to profile.json, not metrics.json")

//! Host-side wall-clock profiling of the campaign *runner*.
//!
//! This is the one module in the workspace's simulation scope that is
//! allowed to read the host clock — under a file-scope `host-region`
//! marker — because it measures the machine, not the simulation: how
//! long the golden run, prefix building, and experiment phases took on
//! this host, at this thread count.
//!
//! None of these numbers may leak into `metrics.json`
//! ([`crate::metrics::CampaignMetrics`] has no field to put them in); they
//! are reported separately (the `repro` binary writes them to
//! `results/profile.json`), so the deterministic artifact stays
//! byte-identical across hosts, modes, and thread counts.

use std::sync::Mutex;
use std::time::Instant;

/// Wall-clock stopwatch over named runner phases.
///
/// Interior mutability (`Mutex`) so the campaign runner can drive it
/// through `&self` observer hooks from worker threads. Lock contention is
/// irrelevant: it is taken a handful of times per campaign (phase edges
/// and per-experiment ticks), never inside simulation code.
#[derive(Debug, Default)]
pub struct HostProfiler {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    open: Vec<(String, Instant)>,
    finished: Vec<(String, f64)>,
}

impl HostProfiler {
    /// Creates an idle profiler.
    pub fn new() -> Self {
        HostProfiler::default()
    }

    /// Marks the start of a named phase.
    pub fn begin(&self, name: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.open.push((name.to_string(), Instant::now()));
    }

    /// Marks the end of the named phase; records its elapsed seconds.
    /// Ending a phase that was never begun is a no-op.
    pub fn end(&self, name: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = inner.open.iter().rposition(|(n, _)| n == name) {
            let (name, started) = inner.open.remove(pos);
            let secs = started.elapsed().as_secs_f64();
            inner.finished.push((name, secs));
        }
    }

    /// Finished phases in completion order, as `(name, seconds)`.
    pub fn report(&self) -> Vec<(String, f64)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.finished.clone()
    }

    /// Total seconds across all finished phases.
    pub fn total_seconds(&self) -> f64 {
        self.report().iter().map(|(_, s)| s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_nest_and_report_in_completion_order() {
        let p = HostProfiler::new();
        p.begin("campaign");
        p.begin("golden");
        p.end("golden");
        p.begin("experiments");
        p.end("experiments");
        p.end("campaign");
        let report = p.report();
        let names: Vec<&str> = report.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["golden", "experiments", "campaign"]);
        assert!(report.iter().all(|&(_, s)| s >= 0.0));
        assert!(p.total_seconds() >= 0.0);
    }

    #[test]
    fn ending_unknown_phase_is_a_noop() {
        let p = HostProfiler::new();
        p.end("never-started");
        assert!(p.report().is_empty());
    }

    #[test]
    fn profiler_is_sync_for_worker_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<HostProfiler>();
    }
}
