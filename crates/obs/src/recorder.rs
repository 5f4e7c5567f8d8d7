//! The telemetry recorder: [`SimRecorder`], which simulation state owns.
//!
//! Instrumentation points in the simulation stack talk to a recorder
//! through three primitives:
//!
//! - **counters** — monotone `u64` values under `'static` dotted names
//!   (`"kernel.dispatch.rx_end"`, `"phy.rx.lost_snir"`);
//! - **fixed-bucket histograms** — every observation site supplies its
//!   bucket layout ([`HistSpec`]) so the histogram shape is a property of
//!   the code, not of the data;
//! - **trace events** — sim-time-stamped timeline marks collected into a
//!   bounded, pre-sized buffer (see [`ObsConfig::trace_capacity`]); once
//!   the cap is hit further events are counted in `dropped_events` instead
//!   of growing memory without bound.
//!
//! Everything recorded here is part of deterministic run state: values
//! depend only on the seed and the configuration, never on wall time,
//! thread count, or execution mode (fork vs. scratch).

use std::borrow::Cow;
use std::collections::BTreeMap;

use comfase_des::stats::Histogram;
use comfase_des::time::SimTime;

use crate::dataset::{DatasetCapture, FrameRecord, StepRecord};
use crate::trace::{TraceEvent, TraceKind};

/// Bucket layout of a fixed-bucket histogram: `bins` equal-width bins over
/// `[lo, hi)` (out-of-range observations land in underflow/overflow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSpec {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
    /// Number of equal-width bins.
    pub bins: usize,
}

impl HistSpec {
    /// Builds the empty histogram for this layout.
    pub fn build(&self) -> Histogram {
        Histogram::new(self.lo, self.hi, self.bins)
    }
}

/// Observability configuration of one world/engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Keep counters and histograms.
    pub metrics: bool,
    /// Keep up to this many trace events (0 disables tracing). The event
    /// buffer is pre-sized to this cap (clamped for sanity) and never
    /// reallocates; events past the cap only bump `dropped_events`.
    pub trace_capacity: usize,
    /// Capture per-frame/per-step dataset rows (see [`crate::dataset`]).
    /// Folded into campaign fingerprints: a capture-on run is a different
    /// campaign identity than a capture-off run, because its run logs
    /// carry extra state. Left out of result-cache keys, whose entries
    /// hold only verdicts and metrics rows, which capture does not change.
    pub dataset: bool,
}

/// Default trace-event cap used by [`ObsConfig::with_trace`]: enough for a
/// 60 s paper run at full beacon rate, small enough to stay cheap.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Pre-sizing clamp: a pathological cap (`usize::MAX`) must not turn into
/// a pathological allocation.
const PRESIZE_CLAMP: usize = 1 << 20;

/// Counter bumped when an observation arrives with a [`HistSpec`] that
/// conflicts with the layout fixed by the key's first observation.
pub const SPEC_CONFLICTS: &str = "obs.spec_conflicts";

impl ObsConfig {
    /// Everything off — the default, with zero recording cost.
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Counters and histograms on, tracing off. This is what campaign
    /// metrics collection uses.
    pub fn metrics_only() -> Self {
        ObsConfig {
            metrics: true,
            trace_capacity: 0,
            dataset: false,
        }
    }

    /// Counters, histograms, and a bounded trace buffer
    /// ([`DEFAULT_TRACE_CAPACITY`] events).
    pub fn with_trace() -> Self {
        ObsConfig {
            metrics: true,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            dataset: false,
        }
    }

    /// This configuration with dataset capture switched on.
    pub fn with_dataset(mut self) -> Self {
        self.dataset = true;
        self
    }
}

/// The recorder simulation state owns: counters, histograms, a bounded
/// event buffer and, if configured, dataset rows.
///
/// Every recording call checks its own switch in the [`ObsConfig`], so a
/// disabled recorder costs one branch per call, allocates nothing, and
/// snapshots to [`MetricsSnapshot::default`]. The recorder is `Clone`:
/// snapshot/fork execution clones recorded telemetry along with the rest of
/// the world state.
///
/// Counters and histograms sit in small `Vec`s keyed by `&'static str`, in
/// first-use order. A run touches a few dozen names, so finding a key is a
/// short scan that compares addresses before contents, instead of a
/// string-comparing tree walk on every update;
/// [`SimRecorder::into_snapshot`] sorts them by name.
/// Equality is logical: two recorders holding the same values under the
/// same names are equal whatever order the names were first used in.
#[derive(Debug, Clone)]
pub struct SimRecorder {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, (HistSpec, Histogram))>,
    events: Vec<TraceEvent>,
    trace_capacity: usize,
    dropped_events: u64,
    metrics: bool,
    dataset: Option<Box<DatasetCapture>>,
}

impl SimRecorder {
    /// Creates a recorder for the given configuration. The event buffer is
    /// allocated once, up front, at the configured cap.
    pub fn new(config: ObsConfig) -> Self {
        SimRecorder {
            counters: Vec::new(),
            histograms: Vec::new(),
            events: Vec::with_capacity(config.trace_capacity.min(PRESIZE_CLAMP)),
            trace_capacity: config.trace_capacity,
            dropped_events: 0,
            metrics: config.metrics,
            dataset: config.dataset.then(|| Box::new(DatasetCapture::default())),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        slot(&self.counters, key).map_or(0, |i| self.counters[i].1)
    }

    /// The recorded events, oldest first (the buffer keeps the *first*
    /// `trace_capacity` events of the run; later ones are dropped so the
    /// timeline start — where attacks are injected — is always complete).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of trace events discarded after the buffer filled up.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Freezes the recorded state into a serializable snapshot.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .into_iter()
                .map(|(k, (_spec, v))| (k.to_string(), v))
                .collect(),
            events: self.events,
            dropped_events: self.dropped_events,
            dataset: self.dataset.map(|b| *b),
        }
    }

    /// `true` if counters/histograms are being kept. Callers may use this
    /// to skip building expensive observation values.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.metrics
    }

    /// `true` if trace events are being kept.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_capacity > 0
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, key: &'static str, n: u64) {
        if self.metrics {
            *entry(&mut self.counters, key, || 0) += n;
        }
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Records one observation into the named fixed-bucket histogram.
    /// The first observation of a key fixes its layout from `spec`.
    pub fn observe(&mut self, key: &'static str, spec: HistSpec, value: f64) {
        if !self.metrics {
            return;
        }
        let (stored, hist) = entry(&mut self.histograms, key, || (spec, spec.build()));
        if *stored != spec {
            // A histogram's layout is fixed by its first observation. A
            // later observation arriving with a different spec would be
            // silently misbucketed; keep the original layout but make the
            // conflict visible in the snapshot, and fail fast in
            // sim-sanitizer builds.
            debug_assert!(
                false,
                "histogram {key:?} observed with conflicting spec {spec:?} (layout fixed as {stored:?})"
            );
            *entry(&mut self.counters, SPEC_CONFLICTS, || 0) += 1;
        }
        hist.record(value);
    }

    /// Records a timeline event (kept only while the bounded buffer has
    /// room; see [`SimRecorder::dropped_events`]).
    pub fn trace_event(&mut self, time: SimTime, track: u32, name: &'static str, kind: TraceKind) {
        if self.trace_capacity == 0 {
            return;
        }
        if self.events.len() >= self.trace_capacity {
            self.dropped_events += 1;
            return;
        }
        self.events.push(TraceEvent {
            time,
            track,
            name: Cow::Borrowed(name),
            kind,
        });
    }

    /// `true` if dataset rows are being captured. Instrumentation sites
    /// guard on this before assembling a record, so disabled runs pay one
    /// branch and zero allocation on the frame path.
    #[inline]
    pub fn dataset_enabled(&self) -> bool {
        self.dataset.is_some()
    }

    /// Captures one per-frame dataset row (bounded; see
    /// [`crate::dataset::FRAMES_CAP`]).
    pub fn record_frame(&mut self, f: FrameRecord) {
        if let Some(capture) = &mut self.dataset {
            capture.push_frame(f);
        }
    }

    /// Captures one per-control-step dataset row (bounded; see
    /// [`crate::dataset::STEPS_CAP`]).
    pub fn record_step(&mut self, s: StepRecord) {
        if let Some(capture) = &mut self.dataset {
            capture.push_step(s);
        }
    }
}

impl PartialEq for SimRecorder {
    fn eq(&self, other: &Self) -> bool {
        same_slots(&self.counters, &other.counters)
            && same_slots(&self.histograms, &other.histograms)
            && self.events == other.events
            && self.trace_capacity == other.trace_capacity
            && self.dropped_events == other.dropped_events
            && self.metrics == other.metrics
            && self.dataset == other.dataset
    }
}

/// Position of `key` in `slots`. The first pass compares addresses only
/// (`std::ptr::eq` on the fat pointers), which finds every key recorded
/// through the same literal; the second compares contents, so equal names
/// at different addresses still share one slot.
fn slot<T>(slots: &[(&'static str, T)], key: &str) -> Option<usize> {
    slots
        .iter()
        .position(|(k, _)| std::ptr::eq(*k, key))
        .or_else(|| slots.iter().position(|(k, _)| *k == key))
}

/// The value stored under `key`, inserted from `init` on first use.
fn entry<'a, T>(
    slots: &'a mut Vec<(&'static str, T)>,
    key: &'static str,
    init: impl FnOnce() -> T,
) -> &'a mut T {
    let i = match slot(slots, key) {
        Some(i) => i,
        None => {
            slots.push((key, init()));
            slots.len() - 1
        }
    };
    &mut slots[i].1
}

/// `true` if `a` and `b` hold equal values under the same names, in any
/// order. Names are unique within each, so equal lengths and every entry
/// of `a` found in `b` suffice.
fn same_slots<T: PartialEq>(a: &[(&'static str, T)], b: &[(&'static str, T)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, v)| slot(b, k).is_some_and(|i| b[i].1 == *v))
}

/// Frozen, serializable telemetry of one run. Lives inside the run log, so
/// it participates in the fork-vs-scratch bit-identity assertions like any
/// other run state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Recorded trace events (empty unless tracing was enabled).
    pub events: Vec<TraceEvent>,
    /// Trace events dropped by the buffer cap.
    pub dropped_events: u64,
    /// Captured dataset rows (present only when [`ObsConfig::dataset`] was
    /// on, so existing artifacts serialize byte-identically).
    pub dataset: Option<DatasetCapture>,
}
comfase_json::record!(ToJson, FromJson for MetricsSnapshot {
    counters, histograms, #[skip_empty] events, #[default] dropped_events, #[skip_empty] dataset,
});

impl MetricsSnapshot {
    /// Value of a counter (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.dataset.as_ref().is_none_or(|d| d.is_empty())
    }

    /// Moves the captured dataset rows out of the snapshot (leaving
    /// `None`), so the campaign layer can export them without cloning.
    pub fn take_dataset(&mut self) -> Option<DatasetCapture> {
        self.dataset.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(r: &mut SimRecorder, ns: i64) {
        r.trace_event(SimTime::from_nanos(ns), 1, "e", TraceKind::Mark);
    }

    #[test]
    fn null_recorder_records_nothing() {
        let mut r = SimRecorder::new(ObsConfig::disabled());
        assert!(!r.enabled());
        assert!(!r.trace_enabled());
        assert!(!r.dataset_enabled());
        assert_eq!(
            r.events.capacity(),
            0,
            "a disabled recorder allocates nothing"
        );
        r.inc("x");
        r.observe(
            "h",
            HistSpec {
                lo: 0.0,
                hi: 1.0,
                bins: 4,
            },
            0.5,
        );
        r.trace_event(SimTime::from_nanos(1), 1, "e", TraceKind::Mark);
        assert_eq!(r.into_snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn mem_recorder_counts_and_observes() {
        let mut r = SimRecorder::new(ObsConfig::metrics_only());
        assert!(r.enabled());
        r.inc("a.b");
        r.add("a.b", 2);
        r.inc("z");
        let spec = HistSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 5,
        };
        r.observe("h", spec, 3.0);
        r.observe("h", spec, 7.0);
        assert_eq!(r.counter("a.b"), 3);
        assert_eq!(r.counter("missing"), 0);
        let snap = r.into_snapshot();
        assert_eq!(snap.counter("a.b"), 3);
        assert_eq!(snap.counter("z"), 1);
        assert_eq!(snap.histograms["h"].total(), 2);
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_slot() {
        let counter: &'static str = Box::leak(String::from("phy.rx.ok").into_boxed_str());
        let hist: &'static str = Box::leak(String::from("h").into_boxed_str());
        assert!(!std::ptr::eq(counter, "phy.rx.ok"));
        assert!(!std::ptr::eq(hist, "h"));
        let spec = HistSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 5,
        };
        let mut r = SimRecorder::new(ObsConfig::metrics_only());
        r.inc("z.last");
        r.inc("phy.rx.ok");
        r.add(counter, 2);
        r.inc("a.first");
        r.observe("h", spec, 3.0);
        r.observe(hist, spec, 7.0);
        assert_eq!(r.counter("phy.rx.ok"), 3);
        assert_eq!(r.counter(counter), 3);
        assert_eq!(r.counters.len(), 3, "one slot per name");
        assert_eq!(r.histograms.len(), 1, "one slot per name");
        // Equality is logical: first-use order does not matter.
        let mut other = SimRecorder::new(ObsConfig::metrics_only());
        other.inc("a.first");
        other.add(counter, 3);
        other.inc("z.last");
        other.observe(hist, spec, 7.0);
        other.observe("h", spec, 3.0);
        assert_eq!(r, other);
        other.inc("a.first");
        assert_ne!(r, other);
        // The snapshot is the sorted map a string-keyed tree would hold.
        let snap = r.into_snapshot();
        let want: BTreeMap<String, u64> = [("a.first", 1), ("phy.rx.ok", 3), ("z.last", 1)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(snap.counters, want);
        let mut h = spec.build();
        h.record(3.0);
        h.record(7.0);
        assert_eq!(snap.histograms, BTreeMap::from([("h".to_string(), h)]));
    }

    #[test]
    fn event_buffer_is_bounded_with_dropped_counter() {
        let mut r = SimRecorder::new(ObsConfig {
            metrics: false,
            trace_capacity: 3,
            dataset: false,
        });
        assert!(r.trace_enabled());
        for i in 0..10 {
            mark(&mut r, i);
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped_events(), 7);
        // The kept events are the earliest ones.
        assert_eq!(r.events()[0].time, SimTime::from_nanos(0));
        assert_eq!(r.events()[2].time, SimTime::from_nanos(2));
        let snap = r.into_snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped_events, 7);
    }

    #[test]
    fn event_buffer_is_presized_and_never_grows() {
        let r = SimRecorder::new(ObsConfig {
            metrics: false,
            trace_capacity: 100,
            dataset: false,
        });
        assert!(r.events.capacity() >= 100);
        // A pathological cap must not cause a pathological allocation.
        let big = SimRecorder::new(ObsConfig {
            metrics: false,
            trace_capacity: usize::MAX,
            dataset: false,
        });
        assert!(big.events.capacity() <= super::PRESIZE_CLAMP);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn conflicting_hist_specs_are_counted_not_misbucketed() {
        let mut r = SimRecorder::new(ObsConfig::metrics_only());
        let spec = HistSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 5,
        };
        let other = HistSpec {
            lo: 0.0,
            hi: 100.0,
            bins: 5,
        };
        r.observe("h", spec, 3.0);
        r.observe("h", other, 7.0); // conflicting layout
        assert_eq!(r.counter(SPEC_CONFLICTS), 1);
        // The layout fixed by the first observation stays in force.
        let snap = r.into_snapshot();
        assert_eq!(snap.histograms["h"].total(), 2);
        assert_eq!(snap.counter(SPEC_CONFLICTS), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "conflicting spec")]
    fn conflicting_hist_specs_trip_the_sim_sanitizer() {
        let mut r = SimRecorder::new(ObsConfig::metrics_only());
        r.observe(
            "h",
            HistSpec {
                lo: 0.0,
                hi: 10.0,
                bins: 5,
            },
            3.0,
        );
        r.observe(
            "h",
            HistSpec {
                lo: 0.0,
                hi: 100.0,
                bins: 5,
            },
            7.0,
        );
    }

    #[test]
    fn dataset_capture_follows_config_and_clones_with_forks() {
        use crate::dataset::FrameRecord;
        let frame = FrameRecord {
            time_ns: 1_000,
            tx: 0,
            rx: 1,
            delay_ns: 500,
            snir_db: Some(20.0),
            fate: crate::dataset::FrameFate::Received,
            attack_active: false,
        };
        // Capture off: record_frame is a no-op and the snapshot omits the
        // dataset block entirely.
        let mut off = SimRecorder::new(ObsConfig::metrics_only());
        assert!(!off.dataset_enabled());
        off.record_frame(frame);
        assert!(off.into_snapshot().dataset.is_none());
        // Capture on: rows accumulate and fork clones carry them.
        let mut on = SimRecorder::new(ObsConfig::metrics_only().with_dataset());
        assert!(on.dataset_enabled());
        on.record_frame(frame);
        let mut fork = on.clone();
        fork.record_frame(frame);
        on.record_frame(frame);
        assert_eq!(on.into_snapshot(), fork.into_snapshot());
    }

    #[test]
    fn sim_recorder_clones_carry_recorded_state() {
        let mut r = SimRecorder::new(ObsConfig::metrics_only());
        r.inc("x");
        let mut fork = r.clone();
        fork.inc("x");
        r.inc("x");
        // Diverged after the fork point, identically.
        assert_eq!(r.into_snapshot(), fork.into_snapshot());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut r = SimRecorder::new(ObsConfig::with_trace());
        r.inc("k");
        mark(&mut r, 5);
        let snap = r.into_snapshot();
        let json = comfase_json::to_string(&snap);
        let back: MetricsSnapshot = comfase_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
