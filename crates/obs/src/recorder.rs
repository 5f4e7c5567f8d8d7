//! The telemetry recorders: [`SimRecorder`], the handle simulation state
//! owns, and the [`MemRecorder`] it wraps.
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

    /// `true` if this configuration records nothing at all.
    pub fn is_disabled(&self) -> bool {
        !self.metrics && self.trace_capacity == 0 && !self.dataset
    }
}

/// In-memory recorder: counters, histograms, and a bounded event buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRecorder {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, (HistSpec, Histogram)>,
    events: Vec<TraceEvent>,
    trace_capacity: usize,
    dropped_events: u64,
    metrics: bool,
    dataset: Option<Box<DatasetCapture>>,
}

impl MemRecorder {
    /// Creates a recorder for the given configuration. The event buffer is
    /// allocated once, up front, at the configured cap.
    pub fn new(config: ObsConfig) -> Self {
        MemRecorder {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: Vec::with_capacity(config.trace_capacity.min(PRESIZE_CLAMP)),
            trace_capacity: config.trace_capacity,
            dropped_events: 0,
            metrics: config.metrics,
            dataset: config.dataset.then(|| Box::new(DatasetCapture::default())),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
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
    pub fn enabled(&self) -> bool {
        self.metrics
    }

    /// `true` if trace events are being kept.
    pub fn trace_enabled(&self) -> bool {
        self.trace_capacity > 0
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, key: &'static str, n: u64) {
        if self.metrics {
            *self.counters.entry(key).or_insert(0) += n;
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
        let (stored, hist) = self
            .histograms
            .entry(key)
            .or_insert_with(|| (spec, spec.build()));
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
            *self.counters.entry(SPEC_CONFLICTS).or_insert(0) += 1;
        }
        hist.record(value);
    }

    /// Records a timeline event (kept only while the bounded buffer has
    /// room; see [`MemRecorder::dropped_events`]).
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

/// The recorder handle simulation state owns.
///
/// A two-variant enum instead of a boxed trait object so that:
///
/// - the world stays `Clone` (snapshot/fork execution clones recorded
///   telemetry along with the rest of the state);
/// - the disabled path is one branch on a discriminant — cheap enough to
///   leave instrumentation unconditionally compiled in.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SimRecorder {
    /// Recording disabled (the default).
    #[default]
    Null,
    /// Recording into an in-memory [`MemRecorder`].
    Mem(Box<MemRecorder>),
}

impl SimRecorder {
    /// Builds the right variant for a configuration: [`SimRecorder::Null`]
    /// when everything is off, so disabled runs pay nothing.
    pub fn new(config: ObsConfig) -> Self {
        if config.is_disabled() {
            SimRecorder::Null
        } else {
            SimRecorder::Mem(Box::new(MemRecorder::new(config)))
        }
    }

    /// Freezes recorded state into a snapshot (empty for
    /// [`SimRecorder::Null`]).
    pub fn into_snapshot(self) -> MetricsSnapshot {
        match self {
            SimRecorder::Null => MetricsSnapshot::default(),
            SimRecorder::Mem(m) => m.into_snapshot(),
        }
    }

    /// `true` if counters/histograms are being kept (see
    /// [`MemRecorder::enabled`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        match self {
            SimRecorder::Null => false,
            SimRecorder::Mem(m) => m.enabled(),
        }
    }

    /// `true` if trace events are being kept.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        match self {
            SimRecorder::Null => false,
            SimRecorder::Mem(m) => m.trace_enabled(),
        }
    }

    /// Adds `n` to the named counter.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        if let SimRecorder::Mem(m) = self {
            m.add(key, n);
        }
    }

    /// Increments the named counter by one.
    #[inline]
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Records one observation into the named fixed-bucket histogram (see
    /// [`MemRecorder::observe`]).
    #[inline]
    pub fn observe(&mut self, key: &'static str, spec: HistSpec, value: f64) {
        if let SimRecorder::Mem(m) = self {
            m.observe(key, spec, value);
        }
    }

    /// Records a timeline event (see [`MemRecorder::trace_event`]).
    #[inline]
    pub fn trace_event(&mut self, time: SimTime, track: u32, name: &'static str, kind: TraceKind) {
        if let SimRecorder::Mem(m) = self {
            m.trace_event(time, track, name, kind);
        }
    }

    /// `true` if dataset rows are being captured.
    #[inline]
    pub fn dataset_enabled(&self) -> bool {
        match self {
            SimRecorder::Null => false,
            SimRecorder::Mem(m) => m.dataset_enabled(),
        }
    }

    /// Captures one per-frame dataset row.
    #[inline]
    pub fn record_frame(&mut self, f: FrameRecord) {
        if let SimRecorder::Mem(m) = self {
            m.record_frame(f);
        }
    }

    /// Captures one per-control-step dataset row.
    #[inline]
    pub fn record_step(&mut self, s: StepRecord) {
        if let SimRecorder::Mem(m) = self {
            m.record_step(s);
        }
    }
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

    fn mark(r: &mut MemRecorder, ns: i64) {
        r.trace_event(SimTime::from_nanos(ns), 1, "e", TraceKind::Mark);
    }

    #[test]
    fn null_recorder_records_nothing() {
        let mut r = SimRecorder::new(ObsConfig::disabled());
        assert!(!r.enabled());
        assert!(!r.trace_enabled());
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
        assert!(r.into_snapshot().is_empty());
    }

    #[test]
    fn mem_recorder_counts_and_observes() {
        let mut r = MemRecorder::new(ObsConfig::metrics_only());
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
    fn event_buffer_is_bounded_with_dropped_counter() {
        let mut r = MemRecorder::new(ObsConfig {
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
        let r = MemRecorder::new(ObsConfig {
            metrics: false,
            trace_capacity: 100,
            dataset: false,
        });
        assert!(r.events.capacity() >= 100);
        // A pathological cap must not cause a pathological allocation.
        let big = MemRecorder::new(ObsConfig {
            metrics: false,
            trace_capacity: usize::MAX,
            dataset: false,
        });
        assert!(big.events.capacity() <= super::PRESIZE_CLAMP);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn conflicting_hist_specs_are_counted_not_misbucketed() {
        let mut r = MemRecorder::new(ObsConfig::metrics_only());
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
        let mut r = MemRecorder::new(ObsConfig::metrics_only());
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
    fn sim_recorder_null_for_disabled_config() {
        let r = SimRecorder::new(ObsConfig::disabled());
        assert_eq!(r, SimRecorder::Null);
        assert!(r.into_snapshot().is_empty());
        let r = SimRecorder::new(ObsConfig::metrics_only());
        assert!(matches!(r, SimRecorder::Mem(_)));
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
        let mut r = MemRecorder::new(ObsConfig::with_trace());
        r.inc("k");
        mark(&mut r, 5);
        let snap = r.into_snapshot();
        let json = comfase_json::to_string(&snap);
        let back: MetricsSnapshot = comfase_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
