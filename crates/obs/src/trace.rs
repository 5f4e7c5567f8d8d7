//! Sim-time-stamped trace events and chrome://tracing export.
//!
//! A [`TraceEvent`] marks one point (or span edge) on a simulation
//! timeline: a beacon leaving a MAC, a frame surviving the SNIR decider, a
//! collision. Events carry [`SimTime`] — never host time — so a recorded
//! trace is as deterministic as the run that produced it.
//!
//! [`chrome_trace_json`] renders a slice of events in the Trace Event
//! Format understood by `chrome://tracing` and <https://ui.perfetto.dev>:
//! each world track (vehicle, jammer, kernel) becomes one timeline row.

use comfase_json::Writer;

use comfase_des::time::SimTime;

/// What kind of timeline mark an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A single point on the timeline (phase `i` in the trace format).
    Mark,
    /// Opens a span on its track (phase `B`).
    Begin,
    /// Closes the most recent open span on its track (phase `E`).
    End,
}
comfase_json::variants!(ToJson for TraceKind { Mark, Begin, End });

impl TraceKind {
    /// The Trace Event Format phase letter.
    pub fn phase(self) -> &'static str {
        match self {
            TraceKind::Mark => "i",
            TraceKind::Begin => "B",
            TraceKind::End => "E",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Timeline row the event belongs to (vehicle id, jammer id, or a
    /// reserved track such as [`TRACK_KERNEL`]).
    pub track: u32,
    /// Event name (static in the instrumented code).
    pub name: &'static str,
    /// Point or span edge.
    pub kind: TraceKind,
}
comfase_json::record!(ToJson for TraceEvent { time, track, name, kind });

/// Track id used for world-level events (attack windows, kernel marks)
/// that belong to no single vehicle.
pub const TRACK_KERNEL: u32 = u32::MAX;

/// Renders events as a chrome://tracing JSON document.
///
/// Timestamps are microseconds (the format's unit) with nanosecond
/// fractions preserved. Tracks map to thread ids under a single process.
/// The output for a given event slice is byte-stable: same events in, same
/// bytes out.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    let mut w = Writer::compact(&mut out);
    w.begin_object();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.begin_array();
    for e in events {
        w.begin_object();
        w.field("name", e.name);
        w.field("cat", "sim");
        w.field("ph", e.kind.phase());
        w.key("ts");
        w.number(&format_micros(e.time.as_nanos()));
        w.field("pid", &0u32);
        w.field("tid", &e.track);
        if e.kind == TraceKind::Mark {
            w.field("s", "t");
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    out.push('\n');
    out
}

/// Renders a nanosecond count as a microsecond JSON number in the integer
/// domain: the whole-µs part is a plain `i64` division and only the 0–999 ns
/// remainder is rendered as a decimal fraction (trailing zeros trimmed, so
/// 1500 ns stays `1.5`). Going through `f64` instead would lose integer
/// precision past 2^53 ns (~104 sim-days) and could misorder adjacent
/// events in Perfetto.
fn format_micros(nanos: i64) -> String {
    let sign = if nanos < 0 { "-" } else { "" };
    let abs = nanos.unsigned_abs();
    let us = abs / 1000;
    let frac = abs % 1000;
    if frac == 0 {
        format!("{sign}{us}")
    } else {
        let digits = format!("{frac:03}");
        format!("{sign}{us}.{}", digits.trim_end_matches('0'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfase_json::Value;

    fn ev(ns: i64, track: u32, name: &'static str, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(ns),
            track,
            name,
            kind,
        }
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let events = vec![
            ev(1_500, 1, "tx", TraceKind::Mark),
            ev(2_000, 2, "attack", TraceKind::Begin),
            ev(9_000, 2, "attack", TraceKind::End),
        ];
        let json = chrome_trace_json(&events);
        let v = comfase_json::parse(&json).expect("valid JSON");
        let list = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(list.len(), 3);
        let field = |i: usize, key: &str| list[i].get(key).cloned().expect("field present");
        assert_eq!(field(0, "ph").as_str(), Some("i"));
        assert_eq!(field(0, "ts").as_f64(), Some(1.5));
        assert_eq!(field(1, "ph").as_str(), Some("B"));
        assert_eq!(field(2, "ph").as_str(), Some("E"));
        assert_eq!(field(0, "tid").as_u64(), Some(1));
    }

    #[test]
    fn large_sim_times_keep_integer_precision() {
        // Past 2^53 ns an f64 µs conversion collapses adjacent nanosecond
        // timestamps onto the same value (and can even swap their order
        // after rounding). The integer-domain renderer must keep them
        // distinct and exact.
        let base: i64 = 9_007_199_254_741_001; // > 2^53 ns, ends in …001
        let events = vec![
            ev(base, 1, "a", TraceKind::Mark),
            ev(base + 1, 1, "b", TraceKind::Mark),
        ];
        let json = chrome_trace_json(&events);
        let us = base / 1000;
        let expected_a = format!("\"ts\":{us}.001");
        let expected_b = format!("\"ts\":{us}.002");
        assert!(json.contains(&expected_a), "missing {expected_a} in {json}");
        assert!(json.contains(&expected_b), "missing {expected_b} in {json}");
    }

    #[test]
    fn fractional_micros_trim_trailing_zeros() {
        assert_eq!(format_micros(0), "0");
        assert_eq!(format_micros(1_500), "1.5");
        assert_eq!(format_micros(1_050), "1.05");
        assert_eq!(format_micros(1_005), "1.005");
        assert_eq!(format_micros(2_000), "2");
        assert_eq!(format_micros(-1_500), "-1.5");
    }

    #[test]
    fn export_is_byte_stable() {
        let events = vec![ev(42, 7, "x", TraceKind::Mark)];
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let json = chrome_trace_json(&[]);
        let v = comfase_json::parse(&json).expect("valid JSON");
        assert!(v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("array")
            .is_empty());
    }
}
