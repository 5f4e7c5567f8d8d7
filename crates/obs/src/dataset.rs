//! Streaming attack-labeled dataset export.
//!
//! Campaign execution is a data factory: every PHY frame decision and every
//! control step is a labeled training example for downstream ML pipelines
//! (Iqbal et al., "Simulating Malicious Attacks on VANETs"). This module
//! turns the existing [`SimRecorder`](crate::recorder::SimRecorder)
//! frame-fate instrumentation into that dataset:
//!
//! - **Sim-side capture** — [`FrameRecord`] / [`StepRecord`] rows collected
//!   into a bounded [`DatasetCapture`] carried inside the recorder. Capture
//!   is part of deterministic run state: it clones with the world on
//!   snapshot forks, so a forked run and a from-scratch run capture
//!   byte-identical rows. Rows are label-free — the attack/verdict labels
//!   are only known at the campaign layer and are stamped at export time.
//! - **Rendering for export** — [`render_experiment`] turns one
//!   [`ExperimentExport`] (campaign identity, label, capture) into a
//!   length-delimited JSON-lines shard. The campaign hands each finished
//!   experiment to a `comfase::campaign::DatasetSink`; the
//!   `comfase_dist::DirSink` writes it as `exp-<index>.jsonl` through an
//!   atomic temp-file-plus-rename publication, so concurrent workers
//!   (including steal re-executions of the same experiment) can export into
//!   one directory without coordination: identical inputs render identical
//!   bytes, and a re-published shard simply replaces itself. This module
//!   does no I/O.
//!
//! Every shard opens with a schema header stamped with the campaign
//! fingerprint (the same identity the journal header carries), so a merge
//! can refuse shards from a foreign campaign. The line format is
//! `<payload-byte-length>\t<json>\n`: a reader can skip records without
//! parsing them, and the rendered bytes for a given experiment are a pure
//! function of `(fingerprint, seed, total, label, capture)` — which is what
//! makes the merged corpus byte-identical regardless of worker count,
//! execution mode, or steal events.

use std::fmt::Write as _;

use comfase_json::{write_f64, Fields, ToJson, Writer};

/// Version of the dataset record schema. Bump on any change to the
/// rendered line shapes.
pub const DATASET_SCHEMA_VERSION: u32 = 1;

/// Cap on captured frame rows per experiment; later frames only bump
/// [`DatasetCapture::frames_dropped`].
pub const FRAMES_CAP: usize = 1 << 20;

/// Cap on captured step rows per experiment; later steps only bump
/// [`DatasetCapture::steps_dropped`].
pub const STEPS_CAP: usize = 1 << 20;

/// How a PHY frame's reception ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Decoded successfully (SNIR above threshold).
    Received,
    /// Lost to interference/noise (SNIR below threshold).
    LostSnir,
    /// Arrived below the receiver sensitivity floor.
    LostSensitivity,
    /// Discarded by the first-fault-wins numeric guard.
    NumericFault,
    /// The receiver was inactive (crashed/removed) or had no radio.
    RxInactive,
}

/// One PHY frame reception decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Sim time the reception was decided, in nanoseconds.
    pub time_ns: i64,
    /// Transmitting node id.
    pub tx: u32,
    /// Receiving node id.
    pub rx: u32,
    /// End-to-end delay from WSM creation to reception decision, in
    /// nanoseconds.
    pub delay_ns: i64,
    /// Decider SNIR in dB (present only for decided receptions that
    /// computed one).
    pub snir_db: Option<f64>,
    /// How the reception ended.
    pub fate: FrameFate,
    /// `true` while an attack interceptor was installed on the medium.
    pub attack_active: bool,
}
comfase_json::record!(ToJson for FrameRecord {
    time_ns, tx, rx, delay_ns, snir_db, fate, attack_active,
});

/// One control-loop step of one vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Sim time of the step, in nanoseconds.
    pub time_ns: i64,
    /// Vehicle id.
    pub vehicle: u32,
    /// Longitudinal position in metres.
    pub pos_m: f64,
    /// Speed in m/s.
    pub speed_mps: f64,
    /// Acceleration actually applied this step, in m/s².
    pub accel_mps2: f64,
    /// Radar-observed leader vehicle id, if any.
    pub leader: Option<u32>,
    /// Radar gap to the leader in metres, if any.
    pub gap_m: Option<f64>,
    /// `true` if the applied deceleration crossed the hard-braking
    /// threshold (monitor intervention or ≤ −5 m/s², the paper's
    /// comfortable-deceleration boundary).
    pub hard_braking: bool,
    /// `true` if this vehicle collided this step.
    pub collision: bool,
    /// `true` while an attack interceptor was installed on the medium.
    pub attack_active: bool,
}
comfase_json::record!(ToJson for StepRecord {
    time_ns, vehicle, pos_m, speed_mps, accel_mps2, leader, gap_m, hard_braking, collision,
    attack_active,
});

/// Label-free dataset rows captured inside one simulation run.
///
/// Lives in the recorder (and therefore in cloned/forked world state), so
/// capture inherits the engine's determinism guarantees. The campaign
/// layer moves it out of the run log and pairs it with an
/// [`ExperimentLabel`] at export time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetCapture {
    /// Per-frame reception rows, in decision order.
    pub frames: Vec<FrameRecord>,
    /// Per-vehicle control-step rows, in step order.
    pub steps: Vec<StepRecord>,
    /// Frame rows discarded after [`FRAMES_CAP`].
    pub frames_dropped: u64,
    /// Step rows discarded after [`STEPS_CAP`].
    pub steps_dropped: u64,
}
comfase_json::record!(ToJson for DatasetCapture {
    #[skip_empty] frames, #[skip_empty] steps, frames_dropped, steps_dropped,
});

impl DatasetCapture {
    /// Appends a frame row (bounded by [`FRAMES_CAP`]).
    pub fn push_frame(&mut self, f: FrameRecord) {
        self.push_frame_capped(f, FRAMES_CAP);
    }

    fn push_frame_capped(&mut self, f: FrameRecord, cap: usize) {
        if self.frames.len() < cap {
            self.frames.push(f);
        } else {
            self.frames_dropped += 1;
        }
    }

    /// Appends a step row (bounded by [`STEPS_CAP`]).
    pub fn push_step(&mut self, s: StepRecord) {
        self.push_step_capped(s, STEPS_CAP);
    }

    fn push_step_capped(&mut self, s: StepRecord, cap: usize) {
        if self.steps.len() < cap {
            self.steps.push(s);
        } else {
            self.steps_dropped += 1;
        }
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
            && self.steps.is_empty()
            && self.frames_dropped == 0
            && self.steps_dropped == 0
    }
}

/// Campaign-level labels stamped onto an experiment's rows at export time.
///
/// The sim capture is label-free; the campaign runner knows the attack
/// specification and the classified verdict and supplies them here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentLabel {
    /// Campaign experiment index.
    pub index: usize,
    /// Attack model name (`"delay"`, `"dos"`, …); `None` for a golden run.
    pub attack_model: Option<String>,
    /// Targeted message field, if the model falsifies one.
    pub attack_parameter: Option<String>,
    /// Attack intensity value.
    pub attack_value: Option<f64>,
    /// Attack window start, seconds.
    pub attack_start_s: Option<f64>,
    /// Attack window duration, seconds.
    pub attack_duration_s: Option<f64>,
    /// Attacked vehicle ids.
    pub targets: Vec<u32>,
    /// Classified verdict (`"severe"`, `"benign"`, …).
    pub verdict: String,
    /// Maximum deceleration observed, m/s².
    pub max_decel_mps2: f64,
    /// Number of collisions in the run.
    pub nr_collisions: usize,
}
comfase_json::record!(ToJson, FromJson for ExperimentLabel {
    index, attack_model, attack_parameter, attack_value, attack_start_s, attack_duration_s,
    targets, verdict, max_decel_mps2, nr_collisions,
});

/// Identity of the campaign a shard belongs to; mirrored from the journal
/// header so merges can reject foreign shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetHeader {
    /// [`DATASET_SCHEMA_VERSION`] at write time.
    pub dataset_schema_version: u32,
    /// Campaign fingerprint (canonical-JSON FNV-1a 64).
    pub fingerprint: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Total number of experiments in the campaign.
    pub total: usize,
}

/// One fully labeled experiment ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentExport {
    /// Campaign identity stamped into the shard header.
    pub header: DatasetHeader,
    /// Campaign-level labels for this experiment.
    pub label: ExperimentLabel,
    /// The captured rows.
    pub capture: DatasetCapture,
}

/// Appends one length-delimited line: `<payload-len>\t<payload>\n`.
fn push_line(out: &mut String, payload: &str) {
    let _ = writeln!(out, "{}\t{payload}", payload.len());
}

impl FrameFate {
    /// The snake_case wire tag used in rendered rows and run logs.
    pub fn wire_tag(self) -> &'static str {
        match self {
            FrameFate::Received => "received",
            FrameFate::LostSnir => "lost_snir",
            FrameFate::LostSensitivity => "lost_sensitivity",
            FrameFate::NumericFault => "numeric_fault",
            FrameFate::RxInactive => "rx_inactive",
        }
    }
}

impl ToJson for FrameFate {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.value(self.wire_tag());
    }
}

// The line payloads below are written field by field: the merged corpus
// must be byte-identical across worker counts, execution modes and
// toolchain versions, so the line schema is spelled out here (not derived
// from the record types, whose run-log shape may evolve on its own) and
// pinned by the golden tests at the bottom of the file. The row lines are
// the bulk of a shard, so their constant keys and fate tags are literal
// text and only the values go through the shared codec. It spells a
// non-finite float `null`; the numeric fault guards upstream are supposed
// to keep them out of captured rows, which the sim sanitizer checks here.

fn debug_assert_finite(values: &[Option<f64>]) {
    debug_assert!(
        values.iter().flatten().all(|v| v.is_finite()),
        "non-finite value reached the dataset renderer: {values:?}"
    );
}

fn render_header_payload(out: &mut String, header: &DatasetHeader, label: &ExperimentLabel) {
    debug_assert_finite(&[
        label.attack_value,
        label.attack_start_s,
        label.attack_duration_s,
        Some(label.max_decel_mps2),
    ]);
    let mut w = Writer::compact(out);
    w.begin_object();
    w.field("dataset_schema_version", &header.dataset_schema_version);
    w.field("fingerprint", &header.fingerprint);
    w.field("seed", &header.seed);
    w.field("total", &header.total);
    w.field("experiment", label);
    w.end_object();
}

fn render_frame_payload(out: &mut String, f: &FrameRecord) {
    debug_assert_finite(&[f.snir_db]);
    let _ = write!(
        out,
        "{{\"kind\":\"frame\",\"time_ns\":{},\"tx\":{},\"rx\":{},\"delay_ns\":{},\"snir_db\":",
        f.time_ns, f.tx, f.rx, f.delay_ns
    );
    Writer::compact(out).value(&f.snir_db);
    let _ = write!(
        out,
        ",\"fate\":\"{}\",\"attack_active\":{}}}",
        f.fate.wire_tag(),
        f.attack_active
    );
}

fn render_step_payload(out: &mut String, s: &StepRecord) {
    debug_assert_finite(&[
        Some(s.pos_m),
        Some(s.speed_mps),
        Some(s.accel_mps2),
        s.gap_m,
    ]);
    let _ = write!(
        out,
        "{{\"kind\":\"step\",\"time_ns\":{},\"vehicle\":{},\"pos_m\":",
        s.time_ns, s.vehicle
    );
    write_f64(out, s.pos_m);
    out.push_str(",\"speed_mps\":");
    write_f64(out, s.speed_mps);
    out.push_str(",\"accel_mps2\":");
    write_f64(out, s.accel_mps2);
    out.push_str(",\"leader\":");
    Writer::compact(out).value(&s.leader);
    out.push_str(",\"gap_m\":");
    Writer::compact(out).value(&s.gap_m);
    let _ = write!(
        out,
        ",\"hard_braking\":{},\"collision\":{},\"attack_active\":{}}}",
        s.hard_braking, s.collision, s.attack_active
    );
}

/// Renders one experiment's shard bytes: header line, then frame lines,
/// then step lines, then (only when rows were dropped) a truncation
/// trailer — each length-delimited.
///
/// This is a pure function of its input — same export in, same bytes out —
/// which is the keystone of the merge's byte-identity guarantee: shards
/// rendered by different workers, threads, or execution modes for the same
/// experiment are identical, so assembly order is the only thing the merge
/// has to fix (it sorts by index).
pub fn render_experiment(export: &ExperimentExport) -> Vec<u8> {
    let mut out = String::with_capacity(
        256 + export.capture.frames.len() * 160 + export.capture.steps.len() * 224,
    );
    let mut line = String::with_capacity(512);
    render_header_payload(&mut line, &export.header, &export.label);
    push_line(&mut out, &line);
    for f in &export.capture.frames {
        line.clear();
        render_frame_payload(&mut line, f);
        push_line(&mut out, &line);
    }
    for s in &export.capture.steps {
        line.clear();
        render_step_payload(&mut line, s);
        push_line(&mut out, &line);
    }
    if export.capture.frames_dropped > 0 || export.capture.steps_dropped > 0 {
        line.clear();
        let _ = write!(
            line,
            "{{\"kind\":\"dropped\",\"frames_dropped\":{},\"steps_dropped\":{}}}",
            export.capture.frames_dropped, export.capture.steps_dropped
        );
        push_line(&mut out, &line);
    }
    out.into_bytes()
}

/// Parses one length-delimited line, returning `(payload, rest)`.
///
/// Returns `None` on a malformed or torn line (missing delimiter, length
/// mismatch, missing trailing newline).
pub fn split_line(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let tab = bytes.iter().position(|&b| b == b'\t')?;
    let len: usize = std::str::from_utf8(&bytes[..tab]).ok()?.parse().ok()?;
    let start = tab + 1;
    let end = start.checked_add(len)?;
    if bytes.len() <= end || bytes[end] != b'\n' {
        return None;
    }
    let payload = std::str::from_utf8(&bytes[start..end]).ok()?;
    Some((payload, &bytes[end + 1..]))
}

/// Parses a shard's header line (the first line of the file), returning
/// the campaign identity and the experiment index the shard holds.
pub fn parse_header(bytes: &[u8]) -> Option<(DatasetHeader, usize)> {
    let (payload, _) = split_line(bytes)?;
    let line = comfase_json::parse(payload).ok()?;
    let mut fields = Fields::new(&line, "dataset header").ok()?;
    let header = DatasetHeader {
        dataset_schema_version: fields.get("dataset_schema_version").ok()?,
        fingerprint: fields.get("fingerprint").ok()?,
        seed: fields.get("seed").ok()?,
        total: fields.get("total").ok()?,
    };
    let label: ExperimentLabel = fields.get("experiment").ok()?;
    fields.finish().ok()?;
    Some((header, label.index))
}

/// Shard filename for an experiment index (zero-padded so lexicographic
/// directory order matches index order).
pub fn shard_file_name(index: usize) -> String {
    format!("exp-{index:06}.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_export(index: usize) -> ExperimentExport {
        ExperimentExport {
            header: DatasetHeader {
                dataset_schema_version: DATASET_SCHEMA_VERSION,
                fingerprint: 0xDEAD_BEEF,
                seed: 42,
                total: 8,
            },
            label: ExperimentLabel {
                index,
                attack_model: Some("delay".into()),
                attack_parameter: None,
                attack_value: Some(2.0),
                attack_start_s: Some(17.0),
                attack_duration_s: Some(6.0),
                targets: vec![2],
                verdict: "severe".into(),
                max_decel_mps2: 7.25,
                nr_collisions: 1,
            },
            capture: DatasetCapture {
                frames: vec![FrameRecord {
                    time_ns: 1_500_000_000,
                    tx: 0,
                    rx: 1,
                    delay_ns: 501_000,
                    snir_db: Some(23.5),
                    fate: FrameFate::Received,
                    attack_active: false,
                }],
                steps: vec![StepRecord {
                    time_ns: 1_500_000_000,
                    vehicle: 1,
                    pos_m: 35.0,
                    speed_mps: 23.0,
                    accel_mps2: -0.25,
                    leader: Some(0),
                    gap_m: Some(16.5),
                    hard_braking: false,
                    collision: false,
                    attack_active: false,
                }],
                frames_dropped: 0,
                steps_dropped: 0,
            },
        }
    }

    #[test]
    fn render_is_byte_stable_and_length_delimited() {
        let export = sample_export(3);
        let a = render_experiment(&export);
        let b = render_experiment(&export);
        assert_eq!(a, b);
        // Every line parses back out through the length-delimited reader
        // and carries a JSON object payload.
        let mut rest = a.as_slice();
        let mut lines = 0;
        while !rest.is_empty() {
            let (payload, tail) = split_line(rest).expect("well-formed line");
            assert!(payload.starts_with('{') && payload.ends_with('}'));
            rest = tail;
            lines += 1;
        }
        assert_eq!(lines, 3); // header + 1 frame + 1 step
    }

    #[test]
    fn rendered_lines_match_the_pinned_schema() {
        // Golden bytes: any change here is a schema change and must bump
        // DATASET_SCHEMA_VERSION.
        let bytes = render_experiment(&sample_export(3));
        let text = std::str::from_utf8(&bytes).unwrap();
        let mut lines = Vec::new();
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let (payload, tail) = split_line(rest).unwrap();
            lines.push(payload.to_string());
            rest = tail;
        }
        assert_eq!(
            lines[0],
            "{\"dataset_schema_version\":1,\"fingerprint\":3735928559,\"seed\":42,\"total\":8,\
             \"experiment\":{\"index\":3,\"attack_model\":\"delay\",\"attack_parameter\":null,\
             \"attack_value\":2,\"attack_start_s\":17,\"attack_duration_s\":6,\"targets\":[2],\
             \"verdict\":\"severe\",\"max_decel_mps2\":7.25,\"nr_collisions\":1}}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"frame\",\"time_ns\":1500000000,\"tx\":0,\"rx\":1,\"delay_ns\":501000,\
             \"snir_db\":23.5,\"fate\":\"received\",\"attack_active\":false}"
        );
        assert_eq!(
            lines[2],
            "{\"kind\":\"step\",\"time_ns\":1500000000,\"vehicle\":1,\"pos_m\":35,\
             \"speed_mps\":23,\"accel_mps2\":-0.25,\"leader\":0,\"gap_m\":16.5,\
             \"hard_braking\":false,\"collision\":false,\"attack_active\":false}"
        );
        // Each line is delimited as `<payload-len>\t<payload>\n`.
        assert!(text.starts_with(&format!("{}\t{{", lines[0].len())));
    }

    #[test]
    fn header_round_trips() {
        let export = sample_export(5);
        let bytes = render_experiment(&export);
        let (header, index) = parse_header(&bytes).expect("header parses");
        assert_eq!(header, export.header);
        assert_eq!(index, 5);
        // A label string containing a decoy numeric field must not confuse
        // the reader: the header line is parsed, not scanned.
        let mut decoy = export;
        decoy.label.verdict = "\"total\":999".into();
        let bytes = render_experiment(&decoy);
        let (header, index) = parse_header(&bytes).expect("header parses");
        assert_eq!(header.total, 8);
        assert_eq!(index, 5);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        comfase_json::write_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn torn_lines_are_rejected() {
        let export = sample_export(0);
        let bytes = render_experiment(&export);
        // Truncate inside the first line: the length prefix promises more
        // bytes than are present, so the reader must refuse, not misparse.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        assert!(split_line(&bytes[..first_nl]).is_none());
        assert!(split_line(&bytes[..first_nl - 3]).is_none());
        assert!(split_line(b"notanumber\t{}\n").is_none());
        assert!(split_line(b"2\t{}").is_none()); // missing newline
    }

    #[test]
    fn capture_is_bounded_with_dropped_counters() {
        let mut c = DatasetCapture::default();
        let f = sample_export(0).capture.frames[0];
        let s = sample_export(0).capture.steps[0];
        for _ in 0..5 {
            c.push_frame_capped(f, 3);
            c.push_step_capped(s, 2);
        }
        assert_eq!(c.frames.len(), 3);
        assert_eq!(c.frames_dropped, 2);
        assert_eq!(c.steps.len(), 2);
        assert_eq!(c.steps_dropped, 3);
        assert!(!c.is_empty());
        assert!(DatasetCapture::default().is_empty());
    }

    #[test]
    fn dropped_trailer_appears_only_when_rows_were_dropped() {
        let mut export = sample_export(0);
        assert!(!String::from_utf8(render_experiment(&export))
            .unwrap()
            .contains("\"kind\":\"dropped\""));
        export.capture.frames_dropped = 7;
        assert!(String::from_utf8(render_experiment(&export))
            .unwrap()
            .contains("\"kind\":\"dropped\""));
    }
}
