//! Campaign metrics model and the `metrics.json` artifact.
//!
//! Everything in this module derives from *sim-side* run state only: run
//! logs, counters, and histograms that are bit-identical across execution
//! modes and worker-thread counts. Mode- or host-dependent quantities
//! (fork hit rate, per-phase wall-clock) are deliberately absent — they
//! belong to the host-side profile (see [`crate::hostprof`]) so that
//! `metrics.json` itself is a deterministic artifact.

use std::collections::BTreeMap;

use comfase_des::stats::Histogram;

/// Version stamp of the `metrics.json` schema. Bump on any change to the
/// serialized shape so downstream tooling can detect incompatibility.
///
/// v2: [`FrameBreakdown`] gained `accounting_underflow`.
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Counter-name prefixes that mark *substrate diagnostics*: counters that
/// legitimately differ across execution substrates and therefore never
/// enter `metrics.json`.
///
/// - `index.` — spatial-index health (grid pruning, lane-index rebuilds),
///   which differs between indexed and brute-force runs;
/// - `exec.` — execution-mode bookkeeping (mid-attack snapshot forks),
///   which differs between from-scratch, prefix-fork and snapshot-DAG
///   campaign execution.
///
/// Everything outside these prefixes must be bit-identical across
/// substrates, execution modes, and worker-thread counts.
pub const SUBSTRATE_COUNTER_PREFIXES: &[&str] = &["index.", "exec."];

/// DES-kernel event accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped and dispatched.
    pub delivered: u64,
    /// Always 0: the kernel delivers every event it schedules. The field
    /// stays because the pinned journal and `metrics.json` schema carry it
    /// and the campaign benchmark reports it as `des.events_cancelled`.
    pub cancelled: u64,
    /// Events still queued when the run ended.
    pub pending_at_end: u64,
}
comfase_json::record!(ToJson, FromJson for KernelCounters {
    scheduled, delivered, cancelled, pending_at_end,
});

impl KernelCounters {
    /// Sums another run's counters into this one.
    pub fn add(&mut self, other: &KernelCounters) {
        self.scheduled += other.scheduled;
        self.delivered += other.delivered;
        self.cancelled += other.cancelled;
        self.pending_at_end += other.pending_at_end;
    }
}

/// Where every frame of a run ended up, attributed by cause.
///
/// Accounting identities tie the fields together (asserted in the
/// integration tests):
///
/// - every planned link is decided or still in flight:
///   `links_planned == received + lost_snir + lost_sensitivity +
///    rx_inactive + in_flight_at_end`;
/// - `dropped_interceptor` and `below_noise` links are attributed *before*
///   planning (the channel never schedules a reception for them), so they
///   are not part of `links_planned`;
/// - MAC-level losses are upstream of the channel and therefore *not*
///   part of `links_planned` either.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameBreakdown {
    /// Frames put on the air (per-transmitter, before receiver fan-out).
    pub transmissions: u64,
    /// Transmitter→receiver links the channel planned a delivery for.
    pub links_planned: u64,
    /// Links delivered successfully (passed sensitivity and SNIR).
    pub received: u64,
    /// Links lost to SNIR failure (interference/jamming).
    pub lost_snir: u64,
    /// Links lost below receiver sensitivity.
    pub lost_sensitivity: u64,
    /// Links swallowed by an attack interceptor (drop attacks) before a
    /// reception was planned.
    pub dropped_interceptor: u64,
    /// Links skipped because the received power was below the noise floor
    /// (out of range; never planned).
    pub below_noise: u64,
    /// Links whose reception completed at a node that no longer receives
    /// (crashed vehicle) or that never decodes (jammer radios).
    pub rx_inactive: u64,
    /// Links still propagating when the simulation ended.
    pub in_flight_at_end: u64,
    /// Frames dropped at the MAC queue (queue full).
    pub mac_dropped_queue_full: u64,
    /// MAC deferrals due to a busy medium (CSMA back-off), excluding
    /// guard-interval deferrals.
    pub mac_deferrals_busy: u64,
    /// MAC deferrals due to the IEEE 1609.4 guard interval.
    pub mac_deferrals_guard: u64,
    /// Times the closed frame-fate identity failed to balance (a decided/
    /// in-flight total exceeding `links_planned`, or `received >
    /// links_planned`). Always 0 in a healthy run; any non-zero value
    /// means the breakdown above cannot be trusted and must fail loudly
    /// instead of clamping.
    pub accounting_underflow: u64,
}
comfase_json::record!(ToJson, FromJson for FrameBreakdown {
    transmissions, links_planned, received, lost_snir, lost_sensitivity, dropped_interceptor,
    below_noise, rx_inactive, in_flight_at_end, mac_dropped_queue_full, mac_deferrals_busy,
    mac_deferrals_guard, #[default] accounting_underflow,
});

impl FrameBreakdown {
    /// Planned links that did not end in successful reception.
    ///
    /// `received > links_planned` is an accounting-invariant violation,
    /// not a quantity to clamp: it is recorded under
    /// [`FrameBreakdown::accounting_underflow`] (and trips the
    /// sim-sanitizer `debug_assert!`) so a broken breakdown is visible in
    /// the artifact instead of silently reading as "0 not delivered".
    pub fn not_delivered(&self) -> u64 {
        match self.links_planned.checked_sub(self.received) {
            Some(n) => n,
            None => {
                debug_assert!(
                    false,
                    "frame-fate underflow: received {} > links_planned {}",
                    self.received, self.links_planned
                );
                0
            }
        }
    }

    /// Sums another run's breakdown into this one.
    pub fn add(&mut self, other: &FrameBreakdown) {
        self.transmissions += other.transmissions;
        self.links_planned += other.links_planned;
        self.received += other.received;
        self.lost_snir += other.lost_snir;
        self.lost_sensitivity += other.lost_sensitivity;
        self.dropped_interceptor += other.dropped_interceptor;
        self.below_noise += other.below_noise;
        self.rx_inactive += other.rx_inactive;
        self.in_flight_at_end += other.in_flight_at_end;
        self.mac_dropped_queue_full += other.mac_dropped_queue_full;
        self.mac_deferrals_busy += other.mac_deferrals_busy;
        self.mac_deferrals_guard += other.mac_deferrals_guard;
        self.accounting_underflow += other.accounting_underflow;
    }
}

/// Per-experiment metrics row of a campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentMetrics {
    /// Index of the experiment in campaign expansion order.
    pub index: usize,
    /// Safety verdict classification of the run.
    pub classification: String,
    /// Strongest deceleration any vehicle applied (m/s²).
    pub max_decel_mps2: f64,
    /// Vehicle collisions observed.
    pub collisions: u64,
    /// Kernel event accounting.
    pub kernel: KernelCounters,
    /// Frame fate accounting.
    pub frames: FrameBreakdown,
    /// Raw named counters recorded during the run.
    pub counters: BTreeMap<String, u64>,
}
comfase_json::record!(ToJson, FromJson for ExperimentMetrics {
    index, classification, max_decel_mps2, collisions, kernel, frames, #[skip_empty] counters,
});

/// Campaign-wide aggregates over all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateMetrics {
    /// Experiments per verdict class.
    pub verdicts: BTreeMap<String, u64>,
    /// Summed kernel counters.
    pub kernel: KernelCounters,
    /// Summed frame breakdown.
    pub frames: FrameBreakdown,
    /// Total vehicle collisions across experiments.
    pub collisions_total: u64,
    /// Distribution of per-experiment max deceleration (m/s², 0–10 in
    /// 0.5 m/s² bins).
    pub max_decel_hist: Histogram,
}
comfase_json::record!(ToJson for AggregateMetrics {
    verdicts, kernel, frames, collisions_total, max_decel_hist,
});

/// Bucket layout of [`AggregateMetrics::max_decel_hist`].
pub fn max_decel_histogram() -> Histogram {
    Histogram::new(0.0, 10.0, 20)
}

impl AggregateMetrics {
    /// Empty aggregate with the standard histogram layout.
    pub fn new() -> Self {
        AggregateMetrics {
            verdicts: BTreeMap::new(),
            kernel: KernelCounters::default(),
            frames: FrameBreakdown::default(),
            collisions_total: 0,
            max_decel_hist: max_decel_histogram(),
        }
    }

    /// Folds one experiment into the aggregate.
    pub fn fold(&mut self, exp: &ExperimentMetrics) {
        *self.verdicts.entry(exp.classification.clone()).or_insert(0) += 1;
        self.kernel.add(&exp.kernel);
        self.frames.add(&exp.frames);
        self.collisions_total += exp.collisions;
        self.max_decel_hist.record(exp.max_decel_mps2);
    }
}

impl Default for AggregateMetrics {
    fn default() -> Self {
        AggregateMetrics::new()
    }
}

/// The `metrics.json` artifact: per-experiment rows plus aggregates.
///
/// Contains only sim-derived values, so the serialized bytes are identical
/// for `PrefixFork` and `FromScratch` execution and for any worker-thread
/// count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignMetrics {
    /// Schema version ([`METRICS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of experiments in the campaign.
    pub experiments: usize,
    /// Golden (fault-free) run metrics, when collected.
    pub golden: Option<ExperimentMetrics>,
    /// Campaign-wide aggregates.
    pub aggregate: AggregateMetrics,
    /// One row per experiment, in campaign expansion order.
    pub per_experiment: Vec<ExperimentMetrics>,
}
comfase_json::record!(ToJson for CampaignMetrics {
    schema_version, experiments, #[skip_empty] golden, aggregate, per_experiment,
});

impl CampaignMetrics {
    /// Builds the artifact from per-experiment rows (any order; sorted by
    /// index here) and an optional golden-run row.
    pub fn build(
        mut per_experiment: Vec<ExperimentMetrics>,
        golden: Option<ExperimentMetrics>,
    ) -> Self {
        per_experiment.sort_by_key(|e| e.index);
        let mut aggregate = AggregateMetrics::new();
        for exp in &per_experiment {
            aggregate.fold(exp);
        }
        CampaignMetrics {
            schema_version: METRICS_SCHEMA_VERSION,
            experiments: per_experiment.len(),
            golden,
            aggregate,
            per_experiment,
        }
    }

    /// Serializes the artifact to its canonical byte form: pretty JSON with
    /// sorted maps (`BTreeMap` throughout) and a trailing newline. Same
    /// metrics in, same bytes out.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut text = comfase_json::to_string_pretty(self);
        text.push('\n');
        text.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(index: usize, class: &str, decel: f64) -> ExperimentMetrics {
        ExperimentMetrics {
            index,
            classification: class.to_string(),
            max_decel_mps2: decel,
            collisions: u64::from(class == "Collision"),
            kernel: KernelCounters {
                scheduled: 10,
                delivered: 8,
                cancelled: 1,
                pending_at_end: 1,
            },
            frames: FrameBreakdown {
                transmissions: 4,
                links_planned: 12,
                received: 9,
                lost_snir: 2,
                lost_sensitivity: 1,
                ..FrameBreakdown::default()
            },
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn aggregate_folds_experiments() {
        let metrics = CampaignMetrics::build(
            vec![exp(1, "Collision", 8.0), exp(0, "NoEffect", 1.0)],
            None,
        );
        assert_eq!(metrics.experiments, 2);
        // Sorted by index regardless of input order.
        assert_eq!(metrics.per_experiment[0].index, 0);
        assert_eq!(metrics.aggregate.verdicts["Collision"], 1);
        assert_eq!(metrics.aggregate.verdicts["NoEffect"], 1);
        assert_eq!(metrics.aggregate.kernel.scheduled, 20);
        assert_eq!(metrics.aggregate.frames.links_planned, 24);
        assert_eq!(metrics.aggregate.collisions_total, 1);
        assert_eq!(metrics.aggregate.max_decel_hist.total(), 2);
    }

    #[test]
    fn breakdown_not_delivered() {
        let f = FrameBreakdown {
            links_planned: 10,
            received: 7,
            ..FrameBreakdown::default()
        };
        assert_eq!(f.not_delivered(), 3);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn breakdown_underflow_is_not_silently_clamped() {
        // received > links_planned: the old saturating_sub read "0 not
        // delivered"; now the condition stays visible.
        let f = FrameBreakdown {
            links_planned: 5,
            received: 7,
            ..FrameBreakdown::default()
        };
        assert_eq!(f.not_delivered(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "frame-fate underflow")]
    fn breakdown_underflow_trips_the_sim_sanitizer() {
        let f = FrameBreakdown {
            links_planned: 5,
            received: 7,
            ..FrameBreakdown::default()
        };
        let _ = f.not_delivered();
    }

    #[test]
    fn breakdown_add_sums_accounting_underflow() {
        let mut a = FrameBreakdown {
            accounting_underflow: 1,
            ..FrameBreakdown::default()
        };
        a.add(&FrameBreakdown {
            accounting_underflow: 2,
            ..FrameBreakdown::default()
        });
        assert_eq!(a.accounting_underflow, 3);
    }

    #[test]
    fn json_bytes_are_stable_and_round_trip() {
        let metrics = CampaignMetrics::build(vec![exp(0, "FalseBraking", 4.2)], None);
        let a = metrics.to_json_bytes();
        let b = metrics.to_json_bytes();
        assert_eq!(a, b);
        assert_eq!(a.last(), Some(&b'\n'));
        // The rows (what journals carry) decode back bit for bit.
        let doc = comfase_json::parse_slice(&a).expect("valid JSON");
        let rows = doc.get("per_experiment").expect("rows");
        let back: Vec<ExperimentMetrics> =
            comfase_json::FromJson::from_json(rows).expect("rows decode");
        assert_eq!(back, metrics.per_experiment);
    }
}
