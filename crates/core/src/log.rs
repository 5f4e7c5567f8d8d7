//! Run logs — what a simulation leaves behind for classification and
//! analysis (the paper's `GoldenRunLog` / `AttackCampaignLog` entries).

use std::collections::BTreeMap;

use comfase_des::time::SimTime;
use comfase_obs::{FrameBreakdown, KernelCounters, MetricsSnapshot};
use comfase_platoon::app::AppStats;
use comfase_traffic::simulation::TrafficStats;
use comfase_traffic::trace::TrafficTrace;
use comfase_wireless::channel::ChannelStats;
use comfase_wireless::mac::MacStats;

/// Communication statistics of one vehicle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VehicleCommStats {
    /// MAC-layer counters.
    pub mac: MacStats,
    /// Application-layer counters.
    pub app: AppStats,
}
comfase_json::record!(ToJson for VehicleCommStats { mac, app });

/// The complete log of one simulation run (golden or attacked).
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// Per-vehicle trajectories and collision incidents (from the traffic
    /// simulator — speed, acceleration/deceleration, position, §II-C).
    pub trace: TrafficTrace,
    /// Wireless channel counters (from the vehicular network simulator).
    pub channel: ChannelStats,
    /// Per-vehicle communication counters.
    pub comm: BTreeMap<u32, VehicleCommStats>,
    /// Time the run ended.
    pub final_time: SimTime,
    /// DES-kernel event accounting (scheduled/delivered/cancelled/pending).
    pub kernel: KernelCounters,
    /// Traffic-level safety counters (steps, collisions, hard braking).
    pub traffic_stats: TrafficStats,
    /// Named telemetry counters, histograms and trace events. Empty unless
    /// the run was built with telemetry enabled
    /// ([`crate::world::World::with_obs`]).
    pub obs: MetricsSnapshot,
}
comfase_json::record!(ToJson for RunLog {
    trace, channel, comm, final_time, kernel, traffic_stats, obs,
});

impl RunLog {
    /// Largest deceleration across all vehicles, m/s².
    pub fn max_decel(&self) -> f64 {
        self.trace.max_decel_overall()
    }

    /// `true` if any collision incident was recorded.
    pub fn has_collision(&self) -> bool {
        self.trace.has_collision()
    }

    /// Attributes every frame of the run to its fate, combining channel,
    /// MAC and telemetry counters.
    ///
    /// The identity `links_planned == received + lost_snir +
    /// lost_sensitivity + rx_inactive + in_flight_at_end` holds exactly
    /// when the run was recorded with telemetry enabled; without telemetry
    /// the `rx_inactive` share is indistinguishable from links still in
    /// flight and is folded into `in_flight_at_end`.
    pub fn frame_breakdown(&self) -> FrameBreakdown {
        let ch = &self.channel;
        let decided = ch.received + ch.lost_snir + ch.lost_sensitivity;
        let rx_inactive = self.obs.counter("phy.rx.inactive");
        // Decided + inactive exceeding planned means the closed frame-fate
        // invariant is already broken upstream. Record the fault instead of
        // letting the saturation silently absorb it (sim-sanitizer builds
        // fail fast).
        let accounting_underflow =
            u64::from(decided + rx_inactive > ch.links_planned || ch.received > ch.links_planned);
        debug_assert!(
            accounting_underflow == 0,
            "frame-fate accounting underflow: planned {} < decided {} + rx_inactive {rx_inactive}",
            ch.links_planned,
            decided
        );
        let in_flight_at_end = ch
            .links_planned
            .saturating_sub(decided)
            .saturating_sub(rx_inactive);
        // Integer turbofish: pins the element type so the map-order-sensitive
        // float `Sum` impls can never be selected (lint rule D7).
        let mac_dropped_queue_full = self
            .comm
            .values()
            .map(|c| c.mac.dropped_queue_full)
            .sum::<u64>();
        let mac_deferrals = self.comm.values().map(|c| c.mac.deferrals).sum::<u64>();
        let mac_deferrals_guard = self
            .comm
            .values()
            .map(|c| c.mac.deferrals_guard)
            .sum::<u64>();
        FrameBreakdown {
            transmissions: ch.transmissions,
            links_planned: ch.links_planned,
            received: ch.received,
            lost_snir: ch.lost_snir,
            lost_sensitivity: ch.lost_sensitivity,
            dropped_interceptor: ch.links_dropped_by_interceptor,
            below_noise: ch.links_below_noise,
            rx_inactive,
            in_flight_at_end,
            mac_dropped_queue_full,
            mac_deferrals_busy: mac_deferrals.saturating_sub(mac_deferrals_guard),
            mac_deferrals_guard,
            accounting_underflow,
        }
    }

    /// Builds the per-experiment metrics row for `metrics.json`.
    ///
    /// Counters under a substrate-diagnostic prefix
    /// ([`comfase_obs::SUBSTRATE_COUNTER_PREFIXES`]) are excluded:
    /// `index.*` legitimately differs between indexed and brute-force
    /// runs, `exec.*` between execution modes (mid-attack forks), and
    /// `metrics.json` must stay byte-identical across both axes.
    pub fn experiment_metrics(
        &self,
        index: usize,
        classification: String,
    ) -> comfase_obs::ExperimentMetrics {
        comfase_obs::ExperimentMetrics {
            index,
            classification,
            max_decel_mps2: self.max_decel(),
            collisions: self.traffic_stats.collisions,
            kernel: self.kernel,
            frames: self.frame_breakdown(),
            counters: self
                .obs
                .counters
                .iter()
                .filter(|(k, _)| {
                    !comfase_obs::SUBSTRATE_COUNTER_PREFIXES
                        .iter()
                        .any(|p| k.starts_with(p))
                })
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfase_traffic::network::LaneIndex;
    use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};

    fn small_log() -> RunLog {
        let mut trace = TrafficTrace::new();
        let v = Vehicle::new(
            VehicleId(1),
            VehicleSpec::paper_platooning_car(),
            10.0,
            LaneIndex(0),
            20.0,
        );
        trace.record_step(SimTime::from_millis(10), &[v]);
        let mut comm = BTreeMap::new();
        comm.insert(1, VehicleCommStats::default());
        RunLog {
            trace,
            channel: ChannelStats::default(),
            comm,
            final_time: SimTime::from_secs(1),
            kernel: KernelCounters::default(),
            traffic_stats: TrafficStats::default(),
            obs: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn helpers_summarise_the_trace() {
        let log = small_log();
        assert_eq!(log.max_decel(), 0.0);
        assert!(!log.has_collision());
    }

    #[test]
    fn frame_breakdown_combines_channel_mac_and_telemetry() {
        let mut log = small_log();
        log.channel.transmissions = 10;
        log.channel.links_planned = 30;
        log.channel.received = 20;
        log.channel.lost_snir = 4;
        log.channel.lost_sensitivity = 1;
        log.channel.links_dropped_by_interceptor = 7;
        log.channel.links_below_noise = 2;
        log.obs.counters.insert("phy.rx.inactive".into(), 3);
        log.comm.get_mut(&1).unwrap().mac = MacStats {
            dropped_queue_full: 5,
            deferrals: 9,
            deferrals_guard: 4,
            ..MacStats::default()
        };
        let f = log.frame_breakdown();
        assert_eq!(f.rx_inactive, 3);
        assert_eq!(f.in_flight_at_end, 2, "30 - 20 - 4 - 1 - 3");
        assert_eq!(
            f.links_planned,
            f.received + f.lost_snir + f.lost_sensitivity + f.rx_inactive + f.in_flight_at_end
        );
        assert_eq!(f.dropped_interceptor, 7);
        assert_eq!(f.below_noise, 2);
        assert_eq!(f.mac_dropped_queue_full, 5);
        assert_eq!(f.mac_deferrals_busy, 5);
        assert_eq!(f.mac_deferrals_guard, 4);
        assert_eq!(f.accounting_underflow, 0);
        assert_eq!(f.not_delivered(), 10);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn frame_breakdown_records_accounting_underflow() {
        let mut log = small_log();
        log.channel.links_planned = 5;
        log.channel.received = 7; // invariant already broken upstream
        let f = log.frame_breakdown();
        assert_eq!(f.accounting_underflow, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "frame-fate accounting underflow")]
    fn frame_breakdown_underflow_trips_the_sim_sanitizer() {
        let mut log = small_log();
        log.channel.links_planned = 5;
        log.channel.received = 7;
        let _ = log.frame_breakdown();
    }
}
