//! The 802.11p stack of every scenario (Veins in the paper's Fig. 2):
//! [`crate::world::World`] and [`crate::teleop::TeleopWorld`] embed one
//! [`Radio`] each. Every radio event runs at [`PRIO_RADIO`]; a transmission
//! schedules its tx end, then each reception's start followed by its end.

use std::collections::BTreeMap;
use std::sync::Arc;

use comfase_des::sim::Simulator;
use comfase_des::time::SimTime;
use comfase_obs::{FrameFate, FrameRecord, HistSpec, KernelCounters, SimRecorder, TraceKind};
use comfase_platoon::app::AppStats;
use comfase_traffic::simulation::TrafficSim;
use comfase_wireless::channel::{Medium, PlannedReception};
use comfase_wireless::decider::{DeciderResult, LossReason};
use comfase_wireless::frame::{AccessCategory, NodeId, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacAction};
use comfase_wireless::pathloss::PathLossModel;
use comfase_wireless::phy::PhyConfig;
use comfase_wireless::units::CCH_FREQ_HZ;

use crate::log::{RunLog, VehicleCommStats};

/// Radio events run before the traffic step (0) and the applications (10).
pub(crate) const PRIO_RADIO: i16 = -10;

/// `phy.rx.power_dbm` in 2 dB bins, noise floor to bumper distance.
const RX_POWER_HIST: HistSpec = HistSpec {
    lo: -110.0,
    hi: -30.0,
    bins: 40,
};

/// The radio events, which a world wraps in its own event type.
#[derive(Debug, Clone)]
pub(crate) enum RadioEvent {
    /// A MAC contention timer expired.
    MacTimer { node: u32, token: u64 },
    /// A node's own transmission left the air.
    TxEnd { node: u32 },
    /// The first bit of a frame reaches a receiver.
    RxStart(Arc<PlannedReception>),
    /// The last bit of a frame reaches a receiver.
    RxEnd(Arc<PlannedReception>),
}

impl RadioEvent {
    /// The `kernel.dispatch.*` counter of this event kind.
    pub(crate) fn dispatch_counter(&self) -> &'static str {
        match self {
            RadioEvent::MacTimer { .. } => "kernel.dispatch.mac_timer",
            RadioEvent::TxEnd { .. } => "kernel.dispatch.tx_end",
            RadioEvent::RxStart(_) => "kernel.dispatch.rx_start",
            RadioEvent::RxEnd(_) => "kernel.dispatch.rx_end",
        }
    }
}

#[derive(Debug, Clone)]
struct RadioNode<A> {
    mac: Mac,
    app: A,
    /// Cleared by [`Radio::silence`].
    live: bool,
}

/// The medium plus one MAC and one application state `A` per radio node.
#[derive(Debug, Clone)]
pub(crate) struct Radio<A> {
    medium: Medium,
    nodes: BTreeMap<u32, RadioNode<A>>,
}

impl<A> Radio<A> {
    /// A stack on the WAVE control channel with Veins' default PHY.
    pub(crate) fn new(pathloss: Box<dyn PathLossModel>) -> Self {
        Radio {
            medium: Medium::with_models(pathloss, CCH_FREQ_HZ, PhyConfig::default()),
            nodes: BTreeMap::new(),
        }
    }

    /// Adds a radio node. It rides the traffic vehicle with its id, if any
    /// ([`Radio::sync_positions`]); otherwise its owner places it.
    pub(crate) fn add_node(&mut self, node: u32, mac: Mac, app: A) {
        let live = true;
        self.nodes.insert(node, RadioNode { mac, app, live });
    }

    pub(crate) fn medium(&self) -> &Medium {
        &self.medium
    }

    pub(crate) fn medium_mut(&mut self) -> &mut Medium {
        &mut self.medium
    }

    /// A node's application state, silenced or not.
    pub(crate) fn app(&self, node: u32) -> Option<&A> {
        self.nodes.get(&node).map(|n| &n.app)
    }

    /// The application states of the nodes not silenced, in id order.
    pub(crate) fn live_apps_mut(&mut self) -> impl Iterator<Item = (u32, &mut A)> {
        let live = self.nodes.iter_mut().filter(|(_, n)| n.live);
        live.map(|(&id, n)| (id, &mut n.app))
    }

    /// Silences a node for good (a collided vehicle): it leaves the medium
    /// with its interference history, and frames in flight to it count as
    /// `phy.rx.inactive`. No-op for an id without a radio.
    pub(crate) fn silence(&mut self, node: u32) {
        if let Some(n) = self.nodes.get_mut(&node) {
            n.live = false;
            self.medium.remove_node(NodeId(node));
            self.medium.clear_receptions(NodeId(node));
        }
    }

    /// Puts each live node that rides a vehicle at the vehicle's middle on
    /// the lane centre `lane_y`. A node whose vehicle left the road leaves
    /// the medium once, but still decides the frames in flight to it.
    pub(crate) fn sync_positions(&mut self, traffic: &TrafficSim, lane_y: f64) {
        for v in traffic.vehicles() {
            let node = NodeId(v.id.0);
            if !self.nodes.get(&node.0).is_some_and(|n| n.live) {
                continue;
            }
            if v.active {
                let x = v.state.pos_m - v.spec.length_m / 2.0;
                self.medium
                    .update_position(node, Position::on_road(x, lane_y));
            } else if self.medium.contains(node) {
                self.medium.remove_node(node);
            }
        }
    }

    /// Hands the frame that `frame` builds from a live node's application
    /// state to the node's MAC (voice access category): one node lookup
    /// serves both. Returns `false`, sending nothing, for a silenced or
    /// unknown node or when `frame` builds none.
    pub(crate) fn send<E: From<RadioEvent>>(
        &mut self,
        sim: &mut Simulator<E>,
        obs: &mut SimRecorder,
        node: u32,
        frame: impl FnOnce(&mut A) -> Option<Wsm>,
    ) -> bool {
        let Some(n) = self.nodes.get_mut(&node).filter(|n| n.live) else {
            return false;
        };
        let Some(wsm) = frame(&mut n.app) else {
            return false;
        };
        let action = n.mac.enqueue(wsm, AccessCategory::Vo, sim.now());
        apply_mac_action(&mut self.medium, sim, obs, node, action);
        true
    }

    /// Puts a frame on the air from a node without a MAC (a jammer, which
    /// ignores CSMA).
    pub(crate) fn transmit_raw<E: From<RadioEvent>>(
        &mut self,
        sim: &mut Simulator<E>,
        node: NodeId,
        wsm: Wsm,
    ) {
        let out = self.medium.transmit(node, wsm, sim.now());
        schedule_receptions(sim, out.receptions);
    }

    /// Runs one radio event. `deliver` gets each frame a live node decodes,
    /// with the node's id and application state: one node lookup serves
    /// the MAC and the application.
    pub(crate) fn dispatch<E: From<RadioEvent>>(
        &mut self,
        sim: &mut Simulator<E>,
        obs: &mut SimRecorder,
        ev: RadioEvent,
        deliver: impl FnOnce(u32, &mut A, &Wsm),
    ) {
        let now = sim.now();
        let Radio { medium, nodes } = self;
        match ev {
            RadioEvent::MacTimer { node, token } => {
                if let Some(n) = nodes.get_mut(&node) {
                    let action = n.mac.handle_timer(token, now);
                    apply_mac_action(medium, sim, obs, node, action);
                }
            }
            RadioEvent::TxEnd { node } => {
                if let Some(n) = nodes.get_mut(&node) {
                    let action = n.mac.tx_finished(now);
                    apply_mac_action(medium, sim, obs, node, action);
                }
            }
            RadioEvent::RxStart(reception) => {
                if let Some(n) = nodes.get_mut(&reception.rx.0).filter(|n| n.live) {
                    medium.reception_started(&reception);
                    if reception.above_cs {
                        n.mac.medium_busy(now);
                    }
                }
            }
            RadioEvent::RxEnd(reception) => {
                let rx = reception.rx.0;
                let Some(n) = nodes.get_mut(&rx).filter(|n| n.live) else {
                    // Planned for a node that never decodes (a jammer, or a
                    // vehicle silenced mid-flight): the link ends here.
                    obs.inc("phy.rx.inactive");
                    record_frame(obs, medium, now, &reception, None);
                    return;
                };
                let result = medium.reception_finished(&reception);
                record_frame(obs, medium, now, &reception, Some(&result));
                if obs.enabled() {
                    obs.observe("phy.rx.power_dbm", RX_POWER_HIST, reception.power_dbm);
                    if result.is_received() {
                        obs.inc("phy.rx.ok");
                        obs.trace_event(now, rx, "rx", TraceKind::Mark);
                    } else {
                        obs.inc("phy.rx.lost");
                        obs.trace_event(now, rx, "rx.lost", TraceKind::Mark);
                    }
                }
                if result.is_received() {
                    deliver(rx, &mut n.app, &reception.wsm);
                }
                if !medium.is_busy(reception.rx, now) {
                    let action = n.mac.medium_idle(now);
                    apply_mac_action(medium, sim, obs, rx, action);
                }
            }
        }
    }

    /// The run log of a world on this stack, with `app_stats` of each
    /// node's application.
    pub(crate) fn into_log<E>(
        self,
        sim: &Simulator<E>,
        traffic: TrafficSim,
        obs: SimRecorder,
        app_stats: impl Fn(&A) -> AppStats,
    ) -> RunLog {
        let stats = |n: &RadioNode<A>| VehicleCommStats {
            mac: n.mac.stats(),
            app: app_stats(&n.app),
        };
        RunLog {
            kernel: KernelCounters {
                scheduled: sim.scheduled(),
                delivered: sim.delivered(),
                cancelled: 0,
                pending_at_end: sim.pending() as u64,
            },
            traffic_stats: traffic.stats(),
            trace: traffic.into_trace(),
            channel: self.medium.stats(),
            comm: self.nodes.iter().map(|(&id, n)| (id, stats(n))).collect(),
            final_time: sim.now(),
            obs: obs.into_snapshot(),
        }
    }
}

fn apply_mac_action<E: From<RadioEvent>>(
    medium: &mut Medium,
    sim: &mut Simulator<E>,
    obs: &mut SimRecorder,
    node: u32,
    action: Option<MacAction>,
) {
    let now = sim.now();
    match action {
        Some(MacAction::SetTimer { at, token }) => {
            let timer = RadioEvent::MacTimer { node, token };
            sim.schedule_at_with_priority(at.max(now), PRIO_RADIO, timer.into());
        }
        Some(MacAction::StartTx(wsm)) => {
            let out = medium.transmit(NodeId(node), wsm, now);
            let end = now + out.duration;
            if obs.enabled() {
                obs.inc("phy.tx.frames");
                obs.trace_event(now, node, "tx", TraceKind::Begin);
                obs.trace_event(end, node, "tx", TraceKind::End);
            }
            sim.schedule_at_with_priority(end, PRIO_RADIO, RadioEvent::TxEnd { node }.into());
            schedule_receptions(sim, out.receptions);
        }
        // Queue overflow: counted in MAC stats, nothing to do.
        Some(MacAction::Drop { .. }) | None => {}
    }
}

/// Schedules the first- and last-bit events of every planned reception.
/// Both share one `Arc`: a link costs one allocation and no `Wsm` clone.
fn schedule_receptions<E: From<RadioEvent>>(
    sim: &mut Simulator<E>,
    receptions: Vec<PlannedReception>,
) {
    for r in receptions {
        let r = Arc::new(r);
        let start = RadioEvent::RxStart(Arc::clone(&r));
        sim.schedule_at_with_priority(r.start, PRIO_RADIO, start.into());
        sim.schedule_at_with_priority(r.end, PRIO_RADIO, RadioEvent::RxEnd(r).into());
    }
}

/// Captures one dataset row for a decided reception, or (`decided` None)
/// for one planned to a node that never decodes. No-op — and
/// allocation-free — unless dataset capture is on.
fn record_frame(
    obs: &mut SimRecorder,
    medium: &Medium,
    now: SimTime,
    reception: &PlannedReception,
    decided: Option<&DeciderResult>,
) {
    if !obs.dataset_enabled() {
        return;
    }
    let (fate, snir_db) = match decided {
        None => (FrameFate::RxInactive, None),
        Some(DeciderResult::Received { snir_db }) => (FrameFate::Received, Some(*snir_db)),
        Some(DeciderResult::Lost(LossReason::Snir)) => (FrameFate::LostSnir, None),
        Some(DeciderResult::Lost(LossReason::BelowSensitivity)) => {
            (FrameFate::LostSensitivity, None)
        }
        Some(DeciderResult::Lost(LossReason::NumericFault)) => (FrameFate::NumericFault, None),
    };
    obs.record_frame(FrameRecord {
        time_ns: now.as_nanos(),
        tx: reception.wsm.source.0,
        rx: reception.rx.0,
        delay_ns: (now - reception.wsm.created).as_nanos(),
        snir_db,
        fate,
        attack_active: medium.has_interceptor(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfase_des::rng::StreamId;
    use comfase_obs::ObsConfig;
    use comfase_wireless::frame::WaveChannel;
    use comfase_wireless::mac::MacConfig;
    use comfase_wireless::pathloss::FreeSpace;

    /// Node 1 sends one frame to node 2, 20 m away. Once the frame is on
    /// the air, node 2 is either silenced or only taken off the medium.
    /// Returns the frames node 2 decoded and its inactive receptions.
    fn send_then_cut_off(silence: bool) -> (u32, u64) {
        let mut sim: Simulator<RadioEvent> = Simulator::new(1);
        let mut obs = SimRecorder::new(ObsConfig::metrics_only());
        let mut radio: Radio<u32> = Radio::new(Box::new(FreeSpace::default()));
        for (node, x) in [(1, 0.0), (2, 20.0)] {
            let mac = Mac::new(MacConfig::default(), sim.rng(StreamId(node.into())));
            radio.add_node(node, mac, 0);
            let pos = Position::on_road(x, 0.0);
            radio.medium_mut().update_position(NodeId(node), pos);
        }
        let wsm = Wsm {
            source: NodeId(1),
            sequence: 0,
            created: SimTime::ZERO,
            channel: WaveChannel::Cch,
            payload: vec![0; 100].into(),
        };
        assert!(radio.send(&mut sim, &mut obs, 1, |_| Some(wsm)));
        let mut cut = false;
        while let Some((_, ev)) = sim.pop_due(SimTime::from_secs(1)) {
            let on_air = matches!(ev, RadioEvent::RxStart(_));
            radio.dispatch(&mut sim, &mut obs, ev, |_, decoded, _| *decoded += 1);
            if on_air && !cut {
                cut = true;
                if silence {
                    radio.silence(2);
                } else {
                    radio.medium_mut().remove_node(NodeId(2));
                }
            }
        }
        assert!(cut, "the frame never reached node 2");
        assert_eq!(radio.medium().node_count(), 1);
        let decoded = *radio.app(2).expect("node 2 exists");
        (decoded, obs.into_snapshot().counter("phy.rx.inactive"))
    }

    #[test]
    fn a_silenced_node_decodes_nothing_in_flight() {
        assert_eq!(send_then_cut_off(true), (0, 1));
    }

    #[test]
    fn a_node_off_the_medium_still_decodes_what_is_in_flight() {
        assert_eq!(send_then_cut_off(false), (1, 0));
    }
}
