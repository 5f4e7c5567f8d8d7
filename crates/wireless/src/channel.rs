//! The analogue wireless medium — and ComFASE's injection point.
//!
//! [`Medium`] knows every node's antenna position and radio configuration.
//! A transmission fans out to every other node: per link the medium computes
//! the received power (path loss model) and the **propagation delay**
//! (`distance / c`, exactly Veins' `propagationDelay`), then consults the
//! installed [`ChannelInterceptor`] — the hook ComFASE uses to inject
//! faults and attacks into the wireless channel between the sender and
//! receiver modules (paper §III-B): delay attacks override the propagation
//! delay, DoS attacks push it past the end of the simulation, jamming drops
//! the frame, falsification rewrites the payload in flight.
//!
//! The medium also tracks ongoing receptions per node so the SNIR decider
//! can account for interference, and answers carrier-sense queries for the
//! MAC.

use std::collections::BTreeMap;

use comfase_des::time::{SimDuration, SimTime};

use crate::decider::{Decider, DeciderResult, Interferer, LossReason};
use crate::frame::{NodeId, Wsm};
use crate::geom::Position;
use crate::grid::NeighborGrid;
use crate::pathloss::{FreeSpace, PathLoss};
use crate::phy::{frame_duration, PhyConfig};
use crate::units::{Dbm, Milliwatts, CCH_FREQ_HZ, SPEED_OF_LIGHT_MPS};

/// How [`Medium::transmit`] enumerates potential receivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FanoutStrategy {
    /// Uniform-grid neighbor index: visit only nodes within one cell ring
    /// of the sender, with the cell size derived by inverting the path-loss
    /// model at the fan-out pruning threshold (`noise_floor − 10 dB`).
    /// Falls back to [`FanoutStrategy::BruteForce`] behaviour when the
    /// installed model reports no finite range bound.
    #[default]
    Grid,
    /// Reference implementation: visit every registered node.
    BruteForce,
}

/// What the interceptor decides for one (tx, rx) link.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkFate {
    /// Deliver after the given propagation delay (the default is
    /// `distance / c`; attacks may override it).
    Deliver {
        /// Propagation delay to apply.
        delay: SimDuration,
    },
    /// Deliver a modified message (falsification attacks).
    DeliverModified {
        /// Propagation delay to apply.
        delay: SimDuration,
        /// The rewritten message.
        wsm: Wsm,
    },
    /// Silently drop the frame on this link (jamming).
    Drop,
}

/// Per-link hook consulted for every transmission — ComFASE's
/// `CommModelEditor` attaches attack models here.
pub trait ChannelInterceptor: std::fmt::Debug + Send + Sync {
    /// Decides the fate of the frame on the `tx -> rx` link.
    fn intercept(
        &mut self,
        tx: NodeId,
        rx: NodeId,
        now: SimTime,
        default_delay: SimDuration,
        wsm: &Wsm,
    ) -> LinkFate;
}

/// A reception the world must schedule: the frame from `transmit` arriving
/// at one receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedReception {
    /// Identifies the transmission this reception belongs to.
    pub frame_id: u64,
    /// Receiving node.
    pub rx: NodeId,
    /// The (possibly attack-modified) message.
    pub wsm: Wsm,
    /// First bit arrives.
    pub start: SimTime,
    /// Last bit arrives.
    pub end: SimTime,
    /// Received signal power.
    pub power: Milliwatts,
    /// `power` in dBm, computed once when the link is planned: the prune
    /// check, the carrier-sense flag, the decider and the received-power
    /// histogram all read it.
    pub power_dbm: f64,
    /// `true` if the power exceeds the receiver's carrier-sense threshold
    /// (the MAC must treat the medium as busy during the reception).
    pub above_cs: bool,
}

/// Result of one transmission: how long the sender is busy and the fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmitOutcome {
    /// Identifies this transmission.
    pub frame_id: u64,
    /// On-air duration at the sender.
    pub duration: SimDuration,
    /// One planned reception per reachable receiver.
    pub receptions: Vec<PlannedReception>,
}

/// Channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions started.
    pub transmissions: u64,
    /// Link deliveries planned (after interception).
    pub links_planned: u64,
    /// Links dropped by the interceptor.
    pub links_dropped_by_interceptor: u64,
    /// Links skipped in the fan-out because the received power would be
    /// far below the noise floor (neither decodable nor interfering).
    pub links_below_noise: u64,
    /// Links with modified propagation delay.
    pub links_delay_modified: u64,
    /// Links with payload modified.
    pub links_payload_modified: u64,
    /// Receptions decoded successfully.
    pub received: u64,
    /// Receptions lost below sensitivity.
    pub lost_sensitivity: u64,
    /// Receptions lost to SNIR.
    pub lost_snir: u64,
    /// Transmissions attempted by a node with no registered position (e.g.
    /// a collision-removed vehicle whose MAC still had a frame queued);
    /// dropped without fan-out instead of panicking.
    pub tx_unregistered: u64,
    /// Links skipped by the grid index without a per-link power evaluation.
    /// Always a subset of `links_below_noise` (the grid radius is a
    /// conservative bound on the pruning threshold), so the breakdown
    /// counters stay strategy-independent.
    pub links_pruned_by_grid: u64,
}
comfase_json::record!(ToJson for ChannelStats {
    transmissions, links_planned, links_dropped_by_interceptor, links_below_noise,
    links_delay_modified, links_payload_modified, received, lost_sensitivity, lost_snir,
    tx_unregistered, links_pruned_by_grid,
});

#[derive(Debug, Clone)]
struct Ongoing {
    frame_id: u64,
    start: SimTime,
    end: SimTime,
    power: Milliwatts,
    /// The reception's [`PlannedReception::above_cs`], so carrier sense
    /// needs no dBm conversion.
    above_cs: bool,
    /// Set once the reception decision was made; the entry then only
    /// serves as interference history for same-instant receptions.
    finished: bool,
}

/// The shared analogue medium.
///
/// Node positions and ongoing receptions are kept in `BTreeMap`s so the
/// transmission fan-out order depends only on node ids — never on hash
/// state — which keeps runs bit-reproducible across instances (a forked
/// snapshot and a from-scratch run fan out identically).
#[derive(Debug)]
pub struct Medium {
    pathloss: PathLoss,
    freq_hz: f64,
    phy: PhyConfig,
    /// Built from `phy`, which never changes after construction.
    decider: Decider,
    positions: BTreeMap<NodeId, Position>,
    ongoing: BTreeMap<NodeId, Vec<Ongoing>>,
    interceptor: Option<Box<dyn ChannelInterceptor>>,
    next_frame_id: u64,
    stats: ChannelStats,
    numeric_fault: Option<String>,
    strategy: FanoutStrategy,
    /// Present iff `strategy == Grid` and the path-loss model admits a
    /// finite range bound at the pruning threshold.
    grid: Option<NeighborGrid>,
    /// Scratch buffer for the grid's candidate query, kept so a
    /// transmission allocates nothing but its receptions. Empty between
    /// calls and not part of the snapshot.
    candidates: Vec<(NodeId, Position)>,
}

impl Clone for Medium {
    /// Snapshots the medium state for forked execution.
    ///
    /// # Panics
    ///
    /// Panics if an interceptor is installed: interceptors are stateful
    /// trait objects installed only for the attack window, and snapshots are
    /// taken at attack-free points (before `attackStartTime`).
    fn clone(&self) -> Self {
        assert!(
            self.interceptor.is_none(),
            "cannot snapshot a Medium with an installed interceptor; \
             fork before installing the attack"
        );
        Medium {
            pathloss: self.pathloss,
            freq_hz: self.freq_hz,
            phy: self.phy,
            decider: self.decider,
            positions: self.positions.clone(),
            ongoing: self.ongoing.clone(),
            interceptor: None,
            next_frame_id: self.next_frame_id,
            stats: self.stats,
            numeric_fault: self.numeric_fault.clone(),
            strategy: self.strategy,
            grid: self.grid.clone(),
            candidates: Vec::new(),
        }
    }
}

impl Medium {
    /// Creates a medium on the WAVE control channel with free-space path
    /// loss and Veins-default PHY parameters.
    pub fn new() -> Self {
        Medium::with_models(
            PathLoss::FreeSpace(FreeSpace::default()),
            CCH_FREQ_HZ,
            PhyConfig::default(),
        )
    }

    /// Creates a medium with explicit models — the paper's `wirelessModel`
    /// configuration.
    pub fn with_models(pathloss: PathLoss, freq_hz: f64, phy: PhyConfig) -> Self {
        let mut m = Medium {
            pathloss,
            freq_hz,
            phy,
            decider: Decider::new(&phy),
            positions: BTreeMap::new(),
            ongoing: BTreeMap::new(),
            interceptor: None,
            next_frame_id: 0,
            stats: ChannelStats::default(),
            numeric_fault: None,
            strategy: FanoutStrategy::default(),
            grid: None,
            candidates: Vec::new(),
        };
        m.rebuild_grid();
        m
    }

    /// Selects how `transmit` enumerates receivers and rebuilds the grid
    /// index accordingly.
    pub fn set_fanout_strategy(&mut self, strategy: FanoutStrategy) {
        self.strategy = strategy;
        self.rebuild_grid();
    }

    /// The active fan-out strategy.
    pub fn fanout_strategy(&self) -> FanoutStrategy {
        self.strategy
    }

    /// Cell size of the active grid index, metres (`None` when running
    /// brute-force or when the model has no finite range bound).
    pub fn grid_cell_size_m(&self) -> Option<f64> {
        self.grid.as_ref().map(NeighborGrid::cell_size_m)
    }

    /// The fan-out pruning threshold: frames an order of magnitude below
    /// the noise floor can neither be decoded nor meaningfully interfere.
    fn prune_threshold(&self) -> Dbm {
        Dbm(self.phy.noise_floor.0 - 10.0)
    }

    fn rebuild_grid(&mut self) {
        let cell = match self.strategy {
            FanoutStrategy::Grid => {
                self.pathloss
                    .max_range_m(self.phy.tx_power, self.freq_hz, self.prune_threshold())
            }
            FanoutStrategy::BruteForce => None,
        };
        self.grid = cell.map(|cell_m| {
            let mut g = NeighborGrid::new(cell_m);
            for (node, pos) in &self.positions {
                g.update_position(*node, pos);
            }
            g
        });
    }

    /// The PHY configuration shared by all nodes.
    pub fn phy(&self) -> &PhyConfig {
        &self.phy
    }

    /// The installed path loss model.
    pub fn pathloss(&self) -> PathLoss {
        self.pathloss
    }

    /// Statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Installs (or replaces) the channel interceptor. This is ComFASE's
    /// `CommModelEditor` step: the updated communication model takes effect
    /// for every subsequent transmission.
    pub fn set_interceptor(&mut self, interceptor: Box<dyn ChannelInterceptor>) {
        self.interceptor = Some(interceptor);
    }

    /// Removes the interceptor, restoring the unmodified communication
    /// model.
    pub fn clear_interceptor(&mut self) -> Option<Box<dyn ChannelInterceptor>> {
        self.interceptor.take()
    }

    /// `true` if an interceptor is installed.
    pub fn has_interceptor(&self) -> bool {
        self.interceptor.is_some()
    }

    /// Registers a node or moves it to a new position.
    pub fn update_position(&mut self, node: NodeId, pos: Position) {
        self.positions.insert(node, pos);
        if let Some(grid) = &mut self.grid {
            grid.update_position(node, &pos);
        }
    }

    /// Removes a node from the fan-out (e.g. a vehicle that left the
    /// road). Frames already in flight to it keep their interference
    /// history, which [`Medium::reception_finished`] prunes as usual, so
    /// they are decided as if the node had stayed;
    /// [`Medium::clear_receptions`] drops that history.
    pub fn remove_node(&mut self, node: NodeId) {
        self.positions.remove(&node);
        if let Some(grid) = &mut self.grid {
            grid.remove(node);
        }
    }

    /// Drops the interference history of a node that decides no more
    /// frames (a silenced radio).
    pub fn clear_receptions(&mut self, node: NodeId) {
        self.ongoing.remove(&node);
    }

    /// `true` if `node` is registered.
    pub fn contains(&self, node: NodeId) -> bool {
        self.positions.contains_key(&node)
    }

    /// Registered nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Default propagation delay on a link: `distance / c` (Veins'
    /// `propagationDelay` parameter, the target of Table I's attacks).
    pub fn default_propagation_delay(&self, tx: NodeId, rx: NodeId) -> Option<SimDuration> {
        let a = self.positions.get(&tx)?;
        let b = self.positions.get(&rx)?;
        Some(SimDuration::from_secs_f64(
            a.distance_to(b) / SPEED_OF_LIGHT_MPS,
        ))
    }

    /// Starts a transmission at `now`. Returns the planned fan-out; the
    /// caller schedules reception start/end events and reports them back
    /// via [`Medium::reception_started`] / [`Medium::reception_finished`].
    ///
    /// A sender with no registered position (a collision-removed vehicle
    /// whose MAC still had a frame queued) produces an empty fan-out and
    /// bumps `stats.tx_unregistered` instead of panicking.
    pub fn transmit(&mut self, tx: NodeId, wsm: Wsm, now: SimTime) -> TransmitOutcome {
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;
        let duration = frame_duration(wsm.size_bits(), self.phy.mcs);
        let Some(&tx_pos) = self.positions.get(&tx) else {
            self.stats.tx_unregistered += 1;
            return TransmitOutcome {
                frame_id,
                duration,
                receptions: Vec::new(),
            };
        };
        self.stats.transmissions += 1;
        let prune_dbm = self.prune_threshold().0;
        let Medium {
            pathloss,
            freq_hz,
            phy,
            positions,
            interceptor,
            stats,
            grid,
            candidates,
            ..
        } = self;
        let indexed = match grid {
            Some(grid) => {
                // Candidates come back sorted by NodeId — a subset of the
                // brute-force BTreeMap scan in the same relative order, so
                // interceptor call sequences are bit-identical.
                grid.candidates(&tx_pos, candidates);
                candidates.retain(|&(id, _)| id != tx);
                // Everything outside the 3×3 neighborhood is guaranteed
                // below the pruning threshold; account for those links
                // exactly as the brute-force scan would have.
                let pruned = (positions.len() - 1 - candidates.len()) as u64;
                stats.links_below_noise += pruned;
                stats.links_pruned_by_grid += pruned;
                true
            }
            None => false,
        };
        // One link: its power and dBm are computed once, here; everything
        // downstream (carrier sense, the decider, telemetry) reads them.
        let mut plan = |rx: NodeId, rx_pos: &Position| -> Option<PlannedReception> {
            let power = pathloss.received_power(phy.tx_power, *freq_hz, &tx_pos, rx_pos);
            let power_dbm = power.to_dbm().0;
            // Frames an order of magnitude below the noise floor can neither
            // be decoded nor meaningfully interfere; skip them.
            if power_dbm < prune_dbm {
                stats.links_below_noise += 1;
                return None;
            }
            let default_delay =
                SimDuration::from_secs_f64(tx_pos.distance_to(rx_pos) / SPEED_OF_LIGHT_MPS);
            let fate = match interceptor.as_mut() {
                Some(i) => i.intercept(tx, rx, now, default_delay, &wsm),
                None => LinkFate::Deliver {
                    delay: default_delay,
                },
            };
            let (delay, wsm_out) = match fate {
                LinkFate::Deliver { delay } => {
                    if delay != default_delay {
                        stats.links_delay_modified += 1;
                    }
                    (delay, wsm.clone())
                }
                LinkFate::DeliverModified {
                    delay,
                    wsm: modified,
                } => {
                    if delay != default_delay {
                        stats.links_delay_modified += 1;
                    }
                    stats.links_payload_modified += 1;
                    (delay, modified)
                }
                LinkFate::Drop => {
                    stats.links_dropped_by_interceptor += 1;
                    return None;
                }
            };
            let start = now + delay;
            stats.links_planned += 1;
            Some(PlannedReception {
                frame_id,
                rx,
                wsm: wsm_out,
                start,
                end: start + duration,
                power,
                power_dbm,
                above_cs: power_dbm >= phy.cs_threshold.0,
            })
        };
        let receptions = if indexed {
            let mut receptions = Vec::with_capacity(candidates.len());
            for (rx, rx_pos) in candidates.iter() {
                if let Some(r) = plan(*rx, rx_pos) {
                    receptions.push(r);
                }
            }
            candidates.clear();
            receptions
        } else {
            let mut receptions = Vec::with_capacity(positions.len() - 1);
            for (&rx, rx_pos) in positions.iter() {
                if rx == tx {
                    continue;
                }
                if let Some(r) = plan(rx, rx_pos) {
                    receptions.push(r);
                }
            }
            receptions
        };
        TransmitOutcome {
            frame_id,
            duration,
            receptions,
        }
    }

    /// Registers a reception as ongoing (call at its start time) so it is
    /// visible as interference to overlapping frames.
    pub fn reception_started(&mut self, planned: &PlannedReception) {
        self.ongoing.entry(planned.rx).or_default().push(Ongoing {
            frame_id: planned.frame_id,
            start: planned.start,
            end: planned.end,
            power: planned.power,
            above_cs: planned.above_cs,
            finished: false,
        });
    }

    /// Finishes a reception (call at its end time) and decides whether the
    /// frame was decodable given everything that overlapped it.
    pub fn reception_finished(&mut self, planned: &PlannedReception) -> DeciderResult {
        let list = self.ongoing.entry(planned.rx).or_default();
        // Decided before the prune below, which only drops entries that no
        // longer overlap an undecided reception: the decider sees every
        // overlapping frame, in list order, without collecting them.
        let interferers = list
            .iter()
            .filter(|o| o.frame_id != planned.frame_id)
            .filter(|o| o.start < planned.end && o.end > planned.start)
            .map(|o| Interferer {
                power: o.power,
                start: o.start,
                end: o.end,
            });
        let result = self.decider.decide(
            planned.power,
            planned.power_dbm,
            planned.start,
            planned.end,
            interferers,
        );
        // Mark this reception decided, then prune: an entry may be dropped
        // once it is decided AND no still-undecided overlapping reception
        // needs it as interference history. (The old `retain(o.end >= now)`
        // both leaked equal-end frames into every later decision and
        // prematurely dropped history that a pending overlapping reception
        // still needed, under-counting interference for staggered frames.)
        if let Some(own) = list.iter_mut().find(|o| o.frame_id == planned.frame_id) {
            own.finished = true;
        }
        // In place: only finished entries are removed and the keep test
        // reads only unfinished ones, so removing as we go leaves the same
        // survivors in the same order as deciding every entry first.
        let mut i = 0;
        while i < list.len() {
            let o = &list[i];
            let keep = !o.finished
                || list
                    .iter()
                    .any(|u| !u.finished && o.start < u.end && o.end > u.start);
            if keep {
                i += 1;
            } else {
                list.remove(i);
            }
        }
        match result {
            DeciderResult::Received { .. } => self.stats.received += 1,
            DeciderResult::Lost(LossReason::BelowSensitivity) => self.stats.lost_sensitivity += 1,
            DeciderResult::Lost(LossReason::Snir) => self.stats.lost_snir += 1,
            DeciderResult::Lost(LossReason::NumericFault) => {
                // Counted under `lost_snir` so the frame-fate accounting
                // identity (`links_planned == received + lost_snir + ...`)
                // keeps holding; the run is failed via `numeric_fault()`
                // anyway, so the statistics are never reported as trusted.
                self.stats.lost_snir += 1;
                if self.numeric_fault.is_none() {
                    self.numeric_fault = Some(format!(
                        "SNIR of frame {} at node {} evaluated to NaN \
                         (reception [{}, {}], power {:?})",
                        planned.frame_id, planned.rx, planned.start, planned.end, planned.power
                    ));
                }
            }
        }
        result
    }

    /// The first numeric divergence detected by the SNIR guard, if any (a
    /// human-readable diagnosis; the run should be treated as failed with
    /// `FailureKind::NumericDiverged`).
    pub fn numeric_fault(&self) -> Option<&str> {
        self.numeric_fault.as_deref()
    }

    /// Number of interference-history entries currently retained for
    /// `node`. Diagnostic hook: once every reception at a node has been
    /// decided, the backlog must drain back to zero.
    pub fn interference_backlog(&self, node: NodeId) -> usize {
        self.ongoing.get(&node).map_or(0, Vec::len)
    }

    /// `true` if the medium is busy at `node` (some ongoing reception above
    /// the carrier-sense threshold).
    pub fn is_busy(&self, node: NodeId, now: SimTime) -> bool {
        self.ongoing.get(&node).is_some_and(|list| {
            list.iter()
                .any(|o| o.above_cs && !o.finished && o.start <= now && now < o.end)
        })
    }
}

impl Default for Medium {
    fn default() -> Self {
        Medium::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WaveChannel;

    fn wsm(src: u32) -> Wsm {
        Wsm {
            source: NodeId(src),
            sequence: 0,
            created: SimTime::ZERO,
            channel: WaveChannel::Cch,
            payload: b"x".as_slice().into(),
        }
    }

    fn medium_with_two_nodes(gap_m: f64) -> Medium {
        let mut m = Medium::new();
        m.update_position(NodeId(1), Position::on_road(0.0, 0.0));
        m.update_position(NodeId(2), Position::on_road(gap_m, 0.0));
        m
    }

    #[test]
    fn close_transmission_reaches_peer() {
        let mut m = medium_with_two_nodes(10.0);
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert_eq!(out.receptions.len(), 1);
        let r = &out.receptions[0];
        assert_eq!(r.rx, NodeId(2));
        // 10 m at 20 mW -> about -55 dBm, above the -65 dBm CCA threshold.
        assert!(r.above_cs, "10 m is well above carrier sense");
        // Propagation delay ~ 10 m / c ~ 33.4 ns.
        assert_eq!(r.start.as_nanos(), 33);
        assert_eq!(r.end - r.start, out.duration);
        m.reception_started(r);
        assert!(m.reception_finished(r).is_received());
        assert_eq!(m.stats().received, 1);
    }

    #[test]
    fn default_propagation_delay_matches_distance() {
        let m = medium_with_two_nodes(299.792458);
        let pd = m.default_propagation_delay(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(pd.as_nanos(), 1000, "299.79 m is one microsecond");
        assert!(m.default_propagation_delay(NodeId(1), NodeId(9)).is_none());
    }

    #[test]
    fn far_node_gets_nothing() {
        let mut m = medium_with_two_nodes(100_000.0);
        assert_eq!(m.fanout_strategy(), FanoutStrategy::Grid);
        assert!(m.grid_cell_size_m().is_some());
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert!(
            out.receptions.is_empty(),
            "100 km is far below the noise floor"
        );
        // The grid pruned the link without evaluating the path loss, but
        // the brute-force-compatible counter still accounts for it.
        assert_eq!(m.stats().links_below_noise, 1);
        assert_eq!(m.stats().links_pruned_by_grid, 1);
    }

    #[test]
    fn transmit_from_unregistered_node_is_a_noop() {
        // Regression: a collision removes a vehicle from the medium while
        // its MAC still has a frame queued; the queued StartTx used to hit
        // `.expect("transmitter must be registered")` and panic.
        let mut m = medium_with_two_nodes(50.0);
        m.remove_node(NodeId(1));
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert!(out.receptions.is_empty());
        assert_eq!(m.stats().tx_unregistered, 1);
        assert_eq!(m.stats().transmissions, 0);
        assert_eq!(m.stats().links_planned, 0);
    }

    #[test]
    fn sender_not_in_fanout() {
        let mut m = medium_with_two_nodes(50.0);
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert!(out.receptions.iter().all(|r| r.rx != NodeId(1)));
    }

    #[test]
    fn overlapping_frames_interfere() {
        let mut m = Medium::new();
        m.update_position(NodeId(1), Position::on_road(0.0, 0.0));
        m.update_position(NodeId(2), Position::on_road(50.0, 0.0));
        m.update_position(NodeId(3), Position::on_road(100.0, 0.0));
        // Node 1 and node 3 transmit simultaneously; node 2 hears both
        // at comparable power -> both frames lost to SNIR.
        let out1 = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        let out3 = m.transmit(NodeId(3), wsm(3), SimTime::ZERO);
        let r1 = out1.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
        let r3 = out3.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
        m.reception_started(r1);
        m.reception_started(r3);
        assert_eq!(
            m.reception_finished(r1),
            DeciderResult::Lost(LossReason::Snir)
        );
        assert_eq!(
            m.reception_finished(r3),
            DeciderResult::Lost(LossReason::Snir)
        );
        assert_eq!(m.stats().lost_snir, 2);
    }

    #[test]
    fn leaving_the_medium_mid_reception_keeps_interference_history() {
        // Node 2 hears node 1's frame and, from half-way through it, node
        // 3's. A node taken off the medium (a vehicle that left the road)
        // still decides the frames in flight to it, so taking it off between
        // the start and the end of the interferer must not change what it
        // decides.
        let decide = |remove: bool| {
            let mut m = Medium::new();
            m.update_position(NodeId(1), Position::on_road(0.0, 0.0));
            m.update_position(NodeId(2), Position::on_road(50.0, 0.0));
            m.update_position(NodeId(3), Position::on_road(100.0, 0.0));
            let out1 = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
            let out3 = m.transmit(NodeId(3), wsm(3), SimTime::ZERO + out1.duration / 2);
            let r1 = out1.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
            let r3 = out3.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
            m.reception_started(r1);
            m.reception_started(r3);
            if remove {
                m.remove_node(NodeId(2));
            }
            [m.reception_finished(r1), m.reception_finished(r3)]
        };
        let kept = decide(false);
        assert_eq!(kept, [DeciderResult::Lost(LossReason::Snir); 2]);
        assert_eq!(decide(true), kept);
    }

    #[test]
    fn equal_end_frames_are_pruned_after_decision() {
        // Regression: two simultaneous frames share an end timestamp; the
        // old `retain(|o| o.end >= now)` kept both entries alive forever,
        // double-counting them as interferers for every later frame at the
        // node and leaking memory.
        let mut m = Medium::new();
        m.update_position(NodeId(1), Position::on_road(0.0, 0.0));
        m.update_position(NodeId(2), Position::on_road(50.0, 0.0));
        m.update_position(NodeId(3), Position::on_road(100.0, 0.0));
        let out1 = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        let out3 = m.transmit(NodeId(3), wsm(3), SimTime::ZERO);
        let r1 = out1.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
        let r3 = out3.receptions.iter().find(|r| r.rx == NodeId(2)).unwrap();
        assert_eq!(r1.end, r3.end, "equidistant frames end simultaneously");
        m.reception_started(r1);
        m.reception_started(r3);
        m.reception_finished(r1);
        assert_eq!(
            m.interference_backlog(NodeId(2)),
            2,
            "undecided r3 still needs r1 as interference history"
        );
        m.reception_finished(r3);
        assert_eq!(
            m.interference_backlog(NodeId(2)),
            0,
            "all decisions made: the backlog must drain"
        );
    }

    /// Distance at which free-space (α = 2) reception lands at `target`
    /// dBm for this medium's tx power.
    fn dist_for_dbm(m: &Medium, target: f64) -> f64 {
        let lambda = crate::units::wavelength_m(CCH_FREQ_HZ);
        let tx_dbm = m.phy().tx_power.to_dbm().0;
        lambda / (4.0 * std::f64::consts::PI) * 10f64.powf((tx_dbm - target) / 20.0)
    }

    #[test]
    fn staggered_overlap_keeps_interference_history() {
        // Regression: three staggered frames A, C, D at one victim, with A
        // overlapping both. The old prune dropped A when C was decided (A's
        // end was already in the past), so D's decision under-counted
        // interference and wrongly decoded.
        let mut m = Medium::new();
        m.update_position(NodeId(0), Position::on_road(0.0, 0.0));
        m.update_position(NodeId(1), Position::on_road(dist_for_dbm(&m, -78.0), 10.0));
        m.update_position(NodeId(2), Position::on_road(dist_for_dbm(&m, -80.0), -10.0));
        m.update_position(NodeId(3), Position::on_road(-dist_for_dbm(&m, -70.0), 0.0));
        let out_a = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        let dur = out_a.duration;
        let out_c = m.transmit(NodeId(2), wsm(2), SimTime::ZERO + dur / 4);
        let out_d = m.transmit(NodeId(3), wsm(3), SimTime::ZERO + dur / 2);
        let ra = out_a.receptions.iter().find(|r| r.rx == NodeId(0)).unwrap();
        let rc = out_c.receptions.iter().find(|r| r.rx == NodeId(0)).unwrap();
        let rd = out_d.receptions.iter().find(|r| r.rx == NodeId(0)).unwrap();
        m.reception_started(ra);
        m.reception_started(rc);
        m.reception_started(rd);
        // Decisions in end order: A, then C, then D.
        assert_eq!(
            m.reception_finished(ra),
            DeciderResult::Lost(LossReason::Snir)
        );
        assert_eq!(
            m.reception_finished(rc),
            DeciderResult::Lost(LossReason::Snir)
        );
        // D at −70 dBm against A (−78) + C (−80): SNIR ≈ 5.9 dB, below the
        // 6 dB QPSK threshold. With A wrongly pruned it would be ≈ 10 dB
        // and decode.
        assert_eq!(
            m.reception_finished(rd),
            DeciderResult::Lost(LossReason::Snir)
        );
        assert_eq!(m.interference_backlog(NodeId(0)), 0);
    }

    #[test]
    fn grid_and_brute_force_fan_out_identically() {
        let build = |strategy: FanoutStrategy| {
            let mut m = Medium::new();
            m.set_fanout_strategy(strategy);
            for i in 0..8u32 {
                // 10 km spacing: some links in range, some pruned (the
                // default free-space bound is ~18 km at these parameters).
                m.update_position(NodeId(i), Position::on_road(i as f64 * 10_000.0, 0.0));
            }
            m
        };
        let mut grid = build(FanoutStrategy::Grid);
        let mut brute = build(FanoutStrategy::BruteForce);
        for i in 0..8u32 {
            let g = grid.transmit(NodeId(i), wsm(i), SimTime::ZERO);
            let b = brute.transmit(NodeId(i), wsm(i), SimTime::ZERO);
            assert_eq!(g, b, "fan-out diverged for sender {i}");
        }
        assert!(grid.stats().links_pruned_by_grid > 0, "grid must prune");
        let mut gs = grid.stats();
        gs.links_pruned_by_grid = 0;
        assert_eq!(gs, brute.stats());
    }

    #[test]
    fn carrier_sense_during_reception() {
        let mut m = medium_with_two_nodes(10.0);
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        let r = &out.receptions[0];
        m.reception_started(r);
        let mid = r.start + (r.end - r.start) / 2;
        assert!(m.is_busy(NodeId(2), mid));
        assert!(!m.is_busy(NodeId(2), r.end + SimDuration::from_micros(1)));
        assert!(
            !m.is_busy(NodeId(1), mid),
            "sender's own medium state is tracked by its MAC"
        );
        m.reception_finished(r);
        assert!(
            !m.is_busy(NodeId(2), mid),
            "finished receptions don't keep the medium busy"
        );
    }

    #[test]
    fn carrier_sense_threshold_is_inclusive() {
        // A reception exactly at the carrier-sense threshold keeps the
        // medium busy; one just below it does not. The threshold is set to
        // the planned dBm of a 40 m link, so the comparison is exact.
        let probe = medium_with_two_nodes(40.0)
            .transmit(NodeId(1), wsm(1), SimTime::ZERO)
            .receptions[0]
            .power_dbm;
        for (threshold, busy) in [(probe, true), (probe.next_up(), false)] {
            let phy = PhyConfig {
                cs_threshold: Dbm(threshold),
                ..PhyConfig::default()
            };
            let mut m =
                Medium::with_models(PathLoss::FreeSpace(FreeSpace::default()), CCH_FREQ_HZ, phy);
            m.update_position(NodeId(1), Position::on_road(0.0, 0.0));
            m.update_position(NodeId(2), Position::on_road(40.0, 0.0));
            let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
            let r = &out.receptions[0];
            assert_eq!(r.power_dbm.to_bits(), probe.to_bits());
            assert_eq!(r.power_dbm, r.power.to_dbm().0);
            assert_eq!(r.above_cs, busy, "threshold {threshold}");
            m.reception_started(r);
            let mid = r.start + (r.end - r.start) / 2;
            assert_eq!(m.is_busy(NodeId(2), mid), busy, "threshold {threshold}");
        }
    }

    #[derive(Debug)]
    struct DelayAll(SimDuration);
    impl ChannelInterceptor for DelayAll {
        fn intercept(
            &mut self,
            _tx: NodeId,
            _rx: NodeId,
            _now: SimTime,
            _default: SimDuration,
            _wsm: &Wsm,
        ) -> LinkFate {
            LinkFate::Deliver { delay: self.0 }
        }
    }

    #[test]
    fn interceptor_overrides_propagation_delay() {
        let mut m = medium_with_two_nodes(50.0);
        m.set_interceptor(Box::new(DelayAll(SimDuration::from_secs(3))));
        let out = m.transmit(NodeId(1), wsm(1), SimTime::from_secs(10));
        let r = &out.receptions[0];
        assert_eq!(r.start, SimTime::from_secs(13));
        assert_eq!(m.stats().links_delay_modified, 1);
        assert!(m.has_interceptor());
        assert!(m.clear_interceptor().is_some());
        assert!(!m.has_interceptor());
        // Back to physics.
        let out = m.transmit(NodeId(1), wsm(1), SimTime::from_secs(20));
        assert!(out.receptions[0].start < SimTime::from_secs(20) + SimDuration::from_micros(1));
    }

    #[derive(Debug)]
    struct DropAll;
    impl ChannelInterceptor for DropAll {
        fn intercept(
            &mut self,
            _tx: NodeId,
            _rx: NodeId,
            _now: SimTime,
            _default: SimDuration,
            _wsm: &Wsm,
        ) -> LinkFate {
            LinkFate::Drop
        }
    }

    #[test]
    fn interceptor_can_drop_links() {
        let mut m = medium_with_two_nodes(50.0);
        m.set_interceptor(Box::new(DropAll));
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert!(out.receptions.is_empty());
        assert_eq!(m.stats().links_dropped_by_interceptor, 1);
    }

    #[derive(Debug)]
    struct Falsify;
    impl ChannelInterceptor for Falsify {
        fn intercept(
            &mut self,
            _tx: NodeId,
            _rx: NodeId,
            _now: SimTime,
            default: SimDuration,
            wsm: &Wsm,
        ) -> LinkFate {
            let mut modified = wsm.clone();
            modified.payload = b"lies".as_slice().into();
            LinkFate::DeliverModified {
                delay: default,
                wsm: modified,
            }
        }
    }

    #[test]
    fn interceptor_can_falsify_payload() {
        let mut m = medium_with_two_nodes(50.0);
        m.set_interceptor(Box::new(Falsify));
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert_eq!(&out.receptions[0].wsm.payload[..], b"lies");
        assert_eq!(m.stats().links_payload_modified, 1);
    }

    #[test]
    fn removed_node_gets_nothing() {
        let mut m = medium_with_two_nodes(50.0);
        m.remove_node(NodeId(2));
        let out = m.transmit(NodeId(1), wsm(1), SimTime::ZERO);
        assert!(out.receptions.is_empty());
        assert_eq!(m.node_count(), 1);
    }

    #[test]
    fn fanout_covers_all_receivers() {
        let mut m = Medium::new();
        for i in 0..5 {
            m.update_position(NodeId(i), Position::on_road(i as f64 * 20.0, 0.0));
        }
        let out = m.transmit(NodeId(0), wsm(0), SimTime::ZERO);
        assert_eq!(out.receptions.len(), 4);
    }
}
