//! Full-stack wireless integration: MAC + channel + PHY driven by a small
//! event loop, verifying end-to-end delivery timing and CSMA behaviour
//! with exact 802.11p numbers.
use comfase_des::rng::RngStream;
use comfase_des::sim::Simulator;
use comfase_des::time::{SimDuration, SimTime};
use comfase_wireless::channel::{Medium, PlannedReception};
use comfase_wireless::frame::{AccessCategory, NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacAction, MacConfig};

#[derive(Debug)]
enum Ev {
    MacTimer { node: u32, token: u64 },
    TxEnd { node: u32 },
    RxStart(Box<PlannedReception>),
    RxEnd(Box<PlannedReception>),
}

/// Minimal two+N node radio world for protocol-level assertions.
struct RadioWorld {
    sim: Simulator<Ev>,
    medium: Medium,
    macs: Vec<Mac>,
    delivered: Vec<(u32, Wsm, SimTime)>,
}

impl RadioWorld {
    fn new(positions: &[f64]) -> Self {
        let sim: Simulator<Ev> = Simulator::new(9);
        let mut medium = Medium::new();
        let mut macs = Vec::new();
        for (i, &x) in positions.iter().enumerate() {
            medium.update_position(NodeId(i as u32), Position::on_road(x, 0.0));
            macs.push(Mac::new(
                MacConfig::default(),
                RngStream::new(100 + i as u64),
            ));
        }
        RadioWorld {
            sim,
            medium,
            macs,
            delivered: Vec::new(),
        }
    }

    fn wsm(&self, src: u32, seq: u32) -> Wsm {
        Wsm {
            source: NodeId(src),
            sequence: seq,
            created: self.sim.now(),
            channel: WaveChannel::Cch,
            payload: [7u8; 36].as_slice().into(),
        }
    }

    fn enqueue(&mut self, node: u32, seq: u32) {
        let wsm = self.wsm(node, seq);
        let now = self.sim.now();
        let action = self.macs[node as usize].enqueue(wsm, AccessCategory::Vo, now);
        self.apply(node, action);
    }

    fn apply(&mut self, node: u32, action: Option<MacAction>) {
        let now = self.sim.now();
        match action {
            Some(MacAction::SetTimer { at, token }) => {
                self.sim
                    .schedule_at(at.max(now), Ev::MacTimer { node, token });
            }
            Some(MacAction::StartTx(wsm)) => {
                let out = self.medium.transmit(NodeId(node), wsm, now);
                self.sim.schedule_at(now + out.duration, Ev::TxEnd { node });
                for r in out.receptions {
                    self.sim
                        .schedule_at(r.start, Ev::RxStart(Box::new(r.clone())));
                    self.sim.schedule_at(r.end, Ev::RxEnd(Box::new(r)));
                }
            }
            Some(MacAction::Drop { .. }) | None => {}
        }
    }

    fn run_until(&mut self, limit: SimTime) {
        while let Some((now, ev)) = self.sim.pop_due(limit) {
            match ev {
                Ev::MacTimer { node, token } => {
                    let action = self.macs[node as usize].handle_timer(token, now);
                    self.apply(node, action);
                }
                Ev::TxEnd { node } => {
                    let action = self.macs[node as usize].tx_finished(now);
                    self.apply(node, action);
                }
                Ev::RxStart(r) => {
                    self.medium.reception_started(&r);
                    if r.above_cs && !self.macs[r.rx.0 as usize].is_transmitting() {
                        self.macs[r.rx.0 as usize].medium_busy(now);
                    }
                }
                Ev::RxEnd(r) => {
                    let result = self.medium.reception_finished(&r);
                    if result.is_received() {
                        self.delivered.push((r.rx.0, r.wsm.clone(), now));
                    }
                    if !self.medium.is_busy(r.rx, now) {
                        let action = self.macs[r.rx.0 as usize].medium_idle(now);
                        self.apply(r.rx.0, action);
                    }
                }
            }
        }
        self.sim.advance_to(limit);
    }
}

#[test]
fn single_frame_timing_is_exact() {
    // Two nodes 30 m apart. Idle medium: AIFS(VO) = 58 us, then the frame
    // (36-byte payload + 192-bit header = 480-bit PSDU at 6 Mbit/s:
    // 16+480+6 = 502 bits -> 11 symbols -> 40 + 88 = 128 us airtime),
    // plus 30 m / c ~ 100 ns propagation.
    let mut w = RadioWorld::new(&[0.0, 30.0]);
    w.enqueue(0, 1);
    w.run_until(SimTime::from_millis(10));
    assert_eq!(w.delivered.len(), 1);
    let (rx, wsm, at) = &w.delivered[0];
    assert_eq!(*rx, 1);
    assert_eq!(wsm.sequence, 1);
    let expect = SimDuration::from_micros(58 + 128) + SimDuration::from_nanos(100);
    assert_eq!(*at, SimTime::ZERO + expect, "delivery at {at}");
}

#[test]
fn broadcast_reaches_every_node() {
    let mut w = RadioWorld::new(&[0.0, 20.0, 40.0, 60.0, 80.0]);
    w.enqueue(2, 9);
    w.run_until(SimTime::from_millis(10));
    let mut receivers: Vec<u32> = w.delivered.iter().map(|(rx, _, _)| *rx).collect();
    receivers.sort_unstable();
    assert_eq!(receivers, vec![0, 1, 3, 4]);
}

#[test]
fn csma_serialises_simultaneous_senders() {
    // Two nodes enqueue at the same instant: both count AIFS down, both
    // transmit... unless carrier sense catches the first transmission.
    // With equal AIFS they collide at the receivers in the middle — but
    // the third node must still decode at least one frame if the MACs
    // separate, or zero if they overlap. What must NOT happen is a panic
    // or a duplicate delivery.
    let mut w = RadioWorld::new(&[0.0, 10.0, 200.0]);
    w.enqueue(0, 1);
    w.enqueue(1, 2);
    w.run_until(SimTime::from_millis(50));
    // Each receiver sees each sequence at most once.
    for rx in 0..3u32 {
        for seq in [1u32, 2] {
            let n = w
                .delivered
                .iter()
                .filter(|(r, wsm, _)| *r == rx && wsm.sequence == seq)
                .count();
            assert!(n <= 1, "node {rx} saw seq {seq} {n} times");
        }
    }
}

#[test]
fn queued_frames_are_paced_by_contention() {
    // One node sends 5 frames back to back: deliveries to the peer must be
    // strictly ordered and separated by at least one frame airtime.
    let mut w = RadioWorld::new(&[0.0, 25.0]);
    for seq in 1..=5 {
        w.enqueue(0, seq);
    }
    w.run_until(SimTime::from_millis(50));
    let times: Vec<SimTime> = w
        .delivered
        .iter()
        .filter(|(rx, _, _)| *rx == 1)
        .map(|(_, _, t)| *t)
        .collect();
    assert_eq!(times.len(), 5);
    for pair in times.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            gap >= SimDuration::from_micros(128),
            "frames too close: {gap}"
        );
    }
    // Sequences arrive in order.
    let seqs: Vec<u32> = w
        .delivered
        .iter()
        .filter(|(rx, _, _)| *rx == 1)
        .map(|(_, wsm, _)| wsm.sequence)
        .collect();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
}

#[test]
fn distant_nodes_are_unreachable() {
    let mut w = RadioWorld::new(&[0.0, 50_000.0]);
    w.enqueue(0, 1);
    w.run_until(SimTime::from_millis(10));
    assert!(w.delivered.is_empty());
}
