//! Property tests for the vehicular network substrate.
//!
//! Every property runs `CASES` fixed cases: case `case` draws its inputs
//! from `RngStream::derive(SEED, StreamId(case))`, and a failure message
//! names the case and its inputs. Small finite inputs (the MCS table,
//! flags) are not drawn: every case runs all of their values.

use comfase_des::rng::{RngStream, StreamId};
use comfase_des::time::{SimDuration, SimTime};
use comfase_wireless::decider::{Decider, DeciderResult, Interferer, LossReason};
use comfase_wireless::frame::{AccessCategory, NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::mac::{Mac, MacAction, MacConfig};
use comfase_wireless::mac1609::ChannelSchedule;
use comfase_wireless::pathloss::{FreeSpace, PathLoss, TwoRayInterference};
use comfase_wireless::phy::{frame_duration, Mcs, PhyConfig};
use comfase_wireless::units::{Dbm, Milliwatts, CCH_FREQ_HZ};

const SEED: u64 = 42;
const CASES: u64 = 256;

const ALL_MCS: [Mcs; 8] = [
    Mcs::Bpsk12,
    Mcs::Bpsk34,
    Mcs::Qpsk12,
    Mcs::Qpsk34,
    Mcs::Qam16_12,
    Mcs::Qam16_34,
    Mcs::Qam64_23,
    Mcs::Qam64_34,
];

/// `n` uniform bytes, `n` drawn from `0..max_len`.
fn payload(g: &mut RngStream, max_len: u64) -> Vec<u8> {
    (0..g.below(max_len)).map(|_| g.below(256) as u8).collect()
}

/// dBm ↔ mW conversions round-trip.
#[test]
fn power_round_trip() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let dbm = g.uniform_range(-150.0, 50.0);
        let back = Dbm(dbm).to_milliwatts().to_dbm().0;
        assert!((back - dbm).abs() < 1e-9, "case {case}: {dbm} -> {back}");
    }
}

/// Free-space received power decreases monotonically with distance.
#[test]
fn free_space_monotone() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let d1 = g.uniform_range(1.0, 5_000.0);
        let factor = g.uniform_range(1.01, 10.0);
        let m = FreeSpace::default();
        let tx = Milliwatts(20.0);
        let a = Position::on_road(0.0, 0.0);
        let p1 = m.received_power(tx, CCH_FREQ_HZ, &a, &Position::on_road(d1, 0.0));
        let p2 = m.received_power(tx, CCH_FREQ_HZ, &a, &Position::on_road(d1 * factor, 0.0));
        assert!(p2.0 < p1.0, "case {case}: d1 {d1} factor {factor}");
    }
}

/// No path loss model ever amplifies the signal.
#[test]
fn pathloss_never_gains() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let d = g.uniform_range(0.0, 10_000.0);
        let tx = Milliwatts(20.0);
        let a = Position::on_road(0.0, 0.0);
        let b = Position::on_road(d, 0.0);
        for model in [
            PathLoss::FreeSpace(FreeSpace::default()),
            PathLoss::TwoRayInterference(TwoRayInterference::default()),
        ] {
            let p = model.received_power(tx, CCH_FREQ_HZ, &a, &b);
            assert!(
                p.0 <= tx.0 + 1e-12,
                "case {case}: {model:?} gained at {d} m"
            );
            assert!(p.0 >= 0.0, "case {case}: {model:?} at {d} m");
        }
    }
}

/// Frame airtime grows with the PSDU and shrinks with the bitrate.
#[test]
fn airtime_monotone() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let bits = g.below(100_000) as usize;
        let extra = 1 + g.below(9_999) as usize;
        for mcs in ALL_MCS {
            let inputs = format!("case {case}: {bits} + {extra} bits at {mcs:?}");
            let d1 = frame_duration(bits, mcs);
            let d2 = frame_duration(bits + extra, mcs);
            assert!(d2 >= d1, "{inputs}");
            let fast = frame_duration(bits, Mcs::Qam64_34);
            let slow = frame_duration(bits, Mcs::Bpsk12);
            assert!(fast <= slow, "{inputs}");
            // PLCP overhead is always present.
            assert!(d1 >= SimDuration::from_micros(40), "{inputs}");
        }
    }
}

/// Adding interference can only degrade a reception, never improve it.
#[test]
fn interference_is_monotone() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let signal_dbm = g.uniform_range(-88.0, -40.0);
        let interferer_dbm = g.uniform_range(-120.0, -40.0);
        let cfg = PhyConfig::default();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_micros(100);
        let decider = Decider::new(&cfg);
        let signal = Dbm(signal_dbm).to_milliwatts();
        let dbm = signal.to_dbm().0;
        let clean = decider.decide(signal, dbm, t0, t1, std::iter::empty());
        let noisy = decider.decide(
            signal,
            dbm,
            t0,
            t1,
            std::iter::once(Interferer {
                power: Dbm(interferer_dbm).to_milliwatts(),
                start: t0,
                end: t1,
            }),
        );
        let inputs =
            format!("case {case}: signal {signal_dbm} dBm, interferer {interferer_dbm} dBm");
        if matches!(clean, DeciderResult::Lost(_)) {
            assert!(matches!(noisy, DeciderResult::Lost(_)), "{inputs}");
        }
        if let (
            DeciderResult::Received { snir_db: s_clean },
            DeciderResult::Received { snir_db: s_noisy },
        ) = (clean, noisy)
        {
            assert!(s_noisy <= s_clean + 1e-9, "{inputs}");
        }
    }
}

/// The decider as it was before its per-configuration constants were
/// precomputed: every call converts the signal to dBm and the noise floor
/// to milliwatts itself.
fn reference_decide(
    config: &PhyConfig,
    signal: Milliwatts,
    start: SimTime,
    end: SimTime,
    interferers: &[Interferer],
) -> DeciderResult {
    if signal.to_dbm().0 < config.sensitivity.0 {
        return DeciderResult::Lost(LossReason::BelowSensitivity);
    }
    let noise = config.noise_floor.to_milliwatts();
    let mut worst = Milliwatts::ZERO;
    let mut check_instant = |t: SimTime| {
        let mut sum = Milliwatts::ZERO;
        for i in interferers {
            if i.start <= t && t < i.end {
                sum += i.power;
            }
        }
        if sum.0 > worst.0 {
            worst = sum;
        }
    };
    check_instant(start);
    for i in interferers {
        if i.start > start && i.start < end {
            check_instant(i.start);
        }
    }
    let snir_db = 10.0 * (signal.0 / (noise + worst).0).log10();
    if snir_db.is_nan() {
        return DeciderResult::Lost(LossReason::NumericFault);
    }
    if snir_db >= config.mcs.snir_threshold_db() {
        DeciderResult::Received { snir_db }
    } else {
        DeciderResult::Lost(LossReason::Snir)
    }
}

/// The precomputed decider (sensitivity, noise floor and threshold built
/// once, the signal's dBm handed in) decides exactly like the reference
/// formula, to the bit: at the sensitivity edge, under overlapping
/// interferers, and with NaN or infinite powers.
#[test]
fn precomputed_decider_matches_the_reference_formula() {
    let bits = |r: DeciderResult| match r {
        DeciderResult::Received { snir_db } => Ok(snir_db.to_bits()),
        DeciderResult::Lost(reason) => Err(reason),
    };
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let sensitivity = g.uniform_range(-95.0, -80.0);
        let noise_floor = g.uniform_range(-115.0, -95.0);
        // Every fourth case sits on the sensitivity edge, one in sixteen
        // carries a NaN or infinite signal.
        let signal = match case % 16 {
            0 => Milliwatts(f64::NAN),
            8 => Milliwatts(f64::INFINITY),
            4 | 12 => Dbm(sensitivity).to_milliwatts(),
            _ => Dbm(g.uniform_range(sensitivity - 5.0, -40.0)).to_milliwatts(),
        };
        let start = SimTime::from_micros(g.below(200) as i64);
        let end = start + SimDuration::from_micros(1 + g.below(400) as i64);
        let interferers: Vec<Interferer> = (0..g.below(6))
            .map(|k| {
                let s = SimTime::from_micros(g.below(700) as i64);
                let power = if case % 32 == 2 && k == 0 {
                    Milliwatts(f64::NAN)
                } else {
                    Dbm(g.uniform_range(-120.0, -50.0)).to_milliwatts()
                };
                Interferer {
                    power,
                    start: s,
                    end: s + SimDuration::from_micros(1 + g.below(400) as i64),
                }
            })
            .collect();
        for mcs in ALL_MCS {
            let cfg = PhyConfig {
                mcs,
                sensitivity: Dbm(sensitivity),
                noise_floor: Dbm(noise_floor),
                ..PhyConfig::default()
            };
            let inputs = format!(
                "case {case}: {mcs:?}, signal {signal:?}, sensitivity {sensitivity}, \
                 noise {noise_floor}, [{start}, {end}], interferers {interferers:?}"
            );
            let want = reference_decide(&cfg, signal, start, end, &interferers);
            let got = Decider::new(&cfg).decide(
                signal,
                signal.to_dbm().0,
                start,
                end,
                interferers.iter().copied(),
            );
            assert_eq!(bits(got), bits(want), "{inputs}");
        }
    }
}

/// WSM encode/decode round-trips arbitrary payloads.
#[test]
fn wsm_round_trip() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let src = g.next_u64() as u32;
        let seq = g.next_u64() as u32;
        let ns = g.below(1_000_000_000_000) as i64;
        let payload = payload(&mut g, 512);
        for channel in [WaveChannel::Cch, WaveChannel::Sch1] {
            let wsm = Wsm {
                source: NodeId(src),
                sequence: seq,
                created: SimTime::from_nanos(ns),
                channel,
                payload: payload.clone().into(),
            };
            assert_eq!(Wsm::decode(&wsm.encode()).unwrap(), wsm, "case {case}");
        }
    }
}

/// Truncating an encoded WSM anywhere always fails cleanly.
#[test]
fn wsm_truncation_never_panics() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let payload = payload(&mut g, 64);
        let wsm = Wsm {
            source: NodeId(1),
            sequence: 2,
            created: SimTime::ZERO,
            channel: WaveChannel::Cch,
            payload: payload.into(),
        };
        let enc = wsm.encode();
        let cut = ((enc.len() as f64) * g.uniform()) as usize;
        if cut < enc.len() {
            assert!(
                Wsm::decode(&enc[..cut]).is_err(),
                "case {case}: {cut} of {} bytes decoded",
                enc.len()
            );
        }
    }
}

/// The MAC transmits every queued frame on an idle medium, in FIFO
/// order per access category, and never loses one.
#[test]
fn mac_drains_queue_on_idle_medium() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let n = 1 + g.below(19) as usize;
        let seed = g.next_u64();
        let inputs = format!("case {case}: {n} frames, MAC seed {seed}");
        let mut mac = Mac::new(MacConfig::default(), RngStream::new(seed));
        let mut pending: Option<MacAction> = None;
        for i in 0..n {
            let wsm = Wsm {
                source: NodeId(1),
                sequence: i as u32,
                created: SimTime::ZERO,
                channel: WaveChannel::Cch,
                payload: b"x".as_slice().into(),
            };
            if let Some(action) = mac.enqueue(wsm, AccessCategory::Vo, SimTime::ZERO) {
                assert!(pending.replace(action).is_none(), "{inputs}: two actions");
            }
        }
        let mut sent = Vec::new();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(action) = pending.take() {
            guard += 1;
            assert!(guard < 10_000, "{inputs}: MAC did not converge");
            match action {
                MacAction::SetTimer { at, token } => {
                    now = now.max(at);
                    pending = mac.handle_timer(token, at);
                }
                MacAction::StartTx(wsm) => {
                    sent.push(wsm.sequence);
                    now += SimDuration::from_micros(80);
                    pending = mac.tx_finished(now);
                }
                MacAction::Drop { .. } => panic!("{inputs}: unexpected drop"),
            }
        }
        assert_eq!(sent.len(), n, "{inputs}");
        let mut sorted = sent.clone();
        sorted.sort_unstable();
        assert_eq!(sent, sorted, "{inputs}: FIFO order violated");
        assert_eq!(mac.stats().sent, n as u64, "{inputs}");
    }
}

/// next_access always returns an instant where transmission is
/// permitted for a zero-length frame.
#[test]
fn schedule_next_access_is_eligible() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let ms = g.below(1_000) as i64;
        for s in [ChannelSchedule::default(), ChannelSchedule::alternating()] {
            let now = SimTime::from_millis(ms);
            let at = s.next_access(WaveChannel::Cch, now);
            assert!(at >= now, "case {case}: {ms} ms under {s:?}");
            assert!(
                s.can_transmit(WaveChannel::Cch, at, SimDuration::ZERO),
                "case {case}: {ms} ms under {s:?}"
            );
        }
    }
}
