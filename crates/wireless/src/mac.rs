//! IEEE 802.11p EDCA MAC (broadcast CSMA/CA).
//!
//! The MAC is a reactive state machine: the owner (the co-simulation world)
//! feeds it events — frames to send, timer expiries, medium busy/idle
//! transitions — and executes the [`MacAction`] it returns, if any (arming
//! a timer, starting a transmission). No event yields more than one
//! action. This keeps the MAC free of event-loop ownership and directly
//! unit-testable.
//!
//! Modelled behaviour, following Veins' `Mac1609_4`:
//!
//! - four EDCA access categories with 802.11p AIFSN/CW parameters;
//! - listen-before-talk: a frame arriving to an idle medium is sent after
//!   AIFS without backoff; if the medium was busy, a backoff from
//!   `[0, CW_min]` is drawn (broadcast frames are never retransmitted, so
//!   the contention window does not grow);
//! - backoff freezing: a busy medium pauses the countdown, which resumes
//!   after the medium has been idle for AIFS again;
//! - IEEE 1609.4 channel scheduling: transmissions must fit inside the
//!   current channel interval and may not start during guard time.
//!
//! Simplification: internal (virtual) collisions between access categories
//! are resolved by always transmitting from the highest-priority non-empty
//! queue when the contention completes, rather than running four parallel
//! contention processes. With beacon-style traffic this is behaviourally
//! equivalent and considerably simpler.

use std::collections::VecDeque;

use comfase_des::rng::RngStream;
use comfase_des::time::{SimDuration, SimTime};

use crate::frame::{AccessCategory, Wsm};
use crate::mac1609::ChannelSchedule;

/// EDCA parameters of one access category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdcaParams {
    /// Arbitration inter-frame space number (slots after SIFS).
    pub aifsn: u32,
    /// Minimum contention window.
    pub cw_min: u32,
    /// Maximum contention window (unused for broadcast, kept for fidelity).
    pub cw_max: u32,
}

impl EdcaParams {
    /// 802.11p EDCA defaults for an access category.
    pub fn for_category(ac: AccessCategory) -> Self {
        match ac {
            AccessCategory::Vo => EdcaParams {
                aifsn: 2,
                cw_min: 3,
                cw_max: 7,
            },
            AccessCategory::Vi => EdcaParams {
                aifsn: 3,
                cw_min: 7,
                cw_max: 15,
            },
            AccessCategory::Be => EdcaParams {
                aifsn: 6,
                cw_min: 15,
                cw_max: 1023,
            },
            AccessCategory::Bk => EdcaParams {
                aifsn: 9,
                cw_min: 15,
                cw_max: 1023,
            },
        }
    }
}

/// MAC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Slot time (13 µs for 802.11p / 10 MHz).
    pub slot: SimDuration,
    /// SIFS (32 µs for 802.11p / 10 MHz).
    pub sifs: SimDuration,
    /// Per-access-category queue capacity.
    pub queue_capacity: usize,
    /// 1609.4 channel schedule.
    pub schedule: ChannelSchedule,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            slot: SimDuration::from_micros(13),
            sifs: SimDuration::from_micros(32),
            queue_capacity: 64,
            schedule: ChannelSchedule::default(),
        }
    }
}

impl MacConfig {
    /// AIFS duration for a category: SIFS + AIFSN × slot.
    pub fn aifs(&self, ac: AccessCategory) -> SimDuration {
        self.sifs + self.slot * i64::from(EdcaParams::for_category(ac).aifsn)
    }
}

/// Why the MAC dropped a frame without transmitting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The access category queue was full.
    QueueFull,
}

/// What the owner must do after feeding the MAC an event.
#[derive(Debug, Clone, PartialEq)]
pub enum MacAction {
    /// Arm a timer; deliver `token` back via [`Mac::handle_timer`] at `at`.
    SetTimer {
        /// Absolute expiry time.
        at: SimTime,
        /// Opaque token identifying the contention attempt.
        token: u64,
    },
    /// Begin transmitting this frame on the medium now.
    StartTx(Wsm),
    /// The frame was dropped.
    Drop {
        /// The dropped frame.
        wsm: Wsm,
        /// Why.
        reason: DropReason,
    },
}

/// MAC statistics counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Frames accepted from the application.
    pub enqueued: u64,
    /// Frames handed to the PHY for transmission.
    pub sent: u64,
    /// Frames dropped due to a full queue.
    pub dropped_queue_full: u64,
    /// Contention attempts that were deferred (busy medium or closed
    /// channel interval); superset of [`MacStats::deferrals_guard`].
    pub deferrals: u64,
    /// Deferrals caused by the IEEE 1609.4 channel schedule (wrong
    /// interval or guard window), as opposed to a busy medium.
    pub deferrals_guard: u64,
}
comfase_json::record!(ToJson for MacStats {
    enqueued, sent, dropped_queue_full, deferrals, deferrals_guard,
});

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    /// Waiting for the medium to go idle (or the channel interval to open).
    Deferred,
    /// AIFS + backoff countdown is running.
    Contending {
        token: u64,
        started: SimTime,
        aifs_end: SimTime,
        deadline: SimTime,
    },
    Transmitting,
}

/// The EDCA MAC entity of one NIC.
///
/// `Mac` is `Clone`: a clone snapshots the queues, contention state, and RNG
/// stream, so a forked run continues with the exact same backoff draws.
#[derive(Debug, Clone)]
pub struct Mac {
    config: MacConfig,
    queues: [VecDeque<Wsm>; 4],
    state: State,
    medium_busy: bool,
    /// Remaining backoff slots carried across freezes.
    slots_left: u32,
    /// Whether the next contention needs a random backoff (true after the
    /// medium was busy or after our own transmission).
    backoff_required: bool,
    next_token: u64,
    rng: RngStream,
    stats: MacStats,
}

fn ac_index(ac: AccessCategory) -> usize {
    match ac {
        AccessCategory::Vo => 0,
        AccessCategory::Vi => 1,
        AccessCategory::Be => 2,
        AccessCategory::Bk => 3,
    }
}

const AC_ORDER: [AccessCategory; 4] = [
    AccessCategory::Vo,
    AccessCategory::Vi,
    AccessCategory::Be,
    AccessCategory::Bk,
];

impl Mac {
    /// Creates an idle MAC.
    pub fn new(config: MacConfig, rng: RngStream) -> Self {
        Mac {
            config,
            queues: Default::default(),
            state: State::Idle,
            medium_busy: false,
            slots_left: 0,
            backoff_required: false,
            next_token: 0,
            rng,
            stats: MacStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Number of queued frames across all categories.
    pub fn queue_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// `true` while a frame is on the air.
    pub fn is_transmitting(&self) -> bool {
        self.state == State::Transmitting
    }

    /// Accepts a frame from the application.
    pub fn enqueue(&mut self, wsm: Wsm, ac: AccessCategory, now: SimTime) -> Option<MacAction> {
        let q = &mut self.queues[ac_index(ac)];
        if q.len() >= self.config.queue_capacity {
            self.stats.dropped_queue_full += 1;
            return Some(MacAction::Drop {
                wsm,
                reason: DropReason::QueueFull,
            });
        }
        q.push_back(wsm);
        self.stats.enqueued += 1;
        if self.state == State::Idle {
            self.try_start_contention(now)
        } else {
            None
        }
    }

    /// A timer armed via [`MacAction::SetTimer`] expired.
    pub fn handle_timer(&mut self, token: u64, now: SimTime) -> Option<MacAction> {
        match self.state {
            State::Contending {
                token: t, deadline, ..
            } if t == token => {
                debug_assert!(now >= deadline);
                self.slots_left = 0;
                self.backoff_required = false;
                // The contention completed on an idle medium; transmit the
                // highest-priority frame if the channel interval allows it.
                let (ac, _) = match self.best_nonempty() {
                    Some(x) => x,
                    None => {
                        self.state = State::Idle;
                        return None;
                    }
                };
                let wsm = self.queues[ac_index(ac)]
                    .front()
                    .expect("non-empty")
                    .clone();
                let channel = wsm.channel;
                if !self
                    .config
                    .schedule
                    .can_transmit(channel, now, SimDuration::ZERO)
                {
                    // Wrong interval or guard: defer to the next access slot.
                    self.state = State::Deferred;
                    self.stats.deferrals += 1;
                    self.stats.deferrals_guard += 1;
                    let at = self.config.schedule.next_access(channel, now);
                    return Some(self.start_contention_at(at));
                }
                let wsm = self.queues[ac_index(ac)].pop_front().expect("non-empty");
                self.state = State::Transmitting;
                self.stats.sent += 1;
                Some(MacAction::StartTx(wsm))
            }
            _ => None, // stale token
        }
    }

    /// The medium turned busy (carrier sensed or own transmission started).
    /// Freezing a contention never yields an action.
    pub fn medium_busy(&mut self, now: SimTime) {
        self.medium_busy = true;
        if let State::Contending { aifs_end, .. } = self.state {
            // Freeze the backoff: bank the slots not yet counted down.
            if now > aifs_end {
                let consumed =
                    ((now - aifs_end).as_nanos() / self.config.slot.as_nanos().max(1)) as u32;
                self.slots_left = self.slots_left.saturating_sub(consumed);
            }
            self.backoff_required = true;
            self.state = State::Deferred;
            self.stats.deferrals += 1;
        }
    }

    /// The medium turned idle again.
    pub fn medium_idle(&mut self, now: SimTime) -> Option<MacAction> {
        self.medium_busy = false;
        if self.state == State::Deferred {
            self.try_start_contention(now)
        } else {
            None
        }
    }

    /// Our own transmission completed.
    pub fn tx_finished(&mut self, now: SimTime) -> Option<MacAction> {
        assert_eq!(
            self.state,
            State::Transmitting,
            "tx_finished outside transmission"
        );
        self.state = State::Idle;
        // Post-transmission contention always uses a fresh random backoff.
        self.backoff_required = true;
        if self.queue_len() > 0 {
            self.try_start_contention(now)
        } else {
            None
        }
    }

    fn best_nonempty(&self) -> Option<(AccessCategory, usize)> {
        AC_ORDER
            .into_iter()
            .map(|ac| (ac, ac_index(ac)))
            .find(|(_, i)| !self.queues[*i].is_empty())
    }

    fn try_start_contention(&mut self, now: SimTime) -> Option<MacAction> {
        if self.queue_len() == 0 {
            self.state = State::Idle;
            return None;
        }
        if self.medium_busy {
            self.state = State::Deferred;
            self.backoff_required = true;
            return None;
        }
        Some(self.start_contention_at(now))
    }

    fn start_contention_at(&mut self, start: SimTime) -> MacAction {
        let (ac, _) = self.best_nonempty().expect("queue non-empty");
        let params = EdcaParams::for_category(ac);
        if self.backoff_required && self.slots_left == 0 {
            self.slots_left = self.rng.below(u64::from(params.cw_min) + 1) as u32;
        }
        let aifs_end = start + self.config.aifs(ac);
        let deadline = aifs_end + self.config.slot * i64::from(self.slots_left);
        let token = self.next_token;
        self.next_token += 1;
        self.state = State::Contending {
            token,
            started: start,
            aifs_end,
            deadline,
        };
        MacAction::SetTimer {
            at: deadline,
            token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NodeId, WaveChannel};

    fn wsm(seq: u32) -> Wsm {
        Wsm {
            source: NodeId(1),
            sequence: seq,
            created: SimTime::ZERO,
            channel: WaveChannel::Cch,
            payload: b"b".as_slice().into(),
        }
    }

    fn mac() -> Mac {
        Mac::new(MacConfig::default(), RngStream::new(7))
    }

    fn fire_all(m: &mut Mac, action: Option<MacAction>) -> (Vec<Wsm>, SimTime) {
        // Drive timers until a StartTx appears (or actions run dry).
        let mut next = action;
        let mut sent = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(a) = next.take() {
            match a {
                MacAction::SetTimer { at, token } => {
                    last = at;
                    next = m.handle_timer(token, at);
                }
                MacAction::StartTx(w) => sent.push(w),
                MacAction::Drop { .. } => {}
            }
        }
        (sent, last)
    }

    #[test]
    fn idle_medium_sends_after_aifs_without_backoff() {
        let mut m = mac();
        let actions = m.enqueue(wsm(0), AccessCategory::Vo, SimTime::ZERO);
        match &actions {
            Some(MacAction::SetTimer { at, .. }) => {
                // AIFS(VO) = 32 + 2*13 = 58 us, no backoff on idle medium.
                assert_eq!(*at, SimTime::from_micros(58));
            }
            other => panic!("unexpected {other:?}"),
        }
        let (sent, _) = fire_all(&mut m, actions);
        assert_eq!(sent.len(), 1);
        assert!(m.is_transmitting());
        assert_eq!(m.stats().sent, 1);
    }

    #[test]
    fn aifs_ordering_across_categories() {
        let cfg = MacConfig::default();
        assert!(cfg.aifs(AccessCategory::Vo) < cfg.aifs(AccessCategory::Vi));
        assert!(cfg.aifs(AccessCategory::Vi) < cfg.aifs(AccessCategory::Be));
        assert!(cfg.aifs(AccessCategory::Be) < cfg.aifs(AccessCategory::Bk));
        assert_eq!(
            cfg.aifs(AccessCategory::Be),
            SimDuration::from_micros(32 + 6 * 13)
        );
    }

    #[test]
    fn busy_medium_defers_enqueue() {
        let mut m = mac();
        m.medium_busy(SimTime::ZERO);
        let actions = m.enqueue(wsm(0), AccessCategory::Vo, SimTime::ZERO);
        assert!(actions.is_none(), "no timer while busy");
        // Idle at 1 ms: contention starts, with a random backoff drawn.
        let actions = m.medium_idle(SimTime::from_millis(1));
        assert!(actions.is_some());
        let (sent, when) = fire_all(&mut m, actions);
        assert_eq!(sent.len(), 1);
        assert!(when >= SimTime::from_millis(1) + SimDuration::from_micros(58));
    }

    #[test]
    fn backoff_freezes_and_resumes() {
        let mut m = mac();
        // Force a post-busy contention so a backoff is drawn.
        m.medium_busy(SimTime::ZERO);
        m.enqueue(wsm(0), AccessCategory::Be, SimTime::ZERO);
        let actions = m.medium_idle(SimTime::from_millis(1));
        let deadline1 = match &actions {
            Some(MacAction::SetTimer { at, .. }) => *at,
            other => panic!("{other:?}"),
        };
        // Medium busy again halfway through AIFS: freeze, nothing sent.
        m.medium_busy(SimTime::from_millis(1) + SimDuration::from_micros(10));
        // Stale timer must be ignored.
        let stale = m.handle_timer(0, deadline1);
        assert!(stale.is_none());
        // Idle again: a new timer is armed and eventually fires.
        let actions = m.medium_idle(SimTime::from_millis(2));
        let (sent, _) = fire_all(&mut m, actions);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut m = Mac::new(
            MacConfig {
                queue_capacity: 2,
                ..MacConfig::default()
            },
            RngStream::new(1),
        );
        m.medium_busy(SimTime::ZERO); // keep frames queued
        m.enqueue(wsm(0), AccessCategory::Vo, SimTime::ZERO);
        m.enqueue(wsm(1), AccessCategory::Vo, SimTime::ZERO);
        let actions = m.enqueue(wsm(2), AccessCategory::Vo, SimTime::ZERO);
        assert!(matches!(
            actions,
            Some(MacAction::Drop {
                reason: DropReason::QueueFull,
                ..
            })
        ));
        assert_eq!(m.stats().dropped_queue_full, 1);
        assert_eq!(m.queue_len(), 2);
    }

    #[test]
    fn higher_priority_queue_wins() {
        let mut m = mac();
        m.medium_busy(SimTime::ZERO);
        m.enqueue(wsm(10), AccessCategory::Bk, SimTime::ZERO);
        m.enqueue(wsm(20), AccessCategory::Vo, SimTime::ZERO);
        let actions = m.medium_idle(SimTime::from_millis(1));
        let (sent, _) = fire_all(&mut m, actions);
        assert_eq!(sent[0].sequence, 20, "VO preempts BK");
    }

    #[test]
    fn tx_finished_triggers_next_frame() {
        let mut m = mac();
        m.enqueue(wsm(0), AccessCategory::Vo, SimTime::ZERO);
        m.enqueue(wsm(1), AccessCategory::Vo, SimTime::ZERO);
        let actions = m.enqueue(wsm(2), AccessCategory::Vo, SimTime::ZERO);
        assert!(actions.is_none(), "contention already running");
        let first = m.handle_timer(0, SimTime::from_micros(58));
        assert!(matches!(first, Some(MacAction::StartTx(_))));
        // Finish the transmission; the MAC contends for the next frame.
        let next = m.tx_finished(SimTime::from_micros(138));
        assert!(matches!(next, Some(MacAction::SetTimer { .. })));
        let (sent, _) = fire_all(&mut m, next);
        assert_eq!(sent.len(), 1);
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    #[should_panic(expected = "tx_finished outside transmission")]
    fn tx_finished_when_not_transmitting_panics() {
        mac().tx_finished(SimTime::ZERO);
    }

    #[test]
    fn deterministic_backoff_for_equal_seeds() {
        let run = |seed| {
            let mut m = Mac::new(MacConfig::default(), RngStream::new(seed));
            m.medium_busy(SimTime::ZERO);
            m.enqueue(wsm(0), AccessCategory::Be, SimTime::ZERO);
            match m.medium_idle(SimTime::from_millis(1)) {
                Some(MacAction::SetTimer { at, .. }) => at,
                _ => panic!(),
            }
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn channel_switching_defers_to_cch_interval() {
        let cfg = MacConfig {
            schedule: ChannelSchedule::alternating(),
            ..MacConfig::default()
        };
        let mut m = Mac::new(cfg, RngStream::new(1));
        // Enqueue during the SCH interval (60 ms).
        let mut next = m.enqueue(wsm(0), AccessCategory::Vo, SimTime::from_millis(60));
        // Contention timer fires in SCH interval; MAC defers to next CCH
        // access and re-arms.
        let mut sent = Vec::new();
        let mut hops = 0;
        while let Some(a) = next.take() {
            match a {
                MacAction::SetTimer { at, token } => {
                    hops += 1;
                    assert!(hops < 10, "must converge");
                    next = m.handle_timer(token, at);
                }
                MacAction::StartTx(w) => sent.push(w),
                MacAction::Drop { .. } => {}
            }
        }
        assert_eq!(sent.len(), 1);
        assert!(m.stats().deferrals >= 1);
    }
}
