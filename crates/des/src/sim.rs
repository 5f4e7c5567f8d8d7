//! The simulation kernel: current time plus the future event set.
//!
//! [`Simulator`] is deliberately minimal — it owns the clock and the event
//! queue, and hands out deterministic RNG streams. Higher layers (the
//! co-simulation "world" in the `comfase` crate) own all model state and
//! drive the kernel with [`Simulator::pop_due`], which fits Rust ownership:
//!
//! ```
//! use comfase_des::sim::Simulator;
//! use comfase_des::time::{SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! let mut sim = Simulator::new(42);
//! sim.schedule_in(SimDuration::from_millis(10), Ev::Tick);
//! let mut ticks = 0;
//! while let Some((_t, _ev)) = sim.pop_due(SimTime::from_secs(1)) {
//!     ticks += 1;
//! }
//! sim.advance_to(SimTime::from_secs(1));
//! assert_eq!(ticks, 1);
//! assert_eq!(sim.now(), SimTime::from_secs(1));
//! ```

use crate::queue::{EventPriority, EventQueue};
use crate::rng::{RngStream, StreamId};
use crate::time::{SimDuration, SimTime};

/// Resource budget enforced by the kernel — the deterministic watchdog.
///
/// Both limits are measured in *simulation* quantities (events delivered
/// since t = 0, kernel clock), never host time, so a breach happens at the
/// exact same event on every worker-thread count and in both snapshot/fork
/// and from-scratch execution. The default is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventBudget {
    /// Maximum events the kernel may deliver (counted from t = 0, so a
    /// forked run and a from-scratch run agree — the delivered counter is
    /// part of the snapshot state).
    pub max_delivered: Option<u64>,
    /// Latest kernel-clock timestamp an event may be delivered at.
    pub max_sim_time: Option<SimTime>,
}

impl EventBudget {
    /// No limits (the default).
    pub const UNLIMITED: EventBudget = EventBudget {
        max_delivered: None,
        max_sim_time: None,
    };

    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.max_delivered.is_none() && self.max_sim_time.is_none()
    }
}

/// Which budget dimension was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreachKind {
    /// [`EventBudget::max_delivered`] was reached.
    Delivered,
    /// [`EventBudget::max_sim_time`] was reached.
    SimTime,
}

/// Sticky record of a budget breach.
///
/// A breach is detected lazily: only when a due event *would* exceed the
/// budget does [`Simulator::pop_due`] refuse to deliver it and record the
/// breach. A run that simply finishes under budget never breaches, and the
/// recorded fields are pure simulation state — identical across execution
/// modes and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetBreach {
    /// Exhausted dimension.
    pub kind: BreachKind,
    /// Timestamp of the due event that was refused delivery.
    pub at: SimTime,
    /// Events delivered when the breach was detected.
    pub delivered: u64,
}

/// Discrete-event simulation kernel over event payload type `E`.
///
/// When `E: Clone` the kernel is `Clone`: a clone is a bit-exact snapshot of
/// clock, pending events, and seed, so execution resumed from the clone is
/// indistinguishable from the original continuing (RNG streams are derived
/// statelessly from the seed and are unaffected by snapshotting).
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    seed: u64,
    budget: EventBudget,
    breach: Option<BudgetBreach>,
}

impl<E> Simulator<E> {
    /// Creates a kernel at t = 0 with the given base RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            seed,
            budget: EventBudget::UNLIMITED,
            breach: None,
        }
    }

    /// Installs a resource budget. Replaces any previous budget; does not
    /// clear an already-recorded breach.
    pub fn set_budget(&mut self, budget: EventBudget) {
        self.budget = budget;
    }

    /// The currently installed budget.
    pub fn budget(&self) -> EventBudget {
        self.budget
    }

    /// The recorded budget breach, if one happened.
    pub fn breach(&self) -> Option<BudgetBreach> {
        self.breach
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The base RNG seed this kernel was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the deterministic RNG stream with the given id.
    ///
    /// Equal `(seed, id)` always yields the same sequence; see
    /// [`RngStream::derive`].
    pub fn rng(&self, id: StreamId) -> RngStream {
        RngStream::derive(self.seed, id)
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Simulator::now`]).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule(time, event)
    }

    /// Schedules an event after a relative delay (which must be >= 0).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        assert!(!delay.is_negative(), "negative delay: {delay}");
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules with an explicit same-time delivery priority
    /// (lower delivers first).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_at_with_priority(&mut self, time: SimTime, priority: EventPriority, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.queue.schedule_with_priority(time, priority, event)
    }

    /// Pops the next event due at or before `limit`, advancing the clock to
    /// its timestamp. Returns `None` when no event is due by `limit`
    /// (the clock is then left untouched; call [`Simulator::advance_to`]).
    ///
    /// When a budget is installed and the next due event would exceed it,
    /// the event is *not* delivered: the kernel records a sticky
    /// [`BudgetBreach`] (see [`Simulator::breach`]) and this returns `None`
    /// for the rest of the kernel's life.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.breach.is_some() {
            return None;
        }
        if !self.budget.is_unlimited() {
            let next = self.queue.peek_time()?;
            if next > limit {
                return None;
            }
            let delivered = self.queue.delivered_total();
            let kind = if self
                .budget
                .max_delivered
                .is_some_and(|max| delivered >= max)
            {
                Some(BreachKind::Delivered)
            } else if self.budget.max_sim_time.is_some_and(|max| next > max) {
                Some(BreachKind::SimTime)
            } else {
                None
            };
            if let Some(kind) = kind {
                self.breach = Some(BudgetBreach {
                    kind,
                    at: next,
                    delivered,
                });
                return None;
            }
        }
        let (t, e) = self.queue.pop_at_or_before(limit)?;
        // Sim sanitizer: the kernel clock must never run backwards, and the
        // queue must honour the limit (either would silently desynchronise
        // forked runs from scratch runs).
        debug_assert!(
            t >= self.now,
            "kernel clock would run backwards: event at {t} while now is {}",
            self.now
        );
        debug_assert!(t <= limit, "event at {t} delivered past the limit {limit}");
        self.now = t;
        Some((t, e))
    }

    /// Advances the clock to `time` without processing events.
    ///
    /// Used to land exactly on a phase boundary (e.g. `attackStartTime`)
    /// after draining all events due before it. Does nothing if `time` is in
    /// the past.
    pub fn advance_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.queue.delivered_total()
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Runs the kernel with a handler closure until `limit`, then advances
    /// the clock to `limit`. Returns the number of events processed.
    ///
    /// This is a convenience for self-contained simulations whose state lives
    /// in the closure; composed worlds use [`Simulator::pop_due`] directly.
    pub fn run_until<F>(&mut self, limit: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Simulator<E>, SimTime, E),
    {
        let mut n = 0;
        while let Some((t, e)) = self.pop_due(limit) {
            handler(self, t, e);
            n += 1;
        }
        self.advance_to(limit);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_follows_events() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(0));
        let (t, e) = sim.pop_due(SimTime::from_secs(10)).unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(e, Ev::Tick(0));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn pop_due_stops_at_limit() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        assert!(sim.pop_due(SimTime::from_secs(4)).is_none());
        assert_eq!(sim.now(), SimTime::ZERO, "clock untouched when nothing due");
        assert!(sim.pop_due(SimTime::from_secs(5)).is_some());
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut sim: Simulator<Ev> = Simulator::new(0);
        sim.advance_to(SimTime::from_secs(3));
        sim.advance_to(SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new(0);
        sim.advance_to(SimTime::from_secs(2));
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_panics() {
        let mut sim = Simulator::new(0);
        sim.schedule_in(SimDuration::from_secs(-1), Ev::Tick(0));
    }

    #[test]
    fn run_until_processes_chain_and_lands_on_limit() {
        let mut sim = Simulator::new(0);
        sim.schedule_in(SimDuration::from_millis(100), Ev::Tick(0));
        let mut count = 0u32;
        let n = sim.run_until(SimTime::from_secs(1), |sim, _t, Ev::Tick(k)| {
            count += 1;
            if k < 20 {
                sim.schedule_in(SimDuration::from_millis(100), Ev::Tick(k + 1));
            }
        });
        // Ticks at 0.1..=1.0s => 10 events; tick 10 schedules one at 1.1s (not due).
        assert_eq!(n, 10);
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn rng_streams_are_stable_per_seed() {
        let sim: Simulator<Ev> = Simulator::new(77);
        let mut a = sim.rng(StreamId(3));
        let mut b = sim.rng(StreamId(3));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(sim.seed(), 77);
    }

    #[test]
    fn event_budget_breach_is_sticky_and_survives_clone() {
        let mut sim = Simulator::new(0);
        for k in 0..5 {
            sim.schedule_at(SimTime::from_secs(k + 1), Ev::Tick(k as u32));
        }
        sim.set_budget(EventBudget {
            max_delivered: Some(3),
            max_sim_time: None,
        });
        let mut delivered = 0;
        while sim.pop_due(SimTime::from_secs(10)).is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 3);
        let breach = sim.breach().expect("budget must breach");
        assert_eq!(breach.kind, BreachKind::Delivered);
        assert_eq!(breach.delivered, 3);
        assert_eq!(breach.at, SimTime::from_secs(4));
        // Sticky: further pops return None even though events are pending.
        assert_eq!(sim.pending(), 2);
        assert!(sim.pop_due(SimTime::from_secs(10)).is_none());
        // Clock stayed at the last delivered event.
        assert_eq!(sim.now(), SimTime::from_secs(3));
        // The breach is part of the snapshot state.
        let clone = sim.clone();
        assert_eq!(clone.breach(), sim.breach());
    }

    #[test]
    fn sim_time_budget_refuses_late_events() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.set_budget(EventBudget {
            max_delivered: None,
            max_sim_time: Some(SimTime::from_secs(2)),
        });
        assert!(sim.pop_due(SimTime::from_secs(10)).is_some());
        assert!(sim.pop_due(SimTime::from_secs(10)).is_none());
        let breach = sim.breach().expect("sim-time budget must breach");
        assert_eq!(breach.kind, BreachKind::SimTime);
        assert_eq!(breach.at, SimTime::from_secs(5));
        assert_eq!(breach.delivered, 1);
    }

    #[test]
    fn budget_never_breaches_when_run_finishes_under_it() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        sim.set_budget(EventBudget {
            max_delivered: Some(1),
            max_sim_time: None,
        });
        assert!(sim.pop_due(SimTime::from_secs(10)).is_some());
        // Counter sits exactly at the limit, but no due event remains, so
        // the run completes without a breach.
        assert!(sim.pop_due(SimTime::from_secs(10)).is_none());
        assert_eq!(sim.breach(), None);
    }

    #[test]
    fn budget_ignores_events_beyond_the_pop_limit() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(0));
        sim.set_budget(EventBudget {
            max_delivered: Some(0),
            max_sim_time: None,
        });
        // The only event is past the limit: no delivery attempt, no breach.
        assert!(sim.pop_due(SimTime::from_secs(4)).is_none());
        assert_eq!(sim.breach(), None);
    }

    #[test]
    fn counters() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(1));
        sim.pop_due(SimTime::from_secs(3));
        assert_eq!(sim.scheduled(), 2);
        assert_eq!(sim.delivered(), 1);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(2)));
    }
}
