//! Property tests for the DES kernel.
//!
//! Every property runs `CASES` fixed cases: case `case` draws its inputs
//! from `RngStream::derive(SEED, StreamId(case))`, and a failure message
//! names the case and its inputs.

use std::ops::Range;

use comfase_des::queue::EventQueue;
use comfase_des::rng::{RngStream, StreamId};
use comfase_des::sim::Simulator;
use comfase_des::stats::{RunningStats, TimeSeries};
use comfase_des::time::{SimDuration, SimTime};

const SEED: u64 = 42;
const CASES: u64 = 256;

/// A uniform integer in `range`.
fn int(g: &mut RngStream, range: Range<i64>) -> i64 {
    range.start + g.below(range.start.abs_diff(range.end)) as i64
}

/// A uniform length in `range`.
fn len(g: &mut RngStream, range: Range<usize>) -> usize {
    range.start + g.below((range.end - range.start) as u64) as usize
}

/// Drives a self-feeding simulation (each event with value `v > 0` spawns a
/// follow-up at a deterministic offset) until `limit`, recording every
/// delivery.
fn run_feedback_sim(sim: &mut Simulator<u32>, log: &mut Vec<(i64, u32)>, limit: SimTime) {
    sim.run_until(limit, |sim, t, v| {
        log.push((t.as_nanos(), v));
        if v > 0 {
            sim.schedule_in(SimDuration::from_nanos(1 + i64::from(v) * 37), v - 1);
        }
    });
}

/// Popping the queue always yields events in non-decreasing time order,
/// whatever order they were scheduled in.
#[test]
fn queue_pops_in_time_order() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let times: Vec<i64> = (0..len(&mut g, 1..200))
            .map(|_| int(&mut g, 0..1_000_000))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::from_nanos(i64::MIN);
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "case {case}: {t} after {last} for {times:?}");
            last = t;
            seen += 1;
        }
        assert_eq!(seen, times.len(), "case {case}: {times:?}");
    }
}

/// Same-time events are delivered in insertion order regardless of how
/// many share the timestamp.
#[test]
fn queue_is_stable_for_ties() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let groups: Vec<i64> = (0..len(&mut g, 1..100))
            .map(|_| int(&mut g, 0..10))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in groups.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut per_time_last: std::collections::HashMap<i64, usize> = Default::default();
        while let Some((t, i)) = q.pop() {
            if let Some(&prev) = per_time_last.get(&t.as_nanos()) {
                assert!(
                    i > prev,
                    "case {case}: insertion order violated at {t} for {groups:?}"
                );
            }
            per_time_last.insert(t.as_nanos(), i);
        }
    }
}

/// Snapshotting the kernel at an arbitrary point and resuming the clone
/// reproduces the uninterrupted execution exactly: same deliveries in
/// the same order, same clock, same counters.
#[test]
fn kernel_snapshot_resume_equals_uninterrupted() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let seeds: Vec<(i64, u32)> = (0..len(&mut g, 1..100))
            .map(|_| (int(&mut g, 0..1_000_000), g.below(8) as u32))
            .collect();
        let cut = int(&mut g, 0..1_000_000);
        let horizon = SimTime::from_nanos(1_000_010);
        let build = || {
            let mut sim = Simulator::new(42);
            for &(t, v) in &seeds {
                sim.schedule_at(SimTime::from_nanos(t), v);
            }
            sim
        };

        // Uninterrupted reference run.
        let mut reference = build();
        let mut reference_log = Vec::new();
        run_feedback_sim(&mut reference, &mut reference_log, horizon);

        // Run to the cut point, snapshot, drop the original, resume the
        // clone to the horizon.
        let mut original = build();
        let mut resumed_log = Vec::new();
        run_feedback_sim(&mut original, &mut resumed_log, SimTime::from_nanos(cut));
        let mut resumed = original.clone();
        drop(original);
        run_feedback_sim(&mut resumed, &mut resumed_log, horizon);

        let inputs = format!("case {case}: cut {cut} of {seeds:?}");
        assert_eq!(resumed_log, reference_log, "{inputs}");
        assert_eq!(resumed.now(), reference.now(), "{inputs}");
        assert_eq!(resumed.pending(), reference.pending(), "{inputs}");
        assert_eq!(resumed.scheduled(), reference.scheduled(), "{inputs}");
        assert_eq!(resumed.delivered(), reference.delivered(), "{inputs}");
    }
}

/// SimTime float round-trip is within 0.5 ns of the fixed-point value.
#[test]
fn simtime_float_roundtrip() {
    // A past failure, kept as case 0: its round-trip error (5.24e-10 s)
    // passes only through the ulp term of the tolerance.
    const PERSISTED: f64 = -321_913.038_502_514_5;
    for case in 0..=CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let secs = if case == 0 {
            PERSISTED
        } else {
            g.uniform_range(-1.0e6, 1.0e6)
        };
        let t = SimTime::from_secs_f64(secs);
        let back = t.as_secs_f64();
        // Half a nanosecond of quantisation plus the f64 ulp at this magnitude.
        let tol = 0.5e-9 + secs.abs() * 4.0 * f64::EPSILON;
        assert!((back - secs).abs() <= tol, "case {case}: {secs} -> {back}");
    }
}

/// Instant/duration arithmetic is consistent: (a + d) - a == d.
#[test]
fn simtime_arith_roundtrip() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let a = int(&mut g, -1_000_000_000..1_000_000_000);
        let d = int(&mut g, -1_000_000_000..1_000_000_000);
        let ta = SimTime::from_nanos(a);
        let dd = SimDuration::from_nanos(d);
        assert_eq!((ta + dd) - ta, dd, "case {case}: a {a} d {d}");
        assert_eq!(ta + dd - dd, ta, "case {case}: a {a} d {d}");
    }
}

/// Welford merge equals sequential accumulation for arbitrary splits.
#[test]
fn stats_merge_equals_sequential() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let xs: Vec<f64> = (0..len(&mut g, 2..200))
            .map(|_| g.uniform_range(-1.0e3, 1.0e3))
            .collect();
        let split = ((xs.len() as f64) * g.uniform()) as usize;
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        let inputs = format!("case {case}: split {split} of {xs:?}");
        assert_eq!(a.count(), whole.count(), "{inputs}");
        assert!((a.mean() - whole.mean()).abs() < 1e-6, "{inputs}");
        assert!((a.variance() - whole.variance()).abs() < 1e-4, "{inputs}");
    }
}

/// Derived RNG streams with distinct ids produce distinct sequences.
#[test]
fn rng_streams_distinct() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let seed = g.next_u64();
        let id1 = g.below(1000);
        // Any of the other 999 ids.
        let id2 = (id1 + 1 + g.below(999)) % 1000;
        let mut a = RngStream::derive(seed, StreamId(id1));
        let mut b = RngStream::derive(seed, StreamId(id2));
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            equal <= 1,
            "case {case}: streams {id1} and {id2} of seed {seed} nearly identical"
        );
    }
}

/// uniform_range stays within bounds.
#[test]
fn rng_uniform_range_in_bounds() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let seed = g.next_u64();
        let lo = g.uniform_range(-100.0, 100.0);
        let hi = lo + g.uniform_range(0.001, 100.0);
        let mut r = RngStream::new(seed);
        for _ in 0..100 {
            let x = r.uniform_range(lo, hi);
            assert!(
                x >= lo && x < hi,
                "case {case}: {x} outside [{lo}, {hi}) for seed {seed}"
            );
        }
    }
}

/// below(n) stays within [0, n).
#[test]
fn rng_below_in_bounds() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let seed = g.next_u64();
        let n = 1 + g.below(999_999);
        let mut r = RngStream::new(seed);
        for _ in 0..64 {
            let x = r.below(n);
            assert!(x < n, "case {case}: below({n}) gave {x} for seed {seed}");
        }
    }
}

/// TimeSeries sample-and-hold returns the last sample at or before t.
#[test]
fn timeseries_sample_and_hold() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let mut pts: Vec<(i64, f64)> = (0..len(&mut g, 1..100))
            .map(|_| (int(&mut g, 0..10_000), g.uniform_range(-100.0, 100.0)))
            .collect();
        let probe = int(&mut g, 0..10_000);
        pts.sort_by_key(|(t, _)| *t);
        pts.dedup_by_key(|(t, _)| *t);
        let mut ts = TimeSeries::new();
        for &(t, v) in &pts {
            ts.record(SimTime::from_nanos(t), v);
        }
        let expect = pts.iter().rev().find(|(t, _)| *t <= probe).map(|&(_, v)| v);
        assert_eq!(
            ts.sample_at(SimTime::from_nanos(probe)),
            expect,
            "case {case}: probe {probe} of {pts:?}"
        );
    }
}
