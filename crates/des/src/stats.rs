//! Statistics collection, modelled on OMNeT++ signals and result recording.
//!
//! Simulations record two kinds of results: **scalars** (summary statistics
//! of a stream of observations, via [`RunningStats`]) and **vectors** (full
//! time series, via [`TimeSeries`]), plus fixed-bucket [`Histogram`]s. The
//! traffic trace and the observability recorder hold them.

use std::fmt;

use comfase_json::{Error as JsonError, Fields, FromJson, Value};

use crate::time::SimTime;

/// Numerically stable running summary statistics (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use comfase_des::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:?} max={:?}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// A recorded `(time, value)` series — an OMNeT++ output vector.
///
/// Samples must be appended in non-decreasing time order. The JSON form
/// is the `{"times": [...], "values": [...]}` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous sample.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.last_time() {
            assert!(
                time >= last,
                "time series must be recorded in order: {time} < {last}"
            );
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Time of the most recent sample, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.times.last().copied()
    }

    /// Value of the most recent sample, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Iterates over the recorded values in time order.
    pub fn iter_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Largest value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.iter_values().reduce(f64::max)
    }

    /// Smallest value, if any.
    pub fn min_value(&self) -> Option<f64> {
        self.iter_values().reduce(f64::min)
    }

    /// Value at or before `time` (sample-and-hold), if any sample exists
    /// at or before it.
    pub fn sample_at(&self, time: SimTime) -> Option<f64> {
        let n = self.times.partition_point(|&t| t <= time);
        n.checked_sub(1).map(|i| self.values[i])
    }

    /// Largest `|v − held|` over this series' samples `(t, v)`, where
    /// `held` is `reference`'s sample-and-hold value at `t` (0 before its
    /// first sample) — the value of `reference.sample_at(t).unwrap_or(0.0)`,
    /// found by one forward walk over both series instead of one search
    /// per sample. 0 for an empty series.
    pub fn max_deviation_from(&self, reference: &TimeSeries) -> f64 {
        let mut j = 0;
        let mut held = 0.0;
        let mut max = 0.0f64;
        for (t, v) in self.iter() {
            while j < reference.times.len() && reference.times[j] <= t {
                held = reference.values[j];
                j += 1;
            }
            max = max.max((v - held).abs());
        }
        max
    }

    /// Restricts to samples within `[from, to]` (inclusive).
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.iter().filter(move |(t, _)| *t >= from && *t <= to)
    }
}

comfase_json::record!(ToJson for TimeSeries { times, values });

impl FromJson for TimeSeries {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut fields = Fields::new(v, "TimeSeries")?;
        let times: Vec<SimTime> = fields.get("times")?;
        let values: Vec<f64> = fields.get("values")?;
        fields.finish()?;
        if times.len() != values.len() {
            return Err(JsonError::new("time series times/values length mismatch"));
        }
        if times.windows(2).any(|w| w[1] < w[0]) {
            return Err(JsonError::new("time series samples out of order"));
        }
        Ok(TimeSeries { times, values })
    }
}

/// A fixed-bin histogram over a closed value range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}
comfase_json::record!(ToJson, FromJson for Histogram { lo, hi, bins, underflow, overflow });

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the range top.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `(low_edge, high_edge)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..33] {
            a.record(x);
        }
        for &x in &xs[33..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn time_series_ordering_and_lookup() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 10.0);
        ts.record(SimTime::from_secs(2), 20.0);
        ts.record(SimTime::from_secs(4), 40.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.sample_at(SimTime::from_secs(3)), Some(20.0));
        assert_eq!(ts.sample_at(SimTime::from_secs(4)), Some(40.0));
        assert_eq!(ts.sample_at(SimTime::from_millis(500)), None);
        assert_eq!(ts.max_value(), Some(40.0));
        assert_eq!(ts.min_value(), Some(10.0));
    }

    /// The per-sample search `max_deviation_from` replaces.
    fn deviation_by_search(run: &TimeSeries, reference: &TimeSeries) -> f64 {
        let mut max = 0.0f64;
        for (t, v) in run.iter() {
            max = max.max((v - reference.sample_at(t).unwrap_or(0.0)).abs());
        }
        max
    }

    /// `len` samples from `start_ns` in steps of 1–8 ns, one step in four
    /// repeating the timestamp. With `special` = 1 (rare) or 2 (often)
    /// values include NaN and ±∞. With `straddle`, samples 1 015..1 035
    /// share one timestamp across index 1 024.
    fn random_series(
        rng: &mut crate::rng::RngStream,
        len: usize,
        start_ns: i64,
        special: u64,
        straddle: bool,
    ) -> TimeSeries {
        let mut times = Vec::with_capacity(len);
        let mut t = start_ns;
        for _ in 0..len {
            times.push(t);
            if rng.below(4) != 0 {
                t += 1 + rng.below(8) as i64;
            }
        }
        if straddle && len > 1_035 {
            let held = times[1_015];
            times[1_015..1_035].fill(held);
        }
        let mut ts = TimeSeries::new();
        for t in times {
            let odds = [0, 500, 10][special as usize];
            let v = match (odds > 0).then(|| rng.below(odds)) {
                Some(0) => f64::NAN,
                Some(1) => f64::INFINITY,
                Some(2) => f64::NEG_INFINITY,
                _ => rng.uniform_range(-40.0, 40.0),
            };
            ts.record(SimTime::from_nanos(t), v);
        }
        ts
    }

    #[test]
    fn max_deviation_walk_matches_the_search_bit_for_bit() {
        let mut rng = crate::rng::RngStream::new(0xC0FF_EE14);
        let edges = [0, 1, 2, 1_023, 1_024, 1_025, 2_047, 2_048, 2_049, 3_000];
        for case in 0..240usize {
            let mut len = || match case {
                0..=99 => edges[(case + rng.below(10) as usize) % edges.len()],
                _ => rng.below(3_001) as usize,
            };
            let (run_len, ref_len) = (len(), len());
            let run_start = 1_000;
            // The reference starts earlier than, with, or later than the run.
            let ref_start = match case % 3 {
                0 => run_start - 1 - rng.below(200) as i64,
                1 => run_start,
                _ => run_start + 1 + rng.below(200) as i64,
            };
            let special = (case / 3 % 3) as u64;
            let straddle = case % 2 == 0;
            let run = random_series(&mut rng, run_len, run_start, special, straddle);
            let reference = random_series(&mut rng, ref_len, ref_start, special, straddle);
            for (a, b) in [(&run, &reference), (&reference, &run), (&run, &run)] {
                assert_eq!(
                    a.max_deviation_from(b).to_bits(),
                    deviation_by_search(a, b).to_bits(),
                    "case {case}: {} vs {} samples",
                    a.len(),
                    b.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be recorded in order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn time_series_window() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.record(SimTime::from_secs(i), i as f64);
        }
        let w: Vec<f64> = ts
            .window(SimTime::from_secs(3), SimTime::from_secs(6))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(w, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 9.99, -1.0, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.bins(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 8);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }
}
