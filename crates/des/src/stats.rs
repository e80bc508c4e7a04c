//! Measurement utilities: time series, histograms and the one
//! nearest-rank percentile implementation.
//!
//! The experiment harness records per-stage timings and throughput
//! series with these types; they are intentionally simple and
//! serializable so bench targets can print paper-style rows. The
//! percentile helper lives here — at the bottom of the dependency
//! graph — so every consumer (`ClassLatency`, `capacity_search`, the
//! telemetry metrics registry) shares a single definition of "p99".

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Nearest-rank percentile over an ascending-sorted slice.
///
/// Returns `None` for an empty slice. `q` is a fraction in `[0, 1]`;
/// the nearest rank is `ceil(q * len)` clamped to `[1, len]`, so
/// `q = 0.5` over `[1, 2, 3, 4]` picks the 2nd element and `q = 1.0`
/// always picks the maximum.
///
/// # Examples
///
/// ```
/// use shredder_des::stats::nearest_rank;
///
/// let sorted = [10u64, 20, 30, 40];
/// assert_eq!(nearest_rank(&sorted, 0.5), Some(20));
/// assert_eq!(nearest_rank(&sorted, 0.99), Some(40));
/// assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
/// ```
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A (time, value) series sampled during a simulation.
///
/// # Examples
///
/// ```
/// use shredder_des::{SimTime, TimeSeries};
///
/// let mut ts = TimeSeries::new("queue-depth");
/// ts.record(SimTime::from_nanos(10), 1.0);
/// ts.record(SimTime::from_nanos(20), 3.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if samples go backwards in time.
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series must be recorded in order"
        );
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Largest sample value.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                Some(a) if a >= v => a,
                _ => v,
            })
        })
    }

    /// Arithmetic mean of sample values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Sub-bucket resolution bits: 32 linear sub-buckets per power of two,
/// bounding the relative quantization error of a bucket representative
/// to about 1.6% (half of 1/32).
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` samples (HDR-style).
///
/// Values below 32 land in exact unit buckets; larger values share a
/// power-of-two range split into 32 linear sub-buckets, so any sample
/// is representable with ≤ ~3.1% relative bucket width. Recording is
/// O(1) and allocation-free once the bucket table has grown to cover
/// the largest seen value; quantiles are nearest-rank over bucket
/// midpoints, with the exact minimum and maximum returned at the
/// extremes.
///
/// # Examples
///
/// ```
/// use shredder_des::stats::Histogram;
///
/// let mut h = Histogram::new("latency_ns");
/// for v in [100u64, 200, 300, 400, 500] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(1.0), Some(500)); // exact max
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 as f64 - 300.0).abs() / 300.0 < 0.04);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    name: String,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a value: exact below `SUB_COUNT`, log2 group with
/// linear sub-buckets above. The mapping is continuous: values in
/// `[32, 64)` land on index `v` exactly, like the unit range.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let group = (top - SUB_BITS + 1) as usize;
    let sub = ((v >> (top - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    group * SUB_COUNT as usize + sub
}

/// Inclusive `(lower, upper)` value range covered by a bucket index.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < (2 * SUB_COUNT) as usize {
        return (index as u64, index as u64);
    }
    let group = index as u64 / SUB_COUNT;
    let sub = index as u64 % SUB_COUNT;
    let width = 1u64 << (group - 1);
    let lower = (SUB_COUNT + sub) << (group - 1);
    (lower, lower + (width - 1))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile over the bucketed samples.
    ///
    /// Matches [`nearest_rank`] over the raw sorted samples to within
    /// half a bucket width (≤ ~1.6% relative error); the extreme ranks
    /// return the exact tracked `min`/`max`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_range(idx);
                return Some((lo + (hi.min(self.max)).max(lo)) / 2);
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, in
    /// ascending value order — the shape a Prometheus-style exposition
    /// needs (cumulate while iterating).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_range(idx).1, n))
            .collect()
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let mut ts = TimeSeries::new("s");
        assert!(ts.is_empty());
        assert_eq!(ts.max(), None);
        assert_eq!(ts.mean(), None);
        ts.record(SimTime::from_nanos(1), 2.0);
        ts.record(SimTime::from_nanos(2), 6.0);
        ts.record(SimTime::from_nanos(3), 4.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max(), Some(6.0));
        assert_eq!(ts.mean(), Some(4.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recorded in order")]
    fn out_of_order_record_panics_in_debug() {
        let mut ts = TimeSeries::new("s");
        ts.record(SimTime::from_nanos(5), 1.0);
        ts.record(SimTime::from_nanos(4), 1.0);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let l: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&l, 0.50), Some(50));
        assert_eq!(nearest_rank(&l, 0.99), Some(99));
        assert_eq!(nearest_rank(&l, 1.0), Some(100));
        assert_eq!(nearest_rank(&l, 0.0), Some(1));
        assert_eq!(nearest_rank::<u64>(&[], 0.99), None);
        assert_eq!(nearest_rank(&[7u64], 0.5), Some(7));
    }

    #[test]
    fn bucket_index_is_monotone_and_range_consistent() {
        let mut last = 0usize;
        for v in (0..4096u64)
            .chain((0..40).map(|s| 1u64 << s))
            .chain([u64::MAX])
        {
            let idx = bucket_index(v);
            assert!(idx >= last || v < 4096, "index must not regress");
            let (lo, hi) = bucket_range(idx);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
            if v >= 4096 {
                last = idx;
            }
        }
        // Small values are exact.
        for v in 0..64u64 {
            assert_eq!(bucket_range(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles() {
        let mut h = Histogram::new("h");
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        let samples: Vec<u64> = (0..1000u64).map(|i| 1_000 + i * 977).collect();
        for &s in &samples {
            h.observe(s);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1_000));
        assert_eq!(h.max(), Some(1_000 + 999 * 977));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = nearest_rank(&sorted, q).unwrap() as f64;
            let approx = h.quantile(q).unwrap() as f64;
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "q={q}: histogram {approx} vs exact {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), h.max());
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 1000);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
