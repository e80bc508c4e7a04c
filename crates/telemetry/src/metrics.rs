//! The metrics registry: counters, gauges, log-bucketed histograms and
//! event-sampled time series, with Prometheus-style text and JSON
//! snapshots.
//!
//! Everything is keyed by name in ordered maps, so every dump is
//! deterministic: the same run produces the same bytes. Histograms are
//! [`shredder_des::stats::Histogram`] — the same nearest-rank quantile
//! semantics the reports use, bucketed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use shredder_des::{Histogram, SimTime, TimeSeries};

use crate::json::Json;

/// A named collection of counters, gauges, histograms and time series.
///
/// # Examples
///
/// ```
/// use shredder_telemetry::MetricsRegistry;
///
/// let mut m = MetricsRegistry::default();
/// m.incr("shredder_requests_total");
/// m.add("shredder_requests_total", 2);
/// m.set_gauge("shredder_queue_depth_max", 7.0);
/// m.observe("shredder_latency_ns", 1_500);
/// assert_eq!(m.counter("shredder_requests_total"), 3);
/// assert!(m.prometheus_text().contains("shredder_requests_total 3"));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl MetricsRegistry {
    /// Adds `n` to a counter, creating it at zero.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(name);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Appends a `(time, value)` sample to a named series. Samples must
    /// arrive in nondecreasing time order (they do, when driven by a
    /// simulation).
    pub fn sample(&mut self, name: &str, at: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.record(at, value);
        } else {
            let mut s = TimeSeries::new(name);
            s.record(at, value);
            self.series.insert(name.to_string(), s);
        }
    }

    /// Current value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// A time series by name, if any sample was recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Prometheus-style text exposition: `# TYPE` lines, counter and
    /// gauge samples, and per-histogram cumulative `_bucket{le=…}`,
    /// `_sum` and `_count` lines. Deterministic: names ascend, buckets
    /// ascend.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (upper, count) in hist.nonzero_buckets() {
                cumulative += count;
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count()));
            out.push_str(&format!("{name}_sum {}\n", hist.sum()));
            out.push_str(&format!("{name}_count {}\n", hist.count()));
        }
        out
    }

    /// JSON snapshot: counters and gauges verbatim, histograms as
    /// `{count, sum, min, max, p50, p95, p99}`, series as `[t, v]`
    /// pairs. Deterministic: names ascend.
    pub fn json(&self) -> String {
        fn section<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
            Json::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        let histogram = |h: &Histogram| {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            Json::object()
                .field("count", h.count())
                .field("sum", h.sum())
                .field("min", h.min().unwrap_or(0))
                .field("max", h.max().unwrap_or(0))
                .field("p50", q(0.50))
                .field("p95", q(0.95))
                .field("p99", q(0.99))
        };
        let series = |s: &TimeSeries| {
            s.points()
                .iter()
                .map(|&(t, v)| Json::Arr(vec![t.as_nanos().into(), v.into()]))
                .collect::<Json>()
        };
        Json::object()
            .field("counters", section(&self.counters, |v| Json::from(*v)))
            .field("gauges", section(&self.gauges, |v| Json::from(*v)))
            .field("histograms", section(&self.histograms, histogram))
            .field("series", section(&self.series, series))
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsRegistry::default();
        assert!(m.is_empty());
        m.incr("c");
        m.add("c", 4);
        m.set_gauge("g", 2.5);
        for v in [10u64, 20, 30] {
            m.observe("h", v);
        }
        m.sample("s", SimTime::from_nanos(5), 1.0);
        m.sample("s", SimTime::from_nanos(9), 2.0);
        assert_eq!(m.counter("c"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.histogram("h").unwrap().count(), 3);
        assert_eq!(m.series("s").unwrap().len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn prometheus_text_is_deterministic_and_cumulative() {
        let mut m = MetricsRegistry::default();
        m.add("b_total", 2);
        m.add("a_total", 1);
        for v in [1u64, 1, 100] {
            m.observe("lat", v);
        }
        let text = m.prometheus_text();
        // Names ascend regardless of insertion order.
        assert!(text.find("a_total").unwrap() < text.find("b_total").unwrap());
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 102\n"));
        assert!(text.contains("lat_count 3\n"));
        assert_eq!(text, m.prometheus_text());
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let mut m = MetricsRegistry::default();
        m.incr("c");
        m.set_gauge("g", 3.0);
        m.observe("h", 42);
        m.sample("s", SimTime::from_nanos(7), 1.5);
        let json = m.json();
        for needle in [
            "\"counters\"",
            "\"c\": 1",
            "\"g\": 3",
            "\"count\": 1",
            "\"p99\": 42",
            "[7, 1.5]",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
