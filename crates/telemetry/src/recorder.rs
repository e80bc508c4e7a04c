//! The trace recorder: a bounded ring of typed, sim-time-stamped
//! records.
//!
//! Recording is *passive*: the recorder schedules no events, takes no
//! locks and reads no clock of its own — every timestamp is handed in
//! by the simulation at the moment the instrumented event fires, so a
//! recorded run is bit-identical to an unrecorded one. Records carry
//! monotonic ids seeded from [`TelemetryConfig::seed`], making two
//! traces of the same run comparable id-for-id.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use shredder_des::SimTime;

use crate::metrics::MetricsRegistry;

/// Configuration for the telemetry subsystem.
///
/// The default is **off**: no recorder is allocated, no record is
/// taken, and an instrumented run is bit-identical to one built from a
/// config that never mentions telemetry (the same zero-overhead
/// contract an empty `FaultPlan` honors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. `false` (the default) allocates nothing.
    pub enabled: bool,
    /// Ring-buffer bound: the maximum number of records retained.
    /// Older records are evicted whole (a span never loses only its
    /// end), and evictions are counted in
    /// [`TelemetryReport::dropped`](crate::TelemetryReport).
    pub capacity: usize,
    /// Base for the monotonic record ids. Two runs with the same seed
    /// produce identical id sequences.
    pub seed: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            capacity: 1 << 16,
            seed: 1,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry switched on with default capacity and seed.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// Telemetry explicitly off (the default).
    pub fn disabled() -> Self {
        TelemetryConfig::default()
    }

    /// Sets the ring-buffer capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the id seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration: an enabled recorder needs a
    /// non-zero ring capacity.
    pub fn check(&self) -> Result<(), String> {
        if self.enabled && self.capacity == 0 {
            return Err("telemetry is enabled with a zero-capacity ring buffer".to_string());
        }
        Ok(())
    }
}

/// Which engine of a pooled device a lane belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LaneEngine {
    /// Host-to-device DMA.
    H2d,
    /// Compute (the chunking kernel).
    Kernel,
    /// Device-to-host DMA.
    D2h,
}

impl LaneEngine {
    /// Short lowercase label (`h2d`, `kernel`, `d2h`).
    pub fn label(&self) -> &'static str {
        match self {
            LaneEngine::H2d => "h2d",
            LaneEngine::Kernel => "kernel",
            LaneEngine::D2h => "d2h",
        }
    }
}

/// The track a record renders on. Lanes map to Chrome trace
/// process/thread pairs; spans on one lane must nest (never partially
/// overlap), which each lane's source guarantees structurally: a
/// request lane orders its own lifecycle, a device-engine lane is an
/// in-order stream, a stage lane is a FIFO server's service order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Lane {
    /// One lane per request/session, keyed by session id.
    Request {
        /// Session (request) id.
        id: u64,
    },
    /// One lane per (device, engine) pair.
    Device {
        /// Pool index of the device.
        device: u64,
        /// Which of the device's three engines.
        engine: LaneEngine,
    },
    /// One lane per named sink stage.
    Stage {
        /// Engine-global stage name.
        name: String,
    },
    /// Control-plane lane: admission sheds, fault injections,
    /// requeues.
    Control,
    /// One lane per cluster node: inter-node traffic (replication
    /// shipments, rebalance handoffs, repair copies) and membership
    /// instants. A node's NIC is a FIFO link, so its spans are a
    /// serial, naturally nesting stream.
    Node {
        /// Fleet index of the node.
        node: u64,
    },
}

/// A label attached to a record's `args`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (written in round-trip form; non-finite as `null`).
    F64(f64),
    /// A string label.
    Text(String),
}

/// Argument list: insertion-ordered key/value labels.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One recorded trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A closed interval on a lane.
    Span {
        /// Monotonic record id.
        id: u64,
        /// The track this span renders on.
        lane: Lane,
        /// Span name (the Chrome event `name`).
        name: &'static str,
        /// Interval start, in sim time.
        start: SimTime,
        /// Interval end, in sim time (`end >= start`).
        end: SimTime,
        /// Labels (tenant/session/device/stage ids, byte counts, …).
        args: Args,
    },
    /// A point event on a lane.
    Instant {
        /// Monotonic record id.
        id: u64,
        /// The track this instant renders on.
        lane: Lane,
        /// Event name.
        name: &'static str,
        /// When it happened, in sim time.
        at: SimTime,
        /// Labels.
        args: Args,
    },
}

impl TraceRecord {
    /// The record's monotonic id.
    pub fn id(&self) -> u64 {
        match self {
            TraceRecord::Span { id, .. } | TraceRecord::Instant { id, .. } => *id,
        }
    }

    /// The record's lane.
    pub fn lane(&self) -> &Lane {
        match self {
            TraceRecord::Span { lane, .. } | TraceRecord::Instant { lane, .. } => lane,
        }
    }

    /// The record's name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceRecord::Span { name, .. } | TraceRecord::Instant { name, .. } => name,
        }
    }
}

/// The in-simulation trace recorder: a bounded ring of
/// [`TraceRecord`]s plus a [`MetricsRegistry`].
///
/// # Examples
///
/// ```
/// use shredder_des::SimTime;
/// use shredder_telemetry::{Lane, TelemetryConfig, TraceRecorder};
///
/// let mut rec = TraceRecorder::new(&TelemetryConfig::enabled());
/// rec.span(
///     Lane::Request { id: 0 },
///     "request",
///     SimTime::from_nanos(10),
///     SimTime::from_nanos(90),
///     vec![],
/// );
/// let report = rec.finish_report();
/// assert_eq!(report.spans(), 1);
/// assert_eq!(report.dropped, 0);
/// ```
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    next_id: u64,
    records: VecDeque<TraceRecord>,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl TraceRecorder {
    /// Creates a recorder from a config. The config's `enabled` flag is
    /// the *caller's* gate — constructing a recorder always allocates;
    /// a disabled config should never reach this constructor.
    pub fn new(config: &TelemetryConfig) -> Self {
        TraceRecorder {
            capacity: config.capacity.max(1),
            next_id: config.seed,
            records: VecDeque::new(),
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a closed `[start, end]` span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    pub fn span(
        &mut self,
        lane: Lane,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: Args,
    ) {
        debug_assert!(start <= end, "span {name} ends before it starts");
        let id = self.take_id();
        self.push(TraceRecord::Span {
            id,
            lane,
            name,
            start,
            end,
            args,
        });
    }

    /// Records a point event.
    pub fn instant(&mut self, lane: Lane, name: &'static str, at: SimTime, args: Args) {
        let id = self.take_id();
        self.push(TraceRecord::Instant {
            id,
            lane,
            name,
            at,
            args,
        });
    }

    /// The metrics registry riding along with the trace.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Records retained so far (read-only view).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the recorder into a [`crate::TelemetryReport`], leaving it
    /// empty. Called once, at the end of a simulation.
    pub fn finish_report(&mut self) -> crate::TelemetryReport {
        crate::TelemetryReport {
            records: std::mem::take(&mut self.records).into(),
            dropped: self.dropped,
            metrics: std::mem::take(&mut self.metrics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn default_config_is_off_and_validates() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.check().is_ok());
        assert!(TelemetryConfig::enabled().enabled);
        assert!(TelemetryConfig::enabled().with_capacity(0).check().is_err());
        assert_eq!(TelemetryConfig::disabled(), TelemetryConfig::default());
    }

    #[test]
    fn ids_are_seeded_and_monotonic() {
        let cfg = TelemetryConfig::enabled().with_seed(100);
        let mut rec = TraceRecorder::new(&cfg);
        rec.instant(Lane::Control, "a", t(1), vec![]);
        rec.span(Lane::Control, "b", t(1), t(2), vec![]);
        let ids: Vec<u64> = rec.records().map(|r| r.id()).collect();
        assert_eq!(ids, vec![100, 101]);
    }

    #[test]
    fn ring_evicts_whole_records_and_counts_drops() {
        let cfg = TelemetryConfig::enabled().with_capacity(2);
        let mut rec = TraceRecorder::new(&cfg);
        for i in 0..5u64 {
            rec.instant(Lane::Request { id: i }, "e", t(i), vec![]);
        }
        assert_eq!(rec.dropped(), 3);
        let report = rec.finish_report();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.dropped, 3);
        // Oldest evicted first: the survivors are the last two.
        assert_eq!(report.records[0].lane(), &Lane::Request { id: 3 });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ends before it starts")]
    fn backwards_span_panics_in_debug() {
        let mut rec = TraceRecorder::new(&TelemetryConfig::enabled());
        rec.span(Lane::Control, "bad", t(5), t(1), vec![]);
    }
}
