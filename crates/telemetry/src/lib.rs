//! In-simulation tracing and metrics for the Shredder reproduction.
//!
//! Every claim the paper makes is a *timeline* claim — copy-compute
//! overlap, store-to-kernel backpressure, shedding under overload,
//! requeue storms after a device death. This crate makes those
//! timelines observable without perturbing them:
//!
//! * [`TraceRecorder`] — a bounded ring of typed, sim-time-stamped
//!   [`TraceRecord`]s (request lifecycle, device-lane H2D/kernel/D2H,
//!   sink-stage service, fault injections) with seeded monotonic ids.
//! * [`MetricsRegistry`] — counters, gauges, log-bucketed histograms
//!   (`shredder_des::stats::Histogram`) and event-sampled time series,
//!   with Prometheus-style text and JSON snapshots.
//! * [`chrome_trace_json`] / [`validate_chrome_trace`] — Chrome
//!   trace-event export (loadable in Perfetto) and the structural
//!   validator CI runs against every exported trace.
//! * [`Json`] — the one JSON value type: every dump in the workspace
//!   (bench headlines, fault and fleet reports, metrics snapshots,
//!   Chrome traces) is built as a `Json` and printed by its writer, and
//!   every reader (`bench_gate`, the trace validator) goes through
//!   [`Json::parse`].
//! * [`dump_json`] — the one env-var-gated JSON dump path shared by
//!   `SHREDDER_BENCH_JSON`, `SHREDDER_FAULT_JSON`,
//!   `SHREDDER_FLEET_JSON` and `SHREDDER_TRACE_JSON`, with
//!   hard-error-on-write-failure semantics.
//!
//! # The zero-overhead-off contract
//!
//! Telemetry is **off by default** and mirrors `FaultPlan`'s shape: a
//! disabled [`TelemetryConfig`] allocates no recorder, registers no
//! hook, and leaves every report bit-identical to a run whose config
//! never mentioned telemetry. When enabled, recording is passive —
//! timestamps are read from the simulation at instrumented points and
//! no event is ever scheduled by the recorder — so enabling telemetry
//! changes *what is remembered*, never *what happens*: the rest of the
//! `EngineReport` stays bit-identical too (a property test pins this).
//!
//! # Determinism
//!
//! Records are driven by the deterministic event calendar, ids are
//! seeded and monotonic, and every export walks ordered collections —
//! the same run always produces byte-identical trace JSON, Prometheus
//! text and metric snapshots. No wall clock enters this crate
//! (`shredder-lint` rule R6 enforces sim-time-only statically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;

use serde::{Deserialize, Serialize};
use shredder_des::Dur;

pub use export::{chrome_trace_json, dump_json, validate_chrome_trace, TraceCheck};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use recorder::{ArgValue, Args, Lane, LaneEngine, TelemetryConfig, TraceRecord, TraceRecorder};

/// Everything one recorded run produced: the retained trace records,
/// the ring-eviction count, and the metrics registry.
///
/// Carried as `Option<TelemetryReport>` on `EngineReport`: `None` for
/// telemetry-off runs (preserving bit-identity with configs that never
/// mention telemetry), `Some` for recorded runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Retained records, in recording (= simulation) order.
    pub records: Vec<TraceRecord>,
    /// Records evicted by the ring bound.
    pub dropped: u64,
    /// The metrics registry snapshot.
    pub metrics: MetricsRegistry,
}

impl TelemetryReport {
    /// Number of retained span records.
    pub fn spans(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Span { .. }))
            .count()
    }

    /// Number of retained instant records.
    pub fn instants(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Instant { .. }))
            .count()
    }

    /// Renders the retained records as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.records)
    }

    /// Prometheus-style text exposition of the metrics registry.
    pub fn prometheus_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// JSON snapshot of the metrics registry.
    pub fn metrics_json(&self) -> String {
        self.metrics.json()
    }

    /// Per-request end-to-end latencies derived from the trace itself:
    /// `(request id, done − arrival)` for every retained `request`
    /// span, in recording order. The "reports are views" hook — tests
    /// assert these agree exactly with `ServiceReport`'s request rows.
    pub fn request_latencies(&self) -> Vec<(u64, Dur)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span {
                    lane: Lane::Request { id },
                    name: "request",
                    start,
                    end,
                    ..
                } => Some((*id, end.saturating_since(*start))),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shredder_des::SimTime;

    #[test]
    fn report_views_derive_from_records() {
        let mut rec = TraceRecorder::new(&TelemetryConfig::enabled());
        rec.span(
            Lane::Request { id: 2 },
            "request",
            SimTime::from_nanos(100),
            SimTime::from_nanos(350),
            vec![],
        );
        rec.instant(Lane::Control, "shed", SimTime::from_nanos(10), vec![]);
        rec.metrics_mut().incr("shredder_requests_total");
        let report = rec.finish_report();
        assert_eq!(report.spans(), 1);
        assert_eq!(report.instants(), 1);
        assert_eq!(report.request_latencies(), vec![(2, Dur::from_nanos(250))]);
        assert!(report
            .prometheus_text()
            .contains("shredder_requests_total 1"));
        assert!(validate_chrome_trace(&report.to_chrome_json()).is_ok());
        assert_ne!(report, TelemetryReport::default());
    }
}
