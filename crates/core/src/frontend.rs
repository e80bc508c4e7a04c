//! The request side of the engine: what a caller submits, and how to
//! find the load it sustains.
//!
//! A [`ChunkRequest`] is one stream to chunk: an in-memory source, an
//! optional downstream sink, a name, a tenant class, an admission
//! weight and an optional device pin. The engine scans the source's
//! bytes in place and hands the sink those same bytes, so a request
//! costs no host copy of its stream. Requests are submitted to a
//! [`ShredderEngine`](crate::ShredderEngine) and *arrive* inside its
//! discrete-event simulation according to the
//! [`Workload`](crate::Workload) passed to
//! [`run`](crate::ShredderEngine::run): all at `t = 0`
//! ([`Workload::Batch`](crate::Workload::Batch)), open-loop Poisson at a target rate,
//! closed-loop with N clients and think time, or trace replay.
//! Arrivals flow through the engine's admission queue
//! ([`AdmissionControl`](crate::AdmissionControl)): unbounded by
//! default, or FIFO, per-tenant fair share or weighted share across
//! [`TenantClass`](crate::TenantClass)es with load shedding — a request
//! that finds the queue full, or waits past the configured delay bound,
//! is rejected with [`ChunkError::Overloaded`] and touches no sink
//! state. Every run's [`EngineReport`](crate::EngineReport) carries a
//! [`ServiceReport`]: offered vs. achieved req/s and GB/s, the
//! queue-depth timeline, and latency p50/p95/p99/max per tenant class.
//!
//! [`capacity_search`] bisects the Poisson rate for the highest
//! sustained load that still meets a p99 latency SLO.
//!
//! # Examples
//!
//! An open-loop Poisson run with a p99 readout:
//!
//! ```
//! use shredder_core::{
//!     AdmissionControl, ChunkRequest, MemorySource, ShredderConfig, ShredderEngine, Workload,
//! };
//!
//! let mut engine = ShredderEngine::new(
//!     ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10),
//! )
//! .with_admission(AdmissionControl::default());
//! for t in 0..8u64 {
//!     engine.submit(ChunkRequest::new(MemorySource::pseudo_random(256 << 10, t)));
//! }
//! let outcome = engine.run(&Workload::poisson(2_000.0, 42)).unwrap();
//! println!("p99 latency: {:.2} ms", outcome.report.service.p99().as_millis_f64());
//! assert_eq!(outcome.report.service.completed, 8);
//! ```

use shredder_des::Dur;

use crate::error::ChunkError;
use crate::report::ServiceReport;
use crate::sink::ChunkSink;
use crate::source::StreamSource;

/// One chunking request: an in-memory stream source plus an optional
/// downstream sink, a tenant identity and an optional device pin.
pub struct ChunkRequest<'a> {
    pub(crate) name: Option<String>,
    pub(crate) class: Option<String>,
    pub(crate) weight: u32,
    pub(crate) pin: Option<usize>,
    pub(crate) source: Box<dyn StreamSource + 'a>,
    pub(crate) sink: Option<Box<dyn ChunkSink + 'a>>,
}

impl<'a> ChunkRequest<'a> {
    /// A request for `source` in the default tenant class, weight 1,
    /// unpinned, without a sink.
    pub fn new(source: impl StreamSource + 'a) -> Self {
        ChunkRequest {
            name: None,
            class: None,
            weight: 1,
            pin: None,
            source: Box::new(source),
            sink: None,
        }
    }

    /// Names the request (reports show the name; default:
    /// `session-<n>`, its [`SessionId`](crate::SessionId)).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Joins a tenant class (must be defined on the engine via
    /// [`ShredderEngine::define_class`](crate::ShredderEngine::define_class)
    /// before [`run`](crate::ShredderEngine::run)).
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Sets the buffer-level admission weight (only meaningful under
    /// the engine's [`AdmissionPolicy::Weighted`](crate::AdmissionPolicy)).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Pins the request to one pool device: its buffers run on
    /// `device` regardless of the
    /// [`PlacementPolicy`](crate::PlacementPolicy). The pin is
    /// validated against the pool size at
    /// [`run`](crate::ShredderEngine::run).
    pub fn pinned(mut self, device: usize) -> Self {
        self.pin = Some(device);
        self
    }

    /// Attaches a downstream sink: its stages run inside the shared
    /// simulation once the request is dispatched, and the request's
    /// admission slots are held until its buffers clear the *last*
    /// stage — a slow sink backpressures the kernel FIFO. Pass
    /// `&mut sink` to keep ownership and read the functional results
    /// after the run (drop the engine first to release the borrow). A
    /// shed request's sink is never touched.
    pub fn with_sink(mut self, sink: impl ChunkSink + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }
}

impl std::fmt::Debug for ChunkRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkRequest")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("weight", &self.weight)
            .field("pin", &self.pin)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

/// One probe of a [`capacity_search`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityTrial {
    /// Offered Poisson rate probed, req/s.
    pub rate_rps: f64,
    /// Overall p99 latency at that rate.
    pub p99: Dur,
    /// Requests shed at that rate.
    pub shed: usize,
    /// Whether the rate met the SLO (no shedding and p99 within
    /// bound).
    pub meets_slo: bool,
}

/// The result of a [`capacity_search`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityReport {
    /// Highest probed rate that met the SLO (0 if even the lower bound
    /// failed).
    pub sustained_rps: f64,
    /// p99 latency at the sustained rate (`None` if nothing passed).
    pub p99_at_sustained: Option<Dur>,
    /// Every probe, in probe order.
    pub trials: Vec<CapacityTrial>,
}

/// Bisects the open-loop Poisson rate for the highest sustained load
/// meeting a p99 latency SLO.
///
/// `run_at` runs one service trial at the given offered rate and
/// returns its [`ServiceReport`] — typically by building a fresh
/// [`ShredderEngine`](crate::ShredderEngine) with the same requests and
/// calling [`run`](crate::ShredderEngine::run) with
/// `Workload::poisson(rate, seed)`.
/// A rate *meets the SLO* when the trial shed nothing and its overall
/// p99 latency is at most `p99_slo`.
///
/// The search probes `lo` first (if it fails, the sustained rate is 0)
/// and `hi` (if it passes, the answer is `hi`), then bisects for
/// `iters` rounds. The simulation is deterministic, so the result is
/// too.
///
/// The same search re-derives capacity under *degraded* hardware:
/// build the trial configs with a [`FaultPlan`](crate::FaultPlan)
/// (e.g. a device death at `t = 0` for a brownout) and the report
/// shows the pool's new sustained operating point — the acceptance
/// suite gates that a half-dead pool sustains measurably less with
/// p99 still inside the SLO, and `docs/RUNBOOK.md` covers reading the
/// results operationally.
///
/// # Errors
///
/// Propagates the first error `run_at` returns.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not finite and positive or `lo > hi`.
pub fn capacity_search<F>(
    p99_slo: Dur,
    lo: f64,
    hi: f64,
    iters: usize,
    mut run_at: F,
) -> Result<CapacityReport, ChunkError>
where
    F: FnMut(f64) -> Result<ServiceReport, ChunkError>,
{
    assert!(
        lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi,
        "capacity search needs 0 < lo <= hi, got [{lo}, {hi}]"
    );
    let mut trials = Vec::new();
    let mut probe = |rate: f64, trials: &mut Vec<CapacityTrial>| -> Result<bool, ChunkError> {
        let report = run_at(rate)?;
        let p99 = report.p99();
        let meets = report.shed == 0 && p99 <= p99_slo;
        trials.push(CapacityTrial {
            rate_rps: rate,
            p99,
            shed: report.shed,
            meets_slo: meets,
        });
        Ok(meets)
    };

    if !probe(lo, &mut trials)? {
        return Ok(CapacityReport {
            sustained_rps: 0.0,
            p99_at_sustained: None,
            trials,
        });
    }
    let (mut best, mut best_p99) = (lo, trials.last().map(|t| t.p99));
    if probe(hi, &mut trials)? {
        return Ok(CapacityReport {
            sustained_rps: hi,
            p99_at_sustained: trials.last().map(|t| t.p99),
            trials,
        });
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        if probe(mid, &mut trials)? {
            best = mid;
            best_p99 = trials.last().map(|t| t.p99);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(CapacityReport {
        sustained_rps: best,
        p99_at_sustained: best_p99,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShredderConfig;
    use crate::engine::ShredderEngine;
    use crate::source::MemorySource;
    use crate::workload::{AdmissionControl, TenantClass, Workload};

    fn small_config() -> ShredderConfig {
        ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10)
    }

    #[test]
    fn batch_service_run_completes_everything() {
        let mut engine =
            ShredderEngine::new(small_config()).with_admission(AdmissionControl::default());
        for t in 0..4u64 {
            engine.submit(ChunkRequest::new(MemorySource::pseudo_random(100_000, t)));
        }
        let out = engine.run(&Workload::Batch).unwrap();
        assert_eq!(out.sessions.len(), 4);
        assert!(out.sessions.iter().all(Result::is_ok));
        let svc = &out.report.service;
        assert_eq!(svc.completed, 4);
        assert_eq!(svc.shed, 0);
        assert!(svc.achieved_gbps > 0.0);
        // Batch arrivals: offered is measured over the makespan.
        assert!(svc.offered_rps > 0.0);
        assert_eq!(out.completed().count(), 4);
    }

    #[test]
    fn window_zero_service_run_is_invalid_config() {
        let mut params = shredder_rabin::ChunkParams::paper();
        params.window = 0;
        let mut engine = ShredderEngine::new(small_config().with_params(params))
            .with_admission(AdmissionControl::default());
        engine.submit(ChunkRequest::new(MemorySource::pseudo_random(10_000, 1)));
        match engine.run(&Workload::poisson(100.0, 1)) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(
            engine.session_count(),
            1,
            "a rejected run keeps its requests"
        );
    }

    #[test]
    fn undefined_class_is_rejected() {
        let mut engine = ShredderEngine::new(small_config());
        engine.submit(
            ChunkRequest::new(MemorySource::pseudo_random(10_000, 1)).with_class("missing"),
        );
        match engine.run(&Workload::Batch) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Defining the class makes the kept request runnable.
        engine.define_class(TenantClass::new("missing"));
        assert_eq!(engine.run(&Workload::Batch).unwrap().completed().count(), 1);
    }

    #[test]
    fn request_names_and_ids_round_trip() {
        let mut engine = ShredderEngine::new(small_config());
        let a =
            engine.submit(ChunkRequest::new(MemorySource::pseudo_random(50_000, 1)).named("alpha"));
        let b = engine.submit(ChunkRequest::new(MemorySource::pseudo_random(50_000, 2)));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(engine.session_count(), 2);
        let out = engine.run(&Workload::Batch).unwrap();
        let names: Vec<&str> = out.completed().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "session-1"]);
        assert_eq!(out.report.service.requests[1].name, "session-1");
        assert_eq!(engine.session_count(), 0, "run consumes requests");
    }

    #[test]
    fn capacity_search_is_monotone_on_a_synthetic_knee() {
        // A fake service that starts shedding past 100 req/s (an empty
        // report's p99 is 0, so the SLO verdict here rides on shed).
        let report_at = |rate: f64| -> ServiceReport {
            ServiceReport {
                requests: Vec::new(),
                offered_rps: rate,
                achieved_rps: rate.min(100.0),
                offered_gbps: 0.0,
                achieved_gbps: 0.0,
                completed: 10,
                shed: 0,
                queue_depth: shredder_des::TimeSeries::new("q"),
                max_queue_depth: 0,
                classes: Vec::new(),
            }
        };
        let search = capacity_search(Dur::from_millis(50), 10.0, 400.0, 8, |rate| {
            let mut r = report_at(rate);
            if rate > 100.0 {
                r.shed = 3;
            }
            Ok(r)
        })
        .unwrap();
        assert!(
            (search.sustained_rps - 100.0).abs() < 5.0,
            "knee at ~100, got {}",
            search.sustained_rps
        );
        assert!(search.trials.len() >= 4);
        // Below the knee everything passes, above nothing does.
        for t in &search.trials {
            assert_eq!(t.meets_slo, t.rate_rps <= 100.0, "{t:?}");
        }
    }

    #[test]
    fn capacity_search_degenerate_bounds() {
        // Even lo fails → sustained 0.
        let r = capacity_search(Dur::from_millis(1), 5.0, 10.0, 4, |_| {
            Ok(ServiceReport {
                requests: Vec::new(),
                offered_rps: 0.0,
                achieved_rps: 0.0,
                offered_gbps: 0.0,
                achieved_gbps: 0.0,
                completed: 0,
                shed: 1,
                queue_depth: shredder_des::TimeSeries::new("q"),
                max_queue_depth: 0,
                classes: Vec::new(),
            })
        })
        .unwrap();
        assert_eq!(r.sustained_rps, 0.0);
        assert_eq!(r.p99_at_sustained, None);

        // hi passes → sustained hi without bisection.
        let r = capacity_search(Dur::from_millis(1), 5.0, 10.0, 4, |_| {
            Ok(ServiceReport {
                requests: Vec::new(),
                offered_rps: 0.0,
                achieved_rps: 0.0,
                offered_gbps: 0.0,
                achieved_gbps: 0.0,
                completed: 1,
                shed: 0,
                queue_depth: shredder_des::TimeSeries::new("q"),
                max_queue_depth: 0,
                classes: Vec::new(),
            })
        })
        .unwrap();
        assert_eq!(r.sustained_rps, 10.0);
        assert_eq!(r.trials.len(), 2);
    }
}
