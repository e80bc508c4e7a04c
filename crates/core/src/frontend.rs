//! The online service frontend: requests, tenants, arrivals, SLOs.
//!
//! The closed-batch engine API ([`ShredderEngine::run`]) opens every
//! session up front and drives them all to completion — it can report
//! makespan and throughput but never *request latency under load*,
//! because nothing ever arrives while the system is busy. A
//! [`ShredderService`] turns the same engine into a long-lived service:
//!
//! 1. requests ([`ChunkRequest`]: a stream source, an optional sink,
//!    a tenant class) are submitted up front, but *arrive* inside the
//!    discrete-event simulation according to a pluggable
//!    [`Workload`] — open-loop Poisson at a target rate, closed-loop
//!    with N clients and think time, trace replay, or the degenerate
//!    all-at-`t = 0` batch;
//! 2. arrivals flow through an explicit bounded **admission queue**
//!    ([`AdmissionControl`]): FIFO, per-tenant fair share or weighted
//!    share (reusing [`AdmissionPolicy`]
//!    across [`TenantClass`]es), with load shedding — a request that
//!    finds the queue full, or waits past the configured delay bound,
//!    is rejected with [`ChunkError::Overloaded`] and touches no sink
//!    state;
//! 3. every request completes with timestamps (arrival → admit →
//!    first-chunk → done) and the run's [`EngineReport`] carries a
//!    [`ServiceReport`]: offered vs. achieved
//!    req/s and GB/s, the queue-depth timeline, and latency
//!    p50/p95/p99/max per tenant class.
//!
//! [`capacity_search`] bisects the Poisson rate for the highest
//! sustained load that still meets a p99 latency SLO.
//!
//! # Examples
//!
//! An open-loop Poisson run with a p99 readout:
//!
//! ```
//! use shredder_core::{ChunkRequest, MemorySource, ShredderConfig, ShredderService, Workload};
//!
//! let mut service = ShredderService::new(
//!     ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10),
//! );
//! for t in 0..8u64 {
//!     service.submit(ChunkRequest::new(MemorySource::pseudo_random(256 << 10, t)));
//! }
//! let outcome = service.run(&Workload::poisson(2_000.0, 42)).unwrap();
//! println!("p99 latency: {:.2} ms", outcome.service().p99().as_millis_f64());
//! assert_eq!(outcome.service().completed, 8);
//! ```

use shredder_des::Dur;

use crate::config::ShredderConfig;
use crate::engine::{AdmissionPolicy, ClassRuntime, ShredderEngine};
use crate::error::ChunkError;
use crate::report::{EngineReport, ServiceReport};
use crate::session::SessionOutcome;
use crate::sink::ChunkSink;
use crate::source::StreamSource;
use crate::workload::{AdmissionControl, TenantClass, Workload};

/// Identifies a request within one service run (the submit order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) usize);

impl RequestId {
    /// The request's index in submit order (also its index into
    /// [`ServiceOutcome::requests`] and
    /// [`ServiceReport::requests`](crate::ServiceReport)).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request-{}", self.0)
    }
}

/// One chunking request: a stream source plus an optional downstream
/// sink and a tenant identity.
pub struct ChunkRequest<'a> {
    name: Option<String>,
    class: Option<String>,
    weight: u32,
    source: Box<dyn StreamSource + 'a>,
    sink: Option<Box<dyn ChunkSink + 'a>>,
}

impl<'a> ChunkRequest<'a> {
    /// A request for `source` in the default tenant class.
    pub fn new(source: impl StreamSource + 'a) -> Self {
        ChunkRequest {
            name: None,
            class: None,
            weight: 1,
            source: Box::new(source),
            sink: None,
        }
    }

    /// Names the request (reports show the name; default:
    /// `request-<n>`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Joins a tenant class (must be defined on the service via
    /// [`ShredderService::define_class`] before [`run`](ShredderService::run)).
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Sets the buffer-level admission weight (only meaningful under
    /// [`AdmissionPolicy::Weighted`](crate::AdmissionPolicy) at the
    /// engine level).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Attaches a downstream sink: its stages run inside the shared
    /// simulation once the request is dispatched. Pass `&mut sink` to
    /// keep ownership and read the functional results after the run
    /// (drop the service first to release the borrow). A shed request's
    /// sink is never touched.
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
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

/// One request's result: its chunks (bit-identical to a sequential
/// scan of its stream), or [`ChunkError::Overloaded`] if admission
/// control shed it.
#[derive(Debug)]
pub struct RequestResult {
    /// Which request this is (submit order).
    pub id: RequestId,
    /// The request's name.
    pub name: String,
    /// Chunks on success; `Overloaded` if the request was shed.
    pub outcome: Result<SessionOutcome, ChunkError>,
}

/// The result of a service run: per-request outcomes plus the engine
/// report with its [`ServiceReport`] attached.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Per-request results, in submit order.
    pub requests: Vec<RequestResult>,
    /// The engine report; [`EngineReport::service`] is always `Some`
    /// on this path.
    pub report: EngineReport,
}

impl ServiceOutcome {
    /// The service-level report (offered/achieved load, queue depth,
    /// per-class latency percentiles).
    pub fn service(&self) -> &ServiceReport {
        self.report
            .service
            .as_ref()
            // shredder-lint: allow(R5) — run_service always fills `report.service`; ServiceOutcome is constructed nowhere else
            .expect("service runs always produce a ServiceReport")
    }

    /// The completed requests' outcomes, in submit order.
    pub fn completed(&self) -> impl Iterator<Item = (&RequestResult, &SessionOutcome)> {
        self.requests
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|s| (r, s)))
    }
}

/// The long-lived online chunking service: submit requests, then run
/// them under an arrival [`Workload`] through bounded admission.
///
/// The closed-batch [`ShredderEngine::run`] path is exactly this
/// service run with [`Workload::Batch`] and unbounded admission.
pub struct ShredderService<'a> {
    config: ShredderConfig,
    engine_policy: AdmissionPolicy,
    control: AdmissionControl,
    classes: Vec<TenantClass>,
    requests: Vec<ChunkRequest<'a>>,
}

impl<'a> ShredderService<'a> {
    /// Creates a service with the default admission control
    /// ([`AdmissionControl::default`]: FIFO over 4 dispatch slots,
    /// unbounded queue) and the implicit `"default"` tenant class.
    pub fn new(config: ShredderConfig) -> Self {
        ShredderService {
            config,
            engine_policy: AdmissionPolicy::RoundRobin,
            control: AdmissionControl::default(),
            classes: vec![TenantClass::new("default")],
            requests: Vec::new(),
        }
    }

    /// Sets the service-level admission control (queue bound, dispatch
    /// slots, shed policy).
    pub fn with_admission(mut self, control: AdmissionControl) -> Self {
        self.control = control;
        self
    }

    /// Sets the *buffer-level* admission policy of the underlying
    /// engine (how dispatched requests share the pipeline slots).
    pub fn with_engine_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.engine_policy = policy;
        self
    }

    /// Defines (or redefines, by name) a tenant class.
    pub fn define_class(&mut self, class: TenantClass) {
        match self.classes.iter_mut().find(|c| c.name == class.name) {
            Some(existing) => *existing = class,
            None => self.classes.push(class),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ShredderConfig {
        &self.config
    }

    /// The admission control in effect.
    pub fn admission(&self) -> &AdmissionControl {
        &self.control
    }

    /// Requests submitted and not yet run.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Submits a request; it will arrive according to the workload
    /// passed to [`run`](Self::run).
    pub fn submit(&mut self, request: ChunkRequest<'a>) -> RequestId {
        let id = RequestId(self.requests.len());
        self.requests.push(request);
        id
    }

    /// Runs every submitted request under the arrival workload through
    /// one shared simulation. Consumes the submitted requests (the
    /// service can then be reused).
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`] for unusable configurations or a
    /// request naming an undefined tenant class; [`ChunkError::Gpu`] if
    /// a kernel launch fails. Per-request
    /// [`ChunkError::Overloaded`] rejections are *not* run errors —
    /// they come back inside [`ServiceOutcome::requests`].
    pub fn run(&mut self, workload: &Workload) -> Result<ServiceOutcome, ChunkError> {
        // Validate the config and resolve every class name *before*
        // consuming the submitted requests, so a typo'd class (or a bad
        // config field) leaves the queue intact for a corrected re-run.
        self.config.validate()?;
        let class_indices: Vec<usize> = self
            .requests
            .iter()
            .enumerate()
            .map(|(i, request)| match &request.class {
                Some(name) => self
                    .classes
                    .iter()
                    .position(|c| &c.name == name)
                    .ok_or_else(|| {
                        ChunkError::InvalidConfig(format!(
                            "request {i} uses undefined tenant class '{name}'"
                        ))
                    }),
                None => Ok(0),
            })
            .collect::<Result<_, _>>()?;

        let requests = std::mem::take(&mut self.requests);
        let mut engine = ShredderEngine::new(self.config.clone()).with_policy(self.engine_policy);
        for ((i, request), class) in requests.into_iter().enumerate().zip(class_indices) {
            let name = request.name.unwrap_or_else(|| format!("request-{i}"));
            engine.open_service_session(name, request.weight, class, request.source, request.sink);
        }

        let classes: Vec<ClassRuntime> = self.classes.iter().map(ClassRuntime::from).collect();
        let run = engine.run_with_workload(workload, self.control, classes, true)?;
        let requests = run
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| RequestResult {
                id: RequestId(i),
                name: run.report.sessions[i].name.clone(),
                outcome,
            })
            .collect();
        Ok(ServiceOutcome {
            requests,
            report: run.report,
        })
    }
}

impl std::fmt::Debug for ShredderService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShredderService")
            .field("config", &self.config)
            .field("control", &self.control)
            .field("classes", &self.classes.len())
            .field("requests", &self.requests.len())
            .finish()
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
/// [`ShredderService`] with the same requests and calling
/// [`run`](ShredderService::run) with `Workload::poisson(rate, seed)`.
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
    use crate::source::MemorySource;

    fn small_config() -> ShredderConfig {
        ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10)
    }

    #[test]
    fn batch_service_run_completes_everything() {
        let mut service = ShredderService::new(small_config());
        for t in 0..4u64 {
            service.submit(ChunkRequest::new(MemorySource::pseudo_random(100_000, t)));
        }
        let out = service.run(&Workload::Batch).unwrap();
        assert_eq!(out.requests.len(), 4);
        assert!(out.requests.iter().all(|r| r.outcome.is_ok()));
        let svc = out.service();
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
        let mut service = ShredderService::new(small_config().with_params(params));
        service.submit(ChunkRequest::new(MemorySource::pseudo_random(10_000, 1)));
        match service.run(&Workload::Batch) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn undefined_class_is_rejected() {
        let mut service = ShredderService::new(small_config());
        service.submit(
            ChunkRequest::new(MemorySource::pseudo_random(10_000, 1)).with_class("missing"),
        );
        match service.run(&Workload::Batch) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn request_names_and_ids_round_trip() {
        let mut service = ShredderService::new(small_config());
        let a = service
            .submit(ChunkRequest::new(MemorySource::pseudo_random(50_000, 1)).named("alpha"));
        let b = service.submit(ChunkRequest::new(MemorySource::pseudo_random(50_000, 2)));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(service.request_count(), 2);
        let out = service.run(&Workload::Batch).unwrap();
        assert_eq!(out.requests[0].name, "alpha");
        assert_eq!(out.requests[1].name, "request-1");
        assert_eq!(service.request_count(), 0, "run consumes requests");
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
