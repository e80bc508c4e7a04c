//! Workload models for the engine's request side: how requests
//! *arrive*.
//!
//! The paper positions Shredder as a storage-system service — GPUs
//! behind an ingest path that must keep up with sustained client
//! traffic. "GPUs as Storage System Accelerators" (Al-Kiswany et al.)
//! evaluates exactly that regime: offered load vs. achieved throughput
//! and per-request latency. A [`Workload`] is the arrival process that
//! drives requests *into* the discrete-event simulation:
//!
//! * [`Workload::Batch`] — every request arrives at `t = 0`: the
//!   closed batch (submit everything, then run it to completion).
//! * [`Workload::Poisson`] — open-loop arrivals at a target rate
//!   (exponential inter-arrival gaps from a seeded deterministic
//!   sampler). The canonical model for "requests keep coming whether or
//!   not you are done with the previous ones".
//! * [`Workload::ClosedLoop`] — `clients` concurrent clients, each
//!   issuing its next request a think time after its previous one
//!   finished (or was shed). Offered load self-throttles with service
//!   latency.
//! * [`Workload::Trace`] — replay of recorded inter-arrival gaps,
//!   cycled if shorter than the request list. Replaying the same trace
//!   twice yields byte-identical service reports (the simulation has no
//!   hidden randomness).
//!
//! Alongside the arrival process live the service-level admission
//! knobs: [`AdmissionControl`] (queue bound, dispatch slots, shed
//! policy) and [`TenantClass`] (per-class fair-share weight and ingest
//! bandwidth cap).

use shredder_des::{Dur, SimTime};
use shredder_hash::mix::SeededRng;

use crate::engine::AdmissionPolicy;

/// One exponential inter-arrival gap at `rate` requests/s, drawn from
/// the shared deterministic sampler (no wall-clock entropy: the same
/// seed always yields the same arrival sequence, so service runs
/// replay bit-identically).
fn exponential_gap(rng: &mut SeededRng, rate: f64) -> Dur {
    Dur::from_secs_f64(-rng.next_unit_open().ln() / rate)
}

/// How requests arrive at a [`ShredderEngine`](crate::ShredderEngine)
/// run.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Every request arrives at `t = 0` — the closed batch (submit
    /// every request, then run them all to completion).
    Batch,
    /// Open-loop Poisson arrivals at a target rate. Arrivals do not
    /// wait for completions: offered load is constant regardless of how
    /// far behind the service falls.
    Poisson {
        /// Target offered load in requests per second.
        rate_rps: f64,
        /// Seed of the deterministic inter-arrival sampler.
        seed: u64,
    },
    /// Closed-loop: `clients` clients, each issuing its next request
    /// `think` after its previous request completed (or was shed).
    ClosedLoop {
        /// Concurrent clients.
        clients: usize,
        /// Per-client think time between a completion and the next
        /// request.
        think: Dur,
    },
    /// Replay of recorded inter-arrival gaps: request `k` arrives
    /// `gaps[k % gaps.len()]` after request `k − 1` (the trace cycles
    /// when shorter than the request list). An empty trace degenerates
    /// to [`Batch`](Self::Batch).
    Trace {
        /// Inter-arrival gaps, in request order.
        gaps: Vec<Dur>,
    },
}

impl Workload {
    /// Open-loop Poisson arrivals at `rate_rps` requests/s.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not finite and positive.
    pub fn poisson(rate_rps: f64, seed: u64) -> Self {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "arrival rate must be positive, got {rate_rps}"
        );
        Workload::Poisson { rate_rps, seed }
    }

    /// Closed-loop arrivals: `clients` clients with a think time.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn closed_loop(clients: usize, think: Dur) -> Self {
        assert!(clients > 0, "closed loop needs at least one client");
        Workload::ClosedLoop { clients, think }
    }

    /// Trace replay of recorded inter-arrival gaps.
    pub fn trace(gaps: Vec<Dur>) -> Self {
        Workload::Trace { gaps }
    }

    /// Resolves the workload into a concrete arrival schedule for `n`
    /// requests.
    pub(crate) fn schedule(&self, n: usize) -> ArrivalSchedule {
        match self.arrivals(n) {
            Some(times) => ArrivalSchedule::Open(times),
            None => match self {
                Workload::ClosedLoop { clients, think } => ArrivalSchedule::Closed {
                    clients: (*clients).max(1),
                    think: *think,
                },
                _ => unreachable!("only closed loops lack absolute arrivals"),
            },
        }
    }

    /// Resolves an *open-loop* workload into absolute arrival instants
    /// for `n` requests, in submit order.
    ///
    /// Returns `None` for [`Workload::ClosedLoop`]: closed-loop
    /// arrivals depend on completions and cannot be precomputed. This
    /// is the routing hook the cluster fleet uses — it splits one
    /// global arrival stream across nodes while preserving every
    /// request's absolute arrival time exactly (integer nanoseconds,
    /// no re-sampling).
    pub fn arrivals(&self, n: usize) -> Option<Vec<SimTime>> {
        match self {
            Workload::Batch => Some(vec![SimTime::ZERO; n]),
            Workload::Poisson { rate_rps, seed } => {
                // The shared scramble keeps nearby seeds (42, 43) in
                // unrelated xorshift orbits; one warm-up draw preserves
                // the historical stream bit-for-bit.
                let mut rng = SeededRng::new(*seed);
                rng.next_u64();
                let mut at = SimTime::ZERO;
                Some(
                    (0..n)
                        .map(|_| {
                            at += exponential_gap(&mut rng, *rate_rps);
                            at
                        })
                        .collect(),
                )
            }
            Workload::Trace { gaps } => {
                if gaps.is_empty() {
                    return Some(vec![SimTime::ZERO; n]);
                }
                let mut at = SimTime::ZERO;
                Some(
                    (0..n)
                        .map(|k| {
                            at += gaps[k % gaps.len()];
                            at
                        })
                        .collect(),
                )
            }
            Workload::ClosedLoop { .. } => None,
        }
    }
}

/// A workload resolved against a concrete request count.
pub(crate) enum ArrivalSchedule {
    /// Absolute arrival instants per request, in submit order.
    Open(Vec<SimTime>),
    /// Closed loop: request `k` belongs to client `k % clients`; each
    /// client's next request arrives `think` after its previous one
    /// finished.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Per-client think time.
        think: Dur,
    },
}

/// Service-level admission control: the explicit queue every request
/// passes through between *arrival* and *dispatch* into the engine.
///
/// `policy` orders the queue (FIFO via
/// [`AdmissionPolicy::SessionOrder`], per-tenant fair share via
/// [`AdmissionPolicy::RoundRobin`], weighted share via
/// [`AdmissionPolicy::Weighted`] — the same policy enum the engine's
/// buffer-level scheduler uses, applied across [`TenantClass`]es).
/// `slots` bounds how many requests chunk concurrently; `queue_depth`
/// bounds how many may wait (arrivals beyond it are shed with
/// [`ChunkError::Overloaded`](crate::ChunkError)); `max_queue_delay`
/// sheds any request still queued after the bound, which caps the queue
/// delay of everything that *is* admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Dispatch order across tenant classes.
    pub policy: AdmissionPolicy,
    /// Requests allowed to chunk concurrently (dispatch slots).
    pub slots: usize,
    /// Maximum requests waiting in the admission queue; `None` is
    /// unbounded. An arrival finding the queue full is shed.
    pub queue_depth: Option<usize>,
    /// Shed any request still waiting after this long; `None` never
    /// sheds by delay. Bounds the queue delay of admitted requests.
    pub max_queue_delay: Option<Dur>,
}

impl AdmissionControl {
    /// No admission control at all: FIFO, unlimited concurrency,
    /// unbounded queue, no shedding — the engine's default, under which
    /// a [`Workload::Batch`] run is the closed batch.
    pub fn unbounded() -> Self {
        AdmissionControl {
            policy: AdmissionPolicy::SessionOrder,
            slots: usize::MAX,
            queue_depth: None,
            max_queue_delay: None,
        }
    }

    /// FIFO dispatch with `slots` concurrent requests and an unbounded
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn fifo(slots: usize) -> Self {
        assert!(slots > 0, "admission needs at least one dispatch slot");
        AdmissionControl {
            policy: AdmissionPolicy::SessionOrder,
            slots,
            queue_depth: None,
            max_queue_delay: None,
        }
    }

    /// Sets the dispatch-order policy across tenant classes.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds the admission queue; arrivals beyond `depth` waiting
    /// requests are shed.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Sheds requests still queued after `bound`.
    pub fn with_max_queue_delay(mut self, bound: Dur) -> Self {
        self.max_queue_delay = Some(bound);
        self
    }
}

impl Default for AdmissionControl {
    /// FIFO over 4 dispatch slots (one per pipeline stage of the §4.2
    /// streaming pipeline), unbounded queue. A
    /// [`ShredderEngine`](crate::ShredderEngine) starts from
    /// [`unbounded`](Self::unbounded) instead; pass this to
    /// [`with_admission`](crate::ShredderEngine::with_admission) to
    /// bound it.
    fn default() -> Self {
        AdmissionControl::fifo(4)
    }
}

/// A tenant class on the engine: requests of the same class
/// share a fair-share identity (and optionally an ingest link) in
/// admission and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Class name (used by [`ChunkRequest`](crate::ChunkRequest) to
    /// join and by the per-class latency report).
    pub name: String,
    /// Fair-share weight under
    /// [`AdmissionPolicy::Weighted`](crate::AdmissionPolicy): a class
    /// with weight `w` may dispatch up to `w` requests per round.
    pub weight: u32,
    /// Ingest bandwidth cap in bytes/s: all reads of this class's
    /// requests pass through one shared class link of this bandwidth
    /// before reaching the SAN reader. `None` means uncapped. This is
    /// the per-class form of lowering the whole engine's
    /// [`reader_bandwidth`](crate::ShredderConfig::with_reader_bandwidth).
    pub ingest_bw: Option<f64>,
}

impl TenantClass {
    /// A class with weight 1 and no ingest cap.
    pub fn new(name: impl Into<String>) -> Self {
        TenantClass {
            name: name.into(),
            weight: 1,
            ingest_bw: None,
        }
    }

    /// Sets the fair-share weight (0 is treated as 1 by the scheduler).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Caps the class's ingest bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn with_ingest_bw(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "ingest bandwidth must be positive, got {bytes_per_sec}"
        );
        self.ingest_bw = Some(bytes_per_sec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_arrivals_are_all_zero() {
        match Workload::Batch.schedule(5) {
            ArrivalSchedule::Open(times) => {
                assert_eq!(times, vec![SimTime::ZERO; 5]);
            }
            _ => panic!("batch must resolve to open arrivals"),
        }
    }

    #[test]
    fn poisson_arrivals_are_monotone_deterministic_and_rate_shaped() {
        let a = match Workload::poisson(1000.0, 42).schedule(2000) {
            ArrivalSchedule::Open(t) => t,
            _ => panic!(),
        };
        let b = match Workload::poisson(1000.0, 42).schedule(2000) {
            ArrivalSchedule::Open(t) => t,
            _ => panic!(),
        };
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival ≈ 1 ms at 1000 req/s (law of large numbers
        // over 2000 samples; generous tolerance).
        let span = a.last().unwrap().as_secs_f64();
        let rate = 2000.0 / span;
        assert!((700.0..1400.0).contains(&rate), "rate {rate}");

        let c = match Workload::poisson(1000.0, 43).schedule(2000) {
            ArrivalSchedule::Open(t) => t,
            _ => panic!(),
        };
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn trace_cycles_and_replays_identically() {
        let w = Workload::trace(vec![Dur::from_micros(10), Dur::from_micros(30)]);
        let a = match w.schedule(4) {
            ArrivalSchedule::Open(t) => t,
            _ => panic!(),
        };
        assert_eq!(
            a.iter().map(|t| t.as_nanos()).collect::<Vec<_>>(),
            vec![10_000, 40_000, 50_000, 80_000]
        );
        // Empty trace degenerates to batch.
        match Workload::trace(Vec::new()).schedule(3) {
            ArrivalSchedule::Open(t) => assert_eq!(t, vec![SimTime::ZERO; 3]),
            _ => panic!(),
        }
    }

    #[test]
    fn arrivals_match_schedule_and_reject_closed_loops() {
        let w = Workload::poisson(500.0, 7);
        let direct = w.arrivals(100).expect("open loop has arrivals");
        match w.schedule(100) {
            ArrivalSchedule::Open(t) => assert_eq!(t, direct),
            _ => panic!("poisson must resolve to open arrivals"),
        }
        assert_eq!(
            Workload::closed_loop(2, Dur::from_millis(1)).arrivals(10),
            None
        );
    }

    #[test]
    fn closed_loop_keeps_client_count() {
        match Workload::closed_loop(3, Dur::from_millis(1)).schedule(10) {
            ArrivalSchedule::Closed { clients, think } => {
                assert_eq!(clients, 3);
                assert_eq!(think, Dur::from_millis(1));
            }
            _ => panic!("closed loop must stay closed"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Workload::poisson(0.0, 1);
    }

    #[test]
    fn admission_builders() {
        let c = AdmissionControl::fifo(2)
            .with_policy(AdmissionPolicy::Weighted)
            .with_queue_depth(8)
            .with_max_queue_delay(Dur::from_millis(5));
        assert_eq!(c.slots, 2);
        assert_eq!(c.policy, AdmissionPolicy::Weighted);
        assert_eq!(c.queue_depth, Some(8));
        assert_eq!(c.max_queue_delay, Some(Dur::from_millis(5)));
        let u = AdmissionControl::unbounded();
        assert_eq!(u.queue_depth, None);
        assert_eq!(u.slots, usize::MAX);
    }

    #[test]
    fn tenant_class_builders() {
        let c = TenantClass::new("gold").with_weight(4).with_ingest_bw(1e9);
        assert_eq!(c.name, "gold");
        assert_eq!(c.weight, 4);
        assert_eq!(c.ingest_bw, Some(1e9));
    }
}
