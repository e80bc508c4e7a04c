//! Simulation resources: counting semaphores and FIFO servers.
//!
//! These model the contended entities of the Shredder pipeline: the two
//! device twin buffers of the double-buffering scheme (§4.1.1), the
//! pinned circular-ring slots (§4.1.2), pipeline-stage admission (§4.2),
//! and — in the case studies — MapReduce task slots and backup network
//! ports.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::Simulation;
use crate::time::{Dur, SimTime};

type GrantFn = Box<dyn FnOnce(&mut Simulation)>;

struct SemInner {
    name: String,
    available: usize,
    capacity: usize,
    waiters: VecDeque<(usize, GrantFn)>,
    /// Peak number of queued waiters, for diagnostics.
    max_queue: usize,
}

/// A counting semaphore with FIFO waiter ordering.
///
/// `acquire` either grants immediately (scheduling the continuation at
/// the current instant) or enqueues the continuation until `release`
/// makes enough units available. FIFO ordering means a large request at
/// the head blocks smaller requests behind it — the conservative policy,
/// which models a hardware queue.
///
/// Cloning shares the underlying semaphore.
///
/// # Examples
///
/// ```
/// use shredder_des::{Dur, Semaphore, Simulation};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new();
/// let sem = Semaphore::new("twin-buffers", 2);
/// let order: Rc<RefCell<Vec<u32>>> = Rc::default();
///
/// for i in 0..3u32 {
///     let sem2 = sem.clone();
///     let order = order.clone();
///     sem.acquire(&mut sim, 1, move |sim| {
///         order.borrow_mut().push(i);
///         // Hold the unit for 10ns, then release.
///         sim.schedule(Dur::from_nanos(10), move |sim| sem2.release(sim, 1));
///     });
/// }
/// sim.run();
/// assert_eq!(*order.borrow(), vec![0, 1, 2]);
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    /// Creates a semaphore with `capacity` units, all available.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                name: name.into(),
                available: capacity,
                capacity,
                waiters: VecDeque::new(),
                max_queue: 0,
            })),
        }
    }

    /// Requests `units`; `cont` runs (via the event calendar) once they
    /// are held.
    ///
    /// # Panics
    ///
    /// Panics if `units` exceeds the semaphore's total capacity (the
    /// request could never be satisfied).
    pub fn acquire(
        &self,
        sim: &mut Simulation,
        units: usize,
        cont: impl FnOnce(&mut Simulation) + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            units <= inner.capacity,
            "requested {units} units from semaphore '{}' of capacity {}",
            inner.name,
            inner.capacity
        );
        if inner.waiters.is_empty() && inner.available >= units {
            inner.available -= units;
            drop(inner);
            sim.schedule_now(cont);
        } else {
            inner.waiters.push_back((units, Box::new(cont)));
            let q = inner.waiters.len();
            inner.max_queue = inner.max_queue.max(q);
        }
    }

    /// Returns `units` to the semaphore and wakes eligible waiters in
    /// FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed capacity (double release).
    pub fn release(&self, sim: &mut Simulation, units: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.available += units;
        assert!(
            inner.available <= inner.capacity,
            "semaphore '{}' over-released ({} > {})",
            inner.name,
            inner.available,
            inner.capacity
        );
        let mut granted: Vec<GrantFn> = Vec::new();
        // FIFO grant loop (head-of-line blocking preserved).
        while let Some(front) = inner.waiters.front() {
            if front.0 <= inner.available {
                let (need, cont) = inner.waiters.pop_front().expect("front exists");
                inner.available -= need;
                granted.push(cont);
            } else {
                break;
            }
        }
        drop(inner);
        for cont in granted {
            sim.schedule_now(cont);
        }
    }

    /// Currently available units.
    pub fn available(&self) -> usize {
        self.inner.borrow().available
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Peak queue length observed.
    pub fn max_queue_len(&self) -> usize {
        self.inner.borrow().max_queue
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Semaphore")
            .field("name", &inner.name)
            .field("available", &inner.available)
            .field("capacity", &inner.capacity)
            .field("queued", &inner.waiters.len())
            .finish()
    }
}

struct ServerInner {
    sem: Semaphore,
    busy: Dur,
    jobs: u64,
    last_done: SimTime,
}

/// A FIFO service station: jobs request a fixed service duration and run
/// one at a time (or `servers` at a time) in arrival order.
///
/// Models the single-threaded pipeline stages of §3.1 (Reader, Transfer,
/// Kernel, Store): while one buffer is being served, later buffers queue.
///
/// Cloning shares the underlying server.
///
/// # Examples
///
/// ```
/// use shredder_des::{Dur, FifoServer, Simulation};
///
/// let mut sim = Simulation::new();
/// let reader = FifoServer::new("reader", 1);
/// for _ in 0..3 {
///     reader.process(&mut sim, Dur::from_micros(100), |_| {});
/// }
/// let end = sim.run();
/// // Three serialized 100us jobs.
/// assert_eq!(end.as_micros_f64(), 300.0);
/// ```
#[derive(Clone)]
pub struct FifoServer {
    inner: Rc<RefCell<ServerInner>>,
}

impl FifoServer {
    /// Creates a station with `servers` parallel servers (1 = strictly
    /// serial).
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        FifoServer {
            inner: Rc::new(RefCell::new(ServerInner {
                sem: Semaphore::new(name, servers),
                busy: Dur::ZERO,
                jobs: 0,
                last_done: SimTime::ZERO,
            })),
        }
    }

    /// Enqueues a job needing `service` time; `done` runs at completion.
    pub fn process(
        &self,
        sim: &mut Simulation,
        service: Dur,
        done: impl FnOnce(&mut Simulation) + 'static,
    ) {
        let this = self.clone();
        let sem = self.inner.borrow().sem.clone();
        let sem2 = sem.clone();
        sem.acquire(sim, 1, move |sim| {
            sim.schedule(service, move |sim| {
                {
                    let mut inner = this.inner.borrow_mut();
                    inner.busy += service;
                    inner.jobs += 1;
                    inner.last_done = sim.now();
                }
                sem2.release(sim, 1);
                done(sim);
            });
        });
    }

    /// Total busy time accumulated across servers.
    pub fn busy_time(&self) -> Dur {
        self.inner.borrow().busy
    }

    /// Number of completed jobs.
    pub fn jobs_completed(&self) -> u64 {
        self.inner.borrow().jobs
    }

    /// Completion time of the most recent job.
    pub fn last_completion(&self) -> SimTime {
        self.inner.borrow().last_done
    }

    /// Utilization over `[0, horizon]` (busy time / horizon), per server.
    pub fn utilization(&self, horizon: Dur) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        let inner = self.inner.borrow();
        inner.busy.as_secs_f64() / horizon.as_secs_f64() / inner.sem.capacity() as f64
    }
}

impl std::fmt::Debug for FifoServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FifoServer")
            .field("sem", &inner.sem)
            .field("busy", &inner.busy)
            .field("jobs", &inner.jobs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn semaphore_grants_immediately_when_free() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new("s", 3);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        sem.acquire(&mut sim, 2, move |_| g.set(true));
        sim.run();
        assert!(got.get());
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn semaphore_fifo_order_with_contention() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new("s", 1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let sem2 = sem.clone();
            let order = order.clone();
            sem.acquire(&mut sim, 1, move |sim| {
                order.borrow_mut().push(i);
                sim.schedule(Dur::from_nanos(10), move |sim| sem2.release(sim, 1));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sem.max_queue_len(), 4);
    }

    #[test]
    fn head_of_line_blocking() {
        // A big request at the head blocks a small one behind it even if
        // the small one would fit.
        let mut sim = Simulation::new();
        let sem = Semaphore::new("s", 2);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();

        // Hold 1 unit until t=100.
        let sem_h = sem.clone();
        sem.acquire(&mut sim, 1, move |sim| {
            sim.schedule(Dur::from_nanos(100), move |sim| sem_h.release(sim, 1));
        });
        // Big request: needs 2, must wait for t=100.
        let o1 = order.clone();
        sem.acquire(&mut sim, 2, move |_| o1.borrow_mut().push("big"));
        // Small request: needs 1, arrives later, must NOT jump the queue.
        let o2 = order.clone();
        sem.acquire(&mut sim, 1, move |_| o2.borrow_mut().push("small"));

        sim.run();
        assert_eq!(order.borrow()[0], "big");
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn double_release_panics() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new("s", 1);
        sem.release(&mut sim, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_acquire_panics() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new("s", 1);
        sem.acquire(&mut sim, 2, |_| {});
    }

    #[test]
    fn fifo_server_serializes() {
        let mut sim = Simulation::new();
        let srv = FifoServer::new("stage", 1);
        let ends: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..3 {
            let ends = ends.clone();
            srv.process(&mut sim, Dur::from_nanos(50), move |sim| {
                ends.borrow_mut().push(sim.now().as_nanos())
            });
        }
        sim.run();
        assert_eq!(*ends.borrow(), vec![50, 100, 150]);
        assert_eq!(srv.busy_time(), Dur::from_nanos(150));
        assert_eq!(srv.jobs_completed(), 3);
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let mut sim = Simulation::new();
        let srv = FifoServer::new("dual", 2);
        let ends: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..4 {
            let ends = ends.clone();
            srv.process(&mut sim, Dur::from_nanos(50), move |sim| {
                ends.borrow_mut().push(sim.now().as_nanos())
            });
        }
        sim.run();
        assert_eq!(*ends.borrow(), vec![50, 50, 100, 100]);
    }

    #[test]
    fn utilization_accounts_idle_time() {
        let mut sim = Simulation::new();
        let srv = FifoServer::new("s", 1);
        srv.process(&mut sim, Dur::from_nanos(25), |_| {});
        sim.run();
        let u = srv.utilization(Dur::from_nanos(100));
        assert!((u - 0.25).abs() < 1e-9);
    }
}
