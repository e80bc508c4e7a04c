//! A deterministic discrete-event simulation (DES) kernel.
//!
//! Every figure in the Shredder paper that reports *time* — DMA transfer
//! overlap (Fig. 5), pipeline speedup (Fig. 9), kernel latency (Fig. 11),
//! end-to-end throughput (Fig. 12), MapReduce job runtimes (Fig. 15), and
//! backup bandwidth (Fig. 18) — is reproduced in this workspace on top of
//! a virtual clock. This crate is that clock: a classic event-calendar
//! simulator with
//!
//! * nanosecond-resolution [`SimTime`]/[`Dur`] arithmetic,
//! * a [`Simulation`] engine executing closure events in deterministic
//!   (time, insertion-order) order,
//! * counting [`Semaphore`]s with FIFO waiters (device twin buffers,
//!   pinned ring slots, pipeline admission, cluster task slots),
//! * [`FifoServer`]s modelling single-queue stations (the Reader,
//!   Transfer, Kernel and Store threads of §3.1), and
//! * [`BandwidthChannel`]s modelling latency + bandwidth pipes (SAN
//!   links, the PCIe bus, the backup network).
//!
//! Determinism: two events scheduled for the same instant fire in the
//! order they were scheduled. No wall-clock time or randomness is used by
//! the engine itself.
//!
//! # Examples
//!
//! ```
//! use shredder_des::{Dur, Simulation};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Simulation::new();
//! let hits = Rc::new(Cell::new(0u32));
//! let h = hits.clone();
//! sim.schedule(Dur::from_micros(5), move |_| h.set(h.get() + 1));
//! sim.run();
//! assert_eq!(hits.get(), 1);
//! assert_eq!(sim.now().as_micros_f64(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod engine;
pub mod resources;
pub mod stats;
pub mod time;

pub use channel::BandwidthChannel;
pub use engine::Simulation;
pub use resources::{FifoServer, Semaphore};
pub use stats::{nearest_rank, Histogram, TimeSeries};
pub use time::{Dur, SimTime};
