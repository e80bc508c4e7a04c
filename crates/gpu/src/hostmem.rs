//! Host memory model: pageable vs pinned regions and the pinned ring.
//!
//! Asynchronous DMA requires the host buffer to be *pinned* (page-locked)
//! so the pager cannot move it (§4.1.1). Pinning is expensive (Figure 6)
//! and excessive pinning "can increase paging activity for unpinned
//! pages" (§4.1.2), so Shredder allocates a small circular ring of pinned
//! buffers once at startup and reuses them round-robin; [`PinnedRing`]
//! prices that ring.

use serde::{Deserialize, Serialize};
use shredder_des::Dur;

use crate::calibration;

/// The kind of a host memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostMemKind {
    /// Ordinary `malloc`ed memory, subject to paging.
    Pageable,
    /// Page-locked memory usable for async DMA.
    Pinned,
}

/// Cost model for host allocations (Figure 6).
///
/// # Examples
///
/// ```
/// use shredder_gpu::{HostAllocModel, HostMemKind};
///
/// let m = HostAllocModel::default();
/// let pageable = m.alloc_time(HostMemKind::Pageable, 64 << 20);
/// let pinned = m.alloc_time(HostMemKind::Pinned, 64 << 20);
/// // Figure 6: pinned allocation is roughly an order of magnitude
/// // more expensive.
/// assert!(pinned.as_millis_f64() > 5.0 * pageable.as_millis_f64());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HostAllocModel {
    _private: (),
}

impl HostAllocModel {
    /// Creates the calibrated model.
    pub fn new() -> Self {
        HostAllocModel::default()
    }

    /// Time to allocate (and touch, forcing real allocation — the
    /// paper's `bzero`, §4.1.2) a region of `bytes`.
    pub fn alloc_time(&self, kind: HostMemKind, bytes: usize) -> Dur {
        match kind {
            HostMemKind::Pageable => {
                Dur::from_nanos(calibration::PAGEABLE_ALLOC_BASE_NS)
                    + Dur::from_bytes_at(bytes as u64, calibration::PAGEABLE_ALLOC_BW)
            }
            HostMemKind::Pinned => {
                let pages = bytes.div_ceil(calibration::PAGE_SIZE) as u64;
                Dur::from_nanos(calibration::PINNED_ALLOC_BASE_NS)
                    + Dur::from_nanos(pages * calibration::PIN_PAGE_NS)
            }
        }
    }

    /// Time to `memcpy` `bytes` from a pageable region into a pinned one
    /// (the steady-state cost of the ring-buffer scheme).
    pub fn memcpy_to_pinned_time(&self, bytes: usize) -> Dur {
        Dur::from_bytes_at(bytes as u64, calibration::HOST_MEMCPY_BW)
    }
}

/// The cost model of a circular ring of pre-allocated pinned buffers
/// (§4.1.2, Figure 7).
///
/// The ring prices the one-time allocation it pays and the
/// per-iteration pinning it *avoids* — the Figure 6 comparison. Which
/// slots are free during a run is the pool's per-device ring semaphore
/// ([`PooledDevice::ring`](crate::PooledDevice::ring)), sized to
/// [`slots`](PinnedRing::slots).
///
/// # Examples
///
/// ```
/// use shredder_gpu::PinnedRing;
///
/// let ring = PinnedRing::new(4, 32 << 20);
/// assert_eq!(ring.slots(), 4);
/// // Pinning every slot once at startup costs more than one buffer
/// // without the ring, and each reuse is far cheaper than that.
/// assert!(ring.setup_time() > ring.per_buffer_time_without_ring());
/// assert!(ring.per_buffer_time() < ring.per_buffer_time_without_ring());
/// ```
#[derive(Debug, Clone)]
pub struct PinnedRing {
    slots: usize,
    buffer_bytes: usize,
    alloc_model: HostAllocModel,
}

impl PinnedRing {
    /// Creates a ring of `slots` pinned buffers of `buffer_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, buffer_bytes: usize) -> Self {
        assert!(slots > 0, "ring must have at least one slot");
        PinnedRing {
            slots,
            buffer_bytes,
            alloc_model: HostAllocModel::new(),
        }
    }

    /// Number of slots in the ring.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// One-time setup cost: pinning every slot at initialization
    /// (§4.1.2: "allocated only once during the system initialization").
    pub fn setup_time(&self) -> Dur {
        self.alloc_model
            .alloc_time(HostMemKind::Pinned, self.buffer_bytes)
            * self.slots as u64
    }

    /// Steady-state per-buffer cost of the ring scheme: a memcpy from
    /// the application's pageable buffer into the reused pinned slot.
    pub fn per_buffer_time(&self) -> Dur {
        self.alloc_model.memcpy_to_pinned_time(self.buffer_bytes)
    }

    /// What each buffer would cost *without* the ring: allocating (and
    /// pinning) a fresh region every iteration.
    pub fn per_buffer_time_without_ring(&self) -> Dur {
        self.alloc_model
            .alloc_time(HostMemKind::Pinned, self.buffer_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_times_match_figure6_shape() {
        let m = HostAllocModel::new();
        // Figure 6 (log scale, 16 MB – 256 MB):
        for mb in [16usize, 32, 64, 128, 256] {
            let bytes = mb << 20;
            let pageable = m.alloc_time(HostMemKind::Pageable, bytes);
            let pinned = m.alloc_time(HostMemKind::Pinned, bytes);
            let memcpy = m.memcpy_to_pinned_time(bytes);
            // Ordering: memcpy < pageable alloc < pinned alloc.
            assert!(memcpy < pageable, "{mb}MB: memcpy !< pageable");
            assert!(pageable < pinned, "{mb}MB: pageable !< pinned");
            // Pinned ≈ 10× pageable (order of magnitude).
            let ratio = pinned.as_secs_f64() / pageable.as_secs_f64();
            assert!(ratio > 4.0 && ratio < 20.0, "{mb}MB ratio {ratio}");
        }
    }

    #[test]
    fn pinned_256mb_near_figure6_value() {
        // Figure 6 shows pinned allocation of 256 MB in the many-hundreds
        // of ms range.
        let m = HostAllocModel::new();
        let t = m.alloc_time(HostMemKind::Pinned, 256 << 20).as_millis_f64();
        assert!(t > 300.0 && t < 1000.0, "256MB pinned alloc {t}ms");
    }

    #[test]
    fn ring_amortizes_pinning() {
        // The §4.1.2 claim: reuse is an order of magnitude cheaper than
        // per-iteration pinned allocation.
        let ring = PinnedRing::new(4, 64 << 20);
        let with_ring = ring.per_buffer_time();
        let without = ring.per_buffer_time_without_ring();
        let ratio = without.as_secs_f64() / with_ring.as_secs_f64();
        assert!(ratio > 10.0, "ring speedup only {ratio}x");
    }
}
