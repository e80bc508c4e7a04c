//! Errors surfaced by the chunking engines.

use std::fmt;

use shredder_des::Dur;
use shredder_gpu::GpuError;

/// An error from the session-based chunking engine.
///
/// Kernel launches and device transfers can fail (invalid buffers,
/// out-of-memory) and misconfigured chunking parameters are rejected up
/// front; both propagate through the session API instead of panicking
/// inside the pipeline. Under a bounded
/// [`AdmissionControl`](crate::AdmissionControl) a request can
/// additionally be rejected by admission control under overload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The GPU model rejected an operation.
    Gpu(GpuError),
    /// The engine configuration is unusable (e.g. a zero-byte Rabin
    /// window, which would make the buffer-overlap math meaningless).
    InvalidConfig(String),
    /// Admission control shed this request: the service was overloaded
    /// (admission queue full, or the request's queue delay exceeded the
    /// configured bound). The request did no work — no chunks were
    /// formed and no sink state was touched.
    Overloaded {
        /// How long the request waited in the admission queue before it
        /// was shed.
        queued: Dur,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Gpu(e) => write!(f, "gpu error: {e:?}"),
            ChunkError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
            ChunkError::Overloaded { queued } => write!(
                f,
                "request shed by admission control after {:.3} ms in queue",
                queued.as_millis_f64()
            ),
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<GpuError> for ChunkError {
    fn from(e: GpuError) -> Self {
        ChunkError::Gpu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ChunkError = GpuError::OutOfMemory {
            requested: 1,
            available: 0,
        }
        .into();
        assert!(matches!(e, ChunkError::Gpu(_)));
        assert!(e.to_string().contains("gpu error"));
        let c = ChunkError::InvalidConfig("window must be non-zero".into());
        assert!(c.to_string().contains("window"));
    }

    #[test]
    fn overloaded_reports_queue_delay() {
        let e = ChunkError::Overloaded {
            queued: Dur::from_millis(12),
        };
        assert!(e.to_string().contains("shed"));
        assert!(e.to_string().contains("12.000 ms"));
    }
}
