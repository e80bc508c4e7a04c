//! Chunking sessions: one per submitted request.
//!
//! Each [`ChunkRequest`](crate::ChunkRequest) submitted to a
//! [`ShredderEngine`](crate::ShredderEngine) becomes one session,
//! identified by its [`SessionId`]. The engine chunks all of them
//! through **one** shared device pipeline; per-session results come back
//! as a [`SessionOutcome`] (or the reason the request was shed) plus a
//! [`SessionReport`](crate::report::SessionReport) inside the aggregate
//! [`EngineReport`](crate::report::EngineReport).

use shredder_rabin::Chunk;

/// Identifies a session within one engine run (the submit order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) usize);

impl SessionId {
    /// The session's index in submit order (also its index into
    /// [`EngineOutcome::sessions`](crate::EngineOutcome) and
    /// [`EngineReport::sessions`](crate::report::EngineReport)).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// The per-session result of an engine run: the session's chunks, in
/// stream order, bit-identical to a sequential scan of that stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Which session this is.
    pub id: SessionId,
    /// The session's name.
    pub name: String,
    /// The chunks, tiling the session's stream in order.
    pub chunks: Vec<Chunk>,
}
