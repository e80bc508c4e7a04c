//! Sharded multi-node Shredder fleet, fully simulated.
//!
//! Shredder's single-node story ends at one host's PCIe and device
//! budget; backup farms shard the tenant population across a fleet.
//! This crate scales the simulation the same way: a [`ShredderFleet`]
//! instantiates `N` node replicas — each an independent
//! [`ShredderEngine`](shredder_core::ShredderEngine) with its own
//! device pool, chunk store, and admission queue — and advances them
//! all on one virtual clock, so cross-node effects are measurable and
//! every run is deterministic.
//!
//! Three layers ride on the per-node engines:
//!
//! * **Routing** ([`HashRing`]): stream keys consistent-hash onto a
//!   seeded ring with virtual nodes. Placement is a pure function of
//!   `(seed, vnodes, membership set)`, so membership churn remaps only
//!   an expected `1/N` of keys.
//! * **Replication**: every committed generation ships to the next
//!   `R−1` distinct ring successors over modeled inter-node links,
//!   dedup-aware — the [`FleetReport`] accounts logical versus physical
//!   bytes separately.
//! * **Membership** ([`MembershipPlan`]): planned leaves/joins and
//!   fault-plan node deaths merge into one timeline; every transition
//!   triggers bounded rebalancing, and a rejoin after a death repairs
//!   the node from surviving replicas, digest-verified on install.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fleet;
mod membership;
mod report;
mod ring;

pub use fleet::{
    FleetConfig, FleetOutcome, FleetRequest, FleetRequestOutcome, FleetRequestRecord, ShredderFleet,
};
pub use membership::{MembershipChange, MembershipEvent, MembershipPlan};
pub use report::{FleetReport, NodeReport, RebalanceReport, RepairSummary, ReplicationReport};
pub use ring::HashRing;
