//! The sharded multi-node fleet: N independent Shredder nodes, one
//! simulation.
//!
//! A [`ShredderFleet`] instantiates `N` node replicas — each an
//! independent [`ShredderEngine`] with its own device pool, chunk
//! store, and admission queue — and advances them all inside the one
//! existing discrete-event simulation, so cross-node effects (routing
//! skew, replication traffic, rebalance storms) are measurable and
//! deterministic. The run has two phases on one virtual clock:
//!
//! 1. **Ingest.** The router resolves the workload's arrival schedule
//!    up front ([`Workload::arrivals`]), consistent-hashes every
//!    request's stream key onto the membership epoch's [`HashRing`],
//!    and replays each node's share as an exact-gap
//!    [`Workload::Trace`] through that node's own engine — absolute
//!    arrival times preserved to the nanosecond, so a single-node
//!    fleet is bit-identical to a plain `ShredderEngine` run.
//! 2. **Cluster events.** Committed generations, membership
//!    transitions, replication shipments, rebalance handoffs, and
//!    repair copies replay as events over per-node egress links
//!    ([`BandwidthChannel`]), with dedup-aware transfers: only chunks
//!    the destination does not already hold cross the wire.
//!
//! Node `k`'s unplanned death is the fleet fault plan's
//! `DeviceDeath { device: k }`; planned churn is the
//! [`MembershipPlan`]. A death wipes the node (requests in flight are
//! [`FleetRequestOutcome::Lost`], its store is a fresh incarnation on
//! rejoin) and repair re-ships its reassigned streams from surviving
//! replica holders, digest-verified on install.
//!
//! Store streams are namespaced `<stream>@e<epoch>` (the membership
//! epoch the request arrived in), so generation counters never collide
//! when a stream's primary moves between nodes.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::rc::Rc;

use shredder_core::{
    AdmissionControl, ChunkError, ChunkRequest, FaultPlan, SessionOutcome, ShredderConfig,
    ShredderEngine, StoreSink, StoreSinkConfig, StreamSource, TenantClass, Workload,
};
use shredder_des::{nearest_rank, BandwidthChannel, Dur, SimTime, Simulation};
use shredder_hash::Digest;
use shredder_store::ChunkStore;
use shredder_telemetry::{ArgValue, Lane, TelemetryConfig, TraceRecorder};

use crate::membership::{merged_timeline, MembershipPlan, Transition};
use crate::report::{FleetReport, NodeReport, RebalanceReport, RepairSummary, ReplicationReport};
use crate::ring::HashRing;

/// Configuration of a [`ShredderFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of node slots.
    pub nodes: usize,
    /// Per-node engine configuration (every node is a replica of this).
    pub node: ShredderConfig,
    /// Per-node service admission control.
    pub admission: AdmissionControl,
    /// Tenant classes defined on every node.
    pub classes: Vec<TenantClass>,
    /// Virtual points per node on the routing ring.
    pub vnodes: usize,
    /// Seed of the routing ring's point hash.
    pub ring_seed: u64,
    /// Replication factor: total copies of each committed generation,
    /// primary included. `1` disables replication.
    pub replication: usize,
    /// Per-node egress link bandwidth, bytes/s.
    pub link_bandwidth: f64,
    /// Per-transfer egress link setup latency.
    pub link_latency: Dur,
    /// Store-sink stage timing shared by every node's requests.
    pub store: StoreSinkConfig,
    /// Node-level fault plan: `DeviceDeath { device: k }` kills node
    /// `k`; `Straggler { device: k, .. }` makes every device of node
    /// `k` straggle.
    pub faults: FaultPlan,
    /// Planned membership churn (leaves and rejoins).
    pub membership: MembershipPlan,
    /// Fleet-level telemetry: Node-lane spans for inter-node transfers
    /// and instants for membership transitions.
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A fleet of `nodes` replicas of `node`, with 64 vnodes,
    /// replication factor 2, a 10 GbE-class egress link (1.25 GB/s,
    /// 50 µs setup), default admission, and no churn.
    pub fn new(nodes: usize, node: ShredderConfig) -> Self {
        FleetConfig {
            nodes,
            node,
            admission: AdmissionControl::default(),
            classes: Vec::new(),
            vnodes: 64,
            ring_seed: 0x5f1e_e7ed,
            replication: 2,
            link_bandwidth: 1.25e9,
            link_latency: Dur::from_micros(50),
            store: StoreSinkConfig::default(),
            faults: FaultPlan::new(),
            membership: MembershipPlan::new(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Sets the per-node admission control.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Defines a tenant class on every node.
    pub fn with_class(mut self, class: TenantClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Sets the virtual points per node.
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Sets the ring seed.
    pub fn with_ring_seed(mut self, seed: u64) -> Self {
        self.ring_seed = seed;
        self
    }

    /// Sets the replication factor (total copies, primary included).
    pub fn with_replication(mut self, factor: usize) -> Self {
        self.replication = factor;
        self
    }

    /// Sets the egress link bandwidth (bytes/s) and setup latency.
    pub fn with_link(mut self, bytes_per_sec: f64, latency: Dur) -> Self {
        self.link_bandwidth = bytes_per_sec;
        self.link_latency = latency;
        self
    }

    /// Sets the store-sink stage timing.
    pub fn with_store(mut self, store: StoreSinkConfig) -> Self {
        self.store = store;
        self
    }

    /// Sets the node-level fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the planned membership churn.
    pub fn with_membership(mut self, membership: MembershipPlan) -> Self {
        self.membership = membership;
        self
    }

    /// Enables fleet-level telemetry.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The initial routing ring (all nodes live).
    pub fn initial_ring(&self) -> HashRing {
        HashRing::with_nodes(self.ring_seed, self.vnodes, self.nodes)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`] naming the first violation: an
    /// empty fleet, a zero replication factor or one exceeding the
    /// node count, a non-positive link bandwidth, an invalid node
    /// config, or a membership/fault schedule that breaks the
    /// at-least-one-live-node invariant.
    pub fn validate(&self) -> Result<(), ChunkError> {
        let bad = |msg: String| Err(ChunkError::InvalidConfig(msg));
        if self.nodes == 0 {
            return bad("a fleet needs at least one node".to_string());
        }
        if self.vnodes == 0 {
            return bad("a fleet needs at least one vnode per node".to_string());
        }
        if self.replication == 0 {
            return bad("replication factor must be at least 1 (the primary copy)".to_string());
        }
        if self.replication > self.nodes {
            return bad(format!(
                "replication factor {} exceeds the fleet's {} node(s)",
                self.replication, self.nodes
            ));
        }
        if !self.link_bandwidth.is_finite() || self.link_bandwidth <= 0.0 {
            return bad(format!(
                "inter-node link bandwidth must be positive, got {}",
                self.link_bandwidth
            ));
        }
        self.node.validate()?;
        self.membership
            .check(self.nodes, &self.faults)
            .map_err(ChunkError::InvalidConfig)?;
        self.telemetry.check().map_err(ChunkError::InvalidConfig)?;
        Ok(())
    }
}

/// One request submitted to the fleet: a stream key (the routing and
/// store identity) plus its byte source.
pub struct FleetRequest<'a> {
    stream: String,
    name: Option<String>,
    class: Option<String>,
    weight: u32,
    source: Option<Box<dyn StreamSource + 'a>>,
}

impl<'a> FleetRequest<'a> {
    /// A request ingesting `source` under stream key `stream`. The key
    /// decides the owning node (consistent hash) and the store stream
    /// the generations commit under.
    pub fn new(stream: impl Into<String>, source: impl StreamSource + 'a) -> Self {
        FleetRequest {
            stream: stream.into(),
            name: None,
            class: None,
            weight: 1,
            source: Some(Box::new(source)),
        }
    }

    /// Names the request (defaults to `request-<index>`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Assigns the request to a tenant class (must be defined via
    /// [`FleetConfig::with_class`]).
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Sets the fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// The routing stream key.
    pub fn stream(&self) -> &str {
        &self.stream
    }
}

impl std::fmt::Debug for FleetRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRequest")
            .field("stream", &self.stream)
            .field("name", &self.name)
            .field("class", &self.class)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// How one fleet request ended.
#[derive(Debug)]
pub enum FleetRequestOutcome {
    /// Chunked and committed; the chunks are bit-identical to a
    /// sequential scan of the stream.
    Completed(SessionOutcome),
    /// Shed by the owning node's admission control (the inner error is
    /// [`ChunkError::Overloaded`]).
    Shed(ChunkError),
    /// In flight on a node when it died: arrived before the death,
    /// would have completed after it. Its writes died with the node.
    Lost,
}

impl FleetRequestOutcome {
    /// The chunks, if the request completed.
    pub fn completed(&self) -> Option<&SessionOutcome> {
        match self {
            FleetRequestOutcome::Completed(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// One request's routing and result.
#[derive(Debug)]
pub struct FleetRequestRecord {
    /// Submit-order index of the request.
    pub index: usize,
    /// The request's name.
    pub name: String,
    /// The routing stream key.
    pub stream: String,
    /// The node the router placed it on.
    pub node: usize,
    /// The store stream its generations committed under
    /// (`<stream>@e<epoch>`).
    pub store_stream: String,
    /// How it ended.
    pub outcome: FleetRequestOutcome,
}

/// The result of a fleet run: per-request results, the
/// [`FleetReport`], and each node's final chunk store.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-request results, in submit order.
    pub requests: Vec<FleetRequestRecord>,
    /// The fleet-wide report.
    pub report: FleetReport,
    stores: Vec<Rc<RefCell<ChunkStore>>>,
}

impl FleetOutcome {
    /// Node `node`'s final chunk store (its live incarnation's; for a
    /// node dead at the end of the run, the wreck as of the death).
    pub fn store(&self, node: usize) -> Option<Rc<RefCell<ChunkStore>>> {
        self.stores.get(node).cloned()
    }

    /// The completed requests, in submit order.
    pub fn completed(&self) -> impl Iterator<Item = (&FleetRequestRecord, &SessionOutcome)> {
        self.requests
            .iter()
            .filter_map(|r| r.outcome.completed().map(|s| (r, s)))
    }
}

/// What a shipment is for (decides which report bucket it lands in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShipKind {
    Replicate,
    Rebalance,
    Repair,
}

impl ShipKind {
    fn label(self) -> &'static str {
        match self {
            ShipKind::Replicate => "replicate",
            ShipKind::Rebalance => "rebalance",
            ShipKind::Repair => "repair",
        }
    }
}

/// A committed unit: one generation of one store stream.
type Unit = (String, u64);

/// One membership transition with the ring that results from it.
#[derive(Debug, Clone)]
struct Step {
    at: SimTime,
    node: usize,
    kind: Transition,
    ring_after: HashRing,
    /// For a Join: whether the node is returning from a death (fresh
    /// store, needs repair) rather than a planned leave.
    was_dead: bool,
}

/// One life of a node: from fleet start (or a rejoin after death) to
/// its death, if any. Planned leaves do not end an incarnation — the
/// node keeps its store and drains.
struct Incarnation {
    start: SimTime,
    death: Option<SimTime>,
    store: Rc<RefCell<ChunkStore>>,
    assigned: Vec<usize>,
}

impl Incarnation {
    fn new(start: SimTime) -> Self {
        Incarnation {
            start,
            death: None,
            store: Rc::new(RefCell::new(ChunkStore::new())),
            assigned: Vec::new(),
        }
    }
}

/// Immutable context shared by every cluster-phase event closure.
struct Ctx {
    replication: usize,
    nics: Vec<BandwidthChannel>,
    stores: Vec<Vec<Rc<RefCell<ChunkStore>>>>,
    inc_meta: Vec<Vec<(SimTime, Option<SimTime>)>>,
    rings: Vec<(SimTime, HashRing)>,
}

impl Ctx {
    fn ring_at(&self, t: SimTime) -> &HashRing {
        let idx = self.rings.partition_point(|(start, _)| *start <= t);
        &self.rings[idx - 1].1
    }

    /// Index of the node's incarnation active at `t` (the latest one
    /// started by then).
    fn active_inc(&self, node: usize, t: SimTime) -> usize {
        self.inc_meta[node]
            .partition_point(|(start, _)| *start <= t)
            .saturating_sub(1)
    }

    /// True while incarnation `inc` of `node` can still serve as a
    /// transfer *source*: it is the latest incarnation and has not
    /// died. A node that left keeps serving reads while it drains.
    fn src_ok(&self, node: usize, inc: usize, t: SimTime) -> bool {
        self.active_inc(node, t) == inc && self.inc_meta[node][inc].1.is_none_or(|death| t < death)
    }

    /// True while incarnation `inc` of `node` can still *receive*: it
    /// is alive and the node is on the current ring (not dead, not
    /// left).
    fn dst_ok(&self, node: usize, inc: usize, t: SimTime) -> bool {
        self.src_ok(node, inc, t) && self.ring_at(t).contains(node)
    }
}

/// Mutable cluster-phase state behind one `RefCell`.
struct Shared {
    /// Per node: content committed/installed on its active incarnation
    /// so far (digest → payload length), in event order.
    resident: Vec<BTreeMap<Digest, u64>>,
    /// Routing stream → committed unit → nodes holding it.
    holdings: BTreeMap<String, BTreeMap<Unit, BTreeSet<usize>>>,
    repl: ReplicationReport,
    reb: RebalanceReport,
    rep: RepairSummary,
    /// Per node: egress bytes by [`ShipKind`] index.
    out_bytes: Vec<[u64; 3]>,
    recorder: Option<TraceRecorder>,
    /// Per node: completion time of its NIC's previous transfer (span
    /// starts).
    nic_prev: Vec<SimTime>,
}

/// Per-request record accumulated through both phases.
struct Rec {
    node: usize,
    store_stream: String,
    name: String,
    stream: String,
    done: Option<SimTime>,
    generation: Option<u64>,
    lost: bool,
    shed: bool,
    latency: Option<Dur>,
    new_bytes: u64,
    dedup_bytes: u64,
    outcome: Option<Result<SessionOutcome, ChunkError>>,
}

/// The fleet frontend: submit [`FleetRequest`]s, then run them under
/// one arrival [`Workload`] across every node.
///
/// # Examples
///
/// ```
/// use shredder_cluster::{FleetConfig, FleetRequest, ShredderFleet};
/// use shredder_core::{MemorySource, ShredderConfig, Workload};
///
/// let config = FleetConfig::new(2, ShredderConfig::gpu_streams_memory());
/// let mut fleet = ShredderFleet::new(config);
/// for i in 0..4u64 {
///     fleet.submit(FleetRequest::new(
///         format!("vm-{i}"),
///         MemorySource::pseudo_random(64 << 10, i),
///     ));
/// }
/// let outcome = fleet
///     .run(&Workload::poisson(200.0, 42))
///     .unwrap();
/// assert_eq!(outcome.report.completed, 4);
/// ```
pub struct ShredderFleet<'a> {
    config: FleetConfig,
    requests: Vec<FleetRequest<'a>>,
}

impl<'a> ShredderFleet<'a> {
    /// Creates a fleet from a config. Validation happens in
    /// [`run`](Self::run).
    pub fn new(config: FleetConfig) -> Self {
        ShredderFleet {
            config,
            requests: Vec::new(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Requests submitted and not yet run.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Submits a request; returns its submit-order index.
    pub fn submit(&mut self, request: FleetRequest<'a>) -> usize {
        self.requests.push(request);
        self.requests.len() - 1
    }

    /// Runs every submitted request under the arrival workload: routes
    /// each arrival onto its epoch's ring, replays each node's share
    /// through its own service, then replays replication, membership,
    /// rebalancing, and repair over the inter-node links. Consumes the
    /// submitted requests.
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`] for an invalid fleet config, an
    /// undefined tenant class, or a closed-loop workload (routing
    /// needs precomputable arrivals); [`ChunkError::Gpu`] if a node's
    /// kernel launch fails. Per-request sheds and losses are *not* run
    /// errors — they come back inside [`FleetOutcome::requests`].
    pub fn run(&mut self, workload: &Workload) -> Result<FleetOutcome, ChunkError> {
        let cfg = self.config.clone();
        cfg.validate()?;
        for (i, request) in self.requests.iter().enumerate() {
            if let Some(class) = &request.class {
                if !cfg.classes.iter().any(|c| &c.name == class) {
                    return Err(ChunkError::InvalidConfig(format!(
                        "fleet request {i} uses undefined tenant class '{class}'"
                    )));
                }
            }
        }
        let n_req = self.requests.len();
        let arrivals = workload.arrivals(n_req).ok_or_else(|| {
            ChunkError::InvalidConfig(
                "fleet routing needs precomputable arrivals; closed-loop workloads are not \
                 supported"
                    .to_string(),
            )
        })?;
        let mut requests = std::mem::take(&mut self.requests);

        // ---- Membership timeline: per-transition rings + epochs. ----
        let mut ring = cfg.initial_ring();
        let mut rings = vec![(SimTime::ZERO, ring.clone())];
        let mut steps: Vec<Step> = Vec::new();
        let mut dead = vec![false; cfg.nodes];
        for (at, node, kind) in merged_timeline(&cfg.membership, &cfg.faults) {
            let was_dead = dead[node];
            match kind {
                Transition::Death => {
                    ring.remove_node(node);
                    dead[node] = true;
                }
                Transition::Leave => {
                    ring.remove_node(node);
                }
                Transition::Join => {
                    ring.add_node(node);
                    dead[node] = false;
                }
            }
            let at = SimTime::ZERO + at;
            steps.push(Step {
                at,
                node,
                kind,
                ring_after: ring.clone(),
                was_dead,
            });
            rings.push((at, ring.clone()));
        }

        // ---- Incarnations: a death ends one, a rejoin-after-death
        // starts a fresh (empty-store) one. ----
        let mut incs: Vec<Vec<Incarnation>> = (0..cfg.nodes)
            .map(|_| vec![Incarnation::new(SimTime::ZERO)])
            .collect();
        for step in &steps {
            match step.kind {
                Transition::Death => {
                    incs[step.node]
                        .last_mut()
                        .expect("every node has an incarnation")
                        .death = Some(step.at);
                }
                Transition::Join if step.was_dead => {
                    incs[step.node].push(Incarnation::new(step.at));
                }
                _ => {}
            }
        }

        // ---- Route every arrival on its epoch's ring. ----
        let epoch_at = |t: SimTime| rings.partition_point(|(start, _)| *start <= t) - 1;
        let mut recs: Vec<Rec> = Vec::with_capacity(n_req);
        for (k, request) in requests.iter().enumerate() {
            let t = arrivals[k];
            let epoch = epoch_at(t);
            let node = rings[epoch]
                .1
                .route(&request.stream)
                .expect("membership.check keeps at least one live node");
            let inc = incs[node].partition_point(|inc| inc.start <= t) - 1;
            incs[node][inc].assigned.push(k);
            recs.push(Rec {
                node,
                store_stream: format!("{}@e{epoch}", request.stream),
                name: request
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("request-{k}")),
                stream: request.stream.clone(),
                done: None,
                generation: None,
                lost: false,
                shed: false,
                latency: None,
                new_bytes: 0,
                dedup_bytes: 0,
                outcome: None,
            });
        }

        // ---- Phase 1: per-incarnation ingest, exact-gap trace replay. ----
        for node_incs in &incs {
            for inc in node_incs {
                if inc.assigned.is_empty() {
                    continue;
                }
                let mut gaps = Vec::with_capacity(inc.assigned.len());
                let mut prev = SimTime::ZERO;
                for &k in &inc.assigned {
                    gaps.push(arrivals[k] - prev);
                    prev = arrivals[k];
                }
                let trace = Workload::trace(gaps);
                let mut sinks: Vec<StoreSink> = inc
                    .assigned
                    .iter()
                    .map(|&k| {
                        StoreSink::new(recs[k].store_stream.clone(), cfg.store, inc.store.clone())
                    })
                    .collect();
                let mut engine =
                    ShredderEngine::new(cfg.node.clone()).with_admission(cfg.admission);
                for class in &cfg.classes {
                    engine.define_class(class.clone());
                }
                for (&k, sink) in inc.assigned.iter().zip(sinks.iter_mut()) {
                    let source = requests[k]
                        .source
                        .take()
                        .expect("each request is assigned to exactly one incarnation");
                    let mut chunk_request = ChunkRequest::new(source)
                        .named(recs[k].name.clone())
                        .with_weight(requests[k].weight)
                        .with_sink(&mut *sink);
                    if let Some(class) = requests[k].class.clone() {
                        chunk_request = chunk_request.with_class(class);
                    }
                    engine.submit(chunk_request);
                }
                let outcome = engine.run(&trace)?;
                drop(engine);
                let reports = &outcome.report.service.requests;
                for ((result, report), (&k, sink)) in outcome
                    .sessions
                    .into_iter()
                    .zip(reports)
                    .zip(inc.assigned.iter().zip(&sinks))
                {
                    let (done, latency) = (report.done, report.latency());
                    let rec = &mut recs[k];
                    rec.done = done;
                    rec.latency = latency;
                    rec.generation = sink.generation();
                    rec.new_bytes = sink.new_bytes();
                    rec.dedup_bytes = sink.dedup_bytes();
                    rec.shed = result.is_err();
                    rec.lost =
                        result.is_ok() && matches!((inc.death, done), (Some(d), Some(t)) if t > d);
                    rec.outcome = Some(result);
                }
            }
        }

        // ---- Cross-node duplicate content, measured before any
        // replica copy exists: over the final-ring live nodes' stores. ----
        let final_ring = &rings.last().expect("rings is never empty").1;
        let mut content: BTreeMap<Digest, (u64, u32)> = BTreeMap::new();
        for node in final_ring.nodes() {
            for (digest, len) in incs[node]
                .last()
                .expect("nonempty")
                .store
                .borrow()
                .chunk_inventory()
            {
                let entry = content.entry(digest).or_insert((len, 0));
                entry.1 += 1;
            }
        }
        let cross_node_duplicate_bytes: u64 = content
            .values()
            .map(|&(len, count)| len * (count as u64 - 1))
            .sum();

        // ---- Phase 2: cluster events over the inter-node links. ----
        let ctx = Rc::new(Ctx {
            replication: cfg.replication,
            nics: (0..cfg.nodes)
                .map(|k| {
                    BandwidthChannel::new(format!("nic-{k}"), cfg.link_bandwidth, cfg.link_latency)
                })
                .collect(),
            stores: incs
                .iter()
                .map(|node_incs| node_incs.iter().map(|i| i.store.clone()).collect())
                .collect(),
            inc_meta: incs
                .iter()
                .map(|node_incs| node_incs.iter().map(|i| (i.start, i.death)).collect())
                .collect(),
            rings,
        });
        let shared = Rc::new(RefCell::new(Shared {
            resident: vec![BTreeMap::new(); cfg.nodes],
            holdings: BTreeMap::new(),
            repl: ReplicationReport {
                factor: cfg.replication,
                ..ReplicationReport::default()
            },
            reb: RebalanceReport::default(),
            rep: RepairSummary::default(),
            out_bytes: vec![[0; 3]; cfg.nodes],
            recorder: cfg
                .telemetry
                .enabled
                .then(|| TraceRecorder::new(&cfg.telemetry)),
            nic_prev: vec![SimTime::ZERO; cfg.nodes],
        }));

        let mut sim = Simulation::new();
        // Commit events: resident/holdings bookkeeping + replication
        // fan-out at each completed request's commit instant.
        for rec in recs.iter().filter(|r| !r.lost && !r.shed) {
            let (Some(done), Some(generation)) = (rec.done, rec.generation) else {
                continue;
            };
            let (node, stream, unit) = (
                rec.node,
                rec.stream.clone(),
                (rec.store_stream.clone(), generation),
            );
            let (ctx, shared) = (ctx.clone(), shared.clone());
            sim.schedule_at(done, move |sim| {
                let inc = ctx.active_inc(node, sim.now());
                {
                    let mut st = shared.borrow_mut();
                    let store = ctx.stores[node][inc].borrow();
                    if let Some(manifest) = store.manifest(&unit.0, unit.1) {
                        for entry in &manifest.entries {
                            st.resident[node].insert(entry.digest, entry.len as u64);
                        }
                    }
                    st.holdings
                        .entry(stream.clone())
                        .or_default()
                        .entry(unit.clone())
                        .or_default()
                        .insert(node);
                }
                let targets: Vec<usize> = ctx
                    .ring_at(sim.now())
                    .replicas(&stream, ctx.replication)
                    .into_iter()
                    .filter(|&t| t != node)
                    .take(ctx.replication - 1)
                    .collect();
                for dst in targets {
                    ship(
                        sim,
                        &ctx,
                        &shared,
                        ShipKind::Replicate,
                        node,
                        dst,
                        stream.clone(),
                        unit.clone(),
                    );
                }
            });
        }
        // Membership events: bookkeeping + rebalance/repair passes.
        for step in steps.clone() {
            let (ctx, shared) = (ctx.clone(), shared.clone());
            sim.schedule_at(step.at, move |sim| {
                let now = sim.now();
                {
                    let mut st = shared.borrow_mut();
                    if step.kind == Transition::Death {
                        st.resident[step.node].clear();
                        for units in st.holdings.values_mut() {
                            for holders in units.values_mut() {
                                holders.remove(&step.node);
                            }
                        }
                    }
                    if let Some(recorder) = st.recorder.as_mut() {
                        let name = match step.kind {
                            Transition::Death => "node-death",
                            Transition::Leave => "node-leave",
                            Transition::Join => "node-join",
                        };
                        recorder.instant(
                            Lane::Node {
                                node: step.node as u64,
                            },
                            name,
                            now,
                            vec![("node", ArgValue::U64(step.node as u64))],
                        );
                    }
                }
                match step.kind {
                    Transition::Death => {}
                    Transition::Join if step.was_dead => {
                        repair_pass(sim, &ctx, &shared, &step.ring_after, step.node);
                    }
                    Transition::Leave | Transition::Join => {
                        rebalance_pass(sim, &ctx, &shared, &step.ring_after);
                    }
                }
            });
        }
        let cluster_end = sim.run();

        // ---- Assemble the report. ----
        let nic_busy: Vec<Dur> = ctx.nics.iter().map(|nic| nic.busy_time()).collect();
        let st = Rc::try_unwrap(shared)
            .ok()
            .expect("all cluster events have completed")
            .into_inner();
        let mut makespan_end = cluster_end;
        let mut node_reports: Vec<NodeReport> = (0..cfg.nodes)
            .map(|node| NodeReport {
                node,
                replication_out_bytes: st.out_bytes[node][ShipKind::Replicate as usize],
                rebalance_out_bytes: st.out_bytes[node][ShipKind::Rebalance as usize],
                repair_out_bytes: st.out_bytes[node][ShipKind::Repair as usize],
                nic_busy: nic_busy[node],
                ..NodeReport::default()
            })
            .collect();
        for step in &steps {
            let entry = &mut node_reports[step.node];
            match step.kind {
                Transition::Death => entry.died_at = Some(step.at),
                Transition::Leave => entry.left_at = Some(step.at),
                Transition::Join => entry.rejoined_at = Some(step.at),
            }
        }
        let mut per_node_latencies: Vec<Vec<Dur>> = vec![Vec::new(); cfg.nodes];
        let mut fleet_latencies: Vec<Dur> = Vec::new();
        for rec in &recs {
            let entry = &mut node_reports[rec.node];
            entry.routed += 1;
            if rec.shed {
                entry.shed += 1;
            } else if rec.lost {
                entry.lost += 1;
            } else {
                entry.completed += 1;
                entry.ingest_bytes += rec.new_bytes + rec.dedup_bytes;
                entry.new_bytes += rec.new_bytes;
                entry.dedup_bytes += rec.dedup_bytes;
                if let Some(latency) = rec.latency {
                    per_node_latencies[rec.node].push(latency);
                    fleet_latencies.push(latency);
                }
                if let Some(done) = rec.done {
                    makespan_end = makespan_end.max(done);
                }
            }
        }
        let makespan = makespan_end - SimTime::ZERO;
        let secs = makespan.as_secs_f64();
        for (node, latencies) in per_node_latencies.iter_mut().enumerate() {
            latencies.sort_unstable();
            let entry = &mut node_reports[node];
            entry.p50 = nearest_rank(latencies, 0.50).unwrap_or(Dur::ZERO);
            entry.p95 = nearest_rank(latencies, 0.95).unwrap_or(Dur::ZERO);
            entry.p99 = nearest_rank(latencies, 0.99).unwrap_or(Dur::ZERO);
            entry.achieved_rps = if secs > 0.0 {
                entry.completed as f64 / secs
            } else {
                0.0
            };
        }
        fleet_latencies.sort_unstable();
        let completed = node_reports.iter().map(|n| n.completed).sum::<usize>();
        let mut report = FleetReport {
            makespan,
            offered_rps: if secs > 0.0 { n_req as f64 / secs } else { 0.0 },
            achieved_rps: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            completed,
            shed: node_reports.iter().map(|n| n.shed).sum(),
            lost: node_reports.iter().map(|n| n.lost).sum(),
            p50: nearest_rank(&fleet_latencies, 0.50).unwrap_or(Dur::ZERO),
            p95: nearest_rank(&fleet_latencies, 0.95).unwrap_or(Dur::ZERO),
            p99: nearest_rank(&fleet_latencies, 0.99).unwrap_or(Dur::ZERO),
            ingest_bytes: node_reports.iter().map(|n| n.ingest_bytes).sum(),
            new_bytes: node_reports.iter().map(|n| n.new_bytes).sum(),
            intra_node_dedup_bytes: node_reports.iter().map(|n| n.dedup_bytes).sum(),
            cross_node_duplicate_bytes,
            replication: st.repl,
            rebalance: st.reb,
            repair: st.rep,
            nodes: node_reports,
            telemetry: None,
        };
        let mut recorder = st.recorder;
        report.telemetry = recorder.as_mut().map(|r| r.finish_report());

        let stores = incs
            .iter()
            .map(|node_incs| node_incs.last().expect("nonempty").store.clone())
            .collect();
        let results = recs
            .into_iter()
            .enumerate()
            .map(|(index, rec)| FleetRequestRecord {
                index,
                name: rec.name,
                stream: rec.stream,
                node: rec.node,
                store_stream: rec.store_stream,
                outcome: if rec.lost {
                    FleetRequestOutcome::Lost
                } else {
                    match rec.outcome.expect("every routed request ran") {
                        Ok(outcome) => FleetRequestOutcome::Completed(outcome),
                        Err(err) => FleetRequestOutcome::Shed(err),
                    }
                },
            })
            .collect();
        Ok(FleetOutcome {
            requests: results,
            report,
            stores,
        })
    }
}

impl std::fmt::Debug for ShredderFleet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShredderFleet")
            .field("config", &self.config)
            .field("requests", &self.requests.len())
            .finish()
    }
}

/// Ships one committed unit `src → dst` over `src`'s egress link:
/// dedup-aware (only chunks missing from `dst`'s resident set cross
/// the wire), installed digest-verified on arrival if both ends are
/// still available. Returns the wire bytes.
#[allow(clippy::too_many_arguments)]
fn ship(
    sim: &mut Simulation,
    ctx: &Rc<Ctx>,
    shared: &Rc<RefCell<Shared>>,
    kind: ShipKind,
    src: usize,
    dst: usize,
    stream: String,
    unit: Unit,
) -> u64 {
    let sent = sim.now();
    let src_inc = ctx.active_inc(src, sent);
    let dst_inc = ctx.active_inc(dst, sent);
    let src_store = ctx.stores[src][src_inc].clone();
    let dst_store = ctx.stores[dst][dst_inc].clone();
    let (wire, logical) = {
        let st = shared.borrow();
        let store = src_store.borrow();
        let Some(manifest) = store.manifest(&unit.0, unit.1) else {
            return 0;
        };
        let mut seen = HashSet::new();
        let wire = manifest
            .entries
            .iter()
            .filter(|e| !st.resident[dst].contains_key(&e.digest) && seen.insert(e.digest))
            .map(|e| e.len as u64)
            .sum();
        (wire, manifest.logical_bytes())
    };
    {
        let mut st = shared.borrow_mut();
        st.out_bytes[src][kind as usize] += wire;
        if kind == ShipKind::Replicate {
            st.repl.shipments += 1;
            st.repl.logical_bytes += logical;
            st.repl.physical_bytes += wire;
        }
    }
    let (ctx2, shared2) = (ctx.clone(), shared.clone());
    ctx.nics[src].transfer(sim, wire, move |sim| {
        let now = sim.now();
        let deliverable = ctx2.src_ok(src, src_inc, now) && ctx2.dst_ok(dst, dst_inc, now);
        let installed = deliverable
            .then(|| {
                let peer = src_store.borrow();
                dst_store
                    .borrow_mut()
                    .install_snapshot(&unit.0, unit.1, &peer)
                    .ok()
            })
            .flatten();
        let mut st = shared2.borrow_mut();
        match installed {
            Some(install) => {
                let peer = src_store.borrow();
                if let Some(manifest) = peer.manifest(&unit.0, unit.1) {
                    for entry in &manifest.entries {
                        st.resident[dst].insert(entry.digest, entry.len as u64);
                    }
                }
                st.holdings
                    .entry(stream.clone())
                    .or_default()
                    .entry(unit.clone())
                    .or_default()
                    .insert(dst);
                match kind {
                    ShipKind::Replicate => st.repl.completed += 1,
                    ShipKind::Rebalance => {}
                    ShipKind::Repair => {
                        st.rep.snapshots_installed += install.snapshots_installed;
                        st.rep.chunks_copied += install.chunks_copied;
                        st.rep.bytes_copied += install.bytes_copied;
                    }
                }
            }
            None => {
                if kind == ShipKind::Replicate {
                    st.repl.aborted += 1;
                }
            }
        }
        let start = st.nic_prev[src].max(sent);
        st.nic_prev[src] = now;
        if let Some(recorder) = st.recorder.as_mut() {
            recorder.span(
                Lane::Node { node: src as u64 },
                kind.label(),
                start,
                now,
                vec![
                    ("dst", ArgValue::U64(dst as u64)),
                    ("bytes", ArgValue::U64(wire)),
                    ("stream", ArgValue::Text(stream.clone())),
                ],
            );
        }
    });
    wire
}

/// After a planned membership change, moves every committed unit whose
/// new primary does not hold it onto that primary, from its
/// lowest-index surviving holder. Records the pass's moved fraction
/// (moved bytes over live stored bytes at the instant) — consistent
/// hashing keeps the expectation near `1/N`.
fn rebalance_pass(
    sim: &mut Simulation,
    ctx: &Rc<Ctx>,
    shared: &Rc<RefCell<Shared>>,
    ring: &HashRing,
) {
    let (orders, live_bytes) = plan_orders(shared, |stream, unit_holders| {
        let primary = ring.route(stream)?;
        let mut orders = Vec::new();
        for (unit, holders) in unit_holders {
            if holders.contains(&primary) {
                continue;
            }
            let Some(&src) = holders.iter().next() else {
                continue;
            };
            orders.push((src, primary, unit.clone()));
        }
        Some(orders)
    });
    let mut moved = 0u64;
    let mut streams_moved: BTreeSet<String> = BTreeSet::new();
    for (src, dst, stream, unit) in orders {
        let wire = ship(
            sim,
            ctx,
            shared,
            ShipKind::Rebalance,
            src,
            dst,
            stream.clone(),
            unit,
        );
        moved += wire;
        streams_moved.insert(stream);
    }
    let mut st = shared.borrow_mut();
    st.reb.events += 1;
    st.reb.streams_moved += streams_moved.len();
    st.reb.bytes_moved += moved;
    if live_bytes > 0 {
        let fraction = moved as f64 / live_bytes as f64;
        st.reb.max_moved_fraction = st.reb.max_moved_fraction.max(fraction);
    }
}

/// After a rejoin-from-death, re-ships every committed unit the
/// rejoined node is now responsible for (primary or replica within the
/// replication factor) from a surviving holder.
fn repair_pass(
    sim: &mut Simulation,
    ctx: &Rc<Ctx>,
    shared: &Rc<RefCell<Shared>>,
    ring: &HashRing,
    joined: usize,
) {
    let replication = ctx.replication;
    let (orders, _) = plan_orders(shared, |stream, unit_holders| {
        if !ring.replicas(stream, replication).contains(&joined) {
            return None;
        }
        let mut orders = Vec::new();
        for (unit, holders) in unit_holders {
            if holders.contains(&joined) {
                continue;
            }
            let Some(&src) = holders.iter().find(|&&h| h != joined) else {
                continue;
            };
            orders.push((src, joined, unit.clone()));
        }
        Some(orders)
    });
    {
        shared.borrow_mut().rep.events += 1;
    }
    for (src, dst, stream, unit) in orders {
        ship(sim, ctx, shared, ShipKind::Repair, src, dst, stream, unit);
    }
}

/// Plans transfer orders under one read borrow of the shared state.
/// `plan` maps each routing stream's `(unit → holders)` map to the
/// `(src, dst, unit)` orders it wants (or `None` to skip the stream).
/// Also returns total live stored bytes for moved-fraction accounting.
#[allow(clippy::type_complexity)]
fn plan_orders(
    shared: &Rc<RefCell<Shared>>,
    mut plan: impl FnMut(&str, &BTreeMap<Unit, BTreeSet<usize>>) -> Option<Vec<(usize, usize, Unit)>>,
) -> (Vec<(usize, usize, String, Unit)>, u64) {
    let st = shared.borrow();
    let mut orders = Vec::new();
    for (stream, unit_holders) in &st.holdings {
        if let Some(stream_orders) = plan(stream, unit_holders) {
            for (src, dst, unit) in stream_orders {
                orders.push((src, dst, stream.clone(), unit));
            }
        }
    }
    let live_bytes = st
        .resident
        .iter()
        .map(|node| node.values().sum::<u64>())
        .sum();
    (orders, live_bytes)
}
