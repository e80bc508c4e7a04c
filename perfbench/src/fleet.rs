//! `fleet_small_requests`: the online service at fleet scale, where the
//! cost per request dominates.
//!
//! Small requests drawn from a corpus of distinct payloads (each recurs
//! many times) over many tenant streams arrive open-loop, Poisson, at one
//! offered rate below capacity in simulated time. A 4-node
//! `ShredderFleet` serves them with R=2 replication and its default
//! per-node `StoreSink`. Every completed request's chunks must equal a
//! sequential `chunk_all` of its payload, and every committed generation
//! must restore, digest-verified, to its payload.

use std::collections::{BTreeMap, HashMap};

use shredder::cluster::{FleetConfig, FleetRequest, ShredderFleet};
use shredder::core::{ShredderConfig, SliceSource, TelemetryConfig, Workload};
use shredder::hash::SeededRng;
use shredder::rabin::{chunk_all, Chunk};
use shredder::store::ChunkStore;
use shredder::workloads::random_bytes;

use crate::clock::CpuInstant;
use crate::replay::{self, Counts};
use crate::trace::Tracer;
use crate::{ms, Iteration};

const REQUESTS: usize = 16384;
const PAYLOAD: usize = 4 << 10;
/// Distinct payloads: 1 MiB in all, so the corpus fits in a core's L2.
const DISTINCT: usize = 256;
const STREAMS: usize = 64;
const NODES: usize = 4;
const REPLICATION: usize = 2;
/// Offered load; the fleet sheds nothing at this rate.
const RATE_RPS: f64 = 20_000.0;
const BUFFER: usize = 128 << 10;

fn config(telemetry: bool) -> FleetConfig {
    let mut node = ShredderConfig::gpu_streams_memory().with_buffer_size(BUFFER);
    if telemetry {
        node = node.with_telemetry(TelemetryConfig::enabled());
    }
    let config = FleetConfig::new(NODES, node).with_replication(REPLICATION);
    if telemetry {
        config.with_telemetry(TelemetryConfig::enabled())
    } else {
        config
    }
}

struct Inputs {
    corpus: Vec<u8>,
    /// Payload index of each request.
    picks: Vec<usize>,
    streams: Vec<String>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed ^ 0x000f_1ee7);
        Inputs {
            corpus: random_bytes(DISTINCT * PAYLOAD, seed),
            picks: (0..REQUESTS)
                .map(|_| rng.next_below(DISTINCT as u64) as usize)
                .collect(),
            streams: (0..STREAMS).map(|s| format!("tenant-{s}")).collect(),
        }
    }

    fn payload(&self, k: usize) -> &[u8] {
        &self.corpus[k * PAYLOAD..(k + 1) * PAYLOAD]
    }

    fn stream(&self, request: usize) -> &str {
        &self.streams[request % STREAMS]
    }

    fn fleet(&self, telemetry: bool) -> ShredderFleet<'_> {
        let mut fleet = ShredderFleet::new(config(telemetry));
        for (i, &k) in self.picks.iter().enumerate() {
            fleet.submit(FleetRequest::new(
                self.stream(i),
                SliceSource::new(self.payload(k)),
            ));
        }
        fleet
    }
}

pub fn run(seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let t0 = CpuInstant::now();
    let inputs = Inputs::new(seed);
    let mut fleet = inputs.fleet(false);
    // Set-up also builds the references the output checks compare against.
    let node_cfg = fleet.config().node.clone();
    let expected: Vec<Vec<Chunk>> = (0..DISTINCT)
        .map(|k| chunk_all(inputs.payload(k), &node_cfg.params))
        .collect();
    let by_payload: HashMap<&[u8], usize> = (0..DISTINCT).map(|k| (inputs.payload(k), k)).collect();
    let ring = fleet.config().initial_ring();
    it.setup_s = t0.elapsed_s();

    let workload = Workload::poisson(RATE_RPS, seed);
    let (outcome, run_s, span) = tr.span("core.run", None, || fleet.run(&workload));
    let outcome = outcome.map_err(|e| format!("fleet run failed: {e}"))?;
    it.ingest_s = run_s;
    it.ingest_bytes = (REQUESTS * PAYLOAD) as u64;
    it.attempted = REQUESTS as u64;
    it.requests = REQUESTS as u64;
    let report = &outcome.report;
    if report.completed + report.shed + report.lost != REQUESTS {
        return Err(format!(
            "completed {} + shed {} + lost {} != offered {REQUESTS}",
            report.completed, report.shed, report.lost
        ));
    }
    it.failed = (report.shed + report.lost) as u64;

    // Each completed request's chunks equal a sequential scan of its
    // payload; collect which payloads each (node, stream) committed.
    let mut committed: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
    for (req, session) in outcome.completed() {
        let k = inputs.picks[req.index];
        if session.chunks != expected[k] {
            return Err(format!(
                "request {} chunked differently from chunk_all",
                req.index
            ));
        }
        committed
            .entry((req.node, req.store_stream.as_str()))
            .or_default()
            .push(k);
    }

    let mut counts = Counts::default();
    if tr.enabled() {
        let mut shadows = vec![ChunkStore::new(); NODES];
        for (req, _) in outcome.completed() {
            let data = inputs.payload(inputs.picks[req.index]);
            let chunks = replay::chunking(tr, span, &node_cfg, data, &mut counts)?;
            let digests = replay::hash(tr, span, data, &chunks, &mut counts);
            replay::store(
                tr,
                span,
                &mut shadows[req.node],
                &req.store_stream,
                data,
                &chunks,
                &digests,
                &mut counts,
            )?;
        }
        counts.store_physical = shadows.iter().map(ChunkStore::physical_bytes).sum();
        let (routes, _, _) = tr.span("cluster.route", span, || {
            (0..REQUESTS)
                .map(|i| {
                    let stream = inputs.stream(i);
                    let replicas = ring.replicas(stream, REPLICATION);
                    (ring.route(stream), replicas.len())
                })
                .collect::<Vec<_>>()
        });
        for req in &outcome.requests {
            if routes[req.index] != (Some(req.node), REPLICATION) {
                return Err(format!(
                    "request {} routed differently on replay",
                    req.index
                ));
            }
        }
    }

    // Every committed generation restores, digest-verified, to one of
    // the payloads its stream was sent, as many times as it was sent.
    for ((node, stream), mut sent) in committed {
        let store = outcome.store(node).ok_or("missing node store")?;
        let store = store.borrow();
        let mut restored_ids = Vec::with_capacity(sent.len());
        for generation in store.generations(stream) {
            let (restored, secs, rspan) =
                tr.span("store.restore", None, || store.restore(stream, generation));
            it.attempted += 1;
            it.restore_s += secs;
            let restored = restored.map_err(|e| format!("restore of {stream}: {e}"))?;
            let k = *by_payload.get(restored.as_slice()).ok_or_else(|| {
                format!("{stream} generation {generation} restored foreign bytes")
            })?;
            it.restore_bytes += restored.len() as u64;
            if tr.enabled() {
                replay::hash(tr, rspan, &restored, &expected[k], &mut counts);
            }
            restored_ids.push(k);
        }
        sent.sort_unstable();
        restored_ids.sort_unstable();
        if sent != restored_ids {
            return Err(format!(
                "{stream} on node {node} restored other payloads than it was sent"
            ));
        }
    }
    it.cpu_s = it.ingest_s + it.restore_s;
    it.counts = counts;

    let physical: u64 = (0..NODES)
        .filter_map(|n| outcome.store(n))
        .map(|s| s.borrow().physical_bytes())
        .sum();
    it.exact = vec![
        (
            "sim_gbps",
            it.ingest_bytes as f64 / report.makespan.as_secs_f64() / 1e9,
        ),
        (
            "stored_per_logical",
            physical as f64 / it.ingest_bytes as f64,
        ),
        ("cluster.sim_p99_ms", ms(report.p99)),
        (
            "cluster.replication_amplification",
            report.replication_amplification(),
        ),
        (
            "cluster.replication_physical_bytes",
            report.replication.physical_bytes as f64,
        ),
        (
            "cluster.cross_node_dup_fraction",
            report.cross_node_dup_fraction(),
        ),
        (
            "cluster.sim_nic_busy_ms",
            report.nodes.iter().map(|n| ms(n.nic_busy)).sum(),
        ),
    ];
    it.layers.push(("cluster.run_s", run_s));

    if tr.enabled() {
        // The same run with telemetry on must report the same numbers;
        // its extra CPU time is the cost of telemetry.
        let (p50, p99, makespan) = (report.p50, report.p99, report.makespan);
        drop(outcome);
        let mut traced = inputs.fleet(true);
        let started = CpuInstant::now();
        let on = traced
            .run(&workload)
            .map_err(|e| format!("fleet run with telemetry failed: {e}"))?;
        let on_s = started.elapsed_s();
        if (on.report.p50, on.report.p99, on.report.makespan) != (p50, p99, makespan) {
            return Err("telemetry changed the fleet's simulated results".into());
        }
        it.layers.push(("telemetry.on_overhead_s", on_s - run_s));
    }
    Ok(it)
}
