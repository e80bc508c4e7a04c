//! Acceptance tests for the sharded fleet: the claims ISSUE-level
//! scaling and availability arguments rest on.
//!
//! 1. A single-node fleet is bit-identical to a plain
//!    [`ShredderEngine`] run — same chunks, same latency percentiles,
//!    same store contents. The fleet layers add nothing when `N = 1`.
//! 2. Four nodes sustain a higher aggregate completion rate than one.
//! 3. `R = 2` replication puts every committed generation on two nodes,
//!    dedup-aware (physical ≤ logical wire bytes).
//! 4. One node's death loses only its in-flight requests; every
//!    surviving request's chunks are bit-identical to the fault-free
//!    run, and the losses are reported.
//! 5. A dead node that rejoins is repaired from surviving replicas;
//!    every repaired generation restores digest-verified.
//! 6. A planned leave moves a bounded fraction of live bytes
//!    (`≤ 1/N + ε`, the consistent-hashing guarantee).
//! 7. Fleet runs are deterministic: same config, same report.

use std::rc::Rc;

use shredder_cluster::{
    FleetConfig, FleetRequest, FleetRequestOutcome, MembershipPlan, ShredderFleet,
};
use shredder_core::{
    AdmissionControl, ChunkRequest, FaultPlan, ShredderConfig, ShredderEngine, SliceSource,
    StoreSink, StoreSinkConfig, Workload,
};
use shredder_des::Dur;
use shredder_hash::sha256;
use shredder_store::ChunkStore;
use std::cell::RefCell;

fn node_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10)
}

fn stream_data(n: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|t| shredder_workloads::random_bytes(bytes, 0xc1u64 * 7919 + t as u64))
        .collect()
}

fn submit_all<'a>(fleet: &mut ShredderFleet<'a>, data: &'a [Vec<u8>]) {
    for (t, d) in data.iter().enumerate() {
        fleet.submit(
            FleetRequest::new(format!("tenant-{t}"), SliceSource::new(d)).named(format!("req-{t}")),
        );
    }
}

#[test]
fn single_node_fleet_is_bit_identical_to_plain_service() {
    let data = stream_data(8, 192 << 10);
    let workload = Workload::poisson(900.0, 77);

    let mut fleet = ShredderFleet::new(FleetConfig::new(1, node_config()).with_replication(1));
    submit_all(&mut fleet, &data);
    let fleet_out = fleet.run(&workload).expect("fleet run failed");

    // The same requests through a plain engine with the fleet's default
    // admission control, sinking into one store
    // under the fleet's epoch-qualified stream names.
    let store = Rc::new(RefCell::new(ChunkStore::new()));
    let mut sinks: Vec<StoreSink> = (0..data.len())
        .map(|t| {
            StoreSink::new(
                format!("tenant-{t}@e0"),
                StoreSinkConfig::default(),
                store.clone(),
            )
        })
        .collect();
    let mut engine = ShredderEngine::new(node_config()).with_admission(AdmissionControl::default());
    for (t, (d, sink)) in data.iter().zip(sinks.iter_mut()).enumerate() {
        engine.submit(
            ChunkRequest::new(SliceSource::new(d))
                .named(format!("req-{t}"))
                .with_sink(&mut *sink),
        );
    }
    let plain_out = engine.run(&workload).expect("engine run failed");
    drop(engine);

    // Same chunks, request by request.
    for (fleet_req, plain_req) in fleet_out.requests.iter().zip(&plain_out.sessions) {
        let fleet_session = fleet_req.outcome.completed().expect("fleet request failed");
        let plain_session = plain_req.as_ref().expect("plain request failed");
        assert_eq!(
            fleet_session, plain_session,
            "chunks diverged for {}",
            fleet_req.name
        );
        assert_eq!(fleet_req.node, 0);
    }
    // Same latency percentiles.
    let service_report = &plain_out.report.service;
    assert_eq!(fleet_out.report.p50, service_report.p50());
    assert_eq!(fleet_out.report.p99, service_report.p99());
    // Same store, byte for byte and digest for digest.
    let fleet_store = fleet_out.store(0).expect("node 0 exists");
    assert_eq!(
        fleet_store.borrow().chunk_inventory(),
        store.borrow().chunk_inventory()
    );
    assert_eq!(
        fleet_store.borrow().logical_bytes(),
        store.borrow().logical_bytes()
    );
    // No cluster traffic on a single node with R = 1.
    assert_eq!(fleet_out.report.replication.shipments, 0);
    assert_eq!(fleet_out.report.rebalance.bytes_moved, 0);
}

#[test]
fn four_nodes_sustain_higher_aggregate_rate_than_one() {
    let data = stream_data(24, 128 << 10);
    let workload = Workload::poisson(4_000.0, 11);
    let run = |nodes: usize| {
        let mut fleet = ShredderFleet::new(
            FleetConfig::new(nodes, node_config())
                .with_admission(AdmissionControl::fifo(4))
                .with_replication(1),
        );
        submit_all(&mut fleet, &data);
        fleet.run(&workload).expect("fleet run failed").report
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.completed, 24);
    assert_eq!(four.completed, 24);
    assert!(
        four.achieved_rps > one.achieved_rps,
        "4 nodes {:.0} req/s not above 1 node {:.0} req/s",
        four.achieved_rps,
        one.achieved_rps
    );
    // The load actually spread: more than one node served requests.
    assert!(four.nodes.iter().filter(|n| n.completed > 0).count() > 1);
}

#[test]
fn replication_puts_every_generation_on_two_nodes_dedup_aware() {
    let data = stream_data(10, 96 << 10);
    let mut fleet = ShredderFleet::new(FleetConfig::new(2, node_config()).with_replication(2));
    submit_all(&mut fleet, &data);
    let out = fleet.run(&Workload::Batch).expect("fleet run failed");

    let report = &out.report;
    assert_eq!(report.completed, 10);
    assert_eq!(report.replication.factor, 2);
    assert_eq!(
        report.replication.shipments, 10,
        "one shipment per committed generation"
    );
    assert_eq!(report.replication.completed, 10);
    assert_eq!(report.replication.aborted, 0);
    assert!(report.replication.physical_bytes <= report.replication.logical_bytes);

    // Every request's generation is installed on both nodes.
    let stores = [out.store(0).unwrap(), out.store(1).unwrap()];
    for req in &out.requests {
        for store in &stores {
            let store = store.borrow();
            let gens = store.generations(&req.store_stream);
            assert_eq!(gens.len(), 1, "{} missing on a node", req.store_stream);
            store
                .restore(&req.store_stream, gens[0])
                .expect("replica restore failed");
        }
    }
    // Replication amplification is ≤ R by construction, > 1 here
    // because the replicas actually moved bytes.
    let amp = report.replication_amplification();
    assert!(amp > 1.0 && amp <= 2.0 + 1e-9, "amplification {amp}");
}

#[test]
fn node_death_loses_in_flight_only_and_survivors_stay_bit_identical() {
    let data = stream_data(16, 256 << 10);
    // Serialize each node's pipeline so the death lands mid-backlog.
    let config = || {
        FleetConfig::new(2, node_config())
            .with_admission(AdmissionControl::fifo(1))
            .with_replication(2)
    };
    let build = |cfg: FleetConfig| {
        let mut fleet = ShredderFleet::new(cfg);
        submit_all(&mut fleet, &data);
        fleet
    };
    let baseline = build(config())
        .run(&Workload::Batch)
        .expect("baseline run failed");
    assert_eq!(baseline.report.completed, 16);

    let full = baseline.report.makespan;
    let death_at = Dur::from_nanos(full.as_nanos() / 3);
    let faulted = build(config().with_faults(FaultPlan::new().device_death(death_at, 0)))
        .run(&Workload::Batch)
        .expect("faulted run failed");

    let report = &faulted.report;
    assert!(report.lost > 0, "the death caught no in-flight requests");
    assert_eq!(report.completed + report.lost + report.shed, 16);
    assert_eq!(
        report.node(0).unwrap().died_at,
        Some(shredder_des::SimTime::ZERO + death_at)
    );

    // Every request that completed under the fault has chunks
    // bit-identical to the fault-free run.
    let mut compared = 0;
    for (faulted_req, base_req) in faulted.requests.iter().zip(&baseline.requests) {
        if let Some(session) = faulted_req.outcome.completed() {
            let base = base_req
                .outcome
                .completed()
                .expect("baseline completed all");
            assert_eq!(session.chunks, base.chunks, "{} diverged", faulted_req.name);
            compared += 1;
        }
    }
    assert_eq!(compared, report.completed);
    // Replication to/from the dead node aborts rather than installing
    // on a corpse.
    assert_eq!(
        report.replication.completed + report.replication.aborted,
        report.replication.shipments
    );
}

#[test]
fn rejoin_after_death_repairs_from_replicas_digest_verified() {
    let data = stream_data(8, 128 << 10);
    let makespan = {
        let mut probe = ShredderFleet::new(FleetConfig::new(2, node_config()).with_replication(2));
        submit_all(&mut probe, &data);
        probe
            .run(&Workload::Batch)
            .expect("probe run failed")
            .report
            .makespan
    };
    // Kill node 0 well after every commit and replica install landed,
    // then bring it back empty.
    let death_at = Dur::from_nanos(makespan.as_nanos() * 2);
    let rejoin_at = Dur::from_nanos(makespan.as_nanos() * 3);
    let mut fleet = ShredderFleet::new(
        FleetConfig::new(2, node_config())
            .with_replication(2)
            .with_faults(FaultPlan::new().device_death(death_at, 0))
            .with_membership(MembershipPlan::new().join(rejoin_at, 0)),
    );
    submit_all(&mut fleet, &data);
    let out = fleet.run(&Workload::Batch).expect("fleet run failed");

    let report = &out.report;
    assert_eq!(report.completed, 8, "death after makespan loses nothing");
    assert_eq!(report.lost, 0);
    assert_eq!(report.repair.events, 1);
    assert!(
        report.repair.snapshots_installed > 0,
        "repair shipped nothing"
    );
    assert!(report.repair.bytes_copied > 0);

    // The rejoined node's fresh store holds every generation again —
    // with R = 2 on two nodes it replicates everything — and each one
    // restores digest-verified to the original stream bytes.
    let repaired = out.store(0).expect("node 0 exists");
    let repaired = repaired.borrow();
    for (req, original) in out.requests.iter().zip(&data) {
        let gens = repaired.generations(&req.store_stream);
        assert_eq!(gens.len(), 1, "{} not repaired", req.store_stream);
        let restored = repaired
            .restore(&req.store_stream, gens[0])
            .expect("restore after repair failed");
        assert_eq!(
            sha256(&restored),
            sha256(original),
            "{} corrupt",
            req.store_stream
        );
    }
    repaired.scrub().expect("scrub after repair failed");
}

#[test]
fn planned_leave_moves_a_bounded_fraction_of_live_bytes() {
    let data = stream_data(48, 32 << 10);
    let makespan = {
        let mut probe = ShredderFleet::new(FleetConfig::new(4, node_config()).with_replication(1));
        submit_all(&mut probe, &data);
        probe
            .run(&Workload::Batch)
            .expect("probe run failed")
            .report
            .makespan
    };
    let leave_at = Dur::from_nanos(makespan.as_nanos() * 2);
    let mut fleet = ShredderFleet::new(
        FleetConfig::new(4, node_config())
            .with_replication(1)
            .with_membership(MembershipPlan::new().leave(leave_at, 1)),
    );
    submit_all(&mut fleet, &data);
    let out = fleet.run(&Workload::Batch).expect("fleet run failed");

    let reb = &out.report.rebalance;
    assert_eq!(reb.events, 1);
    assert!(reb.bytes_moved > 0, "the leaving node owned nothing?");
    assert!(reb.streams_moved > 0);
    // The consistent-hashing bound: one leave of N=4 moves about 1/4 of
    // live bytes (its own share), never wildly more.
    assert!(
        reb.max_moved_fraction <= 0.25 + 0.15,
        "leave moved {:.3} of live bytes",
        reb.max_moved_fraction
    );
    assert_eq!(
        out.report.node(1).unwrap().left_at,
        Some(shredder_des::SimTime::ZERO + leave_at)
    );
    // Every moved stream is reachable at its new primary: all
    // generations restore somewhere on the final ring.
    for req in &out.requests {
        let found = (0..4).filter(|&n| n != 1).any(|n| {
            let store = out.store(n).unwrap();
            let store = store.borrow();
            let gens = store.generations(&req.store_stream);
            !gens.is_empty() && store.restore(&req.store_stream, gens[0]).is_ok()
        });
        assert!(found, "{} unreachable after the leave", req.store_stream);
    }
}

#[test]
fn fleet_runs_are_deterministic() {
    let data = stream_data(12, 64 << 10);
    let run = || {
        let mut fleet = ShredderFleet::new(
            FleetConfig::new(3, node_config())
                .with_replication(2)
                .with_faults(FaultPlan::new().device_death(Dur::from_millis(1), 2))
                .with_membership(MembershipPlan::new().join(Dur::from_millis(30), 2)),
        );
        submit_all(&mut fleet, &data);
        fleet
            .run(&Workload::poisson(2_500.0, 9))
            .expect("fleet run failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    for (ra, rb) in a.requests.iter().zip(&b.requests) {
        match (&ra.outcome, &rb.outcome) {
            (FleetRequestOutcome::Completed(sa), FleetRequestOutcome::Completed(sb)) => {
                assert_eq!(sa, sb)
            }
            (FleetRequestOutcome::Shed(_), FleetRequestOutcome::Shed(_)) => {}
            (FleetRequestOutcome::Lost, FleetRequestOutcome::Lost) => {}
            (x, y) => panic!("outcomes diverged for {}: {x:?} vs {y:?}", ra.name),
        }
        assert_eq!(ra.node, rb.node);
    }
}

#[test]
fn cross_node_duplicate_content_is_measured() {
    // Two streams with identical bytes, keyed to land on different
    // nodes: per-node dedup cannot catch the overlap, the fleet report
    // must.
    let shared = shredder_workloads::random_bytes(64 << 10, 0xd0b);
    let config = FleetConfig::new(2, node_config()).with_replication(1);
    let ring = config.initial_ring();
    let key_on = |node: usize| {
        (0..)
            .map(|i| format!("probe-{i}"))
            .find(|k| ring.route(k) == Some(node))
            .unwrap()
    };
    let mut fleet = ShredderFleet::new(config);
    fleet.submit(FleetRequest::new(key_on(0), SliceSource::new(&shared)));
    fleet.submit(FleetRequest::new(key_on(1), SliceSource::new(&shared)));
    let out = fleet.run(&Workload::Batch).expect("fleet run failed");

    let report = &out.report;
    assert_eq!(report.completed, 2);
    assert_eq!(
        report.cross_node_duplicate_bytes,
        (64 << 10) as u64,
        "the whole stream is duplicated across the two shards"
    );
    assert!((report.cross_node_dup_fraction() - 0.5).abs() < 1e-9);
    // No intra-node dedup: each node saw the content once.
    assert_eq!(report.intra_node_dedup_bytes, 0);
}
