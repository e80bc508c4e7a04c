//! Fleet scaling sweep: aggregate service rate vs. node count.
//!
//! The paper's single-node Shredder saturates one host's device budget;
//! a backup farm shards tenants across a fleet. This harness offers the
//! same Poisson tenant mix to 1-, 2- and 4-node fleets (consistent-hash
//! routing, `R = 2` replicated segment writes where the fleet has a
//! peer to hold them) and reports per-N aggregate completion rate,
//! latency tails, replication amplification, and the cross-node
//! duplicate fraction the sharding leaves behind.
//!
//! Set `SHREDDER_BENCH_JSON=<path>` to dump the headline numbers; the
//! CI gate (`bench_gate`) tracks `fleet_rps_n4` and the
//! `speedup_n4_over_n1` scaling ratio — the latter's baseline sits well
//! above 1, so the gate enforces the "4 nodes sustain more than 1"
//! acceptance claim release over release.

use shredder_bench::{check, dump_bench_json, header, result_line, table};
use shredder_cluster::{FleetConfig, FleetReport, FleetRequest, ShredderFleet};
use shredder_core::{AdmissionControl, MemorySource, ShredderConfig, TenantClass, Workload};
use shredder_telemetry::Json;

const TENANTS: usize = 32;
const REQ_BYTES: usize = 256 << 10;
const RATE_RPS: f64 = 6_000.0;
const SEED: u64 = 0xf1ee7;

fn node_config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10)
}

/// Runs the shared tenant mix — two weighted classes, one stream per
/// tenant — against an `nodes`-wide fleet and returns its report.
fn run_fleet(nodes: usize) -> FleetReport {
    let mut fleet = ShredderFleet::new(
        FleetConfig::new(nodes, node_config())
            .with_admission(AdmissionControl::fifo(4))
            .with_replication(2.min(nodes))
            .with_class(TenantClass::new("vm").with_weight(2))
            .with_class(TenantClass::new("db")),
    );
    for t in 0..TENANTS {
        let class = if t % 3 == 0 { "db" } else { "vm" };
        fleet.submit(
            FleetRequest::new(
                format!("{class}-{t}"),
                MemorySource::pseudo_random(REQ_BYTES, 0xacc0 + t as u64),
            )
            .named(format!("{class}-{t}"))
            .with_class(class),
        );
    }
    fleet
        .run(&Workload::poisson(RATE_RPS, SEED))
        .expect("fleet run failed")
        .report
}

fn main() {
    header(
        "Cluster fleet scaling sweep",
        "one Poisson tenant mix offered to 1-, 2- and 4-node fleets; routing, replication and tails",
    );
    result_line(
        "tenant mix",
        format!(
            "{TENANTS} streams x {} KiB at {RATE_RPS:.0} req/s offered",
            REQ_BYTES >> 10
        ),
    );
    println!();

    let sweep: Vec<(usize, FleetReport)> =
        [1usize, 2, 4].iter().map(|&n| (n, run_fleet(n))).collect();

    let rows: Vec<(String, Vec<String>)> = sweep
        .iter()
        .map(|(n, r)| {
            (
                format!("N={n} (R={})", r.replication.factor),
                vec![
                    format!("{:.0} rps", r.achieved_rps),
                    format!("{:.2} ms", r.p50.as_millis_f64()),
                    format!("{:.2} ms", r.p99.as_millis_f64()),
                    format!("{:.3}x", r.replication_amplification()),
                    format!("{:.1}%", r.cross_node_dup_fraction() * 100.0),
                ],
            )
        })
        .collect();
    table(&["achieved", "p50", "p99", "repl amp", "x-node dup"], &rows);
    println!();

    let (n1, n2, n4) = (&sweep[0].1, &sweep[1].1, &sweep[2].1);
    let speedup = n4.achieved_rps / n1.achieved_rps;
    result_line(
        "aggregate rate N=1",
        format!("{:.0} req/s", n1.achieved_rps),
    );
    result_line(
        "aggregate rate N=4",
        format!("{:.0} req/s", n4.achieved_rps),
    );
    result_line("speedup N=4 over N=1", format!("{speedup:.2}x"));
    result_line(
        "replication traffic N=4",
        format!(
            "{} shipments, {:.2} MB physical / {:.2} MB logical",
            n4.replication.shipments,
            n4.replication.physical_bytes as f64 / 1e6,
            n4.replication.logical_bytes as f64 / 1e6,
        ),
    );
    println!();

    check(
        "every fleet size completes the whole mix",
        sweep
            .iter()
            .all(|(_, r)| r.completed == TENANTS && r.shed == 0 && r.lost == 0),
    );
    check(
        &format!(
            "4 nodes sustain a higher aggregate rate than 1 ({:.0} vs {:.0} rps)",
            n4.achieved_rps, n1.achieved_rps
        ),
        n4.achieved_rps > n1.achieved_rps,
    );
    check(
        "scaling is monotone across the sweep (N=1 < N=2 < N=4)",
        n1.achieved_rps < n2.achieved_rps && n2.achieved_rps < n4.achieved_rps,
    );
    check("p99 improves with nodes (N=4 below N=1)", n4.p99 < n1.p99);
    check(
        "replication amplification stays within factor R",
        sweep
            .iter()
            .all(|(_, r)| r.replication_amplification() <= r.replication.factor as f64 + 1e-9),
    );
    check(
        "a single node needs no replication and moves no cluster bytes",
        n1.replication.shipments == 0 && n1.rebalance.bytes_moved == 0,
    );

    dump_bench_json(
        &Json::object()
            .field("fleet_rps_n1", n1.achieved_rps)
            .field("fleet_rps_n2", n2.achieved_rps)
            .field("fleet_rps_n4", n4.achieved_rps)
            .field("speedup_n4_over_n1", speedup)
            .field("p99_ms_n1", n1.p99.as_millis_f64())
            .field("p99_ms_n4", n4.p99.as_millis_f64())
            .field(
                "replication_amplification_n4",
                n4.replication_amplification(),
            )
            .field("cross_node_dup_fraction_n4", n4.cross_node_dup_fraction())
            .field(
                "replication_physical_bytes_n4",
                n4.replication.physical_bytes,
            ),
    );
}
